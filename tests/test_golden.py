"""Golden outputs of the benchmark's corpus commands.

Every command of the ``corpus`` workload in ``perfbench/workloads.py``,
except the float harness, runs in-process through :func:`liecheck.cli.main`
from the repository root.  A verdict command runs twice, once with its text
report and once with ``--report json``.  So do ``check``, ``torsion --mode
ad`` and ``torsion --mode all`` on two fixtures that no workload reaches: the
``reps(...)`` pair of ``so3_flip_reps.lie`` and the ``right(...)`` operators
of ``right_mult.lie``.  ``check`` runs, text and JSON, on five more:
``not_closed.lie`` and ``non_real_constants.lie``, whose generators span no
real Lie algebra, ``not_subalgebra.lie``, whose subalgebra is not closed
under the bracket (its error line names the witness pair),
``bad_component_rep.lie``, whose representative is not a bracket
automorphism (its error line names the failing value), and
``split_not_admissible.lie``, whose split verdict fails at its
``admissible`` clause.  ``parse`` runs,
text only, on ``right_mult.lie`` and ``so3_flip_reps.lie``, to pin the
canonical dumps of ``right(...)`` and ``reps(...)``.  ``check``, ``torsion`` and ``integrability`` run, text and
JSON, on ``so3_identity_component.lie``, a non-connected pair without
``reps(...)``, to pin the ``identity_component`` scope of each report.  ``integrability`` runs, text
and JSON, on the three operators of ``flag_u3.lie``, invariant structures
on the flag manifold U(3)/T^3: one integrable, one not, and the first plus
a map into the torus, which is integrable but not split.  The exit code, the ``error:`` lines of stderr and stdout
(the JSON without ``elapsed_ms``) must equal those in
``tests/data/golden/corpus.json``.

The ``ladder`` and ``complex`` workloads, at seed 1, are pinned the same way
in ``ladder.json`` and ``complex.json``: they reach the Q(i) elimination,
Z+/Z- and the split identities at their largest sizes.  Their commands
report JSON only, and the directory their ``.lie`` files are written to
reads ``<workdir>`` in the pinned output.

Every command above, and the four commands of the ``harness`` workload at
seed 1, runs on the integer views alone: the rational layer that the tests
check verdicts and witnesses against (``LieAlgebra.bracket``,
``ExactMatrix.apply`` and ``@``, ``Subspace.coordinates_of`` and ``in``,
``kernel_basis``, ``torsion_form`` and the arithmetic of
``GaussianRational``) is counted while they run, and must not be called.

Regenerate the files, after a deliberate change of output, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import importlib
import io
import json
import os
import pkgutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

import liecheck
from liecheck import ExactMatrix, GaussianRational, LieAlgebra, Subspace
from liecheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "data" / "golden"
GOLDEN = GOLDEN_DIR / "corpus.json"
#: The synthetic workloads pinned at seed 1, each in ``<name>.json``.
WORKLOADS = ("ladder", "complex")
WORKDIR = "<workdir>"
FIXTURE_COMMANDS = [
    [*command, path, *operator]
    for path, operators in [("tests/data/so3_flip_reps.lie", [[]]),
                            ("tests/data/right_mult.lie",
                             [["--operator", "rdiag"], ["--operator", "rrot"]])]
    for operator in operators
    for command in (["check"], ["torsion", "--mode", "ad"], ["torsion", "--mode", "all"])
] + [[command, f"tests/data/{name}.lie"]
     for command, names in (("check", ("not_closed", "non_real_constants", "not_subalgebra",
                                       "bad_component_rep", "split_not_admissible")),
                            ("parse", ("right_mult", "so3_flip_reps")))
     for name in names
] + [[command, "tests/data/so3_identity_component.lie"]
     for command in ("check", "torsion", "integrability")
] + [["integrability", "tests/data/flag_u3.lie", "--operator", operator]
     for operator in ("jplus", "jcyclic", "jplus_b")]


#: The rational layer, as ``(owner, name)``: a method of a class, or a
#: function of a liecheck module, counted under every liecheck name that
#: holds it.
RATIONAL_LAYER = (
    (LieAlgebra, "bracket"), (ExactMatrix, "apply"), (ExactMatrix, "__matmul__"),
    (Subspace, "coordinates_of"), (Subspace, "__contains__"),
    *((GaussianRational, name) for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                                             "__mul__", "__rmul__", "__neg__")),
    ("liecheck.exact", "kernel_basis"), ("liecheck.torsion", "torsion_form"),
)
#: ``{capture: Counter}``: the rational-layer calls made by each capture.
RATIONAL_CALLS = {}


@contextlib.contextmanager
def _rational_layer_counted(capture: str):
    """Count the rational-layer calls made in the block as ``capture``."""
    calls = RATIONAL_CALLS.setdefault(capture, Counter())
    modules = [importlib.import_module(f"liecheck.{m.name}")
               for m in pkgutil.iter_modules(liecheck.__path__)]
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in RATIONAL_LAYER:
            if isinstance(owner, str):
                original = getattr(sys.modules[owner], name)
                homes = [m for m in modules if getattr(m, name, None) is original]
            else:
                original, homes = getattr(owner, name), [owner]

            def counted(*args, _name=f"{getattr(owner, '__name__', owner)}.{name}",
                        _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for home in homes:
                patch.setattr(home, name, counted)
        yield


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


WANT = _load(GOLDEN)
WANT_WORKLOADS = {name: _load(GOLDEN_DIR / f"{name}.json") for name in WORKLOADS}


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def corpus_argvs() -> dict:
    """``{name: argv}`` for every non-harness corpus command and every
    fixture command, text and JSON."""
    argvs = {}
    for cmd in _workloads().corpus(1, None):
        if cmd.argv[0] == "harness":
            continue
        argv = list(cmd.argv)
        if argv[-2:] == ["--report", "json"]:
            argvs[cmd.cid + " [json]"] = argv
            argv = argv[:-2]
        argvs[cmd.cid] = argv
    for argv in FIXTURE_COMMANDS:
        argvs[" ".join(argv)] = argv
        if argv[0] != "parse":  # parse has no --report
            argvs[" ".join(argv) + " [json]"] = argv + ["--report", "json"]
    return dict(sorted(argvs.items()))


def _run(argv: list, workdir: str | None = None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    if workdir is not None:
        stdout, stderr = stdout.replace(workdir, WORKDIR), stderr.replace(workdir, WORKDIR)
    if "--report" in argv:
        stdout = json.loads(stdout) if stdout else None
        if stdout:
            del stdout["elapsed_ms"]
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    return {"code": code, "errors": errors, "stdout": stdout}


def _capture() -> dict:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return {name: _run(argv) for name, argv in corpus_argvs().items()}
    finally:
        os.chdir(cwd)


def _capture_workload(name: str, workdir: str) -> dict:
    """``{cid: output}`` for every command of a workload at seed 1, its
    files written into ``workdir``."""
    return {cmd.cid: _run(list(cmd.argv), workdir)
            for cmd in _workloads().WORKLOADS[name](1, workdir)}


@pytest.fixture(scope="module")
def outputs():
    with _rational_layer_counted("corpus"):
        return _capture()


@pytest.fixture(scope="module")
def workload_outputs(tmp_path_factory):
    outputs = {}
    for name in WORKLOADS:
        with _rational_layer_counted(name):
            outputs[name] = _capture_workload(name, str(tmp_path_factory.mktemp(name)))
    return outputs


@pytest.fixture(scope="module")
def harness_codes(tmp_path_factory):
    """The exit codes of the ``harness`` workload's commands at seed 1."""
    with _rational_layer_counted("harness"):
        return {cid: output["code"] for cid, output in _capture_workload(
            "harness", str(tmp_path_factory.mktemp("harness"))).items()}


def test_golden_covers_every_command(outputs):
    assert sorted(outputs) == sorted(WANT)


@pytest.mark.parametrize("name", sorted(WANT))
def test_golden_output(outputs, name):
    assert outputs[name] == WANT[name]


def test_workload_golden_covers_every_command(workload_outputs):
    assert {name: sorted(got) for name, got in workload_outputs.items()} == {
        name: sorted(want) for name, want in WANT_WORKLOADS.items()}


@pytest.mark.parametrize("workload,cid", [(name, cid) for name in WORKLOADS
                                          for cid in sorted(WANT_WORKLOADS[name])])
def test_workload_golden_output(workload_outputs, workload, cid):
    assert workload_outputs[workload][cid] == WANT_WORKLOADS[workload][cid]


def test_no_command_runs_the_rational_layer(outputs, workload_outputs, harness_codes):
    assert set(harness_codes.values()) == {0}
    assert {capture: dict(calls) for capture, calls in RATIONAL_CALLS.items() if calls} == {}


def _write(path: Path, outputs: dict) -> None:
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    _write(GOLDEN, _capture())
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            _write(GOLDEN_DIR / f"{workload}.json", _capture_workload(workload, tmp))
