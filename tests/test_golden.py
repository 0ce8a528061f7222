"""Golden outputs of the benchmark's corpus commands.

Every command of the ``corpus`` workload in ``perfbench/workloads.py``,
except the float harness, runs in-process through :func:`liecheck.cli.main`
from the repository root.  A verdict command runs twice, once with its text
report and once with ``--report json``.  So do ``check``, ``torsion --mode
ad`` and ``torsion --mode all`` on two fixtures that no workload reaches: the
``reps(...)`` pair of ``so3_flip_reps.lie`` and the ``right(...)`` operators
of ``right_mult.lie``.  ``check`` runs, text and JSON, on two more:
``not_closed.lie`` and ``non_real_constants.lie``, whose generators span no
real Lie algebra.  ``parse`` runs, text only, on ``right_mult.lie`` and
``so3_flip_reps.lie``, to pin the canonical dumps of ``right(...)`` and
``reps(...)``.  The exit code, the ``error:`` lines of stderr and stdout
(the JSON without ``elapsed_ms``) must equal those in
``tests/data/golden/corpus.json``.

The ``ladder`` and ``complex`` workloads, at seed 1, are pinned the same way
in ``ladder.json`` and ``complex.json``: they reach the Q(i) elimination,
Z+/Z- and the split identities at their largest sizes.  Their commands
report JSON only, and the directory their ``.lie`` files are written to
reads ``<workdir>`` in the pinned output.

Regenerate the files, after a deliberate change of output, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

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
     for command, names in (("check", ("not_closed", "non_real_constants")),
                            ("parse", ("right_mult", "so3_flip_reps")))
     for name in names]


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


def _corpus_argvs() -> dict:
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
        return {name: _run(argv) for name, argv in _corpus_argvs().items()}
    finally:
        os.chdir(cwd)


def _capture_workload(name: str, workdir: str) -> dict:
    """``{cid: output}`` for every command of a workload at seed 1, its
    files written into ``workdir``."""
    return {cmd.cid: _run(list(cmd.argv), workdir)
            for cmd in _workloads().WORKLOADS[name](1, workdir)}


@pytest.fixture(scope="module")
def outputs():
    return _capture()


@pytest.fixture(scope="module")
def workload_outputs(tmp_path_factory):
    return {name: _capture_workload(name, str(tmp_path_factory.mktemp(name)))
            for name in WORKLOADS}


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


def _write(path: Path, outputs: dict) -> None:
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    _write(GOLDEN, _capture())
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            _write(GOLDEN_DIR / f"{workload}.json", _capture_workload(workload, tmp))
