"""Golden outputs of the benchmark's corpus commands.

Every command of the ``corpus`` workload in ``perfbench/workloads.py``,
except the float harness, runs in-process through :func:`liecheck.cli.main`
from the repository root.  A verdict command runs twice, once with its text
report and once with ``--report json``.  So do ``check``, ``torsion --mode
ad`` and ``torsion --mode all`` on two fixtures that no workload reaches: the
``reps(...)`` pair of ``so3_flip_reps.lie`` and the ``right(...)`` operators
of ``right_mult.lie``.  ``check`` runs, text and JSON, on two more:
``not_closed.lie`` and ``non_real_constants.lie``, whose generators span no
real Lie algebra.  The exit code, the ``error:`` lines of stderr and stdout
(the JSON without ``elapsed_ms``) must equal those in
``tests/data/golden/corpus.json``.

Regenerate the file, after a deliberate change of output, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from liecheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden" / "corpus.json"
FIXTURE_COMMANDS = [
    [*command, path, *operator]
    for path, operators in [("tests/data/so3_flip_reps.lie", [[]]),
                            ("tests/data/right_mult.lie",
                             [["--operator", "rdiag"], ["--operator", "rrot"]])]
    for operator in operators
    for command in (["check"], ["torsion", "--mode", "ad"], ["torsion", "--mode", "all"])
] + [["check", f"tests/data/{name}.lie"] for name in ("not_closed", "non_real_constants")]
WANT = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def _corpus_argvs() -> dict:
    """``{name: argv}`` for every non-harness corpus command and every
    fixture command, text and JSON."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    argvs = {}
    for cmd in workloads.corpus(1, None):
        if cmd.argv[0] == "harness":
            continue
        argv = list(cmd.argv)
        if argv[-2:] == ["--report", "json"]:
            argvs[cmd.cid + " [json]"] = argv
            argv = argv[:-2]
        argvs[cmd.cid] = argv
    for argv in FIXTURE_COMMANDS:
        argvs[" ".join(argv)] = argv
        argvs[" ".join(argv) + " [json]"] = argv + ["--report", "json"]
    return dict(sorted(argvs.items()))


def _run(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = out.getvalue()
    if "--report" in argv:
        stdout = json.loads(stdout) if stdout else None
        if stdout:
            del stdout["elapsed_ms"]
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    return {"code": code, "errors": errors, "stdout": stdout}


def _capture() -> dict:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return {name: _run(argv) for name, argv in _corpus_argvs().items()}
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def outputs():
    return _capture()


def test_golden_covers_every_command(outputs):
    assert sorted(outputs) == sorted(WANT)


@pytest.mark.parametrize("name", sorted(WANT))
def test_golden_output(outputs, name):
    assert outputs[name] == WANT[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(_capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
