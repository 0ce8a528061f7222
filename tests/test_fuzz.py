"""Random character edits of the corpus inputs keep the exit-code contract.

Every command of :func:`test_golden.corpus_argvs`, and every harness command
of :func:`harness_argvs`, runs, in process through
:func:`liecheck.cli.main`, on ``EDITS_PER_COMMAND`` edited copies of its
``.lie`` file.  An edited copy has 1 to 3 random character edits (insert,
delete or replace) drawn from the characters of the ``.lie`` syntax and a
few outside it.  Whatever the edit, the exit code is 0, 1 or 2, and an exit
2 leaves stdout empty and writes exactly one line to stderr, an ``error:``
line that is not an internal error.

:func:`edited_commands` is the generator of the test, so the same edited
inputs can be run against two versions of the package to compare outputs.
"""

import contextlib
import io
import random

from liecheck.cli import main
from test_golden import ROOT, _workloads, corpus_argvs

#: The characters of the ``.lie`` syntax, then ``$``, ``²`` and ``é``.
ALPHABET = "abdeghijknprsxyz_0129/+-*=,;[](){}>#\n \t$²é"
EDITS_PER_COMMAND = 5
SEED = 20261019
#: The sample count of a fuzzed harness command.
HARNESS_SAMPLES = "20"


def _edit(text: str, rng: random.Random) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op, pos = rng.choice("idr"), rng.randrange(len(chars) + 1)
        if op == "i":
            chars.insert(pos, rng.choice(ALPHABET))
        elif pos < len(chars) and op == "d":
            del chars[pos]
        elif pos < len(chars):
            chars[pos] = rng.choice(ALPHABET)
    return "".join(chars)


def harness_argvs() -> dict:
    """``{name: argv}`` for the harness commands of the ``corpus`` workload,
    which :func:`corpus_argvs` skips, and of the ``harness`` workload, each
    at ``HARNESS_SAMPLES`` samples."""
    workloads = _workloads()
    argvs = {}
    for workload in ("corpus", "harness"):
        for cmd in workloads.WORKLOADS[workload](1, None):
            argv = list(cmd.argv)
            if argv[0] == "harness":
                if "--samples" in argv:
                    argv[argv.index("--samples") + 1] = HARNESS_SAMPLES
                else:
                    argv += ["--samples", HARNESS_SAMPLES]
                argvs[f"{workload}: {cmd.cid}"] = argv
    return dict(sorted(argvs.items()))


def edited_commands(seed: int = SEED, commands: dict | None = None):
    """Yield ``(name, argv, text)``: a command of ``commands`` (by default
    :func:`corpus_argvs`), its argv and an edited copy of its input file,
    whose path in ``argv`` the caller replaces."""
    rng = random.Random(seed)
    for name, argv in (corpus_argvs() if commands is None else commands).items():
        (source,) = [word for word in argv if word.endswith(".lie")]
        text = (ROOT / source).read_text(encoding="utf-8")
        for edit in range(EDITS_PER_COMMAND):
            yield f"{name} #{edit}", argv, _edit(text, rng)


def run_edited(text: str, argv: list, path) -> tuple:
    """``(exit code, stdout, stderr)`` of ``argv`` on ``text`` written to ``path``."""
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if word.endswith(".lie") else word for word in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(commands: dict, path) -> int:
    """Run every edited copy of ``commands`` and check its exit code and
    streams; returns the number of runs."""
    runs = 0
    for name, argv, text in edited_commands(commands=commands):
        code, stdout, stderr = run_edited(text, argv, path)
        assert code in (0, 1, 2), (name, text)
        if code == 2:
            assert stdout == "", (name, text)
            assert stderr.count("\n") == 1 and stderr.endswith("\n"), (name, text, stderr)
            assert stderr.startswith("error: "), (name, text, stderr)
            assert not stderr.startswith("error: internal error"), (name, text, stderr)
        runs += 1
    return runs


def test_edited_inputs_keep_the_exit_code_contract(tmp_path):
    commands = corpus_argvs()
    assert _check_contract(commands, tmp_path / "edited.lie") == len(commands) * EDITS_PER_COMMAND


def test_edited_harness_inputs_keep_the_exit_code_contract(tmp_path):
    commands = harness_argvs()
    assert len(commands) == 21
    assert _check_contract(commands, tmp_path / "edited.lie") == len(commands) * EDITS_PER_COMMAND
