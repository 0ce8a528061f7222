"""Mutation gate: every mutant in :data:`MUTANTS` must fail its tests.

A mutant is one exact replacement in one module of ``src/liecheck``, and
the tests that must catch it.  The runner copies ``src`` to a temporary
directory and runs ``pytest -x`` on the named tests against the copy: once
unmutated, where they must pass, and once per mutant, where they must fail.
Hypothesis runs under the ``mutants`` profile of ``conftest.py``
(derandomized, no example database), so a kill does not depend on a draw.

Run it from the root of a source checkout (it is not part of tier-1)::

    python tests/mutants.py

A mutant that survives is a finding; keep it in the table.  An equivalent
mutant, one that no test can catch because the program computes the same
verdicts with it, is left out, with the reason here:

- testing only the real half of ``(A + iB) [x, y]`` in
  ``algebra._bracket_escape``: on Z+ the imaginary half follows from the
  real one once J is admissible, which every caller checks first (see that
  function's docstring), and for k, ``B = 0`` and a real basis leave no
  imaginary half.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/liecheck
    old: str  # exact source text, found exactly once
    new: str
    tests: tuple  # pytest node ids, run from the repository root


ESCAPE_TESTS = (
    "tests/test_complexstruct.py::test_z_plus_closure_matches_gaussian_reference",
    "tests/test_algebra.py::test_make_subalgebra_matches_fraction_reference",
    "tests/test_flags.py",
    "tests/test_golden.py",
)

MUTANTS = (
    Mutant("escape: drop c from the witness scale", "algebra.py",
           "from_integers(n, c * lx * ly, re, im)", "from_integers(n, lx * ly, re, im)",
           ESCAPE_TESTS),
    Mutant("escape: drop λx from the witness scale", "algebra.py",
           "from_integers(n, c * lx * ly, re, im)", "from_integers(n, c * ly, re, im)",
           ESCAPE_TESTS),
    Mutant("escape: ignore B", "algebra.py",
           "if (any(apply_columns(b, im, apply_columns(a, re, {}), -1).values())\n"
           "                    or any(apply_columns(b, re, apply_columns(a, im, {})).values())):",
           "if (any(apply_columns(a, re, {}).values())\n"
           "                    or any(apply_columns(a, im, {}).values())):",
           ESCAPE_TESTS),
    Mutant("escape: + [x_im, y_im] in the real part", "algebra.py",
           "bracket_into(constants, x_re, y_re, {}), -1)",
           "bracket_into(constants, x_re, y_re, {}))",
           ESCAPE_TESTS),
    Mutant("escape: every witness typed GaussianRational", "algebra.py",
           "im = im if _is_gaussian(space.basis) else None", "im = im",
           ESCAPE_TESTS),
    Mutant("Z+ equations: J + i in place of J - i", "complexstruct.py",
           "[tuple((t, -s * x) for t, x in col) for col in q]",
           "[tuple((t, s * x) for t, x in col) for col in q]",
           ESCAPE_TESTS),
    Mutant("harness gate: drop the exact-torsion gate", "harness.py",
           "        if self.nijenhuis_exact and not (self.max_numerical <= TORSION_TOL):\n"
           "            return False\n",
           "",
           ("tests/test_harness.py::test_deviation_report_exact_torsion_gate",)),
)


def _pytest(src: Path, tests) -> tuple:
    """``(exit code, seconds)`` of ``pytest -x`` on ``tests`` against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-profile=mutants", *tests]
    start = time.perf_counter()
    code = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    return code, time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code, seconds = _pytest(src, tests)
        print(f"unmutated: exit {code} in {seconds:.1f} s")
        failures = int(code != 0)
        for m in MUTANTS:
            path = src / "liecheck" / m.module
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"{m.name}: the text to replace occurs {text.count(m.old)} times")
                failures += 1
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                code, seconds = _pytest(src, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            # Exit 1 is a failing test; any other code (a collection error,
            # an interrupted run) does not show that a test bites.
            print(f"{m.name}: {'killed' if code == 1 else f'SURVIVED (exit {code})'}"
                  f" in {seconds:.1f} s")
            failures += code != 1
    print(f"{len(MUTANTS)} mutants, {failures} failures")
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main())
