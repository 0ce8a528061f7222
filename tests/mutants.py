"""Mutation gate: every mutant in :data:`MUTANTS` must fail its tests.

A mutant is one exact replacement in one module of ``src/liecheck``, and
the tests that must catch it.  The runner copies ``src`` to a temporary
directory and runs ``pytest -x`` on the named tests against the copy: once
unmutated, where they must pass, and once per mutant, where they must fail;
a kill names the first failing test.
Hypothesis runs under the ``mutants`` profile of ``conftest.py``
(derandomized, no example database, no shrinking), so a kill does not
depend on a draw.

Run it from the root of a source checkout (it is not part of tier-1)::

    python tests/mutants.py

A mutant that survives is a finding; keep it in the table.
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
ADMISSIBLE_TESTS = ("tests/test_operators.py::test_admissible_matches_fraction_reference",)
REP_TESTS = ("tests/test_operators.py::test_validate_rep_matches_fraction_reference",)
SPLIT_TESTS = ("tests/test_operators.py::test_split_kernel_failure_matches_fraction_reference",
               "tests/test_operators.py::test_split_kernel_and_complement_clauses")
TORSION_TESTS = ("tests/test_torsion.py::test_torsion_matches_fraction_reference",
                 "tests/test_torsion.py::test_torsion_ad_matches_fraction_reference")
TORSION_SCALE = 'scale = -c * s * s if pairs == "ad" else c * s * s'
ELIMINATION_TESTS = ("tests/test_exact.py::test_rref_matches_scalar_reference",
                     "tests/test_exact.py::test_kernel_basis_matches_two_step_reference",
                     "tests/test_exact_oracle.py")
JACOBI_TESTS = ("tests/test_algebra.py::test_integer_jacobi_matches_fraction_reference",
                "tests/test_algebra.py::test_jacobi_packing_width_at_the_bound",
                "tests/test_algebra.py::test_jacobi_packing_matches_reference_near_the_bound",
                "tests/test_algebra.py::test_construction_rejects_jacobi_violation")
SPAN_TESTS = ("tests/test_exact.py::test_span_solver_coords_match_dense",
              "tests/test_algebra.py::test_from_matrix_generators_so3",
              "tests/test_algebra.py::test_from_matrix_generators_matches_dense_reference",
              "tests/test_operators.py::test_multiplication_operators_match_dense_reference")
VIEW_TESTS = ("tests/test_exact.py::test_integer_views_match_fraction_reference",
              "tests/test_exact.py::test_span_solver_coords_match_dense")
SUBSPACE_VIEW_TESTS = (
    "tests/test_exact_oracle.py::test_annihilator_matches_oracle_membership",
    "tests/test_exact_oracle.py::test_gaussian_annihilator_matches_oracle_membership",
    *ADMISSIBLE_TESTS, *ESCAPE_TESTS)


MUTANTS = (
    Mutant("escape: drop c from the witness scale", "algebra.py",
           "from_integers(n, c * lx * ly, re, im)", "from_integers(n, lx * ly, re, im)",
           ESCAPE_TESTS),
    Mutant("escape: drop λx from the witness scale", "algebra.py",
           "from_integers(n, c * lx * ly, re, im)", "from_integers(n, c * ly, re, im)",
           ESCAPE_TESTS),
    Mutant("escape: drop λy from the witness scale", "algebra.py",
           "from_integers(n, c * lx * ly, re, im)", "from_integers(n, c * lx, re, im)",
           ESCAPE_TESTS),
    Mutant("escape: ignore B", "algebra.py",
           "if (any(apply_columns(b, im, apply_columns(a, re, {}), -1).values())\n"
           "                    or any(apply_columns(b, re, apply_columns(a, im, {})).values())):",
           "if (any(apply_columns(a, re, {}).values())\n"
           "                    or any(apply_columns(a, im, {}).values())):",
           ESCAPE_TESTS),
    Mutant("escape: test only the real half", "algebra.py",
           "if (any(apply_columns(b, im, apply_columns(a, re, {}), -1).values())\n"
           "                    or any(apply_columns(b, re, apply_columns(a, im, {})).values())):",
           "if any(apply_columns(b, im, apply_columns(a, re, {}), -1).values()):",
           ESCAPE_TESTS),
    Mutant("escape: + [x_im, y_im] in the real part", "algebra.py",
           "bracket_into(constants, x_re, y_re, {}), -1)",
           "bracket_into(constants, x_re, y_re, {}))",
           ESCAPE_TESTS),
    Mutant("escape: every witness typed GaussianRational", "algebra.py",
           "im = im if _is_gaussian(space.basis) else None", "im = im",
           ESCAPE_TESTS),
    Mutant("Z+ equations: J + i in place of J - i", "complexstruct.py",
           "[1][j] = -s * x", "[1][j] = s * x",
           ESCAPE_TESTS),
    Mutant("split identities: E+ as ker(J + i)", "complexstruct.py",
           "e_plus = _z_plus_kernel([((j, 1),) for j in range(n)], op)",
           "e_plus = _z_plus_kernel([((j, 1),) for j in range(n)], op).conjugated()",
           ("tests/test_complexstruct.py::test_integrable_rotation",)),
    Mutant("preserves_k: drop s", "operators.py", "from_integers(n, s * lz, value)",
           "from_integers(n, lz, value)", ADMISSIBLE_TESTS),
    Mutant("preserves_k: drop λz", "operators.py", "from_integers(n, s * lz, value)",
           "from_integers(n, s, value)", ADMISSIBLE_TESTS),
    Mutant("commutes_with_ad_k: drop s", "operators.py", "from_integers(n, s * c * lz, value)",
           "from_integers(n, c * lz, value)", ADMISSIBLE_TESTS),
    Mutant("commutes_with_ad_k: drop c", "operators.py", "from_integers(n, s * c * lz, value)",
           "from_integers(n, s * lz, value)", ADMISSIBLE_TESTS),
    Mutant("commutes_with_ad_k: drop λz", "operators.py", "from_integers(n, s * c * lz, value)",
           "from_integers(n, s * c, value)", ADMISSIBLE_TESTS),
    Mutant("commutes_with_component_reps: drop s", "operators.py", "from_integers(n, s * r, value)",
           "from_integers(n, r, value)", ADMISSIBLE_TESTS),
    Mutant("commutes_with_component_reps: drop r", "operators.py", "from_integers(n, s * r, value)",
           "from_integers(n, s, value)", ADMISSIBLE_TESTS),
    Mutant("rep preserves k: drop r", "operators.py", "from_integers(n, r * lz, value)",
           "from_integers(n, lz, value)", REP_TESTS),
    Mutant("rep automorphism: drop one r", "operators.py", "from_integers(n, r * r * c, value)",
           "from_integers(n, r * c, value)", REP_TESTS),
    Mutant("rep automorphism: R e_a taken unscaled", "operators.py",
           "bracket_into(constants, {a: r}, {b: 1}, {})",
           "bracket_into(constants, {a: 1}, {b: 1}, {})", REP_TESTS),
    Mutant("split witness: drop s", "operators.py", "from_integers(n, s * lx, image)",
           "from_integers(n, lx, image)", SPLIT_TESTS),
    Mutant("split witness: drop λx", "operators.py", "from_integers(n, s * lx, image)",
           "from_integers(n, s, image)", SPLIT_TESTS),
    Mutant("split: k_in_kernel given m's equations", "operators.py",
           '("k_in_kernel", pair.k.space, [((j, 1),) for j in range(n)])',
           '("k_in_kernel", pair.k.space, pair.m.equation_columns[0])',
           SPLIT_TESTS),
    Mutant("torsion: drop one s", "torsion.py", TORSION_SCALE,
           'scale = -c * s if pairs == "ad" else c * s', TORSION_TESTS),
    Mutant("torsion: drop c", "torsion.py", TORSION_SCALE,
           'scale = -s * s if pairs == "ad" else s * s', TORSION_TESTS),
    Mutant("torsion --mode ad: drop the negation", "torsion.py", TORSION_SCALE, "scale = c * s * s",
           TORSION_TESTS),
    Mutant("torsion: drop λv", "torsion.py", "from_integers(pair.alg.dim, scale * lv * lw, beta)",
           "from_integers(pair.alg.dim, scale * lw, beta)", TORSION_TESTS),
    Mutant("torsion: drop λw", "torsion.py", "from_integers(pair.alg.dim, scale * lv * lw, beta)",
           "from_integers(pair.alg.dim, scale * lv, beta)", TORSION_TESTS),
    Mutant("elimination: drop the content division", "exact.py",
           "    g = gcd(den, *re, *(im or ()))\n", "    g = 1\n", ELIMINATION_TESTS),
    Mutant("elimination: wrong sign in the pivot's conjugate product", "exact.py",
           "[x * a + y * b for x, y in zip(re, im)]", "[x * a - y * b for x, y in zip(re, im)]",
           ELIMINATION_TESTS),
    Mutant("elimination: wrong sign of the imaginary factor", "exact.py",
           "[den * s - fx * t + fy * u for s, t, u in zip(x, re, w)]",
           "[den * s - fx * t - fy * u for s, t, u in zip(x, re, w)]", ELIMINATION_TESTS),
    Mutant("packed Jacobi: width w - 1", "algebra.py",
           "w = (3 * n * top * top).bit_length()", "w = (3 * n * top * top).bit_length() - 1",
           JACOBI_TESTS),
    Mutant("packed Jacobi: unsigned fields", "algebra.py",
           "sum([c << w * t for t, c in terms])",
           "sum([(c & ((1 << w) - 1)) << w * t for t, c in terms])", JACOBI_TESTS),
    Mutant("packed Jacobi: drop one cyclic term", "algebra.py",
           "                    for m, c in ij:\n"
           "                        acc += c * packed[k][m]\n",
           "", JACOBI_TESTS),
    Mutant("from_matrix_generators: nonzeros[j][i] not negated", "algebra.py",
           "nonzeros[j][i] = tuple([(k, -x) for k, x in terms])", "nonzeros[j][i] = terms",
           SPAN_TESTS),
    Mutant("span solver: skip the N t test", "matrix_span.py",
           "if any(x for r, x in acc.items() if r >= len(self._den)):", "if False:",
           SPAN_TESTS),
    Mutant("span solver: drop the generator scale in T", "matrix_span.py",
           "scale = self.scales[pivots[r]] if r < len(pivots) else 1", "scale = 1", SPAN_TESTS),
    Mutant("span solver: drop the b v term of _times", "matrix_span.py",
           "(re + sign * (a * u - b * v),", "(re + sign * a * u,", SPAN_TESTS),
    Mutant("Gaussian-integer view: drop s // a.denominator", "exact.py",
           "(a.numerator * (s // a.denominator),", "(a.numerator,", VIEW_TESTS),
    Mutant("subspace integer rows: λ taken as 1", "exact.py",
           "self._rows = tuple((lam, {j: x", "self._rows = tuple((1, {j: x",
           SUBSPACE_VIEW_TESTS),
    Mutant("subspace equation columns: drop B", "exact.py",
           "for columns, part in ((a, re), (b, im or ())):", "for columns, part in ((a, re),):",
           SUBSPACE_VIEW_TESTS),
    Mutant("Subalgebra: no ambient dimension check", "algebra.py",
           "        if space.ambient_dim != parent.dim:\n"
           "            raise DimensionMismatch(", "        if False:\n            raise DimensionMismatch(",
           ("tests/test_algebra.py::test_subalgebra_checks_its_ambient_dimension",)),
    Mutant("harness gate: drop the exact-torsion gate", "harness.py",
           "        if self.nijenhuis_exact and not (self.max_numerical <= TORSION_TOL):\n"
           "            return False\n",
           "",
           ("tests/test_harness.py::test_deviation_report_exact_torsion_gate",)),
)


def _pytest(src: Path, tests) -> tuple:
    """``(exit code, seconds, first failing test)`` of ``pytest -x`` on
    ``tests`` against ``src``; the test is "" when none failed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
            "--hypothesis-profile=mutants", *tests]
    start = time.perf_counter()
    run = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    failed = [line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode, time.perf_counter() - start, (failed or [""])[0]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code, seconds, failed = _pytest(src, tests)
        print(f"unmutated: exit {code} in {seconds:.1f} s {failed}".rstrip())
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
                code, seconds, failed = _pytest(src, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            # Exit 1 is a failing test; any other code (a collection error,
            # an interrupted run) does not show that a test bites.
            print(f"{m.name}: {f'killed by {failed}' if code == 1 else f'SURVIVED (exit {code})'}"
                  f" in {seconds:.1f} s")
            failures += code != 1
    print(f"{len(MUTANTS)} mutants, {failures} failures")
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main())
