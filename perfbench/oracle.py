"""Known answers for benchmark commands and the checks that compare against them.

Every command carries its expected exit code and, where the command writes a
JSON report, a list of field checks.  The expected values are fixed when the
command is made: by construction for the synthetic families and by hand for
the shipped corpus.  Nothing here is taken from liecheck's own output.

The ladder's torsion witnesses are re-checked with this module's own
``Fraction`` matrix arithmetic, independent of liecheck's exact kernel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional


@dataclass(frozen=True)
class Command:
    """One liecheck invocation and its known answer.

    ``argv`` is what follows ``python -m liecheck.cli``.  ``checks`` receive
    the decoded JSON report and return an error message or None.  For exit
    code 2, ``stderr_has`` is a fragment the diagnostic must contain.
    """

    cid: str
    argv: tuple
    code: int
    json_report: bool = True
    checks: tuple = ()
    stderr_has: Optional[str] = None
    stdout_prefix: Optional[str] = None


def verify(cmd: Command, code: Optional[int], out: str, err: str) -> Optional[str]:
    """Compare one run with the known answer; None means it agrees."""
    if code is None:
        return "timed out"
    if code != cmd.code:
        tail = err.strip().splitlines()[-1:] if err.strip() else []
        return f"exit code {code}, expected {cmd.code} {tail}"
    if cmd.code == 2:
        if cmd.stderr_has and cmd.stderr_has not in err:
            return f"stderr lacks {cmd.stderr_has!r}: {err.strip()[:200]!r}"
        return None
    if cmd.stdout_prefix is not None and not out.startswith(cmd.stdout_prefix):
        return f"stdout does not start with {cmd.stdout_prefix!r}"
    if not cmd.json_report:
        return None
    try:
        payload = json.loads(out)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if payload.get("verdict") is not (cmd.code == 0):
        return f"verdict {payload.get('verdict')!r} disagrees with exit code {cmd.code}"
    for check in cmd.checks:
        problem = check(payload)
        if problem:
            return problem
    return None


# ---------------------------------------------------------------------------
# reusable field checks
# ---------------------------------------------------------------------------

def expect(key: str, want) -> Callable:
    """The report field ``key`` (dotted path) equals ``want``."""
    def check(payload):
        got = payload
        for part in key.split("."):
            if not isinstance(got, dict) or part not in got:
                return f"report lacks {key}"
            got = got[part]
        if got != want:
            return f"{key} = {got!r}, expected {want!r}"
        return None
    return check


def has_witness(*names: str) -> Callable:
    """The report carries one witness with vectors under ``names``; the last
    one is the offending value and must be nonzero."""
    def check(payload):
        wits = payload.get("witnesses") or []
        if len(wits) != 1:
            return f"expected one witness, got {len(wits)}"
        for name in names:
            if not isinstance(wits[0].get(name), dict):
                return f"witness lacks {name}"
        coords = wits[0][names[-1]]["coords"]
        if all(c == "0" for c in coords):
            return f"witness {names[-1]} is zero"
        return None
    return check


# ---------------------------------------------------------------------------
# independent re-check of gl(n) torsion witnesses
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _commutator(a, b):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    n = len(a)
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def _gl_matrix(coords, n):
    """Coordinates over the unit-matrix basis e_ij (row-major) as a matrix."""
    vals = [Fraction(c) for c in coords]
    return [[vals[i * n + j] for j in range(n)] for i in range(n)]


def gl_ad_witness(n: int, diag: tuple, sign: int) -> Callable:
    """Re-check a failing ``ad(D)`` torsion witness on gl(n), D = diag(diag).

    The report's torsion value must equal ``sign * [[D,V],[D,W]]`` and that
    matrix must have a nonzero off-diagonal entry, so it lies outside the
    diagonal stabilizer.  ``sign`` is +1 for the specialized ``ad`` mode and
    -1 for the generic torsion form, which reduces to ``-[[D,V],[D,W]]`` for
    a derivation.
    """
    d = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]

    def check(payload):
        wits = payload.get("witnesses") or []
        if len(wits) != 1:
            return f"expected one witness, got {len(wits)}"
        wit = wits[0]
        v = _gl_matrix(wit["v"]["coords"], n)
        w = _gl_matrix(wit["w"]["coords"], n)
        value = _commutator(_commutator(d, v), _commutator(d, w))
        reported = _gl_matrix(wit["torsion_value"]["coords"], n)
        want = [[sign * x for x in row] for row in value]
        if reported != want:
            return "torsion value differs from the independent [[D,V],[D,W]]"
        if all(value[i][j] == 0 for i in range(n) for j in range(n) if i != j):
            return "torsion value has no off-diagonal entry, so it lies in k"
        return None
    return check
