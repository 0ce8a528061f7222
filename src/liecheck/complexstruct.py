"""Almost complex admissibility, the subspaces Z+/Z-, and integrability.

For an operator J whose square is -1 modulo k, the subspaces

    Z_pm = { v in the complexified algebra : (J -/+ i) v  in  k_C }

are computed as exact kernels of a stacked system over Q(i) (they are not
eigenspaces of the complex extension in general).  The induced almost
complex structure is integrable exactly when Z+ is closed under the bracket,
and that is equivalent to the torsion verdict; both are computed, and a
disagreement raises :class:`InternalInconsistency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    InternalInconsistency,
    MissingComplement,
    NotACAdmissible,
    NotSplitACAdmissible,
)
from .exact import (
    ExactMatrix,
    GaussianRational,
    Subspace,
    kernel_basis,
    subspace_intersection,
    subspace_sum,
)
from .operators import (
    HomogeneousPair,
    LinearOperator,
    _require_admissible,
    _split_kernel_failure,
)
from .torsion import check_nijenhuis


@dataclass(frozen=True)
class SplitDiagnostics:
    """The three split decomposition identities, checked exactly."""

    sum_is_all: bool
    intersection_is_kc: bool
    eigenspace_decomposition_holds: bool

    @property
    def all_hold(self) -> bool:
        return self.sum_is_all and self.intersection_is_kc and self.eigenspace_decomposition_holds


@dataclass(frozen=True)
class IntegrabilityReport:
    """Everything the integrability check established.

    ``z_plus_mod_k`` lists canonical representatives of Z+ modulo k_C (k_C is
    always contained in Z+, so the quotient is the geometrically meaningful
    part); the full Z+ basis is in ``z_plus``.
    """

    ac_admissible: bool
    z_plus: Subspace
    z_minus: Subspace
    z_plus_closed: bool
    nijenhuis_verdict: bool
    z_plus_mod_k: tuple
    witness: Optional[tuple] = None  # (x, y, [x, y]) outside Z+
    split: Optional[SplitDiagnostics] = None

    @property
    def integrable(self) -> bool:
        return self.z_plus_closed


def check_ac_admissible(pair: HomogeneousPair, op: LinearOperator) -> bool:
    """Whether (J^2 + 1) maps every basis vector into k (given admissibility)."""
    _require_admissible(pair, op)
    return _squares_to_minus_one(pair, op)


def _squares_to_minus_one(pair: HomogeneousPair, op: LinearOperator) -> bool:
    alg = pair.alg
    j2 = op.matrix @ op.matrix
    for j in range(alg.dim):
        v = alg.basis_vector(j)
        img = tuple(a + b for a, b in zip(j2.apply(v), v))
        if img not in pair.k.space:
            return False
    return True


def _shifted_stacked(pair: HomogeneousPair, op: LinearOperator, shift: GaussianRational):
    """The matrix [J + shift*Id | -K^T] whose kernel projects onto Z."""
    n = pair.alg.dim
    dk = pair.k.dim
    entries = []
    for r in range(n):
        for c in range(n):
            e = GaussianRational(op.matrix.entry(r, c))
            if r == c:
                e = e + shift
            entries.append(e)
        for c in range(dk):
            entries.append(GaussianRational(-pair.k.space.basis.entry(c, r)))
    return ExactMatrix(n, n + dk, entries)


def compute_z_spaces(pair: HomogeneousPair, op: LinearOperator):
    """The exact subspaces Z+ and Z- of the complexified algebra."""
    n = pair.alg.dim
    out = []
    for shift in (GaussianRational(0, -1), GaussianRational(0, 1)):
        kern = kernel_basis(_shifted_stacked(pair, op, shift))
        projected = [row[:n] for row in kern.vectors()]
        out.append(Subspace.from_vectors(n, projected).over_gaussian())
    return out[0], out[1]


def _mod_k_representatives(kc: Subspace, z_plus: Subspace) -> tuple:
    """Canonical representatives of Z+ modulo k_C.

    k_C is contained in Z+, so the pivot columns of k_C are a subset of the
    pivots of Z+; the remaining echelon rows, reduced against k_C, represent
    the quotient.
    """
    k_pivots = set(kc.pivot_cols)
    reps = []
    for row, piv in zip(z_plus.vectors(), z_plus.pivot_cols):
        if piv in k_pivots:
            continue
        r = list(row)
        for krow, kp in zip(kc.vectors(), kc.pivot_cols):
            c = r[kp]
            if c:
                r = [a - c * b for a, b in zip(r, krow)]
        reps.append(tuple(r))
    return tuple(reps)


def _bracket_escape(alg, z_plus: Subspace) -> Optional[tuple]:
    """The first basis pair (x, y, [x, y]) of Z+ whose bracket leaves Z+."""
    rows = z_plus.vectors()
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            br = alg.bracket(rows[a], rows[b])
            if br not in z_plus:
                return rows[a], rows[b], br
    return None


def check_integrable(pair: HomogeneousPair, op: LinearOperator) -> IntegrabilityReport:
    """Full integrability verdict: Z+ closure, cross-checked against torsion.

    Each layer runs once.  The torsion check settles admissibility, so it
    runs only for an operator that squares to -1 modulo k; otherwise
    admissibility is checked alone, because it is reported first.
    """
    if not _squares_to_minus_one(pair, op):
        _require_admissible(pair, op)
        raise NotACAdmissible("the operator does not square to -1 modulo the subalgebra")
    nij = check_nijenhuis(pair, op)
    z_plus, z_minus = compute_z_spaces(pair, op)
    witness = _bracket_escape(pair.alg, z_plus)
    if (witness is None) != nij.verdict:
        raise InternalInconsistency("Z+ closure and the torsion verdict disagree")
    kc = pair.k.space.over_gaussian()
    split = None
    if pair.m is not None and _failed_split_clause(pair, op) is None:
        split = _split_identities(pair, op, kc, z_plus, z_minus)
    return IntegrabilityReport(
        ac_admissible=True,
        z_plus=z_plus,
        z_minus=z_minus,
        z_plus_closed=witness is None,
        nijenhuis_verdict=nij.verdict,
        z_plus_mod_k=_mod_k_representatives(kc, z_plus),
        witness=witness,
        split=split,
    )


def _failed_split_clause(pair: HomogeneousPair, op: LinearOperator) -> Optional[str]:
    """The first split clause the operator violates on (k, m), or None."""
    failure = _split_kernel_failure(pair, op)
    if failure is not None:
        return failure[0]
    zero = pair.alg.zero_vector()
    for x in pair.m.vectors():
        sq = op.apply(op.apply(x))
        if tuple(a + b for a, b in zip(sq, x)) != zero:
            return "square_is_minus_one_on_m"
    return None


def split_diagnostics(pair: HomogeneousPair, op: LinearOperator) -> SplitDiagnostics:
    """Check the split identities: Z+ + Z- is everything, Z+ n Z- is k_C,
    and Z_pm decompose as k_C plus the (+/-i)-eigenspace of J on m_C."""
    if pair.m is None:
        raise MissingComplement("split diagnostics need a declared complement")
    clause = _failed_split_clause(pair, op)
    if clause is not None:
        raise NotSplitACAdmissible(clause)
    z_plus, z_minus = compute_z_spaces(pair, op)
    return _split_identities(pair, op, pair.k.space.over_gaussian(), z_plus, z_minus)


def _split_identities(pair: HomogeneousPair, op: LinearOperator, kc: Subspace,
                      z_plus: Subspace, z_minus: Subspace) -> SplitDiagnostics:
    """The split identities for Z+ and Z- already computed; k_C is k over Q(i)."""
    n = pair.alg.dim
    total = subspace_sum(z_plus, z_minus)
    sum_is_all = total.dim == n

    inter = subspace_intersection(z_plus, z_minus).over_gaussian()
    intersection_is_kc = inter == kc

    # Matrix of J restricted to m, in the echelon coordinates of m.
    m_rows = pair.m.vectors()
    dm = pair.m.dim
    cols = []
    for x in m_rows:
        coords = pair.m.coordinates_of(op.apply(x))
        cols.append(coords)
    eig_ok = True
    for shift, z_space in ((GaussianRational(0, -1), z_plus), (GaussianRational(0, 1), z_minus)):
        entries = []
        for r in range(dm):
            for c in range(dm):
                e = GaussianRational(cols[c][r])
                if r == c:
                    e = e + shift
                entries.append(e)
        restricted = ExactMatrix(dm, dm, entries)
        eig_coords = kernel_basis(restricted)
        ambient_vectors = []
        for coords in eig_coords.vectors():
            vec = [GaussianRational(0)] * n
            for c, row in zip(coords, m_rows):
                if c:
                    vec = [a + c * b for a, b in zip(vec, row)]
            ambient_vectors.append(vec)
        eig_space = Subspace.from_vectors(n, ambient_vectors).over_gaussian()
        if subspace_sum(kc, eig_space).over_gaussian() != z_space:
            eig_ok = False
    return SplitDiagnostics(sum_is_all, intersection_is_kc, eig_ok)
