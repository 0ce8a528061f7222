"""Almost complex admissibility, the subspaces Z+/Z-, and integrability.

For an operator J whose square is -1 modulo k, the subspaces

    Z_pm = { v in the complexified algebra : (J -/+ i) v  in  k_C }

are not eigenspaces of the complex extension in general.  With ``Q`` the
integer annihilator of k, k_C is the kernel of ``Q`` over Q(i), so Z+ is
one exact kernel, that of ``Q (J - i)``; J, Q and k are real, so Z- is the
complex conjugate of Z+, and the split identities for Z- are the conjugates
of those for Z+.  The induced almost complex structure is integrable
exactly when Z+ is closed under the bracket, and that is equivalent to the
torsion verdict; both are computed, and a disagreement raises
:class:`InternalInconsistency`.  The closure is decided on ``Q (J - i)`` in
Gaussian integers, and the test that J squares to -1 modulo k on J's
integer columns, like the pair loops of the other checks.
"""

from __future__ import annotations

from math import lcm

from .algebra import bracket_into
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
    _kernel,
    annihilated,
    apply_columns,
    kernel_basis,
    scaled_integers,
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
from .values import FrozenValue


class SplitDiagnostics(FrozenValue):
    """The three split decomposition identities, checked exactly."""

    __slots__ = ("sum_is_all", "intersection_is_kc", "eigenspace_decomposition_holds")


class IntegrabilityReport(FrozenValue):
    """Everything the integrability check established.

    ``z_plus_mod_k`` lists canonical representatives of Z+ modulo k_C (k_C is
    always contained in Z+, so the quotient is the geometrically meaningful
    part); the full Z+ basis is in ``z_plus``.  ``witness`` is None or
    ``(x, y, [x, y])`` outside Z+; ``split`` is None or the
    :class:`SplitDiagnostics` of a split-admissible operator.
    """

    __slots__ = ("ac_admissible", "z_plus", "z_minus", "z_plus_closed",
                 "nijenhuis_verdict", "z_plus_mod_k", "witness", "split")
    _defaults = {"witness": None, "split": None}

    @property
    def integrable(self) -> bool:
        return self.z_plus_closed


def _integer_operator(op: LinearOperator) -> tuple:
    """J's integer columns ``s J`` and their scale ``s``."""
    return op.matrix.integer_columns, lcm(*(e.denominator for e in op.matrix.entries))


def _squares_to_minus_one(pair: HomogeneousPair, op: LinearOperator) -> bool:
    """Whether (J^2 + 1) e_j lies in k for every j, decided on J's integer
    columns ``s J``: ``(s J)^2 e_j + s^2 e_j`` is ``s^2 (J^2 + 1) e_j``."""
    columns, s = _integer_operator(op)
    k = pair.k.space.annihilator.integer_columns
    return all(
        annihilated(k, apply_columns(columns, dict(columns[j]), {j: s * s}))
        for j in range(pair.alg.dim)
    )


def compute_z_spaces(pair: HomogeneousPair, op: LinearOperator):
    """The exact subspaces Z+ and Z- of the complexified algebra.

    k_C is the kernel of the annihilator ``Q`` of k, so Z+ is the kernel of
    ``Q (J - i) = Q J - i Q`` over Q(i), typed so also when ``Q`` has no
    rows (k is everything).  Conjugation fixes Q, J and k, so Z- is the
    conjugate of Z+, and conjugation keeps the echelon basis canonical.
    """
    q = pair.k.space.annihilator
    qj = q @ op.matrix
    shifted = ExactMatrix(q.rows, q.cols, [GaussianRational(a, -b)
                                           for a, b in zip(qj.entries, q.entries)])
    z_plus = _kernel(shifted, gaussian=True)
    return z_plus, z_plus.conjugated()


def _mod_k_representatives(k: Subspace, z_plus: Subspace) -> tuple:
    """Canonical representatives of Z+ modulo k_C: the echelon rows of Z+
    whose pivot is not a pivot of k.

    k_C is contained in Z+, so the pivots of k are pivots of Z+, and an
    echelon row of Z+ is zero at every other pivot of Z+: these rows are
    already reduced against k_C.
    """
    k_pivots = set(k.pivot_cols)
    return tuple(row for row, piv in zip(z_plus.vectors(), z_plus.pivot_cols)
                 if piv not in k_pivots)


def _bracket_escape(pair: HomogeneousPair, op: LinearOperator,
                    z_plus: Subspace) -> tuple | None:
    """The first basis pair (x, y, [x, y]) of Z+ whose bracket leaves Z+.

    Z+ is the kernel of ``Q (J - i)``, so ``v = a + ib`` lies in it exactly
    when ``Q (s J a + s b)`` and ``Q (s J b - s a)`` vanish.  Each basis row
    is scaled to Gaussian integers, its brackets are taken on the integer
    structure constants, and only the witness is recomputed in Q(i).
    """
    constants = pair.alg.integer_constants
    columns, s = _integer_operator(op)
    q = pair.k.space.annihilator.integer_columns
    vectors, rows = z_plus.vectors(), []
    for v in vectors:
        scaled = scaled_integers(((part, j), x) for j, e in enumerate(v)
                                 for part, x in enumerate((e.re, e.im)) if x)
        rows.append([{j: x for (p, j), x in scaled if p == part} for part in (0, 1)])
    for i, (x_re, x_im) in enumerate(rows):
        for t in range(i + 1, len(rows)):
            y_re, y_im = rows[t]
            # [x, y] = [x_re, y_re] - [x_im, y_im] + i ([x_re, y_im] + [x_im, y_re])
            re = bracket_into(constants, x_im, y_im, bracket_into(constants, x_re, y_re, {}), -1)
            im = bracket_into(constants, x_im, y_re, bracket_into(constants, x_re, y_im, {}))
            if not (annihilated(q, apply_columns(columns, re, {j: s * x for j, x in im.items()}))
                    and annihilated(q, apply_columns(columns, im,
                                                     {j: -s * x for j, x in re.items()}))):
                return vectors[i], vectors[t], pair.alg.bracket(vectors[i], vectors[t])
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
    witness = _bracket_escape(pair, op, z_plus)
    if (witness is None) != nij.verdict:
        raise InternalInconsistency("Z+ closure and the torsion verdict disagree")
    # J^2 = -1 modulo k, J kills k and keeps m, and k n m = 0: so J^2 = -1 on m.
    split = None
    if pair.m is not None and _split_kernel_failure(pair, op) is None:
        split = _split_identities(pair, op, z_plus, z_minus)
    return IntegrabilityReport(
        ac_admissible=True,
        z_plus=z_plus,
        z_minus=z_minus,
        z_plus_closed=witness is None,
        nijenhuis_verdict=nij.verdict,
        z_plus_mod_k=_mod_k_representatives(pair.k.space, z_plus),
        witness=witness,
        split=split,
    )


def split_diagnostics(pair: HomogeneousPair, op: LinearOperator) -> SplitDiagnostics:
    """Check the split identities: Z+ + Z- is everything, Z+ n Z- is k_C,
    and Z_pm decompose as k_C plus the (+/-i)-eigenspace of J on m_C."""
    if pair.m is None:
        raise MissingComplement("split diagnostics need a declared complement")
    failure = _split_kernel_failure(pair, op)
    if failure is not None:
        raise NotSplitACAdmissible(failure[0])
    # J kills k and keeps m, and k + m = g with k n m = 0: so J^2 = -1 on m
    # exactly when J^2 = -1 modulo k.
    if not _squares_to_minus_one(pair, op):
        raise NotSplitACAdmissible("square_is_minus_one_on_m")
    z_plus, z_minus = compute_z_spaces(pair, op)
    return _split_identities(pair, op, z_plus, z_minus)


def _split_identities(pair: HomogeneousPair, op: LinearOperator,
                      z_plus: Subspace, z_minus: Subspace) -> SplitDiagnostics:
    """The split identities for Z+ and Z- already computed.  Subspaces
    compare by value, so k stands for k_C."""
    n = pair.alg.dim
    kc = pair.k.space
    inter = subspace_intersection(z_plus, z_minus)
    intersection_is_kc = inter == kc
    # dim(Z+ + Z-) = dim Z+ + dim Z- - dim(Z+ n Z-)
    sum_is_all = z_plus.dim + z_minus.dim - inter.dim == n

    # J, m and k are real and Z- is the conjugate of Z+, so k_C + E- = Z-
    # is the conjugate of k_C + E+ = Z+: only the (+i)-eigenspace E+ of J
    # on m_C is computed, from J restricted to m in its echelon coordinates.
    m_rows = pair.m.vectors()
    dm = pair.m.dim
    cols = [pair.m.coordinates_of(op.apply(x)) for x in m_rows]
    restricted = ExactMatrix(dm, dm, [GaussianRational(cols[c][r], -int(r == c))
                                      for r in range(dm) for c in range(dm)])
    ambient_vectors = []
    for coords in kernel_basis(restricted).vectors():
        vec = [GaussianRational(0)] * n
        for c, row in zip(coords, m_rows):
            if c:
                vec = [a + c * b for a, b in zip(vec, row)]
        ambient_vectors.append(vec)
    eig_space = Subspace.from_vectors(n, ambient_vectors)
    eig_ok = subspace_sum(kc, eig_space) == z_plus
    return SplitDiagnostics(sum_is_all, intersection_is_kc, eig_ok)
