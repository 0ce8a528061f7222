"""Almost complex admissibility, the subspaces Z+/Z-, and integrability.

For an operator J whose square is -1 modulo k, the subspaces

    Z_pm = { v in the complexified algebra : (J -/+ i) v  in  k_C }

are not eigenspaces of the complex extension in general.  With ``Q`` the
integer equations of k, k_C is the kernel of ``Q`` over Q(i), so Z+ is
one exact kernel, that of ``Q (J - i)``; J, Q and k are real, so Z- is the
complex conjugate of Z+, and the split identities for Z- are the conjugates
of those for Z+.  The induced almost complex structure is integrable
exactly when Z+ is closed under the bracket, and that is equivalent to the
torsion verdict; both are computed, and a disagreement raises
:class:`InternalInconsistency`.  ``Q (J - i)`` is written once, as the
Gaussian-integer rows ``Q (sJ) - i s Q`` of :func:`_z_plus_kernel`, read
from k's cached equation rows as they are: Z+ is their kernel, and its
closure is :func:`liecheck.algebra._bracket_escape` on Z+'s own integer
views, the test that certifies k.  With Q = 1 (the equations of the zero
subspace) their kernel is ker(J - i), which is E+ in the split case.
"""

from __future__ import annotations

from .algebra import _bracket_escape
from .errors import (
    InternalInconsistency,
    MissingComplement,
    NotACAdmissible,
    NotSplitACAdmissible,
)
from .exact import (
    Subspace,
    _kernel,
    annihilated,
    apply_columns,
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
    :class:`SplitDiagnostics` of a split-admissible operator.  ``scope`` is
    that of the admissibility report, as in the torsion report.
    """

    __slots__ = ("ac_admissible", "z_plus", "z_minus", "z_plus_closed",
                 "nijenhuis_verdict", "z_plus_mod_k", "witness", "split", "scope")
    _defaults = {"witness": None, "split": None, "scope": None}

    @property
    def integrable(self) -> bool:
        return self.z_plus_closed


def _squares_to_minus_one(pair: HomogeneousPair, op: LinearOperator) -> bool:
    """Whether (J^2 + 1) e_j lies in k for every j, decided on J's integer
    columns ``s J``: ``(s J)^2 e_j + s^2 e_j`` is ``s^2 (J^2 + 1) e_j``."""
    s, columns = op.matrix.integer_columns
    k, _ = pair.k.space.equation_columns
    return all(annihilated(k, apply_columns(columns, dict(column), {j: s * s}))
               for j, column in enumerate(columns))


def _z_plus_kernel(q: list, op: LinearOperator) -> Subspace:
    """The kernel over Q(i) of ``Q (sJ) - i s Q = s Q (J - i)``, typed so
    without rows too, for ``Q`` given by its real integer rows ``[re, im,
    den]`` (k's :meth:`Subspace._equation_rows` for Z+, the identity for
    the (+i)-eigenspace of J).  Row t of ``Q (sJ)`` is ``Q[t] . (sJ e_j)``."""
    s, columns = op.matrix.integer_columns
    return _kernel([[[sum([re[i] * x for i, x in col]) for col in columns],
                     [-s * x for x in re], 1] for re, _, _ in q], op.alg.dim, gaussian=True)


def compute_z_spaces(pair: HomogeneousPair, op: LinearOperator):
    """The exact subspaces Z+ and Z- of the complexified algebra.

    k_C is the kernel of k's integer equations ``Q``, so Z+ is the kernel of
    ``Q (J - i)`` over Q(i) (:func:`_z_plus_kernel`).  Conjugation fixes Q,
    J and k, so Z- is the conjugate of Z+, and conjugation keeps the echelon
    basis canonical.
    """
    z_plus = _z_plus_kernel(pair.k.space._equation_rows(), op)
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
        scope=nij.scope,
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
    n, kc = pair.alg.dim, pair.k.space
    inter = subspace_intersection(z_plus, z_minus)
    # J, m and k are real and Z- is the conjugate of Z+, so k_C + E- = Z-
    # is the conjugate of k_C + E+ = Z+: only the (+i)-eigenspace E+ of J
    # on m_C is computed.  J kills k, keeps m and g = k + m, so the kernel
    # of J - i over Q(i) lies in m_C and is E+: Z+'s equations with Q = 1.
    e_plus = _z_plus_kernel([[[int(i == j) for i in range(n)], None, 1] for j in range(n)], op)
    # dim(Z+ + Z-) = dim Z+ + dim Z- - dim(Z+ n Z-)
    return SplitDiagnostics(z_plus.dim + z_minus.dim - inter.dim == n, inter == kc,
                            subspace_sum(kc, e_plus) == z_plus)
