"""Linear operators on a Lie algebra and the homogeneous-pair admissibility tests.

An operator is admissible for a pair (g, k) when it preserves k and commutes
with the adjoint action of the subgroup modulo k.  For a connected subgroup
the infinitesimal conditions suffice; for a declared non-connected subgroup
the caller must supply component representatives, otherwise the verdict is
scoped to the identity component and the report says so.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .algebra import LieAlgebra, Subalgebra, _gaussian_rows, _times, bracket_into
from .errors import (
    DimensionMismatch,
    ImageOutsideAlgebra,
    InvalidComponentRep,
    LieCheckError,
    NotAdmissible,
    RuleIncomplete,
)
from .exact import (
    _ZERO,
    ExactMatrix,
    GaussianRational,
    Subspace,
    annihilated,
    apply_columns,
    integer_vector,
    rref,
    subspace_intersection,
)
from .values import FrozenValue


class LinearOperator:
    """A real linear operator on an algebra, as a matrix in the basis.

    The same matrix read over Q(i) coordinates is the complex-linear
    extension, so :meth:`apply` accepts both rational and Gaussian-rational
    coordinate vectors.
    """

    __slots__ = ("alg", "matrix", "ad_generator")

    def __init__(self, alg: LieAlgebra, matrix: ExactMatrix, *, ad_generator=None):
        if matrix.rows != alg.dim or matrix.cols != alg.dim:
            raise DimensionMismatch("operator matrix must be dim x dim")
        for e in matrix.entries:
            if isinstance(e, GaussianRational):
                raise LieCheckError("operator matrices are real; got a Q(i) entry")
        self.alg = alg
        self.matrix = matrix
        self.ad_generator = tuple(ad_generator) if ad_generator is not None else None

    def apply(self, v: Sequence) -> tuple:
        return self.matrix.apply(v)

    def __repr__(self):
        return f"LinearOperator(on {self.alg.name!r})"


class HomogeneousPair:
    """A pair (g, k) with optional split complement and component data."""

    __slots__ = ("alg", "k", "m", "connected", "component_reps")

    def __init__(
        self,
        alg: LieAlgebra,
        k: Subalgebra,
        *,
        m: Subspace | None = None,
        connected: bool = True,
        component_reps: Sequence[ExactMatrix] = (),
    ):
        if k.parent is not alg:
            raise LieCheckError("subalgebra does not belong to the given algebra")
        if m is not None:
            if m.ambient_dim != alg.dim:
                raise DimensionMismatch("complement lives in the wrong ambient space")
            if k.dim + m.dim != alg.dim:
                raise LieCheckError(
                    f"complement dimension {m.dim} does not complete k "
                    f"(dim {k.dim}) to dim {alg.dim}"
                )
            if subspace_intersection(k.space, m).dim != 0:
                raise LieCheckError("complement intersects the subalgebra")
        reps = tuple(component_reps)
        for idx, rep in enumerate(reps):
            self._validate_rep(alg, k, idx, rep)
        self.alg = alg
        self.k = k
        self.m = m
        self.connected = bool(connected)
        self.component_reps = reps

    @staticmethod
    def _validate_rep(alg: LieAlgebra, k: Subalgebra, idx: int, rep: ExactMatrix):
        n = alg.dim
        if rep.rows != n or rep.cols != n:
            raise InvalidComponentRep(f"component rep #{idx} must be {n}x{n}")
        if any(isinstance(e, GaussianRational) and e.im for e in rep.entries):
            raise InvalidComponentRep(f"component rep #{idx} is not real")
        _, pivots = rref(rep)
        if len(pivots) != n:
            raise InvalidComponentRep(f"component rep #{idx} is singular")
        for row in k.space.vectors():
            if rep.apply(row) not in k.space:
                raise InvalidComponentRep(f"component rep #{idx} does not preserve k")
        for a in range(n):
            ea = alg.basis_vector(a)
            for b in range(a + 1, n):
                eb = alg.basis_vector(b)
                lhs = rep.apply(alg.bracket(ea, eb))
                rhs = alg.bracket(rep.apply(ea), rep.apply(eb))
                if lhs != rhs:
                    raise InvalidComponentRep(
                        f"component rep #{idx} is not a bracket automorphism"
                    )

    def __repr__(self):
        extra = "" if self.m is None else f", split m dim {self.m.dim}"
        return f"HomogeneousPair({self.alg.name!r}, k dim {self.k.dim}{extra})"


class VerdictReport(FrozenValue):
    """Outcome of a check, with an exact witness when it fails.

    ``scope`` is ``"full"`` when the verdict covers the whole subgroup and
    ``"identity_component"`` when the subgroup was declared non-connected and
    no component representatives were supplied, so only the infinitesimal
    conditions could be decided.  A failing report names the first failing
    clause, and its ``witness`` is a tuple of ``(name, value)`` pairs.
    """

    __slots__ = ("holds", "scope", "clauses", "failed_clause", "witness")
    _defaults = {"failed_clause": None, "witness": None}


def _scope_of(pair: HomogeneousPair) -> str:
    if pair.connected or pair.component_reps:
        return "full"
    return "identity_component"


def check_admissible(pair: HomogeneousPair, op: LinearOperator) -> VerdictReport:
    """Decide membership in the admissible set of the pair.

    Clause (a): the operator preserves k.  Clause (b): it commutes with
    ad_z modulo k for every basis element z of k.  Clause (c), when component
    representatives are declared: it commutes with each of them modulo k.
    For a connected subgroup (a) and (b) suffice.  The clauses are decided
    by :func:`_failing_clause`; the witness of the first failing one is
    recomputed in the rationals.
    """
    _require_same_algebra(pair, op)
    alg = pair.alg
    scope = _scope_of(pair)
    clauses = ("preserves_k", "commutes_with_ad_k")
    if pair.component_reps:
        clauses += ("commutes_with_component_reps",)
    failure = _failing_clause(pair, op.matrix.integer_columns)
    if failure is None:
        return VerdictReport(True, scope, clauses)
    clause, i, j = failure
    if clause == "preserves_k":
        x = pair.k.space.vectors()[i]
        witness = (("vector", x), ("image", op.apply(x)))
    elif clause == "commutes_with_ad_k":
        z, bj = pair.k.space.vectors()[i], alg.basis_vector(j)
        witness = (("z", z), ("v", bj),
                   ("value", _sub(op.apply(alg.bracket(z, bj)), alg.bracket(z, op.apply(bj)))))
    else:
        rep, bj = pair.component_reps[i], alg.basis_vector(j)
        witness = (("rep_index", i), ("v", bj),
                   ("value", _sub(rep.apply(op.apply(bj)), op.apply(rep.apply(bj)))))
    return VerdictReport(False, scope, clauses, clause, witness)


def _failing_clause(pair: HomogeneousPair, columns: Sequence) -> tuple | None:
    """The first admissibility clause instance whose value leaves k, as
    ``(clause, i, j)`` with i indexing the basis of k or the representatives
    and j the basis of g; None if there is none.

    The operator is given by its integer columns.  Each clause is linear in
    the operator, in the structure constants and in the representative, and
    scaling a value by a positive integer does not move it in or out of k,
    so the integer views decide the clauses exactly.
    """
    n = pair.alg.dim
    constants = pair.alg.integer_constants
    k = pair.k.space.annihilator.integer_columns
    zs = [integer_vector(z) for z in pair.k.space.vectors()]
    for i, z in enumerate(zs):
        if not annihilated(k, apply_columns(columns, z, {})):
            return "preserves_k", i, None
    images = [dict(col) for col in columns]  # I b_j
    for i, z in enumerate(zs):
        for j in range(n):
            # I [z, b_j] - [z, I b_j]
            value = apply_columns(columns, bracket_into(constants, z, {j: 1}, {}), {})
            if not annihilated(k, bracket_into(constants, z, images[j], value, -1)):
                return "commutes_with_ad_k", i, j
    for idx, rep in enumerate(pair.component_reps):
        rep_columns = rep.integer_columns
        for j in range(n):
            # R I b_j - I R b_j
            value = apply_columns(rep_columns, images[j], {})
            if not annihilated(k, apply_columns(columns, dict(rep_columns[j]), value, -1)):
                return "commutes_with_component_reps", idx, j
    return None


def _require_same_algebra(pair: HomogeneousPair, op: LinearOperator):
    """Raise unless the operator is declared on the pair's algebra; equal
    dimensions are not enough."""
    if op.alg is not pair.alg:
        raise LieCheckError(
            f"operator is declared on algebra {op.alg.name!r}, "
            f"but the pair is on algebra {pair.alg.name!r}"
        )


def _require_admissible(pair: HomogeneousPair, op: LinearOperator):
    """Raise NotAdmissible, carrying the report, unless the operator is admissible."""
    adm = check_admissible(pair, op)
    if not adm.holds:
        raise NotAdmissible(adm)


def _split_verdict(pair: HomogeneousPair, op: LinearOperator,
                   adm: VerdictReport) -> VerdictReport:
    """The split verdict, given the operator's admissibility report."""
    clauses = ("k_in_kernel", "m_invariant", "admissible")
    failure = _split_kernel_failure(pair, op)
    if failure is not None:
        return VerdictReport(False, adm.scope, clauses, *failure)
    if not adm.holds:
        return VerdictReport(False, adm.scope, clauses, "admissible", adm.witness)
    return VerdictReport(True, adm.scope, clauses)


def _split_kernel_failure(pair: HomogeneousPair, op: LinearOperator) -> tuple | None:
    """The first failing split clause with its witness: the operator kills k
    (``k_in_kernel``) and maps the complement into itself (``m_invariant``)."""
    zero = pair.alg.zero_vector()
    for x in pair.k.space.vectors():
        img = op.apply(x)
        if img != zero:
            return "k_in_kernel", (("vector", x), ("image", img))
    for x in pair.m.vectors():
        img = op.apply(x)
        if img not in pair.m:
            return "m_invariant", (("vector", x), ("image", img))
    return None


def _sub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# operator constructors
# ---------------------------------------------------------------------------

def operator_from_rules(alg: LieAlgebra, rules: Mapping[str, Sequence]) -> LinearOperator:
    """Operator from a basis-label -> image table; every label must appear."""
    missing = [lab for lab in alg.basis_labels if lab not in rules]
    if missing:
        raise RuleIncomplete(missing)
    for lab in rules:
        if lab not in alg.basis_labels:
            raise LieCheckError(f"rule for unknown basis label {lab!r}")
    n = alg.dim
    images = [tuple(rules[lab]) for lab in alg.basis_labels]
    for img in images:
        if len(img) != n:
            raise DimensionMismatch("rule image has the wrong length")
    entries = [images[j][k] for k in range(n) for j in range(n)]
    return LinearOperator(alg, ExactMatrix(n, n, entries))


def operator_ad(alg: LieAlgebra, d: Sequence) -> LinearOperator:
    """The inner operator v -> [d, v]."""
    return LinearOperator(alg, alg.ad_matrix(d), ad_generator=d)


def _multiplication_operator(alg: LieAlgebra, a: ExactMatrix | None = None,
                             b: ExactMatrix | None = None) -> LinearOperator:
    """X -> A X B, an absent factor standing for the identity: each product
    is taken on the Gaussian-integer rows of the generators and the factors,
    and solved for its coordinates by the generators' span solver."""
    solver = alg._solver()
    size = solver.size
    if (a is not None and a.cols != size) or (b is not None and b.rows != size):
        raise DimensionMismatch("inner dimensions do not match")
    if (a is not None and a.rows != size) or (b is not None and b.cols != size):
        raise DimensionMismatch(f"multiplication factors must be {size}x{size}")
    sa, ra = (1, None) if a is None else _gaussian_rows(a)
    sb, rb = (1, None) if b is None else _gaussian_rows(b)
    n = alg.dim
    columns = []
    for j, (s, x) in enumerate(zip(solver.scales, solver.rows)):
        x = x if ra is None else _times(ra, x)
        terms = solver.solve(x if rb is None else _times(x, rb), sa * s * sb)
        if terms is None:
            raise ImageOutsideAlgebra(alg.basis_labels[j])
        columns.append(dict(terms))
    return LinearOperator(alg, ExactMatrix._of(n, n, tuple(
        [columns[j].get(k, _ZERO) for k in range(n) for j in range(n)])))


def operator_left_mult(alg: LieAlgebra, a: ExactMatrix) -> LinearOperator:
    """X -> A X on a matrix algebra, expressed in the algebra basis."""
    return _multiplication_operator(alg, a)


def operator_right_mult(alg: LieAlgebra, b: ExactMatrix) -> LinearOperator:
    """X -> X B on a matrix algebra, expressed in the algebra basis."""
    return _multiplication_operator(alg, b=b)


def operator_sandwich(alg: LieAlgebra, a: ExactMatrix, b: ExactMatrix) -> LinearOperator:
    """X -> A X B on a matrix algebra, expressed in the algebra basis."""
    return _multiplication_operator(alg, a, b)
