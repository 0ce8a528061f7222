"""Linear operators on a Lie algebra and the homogeneous-pair admissibility tests.

An operator is admissible for a pair (g, k) when it preserves k and commutes
with the adjoint action of the subgroup modulo k.  For a connected subgroup
the infinitesimal conditions suffice; for a declared non-connected subgroup
the caller must supply component representatives, otherwise the verdict is
scoped to the identity component and the report says so.  Every clause,
the split ones and the validation of representatives too, runs in integers.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from . import _lazy_module
from .algebra import LieAlgebra, Subalgebra, bracket_into
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
    from_integers,
    integer_vector,
    rref,
    subspace_intersection,
)
from .values import FrozenValue

# Only the multiplication operators, on matrix algebras, use it.
_matrix_span = _lazy_module("liecheck.matrix_span")


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
            if any(isinstance(e, GaussianRational) and e.im for e in m.basis.entries):
                raise LieCheckError("complement is not real")
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
        n, fmt, labels = alg.dim, alg.format_element, alg.basis_labels
        if rep.rows != n or rep.cols != n:
            raise InvalidComponentRep(f"must be {n}x{n}", idx)
        if any(isinstance(e, GaussianRational) and e.im for e in rep.entries):
            raise InvalidComponentRep("is not real", idx)
        if len(rref(rep)[1]) != n:
            raise InvalidComponentRep("is singular", idx)
        (r, columns), (c, constants) = rep.integer_columns, alg.integer_constants
        _, q = k.space.annihilator.integer_columns
        for z in k.space.vectors():  # R z times r λz
            lz, v = integer_vector(z)
            value = apply_columns(columns, v, {})
            if not annihilated(q, value):
                value = from_integers(n, r * lz, value)
                raise InvalidComponentRep(f"does not preserve k: R({fmt(z)}) = {fmt(value)}",
                                          idx, value)
        for a in range(n):
            for b in range(a + 1, n):  # R [e_a, e_b] - [R e_a, R e_b] times r² c
                value = apply_columns(columns, bracket_into(constants, {a: r}, {b: 1}, {}), {})
                value = bracket_into(constants, dict(columns[a]), dict(columns[b]), value, -1)
                if any(value.values()):
                    x, y, value = labels[a], labels[b], from_integers(n, r * r * c, value)
                    raise InvalidComponentRep(f"is not a bracket automorphism: R[{x}, {y}] - "
                                              f"[R {x}, R {y}] = {fmt(value)}", idx, value)

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


def check_admissible(pair: HomogeneousPair, op: LinearOperator) -> VerdictReport:
    """Decide membership in the admissible set of the pair.

    Clause (a): the operator preserves k.  Clause (b): it commutes with
    ad_z modulo k for every basis element z of k.  Clause (c), when component
    representatives are declared: it commutes with each of them modulo k.
    For a connected subgroup (a) and (b) suffice.  The clauses and the
    witness of the first failing one come from :func:`_failing_clause`.
    """
    _require_same_algebra(pair, op)
    scope = "full" if pair.connected or pair.component_reps else "identity_component"
    clauses = ("preserves_k", "commutes_with_ad_k")
    if pair.component_reps:
        clauses += ("commutes_with_component_reps",)
    failure = _failing_clause(pair, op)
    if failure is None:
        return VerdictReport(True, scope, clauses)
    return VerdictReport(False, scope, clauses, *failure)


def _failing_clause(pair: HomogeneousPair, op: LinearOperator) -> tuple | None:
    """The first admissibility clause instance whose value leaves k, as
    ``(clause, witness)``; None if there is none.  The witness names where
    the clause failed (``z`` in k, the representative, ``v`` in g) and its
    value: ``I z``, ``I [z, v] - [z, I v]`` or ``R I v - I R v``.

    The clauses run on the integer views: the operator's columns times
    ``s``, the structure constants times ``c``, each ``z`` times ``λz`` and
    each representative's columns times ``r``.  Each clause is linear in
    each of them, so its integer value is its rational value times
    ``s λz``, ``s c λz`` or ``s r``.  A positive multiple lies in k exactly
    when the value does, so the integer values decide the clauses, and the
    failing one over its scale is the witness value.
    """
    alg, n = pair.alg, pair.alg.dim
    s, columns = op.matrix.integer_columns
    c, constants = alg.integer_constants
    _, k = pair.k.space.annihilator.integer_columns
    zs = pair.k.space.vectors()
    ints = [integer_vector(z) for z in zs]
    for i, (lz, z) in enumerate(ints):
        value = apply_columns(columns, z, {})
        if not annihilated(k, value):
            return "preserves_k", (("vector", zs[i]), ("image", from_integers(n, s * lz, value)))
    images = [dict(col) for col in columns]  # I b_j
    for i, (lz, z) in enumerate(ints):
        for j in range(n):
            # I [z, b_j] - [z, I b_j]
            value = apply_columns(columns, bracket_into(constants, z, {j: 1}, {}), {})
            if not annihilated(k, bracket_into(constants, z, images[j], value, -1)):
                return "commutes_with_ad_k", (("z", zs[i]), ("v", alg.basis_vector(j)),
                                              ("value", from_integers(n, s * c * lz, value)))
    for idx, rep in enumerate(pair.component_reps):
        r, rep_columns = rep.integer_columns
        for j in range(n):
            # R I b_j - I R b_j
            value = apply_columns(rep_columns, images[j], {})
            if not annihilated(k, apply_columns(columns, dict(rep_columns[j]), value, -1)):
                return "commutes_with_component_reps", (
                    ("rep_index", idx), ("v", alg.basis_vector(j)),
                    ("value", from_integers(n, s * r, value)))
    return None


def _require_same_algebra(pair: HomogeneousPair, op: LinearOperator):
    """Raise unless the operator is declared on the pair's algebra; equal
    dimensions are not enough."""
    if op.alg is not pair.alg:
        raise LieCheckError(
            f"operator is declared on algebra {op.alg.name!r}, "
            f"but the pair is on algebra {pair.alg.name!r}"
        )


def _require_admissible(pair: HomogeneousPair, op: LinearOperator) -> VerdictReport:
    """The admissibility report; raise NotAdmissible, carrying it, unless it holds."""
    adm = check_admissible(pair, op)
    if not adm.holds:
        raise NotAdmissible(adm)
    return adm


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
    """The first failing split clause with its witness: ``(sJ)(λx x)`` lies in
    0 for x in k (``k_in_kernel``) and in m for x in m (``m_invariant``); the
    witness image is the failing one over ``s λx``."""
    n, (s, columns) = pair.alg.dim, op.matrix.integer_columns
    for clause, space, q in (("k_in_kernel", pair.k.space, [((j, 1),) for j in range(n)]),
                             ("m_invariant", pair.m, pair.m.annihilator.integer_columns[1])):
        for x in space.vectors():
            lx, v = integer_vector(x)
            image = apply_columns(columns, v, {})
            if not annihilated(q, image):
                return clause, (("vector", x), ("image", from_integers(n, s * lx, image)))
    return None


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
    sa, ra = (1, None) if a is None else a.gaussian_rows()
    sb, rb = (1, None) if b is None else b.gaussian_rows()
    n = alg.dim
    columns = []
    for j, (s, x) in enumerate(zip(solver.scales, solver.rows)):
        x = x if ra is None else _matrix_span._times(ra, x)
        terms = solver.solve(x if rb is None else _matrix_span._times(x, rb), sa * s * sb)
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
