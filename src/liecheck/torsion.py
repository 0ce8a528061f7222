"""The torsion bilinear form and the Nijenhuis verdict for a homogeneous pair.

The form ``beta(v, w) = I[v, Iw] + I[Iv, w] - [Iv, Iw] - I^2 [v, w]`` decides
whether the induced bundle map is a Nijenhuis operator: the verdict holds
exactly when every value of beta lies in the subalgebra.  By bilinearity the
basis pairs suffice, and when a complement of k is declared the complement
pairs suffice by themselves.  Admissibility is a hard precondition, not a
warning; the verdict is meaningless for operators that do not descend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import LieCheckError, MissingComplement, NotAdmissible
from .operators import (
    HomogeneousPair,
    LinearOperator,
    _require_admissible,
    check_admissible,
    operator_ad,
)


@dataclass(frozen=True)
class TorsionReport:
    """Verdict of the torsion check, with the first failing pair as witness.

    ``mode`` is one of ``all-pairs``, ``complement-pairs`` or
    ``ad_d-specialized``; iteration is in lexicographic pair order, so the
    witness is deterministic.
    """

    verdict: bool
    checked_pairs: int
    mode: str
    witness: Optional[tuple] = None  # (v, w, beta(v, w))


def torsion_form(alg, op: LinearOperator, v: Sequence, w: Sequence) -> tuple:
    """Evaluate I[v,Iw] + I[Iv,w] - [Iv,Iw] - I^2[v,w] exactly."""
    iv = op.apply(v)
    iw = op.apply(w)
    t1 = op.apply(alg.bracket(v, iw))
    t2 = op.apply(alg.bracket(iv, w))
    t3 = alg.bracket(iv, iw)
    t4 = op.apply(op.apply(alg.bracket(v, w)))
    return tuple(a + b - c - d for a, b, c, d in zip(t1, t2, t3, t4))


def _pair_vectors(pair: HomogeneousPair, pairs: str):
    if pairs == "auto":
        pairs = "complement" if pair.m is not None else "all"
    if pairs == "complement":
        if pair.m is None:
            raise MissingComplement("complement-pairs mode needs a declared complement")
        return list(pair.m.vectors()), "complement-pairs"
    if pairs == "all":
        alg = pair.alg
        return [alg.basis_vector(j) for j in range(alg.dim)], "all-pairs"
    raise LieCheckError(f"unknown pair mode {pairs!r}")


def check_nijenhuis(
    pair: HomogeneousPair, op: LinearOperator, *, pairs: str = "auto"
) -> TorsionReport:
    """Decide whether the induced bundle map has torsion with values in k.

    Requires admissibility (raises :class:`NotAdmissible` otherwise).  With a
    declared complement only the complement basis pairs are iterated, which
    is sufficient because torsion values on pairs touching k always lie in k.
    """
    _require_admissible(pair, op)
    vectors, mode = _pair_vectors(pair, pairs)
    alg = pair.alg
    checked = 0
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            beta = torsion_form(alg, op, vectors[a], vectors[b])
            checked += 1
            if beta not in pair.k.space:
                return TorsionReport(False, checked, mode, (vectors[a], vectors[b], beta))
    return TorsionReport(True, checked, mode)


def check_nijenhuis_ad(pair: HomogeneousPair, d: Sequence) -> TorsionReport:
    """Specialized verdict for inner operators: [[d, v], [d, w]] in k.

    The admissibility precondition specializes to ``[z, d] in k`` and
    ``[v, [z, d]] in k`` for basis z of k and basis v of g; both are checked
    first.  The verdict agrees with ``check_nijenhuis(pair, operator_ad(d))``.
    """
    alg = pair.alg
    k = pair.k.space
    basis = [alg.basis_vector(j) for j in range(alg.dim)]
    admissible = all(
        zd in k and all(alg.bracket(bj, zd) in k for bj in basis)
        for zd in (alg.bracket(z, d) for z in k.vectors())
    )
    if not admissible:
        raise NotAdmissible(check_admissible(pair, operator_ad(alg, d)))
    checked = 0
    for a in range(alg.dim):
        da = alg.bracket(d, basis[a])
        for b in range(a + 1, alg.dim):
            db = alg.bracket(d, basis[b])
            val = alg.bracket(da, db)
            checked += 1
            if val not in k:
                return TorsionReport(
                    False, checked, "ad_d-specialized", (basis[a], basis[b], val)
                )
    return TorsionReport(True, checked, "ad_d-specialized")


def corollary_oneof_property(
    pair: HomogeneousPair, op: LinearOperator, z: Sequence, w: Sequence
) -> bool:
    """Membership of beta(z, w) in k for z in k; expected to always hold.

    Exposed as a property-test hook: for an admissible operator the torsion
    value on any pair with one argument in k lands in k automatically.
    """
    if z not in pair.k.space:
        raise LieCheckError("first argument must lie in the subalgebra")
    beta = torsion_form(pair.alg, op, z, w)
    return beta in pair.k.space
