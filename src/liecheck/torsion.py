"""The torsion bilinear form and the Nijenhuis verdict for a homogeneous pair.

The form ``beta(v, w) = I[v, Iw] + I[Iv, w] - [Iv, Iw] - I^2 [v, w]`` decides
whether the induced bundle map is a Nijenhuis operator: the verdict holds
exactly when every value of beta lies in the subalgebra.  By bilinearity the
basis pairs suffice, and when a complement of k is declared the complement
pairs suffice by themselves.  Admissibility is a hard precondition, not a
warning; the verdict is meaningless for operators that do not descend.
For an inner operator ``ad(d)``, a derivation by the Jacobi identity, beta
is ``-[[d, v], [d, w]]``, so the pair mode ``ad`` is the all-pairs verdict
of ``ad(d)`` with its witness value negated.

The pair loop runs in the integer views of :mod:`liecheck.exact` and
:class:`~liecheck.algebra.LieAlgebra`: the operator's columns times ``s``,
the structure constants times ``c``, the pair's vectors ``v`` and ``w``
times ``λv`` and ``λw`` (m's integer rows, or unit rows), and membership
in k as ``A beta = 0`` for k's integer equations ``A``.  Beta is of degree 2
in the operator and 1 in the structure constants on every term, and linear
in each argument, so the integer value is the rational one times
``s^2 c λv λw``, and lies in k exactly when it does.  The first failing
pair's integer value over that scale is its witness; :func:`torsion_form`
is the form in the rationals, a reference that no check calls.
"""

from __future__ import annotations

from collections.abc import Sequence

from .algebra import bracket_into
from .errors import LieCheckError, MissingComplement
from .exact import annihilated, apply_columns, from_integers
from .operators import HomogeneousPair, LinearOperator, _require_admissible, operator_ad
from .values import FrozenValue


class TorsionReport(FrozenValue):
    """Verdict of the torsion check, with the first failing pair as witness.

    ``mode`` is one of ``all-pairs``, ``complement-pairs`` or
    ``ad_d-specialized``; iteration is in lexicographic pair order, so the
    witness is deterministic.  ``witness`` is None or ``(v, w, beta(v, w))``.
    ``scope`` is that of the admissibility report (:class:`~liecheck.operators.VerdictReport`).
    """

    __slots__ = ("verdict", "checked_pairs", "mode", "witness", "scope")
    _defaults = {"witness": None, "scope": None}


def torsion_form(alg, op: LinearOperator, v: Sequence, w: Sequence) -> tuple:
    """Evaluate I[v,Iw] + I[Iv,w] - [Iv,Iw] - I^2[v,w] in the rationals."""
    iv = op.apply(v)
    iw = op.apply(w)
    t1 = op.apply(alg.bracket(v, iw))
    t2 = op.apply(alg.bracket(iv, w))
    t3 = alg.bracket(iv, iw)
    t4 = op.apply(op.apply(alg.bracket(v, w)))
    return tuple(a + b - c - d for a, b, c, d in zip(t1, t2, t3, t4))


def _pair_vectors(pair: HomogeneousPair, pairs: str):
    """The mode's vectors, their integer rows ``(λ, re, im)``, and its name."""
    if pairs == "auto":
        pairs = "complement" if pair.m is not None else "all"
    if pairs == "complement":
        if pair.m is None:
            raise MissingComplement("complement-pairs mode needs a declared complement")
        return pair.m.vectors(), pair.m.integer_rows, "complement-pairs"
    if pairs in ("all", "ad"):
        alg = pair.alg
        mode = "all-pairs" if pairs == "all" else "ad_d-specialized"
        rows = [(1, {j: 1}, {}) for j in range(alg.dim)]
        return [alg.basis_vector(j) for j in range(alg.dim)], rows, mode
    raise LieCheckError(f"unknown pair mode {pairs!r}")


def check_nijenhuis(
    pair: HomogeneousPair, op: LinearOperator, *, pairs: str = "auto"
) -> TorsionReport:
    """Decide whether the induced bundle map has torsion with values in k.

    Requires admissibility (raises :class:`NotAdmissible` otherwise).  With a
    declared complement only the complement basis pairs are iterated, which
    is sufficient because torsion values on pairs touching k always lie in k.
    ``pairs="ad"`` reads the all-pairs verdict of an operator built by
    :func:`operator_ad` as ``[[d, v], [d, w]] in k``: the mode is
    ``ad_d-specialized`` and the witness value is ``[[d, v], [d, w]]``.
    """
    if pairs == "ad" and op.ad_generator is None:
        raise LieCheckError("pair mode 'ad' needs an operator built by operator_ad")
    scope = _require_admissible(pair, op).scope
    vectors, vs, mode = _pair_vectors(pair, pairs)
    s, columns = op.matrix.integer_columns
    c, constants = pair.alg.integer_constants
    k, _ = pair.k.space.equation_columns
    scale = -c * s * s if pairs == "ad" else c * s * s  # the ad mode reports -beta
    ivs = [apply_columns(columns, v, {}) for _, v, _ in vs]
    checked = 0
    for a in range(len(vs)):
        (lv, v, _), iv = vs[a], ivs[a]
        for b in range(a + 1, len(vs)):
            (lw, w, _), iw = vs[b], ivs[b]
            checked += 1
            # beta = I([v, Iw] + [Iv, w] - I[v, w]) - [Iv, Iw]
            inner = bracket_into(constants, v, iw, bracket_into(constants, iv, w, {}))
            apply_columns(columns, bracket_into(constants, v, w, {}), inner, -1)
            beta = bracket_into(constants, iv, iw, apply_columns(columns, inner, {}), -1)
            if not annihilated(k, beta):
                beta = from_integers(pair.alg.dim, scale * lv * lw, beta)
                return TorsionReport(False, checked, mode, (vectors[a], vectors[b], beta), scope)
    return TorsionReport(True, checked, mode, scope=scope)


def check_nijenhuis_ad(pair: HomogeneousPair, d: Sequence) -> TorsionReport:
    """The all-pairs verdict for the inner operator ``ad(d)``, read as
    ``[[d, v], [d, w]] in k``: ``check_nijenhuis(pair, operator_ad(d),
    pairs="ad")``.

    ``d`` follows the input rule of :func:`operator_ad`, and a
    non-admissible ``ad(d)`` raises :class:`NotAdmissible` with its report.
    """
    return check_nijenhuis(pair, operator_ad(pair.alg, d), pairs="ad")
