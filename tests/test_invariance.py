"""The paper's invariances of the exact verdicts, as property tests.

Each test draws operators on the fixture pairs of ``conftest.loop_cases``
(the corpus pairs among them) and compares two exact verdicts that the
mathematics says must agree:

* ``a I + b id`` (rational a != 0, any b) has the admissibility and torsion
  verdicts of ``I``: its torsion is ``a^2`` times that of ``I``, because the
  ``b`` terms and the ``a b`` cross terms cancel;
* ``J`` and ``-J`` are integrable together, with Z+ and Z- swapped:
  ``(-J - i) v`` lies in k_C exactly when ``(J + i) v`` does;
* for an admissible operator, torsion values on pairs that touch k lie in
  k, so the pairs of any complement of k decide the verdict that all the
  basis pairs decide;
* a change of basis ``P`` of g is an isomorphism of the pair with its
  conjugate (brackets ``P^-1 [P v, P w]``, k, m and the reps moved by
  ``P^-1``, the operator ``P^-1 I P``): it changes no verdict, and ``P``
  maps each witness of the conjugate to a witness of the original.
"""

from fractions import Fraction

import pytest

from liecheck import (
    HomogeneousPair,
    LinearOperator,
    Subspace,
    check_admissible,
    check_integrable,
    check_nijenhuis,
    torsion_form,
)
from liecheck.errors import LieCheckError

from conftest import (
    LOOP_CASES,
    conjugate_operator,
    conjugate_pair,
    draw_operator,
    identity_operator,
    operator_sum,
    property_test,
    scaled_operator,
    st,
)
from test_algebra import draw_conjugator
from test_complexstruct import _plus_values_in_k

RATIONALS = None if st is None else st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def outcome(check, *args, **kwargs):
    """The report of ``check``, or the type and message of the input error
    that it raised."""
    try:
        return check(*args, **kwargs)
    except LieCheckError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", LOOP_CASES)
@property_test(max_examples=12)
def test_affine_change_scales_torsion_by_a_squared(loop_cases, case, data):
    pair, seeds, _ = loop_cases[case]
    op = draw_operator(data, pair, seeds)
    a = data.draw(RATIONALS.filter(bool))
    b = data.draw(RATIONALS)
    moved = operator_sum(scaled_operator(op, a), scaled_operator(identity_operator(pair.alg), b))
    adm, adm_moved = check_admissible(pair, op), check_admissible(pair, moved)
    assert ((adm_moved.holds, adm_moved.scope, adm_moved.failed_clause)
            == (adm.holds, adm.scope, adm.failed_clause))
    if not adm.holds:
        return
    torsion, torsion_moved = check_nijenhuis(pair, op), check_nijenhuis(pair, moved)
    assert ((torsion_moved.verdict, torsion_moved.checked_pairs, torsion_moved.scope)
            == (torsion.verdict, torsion.checked_pairs, torsion.scope))
    if torsion.witness is None:
        assert torsion_moved.witness is None
    else:
        v, w, value = torsion.witness
        assert torsion_moved.witness == (v, w, tuple(a * a * x for x in value))


# (case, index into its operator seeds): ad(k0), fam_unit, jgr, jplane and
# jtwist are almost complex structures; fam_beta2 and the identity are not.
# Each is moved by an operator with values in k, and on nil4, where k is 0,
# conjugated by a random P, which keeps J^2 = -1 but not integrability.
STRUCTURES = [("so3_split", 1), ("so3_plain", 2), ("so3_skew", 1), ("so3_split", 3),
              ("u4_grass", 1), ("u4_grass", 0), ("nil4", 0), ("nil4", 1)]


@property_test(max_examples=30)
def test_negating_j_swaps_z_plus_and_z_minus(loop_cases, data):
    name, index = data.draw(st.sampled_from(STRUCTURES))
    pair, seeds, _ = loop_cases[name]
    op = _plus_values_in_k(data, pair, seeds[index])
    if pair.k.dim == 0:
        p, p_inv = draw_conjugator(data, pair.alg.dim)
        op = LinearOperator(pair.alg, p @ op.matrix @ p_inv)
    report = outcome(check_integrable, pair, op)
    negated = outcome(check_integrable, pair, scaled_operator(op, -1))
    if isinstance(report, tuple):
        assert negated == report
        return
    assert (negated.integrable, negated.nijenhuis_verdict) == (report.integrable,
                                                               report.nijenhuis_verdict)
    assert (negated.z_plus, negated.z_minus) == (report.z_minus, report.z_plus)


@pytest.mark.parametrize("case", LOOP_CASES)
@property_test(max_examples=12)
def test_every_complement_decides_torsion(loop_cases, case, data):
    # The complement is the graph of a random map into k from the span of
    # the basis vectors that are not pivots of k.
    pair, seeds, _ = loop_cases[case]
    n, k = pair.alg.dim, pair.k.space
    graph = []
    for j in range(n):
        if j not in k.pivot_cols:
            coeffs = data.draw(st.lists(RATIONALS, min_size=k.dim, max_size=k.dim))
            graph.append(tuple(int(i == j) + sum(c * z[i] for c, z in zip(coeffs, k.vectors()))
                               for i in range(n)))
    split = HomogeneousPair(pair.alg, pair.k, m=Subspace.from_vectors(n, graph),
                            connected=pair.connected, component_reps=pair.component_reps)
    op = draw_operator(data, pair, seeds)
    every = outcome(check_nijenhuis, pair, op, pairs="all")
    some = outcome(check_nijenhuis, split, op, pairs="complement")
    if isinstance(every, tuple):
        assert some == every
    else:
        assert (some.verdict, some.mode) == (every.verdict, "complement-pairs")


@pytest.mark.parametrize("case", LOOP_CASES)
@property_test(max_examples=4)
def test_change_of_basis_keeps_verdicts_and_maps_witnesses(loop_cases, case, data):
    pair, seeds, _ = loop_cases[case]
    structures = [index for name, index in STRUCTURES if name == case]
    if structures and data.draw(st.booleans()):
        op = _plus_values_in_k(data, pair, seeds[data.draw(st.sampled_from(structures))])
    else:
        op = draw_operator(data, pair, seeds)
    p, p_inv = draw_conjugator(data, pair.alg.dim)
    moved_pair = conjugate_pair(pair, p, p_inv)
    moved_op = conjugate_operator(moved_pair, op, p, p_inv)
    k, alg = pair.k.space, pair.alg

    adm, moved = check_admissible(pair, op), check_admissible(moved_pair, moved_op)
    assert (moved.holds, moved.scope, moved.failed_clause) == (adm.holds, adm.scope,
                                                               adm.failed_clause)
    if not adm.holds:
        witness = dict(moved.witness)
        if moved.failed_clause == "preserves_k":
            x = p.apply(witness["vector"])
            value = op.apply(x)
            assert x in k and value == p.apply(witness["image"])
        else:
            v = p.apply(witness["v"])
            if moved.failed_clause == "commutes_with_ad_k":
                z = p.apply(witness["z"])
                assert z in k
                got, want = op.apply(alg.bracket(z, v)), alg.bracket(z, op.apply(v))
            else:
                rep = pair.component_reps[witness["rep_index"]]
                got, want = rep.apply(op.apply(v)), op.apply(rep.apply(v))
            value = tuple(a - b for a, b in zip(got, want))
            assert value == p.apply(witness["value"])
        assert value not in k
        assert outcome(check_integrable, moved_pair, moved_op) == outcome(
            check_integrable, pair, op)
        return

    torsion, moved = check_nijenhuis(pair, op), check_nijenhuis(moved_pair, moved_op)
    assert (moved.verdict, moved.scope) == (torsion.verdict, torsion.scope)
    if not moved.verdict:
        v, w, value = moved.witness
        mapped = p.apply(value)
        assert torsion_form(alg, op, p.apply(v), p.apply(w)) == mapped
        assert mapped not in k

    report = outcome(check_integrable, pair, op)
    moved = outcome(check_integrable, moved_pair, moved_op)
    if isinstance(report, tuple):
        assert moved == report
        return
    assert ((moved.integrable, moved.nijenhuis_verdict, moved.z_plus.dim)
            == (report.integrable, report.nijenhuis_verdict, report.z_plus.dim))
    z_plus = report.z_plus
    assert Subspace.from_vectors(alg.dim, [p.apply(v) for v in moved.z_plus.vectors()]) == z_plus
    if moved.witness is not None:
        x, y, value = (p.apply(u) for u in moved.witness)
        assert x in z_plus and y in z_plus
        assert alg.bracket(x, y) == value and value not in z_plus
