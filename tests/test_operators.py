"""Admissibility tests, operator constructors, and the homogeneous pair."""

import random
from fractions import Fraction

import pytest

from liecheck import (
    ExactMatrix,
    HomogeneousPair,
    LieAlgebra,
    LinearOperator,
    check_admissible,
    make_subalgebra,
    operator_ad,
    operator_from_rules,
    operator_left_mult,
    operator_right_mult,
    operator_sandwich,
)
from liecheck.complexstruct import check_integrable
from liecheck.errors import (
    DimensionMismatch,
    ImageOutsideAlgebra,
    InvalidComponentRep,
    LieCheckError,
    MissingComplement,
    RuleIncomplete,
)
from liecheck.exact import rref
from liecheck.operators import _split_kernel_failure
from liecheck.torsion import check_nijenhuis

from conftest import (
    LOOP_CASES,
    compose,
    draw_matrix,
    draw_operator,
    grassmann_center_vector,
    identity_matrix,
    identity_operator,
    matrix_of_element,
    operator_sum,
    projection_onto_m,
    property_test,
    rand_vector,
    scaled_operator,
    sphere_family,
    split_admissible,
    st,
    unit_matrix,
    zero_matrix,
)
from test_algebra import draw_conjugated_family
from test_exact import _dense_span_coords


def test_ad_k0_admissible(so3, so3_pair):
    op = operator_ad(so3, so3.basis_vector("k0"))
    report = check_admissible(so3_pair, op)
    assert report.holds and report.scope == "full"
    assert report.clauses == ("preserves_k", "commutes_with_ad_k")


def test_identity_always_admissible(so3_pair, gl3_pair, u4_pair):
    for pair in (so3_pair, gl3_pair, u4_pair):
        assert check_admissible(pair, identity_operator(pair.alg)).holds


def test_family_admissible_iff_opposite(so3, so3_pair):
    grid = (-1, 0, 1)
    for alpha in grid:
        for beta in grid:
            for gamma in grid:
                op = sphere_family(so3, alpha, beta, gamma)
                report = check_admissible(so3_pair, op)
                assert report.holds == (gamma == -beta), (alpha, beta, gamma)
                if not report.holds:
                    assert report.witness is not None
                    # the witness difference really lies outside k
                    assert dict(report.witness)["value"] not in so3_pair.k.space


def test_admissible_conditions_are_linear(so3, so3_pair):
    # rational combinations of admissible family members stay admissible
    rng = random.Random(23)
    for _ in range(20):
        o1 = sphere_family(so3, rng.randint(-3, 3), 1, -1)
        o2 = sphere_family(so3, rng.randint(-3, 3), -2, 2)
        a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        combo = operator_sum(scaled_operator(o1, a), scaled_operator(o2, b))
        assert check_admissible(so3_pair, combo).holds


def test_split_admissible_ad_k0(so3, so3_pair):
    op = operator_ad(so3, so3.basis_vector("k0"))
    assert split_admissible(so3_pair, op).holds


def test_split_admissible_identity_fails(so3_pair):
    report = split_admissible(so3_pair, identity_operator(so3_pair.alg))
    assert not report.holds and report.failed_clause == "k_in_kernel"


def test_split_strictly_stronger(so3, so3_pair):
    # alpha != 0 keeps plain admissibility but breaks the kernel clause
    op = sphere_family(so3, 1, 1, -1)
    assert check_admissible(so3_pair, op).holds
    report = split_admissible(so3_pair, op)
    assert not report.holds and report.failed_clause == "k_in_kernel"


def test_split_kernel_and_complement_clauses(so3, so3_pair):
    # k0 -> 0 kills k, and e1 -> k0 leaves the complement span(e1, e2).
    op = operator_from_rules(so3, {"k0": so3.zero_vector(), "e1": so3.basis_vector("k0"),
                                   "e2": so3.zero_vector()})
    report = split_admissible(so3_pair, op)
    assert not report.holds and report.failed_clause == "m_invariant"
    assert report.witness == (("vector", so3.basis_vector("e1")),
                              ("image", so3.basis_vector("k0")))
    # k0 -> e1 keeps all of g in m but does not kill k.
    op = operator_from_rules(so3, {"k0": so3.basis_vector("e1"), "e1": so3.zero_vector(),
                                   "e2": so3.zero_vector()})
    assert split_admissible(so3_pair, op).failed_clause == "k_in_kernel"


def test_split_needs_complement(so3_pair_plain):
    with pytest.raises(MissingComplement):
        split_admissible(so3_pair_plain, identity_operator(so3_pair_plain.alg))


def test_rules_operator(so3):
    op = sphere_family(so3, 0, -1, 1)  # same table as ad(k0)
    assert op.matrix == operator_ad(so3, so3.basis_vector("k0")).matrix
    with pytest.raises(RuleIncomplete) as err:
        operator_from_rules(so3, {"k0": so3.zero_vector()})
    assert set(err.value.missing) == {"e1", "e2"}


def test_rules_operator_input_guards(so3):
    rules = {label: so3.zero_vector() for label in so3.basis_labels}
    with pytest.raises(LieCheckError, match=r"^rule for unknown basis label 'x'$"):
        operator_from_rules(so3, {**rules, "x": so3.zero_vector()})
    with pytest.raises(DimensionMismatch, match=r"^rule image has the wrong length$"):
        operator_from_rules(so3, {**rules, "e1": (0, 1)})


def test_operator_ad_matches_ad_matrix(so3, loop_cases):
    # Column j of ad(d) is the rational bracket [d, b_j], also on the moved
    # algebras, whose structure constants have denominators.
    rng = random.Random(29)
    for alg in (so3, loop_cases["so3_moved"][0].alg, loop_cases["nil4_moved"][0].alg):
        assert alg.integer_constants[0] > 1 or alg is so3
        for _ in range(10):
            d = rand_vector(rng, alg.dim)
            matrix = operator_ad(alg, d).matrix
            for j in range(alg.dim):
                assert matrix.column(j) == alg.bracket(d, alg.basis_vector(j))


def test_sandwich_identity_is_identity(gl3):
    ident = identity_matrix(3)
    op = operator_sandwich(gl3, ident, ident)
    assert op.matrix == identity_matrix(9)


def test_left_mult_gl2_by_hand():
    # E11 * E1j = E1j, E11 * E2j = 0: expansion done on paper.
    from liecheck import from_matrix_generators
    gl2 = from_matrix_generators(
        2, [unit_matrix(2, i, j) for i in range(2) for j in range(2)],
        labels=("e11", "e12", "e21", "e22"), name="gl2")
    op = operator_left_mult(gl2, unit_matrix(2, 0, 0))
    assert op.apply(gl2.basis_vector("e11")) == gl2.basis_vector("e11")
    assert op.apply(gl2.basis_vector("e12")) == gl2.basis_vector("e12")
    assert op.apply(gl2.basis_vector("e21")) == gl2.zero_vector()
    assert op.apply(gl2.basis_vector("e22")) == gl2.zero_vector()


def test_right_mult_composes_with_left(gl3):
    a = ExactMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    b = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    left = operator_left_mult(gl3, a)
    right = operator_right_mult(gl3, b)
    sandwich = operator_sandwich(gl3, a, b)
    assert compose(left, right).matrix == sandwich.matrix
    assert compose(right, left).matrix == sandwich.matrix


@property_test(max_examples=40)
def test_multiplication_operators_match_dense_reference(data):
    # left, right and sandwich on conjugated generator families, with a
    # random factor or an element of the span: column j is the dense
    # coordinate vector of the image of generator j, and the first image
    # outside the span names its generator.
    from liecheck import from_matrix_generators

    gens = draw_conjugated_family(data)
    size, n = gens[0].rows, len(gens)
    alg = from_matrix_generators(size, gens)

    def factor():
        if data.draw(st.booleans()):
            return draw_matrix(data, data.draw(st.sampled_from(["rational", "gaussian", "mixed"])),
                               size, size)
        weights = data.draw(st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)]),
                                     min_size=n, max_size=n))
        return matrix_of_element(alg, weights)

    a, b = factor(), factor()
    for image, build in ((lambda x: a @ x, lambda: operator_left_mult(alg, a)),
                         (lambda x: x @ b, lambda: operator_right_mult(alg, b)),
                         (lambda x: a @ x @ b, lambda: operator_sandwich(alg, a, b))):
        columns = [_dense_span_coords(gens, image(g)) for g in gens]
        outside = [j for j, col in enumerate(columns) if col is None]
        if outside:
            with pytest.raises(ImageOutsideAlgebra) as err:
                build()
            assert str(err.value) == str(ImageOutsideAlgebra(alg.basis_labels[outside[0]]))
            continue
        op = build()
        assert op.matrix.entries == tuple(columns[j][k] for k in range(n) for j in range(n))
        assert all(type(e) is Fraction for e in op.matrix.entries)


def test_multiplication_factors_must_be_square(gl3):
    # A 1x3 or 3x1 factor passes the inner-dimension test, but its products
    # with the generators are not 3x3 matrices.
    row, column = ExactMatrix.from_rows([[1, 0, 0]]), ExactMatrix.from_rows([[1], [0], [0]])
    for build in (lambda: operator_left_mult(gl3, row),
                  lambda: operator_right_mult(gl3, column),
                  lambda: operator_sandwich(gl3, identity_matrix(3), column)):
        with pytest.raises(DimensionMismatch, match="^multiplication factors must be 3x3$"):
            build()
    for build in (lambda: operator_left_mult(gl3, column),
                  lambda: operator_sandwich(gl3, identity_matrix(3), row)):
        with pytest.raises(DimensionMismatch, match="^inner dimensions do not match$"):
            build()


def test_multiplication_image_outside(u4):
    # E11 * u4-generator can leave the skew-hermitian span.
    with pytest.raises(ImageOutsideAlgebra):
        operator_left_mult(u4, unit_matrix(4, 0, 0))


def test_multiplication_needs_matrix_realization(so3):
    with pytest.raises(LieCheckError):
        operator_left_mult(so3, identity_matrix(3))


def test_ad_specialized_agrees_with_generic_in_u4(u4, u4_pair):
    # Admissible inner operators come from the block-scalar directions.
    rng = random.Random(31)
    for _ in range(15):
        a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        d = [Fraction(0)] * 16
        for lab in ("d1", "d2"):
            d[u4.index_of(lab)] = a
        for lab in ("d3", "d4"):
            d[u4.index_of(lab)] = b
        d = tuple(d)
        adm_specialized = True
        for z in u4_pair.k.space.vectors():
            zd = u4.bracket(z, d)
            if zd not in u4_pair.k.space:
                adm_specialized = False
                break
            for j in range(16):
                if u4.bracket(u4.basis_vector(j), zd) not in u4_pair.k.space:
                    adm_specialized = False
                    break
        assert adm_specialized == check_admissible(
            u4_pair, operator_ad(u4, d)).holds
        assert adm_specialized


def test_nonconnected_without_reps_scopes_verdict(so3):
    k = make_subalgebra(so3, [so3.basis_vector("k0")])
    pair = HomogeneousPair(so3, k, connected=False)
    op = operator_ad(so3, so3.basis_vector("k0"))
    report = check_admissible(pair, op)
    assert report.holds and report.scope == "identity_component"
    # The torsion and integrability verdicts rest on it and keep its scope.
    assert check_nijenhuis(pair, op).scope == "identity_component"
    assert check_integrable(pair, op).scope == "identity_component"


def test_component_rep_clause(so3):
    k = make_subalgebra(so3, [so3.basis_vector("k0")])
    # Ad of diag(1,-1,-1) on the algebra basis: k0 -> -k0, e1 -> -e1,
    # e2 -> e2 (entry (i,j) of g X g^-1 is g_i X_ij g_j).  A bracket
    # automorphism preserving k, from the non-identity component of O(2).
    rep = ExactMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    pair = HomogeneousPair(so3, k, connected=False, component_reps=(rep,))
    report = check_admissible(pair, operator_ad(so3, so3.basis_vector("k0")))
    assert report.scope == "full"
    assert report.clauses[-1] == "commutes_with_component_reps"
    # ad(k0) anticommutes with the flip on the complement: rep witness found
    assert not report.holds
    assert report.failed_clause == "commutes_with_component_reps"
    # the identity operator commutes with everything
    assert check_admissible(pair, identity_operator(so3)).holds


def test_invalid_component_rep_rejected(so3):
    k = make_subalgebra(so3, [so3.basis_vector("k0")])
    with pytest.raises(InvalidComponentRep) as err:
        HomogeneousPair(so3, k, component_reps=(zero_matrix(3, 3),))
    assert (err.value.rep_index, err.value.witness) == (0, None)
    # diag(1, 2, 1) preserves k: R[k0, e1] = -e2 but [R k0, R e1] = -2 e2.
    not_automorphism = ExactMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    with pytest.raises(InvalidComponentRep) as err:
        HomogeneousPair(so3, k, component_reps=(identity_matrix(3), not_automorphism))
    assert (err.value.rep_index, err.value.witness) == (1, so3.basis_vector("e2"))
    assert str(err.value) == ("component rep #1 is not a bracket automorphism: "
                              "R[k0, e1] - [R k0, R e1] = e2")
    swap = ExactMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    with pytest.raises(InvalidComponentRep) as err:
        HomogeneousPair(so3, k, connected=False, component_reps=(swap,))
    assert (err.value.rep_index, err.value.witness) == (0, so3.basis_vector("e1"))
    assert str(err.value) == "component rep #0 does not preserve k: R(k0) = e1"


def test_pair_complement_validation(so3):
    from liecheck import GaussianRational, Subspace
    k = make_subalgebra(so3, [so3.basis_vector("k0")])
    with pytest.raises(LieCheckError):
        HomogeneousPair(so3, k, m=Subspace.from_vectors(3, [so3.basis_vector("e1")]))
    with pytest.raises(LieCheckError):
        HomogeneousPair(so3, k, m=Subspace.from_vectors(
            3, [so3.basis_vector("k0"), so3.basis_vector("e1")]))
    # Of dimension 2 and meeting k only in 0, but not real.
    i, one = GaussianRational(0, 1), GaussianRational(1)
    with pytest.raises(LieCheckError, match=r"^complement is not real$"):
        HomogeneousPair(so3, k, m=Subspace.from_vectors(3, [(0, 1, i), (1, i, 0)]))
    # A real complement with GaussianRational entries is accepted and checked.
    m = Subspace.from_vectors(3, [(0, one, 0), (0, 0, one)])
    op = operator_from_rules(so3, {"k0": (0, 0, 0), "e1": (0, 0, 1), "e2": (0, -1, 0)})
    assert check_integrable(HomogeneousPair(so3, k, m=m), op).split is not None


def test_pair_input_guards(so3, sl2):
    from liecheck import Subspace
    with pytest.raises(LieCheckError, match=r"^subalgebra does not belong to the given algebra$"):
        HomogeneousPair(so3, make_subalgebra(sl2, [sl2.basis_vector("h")]))
    k = make_subalgebra(so3, [so3.basis_vector("k0")])
    with pytest.raises(DimensionMismatch,
                       match=r"^complement lives in the wrong ambient space$"):
        HomogeneousPair(so3, k, m=Subspace.from_vectors(4, [(0, 1, 0, 0), (0, 0, 1, 0)]))


def test_grassmann_operator_admissible(u4, u4_pair):
    d = grassmann_center_vector(u4)
    op = operator_ad(u4, d)
    assert check_admissible(u4_pair, op).holds
    assert split_admissible(u4_pair, op).holds


def test_operator_on_other_algebra_rejected(so3, so3_pair):
    # ab3 has the dimension of so3, and F is admissible when read on so3.
    zero = (Fraction(0),) * 3
    ab3 = LieAlgebra.from_structure_tensor("ab3", ("x", "y", "z"), [[zero] * 3] * 3)
    op = operator_from_rules(ab3, {"x": (1, 0, 0), "y": (0, 0, 1), "z": (0, -1, 0)})
    message = "operator is declared on algebra 'ab3', but the pair is on algebra 'so3'"
    for check in (check_admissible, check_nijenhuis, check_integrable):
        with pytest.raises(LieCheckError) as err:
            check(so3_pair, op)
        assert str(err.value) == message
    with pytest.raises(DimensionMismatch, match="different algebras"):
        compose(op, identity_operator(so3))
    with pytest.raises(DimensionMismatch, match="different algebras"):
        compose(identity_operator(so3), op)


def test_non_real_component_rep_rejected(so3):
    from liecheck import GaussianRational
    k = make_subalgebra(so3, [so3.basis_vector("k0")])
    rep = ExactMatrix.from_rows([[1, 0, 0], [0, GaussianRational(0, 1), 0],
                                 [0, 0, GaussianRational(0, -1)]])
    with pytest.raises(InvalidComponentRep, match="not real"):
        HomogeneousPair(so3, k, connected=False, component_reps=(rep,))


def test_one_generator_elimination_per_algebra(corpus_dir, monkeypatch):
    # gl3_full.lie declares left, sandwich and rules operators on gl3; the
    # multiplication operators reuse the elimination of the generators.
    # The elimination runs on the integer rows of [A | Id], 9 x (9 + 9).
    import liecheck.matrix_span
    from liecheck.specfile import build, parse
    shapes = []
    original = liecheck.matrix_span._eliminate

    def counting_eliminate(rows, cols, order):
        shapes.append((len(rows), cols))
        return original(rows, cols, order)

    monkeypatch.setattr(liecheck.matrix_span, "_eliminate", counting_eliminate)
    monkeypatch.setattr(liecheck.matrix_span, "rref", None)  # no elimination of scalars
    build(parse((corpus_dir / "gl3_full.lie").read_text()))
    assert shapes == [(9, 18)]


def reference_admissible(pair, op):
    """Admissibility clause by clause in Fraction arithmetic:
    ``(failed_clause, witness)`` or ``(None, None)``."""
    alg, k = pair.alg, pair.k.space
    for x in k.vectors():
        img = op.apply(x)
        if img not in k:
            return "preserves_k", {"vector": x, "image": img}
    basis = [alg.basis_vector(j) for j in range(alg.dim)]
    for z in k.vectors():
        for bj in basis:
            value = tuple(a - b for a, b in zip(op.apply(alg.bracket(z, bj)),
                                                alg.bracket(z, op.apply(bj))))
            if value not in k:
                return "commutes_with_ad_k", {"z": z, "v": bj, "value": value}
    for idx, rep in enumerate(pair.component_reps):
        for bj in basis:
            value = tuple(a - b for a, b in zip(rep.apply(op.apply(bj)),
                                                op.apply(rep.apply(bj))))
            if value not in k:
                return "commutes_with_component_reps", {
                    "rep_index": idx, "v": bj, "value": value}
    return None, None


def _types(witness):
    if witness is None:
        return None
    return {key: [type(x) for x in value] if isinstance(value, tuple) else type(value)
            for key, value in witness.items()}


@pytest.mark.parametrize("case", LOOP_CASES)
@property_test(max_examples=25)
def test_admissible_matches_fraction_reference(loop_cases, case, data):
    pair, seeds, _ = loop_cases[case]
    op = draw_operator(data, pair, seeds)
    report = check_admissible(pair, op)
    clause, witness = reference_admissible(pair, op)
    assert report.holds == (clause is None)
    assert report.failed_clause == clause
    assert report.witness == (None if witness is None else tuple(witness.items()))  # key order
    assert _types(report.witness and dict(report.witness)) == _types(witness)


# -- component reps and the split clauses against the Fraction references ---
#
# HomogeneousPair._validate_rep and _split_kernel_failure decide their
# clauses on the integer views.  The references are the former computations,
# clause by clause in Fraction arithmetic.

def reference_validate_rep(alg, k, idx, rep):
    """``(message, witness)`` of the first failing clause of a real rep of
    the right shape, or None."""
    fmt, labels = alg.format_element, alg.basis_labels
    if len(rref(rep)[1]) != alg.dim:
        return f"component rep #{idx} is singular", None
    for z in k.space.vectors():
        image = rep.apply(z)
        if image not in k.space:
            return f"component rep #{idx} does not preserve k: R({fmt(z)}) = {fmt(image)}", image
    for a in range(alg.dim):
        ea = alg.basis_vector(a)
        for b in range(a + 1, alg.dim):
            eb = alg.basis_vector(b)
            value = tuple(x - y for x, y in zip(rep.apply(alg.bracket(ea, eb)),
                                                alg.bracket(rep.apply(ea), rep.apply(eb))))
            if any(value):
                return (f"component rep #{idx} is not a bracket automorphism: "
                        f"R[{labels[a]}, {labels[b]}] - [R {labels[a]}, R {labels[b]}] = "
                        f"{fmt(value)}", value)
    return None


def _typed(outcome):
    return outcome and (outcome, [type(x) for x in outcome[1] or ()])


@pytest.mark.parametrize("case", ["so3_reps", "so3_reps_moved", "so3_split", "gl3_diag_skew",
                                  "nil4_moved", "u4_grass"])
@property_test(max_examples=25)
def test_validate_rep_matches_fraction_reference(loop_cases, case, data):
    # The reps, the identity and the operator seeds, or a combination of
    # them: the reps and the identity pass, their multiples mostly fail the
    # automorphism clause, noise mostly fails preserving k, and zero
    # combinations are singular.
    pair, seeds, _ = loop_cases[case]
    seeds = [LinearOperator(pair.alg, rep) for rep in pair.component_reps] + list(seeds)
    rep = (data.draw(st.sampled_from(seeds)) if data.draw(st.booleans())
           else draw_operator(data, pair, seeds)).matrix
    try:
        HomogeneousPair._validate_rep(pair.alg, pair.k, 2, rep)
        outcome = None
    except InvalidComponentRep as err:
        assert err.rep_index == 2
        outcome = str(err), err.witness
    assert _typed(outcome) == _typed(reference_validate_rep(pair.alg, pair.k, 2, rep))


def reference_split_kernel_failure(pair, op):
    """The first failing split clause and its witness, in Fraction arithmetic."""
    zero = pair.alg.zero_vector()
    for x in pair.k.space.vectors():
        image = op.apply(x)
        if image != zero:
            return "k_in_kernel", (("vector", x), ("image", image))
    for x in pair.m.vectors():
        image = op.apply(x)
        if image not in pair.m:
            return "m_invariant", (("vector", x), ("image", image))
    return None


SPLIT_CASES = ("so3_split", "so3_skew", "u4_grass", "nil4", "so3_moved", "nil4_moved",
               "gl3_diag_skew")


@pytest.mark.parametrize("case", SPLIT_CASES)
@property_test(max_examples=25)
def test_split_kernel_failure_matches_fraction_reference(loop_cases, case, data):
    # X and P X (values in m) mostly fail k_in_kernel, X P kills k and mostly
    # fails m_invariant, and P X P passes both, for P the projection onto m
    # along k.
    pair, seeds, _ = loop_cases[case]
    x, p = draw_operator(data, pair, seeds).matrix, projection_onto_m(pair)
    matrix = data.draw(st.sampled_from([x, p @ x, x @ p, p @ x @ p]))
    op = LinearOperator(pair.alg, matrix)
    got, want = _split_kernel_failure(pair, op), reference_split_kernel_failure(pair, op)
    assert got == want
    if want is not None:
        assert [type(x) for _, v in got[1] for x in v] == [type(x) for _, v in want[1] for x in v]
