"""The torsion form, the Nijenhuis verdicts, and their specializations."""

import random
from fractions import Fraction

import pytest

from liecheck import (
    ExactMatrix,
    GaussianRational,
    HomogeneousPair,
    LinearOperator,
    check_admissible,
    check_nijenhuis,
    check_nijenhuis_ad,
    from_matrix_generators,
    make_subalgebra,
    operator_ad,
    operator_from_rules,
    operator_left_mult,
    operator_sandwich,
    torsion_form,
)
from liecheck.errors import LieCheckError, MissingComplement, NotAdmissible

from conftest import (
    LOOP_CASES,
    draw_ad_vector,
    draw_operator,
    grassmann_center_vector,
    oneof_property,
    property_test,
    rand_vector,
    sphere_family,
    zero_operator,
)


def test_torsion_vanishes_on_diagonal(so3):
    rng = random.Random(41)
    op = operator_ad(so3, so3.basis_vector("k0"))
    for _ in range(30):
        v = rand_vector(rng, 3)
        assert torsion_form(so3, op, v, v) == so3.zero_vector()


def test_torsion_antisymmetric_and_bilinear(so3):
    rng = random.Random(43)
    op = sphere_family(so3, 2, 3, -3)
    for _ in range(40):
        v, v2, w = (rand_vector(rng, 3) for _ in range(3))
        a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        left = torsion_form(so3, op, v, w)
        assert left == tuple(-x for x in torsion_form(so3, op, w, v))
        combo = tuple(a * x + b * y for x, y in zip(v, v2))
        lhs = torsion_form(so3, op, combo, w)
        rhs = tuple(
            a * x + b * y
            for x, y in zip(torsion_form(so3, op, v, w),
                            torsion_form(so3, op, v2, w))
        )
        assert lhs == rhs


def test_left_mult_torsion_identically_zero(gl3):
    # A(v Aw) + A(Av w) - Av Aw ... : all eight monomials cancel in pairs.
    rng = random.Random(47)
    op = operator_left_mult(gl3, ExactMatrix.from_rows(
        [[1, 2, 0], [0, 1, 5], [7, 0, 1]]))
    for _ in range(25):
        v, w = rand_vector(rng, 9, 3), rand_vector(rng, 9, 3)
        assert torsion_form(gl3, op, v, w) == gl3.zero_vector()


def test_ad_k0_torsion_lands_in_k(so3, so3_pair):
    op = operator_ad(so3, so3.basis_vector("k0"))
    beta = torsion_form(so3, op, so3.basis_vector("e1"), so3.basis_vector("e2"))
    # expansion with the bracket table gives exactly k0
    assert beta == so3.basis_vector("k0")
    assert beta in so3_pair.k.space


def test_nijenhuis_family(so3, so3_pair):
    for alpha in (-1, 0, 1):
        for beta in (-1, 0, 1):
            op = sphere_family(so3, alpha, beta, -beta)
            report = check_nijenhuis(so3_pair, op)
            assert report.verdict, (alpha, beta)
            assert report.mode == "complement-pairs"
            assert report.checked_pairs == 1


def test_nijenhuis_sandwich_fails_with_witness(gl3, gl3_pair):
    a = ExactMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    b = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    op = operator_sandwich(gl3, a, b)
    report = check_nijenhuis(gl3_pair, op)
    assert not report.verdict and report.mode == "all-pairs"
    v, w, beta = report.witness
    # independently re-evaluate the witness through the form itself
    assert torsion_form(gl3, op, v, w) == beta
    assert beta not in gl3_pair.k.space


def test_zero_operator_nijenhuis(so3_pair, gl3_pair, u4_pair):
    for pair in (so3_pair, gl3_pair, u4_pair):
        report = check_nijenhuis(pair, zero_operator(pair.alg))
        assert report.verdict


def test_nijenhuis_requires_admissible(so3, so3_pair):
    with pytest.raises(NotAdmissible):
        check_nijenhuis(so3_pair, sphere_family(so3, 0, 1, 1))


def test_complement_mode_needs_complement(so3, so3_pair_plain):
    with pytest.raises(MissingComplement):
        check_nijenhuis(so3_pair_plain,
                        operator_ad(so3, so3.basis_vector("k0")),
                        pairs="complement")


def test_mode_equivalence(so3, so3_pair, u4, u4_pair):
    cases = [
        (so3_pair, operator_ad(so3, so3.basis_vector("k0"))),
        (so3_pair, sphere_family(so3, 1, 1, -1)),
        (u4_pair, operator_ad(u4, grassmann_center_vector(u4))),
    ]
    for pair, op in cases:
        all_pairs = check_nijenhuis(pair, op, pairs="all")
        complement = check_nijenhuis(pair, op, pairs="complement")
        assert all_pairs.verdict == complement.verdict
        assert all_pairs.mode == "all-pairs"
        assert complement.mode == "complement-pairs"


def test_ad_specialization_equivalence(so3, so3_pair, u4, u4_pair):
    rng = random.Random(53)
    # rotation pair: inner operators are admissible only along k0
    for _ in range(10):
        d = (Fraction(rng.randint(-5, 5)), Fraction(0), Fraction(0))
        spec = check_nijenhuis_ad(so3_pair, d)
        generic = check_nijenhuis(so3_pair, operator_ad(so3, d))
        assert spec.verdict == generic.verdict
        assert spec.mode == "ad_d-specialized"
    # block pair: admissible along the two block-scalar directions
    for _ in range(10):
        a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        d = [Fraction(0)] * 16
        for lab in ("d1", "d2"):
            d[u4.index_of(lab)] = a
        for lab in ("d3", "d4"):
            d[u4.index_of(lab)] = b
        d = tuple(d)
        assert check_nijenhuis_ad(u4_pair, d).verdict == check_nijenhuis(
            u4_pair, operator_ad(u4, d)).verdict


def test_ad_specialized_negative_case(sl2):
    # With trivial stabilizer every inner operator is admissible, but the
    # range of ad(h) is span{e, f}, whose bracket is h: not Nijenhuis.
    triv = make_subalgebra(sl2, [sl2.zero_vector()])
    pair = HomogeneousPair(sl2, triv)
    d = sl2.basis_vector("h")
    spec = check_nijenhuis_ad(pair, d)
    generic = check_nijenhuis(pair, operator_ad(sl2, d))
    assert not spec.verdict and not generic.verdict
    v, w, value = spec.witness
    assert value not in pair.k.space


def test_ad_specialized_rejects_inadmissible(so3, so3_pair):
    with pytest.raises(NotAdmissible):
        check_nijenhuis_ad(so3_pair, so3.basis_vector("e1"))


@pytest.fixture
def gl2_pair():
    """gl(2) in the basis (1, h, e, f), whose first element is central, with
    the trivial subalgebra."""
    gens = [ExactMatrix.from_rows(rows) for rows in (
        [[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])]
    gl2 = from_matrix_generators(2, gens, labels=("one", "h", "e", "f"), name="gl2")
    return HomogeneousPair(gl2, make_subalgebra(gl2, []))


@pytest.mark.parametrize("pair, d", [
    ("so3_pair", (GaussianRational(1, 1), Fraction(0), Fraction(0))),
    ("so3_pair", (GaussianRational(1), Fraction(0), Fraction(0))),
    ("gl2_pair", (GaussianRational(1), Fraction(0), Fraction(1), Fraction(0))),
], ids=["non-real", "real-valued", "central"])
def test_ad_specialized_takes_the_operator_ad_input_rule(request, pair, d):
    # d goes through operator_ad, whose matrices are real: a Q(i) entry is a
    # library error, also when its imaginary part is 0, and also on gl(2)'s
    # central identity, where no bracket term touches it.
    with pytest.raises(LieCheckError, match=r"^operator matrices are real; got a Q\(i\) entry$"):
        check_nijenhuis_ad(request.getfixturevalue(pair), d)


def test_ad_pair_mode_needs_an_inner_operator(so3, so3_pair):
    # The ad reading negates the witness of beta, which is right only for a
    # derivation; an operator with the same matrix but not built by
    # operator_ad is refused before any pair is checked.
    inner = operator_ad(so3, so3.basis_vector("k0"))
    assert check_nijenhuis(so3_pair, inner, pairs="ad").verdict
    with pytest.raises(LieCheckError, match=r"^pair mode 'ad' needs an operator built by operator_ad$"):
        check_nijenhuis(so3_pair, LinearOperator(so3, inner.matrix), pairs="ad")


def test_unknown_pair_mode(so3, so3_pair):
    with pytest.raises(LieCheckError, match=r"^unknown pair mode 'bogus'$"):
        check_nijenhuis(so3_pair, operator_ad(so3, so3.basis_vector("k0")), pairs="bogus")


def test_center_is_trivially_nijenhuis(u4, u4_pair):
    # i * Id spans the center: all brackets with it vanish.
    d = [Fraction(0)] * 16
    for lab in ("d1", "d2", "d3", "d4"):
        d[u4.index_of(lab)] = Fraction(1)
    report = check_nijenhuis_ad(u4_pair, tuple(d))
    assert report.verdict


def test_grassmann_ad_nijenhuis(u4, u4_pair):
    d = grassmann_center_vector(u4)
    assert check_nijenhuis_ad(u4_pair, d).verdict
    # the complement really brackets into the subalgebra
    for x in u4_pair.m.vectors():
        for y in u4_pair.m.vectors():
            assert u4.bracket(x, y) in u4_pair.k.space


def test_oneof_property(so3, so3_pair, u4, u4_pair):
    rng = random.Random(59)
    op = operator_ad(so3, so3.basis_vector("k0"))
    assert oneof_property(
        so3_pair, op, so3.basis_vector("k0"), so3.basis_vector("e1"))
    assert oneof_property(
        so3_pair, op, so3.zero_vector(), so3.basis_vector("e1"))
    jgr = operator_ad(u4, grassmann_center_vector(u4))
    for _ in range(25):
        coeffs = rand_vector(rng, u4_pair.k.dim, 4)
        z = [Fraction(0)] * 16
        for c, row in zip(coeffs, u4_pair.k.space.vectors()):
            z = [a + c * b for a, b in zip(z, row)]
        w = rand_vector(rng, 16, 4)
        assert oneof_property(u4_pair, jgr, tuple(z), w)


def test_trace_part_operator_on_traceless_pair(gl3):
    # k = traceless matrices; I projects onto the scalar part.  Every
    # bracket of matrices is traceless, so I is admissible and all torsion
    # terms vanish into k: the finite-dimensional situation is degenerate in
    # a way an infinite-dimensional quotient need not be.
    labels = gl3.basis_labels
    sl3_vectors = []
    for lab in labels:
        i, j = int(lab[1]), int(lab[2])
        if i != j:
            sl3_vectors.append(gl3.basis_vector(lab))
    e11, e22, e33 = (gl3.basis_vector(f"e{i}{i}") for i in (1, 2, 3))
    sl3_vectors.append(tuple(a - b for a, b in zip(e11, e22)))
    sl3_vectors.append(tuple(a - b for a, b in zip(e22, e33)))
    sl3 = make_subalgebra(gl3, sl3_vectors)
    assert sl3.dim == 8
    pair = HomogeneousPair(gl3, sl3)
    third = Fraction(1, 3)
    scalar = tuple(third * (a + b + c) for a, b, c in zip(e11, e22, e33))
    rules = {}
    for lab in labels:
        i, j = int(lab[1]), int(lab[2])
        rules[lab] = scalar if i == j else gl3.zero_vector()
    op = operator_from_rules(gl3, rules)
    assert check_admissible(pair, op).holds
    assert check_nijenhuis(pair, op).verdict


def test_ad_mode_checks_component_reps(fixtures_dir):
    # ad(k0) commutes with ad_k but not with the flip k0 -> -k0, e2 -> -e2.
    from liecheck.specfile import build, parse
    doc = build(parse((fixtures_dir / "so3_flip_reps.lie").read_text()))
    pair, op = doc.pairs["flip"], doc.operators["I"]
    expected = check_admissible(pair, op)
    assert expected.failed_clause == "commutes_with_component_reps"
    for check in (lambda: check_nijenhuis_ad(pair, op.ad_generator),
                  lambda: check_nijenhuis(pair, op, pairs="ad"),
                  lambda: check_nijenhuis(pair, op, pairs="all")):
        with pytest.raises(NotAdmissible) as err:
            check()
        assert err.value.report == expected


def reference_nijenhuis(pair, op, vectors):
    """The torsion pair loop in Fraction arithmetic:
    ``(verdict, checked_pairs, witness)``."""
    checked = 0
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            beta = torsion_form(pair.alg, op, vectors[a], vectors[b])
            checked += 1
            if beta not in pair.k.space:
                return False, checked, (vectors[a], vectors[b], beta)
    return True, checked, None


def reference_nijenhuis_ad(pair, d):
    """``[[d, v], [d, w]] in k`` over basis pairs, in Fraction arithmetic."""
    alg = pair.alg
    basis = [alg.basis_vector(j) for j in range(alg.dim)]
    checked = 0
    for a in range(alg.dim):
        for b in range(a + 1, alg.dim):
            val = alg.bracket(alg.bracket(d, basis[a]), alg.bracket(d, basis[b]))
            checked += 1
            if val not in pair.k.space:
                return False, checked, (basis[a], basis[b], val)
    return True, checked, None


def _assert_report_matches(run, op, pair, expected):
    """``run()`` raises NotAdmissible with the admissibility report of
    ``op``, or returns a report equal to ``expected``, entry types included."""
    adm = check_admissible(pair, op)
    if not adm.holds:
        with pytest.raises(NotAdmissible) as err:
            run()
        assert err.value.report == adm
        return
    report = run()
    assert (report.verdict, report.checked_pairs, report.witness) == expected
    witness = expected[2]
    if witness is not None:
        assert [[type(x) for x in part] for part in report.witness] == [
            [type(x) for x in part] for part in witness]


@pytest.mark.parametrize("case,mode", [(case, "all") for case in LOOP_CASES] + [
    (case, "complement") for case in ("so3_split", "so3_skew", "u4_grass", "nil4", "so3_moved",
                                      "gl3_diag_skew")])
@property_test(max_examples=20)
def test_torsion_matches_fraction_reference(loop_cases, case, mode, data):
    pair, seeds, _ = loop_cases[case]
    op = draw_operator(data, pair, seeds)
    vectors = (list(pair.m.vectors()) if mode == "complement"
               else [pair.alg.basis_vector(j) for j in range(pair.alg.dim)])
    _assert_report_matches(lambda: check_nijenhuis(pair, op, pairs=mode), op, pair,
                           reference_nijenhuis(pair, op, vectors))


@pytest.mark.parametrize("case", LOOP_CASES)
@property_test(max_examples=20)
def test_torsion_ad_matches_fraction_reference(loop_cases, case, data):
    pair, _, seeds = loop_cases[case]
    d = draw_ad_vector(data, pair, seeds)
    op = operator_ad(pair.alg, d)
    for check in (lambda: check_nijenhuis_ad(pair, d),
                  lambda: check_nijenhuis(pair, op, pairs="ad")):
        _assert_report_matches(check, op, pair, reference_nijenhuis_ad(pair, d))
