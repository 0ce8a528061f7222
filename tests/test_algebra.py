"""Lie algebra construction, brackets, subalgebras and complexification."""

import random
from fractions import Fraction

import pytest

from liecheck import (
    ExactMatrix,
    GaussianRational,
    LieAlgebra,
    conjugate_vector,
    from_matrix_generators,
    make_subalgebra,
)
from liecheck.errors import (
    InvalidStructureConstants,
    NonRealStructureConstants,
    NotClosed,
    NotClosedUnderBracket,
    NotIndependent,
)

from conftest import (
    imag_unit_matrix,
    rand_gaussian_vector,
    rand_vector,
    so3_structure,
    unit_matrix,
)


def test_so3_bracket_table(so3):
    k0, e1, e2 = (so3.basis_vector(i) for i in range(3))
    assert so3.bracket(k0, e1) == tuple(map(Fraction, (0, 0, -1)))   # -e2
    assert so3.bracket(k0, e2) == tuple(map(Fraction, (0, 1, 0)))    # e1
    assert so3.bracket(e1, e2) == tuple(map(Fraction, (-1, 0, 0)))   # -k0


def test_bracket_alternating(so3):
    rng = random.Random(3)
    for _ in range(30):
        v = rand_vector(rng, 3)
        assert so3.bracket(v, v) == so3.zero_vector()


def test_gl2_commutator():
    # [E12, E21] = E11 - E22, checked against the raw matrix commutator.
    e12, e21 = unit_matrix(2, 0, 1), unit_matrix(2, 1, 0)
    direct = (e12 @ e21) - (e21 @ e12)
    assert direct == unit_matrix(2, 0, 0) + unit_matrix(2, 1, 1, -1)
    gl2 = from_matrix_generators(
        2,
        [unit_matrix(2, i, j) for i in range(2) for j in range(2)],
        labels=("e11", "e12", "e21", "e22"),
        name="gl2",
    )
    br = gl2.bracket(gl2.basis_vector("e12"), gl2.basis_vector("e21"))
    assert gl2.format_element(br) == "e11 - e22"


def test_ad_matrix_so3(so3):
    ad = so3.ad_matrix(so3.basis_vector("k0"))
    assert ad.apply(so3.basis_vector("e1")) == so3.bracket(
        so3.basis_vector("k0"), so3.basis_vector("e1"))
    assert ad.apply(so3.basis_vector("k0")) == so3.zero_vector()


def test_ad_zero_and_self(so3):
    rng = random.Random(5)
    assert so3.ad_matrix(so3.zero_vector()) == ExactMatrix.zeros(3, 3)
    for _ in range(20):
        d = rand_vector(rng, 3)
        assert so3.ad_matrix(d).apply(d) == so3.zero_vector()


def _rejection(c, labels=("k0", "e1", "e2")) -> str:
    with pytest.raises(InvalidStructureConstants) as err:
        LieAlgebra("broken", labels, c)
    return str(err.value)


def test_construction_rejects_antisymmetry_violation():
    c = [list(map(list, row)) for row in so3_structure()]
    c[0][1][2] = Fraction(5)  # partner c[1][0][2] untouched
    assert _rejection(c) == "antisymmetry fails at [k0,e1] component e2"
    # Two bad components of one bracket: the first is named.
    c[0][1][0] = Fraction(3)
    assert _rejection(c) == "antisymmetry fails at [k0,e1] component k0"


def test_construction_rejects_nonzero_diagonal_bracket():
    # [e1, e1] = e2 is reported before the later bad pair [e1, e2].
    c = [list(map(list, row)) for row in so3_structure()]
    c[1][1][2] = Fraction(1)
    c[1][2][1] = Fraction(7)
    assert _rejection(c) == "antisymmetry fails at [e1,e1] component e2"


def test_construction_rejects_jacobi_violation():
    # Keep antisymmetry but push [k0,e1] off its Jacobi-consistent value.
    c = [list(map(list, row)) for row in so3_structure()]
    c[0][1][0] = Fraction(1)
    c[1][0][0] = Fraction(-1)
    assert _rejection(c) == "Jacobi identity fails on basis triple (k0, e1, e2)"


def test_construction_reports_first_jacobi_triple():
    # so3 plus a line z with [e1, z] = e1: antisymmetric, and the triples
    # (k0, e1, z), (k0, e2, z) and (e1, e2, z) all fail; (k0, e1, e2) holds.
    z4 = (Fraction(0),) * 4
    c = [[z4] * 4 for _ in range(4)]
    for i, row in enumerate(so3_structure()):
        for j, coords in enumerate(row):
            c[i][j] = tuple(coords) + (0,)
    c[1][3] = (0, 1, 0, 0)
    c[3][1] = (0, -1, 0, 0)
    assert _rejection(c, ("k0", "e1", "e2", "z")) == (
        "Jacobi identity fails on basis triple (k0, e1, z)")


def test_from_matrix_generators_so3(so3):
    k0 = ExactMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    e1 = ExactMatrix.from_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    e2 = ExactMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    alg = from_matrix_generators(3, [k0, e1, e2], labels=("k0", "e1", "e2"))
    assert alg.c == so3.c
    ad = alg.ad_matrix(alg.basis_vector("k0"))
    assert ad.apply(alg.basis_vector("e1")) == alg.bracket(
        alg.basis_vector("k0"), alg.basis_vector("e1"))


def test_single_generator_abelian():
    alg = from_matrix_generators(2, [unit_matrix(2, 0, 0)])
    assert alg.dim == 1
    assert alg.bracket((Fraction(2),), (Fraction(3),)) == (Fraction(0),)


def test_u2_structure_constants_real():
    # Commutator table worked out by hand:
    #   [d1, a12] = s12, [d1, s12] = -a12, [d2, a12] = -s12,
    #   [d2, s12] = a12, [a12, s12] = 2 d1 - 2 d2, [d1, d2] = 0.
    g = [
        imag_unit_matrix(2, 0, 0),
        imag_unit_matrix(2, 1, 1),
        unit_matrix(2, 0, 1) + unit_matrix(2, 1, 0, -1),
        imag_unit_matrix(2, 0, 1) + imag_unit_matrix(2, 1, 0),
    ]
    u2 = from_matrix_generators(2, g, labels=("d1", "d2", "a12", "s12"), name="u2")
    b = u2.basis_vector
    fmt = u2.format_element
    assert fmt(u2.bracket(b("d1"), b("a12"))) == "s12"
    assert fmt(u2.bracket(b("d1"), b("s12"))) == "-a12"
    assert fmt(u2.bracket(b("d2"), b("a12"))) == "-s12"
    assert fmt(u2.bracket(b("d2"), b("s12"))) == "a12"
    assert fmt(u2.bracket(b("a12"), b("s12"))) == "2*d1 - 2*d2"
    assert u2.bracket(b("d1"), b("d2")) == u2.zero_vector()


def test_generator_failures():
    with pytest.raises(NotIndependent):
        from_matrix_generators(2, [unit_matrix(2, 0, 0), unit_matrix(2, 0, 0)])
    # span{E11, E12} closed; span{E12, E21} is not
    with pytest.raises(NotClosed) as err:
        from_matrix_generators(2, [unit_matrix(2, 0, 1), unit_matrix(2, 1, 0)])
    assert err.value.labels == ("g0", "g1")
    # i E12 lies in the complex span of E12 but not the real one
    with pytest.raises(NonRealStructureConstants):
        from_matrix_generators(2, [imag_unit_matrix(2, 0, 0), unit_matrix(2, 0, 1)])


def test_make_subalgebra(so3):
    sub = make_subalgebra(so3, [so3.basis_vector("k0")])
    assert sub.dim == 1
    full = make_subalgebra(so3, [so3.basis_vector(i) for i in range(3)])
    assert full.dim == 3
    single = make_subalgebra(so3, [so3.basis_vector("e1")])
    assert single.dim == 1
    with pytest.raises(NotClosedUnderBracket) as err:
        make_subalgebra(so3, [so3.basis_vector("e1"), so3.basis_vector("e2")])
    # the witness bracket is [e1, e2] = -k0
    assert err.value.value == tuple(map(Fraction, (-1, 0, 0)))


def test_complexify_and_conjugate(so3):
    i = GaussianRational(0, 1)
    v = (GaussianRational(0), GaussianRational(1), i)  # e1 + i e2
    assert conjugate_vector(v) == (GaussianRational(0), GaussianRational(1),
                                   GaussianRational(0, -1))
    # [k0, e1 + i e2] = -e2 + i e1 = i (e1 + i e2)
    br = so3.bracket(so3.basis_vector("k0"), v)
    assert br == tuple(i * x for x in v)


def test_conjugation_commutes_with_bracket(so3):
    rng = random.Random(19)
    for _ in range(50):
        x = rand_gaussian_vector(rng, 3)
        y = rand_gaussian_vector(rng, 3)
        assert conjugate_vector(so3.bracket(x, y)) == so3.bracket(
            conjugate_vector(x), conjugate_vector(y))


def test_complexify_subspace(so3, so3_pair):
    kc = so3_pair.k.space.over_gaussian()
    assert kc.dim == 1
    assert (GaussianRational(2, 3), GaussianRational(0), GaussianRational(0)) in kc
