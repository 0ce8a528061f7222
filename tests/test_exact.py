"""Exact scalars, matrices, row reduction and subspace operations."""

import random
from fractions import Fraction

import pytest

from liecheck import (
    ExactMatrix,
    GaussianRational,
    Subspace,
    format_scalar,
    kernel_basis,
    parse_scalar,
    rref,
    subspace_intersection,
    subspace_sum,
)
from liecheck.errors import DimensionCapExceeded, DimensionMismatch

from conftest import rand_fraction, rand_gaussian


# -- scalar fields ----------------------------------------------------------

def test_gaussian_basic():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert a.conjugate() == GaussianRational(Fraction(1, 2), Fraction(3, 4))
    assert a.conjugate().conjugate() == a
    assert GaussianRational(5) == Fraction(5) == 5
    assert (GaussianRational(0, 1) * GaussianRational(0, 1)) == -1


def test_gaussian_division():
    i = GaussianRational(0, 1)
    assert (1 / i) == -i
    assert (GaussianRational(3, 4) / GaussianRational(3, 4)) == 1
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_field_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (rand_gaussian(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * (1 / a) == 1
    for _ in range(200):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        if a:
            assert a * (1 / a) == 1


def test_rational_canonical_form():
    # fractions.Fraction keeps gcd-reduced, positive-denominator form.
    x = Fraction(6, -4)
    assert x.numerator == -3 and x.denominator == 2


@pytest.mark.parametrize("text,back", [
    ("-3", "-3"),
    ("3/2", "3/2"),
    ("2/4", "1/2"),
    ("3/2+1/4i", "3/2+1/4i"),
    ("-i", "-i"),
    ("2i", "2i"),
    ("0", "0"),
    ("1/2-i", "1/2-i"),
    ("-5/7i", "-5/7i"),
])
def test_scalar_round_trip(text, back):
    assert format_scalar(parse_scalar(text)) == back


def test_scalar_rejects_garbage():
    for bad in ("', '", "1.5", "i2", "3 + 4", "--1", "1/0x"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_conjugation_fixes_exactly_reals():
    assert GaussianRational(3, 0).conjugate() == GaussianRational(3, 0)
    assert GaussianRational(3, 1).conjugate() != GaussianRational(3, 1)


# -- rref -------------------------------------------------------------------

def test_rref_rank_one():
    m = ExactMatrix.from_rows([[2, 4], [1, 2]])
    red, piv = rref(m)
    assert red == ExactMatrix.from_rows([[1, 2]])
    assert piv == (0,)


def test_rref_identity_fixed():
    m = ExactMatrix.identity(3)
    red, piv = rref(m)
    assert red == m
    assert piv == (0, 1, 2)


def test_rref_row_swap():
    red, piv = rref(ExactMatrix.from_rows([[0, 1], [1, 0]]))
    assert red == ExactMatrix.identity(2)
    assert piv == (0, 1)


def test_rref_idempotent_and_row_space_preserving():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ExactMatrix(rows, cols,
                        [rand_fraction(rng) for _ in range(rows * cols)])
        red, piv = rref(m)
        again, piv2 = rref(red)
        assert red == again and piv == piv2
        span = Subspace(cols, red, piv)
        for i in range(rows):
            assert m.row(i) in span


def test_rank_nullity_randomized():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = ExactMatrix(rows, cols,
                        [rand_fraction(rng, 3) for _ in range(rows * cols)])
        red, piv = rref(m)
        kern = kernel_basis(m)
        assert len(piv) + kern.dim == cols
        # every kernel row really is annihilated
        for v in kern.vectors():
            assert all(x == 0 for x in m.apply(v))


# -- kernels ----------------------------------------------------------------

def test_kernel_zero_matrix():
    kern = kernel_basis(ExactMatrix.zeros(2, 2))
    assert kern.dim == 2


def test_kernel_identity():
    assert kernel_basis(ExactMatrix.identity(3)).dim == 0


def test_kernel_one_equation():
    # x + y = 0 solved by hand: the line through (1, -1).
    kern = kernel_basis(ExactMatrix.from_rows([[1, 1]]))
    assert kern.vectors() == ((Fraction(1), Fraction(-1)),)


# -- membership -------------------------------------------------------------

def test_membership_axis():
    s = Subspace.from_vectors(3, [(1, 0, 0)])
    assert s.coordinates_of((5, 0, 0)) == (Fraction(5),)
    assert s.coordinates_of((0, 1, 0)) is None
    assert (5, 0, 0) in s and (0, 1, 0) not in s


def test_membership_scalar_multiple():
    s = Subspace.from_vectors(2, [(1, 2)])
    assert s.coordinates_of((3, 6)) == (Fraction(3),)


def test_membership_dimension_mismatch():
    s = Subspace.from_vectors(2, [(1, 0)])
    with pytest.raises(DimensionMismatch):
        s.coordinates_of((1, 0, 0))


# -- sums and intersections --------------------------------------------------

def test_sum_of_axes():
    a = Subspace.from_vectors(3, [(1, 0, 0)])
    b = Subspace.from_vectors(3, [(0, 1, 0)])
    assert subspace_sum(a, b).dim == 2
    assert subspace_intersection(a, b).dim == 0


def test_intersection_of_planes():
    # span{e1,e2} and span{e2,e3} meet exactly in span{e2}: dims 2+2 = 3+1.
    a = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    inter = subspace_intersection(a, b)
    assert inter == Subspace.from_vectors(3, [(0, 1, 0)])


def test_grassmann_identity_randomized():
    rng = random.Random(13)
    for _ in range(40):
        ambient = rng.randint(1, 6)
        a = Subspace.from_vectors(
            ambient,
            [[rand_fraction(rng, 3) for _ in range(ambient)]
             for _ in range(rng.randint(0, ambient))],
        )
        b = Subspace.from_vectors(
            ambient,
            [[rand_fraction(rng, 3) for _ in range(ambient)]
             for _ in range(rng.randint(0, ambient))],
        )
        total = subspace_sum(a, b)
        inter = subspace_intersection(a, b)
        assert a.dim + b.dim == total.dim + inter.dim
        for v in inter.vectors():
            assert v in a and v in b


def test_canonical_equality():
    # Two spanning sets of the same plane reduce to one representation.
    a = Subspace.from_vectors(3, [(1, 1, 0), (0, 1, 1)])
    b = Subspace.from_vectors(3, [(1, 2, 1), (2, 3, 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_dimension_cap():
    with pytest.raises(DimensionCapExceeded):
        Subspace.from_vectors(65, [])


def test_exact_matrix_rejects_floats():
    with pytest.raises(TypeError):
        ExactMatrix(1, 1, [0.5])


def test_complexified_subspace_and_conjugation():
    s = Subspace.from_vectors(2, [(1, 2)])
    sc = s.over_gaussian()
    assert sc.dim == 1
    assert sc == s.over_gaussian()
    t = Subspace.from_vectors(2, [(GaussianRational(1), GaussianRational(0, 1))])
    assert t.conjugated().vectors() == ((GaussianRational(1), GaussianRational(0, -1)),)
    assert t.conjugated().conjugated() == t
