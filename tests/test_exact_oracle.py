"""The exact kernel against an independent implementation: sympy's DomainMatrix.

Zero-heavy random matrices over QQ and QQ_I, so that sparse rows, empty rows
and columns and rank deficiency are common.  The reduced row-echelon form is
unique, so the oracle's RREF (with its zero rows dropped) must match ours
entry for entry; kernels and intersections are compared through the oracle's
own RREF of the spanning sets it computes; the integer annihilator of a
subspace is compared with the oracle's rank test for membership.  The module
is skipped when hypothesis or sympy is not installed.
"""

from fractions import Fraction

import pytest

from liecheck import (
    ExactMatrix,
    GaussianRational,
    Subspace,
    kernel_basis,
    rref,
    subspace_intersection,
)
from liecheck.exact import annihilated, from_integers, integer_vector

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import QQ, QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


def _sparse_scalars(gaussian):
    if gaussian:
        zero, nonzero = GaussianRational(0), st.builds(GaussianRational, _rationals, _rationals)
    else:
        zero, nonzero = Fraction(0), _rationals
    # Two of three entries are zero.
    return st.tuples(st.integers(0, 2), nonzero).map(lambda t: t[1] if t[0] == 0 else zero)


@st.composite
def _sparse_matrices(draw, gaussian, cols=None):
    rows = draw(st.integers(1, 6))
    if cols is None:
        cols = draw(st.integers(1, 6))
    entries = draw(st.lists(_sparse_scalars(gaussian), min_size=rows * cols,
                            max_size=rows * cols))
    return ExactMatrix(rows, cols, entries)


def _to_domain(m, gaussian):
    def conv(e):
        if gaussian:
            return QQ_I(QQ(e.re.numerator, e.re.denominator),
                        QQ(e.im.numerator, e.im.denominator))
        return QQ(e.numerator, e.denominator)

    return DomainMatrix([[conv(e) for e in m.row(i)] for i in range(m.rows)],
                        (m.rows, m.cols), QQ_I if gaussian else QQ)


def _from_domain(x, gaussian):
    def frac(q):
        return Fraction(int(q.numerator), int(q.denominator))

    return GaussianRational(frac(x.x), frac(x.y)) if gaussian else frac(x)


def _oracle_rref(dm, gaussian):
    """Nonzero rows of the oracle's RREF as tuples of our scalars, and pivots."""
    red, pivots = dm.rref()
    rows = red.to_list()[: len(pivots)]
    return [tuple(_from_domain(x, gaussian) for x in r) for r in rows], tuple(pivots)


def _assert_same_rows(ours, oracle_rows, gaussian):
    scalar = GaussianRational if gaussian else Fraction
    assert ours.rows == len(oracle_rows)
    for i, expected in enumerate(oracle_rows):
        got = ours.row(i)
        assert got == expected
        assert all(type(e) is scalar for e in got)


_FIELDS = pytest.mark.parametrize("gaussian", [False, True], ids=["QQ", "QQ_I"])
_SETTINGS = settings(max_examples=120, deadline=None)


@_FIELDS
@_SETTINGS
@given(data=st.data())
def test_rref_matches_oracle(gaussian, data):
    m = data.draw(_sparse_matrices(gaussian))
    red, pivots = rref(m)
    expected, expected_pivots = _oracle_rref(_to_domain(m, gaussian), gaussian)
    assert pivots == expected_pivots
    _assert_same_rows(red, expected, gaussian)


@_FIELDS
@_SETTINGS
@given(data=st.data())
def test_kernel_basis_matches_oracle(gaussian, data):
    m = data.draw(_sparse_matrices(gaussian))
    kern = kernel_basis(m)
    null = _to_domain(m, gaussian).nullspace()
    if null.shape[0] == 0:
        assert kern.dim == 0
        return
    expected, expected_pivots = _oracle_rref(null, gaussian)
    assert kern.pivot_cols == expected_pivots
    _assert_same_rows(kern.basis, expected, gaussian)


@_FIELDS
@_SETTINGS
@given(data=st.data())
def test_subspace_intersection_matches_oracle(gaussian, data):
    ambient = data.draw(st.integers(1, 6))
    a = data.draw(_sparse_matrices(gaussian, cols=ambient))
    b = data.draw(_sparse_matrices(gaussian, cols=ambient))
    ours = subspace_intersection(
        Subspace.from_vectors(ambient, [a.row(i) for i in range(a.rows)]),
        Subspace.from_vectors(ambient, [b.row(i) for i in range(b.rows)]),
    )
    # Kernel rows (u, w) of [A^T | -B^T] give u A = w B; the u A span the
    # intersection of the two row spaces, spanning sets taken as drawn.
    da, db = _to_domain(a, gaussian), _to_domain(b, gaussian)
    null = da.transpose().hstack(-db.transpose()).nullspace()
    if null.shape[0] == 0:
        assert ours.dim == 0
        return
    u = null.extract(list(range(null.shape[0])), list(range(a.rows)))
    expected, expected_pivots = _oracle_rref(u * da, gaussian)
    assert ours.pivot_cols == expected_pivots
    _assert_same_rows(ours.basis, expected, gaussian)


@_SETTINGS
@given(data=st.data())
def test_annihilator_matches_oracle_membership(data):
    m = data.draw(_sparse_matrices(False))
    space = Subspace.from_vectors(m.cols, [m.row(i) for i in range(m.rows)])
    q = space.annihilator
    assert (q.rows, q.cols) == (m.cols - space.dim, m.cols)
    assert all(type(e) is Fraction and e.denominator == 1 for e in q.entries)
    if data.draw(st.booleans()):  # a combination of the spanning rows
        coeffs = data.draw(st.lists(_sparse_scalars(False), min_size=m.rows,
                                    max_size=m.rows))
        v = tuple(sum((c * x for c, x in zip(coeffs, m.column(j))), Fraction(0))
                  for j in range(m.cols))
    else:
        v = tuple(data.draw(st.lists(_sparse_scalars(False), min_size=m.cols,
                                     max_size=m.cols)))
    dm = _to_domain(m, False)
    stacked = _to_domain(ExactMatrix.from_rows([m.row(i) for i in range(m.rows)] + [v]),
                         False)
    inside = stacked.rank() == dm.rank()
    assert (not any(q.apply(v))) == inside
    scale, ints = integer_vector(v)
    assert from_integers(m.cols, scale, ints) == v  # the integer view and its scale
    assert annihilated(q.integer_columns[1], ints) == inside
    assert (v in space) == inside
