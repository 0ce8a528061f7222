"""Exact scalars, matrices, row reduction and subspace operations."""

import random
from fractions import Fraction
from math import gcd, lcm

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
from liecheck.errors import DimensionCapExceeded, DimensionMismatch, LieCheckError

from conftest import (
    draw_matrix,
    identity_matrix,
    matrix_sum,
    property_test,
    rand_fraction,
    rand_gaussian,
    scalar_div,
    scaled_matrix,
    span_coords,
    zero_matrix,
)


# -- scalar fields ----------------------------------------------------------

def test_gaussian_basic():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert a.conjugate() == GaussianRational(Fraction(1, 2), Fraction(3, 4))
    assert a.conjugate().conjugate() == a
    assert GaussianRational(5) == Fraction(5) == 5
    assert (GaussianRational(0, 1) * GaussianRational(0, 1)) == -1


def test_gaussian_division():
    i = GaussianRational(0, 1)
    assert scalar_div(1, i) == -i
    assert scalar_div(GaussianRational(3, 4), GaussianRational(3, 4)) == 1
    with pytest.raises(ZeroDivisionError):
        scalar_div(GaussianRational(1), GaussianRational(0))


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
            assert a * scalar_div(1, a) == 1
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
    ("-1+2i", "-1+2i"),
    ("- 3/2 - 1/4 i", "-3/2-1/4i"),
])
def test_scalar_round_trip(text, back):
    assert format_scalar(parse_scalar(text)) == back


def decimal_value(text: str) -> int:
    """The integer a decimal string denotes, read through int arithmetic in
    chunks short enough for ``int``."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def test_format_scalar_past_the_int_string_limit():
    # Python refuses int -> str conversions above 4300 digits by default;
    # format_scalar renders any length exactly, zeros inside included.
    assert format_scalar(Fraction(10 ** 5000, 3)) == "1" + "0" * 5000 + "/3"
    num, den = format_scalar(Fraction(10 ** 5000, 3)).split("/")
    assert (decimal_value(num), decimal_value(den)) == (10 ** 5000, 3)
    for n in (7 ** 6000, -(3 ** 9001), 10 ** 8000 + 1, 10 ** 4300 - 1, -(10 ** 20000)):
        assert decimal_value(format_scalar(Fraction(n))) == n
        assert decimal_value(format_scalar(GaussianRational(0, n))[:-1]) == n
    re, im = Fraction(-(11 ** 5000), 13 ** 4000), 2 ** 20000
    text = format_scalar(GaussianRational(re, im))
    head, _, tail = text.partition("+")
    num, den = head.split("/")
    assert (Fraction(decimal_value(num), decimal_value(den)), decimal_value(tail[:-1])) == (re, im)


def test_scalar_rejects_garbage():
    for bad in ("', '", "1.5", "i2", "3 + 4", "--1", "1/0x", "1/0", "1/0i", "1+1/0i",
                "\u00b2", "\u0663", "2ix"):
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
    m = identity_matrix(3)
    red, piv = rref(m)
    assert red == m
    assert piv == (0, 1, 2)


def test_rref_row_swap():
    red, piv = rref(ExactMatrix.from_rows([[0, 1], [1, 0]]))
    assert red == identity_matrix(2)
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
        span = Subspace(red)
        assert span.pivot_cols == piv
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
    kern = kernel_basis(zero_matrix(2, 2))
    assert kern.dim == 2


def test_kernel_identity():
    assert kernel_basis(identity_matrix(3)).dim == 0


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


def test_subspace_is_its_basis():
    # The ambient dimension and the pivots are read off the basis; no
    # second copy of them can be given.
    basis = ExactMatrix.from_rows([[0, 1, 0, 2], [0, 0, 1, 3]])
    s = Subspace(basis)
    assert (s.ambient_dim, s.pivot_cols, s.dim) == (4, (1, 2), 2)
    assert s == Subspace.from_vectors(4, [basis.row(0), basis.row(1)])
    with pytest.raises(TypeError):
        Subspace(2, ExactMatrix.from_rows([[1, 0, 0, 0]]), (0,))
    with pytest.raises(LieCheckError, match="zero row"):
        Subspace(ExactMatrix.from_rows([[1, 0], [0, 0]]))
    with pytest.raises(DimensionCapExceeded):
        Subspace(ExactMatrix(0, 65, []))
    assert Subspace(ExactMatrix(0, 3, [])) == Subspace.from_vectors(3, [])


@pytest.mark.parametrize("rows", [
    [[2, 0]],
    [[GaussianRational(0, 1), 0]],
    [[1, 1], [0, 1]],
    [[1, 0, 0], [1, 1, 0]],
    [[0, 1], [1, 0]],
], ids=["pivot-2", "pivot-i", "above-pivot", "same-pivot", "pivot-order"])
def test_subspace_basis_must_be_reduced(rows):
    # A basis that is not in reduced row-echelon form would give wrong
    # coordinates and compare unequal to its own span.
    with pytest.raises(LieCheckError, match="reduced row-echelon form"):
        Subspace(ExactMatrix.from_rows(rows))
    span = Subspace.from_vectors(len(rows[0]), rows)
    assert Subspace(span.basis) == span


def test_exact_matrix_rejects_floats():
    with pytest.raises(TypeError):
        ExactMatrix(1, 1, [0.5])


def test_complexified_subspace_and_conjugation():
    s = Subspace.from_vectors(2, [(1, 2)])
    sc = Subspace.from_vectors(2, [(GaussianRational(1), GaussianRational(2))])
    assert sc.dim == 1
    assert sc == s and s == sc  # subspaces compare by value across the two fields
    t = Subspace.from_vectors(2, [(GaussianRational(1), GaussianRational(0, 1))])
    assert t.conjugated().vectors() == ((GaussianRational(1), GaussianRational(0, -1)),)
    assert t.conjugated().conjugated() == t


# -- sparse paths against dense references -----------------------------------
#
# apply, @ and membership iterate the nonzero rows of a matrix.  The
# references below are the dense definitions.  Values and entry types
# (Fraction or GaussianRational) must both agree, because kernel_basis
# and format_scalar branch on the type.

_FLAVOURS = ("rational", "gaussian", "mixed")


def _rand_scalar(rng, flavour, zero_share=0.6):
    """A zero-heavy random scalar.  "gaussian" entries are all
    GaussianRational, zeros included; "mixed" has rational zeros and
    Gaussian nonzeros, as a parsed matrix literal does."""
    if rng.random() < zero_share:
        return GaussianRational(0) if flavour == "gaussian" else Fraction(0)
    if flavour == "rational":
        return rand_fraction(rng, 3)
    return rand_gaussian(rng, 3)


def _rand_sparse_matrix(rng, rows, cols, flavour):
    entries = [[_rand_scalar(rng, flavour) for _ in range(cols)] for _ in range(rows)]
    zero = GaussianRational(0) if flavour == "gaussian" else Fraction(0)
    if rows > 1:
        entries[rng.randrange(rows)] = [zero] * cols
    if cols > 1:
        j = rng.randrange(cols)
        for row in entries:
            row[j] = zero
    return ExactMatrix.from_rows(entries)


def _dense_apply(m, vec):
    """Entry i sums a * vec[j] over the nonzero entries a of row i."""
    out = []
    for i in range(m.rows):
        terms = [a * x for a, x in zip(m.row(i), vec) if a]
        out.append(sum(terms[1:], terms[0]) if terms else Fraction(0))
    return tuple(out)


def _dense_matmul(a, b):
    columns = [_dense_apply(a, b.column(j)) for j in range(b.cols)]
    return tuple(columns[j][i] for i in range(a.rows) for j in range(b.cols))


def _dense_coordinates(space, v):
    """The entries of v at the pivots, when they recombine the basis to v."""
    coords = tuple(Fraction(v[p]) if isinstance(v[p], int) else v[p]
                   for p in space.pivot_cols)
    combo = [Fraction(0)] * space.ambient_dim
    for c, row in zip(coords, space.vectors()):
        combo = [s + c * b for s, b in zip(combo, row)]
    return coords if tuple(combo) == tuple(v) else None


def _assert_same(got, expected):
    assert got == expected
    if expected is not None:
        assert [type(x) for x in got] == [type(x) for x in expected]


@pytest.mark.parametrize("flavour", _FLAVOURS)
def test_apply_and_matmul_match_dense(flavour):
    rng = random.Random(_FLAVOURS.index(flavour))
    for _ in range(60):
        rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
        a = _rand_sparse_matrix(rng, rows, inner, flavour)
        b = _rand_sparse_matrix(rng, inner, cols, rng.choice(_FLAVOURS))
        for vec_flavour in _FLAVOURS:
            vec = tuple(_rand_scalar(rng, vec_flavour) for _ in range(inner))
            _assert_same(a.apply(vec), _dense_apply(a, vec))
        _assert_same((a @ b).entries, _dense_matmul(a, b))
    zeros = zero_matrix(3, 2)
    _assert_same(zeros.apply((GaussianRational(1), 2)), (Fraction(0),) * 3)
    _assert_same((zeros @ identity_matrix(2)).entries, (Fraction(0),) * 6)


@pytest.mark.parametrize("flavour", _FLAVOURS)
def test_coordinates_of_matches_dense(flavour):
    rng = random.Random(10 + _FLAVOURS.index(flavour))
    for _ in range(60):
        ambient = rng.randint(1, 6)
        basis = _rand_sparse_matrix(rng, rng.randint(1, ambient), ambient, flavour)
        space = Subspace.from_vectors(ambient, [basis.row(i) for i in range(basis.rows)])
        for vec_flavour in _FLAVOURS:
            outside = tuple(_rand_scalar(rng, vec_flavour) for _ in range(ambient))
            weights = [_rand_scalar(rng, vec_flavour) for _ in range(space.dim)]
            inside = [_rand_scalar(rng, vec_flavour, zero_share=1.0)] * ambient
            for w, row in zip(weights, space.vectors()):
                inside = [s + w * b for s, b in zip(inside, row)]
            for v in (outside, tuple(inside), (0,) * ambient):
                _assert_same(space.coordinates_of(v), _dense_coordinates(space, v))
    assert Subspace.from_vectors(2, []).coordinates_of((GaussianRational(0), 0)) == ()
    assert Subspace.from_vectors(2, []).coordinates_of((0, 1)) is None


def _dense_span_coords(gens, target):
    """Solve sum x_j gens[j] = target over the rationals, real and imaginary
    parts as separate equations; None when there is no solution."""
    def flat(m):
        return ([e.re if isinstance(e, GaussianRational) else e for e in m.entries]
                + [e.im if isinstance(e, GaussianRational) else Fraction(0)
                   for e in m.entries])

    columns = [flat(g) for g in gens] + [flat(target)]
    red, pivots = rref(ExactMatrix.from_rows([list(r) for r in zip(*columns)]))
    n = len(gens)
    if n in pivots:
        return None
    return tuple(red.entry(i, n) for i in range(n))


@pytest.mark.parametrize("flavour", _FLAVOURS)
def test_span_solver_coords_match_dense(flavour):
    from liecheck.matrix_span import _SpanSolver

    rng = random.Random(20 + _FLAVOURS.index(flavour))
    checked = 0
    while checked < 25:
        size = rng.randint(1, 3)
        gens = [_rand_sparse_matrix(rng, size, size, flavour)
                for _ in range(rng.randint(1, size * size))]
        solver = _SpanSolver(gens)
        if not solver.independent:
            continue
        checked += 1
        for target_flavour in _FLAVOURS:
            weights = [rand_fraction(rng, 3) for _ in gens]
            inside = zero_matrix(size, size)
            for w, g in zip(weights, gens):
                inside = matrix_sum(inside, scaled_matrix(g, w))
            for target in (inside, _rand_sparse_matrix(rng, size, size, target_flavour),
                           zero_matrix(size, size)):
                _assert_same(span_coords(solver, target), _dense_span_coords(gens, target))


@pytest.mark.parametrize("flavour", _FLAVOURS)
@property_test(max_examples=60)
def test_integer_views_match_fraction_reference(flavour, data):
    # span_coords reads gaussian_rows, so the view is checked here against
    # the entries themselves: entry (i, j) is (re + i im) / s, s the lcm.
    m = draw_matrix(data, flavour)
    parts = [(e.re, e.im) if isinstance(e, GaussianRational) else (e, Fraction(0))
             for e in m.entries]
    s, rows = m.gaussian_rows()
    assert s == lcm(*(x.denominator for part in parts for x in part))
    assert all(rows.values())  # only nonzero rows are keyed
    for i in range(m.rows):
        for j in range(m.cols):
            re, im = rows.get(i, {}).get(j, (0, 0))
            assert type(re) is int and type(im) is int
            assert (Fraction(re, s), Fraction(im, s)) == parts[i * m.cols + j]
            assert (j in rows.get(i, {})) == bool(m.entry(i, j))
    if any(im for _, im in parts):
        with pytest.raises(TypeError, match=r"^integer views need real entries$"):
            m.integer_columns
        return
    assert m.integer_columns == (s, tuple(
        tuple((i, m.entry(i, j) * s) for i in range(m.rows) if m.entry(i, j))
        for j in range(m.cols)))


# -- Gaussian-integer elimination against the scalar Gauss-Jordan -----------
#
# rref and kernel_basis eliminate over Gaussian integers with one common
# denominator per row, and type the rows they build by one rule: Gaussian
# when the input has a Gaussian entry.  The references are the
# former implementations: Gauss-Jordan on the scalars themselves, and a
# kernel built from that RREF and row-reduced once more.

def reference_rref(m):
    """Gauss-Jordan elimination in Fraction/GaussianRational arithmetic."""
    work = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for col in range(m.cols):
        pr = None
        for i in range(r, len(work)):
            if work[i][col]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][col]
        if pv != 1:
            work[r] = [scalar_div(e, pv) for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                row_r = work[r]
                work[i] = [a - f * b for a, b in zip(work[i], row_r)]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return ExactMatrix.from_rows(work[:r], cols=m.cols), tuple(pivots)


def reference_kernel_basis(m):
    """The kernel vectors read off the RREF of m, row-reduced again."""
    red, pivots = reference_rref(m)
    one = (GaussianRational(1) if any(isinstance(e, GaussianRational) for e in m.entries)
           else Fraction(1))
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [one - one] * m.cols
        v[f] = one
        for ridx, p in enumerate(pivots):
            v[p] = -red.entry(ridx, f)
        vectors.append(v)
    return reference_rref(ExactMatrix.from_rows(vectors, cols=m.cols))


def _types(m):
    return [type(e) for e in m.entries]


@pytest.mark.parametrize("flavour", _FLAVOURS)
@property_test(max_examples=100)
def test_rref_matches_scalar_reference(flavour, data):
    from liecheck.exact import _eliminate, _integer_rows

    m = draw_matrix(data, flavour)
    red, pivots = rref(m)
    expected, expected_pivots = reference_rref(m)
    assert pivots == expected_pivots
    assert red == expected
    if flavour == "mixed":
        # Every row is typed by whether m has a Gaussian entry.
        gaussian = any(isinstance(e, GaussianRational) for e in m.entries)
        assert set(_types(red)) <= {GaussianRational if gaussian else Fraction}
    else:
        assert _types(red) == _types(expected)
    # Every row the elimination produces has its content divided out.
    rows = _integer_rows(m.nonzero_rows, m.cols)
    _eliminate(rows, m.cols, range(m.cols))
    for re, im, den in rows:
        assert den > 0 and gcd(den, *re, *(im or ())) == 1


@pytest.mark.parametrize("flavour", _FLAVOURS)
@property_test(max_examples=100)
def test_kernel_basis_matches_two_step_reference(flavour, data):
    m = draw_matrix(data, flavour)
    kern = kernel_basis(m)
    expected, expected_pivots = reference_kernel_basis(m)
    assert kern.pivot_cols == expected_pivots
    assert kern.basis == expected
    if flavour == "mixed":
        # The two-step reference types an entry by its path through two
        # eliminations; the kernel is typed by whether m has a Gaussian entry.
        gaussian = any(isinstance(e, GaussianRational) for e in m.entries)
        assert set(_types(kern.basis)) <= {GaussianRational if gaussian else Fraction}
    else:
        assert _types(kern.basis) == _types(expected)


def test_rref_types_follow_the_scalar_operations():
    g1, gi = GaussianRational(1), GaussianRational(0, 1)
    # One Gaussian entry makes every row Gaussian.
    red, _ = rref(ExactMatrix.from_rows([[g1, Fraction(2)], [Fraction(3), Fraction(5)]]))
    assert _types(red) == [GaussianRational] * 4
    red, _ = rref(ExactMatrix.from_rows([[GaussianRational(2), Fraction(2)]]))
    assert _types(red) == [GaussianRational, GaussianRational]
    # So is a row the elimination never changed.
    red, _ = rref(ExactMatrix.from_rows([[Fraction(1), Fraction(0), Fraction(1)],
                                         [gi, Fraction(1), Fraction(0)]]))
    assert red == ExactMatrix.from_rows([[1, 0, 1], [0, 1, -gi]])
    assert _types(red) == [GaussianRational] * 6
    # Without a Gaussian entry every row is rational.
    red, _ = rref(ExactMatrix.from_rows([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]))
    assert _types(red) == [Fraction] * 4


def test_rref_keeps_untouched_rows():
    # A row the elimination only moves keeps its values, typed by the rule.
    m = ExactMatrix.from_rows([[0, 1, 0], [1, 0, 0]])
    red, _ = rref(m)
    assert red.entries == m.row(1) + m.row(0)
    assert _types(red) == [Fraction] * 6
    gi = GaussianRational(0, 1)
    red, _ = rref(ExactMatrix.from_rows([[0, 1, 0], [1, 0, gi]]))
    assert red.entries == (1, 0, gi, 0, 1, 0)
    assert _types(red) == [GaussianRational] * 6
