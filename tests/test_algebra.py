"""Lie algebra construction, brackets, subalgebras and complexification."""

import random
from fractions import Fraction

import pytest

from liecheck import (
    ExactMatrix,
    GaussianRational,
    HomogeneousPair,
    LieAlgebra,
    Subalgebra,
    Subspace,
    from_matrix_generators,
    make_subalgebra,
    operator_ad,
    operator_left_mult,
)
from liecheck.errors import (
    DimensionMismatch,
    InvalidStructureConstants,
    LieCheckError,
    NonRealStructureConstants,
    NotClosed,
    NotClosedUnderBracket,
    NotIndependent,
)

from conftest import (
    CORPUS,
    LOOP_CASES,
    conjugate_vector,
    draw_matrix,
    imag_unit_matrix,
    matrix_sum,
    over_gaussian,
    property_test,
    rand_gaussian_vector,
    rand_vector,
    so3_structure,
    st,
    unit_matrix,
    zero_matrix,
)
from liecheck.specfile import parse


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
    direct = matrix_sum(e12 @ e21, e21 @ e12, -1)
    assert direct == matrix_sum(unit_matrix(2, 0, 0), unit_matrix(2, 1, 1, -1))
    gl2 = from_matrix_generators(
        2,
        [unit_matrix(2, i, j) for i in range(2) for j in range(2)],
        labels=("e11", "e12", "e21", "e22"),
        name="gl2",
    )
    br = gl2.bracket(gl2.basis_vector("e12"), gl2.basis_vector("e21"))
    assert gl2.format_element(br) == "e11 - e22"


def test_ad_matrix_so3(so3):
    ad = operator_ad(so3, so3.basis_vector("k0")).matrix
    assert ad.apply(so3.basis_vector("e1")) == so3.bracket(
        so3.basis_vector("k0"), so3.basis_vector("e1"))
    assert ad.apply(so3.basis_vector("k0")) == so3.zero_vector()


def test_ad_zero_and_self(so3):
    rng = random.Random(5)
    assert operator_ad(so3, so3.zero_vector()).matrix == zero_matrix(3, 3)
    for _ in range(20):
        d = rand_vector(rng, 3)
        assert operator_ad(so3, d).matrix.apply(d) == so3.zero_vector()


def _dense_ad_reference(alg, d) -> tuple:
    """The entries of ad(d), row-major, with column j the dense bracket
    [d, b_j] of d and the basis vector b_j."""
    n = alg.dim
    columns = [alg.bracket(d, tuple(Fraction(int(i == j)) for i in range(n))) for j in range(n)]
    return tuple(columns[j][k] for k in range(n) for j in range(n))


@property_test(max_examples=40)
def test_ad_matrix_matches_dense_bracket_reference(data):
    # d with denominators, sometimes with Q(i) entries, on a conjugated
    # generator family: a rational d gives the reference's entries, types
    # alike; a Q(i) entry raises.
    gens = draw_conjugated_family(data)
    alg = from_matrix_generators(gens[0].rows, gens)
    values = [Fraction(0), Fraction(1), Fraction(-3, 4), Fraction(5, 6), Fraction(7, 2)]
    if data.draw(st.booleans()):
        values += [GaussianRational(Fraction(1, 2), 1), GaussianRational(0, Fraction(-2, 3))]
    d = tuple(data.draw(st.sampled_from(values)) for _ in range(alg.dim))
    if any(isinstance(x, GaussianRational) for x in d):
        with pytest.raises(LieCheckError, match=r"^operator matrices are real; got a Q\(i\) entry$"):
            operator_ad(alg, d)
        return
    got, want = operator_ad(alg, d).matrix.entries, _dense_ad_reference(alg, d)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def _rejection(c, labels=("k0", "e1", "e2")) -> str:
    with pytest.raises(InvalidStructureConstants) as err:
        LieAlgebra.from_structure_tensor("broken", labels, c)
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


@pytest.mark.parametrize("nonzeros, message", [
    ([[(), ((3, 1),)], [(), ()]], "component index 3 out of range in [x,y]"),
    ([[(), ((0, 1), (0, 2))], [(), ()]], "component x of [x,y] repeated"),
    ([[(), ((1, 1), (0, 2))], [(), ()]], "component x of [x,y] out of increasing order"),
    ([[(), ((0, Fraction(0)),)], [(), ()]], "zero structure constant stored for [x,y] component x"),
    ([[(), ((0, 0.5),)], [(), ()]], "structure constants must be rational"),
    ([[(), ((0,),)], [(), ()]], "[x,y] holds (0,), not a (k, value) pair"),
    ([[(), ((0, GaussianRational(1)),)], [(), ()]], "structure constants must be rational"),
    ([[(), ()]], "the nonzero structure constants need 2 rows of 2"),
    ([[(), ()], [()]], "the nonzero structure constants need 2 rows of 2"),
])
def test_construction_rejects_malformed_nonzeros(nonzeros, message):
    with pytest.raises((TypeError, DimensionMismatch, InvalidStructureConstants)) as err:
        LieAlgebra("broken", ("x", "y"), nonzeros)
    assert str(err.value) == message


def test_construction_takes_nonzeros():
    # ints are converted; the view is stored as tuples of Fractions.
    alg = LieAlgebra("nil3", ("x", "y", "z"),
                     [[(), [(2, 1)], ()], [[(2, -1)], (), ()], [(), (), ()]])
    assert alg.nonzeros == (((), ((2, 1),), ()), (((2, -1),), (), ()), ((), (), ()))
    assert type(alg.nonzeros[0][1][0][1]) is Fraction
    assert alg.bracket(alg.basis_vector("x"), alg.basis_vector("y")) == alg.basis_vector("z")
    with pytest.raises(DimensionMismatch, match="not n x n x n"):
        LieAlgebra.from_structure_tensor("broken", ("x", "y"), [[(0, 0), (0,)], [(0, 0)] * 2])


def _so3_matrices():
    return [ExactMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
            ExactMatrix.from_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
            ExactMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, -1, 0]])]


def test_from_matrix_generators_so3(so3):
    alg = from_matrix_generators(3, _so3_matrices(), labels=("k0", "e1", "e2"))
    assert alg.nonzeros == so3.nonzeros
    assert alg.nonzeros[0] == ((), ((2, Fraction(-1)),), ((1, Fraction(1)),))
    assert all(type(x) is Fraction for row in alg.nonzeros for terms in row
               for _, x in terms)
    for i in range(3):
        for j in range(3):
            b_i, b_j = alg.basis_vector(i), alg.basis_vector(j)
            assert alg.bracket(b_i, b_j) == so3.bracket(b_i, b_j)
    ad = operator_ad(alg, alg.basis_vector("k0")).matrix
    assert ad.apply(alg.basis_vector("e1")) == alg.bracket(
        alg.basis_vector("k0"), alg.basis_vector("e1"))


def _real_coordinates(m: ExactMatrix) -> list:
    entries = [e if isinstance(e, GaussianRational) else GaussianRational(e)
               for e in m.entries]
    return [e.re for e in entries] + [e.im for e in entries]


def _solve(columns, targets) -> list:
    """Coordinates of each target in the span of independent columns, by
    Gauss-Jordan in Fractions; asserts that every target lies in the span."""
    n, height = len(columns), len(columns[0])
    rows = [[Fraction(col[r]) for col in columns] + [Fraction(t[r]) for t in targets]
            for r in range(height)]
    for c in range(n):
        p = next(q for q in range(c, height) if rows[q][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for q in range(height):
            if q != c and rows[q][c]:
                f = rows[q][c]
                rows[q] = [x - f * y for x, y in zip(rows[q], rows[c])]
    assert not any(x for row in rows[n:] for x in row)
    return [[rows[k][n + t] for k in range(n)] for t in range(len(targets))]


def _generator_family(name: str, size: int) -> list:
    if name == "so3":
        return _so3_matrices()
    if name in ("gl3", "u4"):
        path = CORPUS / ("gl3_full.lie" if name == "gl3" else "u4_grassmannian.lie")
        return list(parse(path.read_text(encoding="utf-8")).matrix_algebras[name].gen_matrices)
    if name == "diagonal":
        return [unit_matrix(size, i, i) for i in range(size)]
    return [unit_matrix(size, i, j) for i in range(size) for j in range(i, size)]


def draw_conjugator(data, size: int) -> tuple:
    """A random invertible rational ``P = L U`` (unit triangular factors)
    and its inverse, solved in Fractions."""
    m = draw_matrix(data, "rational", size, size)
    lower = ExactMatrix(size, size, [m.entries[r * size + c] if r > c else Fraction(int(r == c))
                                     for r in range(size) for c in range(size)])
    upper = ExactMatrix(size, size, [m.entries[r * size + c] if r < c else Fraction(int(r == c))
                                     for r in range(size) for c in range(size)])
    p = lower @ upper
    units = [[Fraction(int(r == c)) for r in range(size)] for c in range(size)]
    inverse_cols = _solve([[p.entries[r * size + c] for r in range(size)] for c in range(size)],
                          units)
    p_inv = ExactMatrix(size, size, [inverse_cols[c][r] for r in range(size) for c in range(size)])
    return p, p_inv


def draw_conjugated_family(data) -> list:
    """The generators of a :func:`_generator_family` conjugated by a random
    rational P, so that they carry denominators; conjugation keeps the
    structure constants."""
    name = data.draw(st.sampled_from(["so3", "gl3", "u4", "diagonal", "upper"]))
    gens = _generator_family(name, data.draw(st.integers(2, 4)))
    p, p_inv = draw_conjugator(data, gens[0].rows)
    return [p @ g @ p_inv for g in gens]


@property_test(max_examples=25)
def test_from_matrix_generators_matches_dense_reference(data):
    # The reference solves every commutator [g_i, g_j], i and j in any
    # order, for dense coordinates.
    gens = draw_conjugated_family(data)
    size, n = gens[0].rows, len(gens)
    alg = from_matrix_generators(size, gens)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    dense = _solve([_real_coordinates(g) for g in gens],
                   [_real_coordinates(matrix_sum(gens[i] @ gens[j], gens[j] @ gens[i], -1))
                    for i, j in pairs])
    expected = [[None] * n for _ in range(n)]
    for (i, j), coords in zip(pairs, dense):
        expected[i][j] = tuple((k, x) for k, x in enumerate(coords) if x)
    assert alg.nonzeros == tuple(map(tuple, expected))
    assert all(type(x) is Fraction for row in alg.nonzeros for terms in row for _, x in terms)


def _reference_jacobi_failure(c):
    """The first basis triple i < j < k on which the Jacobi identity fails,
    in Fraction arithmetic on the dense tensor, or None."""
    n = len(c)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [Fraction(0)] * n
                for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                    for m in range(n):
                        for t in range(n):
                            total[t] += c[b][d][m] * c[a][m][t]
                if any(total):
                    return i, j, k
    return None


def _semidirect_in_random_basis(data, n: int, value) -> list:
    """The tensor of R x_0 + R^(n-1), with ``[x_0, x_j] = A x_j`` for a random
    rational A, in the basis ``b_i = sum_a P[a][i] x_a`` for a random
    invertible rational P = LU: the Jacobi identity then holds through
    cancellation between terms, not term by term."""
    base = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for j in range(1, n):
        for k in range(1, n):
            if data.draw(st.booleans()):
                base[0][j][k] = data.draw(value)
                base[j][0][k] = -base[0][j][k]
    lower = [[data.draw(value) if a > i else Fraction(int(a == i)) for i in range(n)]
             for a in range(n)]
    upper = [[data.draw(value) if a < i else Fraction(int(a == i)) for i in range(n)]
             for a in range(n)]
    p = [[sum(lower[a][m] * upper[m][i] for m in range(n)) for i in range(n)]
         for a in range(n)]
    targets = []
    for i in range(n):
        for j in range(n):
            v = [Fraction(0)] * n
            for a in range(n):
                for b in range(n):
                    if p[a][i] and p[b][j]:
                        v = [x + p[a][i] * p[b][j] * y for x, y in zip(v, base[a][b])]
            targets.append(v)
    coords = _solve([[p[a][i] for a in range(n)] for i in range(n)], targets)
    return [[coords[i * n + j] for j in range(n)] for i in range(n)]


@property_test(max_examples=150)
def test_integer_jacobi_matches_fraction_reference(data):
    # Graded constants ([b_i, b_j] only in b_k with k > j) often satisfy the
    # Jacobi identity term by term, free ones rarely do, and a semidirect
    # product in a random basis does through cancellation; each may get one
    # bracket perturbed.
    n = data.draw(st.integers(3, 6))
    mode = data.draw(st.sampled_from(["free", "graded", "basis"]))
    density = data.draw(st.integers(1, 4))
    value = st.sampled_from([Fraction(p, q) for p in range(-30, 31) if p
                             for q in range(1, 31)])
    if mode == "basis":
        c = _semidirect_in_random_basis(data, n, value)
    else:
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1 if mode == "graded" else 0, n):
                    if data.draw(st.integers(0, 9)) < density:
                        c[i][j][k] = data.draw(value)
                        c[j][i][k] = -c[i][j][k]
    if data.draw(st.booleans()):
        i, k = data.draw(st.integers(0, n - 2)), data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(i + 1, n - 1))
        c[i][j][k] += data.draw(value)
        c[j][i][k] = -c[i][j][k]
    labels = tuple(f"x{i}" for i in range(n))
    failure = _reference_jacobi_failure(c)
    if failure is None:
        LieAlgebra.from_structure_tensor("random", labels, c)
    else:
        with pytest.raises(InvalidStructureConstants) as err:
            LieAlgebra.from_structure_tensor("random", labels, c)
        assert str(err.value) == "Jacobi identity fails on basis triple ({}, {}, {})".format(
            *(labels[t] for t in failure))


def _borrow_tensor(signs=(1,) * 5, denominator=1):
    """Integer constants on x0..x4, all in {-1, 0, 1}, whose Jacobiator on
    (x0, x1, x2) is (8, -1, 0, 0, 0): with 3 n max|c|^2 = 15 the packing
    width is 4 bits, and 8 = 2^3 is the largest field one bit less could not
    hold, so at width 3 the field 8 borrows the -1 above it and the packed
    sum 8 - 8 reads zero.  Every later triple fails too.  The basis change
    x_a -> signs[a] x_a multiplies component t of the Jacobiator of (a, b, c)
    by signs[a] signs[b] signs[c] signs[t], and dividing every constant by
    ``denominator`` leaves the integer view unchanged."""
    n = 5
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    table = {(0, 1): (1, -1, 0, 1, 1), (1, 2): (1, 1, -1, 1, 1), (0, 2): (-1, 1, -1, -1, -1),
             (0, 3): (1, 0, 0, -1, -1), (1, 3): (1, 0, 0, -1, -1), (2, 3): (1, 0, 0, -1, -1),
             (0, 4): (1, -1, 0, -1, -1)}
    for (i, j), coords in table.items():
        for k, x in enumerate(coords):
            c[i][j][k] = Fraction(signs[i] * signs[j] * signs[k] * x, denominator)
            c[j][i][k] = -c[i][j][k]
    return c


def _jacobiator(c, i, j, k) -> list:
    n = len(c)
    return [sum(c[b][d][m] * c[a][m][t] for a, b, d in ((i, j, k), (j, k, i), (k, i, j))
                for m in range(n)) for t in range(n)]


@pytest.mark.parametrize("signs", [(1, 1, 1, 1, 1), (1, 1, -1, 1, 1), (-1, -1, 1, -1, 1)])
@pytest.mark.parametrize("denominator", [1, 7])
def test_jacobi_packing_width_at_the_bound(signs, denominator):
    # The first failing triple has Jacobiator components +-8 and -+1 in
    # adjacent fields, the most one bit too narrow a packing could cancel.
    c = _borrow_tensor(signs, denominator)
    labels = tuple(f"x{i}" for i in range(5))
    head = _jacobiator([[[x * denominator for x in v] for v in row] for row in c], 0, 1, 2)
    assert head[:2] in ([8, -1], [-8, 1]) and not any(head[2:])
    assert _reference_jacobi_failure(c) == (0, 1, 2)
    assert _rejection(c, labels) == "Jacobi identity fails on basis triple (x0, x1, x2)"


@property_test(max_examples=60)
def test_jacobi_packing_matches_reference_near_the_bound(data):
    # The borrow table under a random sign change of the basis, a random
    # denominator and random constants on the brackets [x3, x4] and
    # [x_a, x4]: verdict and first triple as the Fraction reference.
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=5, max_size=5))
    c = _borrow_tensor(signs, data.draw(st.integers(1, 12)))
    for i, j in data.draw(st.lists(st.sampled_from([(1, 4), (2, 4), (3, 4)]), max_size=3)):
        k = data.draw(st.integers(0, 4))
        c[i][j][k] = data.draw(st.sampled_from([Fraction(-1), Fraction(1), Fraction(1, 2)]))
        c[j][i][k] = -c[i][j][k]
    labels = tuple(f"x{i}" for i in range(5))
    failure = _reference_jacobi_failure(c)
    if failure is None:
        LieAlgebra.from_structure_tensor("random", labels, c)
    else:
        assert _rejection(c, labels) == "Jacobi identity fails on basis triple ({}, {}, {})".format(
            *(labels[t] for t in failure))


def test_jacobi_packing_accepts_algebras_at_the_bound():
    # Valid algebras with negative constants as large as the bound allows:
    # sl2 ([h,e] = 2e, [h,f] = -2f, [e,f] = h) scaled by 5, and so3 scaled
    # by -3/2; a packing that loses the sign of a field rejects them.
    h, e, f = range(3)
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k, x in ((h, e, e, 2), (h, f, f, -2), (e, f, h, 1)):
        c[i][j][k], c[j][i][k] = Fraction(5 * x), Fraction(-5 * x)
    for tensor in (c, [[[Fraction(-3, 2) * x for x in v] for v in row] for row in so3_structure()]):
        assert _reference_jacobi_failure(tensor) is None
        LieAlgebra.from_structure_tensor("valid", ("a", "b", "c"), tensor)


def test_single_generator_abelian():
    alg = from_matrix_generators(2, [unit_matrix(2, 0, 0)])
    assert alg.dim == 1
    assert alg.bracket((Fraction(2),), (Fraction(3),)) == (Fraction(0),)


def test_matrix_generators_come_only_from_their_solver(so3):
    # Generators are attached only with the constants derived from them: the
    # constructor takes neither generators nor a size, and an algebra given
    # by constants has no multiplication operators.
    nonzeros = so3.nonzeros
    with pytest.raises(TypeError):
        LieAlgebra("so3", so3.basis_labels, nonzeros, matrix_size=5)
    with pytest.raises(TypeError):
        LieAlgebra("so3", so3.basis_labels, nonzeros,
                   matrix_generators=tuple(unit_matrix(3, i, i) for i in range(3)))
    assert so3.matrix_generators is None
    with pytest.raises(LieCheckError, match="not built from matrix generators"):
        operator_left_mult(so3, unit_matrix(3, 0, 0))
    gens = [unit_matrix(2, 0, 0), unit_matrix(2, 1, 1)]
    alg = from_matrix_generators(2, gens)
    assert alg.matrix_generators == tuple(gens)
    with pytest.raises(AttributeError):
        alg.matrix_generators = ()


def test_u2_structure_constants_real():
    # Commutator table worked out by hand:
    #   [d1, a12] = s12, [d1, s12] = -a12, [d2, a12] = -s12,
    #   [d2, s12] = a12, [a12, s12] = 2 d1 - 2 d2, [d1, d2] = 0.
    g = [
        imag_unit_matrix(2, 0, 0),
        imag_unit_matrix(2, 1, 1),
        matrix_sum(unit_matrix(2, 0, 1), unit_matrix(2, 1, 0, -1)),
        matrix_sum(imag_unit_matrix(2, 0, 1), imag_unit_matrix(2, 1, 0)),
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


def test_generator_failures_pin_message_and_commutator():
    # The commutator is rebuilt exactly, denominators and Q(i) entries
    # included, from the generators as given.
    with pytest.raises(NotClosed) as err:
        from_matrix_generators(2, [unit_matrix(2, 0, 1, Fraction(2, 3)),
                                   unit_matrix(2, 1, 0, Fraction(-3, 4))],
                               labels=("e12", "f21"))
    assert str(err.value) == "commutator [e12,f21] is outside the generator span"
    assert err.value.labels == ("e12", "f21")
    half = Fraction(1, 2)
    assert err.value.commutator == ExactMatrix.from_rows([[-half, 0], [0, half]])
    assert all(type(e) is Fraction for e in err.value.commutator.entries)
    with pytest.raises(NotClosed) as err:
        from_matrix_generators(2, [imag_unit_matrix(2, 0, 1, Fraction(2, 3)),
                                   unit_matrix(2, 1, 0, Fraction(3, 4))])
    assert str(err.value) == "commutator [g0,g1] is outside the generator span"
    i_half = GaussianRational(0, half)
    assert err.value.commutator == ExactMatrix.from_rows([[i_half, 0], [0, -i_half]])
    with pytest.raises(NonRealStructureConstants) as err:
        from_matrix_generators(2, [imag_unit_matrix(2, 0, 0, 3), unit_matrix(2, 0, 1)],
                               labels=("d", "e12"))
    assert str(err.value) == ("commutator [d,e12] needs non-real coefficients; "
                              "the generators do not span a real Lie algebra")
    assert err.value.labels == ("d", "e12")


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
    # The span must be real, also when it is not closed.
    i, one = GaussianRational(0, 1), GaussianRational(1)
    for vectors in ([(0, 1, i)], [(0, 1, i), (1, 0, 0)]):
        with pytest.raises(TypeError, match=r"^integer views need real entries$"):
            make_subalgebra(so3, vectors)
    # A real span given with GaussianRational entries is certified as before,
    # and its witness is typed as the bracket types it.
    assert make_subalgebra(so3, [(one, 0, 0)]).space == Subspace.from_vectors(3, [(one, 0, 0)])
    with pytest.raises(NotClosedUnderBracket) as err:
        make_subalgebra(so3, [(0, one, 0), (0, 0, one)])
    expected = so3.bracket(err.value.x, err.value.y)
    assert err.value.value == expected == (-1, 0, 0)
    assert [type(x) for x in err.value.value] == [type(x) for x in expected]
    assert type(expected[0]) is GaussianRational


def test_subalgebra_certifies_its_span(so3):
    # The constructor runs the checks of make_subalgebra, so no pair is built
    # on a span that is not a real subalgebra.
    e1, e2 = so3.basis_vector("e1"), so3.basis_vector("e2")
    with pytest.raises(NotClosedUnderBracket) as named:
        make_subalgebra(so3, [e1, e2])
    with pytest.raises(NotClosedUnderBracket) as err:
        HomogeneousPair(so3, Subalgebra(so3, Subspace.from_vectors(3, [e1, e2])))
    assert (err.value.x, err.value.y, err.value.value) == (
        named.value.x, named.value.y, named.value.value)
    assert str(err.value) == str(named.value)
    # A non-real span is an input error of the library, and still a TypeError.
    i = GaussianRational(0, 1)
    for build in (lambda: make_subalgebra(so3, [(0, 1, i)]),
                  lambda: Subalgebra(so3, Subspace.from_vectors(3, [(0, 1, i)]))):
        with pytest.raises(LieCheckError, match=r"^integer views need real entries$") as err:
            build()
        assert isinstance(err.value, TypeError)



@pytest.mark.parametrize("ambient", [2, 4])
def test_subalgebra_checks_its_ambient_dimension(so3, ambient):
    # A span of another ambient dimension is rejected before the closure
    # test: a shorter one would read as a subalgebra of so3's first
    # coordinates, a longer one index past its structure constants.
    space = Subspace.from_vectors(ambient, [(1,) + (0,) * (ambient - 1)])
    with pytest.raises(DimensionMismatch, match="^span lives in the wrong ambient space$"):
        Subalgebra(so3, space)

def _reference_closure_failure(alg, space):
    """The first echelon pair whose bracket, in Fractions, leaves the span."""
    rows = space.vectors()
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            value = alg.bracket(rows[a], rows[b])
            if value not in space:
                return rows[a], rows[b], value
    return None


@pytest.mark.parametrize("case", LOOP_CASES)
@property_test(max_examples=25)
def test_make_subalgebra_matches_fraction_reference(loop_cases, case, data):
    # Spans of k (closed), of k and a few random vectors, and of random
    # vectors alone (mostly not closed once there are two).
    pair = loop_cases[case][0]
    alg, n = pair.alg, pair.alg.dim
    vectors = list(pair.k.space.vectors()) if data.draw(st.booleans()) else []
    extra = draw_matrix(data, "rational", data.draw(st.integers(0 if vectors else 1, 3)), n)
    vectors += [extra.row(i) for i in range(extra.rows)]
    space = Subspace.from_vectors(n, vectors)
    expected = _reference_closure_failure(alg, space)
    if expected is None:
        assert make_subalgebra(alg, vectors).space == space
        return
    with pytest.raises(NotClosedUnderBracket) as err:
        make_subalgebra(alg, vectors)
    assert (err.value.x, err.value.y, err.value.value) == expected
    assert [type(x) for x in err.value.value] == [type(x) for x in expected[2]]


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
    kc = over_gaussian(so3_pair.k.space)
    assert kc.dim == 1
    assert (GaussianRational(2, 3), GaussianRational(0), GaussianRational(0)) in kc
