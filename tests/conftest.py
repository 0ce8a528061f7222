import random
from fractions import Fraction
from pathlib import Path

import pytest

from liecheck import (
    ExactMatrix,
    GaussianRational,
    HomogeneousPair,
    LieAlgebra,
    LinearOperator,
    Subspace,
    from_matrix_generators,
    make_subalgebra,
    operator_ad,
    operator_from_rules,
)
from liecheck.exact import rref
from liecheck.matrix_span import _gaussian_rows
from liecheck.complexstruct import _squares_to_minus_one
from liecheck.errors import DimensionMismatch, LieCheckError, MissingComplement
from liecheck.operators import _require_admissible, _split_verdict, check_admissible
from liecheck.specfile import build, parse
from liecheck.torsion import torsion_form

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests are skipped without hypothesis
    given = st = None
else:
    # tests/mutants.py runs its tests under this profile: the same draws on
    # every run and no example database, so that a kill never rests on luck.
    settings.register_profile("mutants", derandomize=True, database=None)

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "corpus"
FIXTURES = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def unit_matrix(n, i, j, scale=1):
    return ExactMatrix(
        n, n,
        [Fraction(scale) if (r, c) == (i, j) else Fraction(0)
         for r in range(n) for c in range(n)],
    )


def imag_unit_matrix(n, i, j, scale=1):
    return ExactMatrix(
        n, n,
        [GaussianRational(0, scale) if (r, c) == (i, j) else GaussianRational(0)
         for r in range(n) for c in range(n)],
    )


# ---------------------------------------------------------------------------
# matrix, operator and scalar helpers that the package does not ship
# ---------------------------------------------------------------------------

def identity_matrix(n):
    return ExactMatrix(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])


def zero_matrix(rows, cols):
    return ExactMatrix(rows, cols, [Fraction(0)] * (rows * cols))


def matrix_sum(a, b, sign=1):
    """``a + sign * b`` for matrices of one shape."""
    assert (a.rows, a.cols) == (b.rows, b.cols)
    return ExactMatrix(a.rows, a.cols, [x + sign * y for x, y in zip(a.entries, b.entries)])


def scaled_matrix(m, s):
    return ExactMatrix(m.rows, m.cols, [s * x for x in m.entries])


def matrix_of_element(alg, v):
    """The matrix ``sum_j v_j g_j`` over the generators of a matrix algebra."""
    size = alg.matrix_generators[0].rows
    acc = zero_matrix(size, size)
    for coeff, gen in zip(v, alg.matrix_generators):
        if coeff:
            acc = matrix_sum(acc, scaled_matrix(gen, coeff))
    return acc


def span_coords(solver, target):
    """Rational coordinates of ``target`` in the real span of a
    :class:`~liecheck.matrix_span._SpanSolver`, or None outside it."""
    scale, rows = _gaussian_rows(target)
    terms = solver.solve(rows, scale)
    return None if terms is None else tuple(dict(terms).get(k, Fraction(0))
                                            for k in range(solver.n))


def scalar_div(a, b):
    """``a / b`` in Q or Q(i); a GaussianRational when either one is."""
    if isinstance(b, GaussianRational):
        d = b.re * b.re + b.im * b.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return a * GaussianRational(b.re / d, -b.im / d)
    return a * (1 / Fraction(b))


def conjugate_vector(v):
    """The entrywise complex conjugate of a Q(i) vector."""
    return tuple(x.conjugate() if isinstance(x, GaussianRational) else x for x in v)


def over_gaussian(space):
    """The same subspace with every basis entry a GaussianRational."""
    entries = [e if isinstance(e, GaussianRational) else GaussianRational(e)
               for e in space.basis.entries]
    return Subspace(ExactMatrix(space.basis.rows, space.ambient_dim, entries))


def random_point(model, rng):
    """One ``(group element, point)`` sample of a harness model, drawn as the
    harness draws its points, from a ``random.Random`` seeded by the numpy
    generator ``rng``."""
    from liecheck.harness import _draw

    _, g, p = _draw(model, random.Random(int(rng.integers(1 << 32))), 1, (None,))
    return g[0], p[0]


def identity_operator(alg):
    return LinearOperator(alg, identity_matrix(alg.dim))


def zero_operator(alg):
    return LinearOperator(alg, zero_matrix(alg.dim, alg.dim))


def scaled_operator(op, s):
    return LinearOperator(op.alg, scaled_matrix(op.matrix, s))


def _same_algebra(a, b):
    if a.alg is not b.alg:
        raise DimensionMismatch("operators act on different algebras")


def operator_sum(a, b):
    _same_algebra(a, b)
    return LinearOperator(a.alg, matrix_sum(a.matrix, b.matrix))


def compose(a, b):
    """The operator ``a`` after ``b``."""
    _same_algebra(a, b)
    return LinearOperator(a.alg, a.matrix @ b.matrix)


def full_subspace(n):
    return Subspace.from_vectors(n, [identity_matrix(n).row(i) for i in range(n)])


def contains_subspace(space, other):
    return all(v in space for v in other.vectors())


# The predicates below run the package's own clauses; the command line
# reaches them only through ``check``, ``torsion`` and ``integrability``.

def ac_admissible(pair, op):
    """Whether J^2 + 1 maps g into k, for an admissible J (raises
    NotAdmissible otherwise)."""
    _require_admissible(pair, op)
    return _squares_to_minus_one(pair, op)


def split_admissible(pair, op):
    """The split verdict: k inside the kernel, the complement invariant, and
    admissibility."""
    if pair.m is None:
        raise MissingComplement("split admissibility needs a declared complement")
    return _split_verdict(pair, op, check_admissible(pair, op))


def oneof_property(pair, op, z, w):
    """Whether beta(z, w) lies in k, for z in k; it always does for an
    admissible operator."""
    if z not in pair.k.space:
        raise LieCheckError("first argument must lie in the subalgebra")
    return torsion_form(pair.alg, op, z, w) in pair.k.space


def so3_structure():
    z = (Fraction(0),) * 3
    return [
        [z, (0, 0, -1), (0, 1, 0)],
        [(0, 0, 1), z, (-1, 0, 0)],
        [(0, -1, 0), (1, 0, 0), z],
    ]


@pytest.fixture(scope="session")
def so3():
    return LieAlgebra.from_structure_tensor("so3", ("k0", "e1", "e2"), so3_structure())


@pytest.fixture(scope="session")
def so3_pair(so3):
    k = make_subalgebra(so3, [so3.basis_vector("k0")])
    m = Subspace.from_vectors(3, [so3.basis_vector("e1"), so3.basis_vector("e2")])
    return HomogeneousPair(so3, k, m=m)


@pytest.fixture(scope="session")
def so3_pair_plain(so3):
    k = make_subalgebra(so3, [so3.basis_vector("k0")])
    return HomogeneousPair(so3, k)


def sphere_family(so3, alpha, beta, gamma):
    """The diagonal operator family on the sphere pair."""
    return operator_from_rules(so3, {
        "k0": (Fraction(alpha), 0, 0),
        "e1": (0, 0, Fraction(beta)),
        "e2": (0, Fraction(gamma), 0),
    })


@pytest.fixture(scope="session")
def gl3():
    gens = [unit_matrix(3, i, j) for i in range(3) for j in range(3)]
    labels = tuple(f"e{i+1}{j+1}" for i in range(3) for j in range(3))
    return from_matrix_generators(3, gens, labels=labels, name="gl3")


@pytest.fixture(scope="session")
def gl3_pair(gl3):
    triv = make_subalgebra(gl3, [gl3.zero_vector()])
    return HomogeneousPair(gl3, triv)


def u_algebra(n):
    """u(n) on the basis d_j (i E_jj), a_jk (E_jk - E_kj) and s_jk (i (E_jk + E_kj))."""
    gens, labels = [], []
    for j in range(n):
        gens.append(imag_unit_matrix(n, j, j))
        labels.append(f"d{j+1}")
    for j in range(n):
        for k in range(j + 1, n):
            gens.append(matrix_sum(unit_matrix(n, j, k), unit_matrix(n, k, j, -1)))
            labels.append(f"a{j+1}{k+1}")
            gens.append(matrix_sum(imag_unit_matrix(n, j, k), imag_unit_matrix(n, k, j)))
            labels.append(f"s{j+1}{k+1}")
    return from_matrix_generators(n, gens, labels=tuple(labels), name=f"u{n}")


@pytest.fixture(scope="session")
def u4():
    return u_algebra(4)


@pytest.fixture(scope="session")
def u4_pair(u4):
    k_labels = ("d1", "d2", "d3", "d4", "a12", "s12", "a34", "s34")
    m_labels = ("a13", "s13", "a14", "s14", "a23", "s23", "a24", "s24")
    k = make_subalgebra(u4, [u4.basis_vector(l) for l in k_labels])
    m = Subspace.from_vectors(16, [u4.basis_vector(l) for l in m_labels])
    return HomogeneousPair(u4, k, m=m)


def grassmann_center_vector(u4):
    """(i/2)(P+ - P-) in u4 coordinates: half the block-projection difference."""
    d = [Fraction(0)] * u4.dim
    d[u4.index_of("d1")] = Fraction(1, 2)
    d[u4.index_of("d2")] = Fraction(1, 2)
    d[u4.index_of("d3")] = Fraction(-1, 2)
    d[u4.index_of("d4")] = Fraction(-1, 2)
    return tuple(d)


@pytest.fixture(scope="session")
def sl2():
    h = matrix_sum(unit_matrix(2, 0, 0), unit_matrix(2, 1, 1, -1))
    e = unit_matrix(2, 0, 1)
    f = unit_matrix(2, 1, 0)
    return from_matrix_generators(2, [h, e, f], labels=("h", "e", "f"), name="sl2")


def rand_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_vector(rng: random.Random, n: int, span: int = 6) -> tuple:
    return tuple(rand_fraction(rng, span) for _ in range(n))


def rand_gaussian(rng: random.Random, span: int = 6) -> GaussianRational:
    return GaussianRational(rand_fraction(rng, span), rand_fraction(rng, span))


def rand_gaussian_vector(rng: random.Random, n: int, span: int = 6) -> tuple:
    return tuple(rand_gaussian(rng, span) for _ in range(n))


# ---------------------------------------------------------------------------
# random operators on fixture pairs, for tests against Fraction references
# ---------------------------------------------------------------------------

def property_test(max_examples):
    """``@given(data=st.data())`` with these settings, or a skip mark when
    hypothesis is not installed."""
    def wrap(test):
        if given is None:
            return pytest.mark.skip(reason="hypothesis is not installed")(test)
        return settings(max_examples=max_examples, deadline=None)(
            given(data=st.data())(test))
    return wrap


def _built(path):
    return build(parse(path.read_text(encoding="utf-8")))


def conjugate_algebra(alg, p, p_inv):
    """The algebra in the basis of the columns of ``p`` (``p_inv`` its
    inverse): brackets ``P^-1 [P v, P w]``."""
    n = alg.dim
    brackets = [[alg.zero_vector()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = p_inv.apply(alg.bracket(p.column(i), p.column(j)))
            brackets[i][j], brackets[j][i] = c, tuple(-x for x in c)
    return LieAlgebra.from_structure_tensor("moved", alg.basis_labels, brackets)


def conjugate_pair(pair, p, p_inv):
    """The pair in the basis of the columns of ``p``: the algebra of
    :func:`conjugate_algebra`, and k, m and the reps moved by ``P^-1``."""
    moved, n = conjugate_algebra(pair.alg, p, p_inv), pair.alg.dim

    def back(space):
        return [p_inv.apply(v) for v in space.vectors()]

    k = make_subalgebra(moved, back(pair.k.space))
    m = None if pair.m is None else Subspace.from_vectors(n, back(pair.m))
    reps = [p_inv @ rep @ p for rep in pair.component_reps]
    return HomogeneousPair(moved, k, m=m, connected=pair.connected, component_reps=reps)


def conjugate_operator(moved_pair, op, p, p_inv):
    """The operator ``P^-1 I P`` on a pair made by :func:`conjugate_pair`."""
    return LinearOperator(moved_pair.alg, p_inv @ op.matrix @ p)


def projection_onto_m(pair) -> ExactMatrix:
    """The projection onto the complement along k: ``B D B^-1`` with the
    basis of k, then of m, as the columns of B and D = diag(0, ..., 1, ...).
    ``X P`` kills k for any X, and ``P X P`` also keeps m."""
    n, basis = pair.alg.dim, pair.k.space.vectors() + pair.m.vectors()
    # [B | 1] reduces to [1 | B^-1].
    reduced, _ = rref(ExactMatrix.from_rows(
        [[v[i] for v in basis] + list(identity_matrix(n).row(i)) for i in range(n)]))
    inverse = [reduced.row(i)[n:] for i in range(n)]
    return ExactMatrix(n, n, [sum((basis[c][i] * inverse[c][j] for c in range(pair.k.dim, n)),
                                  Fraction(0)) for i in range(n) for j in range(n)])


def _fractions(rows):
    return ExactMatrix.from_rows([[Fraction(x) for x in row] for row in rows])


#: Fixed rational changes of basis, with their inverses, of dimension 3 and
#: 4.  Conjugated by them, the integer-valued fixtures get denominators in
#: their structure constants, their k and m bases and their reps.
MOVE_3 = (_fractions([[1, "1/2", 0], [0, 1, "1/3"], ["1/2", 0, 1]]),
          _fractions([["12/13", "-6/13", "2/13"], ["2/13", "12/13", "-4/13"],
                      ["-6/13", "3/13", "12/13"]]))
MOVE_4 = (_fractions([[1, "1/2", 0, 0], [0, 1, "1/3", 0], [0, 0, 1, "-1/2"], ["1/3", 0, 0, 1]]),
          _fractions([["36/37", "-18/37", "6/37", "3/37"], ["2/37", "36/37", "-12/37", "-6/37"],
                      ["-6/37", "3/37", "36/37", "18/37"], ["-12/37", "6/37", "-2/37", "36/37"]]))


@pytest.fixture(scope="session")
def loop_cases():
    """name -> (pair, operator seeds, ad seeds).  Combinations of the
    operator seeds, and ``ad`` of combinations of the ad seeds, are mostly
    admissible for the pair; so is any operator with values in k."""
    fam = _built(CORPUS / "so3_family.lie")
    so3, k = fam.algebras["so3"], fam.subalgebras["k"]
    so3_ops = [fam.operators[name] for name in ("rot", "fam_unit", "fam_beta2")]
    so3_ad = [so3.basis_vector("k0")]
    # A complement whose echelon basis has denominators.
    skew = Subspace.from_vectors(3, [(Fraction(1, 2), 1, 0), (Fraction(-1, 3), 0, 1)])
    flip = _built(FIXTURES / "so3_flip_reps.lie")
    gl3 = _built(CORPUS / "gl3_full.lie")
    u4 = _built(CORPUS / "u4_grassmannian.lie")
    u4_alg = u4.algebras["u4"]
    nil4 = _built(CORPUS / "nil4.lie")

    def basis(alg):
        return [alg.basis_vector(j) for j in range(alg.dim)]

    # The diagonal of gl3, and a complement of it whose echelon basis has
    # denominators.
    gl3_alg = gl3.algebras["gl3"]
    diagonal = [gl3_alg.basis_vector(label) for label in ("e11", "e22", "e33")]

    def plus(x, c, y):  # e_x + c e_y
        return tuple(a + c * b for a, b in zip(gl3_alg.basis_vector(x), gl3_alg.basis_vector(y)))

    gl3_skew = Subspace.from_vectors(9, [
        plus("e12", Fraction(1, 2), "e11"), plus("e13", Fraction(-1, 3), "e22"),
        plus("e21", Fraction(1, 2), "e33"), plus("e23", 0, "e11"), plus("e31", 0, "e11"),
        plus("e32", Fraction(2, 3), "e11")])
    diag_skew = HomogeneousPair(gl3_alg, make_subalgebra(gl3_alg, diagonal), m=gl3_skew)

    def moved(pair, ops, ad, move=MOVE_3):
        # The pair, the identity and ops conjugated by P; ad(d) becomes
        # ad(P^-1 d).
        p, p_inv = move
        assert p @ p_inv == identity_matrix(p.rows)
        pair = conjugate_pair(pair, p, p_inv)
        return (pair, [identity_operator(pair.alg)]
                + [conjugate_operator(pair, op, p, p_inv) for op in ops],
                [p_inv.apply(d) for d in ad])

    return {
        "so3_split": (fam.pairs["sphere_split"], [identity_operator(so3)] + so3_ops, so3_ad),
        "so3_plain": (HomogeneousPair(so3, k), [identity_operator(so3)] + so3_ops, so3_ad),
        "so3_skew": (HomogeneousPair(so3, k, m=skew), [identity_operator(so3)] + so3_ops, so3_ad),
        "so3_reps": (flip.pairs["flip"], [identity_operator(flip.algebras["so3"]), flip.operators["I"]],
                     [flip.algebras["so3"].basis_vector("k0")]),
        "gl3_modsl3": (gl3.pairs["modsl3"], [identity_operator(gl3.algebras["gl3"]),
                                             gl3.operators["trpart"]],
                       basis(gl3.algebras["gl3"])),
        "gl3_full": (gl3.pairs["full"], [identity_operator(gl3.algebras["gl3"]),
                                         gl3.operators["smix"], gl3.operators["lmul"]],
                     basis(gl3.algebras["gl3"])),
        "u4_grass": (u4.pairs["grass"], [identity_operator(u4_alg), u4.operators["jgr"]],
                     [grassmann_center_vector(u4_alg),
                      u4_alg.basis_vector("d1"), u4_alg.basis_vector("d3")]),
        "nil4": (nil4.pairs["nilgroup"], [nil4.operators["jplane"], nil4.operators["jtwist"]],
                 basis(nil4.algebras["nil4"])),
        # Structure constants, k, m and the rep with denominators, so that
        # every scale of the integer pair loops differs from 1.  fam_bad
        # preserves k but fails commutes_with_ad_k; jtwist has torsion.
        "so3_moved": moved(fam.pairs["sphere_split"], so3_ops, so3_ad),
        "so3_plain_moved": moved(HomogeneousPair(so3, k), [fam.operators["fam_bad"]], so3_ad),
        "so3_reps_moved": moved(flip.pairs["flip"], [flip.operators["I"]], so3_ad),
        "nil4_moved": moved(nil4.pairs["nilgroup"], [nil4.operators["jplane"],
                                                      nil4.operators["jtwist"]],
                            basis(nil4.algebras["nil4"]), MOVE_4),
        # For the complement pairs only: the diagonal of gl3 with a
        # complement whose echelon basis has denominators; ad(D) of a
        # diagonal D is admissible and mostly has torsion outside k.
        "gl3_diag_skew": (diag_skew, [identity_operator(gl3_alg)]
                          + [operator_ad(gl3_alg, d) for d in diagonal[:2]], diagonal),
    }


LOOP_CASES = ("so3_split", "so3_plain", "so3_skew", "so3_reps", "gl3_modsl3",
              "gl3_full", "u4_grass", "nil4", "so3_moved", "so3_plain_moved", "so3_reps_moved",
              "nil4_moved")


def _rationals(sparse: bool):
    """Rationals with denominators up to 6; two of three are 0 if sparse."""
    value = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    if not sparse:
        return value
    return st.tuples(st.integers(0, 2), value).map(
        lambda t: t[1] if t[0] == 0 else Fraction(0))


def draw_operator(data, pair, seeds) -> LinearOperator:
    """A random combination of the seeds; with probability 1/2 plus a random
    operator with values in k, with probability 1/3 plus a random sparse
    operator (which is rarely admissible)."""
    alg, n = pair.alg, pair.alg.dim
    entries = [Fraction(0)] * (n * n)
    for seed, c in zip(seeds, data.draw(st.lists(_rationals(False), min_size=len(seeds),
                                                  max_size=len(seeds)))):
        entries = [x + c * y for x, y in zip(entries, seed.matrix.entries)]
    k_basis = pair.k.space.vectors()
    if k_basis and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(_rationals(True), min_size=n * len(k_basis),
                                    max_size=n * len(k_basis)))
        for j in range(n):
            for r, z in enumerate(k_basis):
                c = coeffs[j * len(k_basis) + r]
                for i in range(n):
                    entries[i * n + j] += c * z[i]
    if data.draw(st.integers(0, 2)) == 0:
        noise = data.draw(st.lists(_rationals(True), min_size=n * n, max_size=n * n))
        entries = [x + y for x, y in zip(entries, noise)]
    return LinearOperator(alg, ExactMatrix(n, n, entries))


def draw_ad_vector(data, pair, seeds) -> tuple:
    """A random combination of the ad seeds; with probability 1/3 plus a
    random sparse vector."""
    n = pair.alg.dim
    d = [Fraction(0)] * n
    for seed, c in zip(seeds, data.draw(st.lists(_rationals(False), min_size=len(seeds),
                                                  max_size=len(seeds)))):
        d = [x + c * y for x, y in zip(d, seed)]
    if data.draw(st.integers(0, 2)) == 0:
        noise = data.draw(st.lists(_rationals(True), min_size=n, max_size=n))
        d = [x + y for x, y in zip(d, noise)]
    return tuple(d)


#: Zero-heavy rationals with denominators up to 30, many of them 1 or -1;
#: the simplest first, which is where hypothesis shrinks to.
_POOL = ([Fraction(0)] * 400 + [Fraction(1), Fraction(-1)] * 100 + sorted(
    {Fraction(p, q) for p in range(-30, 31) for q in range(1, 31)},
    key=lambda x: (abs(x.numerator) + x.denominator, x)))


def _scalars(flavour: str):
    """Scalars from :data:`_POOL`: "rational" ones are Fractions, "gaussian"
    ones GaussianRationals (many of them real), "mixed" ones either."""
    rational = st.sampled_from(_POOL)
    gaussian = st.tuples(rational, rational).map(lambda t: GaussianRational(*t))
    return {"rational": rational, "gaussian": gaussian,
            "mixed": st.one_of(rational, gaussian)}[flavour]


def draw_matrix(data, flavour: str, rows=None, cols=None) -> ExactMatrix:
    """A random matrix of :func:`_scalars`, by default 0..10 x 1..12."""
    rows = data.draw(st.integers(0, 10)) if rows is None else rows
    cols = data.draw(st.integers(1, 12)) if cols is None else cols
    entries = data.draw(st.lists(_scalars(flavour), min_size=rows * cols,
                                 max_size=rows * cols))
    return ExactMatrix(rows, cols, entries)
