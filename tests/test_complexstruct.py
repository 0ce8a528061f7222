"""Almost complex admissibility, the Z subspaces, and integrability."""

import random
from fractions import Fraction

import pytest

from liecheck import (
    ExactMatrix,
    GaussianRational,
    HomogeneousPair,
    LieAlgebra,
    LinearOperator,
    Subspace,
    TorsionReport,
    check_integrable,
    compute_z_spaces,
    kernel_basis,
    make_subalgebra,
    operator_ad,
    operator_from_rules,
    operator_left_mult,
    split_diagnostics,
    subspace_intersection,
    subspace_sum,
)
from liecheck import complexstruct, exact
from liecheck.complexstruct import SplitDiagnostics
from liecheck.exact import rref
from liecheck.specfile import build, parse
from liecheck.errors import (
    InternalInconsistency,
    MissingComplement,
    NotACAdmissible,
    NotAdmissible,
    NotSplitACAdmissible,
)

from conftest import (
    CORPUS,
    LOOP_CASES,
    MOVE_4,
    ac_admissible,
    conjugate_algebra,
    contains_subspace,
    draw_matrix,
    draw_operator,
    full_subspace,
    grassmann_center_vector,
    identity_operator,
    imag_unit_matrix,
    matrix_sum,
    over_gaussian,
    projection_onto_m,
    property_test,
    rand_fraction,
    scaled_matrix,
    scaled_operator,
    sphere_family,
    st,
    unit_matrix,
    zero_operator,
)
from test_algebra import draw_conjugator
from test_operators import SPLIT_CASES

I = GaussianRational(0, 1)


def _nil4_pair():
    z = (Fraction(0),) * 4
    structure = [[z] * 4 for _ in range(4)]
    structure[0][1] = (0, 0, 1, 0)
    structure[1][0] = (0, 0, -1, 0)
    alg = LieAlgebra.from_structure_tensor("nil4", ("x", "y", "z", "w"), structure)
    triv = make_subalgebra(alg, [alg.zero_vector()])
    whole = full_subspace(4)
    return alg, HomogeneousPair(alg, triv, m=whole)


def test_ac_admissible_rotation(so3, so3_pair):
    assert ac_admissible(so3_pair, operator_ad(so3, so3.basis_vector("k0")))


def test_ac_admissible_family_iff_unit_beta(so3, so3_pair):
    for alpha in (-1, 0, 1):
        for beta in (-2, -1, 0, 1, 2):
            op = sphere_family(so3, alpha, beta, -beta)
            assert ac_admissible(so3_pair, op) == (beta in (-1, 1)), \
                (alpha, beta)


def test_ac_admissible_identity_fails(so3_pair):
    assert not ac_admissible(so3_pair, identity_operator(so3_pair.alg))


def test_ac_admissible_identity_when_k_is_everything(so3):
    k = make_subalgebra(so3, [so3.basis_vector(i) for i in range(3)])
    pair = HomogeneousPair(so3, k)
    assert ac_admissible(pair, identity_operator(so3))


def test_ac_requires_admissible(so3, so3_pair):
    with pytest.raises(NotAdmissible):
        ac_admissible(so3_pair, sphere_family(so3, 0, 1, 1))


def test_z_spaces_rotation(so3, so3_pair):
    op = operator_ad(so3, so3.basis_vector("k0"))
    z_plus, z_minus = compute_z_spaces(so3_pair, op)
    # solved by hand over Q(i): v2 = i v1, v0 free
    expected_plus = Subspace.from_vectors(3, [
        (GaussianRational(1), GaussianRational(0), GaussianRational(0)),
        (GaussianRational(0), GaussianRational(1), I),
    ])
    assert z_plus == expected_plus
    assert z_plus.conjugated() == z_minus
    assert z_plus.dim == 2 and z_minus.dim == 2


def test_z_space_trivial_cases(so3):
    # J = 0 with k = 0: Z+ is the kernel of -i Id, which is trivial.
    triv = make_subalgebra(so3, [so3.zero_vector()])
    pair0 = HomogeneousPair(so3, triv)
    z_plus, z_minus = compute_z_spaces(pair0, zero_operator(so3))
    assert z_plus.dim == 0 and z_minus.dim == 0
    # k = g: everything lands in k_C whatever J does.
    k_all = make_subalgebra(so3, [so3.basis_vector(i) for i in range(3)])
    pair1 = HomogeneousPair(so3, k_all)
    z_plus, z_minus = compute_z_spaces(pair1, identity_operator(so3))
    assert z_plus.dim == 3 and z_minus.dim == 3


def test_kc_inside_z_plus_and_conjugation(so3, so3_pair, u4, u4_pair):
    cases = [
        (so3_pair, operator_ad(so3, so3.basis_vector("k0"))),
        (so3_pair, sphere_family(so3, 1, 1, -1)),
        (so3_pair, sphere_family(so3, -1, 2, -2)),
        (u4_pair, operator_ad(u4, grassmann_center_vector(u4))),
    ]
    for pair, op in cases:
        z_plus, z_minus = compute_z_spaces(pair, op)
        kc = over_gaussian(pair.k.space)
        assert contains_subspace(z_plus, kc)
        assert z_plus.conjugated() == z_minus
        assert z_minus.conjugated() == z_plus


def test_integrable_rotation(so3, so3_pair):
    report = check_integrable(so3_pair, operator_ad(so3, so3.basis_vector("k0")))
    assert report.integrable and report.z_plus_closed and report.nijenhuis_verdict
    assert report.z_plus.dim == 2
    # the quotient representative is e1 + i e2
    assert report.z_plus_mod_k == (
        (GaussianRational(0), GaussianRational(1), I),
    )
    assert report.split is not None and report.split == SplitDiagnostics(True, True, True)


def test_family_unit_beta_integrable_and_conjugate(so3, so3_pair):
    rep_minus = check_integrable(so3_pair, sphere_family(so3, 0, -1, 1))
    rep_plus = check_integrable(so3_pair, sphere_family(so3, 1, 1, -1))
    assert rep_minus.integrable and rep_plus.integrable
    # beta = -1 matches the rotation structure; beta = +1 is its conjugate
    ad_rep = check_integrable(so3_pair, operator_ad(so3, so3.basis_vector("k0")))
    assert rep_minus.z_plus == ad_rep.z_plus
    assert rep_plus.z_plus == ad_rep.z_plus.conjugated()


def test_not_ac_admissible_raises(so3, so3_pair):
    with pytest.raises(NotACAdmissible):
        check_integrable(so3_pair, sphere_family(so3, 0, 2, -2))


def test_grassmann_integrable(u4, u4_pair):
    op = operator_ad(u4, grassmann_center_vector(u4))
    report = check_integrable(u4_pair, op)
    assert report.integrable
    assert report.z_plus.dim == 12
    # Z+ = k_C + the upper-right single-entry block: a13-like combinations
    # (a - i s)/2 reduce to plain matrix units E_jk.
    expected = list(over_gaussian(u4_pair.k.space).vectors())
    for j in (1, 2):
        for k in (3, 4):
            vec = [GaussianRational(0)] * 16
            vec[u4.index_of(f"a{j}{k}")] = GaussianRational(Fraction(1, 2))
            vec[u4.index_of(f"s{j}{k}")] = GaussianRational(0, Fraction(-1, 2))
            expected.append(tuple(vec))
    assert report.z_plus == over_gaussian(Subspace.from_vectors(16, expected))
    assert report.split is not None and report.split == SplitDiagnostics(True, True, True)


def test_nilpotent_twisted_structure_not_integrable():
    alg, pair = _nil4_pair()
    jtwist = operator_from_rules(alg, {
        "x": alg.basis_vector("z"),
        "z": tuple(-a for a in alg.basis_vector("x")),
        "y": alg.basis_vector("w"),
        "w": tuple(-a for a in alg.basis_vector("y")),
    })
    assert ac_admissible(pair, jtwist)
    report = check_integrable(pair, jtwist)
    assert not report.integrable
    assert not report.z_plus_closed and not report.nijenhuis_verdict
    x, y, br = report.witness
    assert br not in report.z_plus
    # the planar pairing on the same algebra is integrable
    jplane = operator_from_rules(alg, {
        "x": alg.basis_vector("y"),
        "y": tuple(-a for a in alg.basis_vector("x")),
        "z": alg.basis_vector("w"),
        "w": tuple(-a for a in alg.basis_vector("z")),
    })
    assert check_integrable(pair, jplane).integrable


def test_z_closure_conjugation_symmetry(so3, so3_pair):
    # Z+ closed iff Z- closed: check directly on the rotation structure.
    op = operator_ad(so3, so3.basis_vector("k0"))
    z_plus, z_minus = compute_z_spaces(so3_pair, op)
    for space in (z_plus, z_minus):
        rows = space.vectors()
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                assert so3.bracket(rows[a], rows[b]) in space


def test_split_diagnostics_rotation(so3, so3_pair):
    diag = split_diagnostics(so3_pair, operator_ad(so3, so3.basis_vector("k0")))
    assert diag.sum_is_all and diag.intersection_is_kc
    assert diag.eigenspace_decomposition_holds


def test_split_diagnostics_grassmann(u4, u4_pair):
    diag = split_diagnostics(u4_pair, operator_ad(u4, grassmann_center_vector(u4)))
    assert diag == SplitDiagnostics(True, True, True)


def test_split_diagnostics_plane_rotation():
    z2 = (Fraction(0),) * 2
    ab2 = LieAlgebra.from_structure_tensor("ab2", ("u", "v"), [[z2, z2], [z2, z2]])
    triv = make_subalgebra(ab2, [ab2.zero_vector()])
    pair = HomogeneousPair(ab2, triv, m=full_subspace(2))
    rot = operator_from_rules(ab2, {
        "u": ab2.basis_vector("v"),
        "v": tuple(-a for a in ab2.basis_vector("u")),
    })
    diag = split_diagnostics(pair, rot)
    assert diag == SplitDiagnostics(True, True, True)
    z_plus, z_minus = compute_z_spaces(pair, rot)
    assert z_plus.dim == 1 and z_minus.dim == 1
    assert subspace_sum(z_plus, z_minus).dim == 2
    assert subspace_intersection(z_plus, z_minus).dim == 0


def test_split_diagnostics_preconditions(so3, so3_pair, so3_pair_plain):
    with pytest.raises(MissingComplement):
        split_diagnostics(so3_pair_plain, operator_ad(so3, so3.basis_vector("k0")))
    # alpha != 0 breaks the kernel clause
    with pytest.raises(NotSplitACAdmissible) as err:
        split_diagnostics(so3_pair, sphere_family(so3, 1, 1, -1))
    assert err.value.clause == "k_in_kernel"
    # beta = 2: squares to -4 on the complement
    with pytest.raises(NotSplitACAdmissible) as err:
        split_diagnostics(so3_pair, sphere_family(so3, 0, 2, -2))
    assert err.value.clause == "square_is_minus_one_on_m"


def test_gl2_left_structure_integrable(gl3):
    from liecheck import from_matrix_generators
    gl2 = from_matrix_generators(
        2, [unit_matrix(2, i, j) for i in range(2) for j in range(2)],
        labels=("e11", "e12", "e21", "e22"), name="gl2")
    j_mat = matrix_sum(unit_matrix(2, 0, 1, -1), unit_matrix(2, 1, 0))
    op = operator_left_mult(gl2, j_mat)
    triv = make_subalgebra(gl2, [gl2.zero_vector()])
    pair = HomogeneousPair(gl2, triv)
    assert ac_admissible(pair, op)
    report = check_integrable(pair, op)
    assert report.integrable
    assert report.z_plus.dim == 2


def test_closure_and_torsion_disagreement_raises(monkeypatch, so3, so3_pair):
    # The Z+ closure and the torsion verdict are equivalent; a disagreement is
    # a fault, reported by an exception that python -O does not strip.
    real = complexstruct.check_nijenhuis

    def flipped(pair, op, **kwargs):
        report = real(pair, op, **kwargs)
        return TorsionReport(not report.verdict, report.checked_pairs, report.mode,
                             report.witness)

    monkeypatch.setattr(complexstruct, "check_nijenhuis", flipped)
    with pytest.raises(InternalInconsistency):
        check_integrable(so3_pair, operator_ad(so3, so3.basis_vector("k0")))


# -- Z+/Z-, E+ and the split identities against the former computations ----
#
# compute_z_spaces takes Z+ as the kernel of Q (J - i), Q the annihilator of
# k, and Z- as its conjugate; _split_identities takes the (+i)-eigenspace E+
# of J on m_C as the kernel of the same equations with Q = 1, the kernel of
# J - i over Q(i).  The references are the former computations: Z+ and Z-
# from one stacked system each, both eigenspaces, and E+ from J restricted
# to m in its echelon coordinates.

def reference_z_spaces(pair, op):
    """Z-+ as the kernels of [J -/+ i | -K^T], projected onto the first n
    coordinates and row-reduced again."""
    n, dk = pair.alg.dim, pair.k.dim
    out = []
    for shift in (-I, I):
        entries = []
        for r in range(n):
            for c in range(n):
                e = GaussianRational(op.matrix.entry(r, c))
                entries.append(e + shift if r == c else e)
            for c in range(dk):
                entries.append(GaussianRational(-pair.k.space.basis.entry(c, r)))
        kern = kernel_basis(ExactMatrix(n, n + dk, entries))
        out.append(over_gaussian(Subspace.from_vectors(n, [row[:n] for row in kern.vectors()])))
    return tuple(out)


def reference_split_diagnostics(pair, op):
    """The split identities with both eigenspaces of J on m_C computed, for
    a J that kills k and keeps m.  J^2 = -1 is first scanned on the basis of
    m in Fraction arithmetic; NotSplitACAdmissible is raised if it fails."""
    zero = pair.alg.zero_vector()
    for x in pair.m.vectors():
        if tuple(a + b for a, b in zip(op.apply(op.apply(x)), x)) != zero:
            raise NotSplitACAdmissible("square_is_minus_one_on_m")
    n, dm = pair.alg.dim, pair.m.dim
    z_plus, z_minus = reference_z_spaces(pair, op)
    kc = over_gaussian(pair.k.space)
    m_rows = pair.m.vectors()
    cols = [pair.m.coordinates_of(op.apply(x)) for x in m_rows]
    eig_ok = True
    for shift, z_space in ((-I, z_plus), (I, z_minus)):
        restricted = ExactMatrix(dm, dm, [
            GaussianRational(cols[c][r]) + (shift if r == c else 0)
            for r in range(dm) for c in range(dm)])
        vectors = []
        for coords in kernel_basis(restricted).vectors():
            vec = [GaussianRational(0)] * n
            for c, row in zip(coords, m_rows):
                vec = [a + c * b for a, b in zip(vec, row)]
            vectors.append(vec)
        eig_space = over_gaussian(Subspace.from_vectors(n, vectors))
        eig_ok = eig_ok and over_gaussian(subspace_sum(kc, eig_space)) == z_space
    return SplitDiagnostics(
        subspace_sum(z_plus, z_minus).dim == n,
        over_gaussian(subspace_intersection(z_plus, z_minus)) == kc,
        eig_ok,
    )


def _abelian(n):
    zero = (Fraction(0),) * n
    return LieAlgebra.from_structure_tensor(f"ab{n}", tuple(f"x{j}" for j in range(n)),
                                            [[zero] * n for _ in range(n)])


@property_test(max_examples=80)
def test_z_spaces_match_stacked_reference(data):
    # Z+ needs no admissibility: any real J and any k of an abelian algebra.
    n = data.draw(st.integers(1, 6))
    alg = _abelian(n)
    k_rows = draw_matrix(data, "rational", rows=data.draw(st.integers(0, n)), cols=n)
    k = make_subalgebra(alg, [k_rows.row(i) for i in range(k_rows.rows)])
    op = LinearOperator(alg, draw_matrix(data, "rational", rows=n, cols=n))
    pair = HomogeneousPair(alg, k)
    z_plus, z_minus = compute_z_spaces(pair, op)
    expected_plus, expected_minus = reference_z_spaces(pair, op)
    assert z_plus == expected_plus and z_minus == expected_minus
    for space in (z_plus, z_minus):
        assert all(type(e) is GaussianRational for e in space.basis.entries)


@pytest.mark.parametrize("name,pair,op", [
    ("so3_family", "sphere_split", "rot"),
    ("u4_grassmannian", "grass", "jgr"),
    ("nil4", "nilgroup", "jplane"),
    ("nil4", "nilgroup", "jtwist"),
    ("plane_rotation", "plane", "rot90"),
])
def test_split_diagnostics_match_two_kernel_reference(name, pair, op):
    built = build(parse((CORPUS / f"{name}.lie").read_text(encoding="utf-8")))
    pair, op = built.pairs[pair], built.operators[op]
    assert split_diagnostics(pair, op) == reference_split_diagnostics(pair, op)
    assert compute_z_spaces(pair, op) == reference_z_spaces(pair, op)
    clauses = []
    for drawn in draw_split_kernel_operators(random.Random(name), pair, op, 12):
        outcome = _split_outcome(split_diagnostics, pair, drawn)
        assert outcome == _split_outcome(reference_split_diagnostics, pair, drawn)
        clauses.append(outcome)
    assert "square_is_minus_one_on_m" in clauses


def reference_e_plus(pair, op):
    """E+ for a J that kills k and keeps m: the kernel of J - i restricted to
    m in its echelon coordinates, carried to ambient coordinates by the
    basis of m and row-reduced again."""
    dm = pair.m.dim
    cols = [pair.m.coordinates_of(op.apply(x)) for x in pair.m.vectors()]
    restricted = ExactMatrix(dm, dm, [GaussianRational(cols[c][r], -int(r == c))
                                      for r in range(dm) for c in range(dm)])
    return Subspace(rref(kernel_basis(restricted).basis @ pair.m.basis)[0])


@pytest.mark.parametrize("case", SPLIT_CASES)
@property_test(max_examples=25)
def test_e_plus_matches_restricted_reference(loop_cases, case, data):
    # P X P kills k and keeps m, for P the projection onto m along k.  X is
    # a seed or its negative (a split J has E+ of half the dimension of m),
    # or a drawn operator (E+ mostly 0).  For k = 0, X may also be a
    # rotation block next to a random block, conjugated: E+ is then a line.
    pair, seeds, _ = loop_cases[case]
    n = pair.alg.dim
    x = (data.draw(st.sampled_from(seeds)) if data.draw(st.booleans())
         else draw_operator(data, pair, seeds)).matrix
    if pair.k.dim == 0 and data.draw(st.booleans()):
        rest = draw_matrix(data, "rational", n - 2, n - 2)
        block = ExactMatrix(n, n, [Fraction(r - c) if r < 2 and c < 2 else
                                   rest.entry(r - 2, c - 2) if r >= 2 and c >= 2 else 0
                                   for r in range(n) for c in range(n)])
        p, p_inv = draw_conjugator(data, n)
        x = p @ block @ p_inv
    proj = projection_onto_m(pair)
    op = LinearOperator(pair.alg, proj @ scaled_matrix(x, data.draw(st.sampled_from([1, -1])))
                        @ proj)
    # Q = 1: the equations of the zero subspace.
    e_plus = complexstruct._z_plus_kernel(Subspace.from_vectors(n, [])._equation_rows(), op)
    assert e_plus == reference_e_plus(pair, op)
    assert all(type(e) is GaussianRational for e in e_plus.basis.entries)


@pytest.mark.parametrize("split", [False, True])
def test_z_plus_is_built_once(monkeypatch, so3_pair, so3_pair_plain, split):
    # One check_integrable computes Z+ once, through compute_z_spaces (the
    # closure test reads Z+ itself), from k's cached equation rows as they
    # are, and E+ once more on the split path, from the identity rows: the
    # equations of the zero subspace.
    pair = so3_pair if split else so3_pair_plain
    op = operator_from_rules(pair.alg, {"k0": (0, 0, 0), "e1": (0, 0, 1), "e2": (0, -1, 0)})
    calls = []

    def spy(name, original):
        def counted(*args):
            calls.append((name, args[0]))
            return original(*args)
        monkeypatch.setattr(complexstruct, name, counted)

    spy("_z_plus_kernel", complexstruct._z_plus_kernel)
    spy("compute_z_spaces", complexstruct.compute_z_spaces)
    report = check_integrable(pair, op)
    identity = Subspace.from_vectors(3, [])._equation_rows()
    assert identity == [[[int(i == j) for i in range(3)], None, 1] for j in range(3)]
    assert calls == [("compute_z_spaces", pair),
                     ("_z_plus_kernel", pair.k.space._equation_rows()),
                     *[("_z_plus_kernel", identity)] * split]
    assert calls[1][1] is pair.k.space._equation_rows()
    assert report.integrable and (report.split is not None) == split


def test_each_subspace_is_scaled_once(monkeypatch):
    # An integrability command on the Grassmannian, build included: no
    # integer scaling reads equation rows (a subspace reads its equations off
    # its scaled echelon rows), the echelon rows of each subspace (k, m, Z+,
    # Z-) are scaled at most once, and the kernels of cached equations (the
    # intersection, Z+) scale nothing.
    scaled = []

    def spy(sparse, cols, scale=exact._integer_rows):
        scaled.append(sparse)
        return scale(sparse, cols)

    monkeypatch.setattr(exact, "_integer_rows", spy)
    built = build(parse((CORPUS / "u4_grassmannian.lie").read_text(encoding="utf-8")))
    pair, op = built.pairs["grass"], built.operators["jgr"]
    report = check_integrable(pair, op)
    assert report.integrable and report.split.eigenspace_decomposition_holds
    spaces = (pair.k.space, pair.m, report.z_plus, report.z_minus)
    # Every scaled row is given by its (column, scalar) terms.
    assert all(type(e) in (Fraction, GaussianRational)
               for sparse in scaled for terms in sparse for _, e in terms)
    assert not any(x is space._equation_rows() for x in scaled for space in spaces)
    for space in spaces:
        assert sum(x is space.basis.nonzero_rows for x in scaled) == 1
    # The four subspaces, and the row reductions of the spans of k and m and
    # of k + E+.
    assert len(scaled) == 7 and len(set(map(id, scaled))) == len(scaled)
    del scaled[:]
    assert subspace_intersection(report.z_plus, report.z_minus) == pair.k.space
    assert complexstruct._z_plus_kernel(pair.k.space._equation_rows(), op) == report.z_plus
    assert scaled == []


def _split_outcome(diagnose, pair, op):
    """The split diagnostics, or the clause of the NotSplitACAdmissible raised."""
    try:
        return diagnose(pair, op)
    except NotSplitACAdmissible as err:
        return err.clause


def draw_split_kernel_operators(rng, pair, op, count):
    """Operators that kill k and keep m, drawn around a J with J^2 = -1 on m:
    ``c J + P X P`` for c in {0, 1, -1, 2} and, half of the time, a random
    sparse X, where ``P = -J^2`` is the projection onto m along k.  Only
    ``c = +-1`` without X is sure to square to -1 on m."""
    n = pair.alg.dim
    proj = scaled_matrix(op.matrix @ op.matrix, -1)
    for _ in range(count):
        matrix = scaled_matrix(op.matrix, rng.choice((0, 1, -1, 2)))
        if rng.random() < 0.5:
            x = ExactMatrix(n, n, [rand_fraction(rng, 3) if rng.random() < 0.3 else Fraction(0)
                                   for _ in range(n * n)])
            matrix = matrix_sum(matrix, proj @ x @ proj)
        yield LinearOperator(pair.alg, matrix)


def reference_squares_to_minus_one(pair, op):
    """(J^2 + 1) e_j in k for every j, in Fraction arithmetic."""
    j2 = op.matrix @ op.matrix
    for j in range(pair.alg.dim):
        v = pair.alg.basis_vector(j)
        if tuple(a + b for a, b in zip(j2.apply(v), v)) not in pair.k.space:
            return False
    return True


@pytest.mark.parametrize("case", LOOP_CASES)
@property_test(max_examples=20)
def test_squares_to_minus_one_matches_fraction_reference(loop_cases, case, data):
    pair, seeds, _ = loop_cases[case]
    op = (data.draw(st.sampled_from(seeds)) if data.draw(st.booleans())
          else draw_operator(data, pair, seeds))
    assert (complexstruct._squares_to_minus_one(pair, op)
            == reference_squares_to_minus_one(pair, op))


def reference_bracket_escape(alg, z_plus):
    """The first basis pair (x, y, [x, y]) of Z+ whose bracket leaves Z+,
    bracketed and tested in GaussianRational arithmetic."""
    rows = z_plus.vectors()
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            br = alg.bracket(rows[a], rows[b])
            if br not in z_plus:
                return rows[a], rows[b], br
    return None


def _closure_algebras():
    """Even-dimensional algebras for a trivial stabilizer: gl2, u2 (Q(i)
    generators), the nilpotent nil4, nil4 conjugated by ``MOVE_4`` (structure
    constants with denominators) and the upper triangular 3x3 matrices."""
    from liecheck import from_matrix_generators

    u2 = [imag_unit_matrix(2, 0, 0), imag_unit_matrix(2, 1, 1),
          matrix_sum(unit_matrix(2, 0, 1), unit_matrix(2, 1, 0, -1)),
          matrix_sum(imag_unit_matrix(2, 0, 1), imag_unit_matrix(2, 1, 0))]
    return {
        "gl2": from_matrix_generators(2, [unit_matrix(2, i, j) for i in range(2)
                                          for j in range(2)]),
        "u2": from_matrix_generators(2, u2),
        "nil4": _nil4_pair()[0],
        "nil4_moved": conjugate_algebra(_nil4_pair()[0], *MOVE_4),
        "upper3": from_matrix_generators(3, [unit_matrix(3, i, j) for i in range(3)
                                             for j in range(i, 3)]),
    }


def _plus_values_in_k(data, pair, op):
    """``op`` plus a random operator with values in k.  The sum of an
    AC-admissible operator and such an operator is AC-admissible: it still
    preserves k, commutes with ad k modulo k and squares to -1 modulo k."""
    n, k_basis = pair.alg.dim, pair.k.space.vectors()
    coeffs = data.draw(st.lists(st.sampled_from([Fraction(0)] * 4 + [Fraction(1, 2)]),
                                min_size=n * len(k_basis), max_size=n * len(k_basis)))
    entries = list(op.matrix.entries)
    for j in range(n):
        for r, z in enumerate(k_basis):
            for i in range(n):
                entries[i * n + j] += coeffs[j * len(k_basis) + r] * z[i]
    return LinearOperator(pair.alg, ExactMatrix(n, n, entries))


@property_test(max_examples=30)
def test_z_plus_mod_k_completes_k_to_z_plus(loop_cases, data):
    # The representatives are the echelon rows of Z+ whose pivot is not a
    # pivot of k: each is zero at every pivot of k, and with k_C they span
    # Z+, one row per dimension of the quotient.
    name, seed = data.draw(st.sampled_from([("so3_split", 1), ("so3_plain", 2), ("so3_skew", 1),
                                            ("u4_grass", 1)]))
    pair, seeds, _ = loop_cases[name]
    report = check_integrable(pair, _plus_values_in_k(data, pair, seeds[seed]))
    k, reps = pair.k.space, report.z_plus_mod_k
    assert len(reps) == report.z_plus.dim - k.dim
    assert all(not row[p] for row in reps for p in k.pivot_cols)
    assert subspace_sum(k, Subspace.from_vectors(pair.alg.dim, reps)) == report.z_plus


@property_test(max_examples=40)
def test_z_plus_closure_matches_gaussian_reference(loop_cases, data):
    # J = P J0 P^-1 squares to -1, and with k = 0 every J is admissible; most
    # such J are not integrable, so the first escaping pair is compared.  On
    # the Grassmannian, jgr plus an operator with values in k stays admissible
    # and squares to -1 modulo k.
    # nil4_moved first, as hypothesis draws the first choice most often: its
    # structure constants have denominators, so the witness shows their scale.
    name = data.draw(st.sampled_from(["nil4_moved", "gl2", "u2", "nil4", "upper3", "u4_grass"]))
    if name == "u4_grass":
        pair, seeds, _ = loop_cases[name]
        op = _plus_values_in_k(data, pair, seeds[1])
    else:
        alg = _closure_algebras()[name]
        n = alg.dim
        pair = HomogeneousPair(alg, make_subalgebra(alg, [alg.zero_vector()]))
        j0 = ExactMatrix(n, n, [Fraction(-1 if c == r + 1 and r % 2 == 0 else
                                         1 if r == c + 1 and c % 2 == 0 else 0)
                                for r in range(n) for c in range(n)])
        p, p_inv = draw_conjugator(data, n)
        op = LinearOperator(alg, p @ j0 @ p_inv)
    report = check_integrable(pair, op)
    expected = reference_bracket_escape(pair.alg, report.z_plus)
    assert report.z_plus_closed == (expected is None) == report.integrable
    assert report.witness == expected
    if expected is not None:
        for got, want in zip(report.witness, expected):
            assert [type(x) for x in got] == [type(x) for x in want]


def test_ac_admissible_with_denominators():
    # The integer columns of J are 2 J, so the identity term of
    # (J^2 + 1) e_j is scaled by 4 in the integer test.
    ab2 = _abelian(2)
    pair = HomogeneousPair(ab2, make_subalgebra(ab2, [ab2.zero_vector()]))
    op = operator_from_rules(ab2, {"x0": (0, 2), "x1": (Fraction(-1, 2), 0)})
    assert ac_admissible(pair, op)
    assert not ac_admissible(pair, scaled_operator(op, 2))
    assert check_integrable(pair, op).integrable
