"""Acceptance suite: the complete exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from liecheck import (
    ExactMatrix,
    GaussianRational,
    Subspace,
    check_admissible,
    check_integrable,
    check_nijenhuis,
    check_nijenhuis_ad,
    make_subalgebra,
    operator_ad,
    operator_from_rules,
    operator_left_mult,
    operator_sandwich,
    split_diagnostics,
    torsion_form,
)
from liecheck.complexstruct import SplitDiagnostics
from liecheck.harness import (
    build_model,
    bundle_map,
    expm,
    fd_bracket,
    projected_field,
    run_harness,
)
from liecheck.serializer import serialize
from liecheck.specfile import (
    InconsistentBracket,
    SpecSyntaxError,
    UnresolvedReference,
    parse,
)

from conftest import (
    ac_admissible,
    full_subspace,
    grassmann_center_vector,
    matrix_sum,
    oneof_property,
    random_point,
    sphere_family,
    unit_matrix,
)

P0 = np.array([0.0, 0.0, 1.0])


def _report(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _sandwich(gl3):
    a = ExactMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    b = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    return operator_sandwich(gl3, a, b)


def test_criterion_01_sphere_non_relatedness(so3, so3_pair):
    started = time.perf_counter()
    model = build_model(so3_pair)
    flip = np.diag([1.0, -1.0, -1.0])
    e1 = np.array([0.0, 1.0, 0.0])
    pushed = flip @ projected_field(model, e1, P0)
    at_image = projected_field(model, e1, flip @ P0)
    ok = (np.max(np.abs(pushed - np.array([1.0, 0.0, 0.0]))) <= 1e-12
          and np.max(np.abs(at_image - np.array([-1.0, 0.0, 0.0]))) <= 1e-12
          and (time.perf_counter() - started) < 1.0)
    _report(1, "sphere push-forward differs from field at image", ok)


def test_criterion_02_sphere_bundle_vs_image_field(so3, so3_pair):
    started = time.perf_counter()
    theta = 1.0
    model = build_model(so3_pair)
    op = operator_ad(so3, so3.basis_vector("k0"))
    g = expm(theta * model.generators[2])
    p = g @ P0
    e2 = np.array([0.0, 0.0, 1.0])
    e1 = np.array([0.0, 1.0, 0.0])
    bundle_value = bundle_map(model, op, p, projected_field(model, e2, p))
    image_value = projected_field(model, e1, p)
    ok = (np.max(np.abs(bundle_value - np.array([1.0, 0.0, 0.0]))) <= 1e-12
          and np.max(np.abs(image_value - np.array([math.cos(theta), 0.0, 0.0]))) <= 1e-12
          and (time.perf_counter() - started) < 1.0)
    _report(2, "bundle map vs pushed image field at the rotated pole", ok)


def test_criterion_03_admissibility_grid(so3, so3_pair):
    ok = True
    for alpha in (-1, 0, 1):
        for beta in (-1, 0, 1):
            for gamma in (-1, 0, 1):
                verdict = check_admissible(
                    so3_pair, sphere_family(so3, alpha, beta, gamma)).holds
                ok = ok and (verdict == (gamma == -beta))
    _report(3, "family admissible exactly when gamma = -beta (27 grid)", ok)


def test_criterion_04_nijenhuis_verdicts(so3, so3_pair, gl3, gl3_pair):
    ok = True
    for alpha in (-1, 0, 1):
        for beta in (-1, 0, 1):
            ok = ok and check_nijenhuis(
                so3_pair, sphere_family(so3, alpha, beta, -beta)).verdict
    op = _sandwich(gl3)
    report = check_nijenhuis(gl3_pair, op)
    ok = ok and not report.verdict and report.witness is not None
    v, w, beta_val = report.witness
    ok = ok and torsion_form(gl3, op, v, w) == beta_val
    ok = ok and beta_val not in gl3_pair.k.space
    _report(4, "torsion verdicts: family holds, sandwich fails with witness", ok)


def test_criterion_05_integrability(so3, so3_pair):
    report = check_integrable(so3_pair, operator_ad(so3, so3.basis_vector("k0")))
    i = GaussianRational(0, 1)
    expected = Subspace.from_vectors(3, [
        (GaussianRational(1), GaussianRational(0), GaussianRational(0)),
        (GaussianRational(0), GaussianRational(1), i),
    ])
    ok = report.integrable and report.z_plus_closed and report.z_plus == expected
    for alpha in (-1, 0, 1):
        for beta in (-2, -1, 0, 1, 2):
            op = sphere_family(so3, alpha, beta, -beta)
            ok = ok and ac_admissible(so3_pair, op) == (beta in (-1, 1))
    _report(5, "Z+ basis, closure, and unit-beta almost complex family", ok)


def _teob_cases(so3, so3_pair, u4, u4_pair, gl3):
    cases = []
    for alpha in (-1, 0, 1):
        for beta in (-1, 1):
            cases.append((so3_pair, sphere_family(so3, alpha, beta, -beta)))
    cases.append((u4_pair, operator_ad(u4, grassmann_center_vector(u4))))
    from liecheck import from_matrix_generators, HomogeneousPair
    gl2 = from_matrix_generators(
        2, [unit_matrix(2, i, j) for i in range(2) for j in range(2)],
        labels=("e11", "e12", "e21", "e22"), name="gl2")
    j_mat = matrix_sum(unit_matrix(2, 0, 1, -1), unit_matrix(2, 1, 0))
    triv2 = make_subalgebra(gl2, [gl2.zero_vector()])
    cases.append((HomogeneousPair(gl2, triv2), operator_left_mult(gl2, j_mat)))
    # the twisted nilpotent structure: both verdicts negative
    from liecheck import LieAlgebra
    z4 = (Fraction(0),) * 4
    structure = [[z4] * 4 for _ in range(4)]
    structure = [list(r) for r in structure]
    structure[0][1] = (0, 0, 1, 0)
    structure[1][0] = (0, 0, -1, 0)
    nil4 = LieAlgebra.from_structure_tensor("nil4", ("x", "y", "z", "w"), structure)
    triv4 = make_subalgebra(nil4, [nil4.zero_vector()])
    nil_pair = HomogeneousPair(nil4, triv4)
    jtwist = operator_from_rules(nil4, {
        "x": nil4.basis_vector("z"),
        "z": tuple(-a for a in nil4.basis_vector("x")),
        "y": nil4.basis_vector("w"),
        "w": tuple(-a for a in nil4.basis_vector("y")),
    })
    cases.append((nil_pair, jtwist))
    return cases


def test_criterion_06_equivalence_suite(so3, so3_pair, u4, u4_pair, gl3):
    cases = _teob_cases(so3, so3_pair, u4, u4_pair, gl3)
    assert len(cases) >= 6
    ok = True
    saw_negative = False
    for pair, op in cases:
        assert ac_admissible(pair, op)
        report = check_integrable(pair, op)
        ok = ok and (report.z_plus_closed == report.nijenhuis_verdict)
        saw_negative = saw_negative or not report.z_plus_closed
    ok = ok and saw_negative
    _report(6, f"Z+ closure equals torsion verdict on {len(cases)} structures", ok)


def test_criterion_07_torsion_on_subalgebra_pairs(so3, so3_pair, u4, u4_pair,
                                                  gl3):
    rng = random.Random(20250808)

    def rand_in(space, span=4):
        vec = [Fraction(0)] * space.ambient_dim
        for row in space.vectors():
            c = Fraction(rng.randint(-span, span), rng.randint(1, span))
            vec = [a + c * b for a, b in zip(vec, row)]
        return tuple(vec)

    def rand_full(n, span=4):
        return tuple(Fraction(rng.randint(-span, span), rng.randint(1, span))
                     for _ in range(n))

    sl3_vectors = []
    for lab in gl3.basis_labels:
        i, j = int(lab[1]), int(lab[2])
        if i != j:
            sl3_vectors.append(gl3.basis_vector(lab))
    e11, e22, e33 = (gl3.basis_vector(f"e{i}{i}") for i in (1, 2, 3))
    sl3_vectors.append(tuple(a - b for a, b in zip(e11, e22)))
    sl3_vectors.append(tuple(a - b for a, b in zip(e22, e33)))
    from liecheck import HomogeneousPair
    sl3_pair = HomogeneousPair(gl3, make_subalgebra(gl3, sl3_vectors))
    third = Fraction(1, 3)
    scalar = tuple(third * (a + b + c) for a, b, c in zip(e11, e22, e33))
    trace_rules = {}
    for lab in gl3.basis_labels:
        i, j = int(lab[1]), int(lab[2])
        trace_rules[lab] = scalar if i == j else gl3.zero_vector()
    setups = [
        (so3_pair, operator_ad(so3, so3.basis_vector("k0")), 150),
        (so3_pair, sphere_family(so3, 1, 1, -1), 100),
        (u4_pair, operator_ad(u4, grassmann_center_vector(u4)), 150),
        (sl3_pair, operator_from_rules(gl3, trace_rules), 100),
    ]
    checked = 0
    ok = True
    for pair, op, count in setups:
        for _ in range(count):
            z = rand_in(pair.k.space)
            w = rand_full(pair.alg.dim)
            ok = ok and oneof_property(pair, op, z, w)
            checked += 1
    ok = ok and checked == 500
    _report(7, "torsion with one argument in k lands in k (500 draws)", ok)


def test_criterion_08_inner_operator_equivalence(so3, so3_pair, u4, u4_pair):
    rng = random.Random(97)
    ok = True
    count = 0
    for _ in range(50):
        d = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(0), Fraction(0))
        spec_v = check_nijenhuis_ad(so3_pair, d).verdict
        generic_v = check_nijenhuis(so3_pair, operator_ad(so3, d)).verdict
        ok = ok and spec_v == generic_v
        count += 1
    for _ in range(50):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        d = [Fraction(0)] * 16
        for lab in ("d1", "d2"):
            d[u4.index_of(lab)] = a
        for lab in ("d3", "d4"):
            d[u4.index_of(lab)] = b
        d = tuple(d)
        spec_v = check_nijenhuis_ad(u4_pair, d).verdict
        generic_v = check_nijenhuis(u4_pair, operator_ad(u4, d)).verdict
        ok = ok and spec_v == generic_v
        count += 1
    ok = ok and count == 100
    _report(8, "specialized and generic inner-operator verdicts agree (100)", ok)


def test_criterion_09_split_identities(so3, so3_pair, u4, u4_pair):
    from liecheck import HomogeneousPair, LieAlgebra
    ok = True
    for pair, op in (
        (so3_pair, operator_ad(so3, so3.basis_vector("k0"))),
        (u4_pair, operator_ad(u4, grassmann_center_vector(u4))),
    ):
        diag = split_diagnostics(pair, op)
        ok = ok and diag == SplitDiagnostics(True, True, True)
    z2 = (Fraction(0),) * 2
    ab2 = LieAlgebra.from_structure_tensor("ab2", ("u", "v"), [[z2, z2], [z2, z2]])
    plane = HomogeneousPair(ab2, make_subalgebra(ab2, [ab2.zero_vector()]),
                            m=full_subspace(2))
    rot = operator_from_rules(ab2, {
        "u": ab2.basis_vector("v"),
        "v": tuple(-a for a in ab2.basis_vector("u")),
    })
    diag = split_diagnostics(plane, rot)
    ok = ok and diag == SplitDiagnostics(True, True, True)
    _report(9, "split identities: sum, intersection, eigenspace form", ok)


def test_criterion_10_harness_quantitative(so3, so3_pair, gl3, gl3_pair):
    started = time.perf_counter()
    ok = True
    cases = [
        (so3_pair, operator_ad(so3, so3.basis_vector("k0"))),
        (gl3_pair, _sandwich(gl3)),
        (gl3_pair, operator_left_mult(
            gl3, ExactMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))),
    ]
    for pair, op in cases:
        report = run_harness(pair, op, samples=20, h=1e-4, seed=0)
        ok = ok and len(report.deviation) == 20
        ok = ok and report.max_deviation <= 1e-5
        if report.nijenhuis_exact:
            ok = ok and report.max_numerical <= 1e-5

    # quadratic convergence of the difference scheme on a nonlinear field
    model = build_model(so3_pair)
    a1 = np.array([0.3, -0.7, 0.5])
    a2 = np.array([-0.2, 0.4, 0.9])
    m1 = model.generators[0] + 0.5 * model.generators[1]
    m2 = model.generators[2] - 0.25 * model.generators[0]

    def f1(p):
        return float(np.dot(a1, p)) * (m1 @ p)

    def f2(p):
        return float(np.dot(a2, p)) * (m2 @ p)

    def jac(a, m, p, u):
        return (float(np.dot(a, u)) * (m @ p) + float(np.dot(a, p)) * (m @ u)
                - 2.0 * float(np.dot(p, u)) * float(np.dot(a, p)) * (m @ p))

    x = model.ambient_extension(f1)
    y = model.ambient_extension(f2)
    p = np.array([0.6, 0.48, 0.64])
    p /= np.linalg.norm(p)
    exact = jac(a2, m2, p, f1(p)) - jac(a1, m1, p, f2(p))
    h = 1e-3
    dev_h = float(np.max(np.abs(fd_bracket(model, x, y, p, h) - exact)))
    dev_h2 = float(np.max(np.abs(fd_bracket(model, x, y, p, h / 2) - exact)))
    ok = ok and 2.5 <= dev_h / dev_h2 <= 6.0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report(10, f"harness deviations and convergence ({elapsed:.1f}s)", ok)


def test_criterion_11_bracket_transport(so3, so3_pair):
    model = build_model(so3_pair)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        _, p = random_point(model, rng)
        v = rng.uniform(-1, 1, 3)
        w = rng.uniform(-1, 1, 3)
        x = model.ambient_extension(lambda q: projected_field(model, v, q))
        y = model.ambient_extension(lambda q: projected_field(model, w, q))
        got = fd_bracket(model, x, y, p, 1e-4)
        vw = np.einsum("i,j,ijk->k", v, w, model.structure)
        residual = float(np.max(np.abs(got + projected_field(model, vw, p))))
        worst = max(worst, residual)
    _report(11, f"pushed fields bracket to minus the algebra bracket "
               f"(worst {worst:.2e})", worst <= 1e-6)


def test_criterion_12_parser_round_trip_and_diagnostics(corpus_dir, fixtures_dir):
    ok = True
    for path in sorted(corpus_dir.glob("*.lie")):
        doc = parse(path.read_text())
        ok = ok and parse(serialize(doc)) == doc
    expectations = [
        ("inconsistent_bracket.lie", InconsistentBracket, 3, 12),
        ("unresolved_ref.lie", UnresolvedReference, 2, 17),
        ("bad_scalar.lie", SpecSyntaxError, 2, 21),
    ]
    for name, exc_type, line, col in expectations:
        try:
            parse((fixtures_dir / name).read_text())
            ok = False
        except exc_type as err:
            ok = ok and err.line == line and err.col == col
        except Exception:
            ok = False
    _report(12, "corpus round trips; malformed fixtures located exactly", ok)
