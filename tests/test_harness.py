"""Floating-point models: fields, finite-difference brackets, torsion."""

import copy
import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import (
    identity_matrix,
    matrix_of_element,
    random_point,
    sphere_family,
    zero_operator,
)
from liecheck import MAX_STEP, MIN_STEP, harness, operator_ad, operator_sandwich
from liecheck.errors import (
    LieCheckError,
    PointOffManifold,
    SectionSingular,
    StepTooSmall,
)
from liecheck.harness import (
    RELATION_TOL,
    DeviationReport,
    build_model,
    bundle_map,
    expm,
    fd_bracket,
    numerical_torsion,
    projected_field,
    relation_checks,
    run_harness,
)

P0 = np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def sphere(so3_pair):
    return build_model(so3_pair)


@pytest.fixture(scope="module")
def gl3_model(gl3_pair):
    return build_model(gl3_pair)


# -- matrix exponential -------------------------------------------------------

def test_expm_rodrigues():
    rng = np.random.default_rng(1)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = float(rng.uniform(-3, 3))
        k = np.array([[0, -axis[2], axis[1]],
                      [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
        rodrigues = np.eye(3) + math.sin(theta) * k + (1 - math.cos(theta)) * (k @ k)
        assert np.max(np.abs(expm(theta * k) - rodrigues)) < 1e-12


def test_expm_diagonal_and_nilpotent():
    d = np.diag([0.3, -1.2, 2.0])
    assert np.max(np.abs(expm(d) - np.diag(np.exp(np.diag(d))))) < 1e-12
    n = np.array([[0.0, 5.0], [0.0, 0.0]])
    assert np.max(np.abs(expm(n) - np.array([[1, 5], [0, 1]]))) < 1e-14


# -- models -------------------------------------------------------------------

def test_sphere_model_detected(sphere):
    assert sphere.kind == "sphere-orbit"
    assert np.allclose(sphere.base_point, P0)


def test_full_group_model_detected(gl3_model):
    assert gl3_model.kind == "full-group"


def test_no_model_for_grassmann_pair(u4_pair):
    with pytest.raises(LieCheckError):
        build_model(u4_pair)


def test_sphere_samples_on_manifold(sphere):
    rng = np.random.default_rng(3)
    for _ in range(50):
        _, p = random_point(sphere, rng)
        assert abs(np.linalg.norm(p) - 1.0) <= 1e-12


# -- projected fields ---------------------------------------------------------

def test_projected_field_base_values(sphere):
    e1 = np.array([0.0, 1.0, 0.0])
    k0 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(projected_field(sphere, e1, P0), [1, 0, 0], atol=1e-15)
    assert np.allclose(projected_field(sphere, k0, P0), [0, 0, 0], atol=1e-15)
    assert np.allclose(projected_field(sphere, e1, -P0), [-1, 0, 0], atol=1e-15)


def test_projected_field_off_manifold(sphere):
    with pytest.raises(PointOffManifold):
        projected_field(sphere, np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 2.0]))


# -- bundle map ---------------------------------------------------------------

def test_bundle_map_zero_operator(sphere, so3_pair):
    zero = zero_operator(so3_pair.alg)
    rng = np.random.default_rng(5)
    for _ in range(10):
        _, p = random_point(sphere, rng)
        z = projected_field(sphere, rng.uniform(-1, 1, 3), p)
        assert np.allclose(bundle_map(sphere, zero, p, z), 0, atol=1e-15)


def test_bundle_map_rotation_demo(sphere, so3, so3_pair):
    # theta-rotation about the x axis moves the pole to (0, -sin, cos) or
    # (0, sin, cos) depending on orientation; the bundle-map value is
    # (1, 0, 0) while the pushed image field gives (cos theta, 0, 0).
    theta = 1.0
    op = operator_ad(so3, so3.basis_vector("k0"))
    g = expm(theta * sphere.generators[2])
    p = g @ P0
    z = projected_field(sphere, np.array([0.0, 0.0, 1.0]), p)  # field of e2
    nz = bundle_map(sphere, op, p, z)
    assert np.max(np.abs(nz - np.array([1.0, 0.0, 0.0]))) <= 1e-12
    image_field = projected_field(sphere, np.array([0.0, 1.0, 0.0]), p)  # e1
    assert np.max(np.abs(image_field - np.array([math.cos(theta), 0, 0]))) <= 1e-12


def test_bundle_map_section_singular(sphere, so3, so3_pair):
    op = operator_ad(so3, so3.basis_vector("k0"))
    with pytest.raises(SectionSingular):
        bundle_map(sphere, op, -P0, np.array([1.0, 0.0, 0.0]))


def test_bundle_map_representative_independence(sphere, so3, so3_pair):
    report = relation_checks(sphere, so3_pair,
                             operator_ad(so3, so3.basis_vector("k0")),
                             samples=100, seed=11)
    assert report.rep_independence_max <= 1e-10


# -- finite-difference brackets ----------------------------------------------

def test_fd_bracket_linear_fields(sphere, so3):
    # brackets of pushed-down fields reproduce minus the algebra bracket
    rng = np.random.default_rng(7)
    for _ in range(50):
        _, p = random_point(sphere, rng)
        v = rng.uniform(-1, 1, 3)
        w = rng.uniform(-1, 1, 3)
        x = sphere.ambient_extension(lambda q: projected_field(sphere, v, q))
        y = sphere.ambient_extension(lambda q: projected_field(sphere, w, q))
        got = fd_bracket(sphere, x, y, p, 1e-4)
        vw = np.array([float(a) for a in so3.bracket(
            tuple(map(_to_fraction, v)), tuple(map(_to_fraction, w)))])
        want = -projected_field(sphere, vw, p)
        assert np.max(np.abs(got - want)) <= 1e-6


def _to_fraction(x):
    from fractions import Fraction
    return Fraction(x).limit_denominator(10 ** 12)


def test_fd_bracket_self_and_constant(sphere):
    rng = np.random.default_rng(9)
    _, p = random_point(sphere, rng)
    v = rng.uniform(-1, 1, 3)
    x = sphere.ambient_extension(lambda q: projected_field(sphere, v, q))
    assert np.max(np.abs(fd_bracket(sphere, x, x, p, 1e-4))) <= 1e-9
    const = lambda z: np.array([0.3, -0.2, 0.1])
    assert np.max(np.abs(fd_bracket(sphere, const, const, p, 1e-4))) <= 1e-13


def test_fd_bracket_step_guard(sphere):
    x = lambda z: z
    with pytest.raises(StepTooSmall):
        fd_bracket(sphere, x, x, P0, 1e-9)
    with pytest.raises(PointOffManifold):
        fd_bracket(sphere, x, x, np.array([0.0, 0.0, 1.5]), 1e-4)


def _quadratic_field(a, mat):
    """p -> (a . p) (mat p): tangent to spheres, nonlinear after retraction."""
    def field(p):
        return float(np.dot(a, p)) * (mat @ p)
    return field


def _quadratic_jacobian(a, mat, p, u):
    # derivative of (a.z)(Az)/|z|^2 at |p| = 1 in direction u
    return (float(np.dot(a, u)) * (mat @ p)
            + float(np.dot(a, p)) * (mat @ u)
            - 2.0 * float(np.dot(p, u)) * float(np.dot(a, p)) * (mat @ p))


def test_fd_bracket_quadratic_convergence(sphere):
    # deviation(h) / deviation(h/2) stays near 4 for a designated
    # nonlinear field pair, since central differences are O(h^2)
    a1 = np.array([0.3, -0.7, 0.5])
    a2 = np.array([-0.2, 0.4, 0.9])
    m1 = sphere.generators[0] + 0.5 * sphere.generators[1]
    m2 = sphere.generators[2] - 0.25 * sphere.generators[0]
    f1 = _quadratic_field(a1, m1)
    f2 = _quadratic_field(a2, m2)
    x = sphere.ambient_extension(f1)
    y = sphere.ambient_extension(f2)
    p = np.array([0.6, 0.48, 0.64])
    p = p / np.linalg.norm(p)
    exact = (_quadratic_jacobian(a2, m2, p, f1(p))
             - _quadratic_jacobian(a1, m1, p, f2(p)))
    h = 1e-3
    dev_h = float(np.max(np.abs(fd_bracket(sphere, x, y, p, h) - exact)))
    dev_h2 = float(np.max(np.abs(fd_bracket(sphere, x, y, p, h / 2) - exact)))
    assert dev_h > 0 and dev_h2 > 0
    assert 2.5 <= dev_h / dev_h2 <= 6.0


# -- numerical torsion --------------------------------------------------------

def test_numerical_torsion_diagonal_exactly_zero(sphere, so3, so3_pair):
    op = operator_ad(so3, so3.basis_vector("k0"))
    rng = np.random.default_rng(13)
    _, p = random_point(sphere, rng)
    v = rng.uniform(-1, 1, 3)
    sample = numerical_torsion(sphere, op, v, v, p)
    assert np.all(sample.numerical == 0.0)
    assert np.all(sample.predicted == 0.0)
    assert sample.deviation == 0.0


def test_numerical_torsion_rotation_vanishes(sphere, so3, so3_pair):
    op = operator_ad(so3, so3.basis_vector("k0"))
    rng = np.random.default_rng(15)
    for _ in range(10):
        _, p = random_point(sphere, rng)
        v, w = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        sample = numerical_torsion(sphere, op, v, w, p)
        assert np.max(np.abs(sample.numerical)) <= 1e-5
        assert sample.deviation <= 1e-5


def test_numerical_torsion_matches_exact_form_at_identity(gl3, gl3_pair):
    # at the base point the prediction reduces to the exact torsion form
    from fractions import Fraction
    from liecheck import ExactMatrix, torsion_form
    a = ExactMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    b = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    op = operator_sandwich(gl3, a, b)
    model = build_model(gl3_pair)
    rng = random.Random(17)
    for _ in range(5):
        v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(9))
        w = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(9))
        exact = torsion_form(gl3, op, v, w)
        sample = numerical_torsion(model, op, v, w, np.eye(3))
        exact_mat = np.array(
            [[float(x) for x in matrix_of_element(gl3, exact).row(i)] for i in range(3)]
        )
        assert np.max(np.abs(sample.predicted - exact_mat)) <= 1e-12
        assert np.max(np.abs(sample.numerical - exact_mat)) <= 1e-5


def test_numerical_torsion_nonzero_case_agrees(gl3, gl3_pair):
    from liecheck import ExactMatrix
    a = ExactMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    b = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    op = operator_sandwich(gl3, a, b)
    model = build_model(gl3_pair)
    rng = np.random.default_rng(19)
    saw_nonzero = False
    for _ in range(10):
        _, p = random_point(model, rng)
        v, w = rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 9)
        sample = numerical_torsion(model, op, v, w, p)
        assert sample.deviation <= 1e-5
        if np.max(np.abs(sample.numerical)) > 1.0:
            saw_nonzero = True
    assert saw_nonzero


# -- relation checks ----------------------------------------------------------

def test_relation_checks_sphere(sphere, so3, so3_pair):
    op = operator_ad(so3, so3.basis_vector("k0"))
    report = relation_checks(sphere, so3_pair, op, samples=100, seed=21)
    assert report.alpha_related_max <= RELATION_TOL
    assert report.base_consistency_max <= RELATION_TOL
    assert report.stabilizer_max <= RELATION_TOL
    assert report.rep_independence_max <= RELATION_TOL
    # the flip demonstration: pushing with g versus evaluating at g p0
    assert np.max(np.abs(report.flip_pushforward - np.array([1, 0, 0]))) <= 1e-12
    assert np.max(np.abs(report.flip_field_at_image - np.array([-1, 0, 0]))) <= 1e-12
    # the bundle map does not push fields to image fields
    assert np.max(np.abs(report.rotation_bundle_value - np.array([1, 0, 0]))) <= 1e-12
    want = np.array([math.cos(1.0), 0.0, 0.0])
    assert np.max(np.abs(report.rotation_field_value - want)) <= 1e-12


def test_relation_checks_full_group(gl3_model, gl3, gl3_pair):
    from liecheck import ExactMatrix
    op = operator_sandwich(gl3, identity_matrix(3), identity_matrix(3))
    report = relation_checks(gl3_model, gl3_pair, op, samples=50, seed=23)
    assert report.alpha_related_max <= RELATION_TOL
    assert report.base_consistency_max <= RELATION_TOL
    assert report.stabilizer_max is None and report.flip_pushforward is None


# -- full runs ----------------------------------------------------------------

def test_run_harness_sphere(so3, so3_pair):
    op = operator_ad(so3, so3.basis_vector("k0"))
    report = run_harness(so3_pair, op, samples=20)
    assert report.passed
    assert report.nijenhuis_exact
    assert report.max_deviation <= 1e-5
    assert report.max_numerical <= 1e-5


def test_run_harness_sandwich(gl3, gl3_pair):
    from liecheck import ExactMatrix
    a = ExactMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    b = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    report = run_harness(gl3_pair, operator_sandwich(gl3, a, b), samples=20)
    assert report.passed
    assert not report.nijenhuis_exact
    assert report.max_deviation <= 1e-5
    assert report.max_numerical > 1.0


@pytest.mark.parametrize("samples", [0, -3])
def test_sample_count_below_one_is_an_error(samples, so3, so3_pair, sphere):
    op = operator_ad(so3, so3.basis_vector("k0"))
    with pytest.raises(LieCheckError, match=r"^the sample count \(--samples\) must be an "
                                            rf"integer in \[1, 1000000\], not {samples}$"):
        run_harness(so3_pair, op, samples=samples)
    with pytest.raises(LieCheckError, match="at least 1 sample"):
        relation_checks(sphere, so3_pair, op, samples=samples)


@pytest.mark.parametrize("bad, message", [
    *(({"samples": n}, rf"\(--samples\) must be an integer in \[1, 1000000\], not {n}$")
      for n in (0, 10 ** 6 + 1, 2.5)),
    *(({"h": h}, rf"\(--step\) must lie in \[{MIN_STEP}, {MAX_STEP}\], not {h!r}$")
      for h in (MIN_STEP / 2, 0.5, math.nan, math.inf, -math.inf)),
    ({"seed": -1}, "^the seed must be a non-negative integer, not -1$"),
], ids=["samples-0", "samples-cap", "samples-not-integer", "h-small", "h-large", "h-nan", "h-inf", "h-minus-inf",
        "seed"])
def test_run_harness_checks_every_bound_first(monkeypatch, so3, so3_pair, bad, message):
    # The command line passes its options on unchecked, so run_harness holds
    # a library call to the same bounds, before it builds a float model.
    def no_model(pair):
        raise AssertionError("a float model was built")

    monkeypatch.setattr(harness, "build_model", no_model)
    op = operator_ad(so3, so3.basis_vector("k0"))
    with pytest.raises(LieCheckError, match=message):
        run_harness(so3_pair, op, **bad)


def _retained_bytes(run) -> int:
    """The memory that ``run()``'s result holds, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()  # held while the memory is read
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_run_harness_report_memory_per_sample(gl3, gl3_pair):
    # The report keeps three float columns: 24 bytes a sample.
    from liecheck import ExactMatrix
    op = operator_sandwich(gl3, identity_matrix(3),
                           ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    run_harness(gl3_pair, op, samples=1)  # load numpy before measuring
    small, large = (_retained_bytes(lambda n=n: run_harness(gl3_pair, op, samples=n))
                    for n in (harness.CHUNK, 20 * harness.CHUNK))
    assert (large - small) / (19 * harness.CHUNK) < 100


# -- NaN must fail the float gates ----------------------------------------------

def test_run_harness_nan_theta_fails(so3, so3_pair):
    # A NaN in one entry of any sphere demo vector, as a NaN angle would
    # put into the rotation demo, fails the demo gate.
    op = operator_ad(so3, so3.basis_vector("k0"))
    report = run_harness(so3_pair, op, samples=2)
    assert report.passed is True
    for name in ("flip_pushforward", "flip_field_at_image", "rotation_bundle_value",
                 "rotation_field_value"):
        relation = copy.copy(report.relation)
        vector = getattr(relation, name).copy()
        vector[0] = np.nan
        setattr(relation, name, vector)
        nan_report = copy.copy(report)
        nan_report.relation = relation
        assert nan_report.passed is False, name


def test_deviation_report_nan_deviation_fails(so3, so3_pair):
    op = operator_ad(so3, so3.basis_vector("k0"))
    report = run_harness(so3_pair, op, samples=2)
    assert report.passed is True
    deviation = report.deviation.copy()
    deviation[0] = float("nan")
    nan_report = DeviationReport(
        report.model_kind, report.h, report.seed, report.relation,
        report.nijenhuis_exact, deviation, report.numerical_max, report.predicted_max)
    assert nan_report.passed is False


def test_reports_compare_field_by_field(so3, so3_pair, gl3, gl3_pair):
    # Array fields compare as a whole, so == gives a bool, never an array or
    # a ValueError; the sphere's relation report holds arrays too.  NaN
    # equals NaN, so a report equals itself.
    cases = ((so3_pair, operator_ad(so3, so3.basis_vector("k0"))),
             (gl3_pair, operator_sandwich(gl3, identity_matrix(3), identity_matrix(3))))
    for pair, op in cases:
        report = run_harness(pair, op, samples=3)
        assert (report == report) is True
        assert (report == run_harness(pair, op, samples=3)) is True
        fields = [getattr(report, name) for name in DeviationReport.__slots__]
        fields[5] = report.deviation + 1.0
        assert (report == DeviationReport(*fields)) is False
        assert (report != DeviationReport(*fields)) is True
        fields[5] = report.deviation.copy()
        fields[5][1] = float("nan")
        with_nan = DeviationReport(*fields)
        assert (with_nan == with_nan) is True
        assert (with_nan == DeviationReport(*fields)) is True
        assert (with_nan == report) is False
        fields[5] = report.deviation[:2]
        assert (report == DeviationReport(*fields)) is False


def _nan_at(monkeypatch, stack_index):
    """Make the first sample of the ``stack_index``-th stack NaN; returns the
    list of stacks seen."""
    real = harness.numerical_torsion
    stacks = []

    def first_sample_nan(*args, **kwargs):
        stack = real(*args, **kwargs)
        if len(stacks) == stack_index:
            stack.deviation[0] = float("nan")
        stacks.append(stack)
        return stack

    monkeypatch.setattr(harness, "numerical_torsion", first_sample_nan)
    return stacks


def _record_stacks(monkeypatch):
    """Record ``(points, v, w, result)`` for each stack that
    :func:`run_harness` evaluates; returns the list of stacks seen."""
    real = harness.numerical_torsion
    stacks = []

    def recording(model, op, v, w, p, *args):
        stack = real(model, op, v, w, p, *args)
        stacks.append((p, v, w, stack))
        return stack

    monkeypatch.setattr(harness, "numerical_torsion", recording)
    return stacks


def test_run_harness_keeps_nan_deviation(monkeypatch, so3, so3_pair):
    # Only the first sample is NaN: a running max() would drop it.
    stacks = _nan_at(monkeypatch, 0)
    op = operator_ad(so3, so3.basis_vector("k0"))
    report = run_harness(so3_pair, op, samples=3)
    assert [len(s.deviation) for s in stacks] == [3]
    assert math.isnan(report.deviation[0])
    assert math.isnan(report.max_deviation)
    assert report.passed is False


def test_run_harness_keeps_nan_deviation_at_chunk_boundary(monkeypatch, so3, so3_pair):
    # The NaN is the first sample of the second stack.
    stacks = _nan_at(monkeypatch, 1)
    op = operator_ad(so3, so3.basis_vector("k0"))
    report = run_harness(so3_pair, op, samples=harness.CHUNK + 1)
    assert [len(s.deviation) for s in stacks] == [harness.CHUNK, 1]
    assert math.isnan(report.deviation[harness.CHUNK])
    assert math.isnan(report.max_deviation)
    assert report.passed is False


# -- stacks of points ----------------------------------------------------------

def _stack(model, rng, count):
    points = np.stack([random_point(model, rng)[1] for _ in range(count)])
    v = rng.uniform(-1, 1, (count, model.dim))
    w = rng.uniform(-1, 1, (count, model.dim))
    return points, v, w


@pytest.mark.parametrize("kind", ["sphere", "gl3"])
def test_stack_matches_point_by_point(kind, so3, so3_pair, gl3, gl3_pair):
    from liecheck import ExactMatrix
    if kind == "sphere":
        pair, op = so3_pair, sphere_family(so3, 1, 2, -2)
    else:
        a = ExactMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        b = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        pair, op = gl3_pair, operator_sandwich(gl3, a, b)
    model = build_model(pair)
    p, v, w = _stack(model, np.random.default_rng(29), 7)
    z = projected_field(model, w, p)
    stack = numerical_torsion(model, op, v, w, p)
    mapped = bundle_map(model, op, p, z)
    assert stack.deviation.shape == (7,)
    for i in range(7):
        one = numerical_torsion(model, op, v[i], w[i], p[i])
        for name in ("numerical", "predicted"):
            assert np.max(np.abs(getattr(stack, name)[i] - getattr(one, name))) <= 1e-12
        for name in ("deviation", "numerical_max", "predicted_max"):
            assert abs(getattr(stack, name)[i] - getattr(one, name)) <= 1e-12
        assert np.max(np.abs(mapped[i] - bundle_map(model, op, p[i], z[i]))) <= 1e-12


def test_stack_guards_sphere(sphere, so3, so3_pair):
    op = operator_ad(so3, so3.basis_vector("k0"))
    p, v, w = _stack(sphere, np.random.default_rng(31), 5)
    z = projected_field(sphere, w, p)
    off = p.copy()
    off[2] *= 1.01
    with pytest.raises(PointOffManifold):
        projected_field(sphere, v, off)
    with pytest.raises(PointOffManifold):
        bundle_map(sphere, op, off, z)
    with pytest.raises(PointOffManifold):
        numerical_torsion(sphere, op, v, w, off)
    x = sphere.ambient_extension(lambda q: projected_field(sphere, v, q))
    with pytest.raises(PointOffManifold):
        fd_bracket(sphere, x, x, off, 1e-4)
    antipode = p.copy()
    antipode[3] = -P0
    with pytest.raises(SectionSingular):
        bundle_map(sphere, op, antipode, z)
    with pytest.raises(SectionSingular):
        numerical_torsion(sphere, op, v, w, antipode)
    with pytest.raises(StepTooSmall):
        fd_bracket(sphere, x, x, p, 1e-9)
    with pytest.raises(StepTooSmall):
        numerical_torsion(sphere, op, v, w, p, 1e-9)


def test_stack_guards_full_group(gl3_model, gl3, gl3_pair):
    from liecheck import ExactMatrix
    op = operator_sandwich(gl3, identity_matrix(3), identity_matrix(3))
    p, v, w = _stack(gl3_model, np.random.default_rng(37), 5)
    z = projected_field(gl3_model, w, p)
    singular = p.copy()
    singular[1, 2] = singular[1, 0] + singular[1, 1]
    with pytest.raises(PointOffManifold):
        projected_field(gl3_model, v, singular)
    with pytest.raises(PointOffManifold):
        bundle_map(gl3_model, op, singular, z)
    with pytest.raises(PointOffManifold):
        numerical_torsion(gl3_model, op, v, w, singular)


def test_expm_stack_matches_single():
    rng = np.random.default_rng(41)
    # norms from far below to far above the scaling threshold
    a = rng.normal(size=(6, 3, 3)) * np.array([1e-3, 0.1, 0.3, 1.0, 4.0, 20.0])[:, None, None]
    stacked = expm(a)
    for i in range(6):
        single = expm(a[i])
        assert np.max(np.abs(stacked[i] - single)) <= 1e-12 * max(1.0, np.max(np.abs(single)))


def _reference_draws(model, rng, count):
    """The per-sample loop the stacked draw must reproduce, one
    ``rng.random()`` at a time: a point (retried near the antipode on the
    sphere), then v, then w.  Returns the samples and the number of redraws
    before each point."""

    def uniform(low, high):
        return np.array([low + (high - low) * rng.random() for _ in range(model.dim)])

    out, redraws = [], []
    for _ in range(count):
        tries = 0
        while True:
            if model.kind == "full-group":
                g = expm(model.element(uniform(-0.3, 0.3)))
                p = g
                break
            g = expm(model.element(uniform(-1.0, 1.0)))
            p = g @ P0
            p = p / np.linalg.norm(p)
            if np.linalg.norm(p + P0) > harness.ANTIPODE_SAMPLING_CAP:
                break
            tries += 1
        out.append((p, uniform(-1.0, 1.0), uniform(-1.0, 1.0)))
        redraws.append(tries)
    return out, redraws


@pytest.mark.parametrize("cap", [harness.ANTIPODE_SAMPLING_CAP, 1.9])
def test_run_harness_draws_in_per_sample_order(monkeypatch, cap, so3, so3_pair):
    # Cap 1.9 rejects every point more than about 36 degrees from the pole:
    # with seed 43, 82 redraws among 40 samples, up to 11 of them in a row.
    monkeypatch.setattr(harness, "ANTIPODE_SAMPLING_CAP", cap)
    stacks = _record_stacks(monkeypatch)
    op = operator_ad(so3, so3.basis_vector("k0"))
    report = run_harness(so3_pair, op, samples=40, seed=43)
    model = build_model(so3_pair)
    want, redraws = _reference_draws(model, random.Random(43), 40)
    if cap == 1.9:
        assert sum(redraws) >= 40 and max(redraws) >= 2
    points, vs, ws = (np.concatenate(column) for column in list(zip(*stacks))[:3])
    assert len(points) == len(report.deviation) == 40
    for point, sv, sw, (p, v, w) in zip(points, vs, ws, want):
        assert np.max(np.abs(point - p)) <= 1e-12
        assert np.array_equal(sv, v) and np.array_equal(sw, w)


def test_uniform_is_the_random_stream():
    # Bitwise the floats of rng.random(), and a draw split in two gives the
    # values of one draw of the combined length.
    for count in (1, 2, 3, 7, 64, 1000):
        reference = random.Random(count)
        want = [reference.random() for _ in range(count)]
        rng = random.Random(count)
        got = harness._uniform(rng, count)
        assert got.dtype == np.float64 and got.tolist() == want
        assert rng.getstate() == reference.getstate()
        for cut in (0, 1, count // 2, count):
            rng = random.Random(count)
            parts = np.concatenate([harness._uniform(rng, cut),
                                    harness._uniform(rng, count - cut)])
            assert parts.tolist() == want


@pytest.mark.parametrize("seed", [-1, 1.0, "1"])
def test_seed_must_be_a_non_negative_integer(so3, so3_pair, seed):
    # random.Random would take -1 as 1 and hash a str; neither is a seed.
    # An integer of another type, such as a numpy integer, is one.
    op = operator_ad(so3, so3.basis_vector("k0"))
    assert run_harness(so3_pair, op, samples=1, seed=np.int64(3)) == run_harness(
        so3_pair, op, samples=1, seed=3)
    with pytest.raises(LieCheckError, match="^the seed must be a non-negative integer"):
        run_harness(so3_pair, op, samples=1, seed=seed)


def test_chunking_changes_nothing(monkeypatch, gl3, gl3_pair):
    from liecheck import ExactMatrix
    a = ExactMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    b = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    op = operator_sandwich(gl3, a, b)
    chunk = harness.CHUNK
    stacks = _record_stacks(monkeypatch)
    long = run_harness(gl3_pair, op, samples=2 * chunk + 1, seed=47)
    short = run_harness(gl3_pair, op, samples=chunk, seed=47)
    assert [len(p) for p, *_ in stacks] == [chunk, chunk, 1, chunk]
    assert len(long.deviation) == 2 * chunk + 1 and len(short.deviation) == chunk
    (*long_in, long_out), (*short_in, short_out) = stacks[0], stacks[3]
    for x, y in zip(long_in, short_in):
        assert np.max(np.abs(x - y)) <= 1e-12
    for name in ("numerical", "predicted"):
        assert np.max(np.abs(getattr(long_out, name) - getattr(short_out, name))) <= 1e-12
    for name in ("deviation", "numerical_max", "predicted_max"):
        assert np.max(np.abs(getattr(long, name)[:chunk] - getattr(short, name))) <= 1e-12
