"""Floating-point models of matrix homogeneous spaces.

Two model kinds are supported: the unit-sphere orbit of the 3-dimensional
rotation algebra (base point the north pole), and the full matrix group of a
matrix-generated algebra with trivial stabilizer.  Vector fields are pushed
down from the algebra, bundle maps are evaluated through a local section, and
Lie brackets of fields are computed by central differences, so the algebraic
torsion criterion can be cross-validated against the manifold-level torsion
at concrete points.

Convention: the pushed-down fields come from right-invariant fields, so the
bracket of two such fields is minus the field of the algebra bracket,
``[Xv, Xw] = -X[v,w]``.  (Left-invariant fields would give the opposite
sign; the harness tests the right-invariant convention throughout.)

Sphere fields are extended off the sphere by radial retraction ``z -> z/|z|``
before differencing; torsion values at on-sphere points are insensitive to
the choice of extension because the torsion is a tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    LieCheckError,
    PointOffManifold,
    SectionSingular,
    StepTooSmall,
)
from .exact import ExactMatrix, GaussianRational
from .operators import HomogeneousPair, LinearOperator
from .torsion import check_nijenhuis

DEFAULT_STEP = 1e-4
MIN_STEP = 1e-8
MAX_STEP = 1e-1
DEFAULT_SAMPLES = 20
DEFAULT_SEED = 0
SPHERE_TOL = 1e-9
SECTION_CAP = 1e-6
ANTIPODE_SAMPLING_CAP = 1e-3
RELATION_TOL = 1e-10
TORSION_TOL = 1e-5
DEMO_TOL = 1e-12
STRUCTURE_TOL = 1e-12

_P0 = np.array([0.0, 0.0, 1.0])

# The rotation algebra in its standard 3x3 realization, ordered as
# (z-axis rotation, then the two generators moving the pole).
_SO3_STANDARD = (
    np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]),
)
_SO3_TENSOR = {(0, 1): (0, 0, -1), (0, 2): (0, 1, 0), (1, 2): (-1, 0, 0)}


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated series.

    The argument is scaled below norm 1/4, the series is summed until the
    terms fall below 1e-18 relative size, and the result is squared back up;
    accuracy is well below 1e-12 for the matrices used here.
    """
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    norm = np.linalg.norm(a, 1)
    squarings = 0
    if norm > 0.25:
        squarings = int(math.ceil(math.log2(norm / 0.25)))
        a = a / (2.0 ** squarings)
    n = a.shape[0]
    result = np.eye(n, dtype=a.dtype)
    term = np.eye(n, dtype=a.dtype)
    for k in range(1, 40):
        term = term @ a / k
        result = result + term
        if np.linalg.norm(term, 1) < 1e-18 * max(1.0, np.linalg.norm(result, 1)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def _float_matrix(m: ExactMatrix) -> np.ndarray:
    if any(isinstance(e, GaussianRational) and e.im != 0 for e in m.entries):
        data = [complex(e) if isinstance(e, GaussianRational) else float(e)
                for e in m.entries]
        return np.array(data, dtype=complex).reshape(m.rows, m.cols)
    data = [float(e.re) if isinstance(e, GaussianRational) else float(e)
            for e in m.entries]
    return np.array(data, dtype=float).reshape(m.rows, m.cols)


def _hat(u: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, -u[2], u[1]],
        [u[2], 0.0, -u[0]],
        [-u[1], u[0], 0.0],
    ])


class MatrixModel:
    """A concrete float realization mirroring an exact algebra basis."""

    def __init__(self, kind: str, generators: Sequence[np.ndarray],
                 base_point: np.ndarray, structure: np.ndarray, labels: tuple):
        if kind not in ("sphere-orbit", "full-group"):
            raise LieCheckError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.generators = [np.asarray(g) for g in generators]
        self.n = self.generators[0].shape[0]
        self.base_point = np.asarray(base_point)
        self.structure = np.asarray(structure, dtype=float)
        self.labels = labels
        self.dim = len(self.generators)
        self._verify_commutators()
        flat = np.stack([self._flatten(g) for g in self.generators], axis=1)
        self._coord_pinv = np.linalg.pinv(flat)
        if kind == "sphere-orbit":
            tang = np.stack([g @ _P0 for g in self.generators], axis=1)
            self._base_pinv = np.linalg.pinv(tang)

    def _flatten(self, m: np.ndarray) -> np.ndarray:
        v = np.asarray(m).reshape(-1)
        if np.iscomplexobj(v):
            return np.concatenate([v.real, v.imag])
        return v.astype(float)

    def _verify_commutators(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                comm = self.generators[i] @ self.generators[j] \
                    - self.generators[j] @ self.generators[i]
                expected = sum(
                    self.structure[i, j, k] * self.generators[k]
                    for k in range(self.dim)
                )
                scale = max(1.0, float(np.max(np.abs(comm))))
                if float(np.max(np.abs(comm - expected))) > STRUCTURE_TOL * scale:
                    raise LieCheckError(
                        "model generators do not reproduce the structure constants"
                    )

    # -- geometry -------------------------------------------------------------

    def element(self, v: Sequence) -> np.ndarray:
        coeff = np.asarray([float(x) for x in v])
        return sum(c * g for c, g in zip(coeff, self.generators))

    def retract(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "sphere-orbit":
            return z / np.linalg.norm(z)
        return z

    def check_point(self, p: np.ndarray):
        if self.kind == "sphere-orbit":
            if abs(np.linalg.norm(p) - 1.0) > SPHERE_TOL:
                raise PointOffManifold("point is not on the unit sphere")
        else:
            if abs(np.linalg.det(p)) < 1e-12:
                raise PointOffManifold("point is not an invertible matrix")

    def section(self, p: np.ndarray) -> np.ndarray:
        """A group element g with g(base) = p; smooth away from the antipode."""
        if self.kind == "full-group":
            return p
        c = float(np.dot(_P0, p))
        if np.linalg.norm(p + _P0) < SECTION_CAP:
            raise SectionSingular("point too close to the antipode of the base point")
        axis = np.cross(_P0, p)
        s = np.linalg.norm(axis)
        if s < 1e-15:
            return np.eye(3)
        k = _hat(axis / s)
        return np.eye(3) + s * k + (1.0 - c) * (k @ k)

    def algebra_coords(self, m: np.ndarray) -> np.ndarray:
        """Least-squares coordinates of an ambient matrix in the generator span."""
        return self._coord_pinv @ self._flatten(m)

    def base_tangent_coords(self, z0: np.ndarray) -> np.ndarray:
        """Coordinates v with (sum v_i G_i) base = z0, minimal-norm choice."""
        if self.kind == "full-group":
            return self.algebra_coords(z0)
        return self._base_pinv @ z0

    def push(self, g: np.ndarray, v: Sequence) -> np.ndarray:
        """The algebra element v carried to the point g(base): g (sum v_i G_i) base."""
        if self.kind == "full-group":
            return g @ self.element(v)
        return g @ (self.element(v) @ _P0)

    def ambient_extension(self, field_fn: Callable) -> Callable:
        """Extend a manifold field to ambient points via the retraction."""
        return lambda z: field_fn(self.retract(z))

    def random_group_element(self, rng: np.random.Generator, spread: float = 1.0) -> np.ndarray:
        coeff = rng.uniform(-spread, spread, size=self.dim)
        return expm(self.element(coeff))

    def random_point(self, rng: np.random.Generator):
        """A random (group element, point) sample away from singular loci.

        Full-group samples stay near the identity: the deviation tolerance is
        absolute, and conjugation by far-away elements inflates the fields
        (and so the finite-difference truncation error) exponentially.
        """
        while True:
            if self.kind == "full-group":
                g = self.random_group_element(rng, spread=0.3)
                return g, g
            g = self.random_group_element(rng)
            p = g @ _P0
            p = p / np.linalg.norm(p)
            if np.linalg.norm(p + _P0) > ANTIPODE_SAMPLING_CAP:
                return g, p


def build_model(pair: HomogeneousPair) -> MatrixModel:
    """Choose the float model matching a pair, or explain why none fits."""
    alg = pair.alg
    structure = np.array(
        [[[float(alg.c[i][j][k]) for k in range(alg.dim)]
          for j in range(alg.dim)] for i in range(alg.dim)]
    )
    if pair.k.dim == 0:
        if alg.matrix_generators is None:
            raise LieCheckError(
                "the full-group model needs an algebra built from matrix generators"
            )
        gens = [_float_matrix(g) for g in alg.matrix_generators]
        return MatrixModel("full-group", gens, np.eye(gens[0].shape[0]),
                           structure, alg.basis_labels)
    if alg.dim == 3 and pair.k.dim == 1:
        if alg.matrix_generators is not None:
            gens = [_float_matrix(g) for g in alg.matrix_generators]
            if gens[0].shape != (3, 3):
                raise LieCheckError("the sphere model needs 3x3 generators")
            for g in gens:
                if float(np.max(np.abs(g + g.T))) > 1e-12:
                    raise LieCheckError(
                        "sphere-model generators must be antisymmetric (rotations)"
                    )
        else:
            if any(tuple(alg.c[i][j]) != want for (i, j), want in _SO3_TENSOR.items()):
                raise LieCheckError(
                    "no matrix realization: the structure constants are not the "
                    "standard rotation-algebra table"
                )
            gens = [g.copy() for g in _SO3_STANDARD]
        model = MatrixModel("sphere-orbit", gens, _P0.copy(), structure,
                            alg.basis_labels)
        for row in pair.k.space.vectors():
            if np.linalg.norm(model.element(row) @ _P0) > 1e-12:
                raise LieCheckError(
                    "the subalgebra does not stabilize the base point"
                )
        return model
    raise LieCheckError(
        "no numerical model for this pair (supported: trivial stabilizer on a "
        "matrix algebra, or the 3-dimensional rotation pair)"
    )


# ---------------------------------------------------------------------------
# fields, bundle map, finite differences
# ---------------------------------------------------------------------------

def projected_field(model: MatrixModel, v: Sequence, p: np.ndarray) -> np.ndarray:
    """The pushed-down field of an algebra element: p -> (element v) p."""
    model.check_point(p)
    return model.element(v) @ p


def bundle_map(model: MatrixModel, pair: HomogeneousPair, op: LinearOperator,
               p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Apply the induced bundle map at p to a tangent vector z."""
    model.check_point(p)
    return _bundle_with_section(model, op, model.section(p), z)


def _bundle_with_section(model: MatrixModel, op: LinearOperator,
                         g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The bundle map at g(base) through the representative g: pull z back
    to the base, apply the operator there, push the result forward by g."""
    iv = _float_matrix(op.matrix) @ model.base_tangent_coords(np.linalg.solve(g, z))
    return model.push(g, iv)


def fd_bracket(model: MatrixModel, x_field: Callable, y_field: Callable,
               p: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Lie bracket [X, Y](p) = Y_*(X_p) - X_*(Y_p).

    The fields must be defined on an ambient neighborhood of p (use
    :meth:`MatrixModel.ambient_extension` for fields living on the sphere).
    The truncation error is O(h^2).
    """
    if h < MIN_STEP:
        raise StepTooSmall(f"step {h} below the minimum {MIN_STEP}")
    model.check_point(p)
    xp = x_field(p)
    yp = y_field(p)
    dy = (y_field(p + h * xp) - y_field(p - h * xp)) / (2.0 * h)
    dx = (x_field(p + h * yp) - x_field(p - h * yp)) / (2.0 * h)
    return dy - dx


def _bracket_float(model: MatrixModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("i,j,ijk->k", x, y, model.structure)


def _torsion_half(model: MatrixModel, op_float: np.ndarray,
                  v: np.ndarray, w: np.ndarray) -> np.ndarray:
    iv = op_float @ v
    iw = op_float @ w
    return (
        op_float @ _bracket_float(model, v, iw)
        + op_float @ _bracket_float(model, iv, w)
        - _bracket_float(model, iv, iw)
        - op_float @ (op_float @ _bracket_float(model, v, w))
    )


def _torsion_float(model: MatrixModel, op_float: np.ndarray,
                   v: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Explicit antisymmetrization: a mathematical no-op that makes the
    # diagonal bitwise zero instead of rounding dust.
    return 0.5 * (_torsion_half(model, op_float, v, w)
                  - _torsion_half(model, op_float, w, v))


@dataclass
class FieldSample:
    """Numerical torsion vs algebraic prediction at one sampled point."""

    point: np.ndarray
    v: np.ndarray
    w: np.ndarray
    h: float
    numerical: np.ndarray
    predicted: np.ndarray
    deviation: float


def numerical_torsion(model: MatrixModel, pair: HomogeneousPair,
                      op: LinearOperator, v: Sequence, w: Sequence,
                      p: np.ndarray, h: float = DEFAULT_STEP) -> FieldSample:
    """Evaluate the manifold torsion of the induced map on two pushed-down
    fields by four finite-difference brackets, next to the algebraic
    prediction transported to the same point."""
    model.check_point(p)
    v = np.asarray([float(x) for x in v])
    w = np.asarray([float(x) for x in w])

    x_field = model.ambient_extension(lambda q: projected_field(model, v, q))
    y_field = model.ambient_extension(lambda q: projected_field(model, w, q))
    nx_field = model.ambient_extension(
        lambda q: bundle_map(model, pair, op, q, projected_field(model, v, q))
    )
    ny_field = model.ambient_extension(
        lambda q: bundle_map(model, pair, op, q, projected_field(model, w, q))
    )

    b1 = fd_bracket(model, nx_field, y_field, p, h)
    b2 = fd_bracket(model, x_field, ny_field, p, h)
    b3 = fd_bracket(model, nx_field, ny_field, p, h)
    b4 = fd_bracket(model, x_field, y_field, p, h)
    omega = (
        bundle_map(model, pair, op, p, b1)
        + bundle_map(model, pair, op, p, b2)
        - b3
        - bundle_map(model, pair, op, p, bundle_map(model, pair, op, p, b4))
    )

    g = model.section(p)
    g_inv = np.linalg.inv(g)
    v0 = model.algebra_coords(g_inv @ model.element(v) @ g)
    w0 = model.algebra_coords(g_inv @ model.element(w) @ g)
    op_float = _float_matrix(op.matrix)
    predicted = model.push(g, _torsion_float(model, op_float, v0, w0))
    deviation = float(np.max(np.abs(omega - predicted)))
    return FieldSample(p, v, w, h, omega, predicted, deviation)


# ---------------------------------------------------------------------------
# relation checks and the harness report
# ---------------------------------------------------------------------------

@dataclass
class RelationReport:
    """Residuals of the exact push-forward identities, plus the two
    demonstration computations on the sphere (None for other models)."""

    samples: int
    seed: int
    theta: float
    alpha_related_max: float
    base_consistency_max: float
    stabilizer_max: Optional[float] = None
    rep_independence_max: Optional[float] = None
    flip_pushforward: Optional[np.ndarray] = None
    flip_field_at_image: Optional[np.ndarray] = None
    rotation_bundle_value: Optional[np.ndarray] = None
    rotation_field_value: Optional[np.ndarray] = None

    @property
    def max_residual(self) -> float:
        vals = [self.alpha_related_max, self.base_consistency_max]
        if self.stabilizer_max is not None:
            vals.append(self.stabilizer_max)
        if self.rep_independence_max is not None:
            vals.append(self.rep_independence_max)
        return float(np.max(vals))


def _worst(acc: float, x: float) -> float:
    """Running maximum that keeps a NaN (``max(0.0, nan)`` is 0.0), so that
    a NaN deviation fails its gate."""
    return float(np.maximum(acc, x))


def relation_checks(model: MatrixModel, pair: HomogeneousPair,
                    op: LinearOperator, *, samples: int = 100,
                    theta: float = 1.0, seed: int = DEFAULT_SEED) -> RelationReport:
    """Verify the push-forward identities at sampled points.

    Checks the transport identity h Xv(h^-1 p) = X(Ad_h v)(p), the two
    equivalent expressions for a pushed-down field, the stabilizer
    equivariance at the base point, and independence of the bundle map from
    the choice of section representative.  Also evaluates the two sphere
    demonstrations: the pushed field is not invariant under the group action,
    and the bundle map applied to a pushed field differs from the pushed
    image field.
    """
    rng = np.random.default_rng(seed)
    alpha_max = 0.0
    base_max = 0.0
    for _ in range(samples):
        h_el = model.random_group_element(rng)
        g, p = model.random_point(rng)
        v = rng.uniform(-1.0, 1.0, size=model.dim)
        velt = model.element(v)
        lhs = h_el @ (velt @ np.linalg.solve(h_el, p))
        advh = model.algebra_coords(h_el @ velt @ np.linalg.inv(h_el))
        rhs = model.element(advh) @ p
        alpha_max = _worst(alpha_max, float(np.max(np.abs(lhs - rhs))))
        # Two expressions for the pushed-down field at p = g(base).
        adg = model.algebra_coords(np.linalg.inv(g) @ velt @ g)
        base_max = _worst(base_max, float(np.max(np.abs(velt @ p - model.push(g, adg)))))

    stab_max = None
    rep_max = None
    flip_push = flip_field = rot_bundle = rot_field = None
    if model.kind == "sphere-orbit":
        k_row = pair.k.space.vectors()[0]
        k_gen = model.element(k_row)
        stab_max = 0.0
        rep_max = 0.0
        for _ in range(samples):
            t = float(rng.uniform(-math.pi, math.pi))
            k_el = expm(t * k_gen)
            v = rng.uniform(-1.0, 1.0, size=model.dim)
            velt = model.element(v)
            lhs = k_el @ (velt @ _P0)
            rhs = model.element(model.algebra_coords(k_el @ velt @ np.linalg.inv(k_el))) @ _P0
            stab_max = _worst(stab_max, float(np.max(np.abs(lhs - rhs))))

            g, p = model.random_point(rng)
            z = model.element(rng.uniform(-1.0, 1.0, size=model.dim)) @ p
            sec = model.section(p)
            n1 = _bundle_with_section(model, op, sec, z)
            n2 = _bundle_with_section(model, op, sec @ k_el, z)
            rep_max = _worst(rep_max, float(np.max(np.abs(n1 - n2))))

        flip = np.diag([1.0, -1.0, -1.0])
        e1 = model.generators[1]
        flip_push = flip @ (e1 @ _P0)
        flip_field = e1 @ (flip @ _P0)

        g_rot = expm(theta * model.generators[2])
        p_rot = g_rot @ _P0
        v2 = np.zeros(model.dim)
        v2[2] = 1.0
        z = projected_field(model, v2, p_rot)
        rot_bundle = bundle_map(model, pair, op, p_rot, z)
        op_float = _float_matrix(op.matrix)
        rot_field = projected_field(model, op_float @ v2, p_rot)

    return RelationReport(
        samples=samples, seed=seed, theta=theta,
        alpha_related_max=alpha_max, base_consistency_max=base_max,
        stabilizer_max=stab_max, rep_independence_max=rep_max,
        flip_pushforward=flip_push, flip_field_at_image=flip_field,
        rotation_bundle_value=rot_bundle, rotation_field_value=rot_field,
    )


@dataclass
class DeviationReport:
    """Everything a harness run produced, with pass/fail bookkeeping."""

    model_kind: str
    h: float
    seed: int
    samples: list
    relation: RelationReport
    nijenhuis_exact: bool
    max_deviation: float
    max_numerical: float
    tolerances: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        # Each gate is written "not (x <= tol)" so that a NaN fails it.
        if not (self.max_deviation <= self.tolerances.get("torsion", TORSION_TOL)):
            return False
        if not (self.relation.max_residual <= self.tolerances.get("relation", RELATION_TOL)):
            return False
        if self.nijenhuis_exact and not (
            self.max_numerical <= self.tolerances.get("torsion", TORSION_TOL)
        ):
            return False
        if self.relation.flip_pushforward is not None:
            demo = self.tolerances.get("demo", DEMO_TOL)
            theta = self.relation.theta
            checks = (
                (self.relation.flip_pushforward, np.array([1.0, 0.0, 0.0])),
                (self.relation.flip_field_at_image, np.array([-1.0, 0.0, 0.0])),
                (self.relation.rotation_bundle_value, np.array([1.0, 0.0, 0.0])),
                (self.relation.rotation_field_value,
                 np.array([math.cos(theta), 0.0, 0.0])),
            )
            for got, want in checks:
                if not (float(np.max(np.abs(got - want))) <= demo):
                    return False
        return True


def run_harness(pair: HomogeneousPair, op: LinearOperator, *,
                samples: int = DEFAULT_SAMPLES, h: float = DEFAULT_STEP,
                seed: int = DEFAULT_SEED, theta: float = 1.0) -> DeviationReport:
    """Full harness: relation checks plus sampled torsion cross-validation."""
    model = build_model(pair)
    torsion_report = check_nijenhuis(pair, op)
    relation = relation_checks(model, pair, op, samples=max(20, samples),
                               theta=theta, seed=seed)
    rng = np.random.default_rng(seed)
    collected = []
    max_dev = 0.0
    max_num = 0.0
    for _ in range(samples):
        _, p = model.random_point(rng)
        v = rng.uniform(-1.0, 1.0, size=model.dim)
        w = rng.uniform(-1.0, 1.0, size=model.dim)
        sample = numerical_torsion(model, pair, op, v, w, p, h)
        collected.append(sample)
        max_dev = _worst(max_dev, sample.deviation)
        max_num = _worst(max_num, float(np.max(np.abs(sample.numerical))))
    return DeviationReport(
        model_kind=model.kind,
        h=h,
        seed=seed,
        samples=collected,
        relation=relation,
        nijenhuis_exact=torsion_report.verdict,
        max_deviation=max_dev,
        max_numerical=max_num,
        tolerances={"torsion": TORSION_TOL, "relation": RELATION_TOL, "demo": DEMO_TOL},
    )
