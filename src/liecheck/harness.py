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

Evaluation is batched.  Points, tangent vectors and group elements carry
leading sample axes: a sphere point is ``(..., 3)``, a full-group point or
group element ``(..., n, n)``, algebra coordinates ``(..., dim)``; a single
point is a stack without leading axes.  Every function below, from
:meth:`MatrixModel.element` to :func:`numerical_torsion`, evaluates a whole
stack with a fixed number of array operations, and every guard
(:class:`PointOffManifold`, :class:`SectionSingular`) raises if any one point
of the stack is bad.  The generator stack and the operator matrix are
converted to floats once.  :func:`run_harness` and :func:`relation_checks`
draw their samples from ``random.Random(seed)`` in the order of a per-sample
loop and evaluate them ``CHUNK`` at a time, so the arrays in flight never
hold more than ``CHUNK`` samples whatever the sample count; what grows with
the sample count is only the report's three float columns.  The draws are
those of ``random()``, a stream that does not depend on numpy's version.
numpy itself is imported by the first computation, not by importing this
module, and only numpy's core is used: nothing loads ``numpy.random``.

The ``harness`` command passes its options on unchecked: :func:`run_harness`
checks every input of a run, for the command and library callers alike.
"""

from __future__ import annotations

import math
import numbers
import random
from collections.abc import Callable, Sequence

from . import DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_STEP, MAX_SAMPLES, MAX_STEP, MIN_STEP
from .errors import (
    LieCheckError,
    PointOffManifold,
    SectionSingular,
    StepTooSmall,
)
from .exact import ExactMatrix, GaussianRational
from .operators import HomogeneousPair, LinearOperator
from .torsion import check_nijenhuis
from .values import Value


class _LazyNumpy:
    """Stands in for numpy until the first harness computation, which
    replaces it with the module.  A harness command whose pair has no model
    runs this module but exits 2 before any float work, and never needs
    numpy.  A lazy placeholder module would not do: it sits in
    ``sys.modules`` as ``numpy`` from the start, where code that asks
    whether numpy is imported finds it."""

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

SPHERE_TOL = 1e-9
SECTION_CAP = 1e-6
ANTIPODE_SAMPLING_CAP = 1e-3
RELATION_TOL = 1e-10
TORSION_TOL = 1e-5
DEMO_TOL = 1e-12
# The angle by which the sphere model's bundle-map demo rotates the pole.
DEMO_THETA = 1.0
# The float gates of DeviationReport.passed, as the JSON report prints them.
TOLERANCES = {"torsion": TORSION_TOL, "relation": RELATION_TOL, "demo": DEMO_TOL}
STRUCTURE_TOL = 1e-12
# Samples evaluated as one stack.  It bounds the arrays in flight: at this
# size a stack of 3x3 matrices is 18 KB.
CHUNK = 256

_P0 = (0.0, 0.0, 1.0)  # the sphere model's base point

# The rotation algebra in its standard 3x3 realization, ordered as
# (z-axis rotation, then the two generators moving the pole).
_SO3_STANDARD = (
    ((0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, -1.0, 0.0)),
)
_SO3_TENSOR = {(0, 1): ((2, -1),), (0, 2): ((1, 1),), (1, 2): ((0, -1),)}


def _norm1(a: np.ndarray) -> np.ndarray:
    """The 1-norm (largest absolute column sum) of each matrix of a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a matrix or a stack ``(..., n, n)`` of them, by
    scaling and squaring with a truncated series.

    Each matrix is scaled below norm 1/4, the series is summed until every
    term falls below 1e-18 relative size, and each result is squared back
    up; accuracy is well below 1e-12 for the matrices used here.
    """
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    norm = _norm1(a)
    big = np.isfinite(norm) & (norm > 0.25)
    squarings = np.where(big, np.ceil(np.log2(np.where(big, norm, 0.25) / 0.25)),
                         0).astype(int)
    a = a / (2.0 ** squarings)[..., None, None]
    result = np.broadcast_to(np.eye(a.shape[-1], dtype=a.dtype), a.shape)
    term = result
    for k in range(1, 40):
        term = term @ a / k
        result = result + term
        if np.all(_norm1(term) < 1e-18 * np.maximum(1.0, _norm1(result))):
            break
    for i in range(int(np.max(squarings, initial=0))):
        result = np.where((i < squarings)[..., None, None], result @ result, result)
    return result


def _float(x, what: str, *where) -> float:
    """``float(x)``, or an input error if x overflows or rounds to 0.0."""
    try:
        f = float(x)
    except OverflowError:
        f = 0.0
    if x and not f:
        raise LieCheckError(what.format(*where) + " is out of the float range")
    return f


def _float_matrix(m: ExactMatrix, what: str) -> np.ndarray:
    """The float matrix of ``m``, complex when an entry is not real."""
    at = what + " entry ({},{})"
    data = np.array([complex(*(_float(x, at, p // m.cols + 1, p % m.cols + 1) for x in (
        (e.re, e.im) if isinstance(e, GaussianRational) else (e, 0))))
        for p, e in enumerate(m.entries)]).reshape(m.rows, m.cols)
    return data if data.imag.any() else data.real.copy()


def _hat(u: np.ndarray) -> np.ndarray:
    """The cross-product matrices of vectors ``(..., 3)``."""
    x, y, z = u[..., 0], u[..., 1], u[..., 2]
    o = np.zeros_like(x)
    return np.stack([np.stack([o, -z, y], axis=-1),
                     np.stack([z, o, -x], axis=-1),
                     np.stack([-y, x, o], axis=-1)], axis=-2)


def _apply(op_float: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A float operator matrix applied to coordinate vectors ``(..., dim)``."""
    return v @ op_float.T


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


class MatrixModel:
    """A concrete float realization mirroring an exact algebra basis."""

    def __init__(self, kind: str, generators: Sequence[np.ndarray],
                 base_point: np.ndarray, structure: np.ndarray, labels: tuple):
        if kind not in ("sphere-orbit", "full-group"):
            raise LieCheckError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.generators = np.stack([np.asarray(g) for g in generators])
        self.dim, self.n = self.generators.shape[:2]
        self.base_point = np.asarray(base_point)
        self.structure = np.asarray(structure, dtype=float)
        self.labels = labels
        # The axes of one point: a vector on the sphere, a matrix on the group.
        self.point_axes = (-1,) if kind == "sphere-orbit" else (-2, -1)
        self._complex = np.iscomplexobj(self.generators)
        self._op = self._op_float = None
        self._verify_commutators()
        self._coord_pinv = np.linalg.pinv(self._flatten(self.generators).T)
        if kind == "sphere-orbit":
            self._base_pinv = np.linalg.pinv((self.generators @ self.base_point).T)

    def _flatten(self, m: np.ndarray) -> np.ndarray:
        flat = np.reshape(m, np.shape(m)[:-2] + (-1,))
        if self._complex:
            return np.concatenate([flat.real, flat.imag], axis=-1)
        return flat

    def _verify_commutators(self):
        g = self.generators
        comm = np.einsum("iab,jbc->ijac", g, g)
        comm = comm - comm.transpose(1, 0, 2, 3)
        expected = np.tensordot(self.structure, g, axes=1)
        scale = np.maximum(1.0, np.abs(comm).max(axis=(-2, -1)))
        if np.any(np.abs(comm - expected).max(axis=(-2, -1)) > STRUCTURE_TOL * scale):
            raise LieCheckError(
                "model generators do not reproduce the structure constants"
            )

    def operator_matrix(self, op: LinearOperator) -> np.ndarray:
        """The float matrix of ``op``; converted once while ``op`` is the
        operator last asked for."""
        if self._op is not op:
            self._op, self._op_float = op, _float_matrix(op.matrix, "operator")
        return self._op_float

    # -- geometry -------------------------------------------------------------

    def element(self, v) -> np.ndarray:
        """The matrices ``sum v_i G_i`` of coordinate vectors ``(..., dim)``."""
        return np.tensordot(np.asarray(v, dtype=float), self.generators, axes=1)

    def act(self, a: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Matrices ``a`` applied to points or tangent vectors ``z``."""
        if self.kind == "sphere-orbit":
            return (a @ z[..., None])[..., 0]
        return a @ z

    def solve(self, a: np.ndarray, z: np.ndarray) -> np.ndarray:
        """``a^-1 z`` for points or tangent vectors ``z``.  A sphere vector
        goes to ``np.linalg.solve`` as a one-column matrix, which numpy 1.x
        and 2.x read alike."""
        if self.kind == "sphere-orbit":
            return np.linalg.solve(a, z[..., None])[..., 0]
        return np.linalg.solve(a, z)

    def retract(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "sphere-orbit":
            return z / np.linalg.norm(z, axis=-1, keepdims=True)
        return z

    def check_point(self, p: np.ndarray):
        if self.kind == "sphere-orbit":
            if np.any(np.abs(np.linalg.norm(p, axis=-1) - 1.0) > SPHERE_TOL):
                raise PointOffManifold("point is not on the unit sphere")
        elif np.any(np.abs(np.linalg.det(p)) < 1e-12):
            raise PointOffManifold("point is not an invertible matrix")

    def section(self, p: np.ndarray) -> np.ndarray:
        """Group elements g with g(base) = p; smooth away from the antipode."""
        if self.kind == "full-group":
            return p
        if np.any(np.linalg.norm(p + self.base_point, axis=-1) < SECTION_CAP):
            raise SectionSingular("point too close to the antipode of the base point")
        c = p[..., 2]
        axis = np.stack([-p[..., 1], p[..., 0], np.zeros_like(c)], axis=-1)  # P0 x p
        s = np.linalg.norm(axis, axis=-1)
        at_pole = s < 1e-15
        k = _hat(axis / np.where(at_pole, 1.0, s)[..., None])
        g = np.eye(3) + s[..., None, None] * k + (1.0 - c)[..., None, None] * (k @ k)
        return np.where(at_pole[..., None, None], np.eye(3), g)

    def algebra_coords(self, m: np.ndarray) -> np.ndarray:
        """Least-squares coordinates of ambient matrices in the generator span."""
        return self._flatten(m) @ self._coord_pinv.T

    def base_tangent_coords(self, z0: np.ndarray) -> np.ndarray:
        """Coordinates v with (sum v_i G_i) base = z0, minimal-norm choice."""
        if self.kind == "full-group":
            return self.algebra_coords(z0)
        return z0 @ self._base_pinv.T

    def push(self, g: np.ndarray, v) -> np.ndarray:
        """The algebra elements v carried to the points g(base): g (sum v_i G_i) base."""
        return self.act(g, self.act(self.element(v), self.base_point))

    def ambient_extension(self, field_fn: Callable) -> Callable:
        """Extend a manifold field to ambient points via the retraction."""
        return lambda z: field_fn(self.retract(z))


def _rng(seed: int) -> random.Random:
    """The sample generator of ``seed``: Python's Mersenne Twister, whose
    ``random()`` stream Python keeps the same across versions."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise LieCheckError(f"the seed must be a non-negative integer, not {seed!r}")
    return random.Random(int(seed))


def _uniform(rng: random.Random, count: int) -> np.ndarray:
    """``count`` draws of ``rng.random()``, bitwise, as one float array.

    ``random()`` builds each double from two 32-bit words, the high 27 and
    26 bits of the first and second; ``getrandbits`` yields the same words
    in order, least significant first.  So splitting a draw into several
    gives the same values."""
    w = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u4")
    return ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) / 9007199254740992.0


def _draw(model: MatrixModel, rng: random.Random, count: int,
          layout: tuple) -> tuple:
    """``count`` samples drawn from ``rng`` in the order of a per-sample loop.

    ``layout`` describes one sample: ``(low, high, width)`` for a block of
    uniform draws, ``None`` for the random point.  The point is the base
    moved by ``exp(sum c_i G_i)``.  Full-group samples take c in [-0.3, 0.3]
    and stay near the identity: the deviation tolerance is absolute, and
    conjugation by far-away elements inflates the fields (and so the
    finite-difference truncation error) exponentially.  Sphere samples take
    c in [-1, 1] and redraw a point within ``ANTIPODE_SAMPLING_CAP`` of the
    antipode, as a retrying loop would: the rejected draw leaves the stream
    and the draws after it move up.  Returns the uniform blocks in layout
    order, the group elements and the points.
    """
    spread = 0.3 if model.kind == "full-group" else 1.0
    blocks = [(-spread, spread, model.dim) if b is None else b for b in layout]
    at = layout.index(None)
    edges = np.cumsum([0] + [width for _, _, width in blocks])
    stream = _uniform(rng, count * edges[-1])
    while True:
        rows = stream.reshape(count, edges[-1])
        draws = [low + (high - low) * rows[:, a:b]
                 for (low, high, _), a, b in zip(blocks, edges, edges[1:])]
        uniform = draws[:at] + draws[at + 1:]
        g = expm(model.element(draws[at]))
        if model.kind == "full-group":
            return uniform, g, g
        p = model.act(g, model.base_point)
        p = p / np.linalg.norm(p, axis=-1, keepdims=True)
        near = ~(np.linalg.norm(p + model.base_point, axis=-1) > ANTIPODE_SAMPLING_CAP)
        if not near.any():
            return uniform, g, p
        cut = int(np.argmax(near)) * edges[-1] + edges[at]
        stream = np.concatenate([stream[:cut], stream[cut + model.dim:],
                                 _uniform(rng, model.dim)])


def _chunks(total: int):
    """Sizes of the stacks that evaluate ``total`` samples."""
    for start in range(0, total, CHUNK):
        yield min(CHUNK, total - start)


def build_model(pair: HomogeneousPair) -> MatrixModel:
    """Choose the float model matching a pair, or explain why none fits.

    The model kind, and every reason for having none that needs no floats,
    is decided before numpy is first used."""
    alg = pair.alg
    sphere = alg.dim == 3 and pair.k.dim == 1
    if pair.k.dim == 0:
        if alg.matrix_generators is None:
            raise LieCheckError(
                "the full-group model needs an algebra built from matrix generators"
            )
    elif not sphere:
        raise LieCheckError(
            "no numerical model for this pair (supported: trivial stabilizer on a "
            "matrix algebra, or the 3-dimensional rotation pair)"
        )
    elif alg.matrix_generators is not None:
        if alg.matrix_size != 3:
            raise LieCheckError("the sphere model needs 3x3 generators")
    elif any(alg.nonzeros[i][j] != want for (i, j), want in _SO3_TENSOR.items()):
        raise LieCheckError(
            "no matrix realization: the structure constants are not the "
            "standard rotation-algebra table"
        )
    structure = np.zeros((alg.dim,) * 3)
    for i, row in enumerate(alg.nonzeros):
        for j, terms in enumerate(row):
            for k, x in terms:
                structure[i, j, k] = _float(x, "structure constant [{},{}] component {}",
                                            *(alg.basis_labels[t] for t in (i, j, k)))
    gens = ([np.array(g) for g in _SO3_STANDARD] if alg.matrix_generators is None
            else [_float_matrix(g, f"generator {label}")
                  for g, label in zip(alg.matrix_generators, alg.basis_labels)])
    if not sphere:
        return MatrixModel("full-group", gens, np.eye(gens[0].shape[0]),
                           structure, alg.basis_labels)
    for g in gens:
        if float(np.max(np.abs(g + g.T))) > 1e-12:
            raise LieCheckError(
                "sphere-model generators must be antisymmetric (rotations)"
            )
    model = MatrixModel("sphere-orbit", gens, np.array(_P0), structure,
                        alg.basis_labels)
    for row in _float_matrix(pair.k.space.basis, "subalgebra basis"):
        if np.linalg.norm(model.act(model.element(row), model.base_point)) > 1e-12:
            raise LieCheckError(
                "the subalgebra does not stabilize the base point"
            )
    return model


# ---------------------------------------------------------------------------
# fields, bundle map, finite differences
# ---------------------------------------------------------------------------

def projected_field(model: MatrixModel, v, p: np.ndarray) -> np.ndarray:
    """The pushed-down field of an algebra element: p -> (element v) p."""
    model.check_point(p)
    return model.act(model.element(v), p)


def bundle_map(model: MatrixModel, op: LinearOperator, p: np.ndarray,
               z: np.ndarray) -> np.ndarray:
    """Apply the induced bundle map at p to a tangent vector z."""
    model.check_point(p)
    return _bundle_with_section(model, model.operator_matrix(op), model.section(p), z)


def _bundle_with_section(model: MatrixModel, op_float: np.ndarray,
                         g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The bundle map at g(base) through the representative g: pull z back
    to the base, apply the operator there, push the result forward by g."""
    iv = _apply(op_float, model.base_tangent_coords(model.solve(g, z)))
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
    return np.einsum("...j,...jk->...k", y, np.tensordot(x, model.structure, axes=1))


def _torsion_half(model: MatrixModel, op_float: np.ndarray,
                  v: np.ndarray, w: np.ndarray) -> np.ndarray:
    iv = _apply(op_float, v)
    iw = _apply(op_float, w)
    return (
        _apply(op_float, _bracket_float(model, v, iw))
        + _apply(op_float, _bracket_float(model, iv, w))
        - _bracket_float(model, iv, iw)
        - _apply(op_float, _apply(op_float, _bracket_float(model, v, w)))
    )


def _torsion_float(model: MatrixModel, op_float: np.ndarray,
                   v: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Explicit antisymmetrization: a mathematical no-op that makes the
    # diagonal bitwise zero instead of rounding dust.
    return 0.5 * (_torsion_half(model, op_float, v, w)
                  - _torsion_half(model, op_float, w, v))


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and np.array_equal(a, b, equal_nan=True))
    return bool(a == b or (a != a and b != b))  # NaN equals NaN


class _Record(Value):
    """A :class:`Value` that compares each numpy array field as a whole, in
    place, so that ``==`` gives a bool, not an array.  NaN equals NaN, so a
    report equals itself."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all([_same(a, b) for a, b in zip(self._key(), other._key())])


class FieldSample(_Record):
    """Numerical torsion vs algebraic prediction at sampled points.

    Array fields have the leading sample axes of the points; the three
    maxima (over each point's entries) are floats for a single point.
    """

    __slots__ = ("numerical", "predicted", "deviation", "numerical_max", "predicted_max")


def numerical_torsion(model: MatrixModel, op: LinearOperator, v, w, p: np.ndarray,
                      h: float = DEFAULT_STEP) -> FieldSample:
    """Evaluate the manifold torsion of the induced map on two pushed-down
    fields by four finite-difference brackets, next to the algebraic
    prediction transported to the same points."""
    model.check_point(p)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)

    x_field = model.ambient_extension(lambda q: projected_field(model, v, q))
    y_field = model.ambient_extension(lambda q: projected_field(model, w, q))
    nx_field = model.ambient_extension(
        lambda q: bundle_map(model, op, q, projected_field(model, v, q)))
    ny_field = model.ambient_extension(
        lambda q: bundle_map(model, op, q, projected_field(model, w, q)))

    b1 = fd_bracket(model, nx_field, y_field, p, h)
    b2 = fd_bracket(model, x_field, ny_field, p, h)
    b3 = fd_bracket(model, nx_field, ny_field, p, h)
    b4 = fd_bracket(model, x_field, y_field, p, h)
    omega = (
        bundle_map(model, op, p, b1)
        + bundle_map(model, op, p, b2)
        - b3
        - bundle_map(model, op, p, bundle_map(model, op, p, b4))
    )

    g = model.section(p)
    g_inv = np.linalg.inv(g)
    v0 = model.algebra_coords(g_inv @ model.element(v) @ g)
    w0 = model.algebra_coords(g_inv @ model.element(w) @ g)
    predicted = model.push(g, _torsion_float(model, model.operator_matrix(op), v0, w0))
    axes = model.point_axes
    return FieldSample(omega, predicted,
                       deviation=np.max(np.abs(omega - predicted), axis=axes),
                       numerical_max=np.max(np.abs(omega), axis=axes),
                       predicted_max=np.max(np.abs(predicted), axis=axes))


# ---------------------------------------------------------------------------
# relation checks and the harness report
# ---------------------------------------------------------------------------

class RelationReport(_Record):
    """Residuals of the exact push-forward identities, plus the two
    demonstration computations on the sphere.  The last six fields are None
    for other models; the last four are vectors in R^3."""

    __slots__ = ("samples", "seed", "alpha_related_max", "base_consistency_max",
                 "stabilizer_max", "rep_independence_max", "flip_pushforward",
                 "flip_field_at_image", "rotation_bundle_value", "rotation_field_value")
    _defaults = dict.fromkeys(__slots__[4:])

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
    a NaN residual fails its gate."""
    return float(np.maximum(acc, x))


def relation_checks(model: MatrixModel, pair: HomogeneousPair,
                    op: LinearOperator, *, samples: int = 100,
                    seed: int = DEFAULT_SEED) -> RelationReport:
    """Verify the push-forward identities at sampled points.

    Checks the transport identity h Xv(h^-1 p) = X(Ad_h v)(p), the two
    equivalent expressions for a pushed-down field, the stabilizer
    equivariance at the base point, and independence of the bundle map from
    the choice of section representative.  Also evaluates the two sphere
    demonstrations: the pushed field is not invariant under the group action,
    and the bundle map applied to a pushed field differs from the pushed
    image field.
    """
    if samples < 1:
        raise LieCheckError(f"the relation checks need at least 1 sample, not {samples}")
    rng = _rng(seed)
    unit = (-1.0, 1.0, model.dim)
    alpha_max = 0.0
    base_max = 0.0
    for count in _chunks(samples):
        (h_coeff, v), g, p = _draw(model, rng, count, (unit, None, unit))
        h_el = expm(model.element(h_coeff))
        velt = model.element(v)
        lhs = model.act(h_el, model.act(velt, model.solve(h_el, p)))
        advh = model.algebra_coords(h_el @ velt @ np.linalg.inv(h_el))
        rhs = model.act(model.element(advh), p)
        alpha_max = _worst(alpha_max, _max_abs(lhs - rhs))
        # Two expressions for the pushed-down field at p = g(base).
        adg = model.algebra_coords(np.linalg.inv(g) @ velt @ g)
        base_max = _worst(base_max, _max_abs(model.act(velt, p) - model.push(g, adg)))

    stab_max = None
    rep_max = None
    flip_push = flip_field = rot_bundle = rot_field = None
    if model.kind == "sphere-orbit":
        op_float = model.operator_matrix(op)
        base = model.base_point
        k_gen = model.element(pair.k.space.vectors()[0])
        stab_max = 0.0
        rep_max = 0.0
        for count in _chunks(samples):
            (t, v, z_coeff), g, p = _draw(model, rng, count,
                                          ((-math.pi, math.pi, 1), unit, None, unit))
            k_el = expm(t[:, :, None] * k_gen)
            velt = model.element(v)
            lhs = model.act(k_el, model.act(velt, base))
            adk = model.algebra_coords(k_el @ velt @ np.linalg.inv(k_el))
            rhs = model.act(model.element(adk), base)
            stab_max = _worst(stab_max, _max_abs(lhs - rhs))

            z = model.act(model.element(z_coeff), p)
            sec = model.section(p)
            n1 = _bundle_with_section(model, op_float, sec, z)
            n2 = _bundle_with_section(model, op_float, sec @ k_el, z)
            rep_max = _worst(rep_max, _max_abs(n1 - n2))

        flip = np.diag([1.0, -1.0, -1.0])
        e1 = model.generators[1]
        flip_push = flip @ (e1 @ base)
        flip_field = e1 @ (flip @ base)

        g_rot = expm(DEMO_THETA * model.generators[2])
        p_rot = g_rot @ base
        v2 = np.zeros(model.dim)
        v2[2] = 1.0
        z = projected_field(model, v2, p_rot)
        rot_bundle = bundle_map(model, op, p_rot, z)
        rot_field = projected_field(model, _apply(op_float, v2), p_rot)

    return RelationReport(
        samples=samples, seed=seed,
        alpha_related_max=alpha_max, base_consistency_max=base_max,
        stabilizer_max=stab_max, rep_independence_max=rep_max,
        flip_pushforward=flip_push, flip_field_at_image=flip_field,
        rotation_bundle_value=rot_bundle, rotation_field_value=rot_field,
    )


class DeviationReport(_Record):
    """Everything a harness run produced, with pass/fail bookkeeping.  The last
    three fields are float columns with one entry per sample, in draw order."""

    __slots__ = ("model_kind", "h", "seed", "relation", "nijenhuis_exact",
                 "deviation", "numerical_max", "predicted_max")

    @property
    def max_deviation(self) -> float:
        return float(np.max(self.deviation))  # np.max keeps a NaN

    @property
    def max_numerical(self) -> float:
        return float(np.max(self.numerical_max))

    @property
    def passed(self) -> bool:
        # Each gate is written "not (x <= tol)" so that a NaN fails it.
        if not (self.max_deviation <= TORSION_TOL):
            return False
        if not (self.relation.max_residual <= RELATION_TOL):
            return False
        if self.nijenhuis_exact and not (self.max_numerical <= TORSION_TOL):
            return False
        if self.relation.flip_pushforward is not None:
            checks = (
                (self.relation.flip_pushforward, np.array([1.0, 0.0, 0.0])),
                (self.relation.flip_field_at_image, np.array([-1.0, 0.0, 0.0])),
                (self.relation.rotation_bundle_value, np.array([1.0, 0.0, 0.0])),
                (self.relation.rotation_field_value,
                 np.array([math.cos(DEMO_THETA), 0.0, 0.0])),
            )
            for got, want in checks:
                if not (float(np.max(np.abs(got - want))) <= DEMO_TOL):
                    return False
        return True


def run_harness(pair: HomogeneousPair, op: LinearOperator, *,
                samples: int = DEFAULT_SAMPLES, h: float = DEFAULT_STEP,
                seed: int = DEFAULT_SEED) -> DeviationReport:
    """Full harness: relation checks plus sampled torsion cross-validation,
    evaluated ``CHUNK`` samples at a time.  The inputs are checked first:
    ``samples`` an integer in [1, ``MAX_SAMPLES``], ``h`` in [``MIN_STEP``,
    ``MAX_STEP``] (written ``not (lo <= h <= hi)``, so a NaN fails) and
    ``seed`` by ``_rng``."""
    if not (isinstance(samples, numbers.Integral) and 1 <= samples <= MAX_SAMPLES):
        raise LieCheckError(f"the sample count (--samples) must be an integer in "
                            f"[1, {MAX_SAMPLES}], not {samples!r}")
    if not (MIN_STEP <= h <= MAX_STEP):
        raise LieCheckError(f"the step h (--step) must lie in [{MIN_STEP}, {MAX_STEP}], "
                            f"not {h!r}")
    rng = _rng(seed)
    model = build_model(pair)
    torsion_report = check_nijenhuis(pair, op)
    relation = relation_checks(model, pair, op, samples=max(20, samples), seed=seed)
    unit = (-1.0, 1.0, model.dim)
    columns = []
    for count in _chunks(samples):
        (v, w), _, p = _draw(model, rng, count, (None, unit, unit))
        stack = numerical_torsion(model, op, v, w, p, h)
        columns.append((stack.deviation, stack.numerical_max, stack.predicted_max))
    return DeviationReport(model.kind, h, seed, relation, torsion_report.verdict,
                           *map(np.concatenate, zip(*columns)))
