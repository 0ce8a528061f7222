"""Lie algebras by structure constants, and their subalgebras.

An algebra is stored as a basis-label list plus its nonzero structure
constants: ``nonzeros[i][j]`` holds the ``(k, c_ijk)`` pairs of
``[b_i, b_j] = sum_k c_ijk b_k`` with a nonzero rational ``c_ijk``, in
increasing ``k``.  Structure constants of matrix algebras are almost all
zero, so the bracket, the validation and the construction from generators
loop over nonzero entries only.  The constants are validated on
construction: antisymmetry entrywise and the Jacobi identity on every basis
triple.  Matrix algebras are converted at the door by
:func:`from_matrix_generators`, in integers: commutators are taken on the
generators' Gaussian-integer rows (:meth:`ExactMatrix.gaussian_rows`), and
one integer elimination (:class:`liecheck.matrix_span._SpanSolver`) gives
their coordinates; a Fraction is made only per nonzero structure constant.  The
solver is retained and holds the generators
(:attr:`LieAlgebra.matrix_generators` reads them), so multiplication
operators are expressed the same way; only :func:`from_matrix_generators`,
which derives the constants from those generators, attaches one.  The
solver lives in :mod:`liecheck.matrix_span`, which an algebra given by
structure constants never runs.  One integer test on a subspace's own
integer views, :func:`_bracket_escape`, certifies k and Z+ closed; a
:class:`Subalgebra` runs it on its span when it is built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from collections.abc import Sequence

from . import _lazy_module
from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidStructureConstants,
    LieCheckError,
    NonRealSpan,
    NonRealStructureConstants,
    NotClosed,
    NotClosedUnderBracket,
    NotIndependent,
)
from .exact import (
    AMBIENT_DIM_CAP,
    _ONE,
    _ZERO,
    ExactMatrix,
    GaussianRational,
    Subspace,
    _as_fraction,
    _is_gaussian,
    apply_columns,
    format_scalar,
    from_integers,
)

# Only algebras given by matrix generators run the span solver.
_matrix_span = _lazy_module("liecheck.matrix_span")


def _constant(x) -> Fraction:
    """A structure constant as a Fraction (:func:`liecheck.exact._as_fraction`)."""
    try:
        return _as_fraction(x)
    except TypeError:
        raise TypeError("structure constants must be rational") from None


class LieAlgebra:
    """A finite-dimensional real Lie algebra in a fixed basis.

    ``nonzeros[i][j]`` is the tuple of ``(k, c_ijk)`` pairs of
    ``[b_i, b_j]`` with a nonzero rational coefficient, in increasing ``k``;
    it is the only storage, and :meth:`from_structure_tensor` builds an
    algebra from the dense tensor ``c[i][j][k]`` instead.
    :attr:`integer_constants`, set once here, is ``(c, constants)``: the
    same view times ``c``, the lcm of its denominators, which keeps every
    verdict of the antisymmetry and (quadratic) Jacobi checks; those read
    it packed, ``P[a][m] = sum_t c_amt << (w t)`` with ``2^w > 3 n max|c|^2``,
    which bounds every field they sum.  The integer pair loops of the
    checks use it too (:func:`bracket_into`).
    """

    __slots__ = ("name", "dim", "basis_labels", "nonzeros", "integer_constants", "_span_solver")

    def __init__(self, name: str, basis_labels: Sequence[str],
                 nonzeros: Sequence[Sequence[Sequence]]):
        labels = tuple(basis_labels)
        n = len(labels)
        if n == 0:
            raise LieCheckError("an algebra needs at least one basis element")
        if n > AMBIENT_DIM_CAP:
            raise DimensionCapExceeded(f"dimension {n} exceeds the cap {AMBIENT_DIM_CAP}")
        if len(set(labels)) != n:
            raise LieCheckError("duplicate basis label")
        if "i" in labels:
            raise LieCheckError("basis label 'i' is reserved for the imaginary unit")
        if len(nonzeros) != n or any(len(row) != n for row in nonzeros):
            raise DimensionMismatch(f"the nonzero structure constants need {n} rows of {n}")
        self.name = name
        self.dim = n
        self.basis_labels = labels
        self.nonzeros = tuple(
            tuple([self._checked_terms(i, j, terms) if terms else ()
                   for j, terms in enumerate(row)])
            for i, row in enumerate(nonzeros)
        )
        self._span_solver = None
        scale = lcm(*(x.denominator for ci in self.nonzeros for terms in ci for _, x in terms))
        nz = tuple(
            tuple([terms and tuple([(k, x.numerator * (scale // x.denominator)) for k, x in terms])
                   for terms in ci])
            for ci in self.nonzeros)
        self.integer_constants = scale, nz  # packed as in the class docstring
        top = max((abs(c) for row in nz for terms in row for _, c in terms), default=0)
        w = (3 * n * top * top).bit_length()
        packed = [[sum([c << w * t for t, c in terms]) if terms else 0 for terms in row]
                  for row in nz]
        self._check_antisymmetry(w, packed)
        self._check_jacobi(packed)

    @classmethod
    def from_structure_tensor(cls, name: str, basis_labels: Sequence[str],
                              structure: Sequence[Sequence[Sequence]]) -> "LieAlgebra":
        """The algebra with ``[b_i, b_j] = sum_k structure[i][j][k] b_k``."""
        labels = tuple(basis_labels)
        n = len(labels)
        if len(structure) != n or any(len(row) != n or any(len(c) != n for c in row)
                                      for row in structure):
            raise DimensionMismatch("structure tensor is not n x n x n")
        return cls(name, labels, [
            [tuple([(k, x) for k, x in enumerate(map(_constant, c)) if x]) for c in row]
            for row in structure
        ])

    def _checked_terms(self, i: int, j: int, terms: Sequence) -> tuple:
        """One validated entry of the nonzero view, with ``Fraction`` values."""
        labels = self.basis_labels
        where = f"[{labels[i]},{labels[j]}]"
        out = []
        for term in terms:
            try:
                k, x = term
            except (TypeError, ValueError):
                raise TypeError(f"{where} holds {term!r}, not a (k, value) pair") from None
            if not (isinstance(k, int) and 0 <= k < self.dim):
                raise DimensionMismatch(f"component index {k!r} out of range in {where}")
            if out and k <= out[-1][0]:
                raise InvalidStructureConstants(
                    f"component {labels[k]} of {where} "
                    + ("repeated" if k == out[-1][0] else "out of increasing order"))
            x = _constant(x)
            if not x:
                raise InvalidStructureConstants(
                    f"zero structure constant stored for {where} component {labels[k]}")
            out.append((k, x))
        return tuple(out)

    def _check_antisymmetry(self, w: int, packed: list):
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                s = packed[i][j] + packed[j][i]  # c_ij + c_ji, fields under 2^w
                if s:  # its lowest set bit lies in its first nonzero field
                    raise InvalidStructureConstants(
                        f"antisymmetry fails at [{self.basis_labels[i]},{self.basis_labels[j]}]"
                        f" component {self.basis_labels[((s & -s).bit_length() - 1) // w]}")

    def _check_jacobi(self, packed: list):
        """Reject the first triple ``i < j < k`` whose Jacobiator, summed
        packed as ``sum c_jkm P[i][m] + ...``, is nonzero.  Each field is a sum
        of at most ``3 n`` products, so under ``2^w``, and a sum of such fields
        is zero only if each is: the lowest nonzero one is no multiple of 2^w."""
        n = self.dim
        _, nz = self.integer_constants
        for i in range(n):
            nzi, pi = nz[i], packed[i]
            for j in range(i + 1, n):
                nzj, pj, ij = nz[j], packed[j], nzi[j]
                for k in range(j + 1, n):
                    jk, ki = nzj[k], nz[k][i]
                    if not (jk or ki or ij):
                        continue  # all three inner brackets vanish
                    acc = 0
                    for m, c in jk:
                        acc += c * pi[m]
                    for m, c in ki:
                        acc += c * pj[m]
                    for m, c in ij:
                        acc += c * packed[k][m]
                    if acc:
                        raise InvalidStructureConstants(
                            "Jacobi identity fails on basis triple "
                            f"({self.basis_labels[i]}, {self.basis_labels[j]}, "
                            f"{self.basis_labels[k]})"
                        )

    # -- basic operations --------------------------------------------------

    def bracket(self, v: Sequence, w: Sequence) -> tuple:
        """The Lie bracket [v, w] in basis coordinates (rational or Q(i))."""
        n = self.dim
        if len(v) != n or len(w) != n:
            raise DimensionMismatch("bracket arguments must have the algebra dimension")
        w_nz = tuple(compress(enumerate(w), w))
        acc = [_ZERO] * n
        for i, vi in compress(enumerate(v), v):
            nzi = self.nonzeros[i]
            for j, wj in w_nz:
                terms = nzi[j]
                if terms:
                    f = vi * wj
                    for k, coeff in terms:
                        acc[k] = acc[k] + f * coeff
        return tuple(acc)

    def ad_matrix(self, d: Sequence) -> ExactMatrix:
        """Matrix of ``w -> [d, w]`` in the algebra basis: column j is
        ``bracket(d, basis_vector(j))``, values and types alike."""
        n = self.dim
        if len(d) != n:
            raise DimensionMismatch("ad argument must have the algebra dimension")
        cols = [self.bracket(d, self.basis_vector(j)) for j in range(n)]
        return ExactMatrix(n, n, [x for row in zip(*cols) for x in row])

    def basis_vector(self, which) -> tuple:
        if isinstance(which, str):
            which = self.index_of(which)
        return tuple(_ONE if i == which else _ZERO for i in range(self.dim))

    def index_of(self, label: str) -> int:
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise LieCheckError(f"unknown basis label {label!r}") from None

    def zero_vector(self) -> tuple:
        return (_ZERO,) * self.dim

    def format_element(self, v: Sequence) -> str:
        """Human-readable form of a coordinate vector, e.g. ``e1 - 2*e2``."""
        terms = []
        for coeff, label in zip(v, self.basis_labels):
            if not coeff:
                continue
            terms.append((coeff, label))
        if not terms:
            return "0"
        parts = []
        for idx, (coeff, label) in enumerate(terms):
            txt = format_scalar(coeff)
            if isinstance(coeff, GaussianRational) and not coeff.is_real and coeff.re != 0:
                head, body = "+", f"({txt})*{label}"
            elif txt == "1":
                head, body = "+", label
            elif txt == "-1":
                head, body = "-", label
            elif txt.startswith("-"):
                head, body = "-", f"{txt[1:]}*{label}"
            else:
                head, body = "+", f"{txt}*{label}"
            if idx == 0:
                parts.append(body if head == "+" else f"-{body}")
            else:
                parts.append(f" {head} {body}")
        return "".join(parts)

    @property
    def matrix_generators(self) -> tuple | None:
        """The matrix generators of an algebra made by
        :func:`from_matrix_generators`, held by their span solver; else None."""
        return None if self._span_solver is None else self._span_solver.matrices

    def _solver(self) -> "_matrix_span._SpanSolver":
        """The coordinate solver that :func:`from_matrix_generators` attached."""
        if self._span_solver is None:
            raise LieCheckError(f"algebra {self.name!r} was not built from matrix generators")
        return self._span_solver

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


def bracket_into(constants: tuple, v: dict, w: dict, acc: dict, sign: int = 1) -> dict:
    """Add ``sign * [v, w]`` to ``acc`` and return it, for sparse integer
    vectors and the integer structure constants of
    :attr:`LieAlgebra.integer_constants`; every entry a term touches is keyed."""
    w_items = [(j, y) for j, y in w.items() if y]
    for i, x in v.items():
        if x:
            row = constants[i]
            for j, y in w_items:
                terms = row[j]
                if terms:
                    f = sign * x * y
                    for k, c in terms:
                        acc[k] = acc.get(k, 0) + f * c
    return acc


def _bracket_escape(alg: LieAlgebra, space: Subspace) -> tuple | None:
    """The first pair ``(x, y, [x, y])`` of echelon basis rows of ``space``
    whose bracket leaves ``space``, or None: the closure test of k and of Z+.

    It reads the subspace's integer views: its equations by column as
    ``A + iB`` (:attr:`Subspace.equation_columns`) and its rows as ``λx x``
    (:attr:`Subspace.integer_rows`).  Brackets are taken on
    :attr:`LieAlgebra.integer_constants` (``c``), and the witness is the
    bracket over ``c λx λy``, typed as :meth:`LieAlgebra.bracket` types it.
    """
    n = alg.dim
    c, constants = alg.integer_constants
    a, b = space.equation_columns
    rows = list(zip(space.vectors(), space.integer_rows))
    for i, (x, (lx, x_re, x_im)) in enumerate(rows):
        for y, (ly, y_re, y_im) in rows[i + 1:]:
            # [x, y] = [x_re, y_re] - [x_im, y_im] + i ([x_re, y_im] + [x_im, y_re])
            re = bracket_into(constants, x_im, y_im, bracket_into(constants, x_re, y_re, {}), -1)
            im = bracket_into(constants, x_im, y_re, bracket_into(constants, x_re, y_im, {}))
            # (A + iB) (re + i im) = (A re - B im) + i (B re + A im)
            if (any(apply_columns(b, im, apply_columns(a, re, {}), -1).values())
                    or any(apply_columns(b, re, apply_columns(a, im, {})).values())):
                im = im if _is_gaussian(space.basis) else None
                return x, y, from_integers(n, c * lx * ly, re, im)
    return None


class Subalgebra:
    """A bracket-closed subspace of a parent algebra, certified when built: a
    span in another ambient space raises DimensionMismatch, a non-real span
    NonRealSpan, and one not closed NotClosedUnderBracket."""

    __slots__ = ("parent", "space")

    def __init__(self, parent: LieAlgebra, space: Subspace):
        if space.ambient_dim != parent.dim:
            raise DimensionMismatch("span lives in the wrong ambient space")
        if any(space.equation_columns[1]):
            raise NonRealSpan("integer views need real entries")
        escape = _bracket_escape(parent, space)
        if escape is not None:
            raise NotClosedUnderBracket(*escape, parent.format_element)
        self.parent = parent
        self.space = space

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"Subalgebra(dim={self.dim} of {self.parent.name!r})"


def make_subalgebra(alg: LieAlgebra, vectors: Sequence[Sequence]) -> Subalgebra:
    """The :class:`Subalgebra` of the echelonized span of ``vectors``."""
    return Subalgebra(alg, Subspace.from_vectors(alg.dim, vectors))


# ---------------------------------------------------------------------------
# matrix-generator construction
# ---------------------------------------------------------------------------

def from_matrix_generators(
    size: int,
    generators: Sequence[ExactMatrix],
    *,
    labels: Sequence[str] | None = None,
    name: str = "matrix_algebra",
) -> LieAlgebra:
    """Build a real Lie algebra from square matrix generators.

    The span must be closed under the matrix commutator, and the resulting
    structure constants must be real rationals even when the generator
    entries live in Q(i) (the span is treated as a real Lie algebra).
    """
    gens = list(generators)
    if not gens:
        raise LieCheckError("at least one generator is required")
    for g in gens:
        if g.rows != size or g.cols != size:
            raise DimensionMismatch(f"generators must be {size}x{size}")
    n = len(gens)
    if labels is None:
        labels = tuple(f"g{i}" for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise DimensionMismatch("one label per generator required")
    solver = _matrix_span._SpanSolver(gens)
    if not solver.independent:
        raise NotIndependent("generators are linearly dependent")
    times = _matrix_span._times
    nonzeros = [[()] * n for _ in range(n)]
    rows, scales = solver.rows, solver.scales
    cols = [{c for row in x.values() for c in row} for x in rows]
    for i in range(n):
        for j in range(i + 1, n):
            if cols[i].isdisjoint(rows[j]) and cols[j].isdisjoint(rows[i]):
                continue  # no column of one generator is a row of the other
            comm = times(rows[j], rows[i], times(rows[i], rows[j]), -1)
            terms = solver.solve(comm, scales[i] * scales[j])
            if terms is None:
                comm = solver.matrix(comm, scales[i] * scales[j])
                if solver.in_complex_span(comm):
                    raise NonRealStructureConstants(labels[i], labels[j])
                raise NotClosed(labels[i], labels[j], comm)
            nonzeros[i][j] = terms
            nonzeros[j][i] = tuple([(k, -x) for k, x in terms])
    alg = LieAlgebra(name, labels, nonzeros)
    alg._span_solver = solver
    return alg
