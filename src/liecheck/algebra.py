"""Lie algebras by structure constants, and their subalgebras.

An algebra is stored as a basis-label list plus its nonzero structure
constants: ``nonzeros[i][j]`` holds the ``(k, c_ijk)`` pairs of
``[b_i, b_j] = sum_k c_ijk b_k`` with a nonzero rational ``c_ijk``, in
increasing ``k``.  Structure constants of matrix algebras are almost all
zero, so the bracket, the validation and the construction from generators
loop over nonzero entries only.  The constants are validated on
construction: antisymmetry entrywise and the Jacobi identity on every basis
triple.  Matrix algebras are converted at the door by
:func:`from_matrix_generators`, in integers: each generator is scaled to
Gaussian-integer rows, commutators are taken on those rows, and one integer
elimination (:class:`_SpanSolver`) gives their coordinates; a Fraction is
made only per nonzero structure constant.  The generators and their solver
are retained, so multiplication operators are expressed the same way.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from collections.abc import Sequence

from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidStructureConstants,
    LieCheckError,
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
    _eliminate,
    annihilated,
    format_scalar,
    integer_vector,
    rref,
)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("structure constants must be rational")


class LieAlgebra:
    """A finite-dimensional real Lie algebra in a fixed basis.

    ``nonzeros[i][j]`` is the tuple of ``(k, c_ijk)`` pairs of
    ``[b_i, b_j]`` with a nonzero rational coefficient, in increasing ``k``;
    it is the only storage, and :meth:`from_structure_tensor` builds an
    algebra from the dense tensor ``c[i][j][k]`` instead.
    :attr:`integer_constants` is the same view times one positive integer,
    which keeps every verdict of the antisymmetry and (quadratic) Jacobi
    checks; those read it packed, ``P[a][m] = sum_t c_amt << (w t)`` with
    ``2^w > 3 n max|c|^2``, which bounds every field they sum.  The integer
    pair loops of the checks use it too (:func:`bracket_into`).
    """

    __slots__ = ("name", "dim", "basis_labels", "nonzeros", "_integer_nz",
                 "matrix_size", "matrix_generators", "_span_solver")

    def __init__(
        self,
        name: str,
        basis_labels: Sequence[str],
        nonzeros: Sequence[Sequence[Sequence]],
        *,
        matrix_size: int | None = None,
        matrix_generators: tuple | None = None,
    ):
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
        self.matrix_size = matrix_size
        self.matrix_generators = matrix_generators
        self._integer_nz = None
        self._span_solver = None
        nz = self.integer_constants  # packed as in the class docstring
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
            [tuple([(k, x) for k, x in enumerate(map(_as_fraction, c)) if x]) for c in row]
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
            x = _as_fraction(x)
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
        nz = self.integer_constants
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

    @property
    def integer_constants(self) -> tuple:
        """:attr:`nonzeros` with every structure constant times one positive
        integer, the lcm of their denominators; computed once."""
        view = self._integer_nz
        if view is None:
            scale = lcm(*(x.denominator for ci in self.nonzeros for terms in ci for _, x in terms))
            view = self._integer_nz = tuple(
                tuple([terms and tuple([(k, x.numerator * (scale // x.denominator))
                                        for k, x in terms])
                       for terms in ci])
                for ci in self.nonzeros
            )
        return view

    def ad_matrix(self, d: Sequence) -> ExactMatrix:
        """Matrix of ``w -> [d, w]`` in the algebra basis; linear in d.  Column
        j is ``sum_i d_i sum_k c_ijk b_k``, in the order and types of :meth:`bracket`."""
        n = self.dim
        if len(d) != n:
            raise DimensionMismatch("ad argument must have the algebra dimension")
        cols = [[_ZERO] * n for _ in range(n)]
        for i, di in compress(enumerate(d), d):
            for col, terms in zip(cols, self.nonzeros[i]):
                for k, c in terms:
                    col[k] = col[k] + di * c
        return ExactMatrix(n, n, [cols[j][k] for k in range(n) for j in range(n)])

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

    def _solver(self) -> "_SpanSolver":
        """The coordinate solver of the matrix generators, built once per
        algebra (:func:`from_matrix_generators` hands over its own)."""
        if self.matrix_generators is None:
            raise LieCheckError(f"algebra {self.name!r} was not built from matrix generators")
        if self._span_solver is None:
            self._span_solver = _SpanSolver(self.matrix_generators)
        return self._span_solver

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


def bracket_into(constants: tuple, v: dict, w: dict, acc: dict, sign: int = 1) -> dict:
    """Add ``sign * [v, w]`` to ``acc`` and return it, for sparse integer
    vectors and the integer structure constants
    (:attr:`LieAlgebra.integer_constants`)."""
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


class Subalgebra:
    """A bracket-closed subspace of a parent algebra."""

    __slots__ = ("parent", "space")

    def __init__(self, parent: LieAlgebra, space: Subspace):
        self.parent = parent
        self.space = space

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"Subalgebra(dim={self.dim} of {self.parent.name!r})"


def make_subalgebra(alg: LieAlgebra, vectors: Sequence[Sequence]) -> Subalgebra:
    """Echelonize the span and certify closure under the bracket.

    Closure is decided in integers, as the checks decide membership in k:
    the basis rows scaled to integers, their brackets taken on
    :attr:`LieAlgebra.integer_constants`, and membership as ``Q [a, b] = 0``
    for the integer annihilator ``Q`` of the span.  Only the witness of the
    first pair outside is recomputed in the rationals.
    """
    space = Subspace.from_vectors(alg.dim, vectors)
    rows = space.vectors()
    constants = alg.integer_constants
    q = space.annihilator.integer_columns
    ints = [integer_vector(row) for row in rows]
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            if not annihilated(q, bracket_into(constants, ints[a], ints[b], {})):
                raise NotClosedUnderBracket(rows[a], rows[b], alg.bracket(rows[a], rows[b]))
    return Subalgebra(alg, space)


# ---------------------------------------------------------------------------
# matrix-generator construction
# ---------------------------------------------------------------------------

def _gaussian_rows(m: ExactMatrix) -> tuple:
    """``(s, rows)``: ``s * m`` for ``s`` the lcm of the denominators of the
    entries of ``m``, as its nonzero rows ``{row: {col: (re, im)}}`` of
    Gaussian integers."""
    parts = [[(c, e.re, e.im) if e.__class__ is GaussianRational else (c, e, 0) for c, e in terms]
             for terms in m.nonzero_rows]
    s = lcm(*(x.denominator for terms in parts for _, a, b in terms for x in (a, b)))
    return s, {r: {c: (a.numerator * (s // a.denominator), b.numerator * (s // b.denominator))
                   for c, a, b in terms} for r, terms in enumerate(parts) if terms}


def _times(x: dict, y: dict, out: dict | None = None, sign: int = 1) -> dict:
    """Add ``sign * X Y`` to the rows ``out`` (zero by default) and return
    them, for matrices given by :func:`_gaussian_rows`."""
    out = {} if out is None else out
    for r, terms in x.items():
        acc = out.setdefault(r, {})
        for k, (a, b) in terms.items():
            for c, (u, v) in y.get(k, {}).items():
                re, im = acc.get(c, (0, 0))
                acc[c] = (re + sign * (a * u - b * v), im + sign * (a * v + b * u))
    return out


class _SpanSolver:
    """Solve for coordinates of matrices inside the real span of matrices.

    Each generator is scaled to Gaussian-integer rows (:func:`_gaussian_rows`)
    and flattened into an integer column of ``A``, real parts first and, when
    any generator has one, imaginary parts below.  One integer elimination of
    ``[A | Id]`` over the columns of ``A`` leaves the rows ``[Id | T]`` on
    top, with ``T A = Id``, and ``[0 | N]`` below, whose rows span the left
    null space.  Both blocks are kept by column, as integers over one
    denominator per row of T: a target ``t`` lies in the span exactly when
    ``N t = 0``, and its coordinates are ``T t``, so a target costs one pass
    over its nonzero entries.
    """

    def __init__(self, matrices: Sequence[ExactMatrix]):
        self.matrices = tuple(matrices)
        self.size = size = matrices[0].rows
        self.scales, self.rows = zip(*map(_gaussian_rows, matrices))
        self.has_imag = any(b for rows in self.rows for row in rows.values()
                            for _, b in row.values())
        n, half = len(matrices), size * size
        height = half * (2 if self.has_imag else 1)
        system = [[[0] * n + [int(r == p) for p in range(height)], None, 1]
                  for r in range(height)]
        for k, rows in enumerate(self.rows):
            for r, row in rows.items():
                for c, (a, b) in row.items():
                    system[r * size + c][0][k] = a
                    if b:
                        system[half + r * size + c][0][k] = b
        pivots = _eliminate(system, n + height, range(n))
        self.independent = len(pivots) == n
        self.n = n
        # Rows of T are multiplied by their generator's scale, so that they
        # give coordinates of the generators as given.
        self._den = [den for _, _, den in system[:len(pivots)]]
        self._columns = [[] for _ in range(height)]
        for r, (re, _, _) in enumerate(system):
            scale = self.scales[pivots[r]] if r < len(pivots) else 1
            for p, a in enumerate(re[n:]):
                if a:
                    self._columns[p].append((r, a * scale))

    def solve(self, rows: dict, scale: int) -> tuple | None:
        """The nonzero ``(k, coordinate)`` pairs, in increasing ``k``, of the
        matrix with Gaussian-integer ``rows`` divided by ``scale``; None
        outside the real span.  A Fraction is made per nonzero coordinate."""
        size, half = self.size, self.size * self.size
        flat = {}
        for r, row in rows.items():
            for c, (a, b) in row.items():
                if a:
                    flat[r * size + c] = a
                if b:
                    if not self.has_imag:
                        return None
                    flat[half + r * size + c] = b
        acc = {}  # rows of [T; N] times the flattened target
        for p, x in flat.items():
            for r, a in self._columns[p]:
                acc[r] = acc.get(r, 0) + a * x
        if any(x for r, x in acc.items() if r >= len(self._den)):
            return None
        return tuple([(k, Fraction(x, scale * self._den[k])) for k, x in sorted(acc.items()) if x])

    def matrix(self, rows: dict, scale: int) -> ExactMatrix:
        """The matrix with Gaussian-integer ``rows`` divided by ``scale``."""
        size = self.size
        return ExactMatrix(size, size, [
            GaussianRational(Fraction(a, scale), Fraction(b, scale)) if b else Fraction(a, scale)
            for r in range(size) for a, b in (rows.get(r, {}).get(c, (0, 0)) for c in range(size))])

    def in_complex_span(self, target: ExactMatrix) -> bool:
        """Whether ``target`` lies in the Q(i)-span of the generators."""
        columns = [[e if isinstance(e, GaussianRational) else GaussianRational(e)
                    for e in m.entries] for m in self.matrices + (target,)]
        _, pivots = rref(ExactMatrix.from_rows(list(zip(*columns))))
        return self.n not in pivots


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
    solver = _SpanSolver(gens)
    if not solver.independent:
        raise NotIndependent("generators are linearly dependent")
    nonzeros = [[()] * n for _ in range(n)]
    rows, scales = solver.rows, solver.scales
    cols = [{c for row in x.values() for c in row} for x in rows]
    for i in range(n):
        for j in range(i + 1, n):
            if cols[i].isdisjoint(rows[j]) and cols[j].isdisjoint(rows[i]):
                continue  # no column of one generator is a row of the other
            comm = _times(rows[j], rows[i], _times(rows[i], rows[j]), -1)
            terms = solver.solve(comm, scales[i] * scales[j])
            if terms is None:
                comm = solver.matrix(comm, scales[i] * scales[j])
                if solver.in_complex_span(comm):
                    raise NonRealStructureConstants(labels[i], labels[j])
                raise NotClosed(labels[i], labels[j], comm)
            nonzeros[i][j] = terms
            nonzeros[j][i] = tuple([(k, -x) for k, x in terms])
    alg = LieAlgebra(name, labels, nonzeros, matrix_size=size, matrix_generators=tuple(gens))
    alg._span_solver = solver
    return alg
