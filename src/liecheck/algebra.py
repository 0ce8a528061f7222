"""Lie algebras by structure constants, subalgebras and conjugate vectors.

An algebra is stored as a basis-label list plus the structure tensor ``c``
with ``[b_i, b_j] = sum_k c[i][j][k] b_k`` over exact rationals.  The tensor
is validated on construction: antisymmetry entrywise and the Jacobi identity
on every basis triple.  Matrix algebras are converted at the door by
:func:`from_matrix_generators`; the generator matrices are retained so that
multiplication operators can be expressed later.  Structure constants of
matrix algebras are almost all zero, so the bracket, the validation and the
construction from generators loop over nonzero entries only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Optional, Sequence

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
    _ZERO,
    ExactMatrix,
    GaussianRational,
    Subspace,
    conjugate_scalar,
    format_scalar,
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

    The dense tensor ``c`` is the canonical form.  Derived from it, the
    nonzero view ``_nz[i][j]`` holds the ``(k, c[i][j][k])`` pairs with a
    nonzero coefficient, in increasing ``k``; the bracket and the
    antisymmetry and Jacobi checks run over ``_nz`` alone.
    :attr:`integer_constants` is the same view times one positive integer,
    for the integer pair loops of the checks (:func:`bracket_into`).
    """

    __slots__ = ("name", "dim", "basis_labels", "c", "_nz", "_integer_nz",
                 "matrix_size", "matrix_generators", "_span_solver")

    def __init__(
        self,
        name: str,
        basis_labels: Sequence[str],
        structure: Sequence[Sequence[Sequence]],
        *,
        matrix_size: Optional[int] = None,
        matrix_generators: Optional[tuple] = None,
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
        c = tuple(
            tuple(tuple(map(_as_fraction, structure[i][j])) for j in range(n))
            for i in range(n)
        )
        for i in range(n):
            for j in range(n):
                if len(c[i][j]) != n:
                    raise DimensionMismatch("structure tensor is not n x n x n")
        self.name = name
        self.dim = n
        self.basis_labels = labels
        self.c = c
        self.matrix_size = matrix_size
        self.matrix_generators = matrix_generators
        self._nz = tuple(
            tuple(tuple(compress(enumerate(row), row)) for row in ci) for ci in c
        )
        self._integer_nz = None
        self._span_solver = None
        self._check_antisymmetry()
        self._check_jacobi()

    def _check_antisymmetry(self):
        n = self.dim
        nz = self._nz
        for i in range(n):
            for j in range(i, n):
                sums = {}  # c[i][j][k] + c[j][i][k], over the nonzero terms
                for k, a in nz[i][j] + nz[j][i]:
                    sums[k] = sums.get(k, _ZERO) + a
                bad = [k for k, x in sums.items() if x]
                if bad:
                    raise InvalidStructureConstants(
                        f"antisymmetry fails at [{self.basis_labels[i]},"
                        f"{self.basis_labels[j]}] component {self.basis_labels[min(bad)]}"
                    )

    def _check_jacobi(self):
        n = self.dim
        nz = self._nz
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if not (nz[j][k] or nz[k][i] or nz[i][j]):
                        continue  # all three inner brackets vanish
                    acc = {}
                    for a, b, cc in ((i, j, k), (j, k, i), (k, i, j)):
                        # [b_a, [b_b, b_c]]
                        for m, coeff in nz[b][cc]:
                            for t, c2 in nz[a][m]:
                                acc[t] = acc.get(t, _ZERO) + coeff * c2
                    if any(acc.values()):
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
            nzi = self._nz[i]
            for j, wj in w_nz:
                terms = nzi[j]
                if terms:
                    f = vi * wj
                    for k, coeff in terms:
                        acc[k] = acc[k] + f * coeff
        return tuple(acc)

    @property
    def integer_constants(self) -> tuple:
        """``_nz`` with every structure constant times one positive integer,
        the lcm of their denominators."""
        view = self._integer_nz
        if view is None:
            scale = lcm(*(x.denominator for ci in self._nz for terms in ci for _, x in terms))
            view = self._integer_nz = tuple(
                tuple([terms and tuple([(k, x.numerator * (scale // x.denominator))
                                        for k, x in terms])
                       for terms in ci])
                for ci in self._nz
            )
        return view

    def ad_matrix(self, d: Sequence) -> ExactMatrix:
        """Matrix of ``w -> [d, w]`` in the algebra basis; linear in d."""
        n = self.dim
        if len(d) != n:
            raise DimensionMismatch("ad argument must have the algebra dimension")
        cols = [self.bracket(d, self.basis_vector(j)) for j in range(n)]
        return ExactMatrix(n, n, [cols[j][k] for k in range(n) for j in range(n)])

    def basis_vector(self, which) -> tuple:
        if isinstance(which, str):
            which = self.index_of(which)
        return tuple(Fraction(int(i == which)) for i in range(self.dim))

    def index_of(self, label: str) -> int:
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise LieCheckError(f"unknown basis label {label!r}") from None

    def zero_vector(self) -> tuple:
        return tuple(Fraction(0) for _ in range(self.dim))

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

    def matrix_of_element(self, v: Sequence) -> ExactMatrix:
        """Realize a coordinate vector as a matrix (matrix algebras only)."""
        if self.matrix_generators is None:
            raise LieCheckError(f"algebra {self.name!r} has no matrix realization")
        if len(v) != self.dim:
            raise DimensionMismatch("element must have the algebra dimension")
        size = self.matrix_size
        acc = ExactMatrix.zeros(size, size)
        for coeff, gen in zip(v, self.matrix_generators):
            if coeff:
                acc = acc + gen.scaled(coeff)
        return acc

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

    def __contains__(self, v) -> bool:
        return v in self.space

    def __repr__(self):
        return f"Subalgebra(dim={self.dim} of {self.parent.name!r})"


def make_subalgebra(alg: LieAlgebra, vectors: Sequence[Sequence]) -> Subalgebra:
    """Echelonize the span and certify closure under the bracket."""
    space = Subspace.from_vectors(alg.dim, vectors)
    rows = space.vectors()
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            br = alg.bracket(rows[a], rows[b])
            if br not in space:
                raise NotClosedUnderBracket(rows[a], rows[b], br)
    return Subalgebra(alg, space)


def conjugate_vector(v: Sequence) -> tuple:
    return tuple(conjugate_scalar(x) for x in v)


# ---------------------------------------------------------------------------
# matrix-generator construction
# ---------------------------------------------------------------------------

def _entries_by_position(m: ExactMatrix):
    """The nonzero entries of ``m`` as ``(row * cols + col, value)``."""
    cols = m.cols
    return (
        (r * cols + c, e) for r, terms in enumerate(m.nonzero_rows) for c, e in terms
    )


def _commutator(a: tuple, b: tuple, size: int) -> dict:
    """Nonzero entries ``{row * size + col: value}`` of ``AB - BA``, for
    square matrices given by their nonzero rows."""
    acc = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for r, terms in enumerate(x):
            for k, u in terms:
                for c, w in y[k]:
                    p = r * size + c
                    acc[p] = acc.get(p, _ZERO) + sign * u * w
    return {p: v for p, v in acc.items() if v}


class _SpanSolver:
    """Solve for coordinates of matrices inside a rational span of matrices.

    The generator matrices are flattened into real coordinate vectors (real
    and imaginary parts separately when any generator has entries in Q(i)),
    and a single row reduction of the augmented system ``[A | Id]`` records
    the elimination.  Its right block is kept by column: for each flattened
    position, the nonzero ``(row, value)`` pairs of that column.  A later
    target then costs one pass over the target's nonzero entries.
    """

    def __init__(self, matrices: Sequence[ExactMatrix]):
        self.matrices = tuple(matrices)
        self.size = matrices[0].rows
        self.has_imag = any(
            isinstance(e, GaussianRational) and e.im != 0
            for m in matrices
            for e in m.entries
        )
        columns = [self._flatten(_entries_by_position(m)) for m in matrices]
        height = self.size * self.size * (2 if self.has_imag else 1)
        n = len(columns)
        aug = ExactMatrix.from_rows(
            [
                [col.get(r, _ZERO) for col in columns]
                + [Fraction(int(r == s)) for s in range(height)]
                for r in range(height)
            ]
        )
        red, pivots = rref(aug)
        rank = sum(1 for p in pivots if p < n)
        self.independent = rank == n
        self.n = n
        # Rows with pivot inside the generator block recover coordinates;
        # the remaining rows span the left null space (membership test).
        self._top = [[] for _ in range(height)]
        self._bottom = [[] for _ in range(height)]
        for r, terms in enumerate(red.nonzero_rows):
            block = self._top if r < rank else self._bottom
            for c, a in terms:
                if c >= n:
                    block[c - n].append((r, a))
        self._complex = None

    def _flatten(self, entries) -> Optional[dict]:
        """``{position: rational}`` of the real coordinates of a matrix given
        by its nonzero ``entries`` (see :func:`_entries_by_position`); the
        imaginary part of position ``p`` is at ``size**2 + p``.  None when an
        imaginary part is nonzero but every generator is real."""
        half = self.size * self.size
        flat = {}
        for p, e in entries:
            if isinstance(e, GaussianRational):
                if e.im:
                    if not self.has_imag:
                        return None
                    flat[half + p] = e.im
                if e.re:
                    flat[p] = e.re
            else:
                flat[p] = e
        return flat

    def coords(self, target: ExactMatrix) -> Optional[tuple]:
        """Rational coordinates of ``target`` in the real span, or None."""
        return self._coords(self._flatten(_entries_by_position(target)))

    def _coords(self, flat: Optional[dict]) -> Optional[tuple]:
        """Coordinates of a target flattened by :meth:`_flatten`, or None."""
        if flat is None:
            return None
        residues = {}
        for p, x in flat.items():
            for r, a in self._bottom[p]:
                residues[r] = residues.get(r, _ZERO) + a * x
        if any(residues.values()):
            return None
        out = [_ZERO] * self.n
        for p, x in flat.items():
            for r, a in self._top[p]:
                out[r] = out[r] + a * x
        return tuple(out)

    def in_complex_span(self, target: ExactMatrix) -> bool:
        """Whether ``target`` lies in the Q(i)-span of the generators."""
        def as_gaussian(e):
            return e if isinstance(e, GaussianRational) else GaussianRational(e)

        if self._complex is None:
            self._complex = [[as_gaussian(e) for e in m.entries] for m in self.matrices]
        n = len(self._complex)
        height = self.size * self.size
        rows = [
            [self._complex[j][r] for j in range(n)] + [as_gaussian(target.entries[r])]
            for r in range(height)
        ]
        _, pivots = rref(ExactMatrix.from_rows(rows))
        return n not in pivots


def from_matrix_generators(
    size: int,
    generators: Sequence[ExactMatrix],
    *,
    labels: Optional[Sequence[str]] = None,
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
    zero_row = (_ZERO,) * n
    structure = [[zero_row] * n for _ in range(n)]
    views = [g.nonzero_rows for g in gens]
    for i in range(n):
        for j in range(i + 1, n):
            comm = _commutator(views[i], views[j], size)
            coords = solver._coords(solver._flatten(comm.items()))
            if coords is None:
                comm = ExactMatrix(
                    size, size, [comm.get(p, _ZERO) for p in range(size * size)]
                )
                if solver.in_complex_span(comm):
                    raise NonRealStructureConstants(labels[i], labels[j])
                raise NotClosed(labels[i], labels[j], comm)
            structure[i][j] = coords
            structure[j][i] = tuple(x if x is _ZERO else -x for x in coords)
    alg = LieAlgebra(
        name,
        labels,
        structure,
        matrix_size=size,
        matrix_generators=tuple(gens),
    )
    alg._span_solver = solver
    return alg
