"""Lie algebras by structure constants, subalgebras and conjugate vectors.

An algebra is stored as a basis-label list plus its nonzero structure
constants: ``nonzeros[i][j]`` holds the ``(k, c_ijk)`` pairs of
``[b_i, b_j] = sum_k c_ijk b_k`` with a nonzero rational ``c_ijk``, in
increasing ``k``.  Structure constants of matrix algebras are almost all
zero, so the bracket, the validation and the construction from generators
loop over nonzero entries only.  The constants are validated on
construction: antisymmetry entrywise and the Jacobi identity on every basis
triple.  Matrix algebras are converted at the door by
:func:`from_matrix_generators`; the generator matrices are retained so that
multiplication operators can be expressed later.
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

    ``nonzeros[i][j]`` is the tuple of ``(k, c_ijk)`` pairs of
    ``[b_i, b_j]`` with a nonzero rational coefficient, in increasing ``k``;
    it is the only storage, and :meth:`from_structure_tensor` builds an
    algebra from the dense tensor ``c[i][j][k]`` instead.
    :attr:`integer_constants` is the same view times one positive integer,
    for the antisymmetry and Jacobi checks and the integer pair loops of the
    checks (:func:`bracket_into`).
    """

    __slots__ = ("name", "dim", "basis_labels", "nonzeros", "_integer_nz",
                 "matrix_size", "matrix_generators", "_span_solver")

    def __init__(
        self,
        name: str,
        basis_labels: Sequence[str],
        nonzeros: Sequence[Sequence[Sequence]],
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
        self._check_antisymmetry()
        self._check_jacobi()

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

    def _check_antisymmetry(self):
        n = self.dim
        nz = self.integer_constants
        for i in range(n):
            for j in range(i, n):
                sums = {}  # c[i][j][k] + c[j][i][k], over the nonzero terms
                for k, a in nz[i][j] + nz[j][i]:
                    sums[k] = sums.get(k, 0) + a
                bad = [k for k, x in sums.items() if x]
                if bad:
                    raise InvalidStructureConstants(
                        f"antisymmetry fails at [{self.basis_labels[i]},"
                        f"{self.basis_labels[j]}] component {self.basis_labels[min(bad)]}"
                    )

    def _check_jacobi(self):
        # The Jacobiator is quadratic in the constants, so scaling all of them
        # by one positive integer keeps the verdict of every triple.
        n = self.dim
        nz = self.integer_constants
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
                                acc[t] = acc.get(t, 0) + coeff * c2
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
        terms = self._nonzero_coords(self._flatten(_entries_by_position(target)))
        if terms is None:
            return None
        out = [_ZERO] * self.n
        for r, x in terms:
            out[r] = x
        return tuple(out)

    def _nonzero_coords(self, flat: Optional[dict]) -> Optional[tuple]:
        """The nonzero ``(row, value)`` coordinates, in increasing row, of a
        target flattened by :meth:`_flatten`; None outside the real span."""
        if flat is None:
            return None
        residues = {}
        for p, x in flat.items():
            for r, a in self._bottom[p]:
                residues[r] = residues.get(r, _ZERO) + a * x
        if any(residues.values()):
            return None
        out = {}
        for p, x in flat.items():
            for r, a in self._top[p]:
                out[r] = out.get(r, _ZERO) + a * x
        return tuple(sorted((r, x) for r, x in out.items() if x))

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
    nonzeros = [[()] * n for _ in range(n)]
    views = [g.nonzero_rows for g in gens]
    for i in range(n):
        for j in range(i + 1, n):
            comm = _commutator(views[i], views[j], size)
            terms = solver._nonzero_coords(solver._flatten(comm.items()))
            if terms is None:
                comm = ExactMatrix(
                    size, size, [comm.get(p, _ZERO) for p in range(size * size)]
                )
                if solver.in_complex_span(comm):
                    raise NonRealStructureConstants(labels[i], labels[j])
                raise NotClosed(labels[i], labels[j], comm)
            nonzeros[i][j] = terms
            nonzeros[j][i] = tuple([(k, -x) for k, x in terms])
    alg = LieAlgebra(name, labels, nonzeros, matrix_size=size, matrix_generators=tuple(gens))
    alg._span_solver = solver
    return alg
