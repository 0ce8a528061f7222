"""Lie algebras by structure constants, subalgebras and conjugate vectors.

An algebra is stored as a basis-label list plus the structure tensor ``c``
with ``[b_i, b_j] = sum_k c[i][j][k] b_k`` over exact rationals.  The tensor
is validated on construction: antisymmetry entrywise and the Jacobi identity
on every basis triple.  Matrix algebras are converted at the door by
:func:`from_matrix_generators`; the generator matrices are retained so that
multiplication operators can be expressed later.
"""

from __future__ import annotations

from fractions import Fraction
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
    """A finite-dimensional real Lie algebra in a fixed basis."""

    __slots__ = ("name", "dim", "basis_labels", "c", "_nz", "matrix_size", "matrix_generators")

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
            tuple(tuple(_as_fraction(x) for x in structure[i][j]) for j in range(n))
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
        # Sparse view c[i][j] -> ((k, coeff), ...) used by bracket and Jacobi.
        self._nz = tuple(
            tuple(
                tuple((k, c[i][j][k]) for k in range(n) if c[i][j][k])
                for j in range(n)
            )
            for i in range(n)
        )
        self._check_antisymmetry()
        self._check_jacobi()

    def _check_antisymmetry(self):
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    if self.c[i][j][k] != -self.c[j][i][k]:
                        raise InvalidStructureConstants(
                            f"antisymmetry fails at [{self.basis_labels[i]},"
                            f"{self.basis_labels[j]}] component {self.basis_labels[k]}"
                        )

    def _basis_bracket_into(self, i: int, j: int, acc: list, factor):
        for k, coeff in self._nz[i][j]:
            acc[k] += factor * coeff

    def _check_jacobi(self):
        n = self.dim
        zero = Fraction(0)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = [zero] * n
                    for a, b, cc in ((i, j, k), (j, k, i), (k, i, j)):
                        # [b_a, [b_b, b_c]]
                        for m, coeff in self._nz[b][cc]:
                            self._basis_bracket_into(a, m, acc, coeff)
                    if any(acc):
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
        acc = [0] * n
        for i in range(n):
            vi = v[i]
            if not vi:
                continue
            nzi = self._nz[i]
            for j in range(n):
                wj = w[j]
                if not wj:
                    continue
                f = vi * wj
                for k, coeff in nzi[j]:
                    acc[k] = acc[k] + f * coeff
        return tuple(Fraction(x) if isinstance(x, int) else x for x in acc)

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

class _SpanSolver:
    """Solve for coordinates of matrices inside a rational span of matrices.

    The generator matrices are flattened into real coordinate vectors (real
    and imaginary parts separately when any generator has entries in Q(i)),
    and a single row reduction of the augmented system ``[A | Id]`` records
    the elimination, so each later target costs one matrix-vector product.
    """

    def __init__(self, matrices: Sequence[ExactMatrix]):
        self.matrices = tuple(matrices)
        self.size = matrices[0].rows
        self.has_imag = any(
            isinstance(e, GaussianRational) and e.im != 0
            for m in matrices
            for e in m.entries
        )
        columns = [self._flatten(m) for m in matrices]
        self.height = len(columns[0])
        n = len(columns)
        aug = ExactMatrix.from_rows(
            [
                [columns[j][r] for j in range(n)]
                + [Fraction(int(r == s)) for s in range(self.height)]
                for r in range(self.height)
            ]
        )
        red, pivots = rref(aug)
        rank = sum(1 for p in pivots if p < n)
        self.independent = rank == n
        self.n = n
        # Rows with pivot inside the generator block recover coordinates;
        # the remaining rows span the left null space (membership test).
        self._top = [red.row(i)[n:] for i in range(rank)]
        self._bottom = [red.row(i)[n:] for i in range(rank, red.rows)]
        self._complex = None

    def _flatten(self, m: ExactMatrix):
        re_part, im_part = [], []
        for e in m.entries:
            if isinstance(e, GaussianRational):
                re_part.append(e.re)
                im_part.append(e.im)
            else:
                re_part.append(e)
                im_part.append(Fraction(0))
        if self.has_imag:
            return re_part + im_part
        if any(im_part):
            return None
        return re_part

    def coords(self, target: ExactMatrix) -> Optional[tuple]:
        """Rational coordinates of ``target`` in the real span, or None."""
        t = self._flatten(target)
        if t is None:
            return None
        for row in self._bottom:
            acc = 0
            for a, b in zip(row, t):
                if a and b:
                    acc += a * b
            if acc:
                return None
        out = []
        for row in self._top:
            acc = Fraction(0)
            for a, b in zip(row, t):
                if a and b:
                    acc += a * b
            out.append(acc)
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
    zero_row = tuple(Fraction(0) for _ in range(n))
    structure = [[zero_row for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            comm = (gens[i] @ gens[j]) - (gens[j] @ gens[i])
            coords = solver.coords(comm)
            if coords is None:
                if solver.in_complex_span(comm):
                    raise NonRealStructureConstants(labels[i], labels[j])
                raise NotClosed(labels[i], labels[j], comm)
            structure[i][j] = coords
            structure[j][i] = tuple(-x for x in coords)
    return LieAlgebra(
        name,
        labels,
        structure,
        matrix_size=size,
        matrix_generators=tuple(gens),
    )
