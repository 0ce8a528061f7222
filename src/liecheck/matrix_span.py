"""Matrices in integer rows, and the span solver of matrix generators.

Only an algebra given by matrix generators, and the multiplication operators
on it, need this module; :mod:`liecheck.algebra` and
:mod:`liecheck.operators` load it on first use, so an input given by
structure constants never runs it.  A matrix is scaled to Gaussian-integer
rows (:func:`_gaussian_rows`), products are taken on those rows
(:func:`_times`), and :class:`_SpanSolver` gives the coordinates of a
product in the generators by one integer elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from collections.abc import Sequence

from .exact import ExactMatrix, GaussianRational, _eliminate, rref


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
