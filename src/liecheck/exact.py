"""Exact scalar fields and exact linear algebra over sparse rows.

Scalars are arbitrary-precision rationals (``fractions.Fraction``, re-exported
as :data:`Rational`) or Gaussian rationals (:class:`GaussianRational`, the
field Q(i)).  Matrices and subspaces are immutable and every operation is a
pure function, so values can be shared freely between threads.

A matrix is stored as its dense row-major ``entries``; equality, hashing
and row reduction read only those.  The product with a vector,
:meth:`ExactMatrix.apply`, iterates a view derived from them instead,
:attr:`ExactMatrix.nonzero_rows`: per row, the ``(column, value)`` pairs of
its nonzero entries, built once on first use.  The matrices of this package
are mostly zeros (a unit generator of gl(n) has one nonzero entry, an
operator ``ad(D)`` one per row), so that loop skips the zeros without
testing them.  Column j of a matrix product ``a @ b`` is
``a.apply(b.column(j))``, so ``apply`` alone types a product's entries: one
is a :class:`GaussianRational` exactly when one of its terms ``a_ik * b_kj``
with ``a_ik`` nonzero is.  Membership coordinates are the vector's own
entries at the pivot columns.

The checks ("does this value lie in k, in m, in Z+?") run in integer
arithmetic instead.  Each integer view carries its positive scale: a
matrix is scaled once, by :meth:`ExactMatrix.gaussian_rows`, to its nonzero
rows of Gaussian integers times ``s``, the lcm of its denominators, and
:attr:`ExactMatrix.integer_columns` is that view by column.  From the rows
of :func:`_integer_rows`, :func:`integer_vector` is a real vector's nonzeros
times ``λ`` as ``{index: int}``, and :attr:`Subspace.annihilator` an integer
matrix ``Q`` whose kernel is the subspace (:func:`annihilated`).  A positive
multiple lies in a subspace exactly when the vector does, so a loop never
divides its scales out; a check does, for its witness (:func:`from_integers`).

Subspaces are kept in reduced row-echelon form with a fixed pivot rule
(leftmost nonzero column, first nonzero row, pivot normalized to 1, zeros
above and below), which makes equality of subspaces plain structural
equality.  A :class:`Subspace` is made of that basis alone; its ambient
dimension and pivot columns are read off it.  The elimination behind
:func:`rref` and :func:`kernel_basis` is fraction-free: each row is a list
of Gaussian integers over one positive common denominator (a real row has
no imaginary list), kept free of common content, and scalars are built
again only for the result.  One rule types those scalars, every row of
either result alike: every entry is a :class:`GaussianRational` when the
input has a GaussianRational entry, and a Fraction otherwise.
:func:`kernel_basis` eliminates once, choosing pivot columns from the
right, and reads the canonical kernel basis off that form;
:func:`subspace_intersection` is the kernel of both subspaces' equations.

The textual scalar syntax (``-3``, ``3/2``, ``3/2+1/4i``, ``-i``, ``2i``) is
shared with the declarative input format.  It is written once, as the
pattern :data:`SCALAR_SYNTAX`; :func:`scalar_from_match` builds the value of
a match, for :func:`parse_scalar` and the ``.lie`` scanner alike, and
:func:`format_scalar` is the inverse.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from collections.abc import Iterable, Sequence

from .errors import DimensionCapExceeded, DimensionMismatch, LieCheckError

Rational = Fraction

#: Largest supported ambient dimension.  Exact elimination is cubic; this cap
#: keeps every operation interactive while covering all shipped examples.
AMBIENT_DIM_CAP = 64


#: The shared zero that untouched entries of sparse results refer to, and
#: the shared one.
_ZERO, _ONE = Fraction(0), Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational scalar, got {type(x).__name__}")


class GaussianRational:
    """An element a + b*i of Q(i) with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @staticmethod
    def _coerce(x) -> GaussianRational | None:
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # Real Gaussian rationals must hash like the rational they equal.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


I = GaussianRational(0, 1)


def _coerce_scalar(x):
    """Coerce an entry to an exact scalar; floats are rejected."""
    if isinstance(x, (Fraction, GaussianRational)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact scalar required, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# scalar text syntax
# ---------------------------------------------------------------------------

#: The scalar syntax, a ``re.VERBOSE`` pattern whose named groups
#: :func:`scalar_from_match` reads.  The sign applies to the first part
#: (``-1+2i`` is -1 + 2i), whitespace may separate the parts, digits are
#: ASCII, and an ``i`` does not run on into a name (``2ix`` is ``2``, ``ix``).
SCALAR_SYNTAX = r"""(?P<sign>[+-])?{0}
    (?: (?P<num>[0-9]+) (?:{0}/{0}(?P<den>[0-9]+))?
        (?: {0}(?P<times_i>i)(?!\w)
          | {0}(?P<im_sign>[+-]){0} (?:(?P<im>[0-9]+)(?:{0}/{0}(?P<im_den>[0-9]+))?{0})? i(?!\w) )?
      | i(?!\w) )""".format(r"[ \t\r\n]*")


class ScalarLiteralError(ValueError):
    """Scalar syntax without a value: a zero denominator, or an integer too
    long for ``int``.  ``offset`` is where that integer starts."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def _integer(m, group: str) -> int:
    try:
        return int(m[group])
    except ValueError:  # the digits are ASCII, so only their number can fail
        raise ScalarLiteralError("integer literal too long", m.start(group)) from None


def _rational(m, num: str, den: str, sign: int) -> Fraction:
    n = sign * _integer(m, num)
    if m[den] is None:
        return Fraction(n)
    d = _integer(m, den)
    if d == 0:
        raise ScalarLiteralError("zero denominator", m.start(den))
    return Fraction(n, d)


def scalar_from_match(m):
    """The Fraction or GaussianRational of a match of :data:`SCALAR_SYNTAX`."""
    sign = -1 if m["sign"] == "-" else 1
    if m["num"] is None:
        return GaussianRational(0, sign)
    first = _rational(m, "num", "den", sign)
    if m["times_i"]:
        return GaussianRational(0, first)
    if m["im_sign"] is None:
        return first
    im_sign = -1 if m["im_sign"] == "-" else 1
    return GaussianRational(first, _rational(m, "im", "im_den", im_sign) if m["im"] else im_sign)


def parse_scalar(text: str):
    """Parse one scalar into a Fraction or GaussianRational; else ValueError."""
    # Compiled on first use: the command line reads scalars through specfile.
    m = re.fullmatch(SCALAR_SYNTAX, text.strip(), re.VERBOSE)
    if m is None:
        raise ValueError(f"not a valid scalar: {text!r}")
    return scalar_from_match(m)


def _rational_text(x) -> str:
    """``str(x)`` for an int or a Fraction of any length: ``str`` refuses
    ints past the interpreter's digit limit (4300 by default, 640 at least),
    so long ones are split at a power of ten and their halves joined."""
    if x.denominator != 1:
        return f"{_rational_text(x.numerator)}/{_rational_text(x.denominator)}"
    n = x.numerator
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(abs(n), 10 ** k)
    return ("-" if n < 0 else "") + _rational_text(high) + _rational_text(low).zfill(k)


def format_scalar(x) -> str:
    """Emit a scalar in canonical text form (inverse of :func:`parse_scalar`)."""
    x = _coerce_scalar(x)
    if isinstance(x, Fraction):
        return _rational_text(x)
    if x.im == 0:
        return _rational_text(x.re)
    mag = abs(x.im)
    im = "i" if mag == 1 else f"{_rational_text(mag)}i"
    sign = "+" if x.im > 0 else "-"
    if x.re == 0:
        return im if x.im > 0 else f"-{im}"
    return f"{_rational_text(x.re)}{sign}{im}"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class ExactMatrix:
    """An immutable matrix with exact entries, stored row-major.

    :attr:`nonzero_rows` is the sparse view of the same entries that the
    products and the eliminations read; :attr:`integer_columns` (the view of
    :meth:`gaussian_rows` by column) is the one every clause of the checks reads.
    """

    __slots__ = ("rows", "cols", "entries", "_nonzero_rows", "_integer_columns")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(_coerce_scalar(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._nonzero_rows = None
        self._integer_columns = None

    @property
    def nonzero_rows(self) -> tuple:
        """Per row, the ``(column, value)`` pairs of its nonzero entries."""
        view = self._nonzero_rows
        if view is None:
            cols, entries = self.cols, self.entries
            view = self._nonzero_rows = tuple(
                tuple((j, e) for j, e in enumerate(entries[i * cols:(i + 1) * cols]) if e)
                for i in range(self.rows)
            )
        return view

    def gaussian_rows(self) -> tuple:
        """``(s, rows)``: the matrix times ``s``, the lcm of its denominators, as
        its nonzero rows ``{row: {col: (re, im)}}`` of Gaussian integers."""
        parts = [[(c, e.re, e.im) if e.__class__ is GaussianRational else (c, e, 0)
                  for c, e in terms] for terms in self.nonzero_rows]
        s = lcm(*(x.denominator for terms in parts for _, a, b in terms for x in (a, b)))
        return s, {r: {c: (a.numerator * (s // a.denominator), b.numerator * (s // b.denominator))
                       for c, a, b in terms} for r, terms in enumerate(parts) if terms}

    @property
    def integer_columns(self) -> tuple:
        """``(s, columns)``: :meth:`gaussian_rows` by column, as the
        ``(row, int)`` pairs of its nonzero entries.  Real matrices only."""
        view = self._integer_columns
        if view is None:
            s, rows = self.gaussian_rows()
            columns = [[] for _ in range(self.cols)]
            for i, row in rows.items():
                for j, (x, y) in row.items():
                    if y:
                        raise TypeError("integer views need real entries")
                    columns[j].append((i, x))
            view = self._integer_columns = (s, tuple(map(tuple, columns)))
        return view

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple) -> "ExactMatrix":
        """A matrix of a tuple of exact scalars, taken without coercion."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, entries
        m._nonzero_rows = m._integer_columns = None
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "ExactMatrix":
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch("declared column count does not match rows")
            cols = width
        elif cols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        flat = [e for r in rows for e in r]
        return cls(len(rows), cols, flat)

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self.entries[j::self.cols]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Matrix product: column j is ``self.apply(other.column(j))``."""
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions do not match")
        columns = [self.apply(other.column(j)) for j in range(other.cols)]
        return ExactMatrix._of(self.rows, other.cols, tuple(
            x for row in zip(*columns) for x in row))

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector: entry i sums ``a * vec[j]`` over the
        nonzero entries ``a`` of row i, and is a GaussianRational exactly when
        one of those terms is (so a row with a GaussianRational nonzero gives
        one whatever ``vec`` holds).  A term of a rational entry and a
        rational zero of ``vec`` is skipped: it changes neither the value nor
        the type of the sum.
        """
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} != {self.cols}")
        skip = [x.__class__ is Fraction and not x for x in vec]
        out = []
        for terms in self.nonzero_rows:
            acc = _ZERO
            for j, a in terms:
                if skip[j] and a.__class__ is Fraction:
                    continue
                acc = acc + a * vec[j]
            out.append(acc)
        return tuple(out)

    def conjugated(self) -> "ExactMatrix":
        return ExactMatrix._of(self.rows, self.cols, tuple(
            e.conjugate() if e.__class__ is GaussianRational else e for e in self.entries))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


#: The shared Gaussian zero that eliminations emit.
_GZERO = GaussianRational(0)


def _is_gaussian(m: ExactMatrix) -> bool:
    """Whether ``m`` has a :class:`GaussianRational` entry: the type rule of
    every elimination result."""
    return GaussianRational in set(map(type, m.entries))


def _integer_rows(sparse: Iterable, cols: int) -> list:
    """Rows of length ``cols``, given by their nonzero ``(column, scalar)``
    terms (as :attr:`ExactMatrix.nonzero_rows`), as ``[re, im, den]``: entry
    j is ``(re[j] + i*im[j]) / den`` with int lists ``re``, ``im`` and a
    positive int ``den``; ``im`` is None in a row without imaginary parts."""
    rows = []
    for terms in sparse:
        parts = [(j, e.re, e.im) if e.__class__ is GaussianRational else (j, e, _ZERO)
                 for j, e in terms]
        den = lcm(*(x.denominator for _, a, b in parts for x in (a, b)))
        re, im = [0] * cols, None
        for j, a, b in parts:
            re[j] = a.numerator * (den // a.denominator)
            if b:
                if im is None:
                    im = [0] * cols
                im[j] = b.numerator * (den // b.denominator)
        rows.append([re, im, den])
    return rows


def _primitive(re: list, im: list | None, den: int) -> list:
    """An integer row with the common content of its numerators and its
    denominator divided out."""
    g = gcd(den, *re, *(im or ()))
    if g > 1:
        re = [x // g for x in re]
        if im is not None:
            im = [y // g for y in im]
        den //= g
    return [re, im, den]


def _eliminate(rows: list, cols: int, order: Iterable) -> list:
    """Gauss–Jordan elimination of :func:`_integer_rows` in place; returns
    the pivot columns, and ``rows[:len(pivots)]`` is the reduced form.

    Columns are visited in ``order``; the pivot row is the first remaining
    row that is nonzero there.  A pivot other than 1 is divided out (a
    multiplication by its conjugate over the Gaussian integers); then every
    other row with a nonzero entry in the column subtracts that multiple of
    the pivot row, brought over the common denominator.  Each row keeps its
    content removed, so the integers stay as small as the rationals they
    represent.
    """
    nrows = len(rows)
    pivots = []
    for col in order:
        r = len(pivots)
        if r == nrows:
            break
        for p in range(r, nrows):
            re, im, den = rows[p]
            if re[col] or (im is not None and im[col]):
                break
        else:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        a, b = re[col], (0 if im is None else im[col])
        if b or a != den:
            # row / pivot = (re + i im) (a - bi) / (a^2 + b^2)
            if im is None:
                re = [x * a for x in re]
            else:
                re, im = ([x * a + y * b for x, y in zip(re, im)],
                          [y * a - x * b for x, y in zip(re, im)])
            rows[r] = _primitive(re, im, a * a + b * b)
        re, im, den = rows[r]
        for p in range(nrows):
            x, y, xden = rows[p]
            fx, fy = x[col], (0 if y is None else y[col])
            if p == r or not (fx or fy):
                continue
            # den * (x + iy) - (fx + i fy) * (re + i im), over xden * den
            if im is None and not fy:
                x = [den * s - fx * t for s, t in zip(x, re)]
                if y is not None:
                    y = [den * s for s in y]
            else:
                y = y or [0] * cols
                w = im or [0] * cols
                x, y = ([den * s - fx * t + fy * u for s, t, u in zip(x, re, w)],
                        [den * s - fx * u - fy * t for s, t, u in zip(y, re, w)])
            rows[p] = _primitive(x, y, xden * den)
        pivots.append(col)
    return pivots


def _scalar_row(row: list, gaussian: bool) -> list:
    """The entries of an integer row as scalars, all GaussianRational when
    ``gaussian`` and all Fraction otherwise."""
    re, im, den = row
    if not gaussian:
        return [Fraction(x, den) if x else _ZERO for x in re]
    return [GaussianRational(Fraction(x, den), Fraction(y, den)) if x or y else _GZERO
            for x, y in zip(re, im or [0] * len(re))]


def rref(m: ExactMatrix) -> tuple:
    """Unique reduced row-echelon form, with zero rows dropped.

    Returns ``(reduced, pivot_cols)``.  The pivot rule is deterministic:
    leftmost nonzero column first, first nonzero row as pivot row, pivot
    normalized to 1, eliminated above and below.  The elimination runs on
    Gaussian integers (:func:`_eliminate`).  Every row is typed
    GaussianRational when ``m`` has a GaussianRational entry and Fraction
    otherwise.
    """
    cols = m.cols
    rows = _integer_rows(m.nonzero_rows, cols)
    pivots = _eliminate(rows, cols, range(cols))
    gaussian = _is_gaussian(m)
    entries = [e for row in rows[:len(pivots)] for e in _scalar_row(row, gaussian)]
    return ExactMatrix._of(len(pivots), cols, tuple(entries)), tuple(pivots)


def kernel_basis(m: ExactMatrix) -> "Subspace":
    """Canonical basis of the right kernel ``{x : m x = 0}``, entries typed
    GaussianRational when ``m`` has a GaussianRational entry."""
    return _kernel(_integer_rows(m.nonzero_rows, m.cols), m.cols, _is_gaussian(m))


def _kernel(rows: list, cols: int, gaussian: bool) -> "Subspace":
    """The kernel of :func:`_integer_rows` ``rows`` of length ``cols``, typed by ``gaussian``.

    One elimination, with pivot columns chosen from the right.  Then each
    free column f leads its kernel vector ``e_f - sum_r red[r][f] e_{p_r}``
    (a pivot ``p_r`` with ``red[r][f]`` nonzero lies right of f), whose
    entries at the other free columns are zero: by ascending f these
    vectors are already the canonical reduced row-echelon basis.
    """
    pivots = _eliminate(rows, cols, range(cols - 1, -1, -1))
    free = sorted(set(range(cols)) - set(pivots))
    kernel = []
    for f in free:
        terms = [(p, re[f], 0 if im is None else im[f], den)
                 for (re, im, den), p in zip(rows, pivots)]
        kden = lcm(*(d for _, x, y, d in terms if x or y))
        kre, kim = [0] * cols, [0] * cols
        kre[f] = kden
        for p, x, y, d in terms:
            kre[p], kim[p] = -x * (kden // d), -y * (kden // d)
        kernel.extend(_scalar_row([kre, kim, kden], gaussian))
    return Subspace(ExactMatrix._of(len(free), cols, tuple(kernel)))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A linear subspace held as its reduced row-echelon basis.

    The basis is the only datum: the ambient dimension is its column count
    and the pivot columns are the first nonzero column of each row.  Because
    the representation is canonical, two subspaces are equal exactly when
    their bases are.
    """

    __slots__ = ("ambient_dim", "basis", "pivot_cols", "_eqs", "_annihilator")

    def __init__(self, basis: ExactMatrix):
        if basis.cols > AMBIENT_DIM_CAP:
            raise DimensionCapExceeded(
                f"ambient dimension {basis.cols} exceeds the cap {AMBIENT_DIM_CAP}"
            )
        rows = basis.nonzero_rows
        if not all(rows):
            raise LieCheckError("a subspace basis has a zero row")
        pivots = tuple(terms[0][0] for terms in rows)
        # Reduced echelon form: pivots 1, in increasing columns, and the only
        # nonzero entry of their columns.
        at_pivots = set(pivots)
        if (any(terms[0][1] != 1 for terms in rows)
                or any(p >= q for p, q in zip(pivots, pivots[1:]))
                or sum([j in at_pivots for terms in rows for j, _ in terms]) != len(rows)):
            raise LieCheckError("a subspace basis is not in reduced row-echelon form")
        self.ambient_dim = basis.cols
        self.basis = basis
        self.pivot_cols = pivots
        self._eqs = self._annihilator = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        return cls(rref(ExactMatrix.from_rows(vecs, cols=ambient_dim))[0])

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> tuple:
        return tuple(self.basis.row(i) for i in range(self.dim))

    def coordinates_of(self, v: Sequence) -> tuple | None:
        """Coordinates of ``v`` in the echelon basis, or None if outside.

        ``v`` lies in the subspace exactly when it satisfies every row of
        :meth:`_equations`, and then its coordinates are its entries at the
        pivot columns.
        """
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient dimension {self.ambient_dim}"
            )
        v = [_coerce_scalar(x) for x in v]
        for terms in self._equations():
            if sum(x * v[j] for j, x in terms if v[j]):
                return None
        return tuple(v[p] for p in self.pivot_cols)

    def __contains__(self, v) -> bool:
        return self.coordinates_of(v) is not None

    def _equations(self) -> list:
        """Per non-pivot column ``f`` of the echelon basis, the nonzero terms
        ``(column, scalar)`` of ``e_f - sum_r basis[r][f] e_{pivot_r}``: a
        vector lies in the span of the echelon basis exactly when its
        entries at the non-pivot columns are those of the combination of
        basis rows given by its pivot entries, that is, when its product
        with every such row vanishes.  Computed once."""
        eqs = self._eqs
        if eqs is None:
            pivots = self.pivot_cols
            eqs = self._eqs = [
                [(f, _ONE)] + [(p, -b) for p, b in zip(pivots, self.basis.column(f)) if b]
                for f in sorted(set(range(self.ambient_dim)) - set(pivots))]
        return eqs

    @property
    def annihilator(self) -> ExactMatrix:
        """An integer matrix whose kernel is this subspace (real subspaces
        only): the rows of :meth:`_equations`, each times the lcm of its
        denominators."""
        if self._annihilator is None:
            n, rows = self.ambient_dim, _real_rows(self._equations(), self.ambient_dim)
            self._annihilator = ExactMatrix._of(len(rows), n, tuple(
                [Fraction(x) if x else _ZERO for re, _, _ in rows for x in re]))
        return self._annihilator

    def conjugated(self) -> "Subspace":
        # Conjugation fixes the pivot structure, so the result stays canonical.
        return Subspace(self.basis.conjugated())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace.from_vectors(a.ambient_dim, list(a.vectors()) + list(b.vectors()))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """The kernel of the equations of ``a`` and ``b`` stacked, typed
    GaussianRational when either basis has a GaussianRational entry."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    n = a.ambient_dim
    return _kernel(_integer_rows(a._equations() + b._equations(), n), n,
                   _is_gaussian(a.basis) or _is_gaussian(b.basis))


# ---------------------------------------------------------------------------
# integer views
# ---------------------------------------------------------------------------

def _real_rows(sparse: Iterable, cols: int) -> list:
    """:func:`_integer_rows` of real rows; a non-real entry is a TypeError."""
    rows = _integer_rows(sparse, cols)
    if any(im for _, im, _ in rows):
        raise TypeError("integer views need real entries")
    return rows


def integer_vector(v: Sequence) -> tuple:
    """``(λ, {index: int})``: the nonzeros of a real vector times ``λ``, the
    lcm of their denominators."""
    [(re, _, den)] = _real_rows([[(j, x) for j, x in enumerate(v) if x]], len(v))
    return den, {j: x for j, x in enumerate(re) if x}


def from_integers(n: int, scale: int, re: dict, im: dict | None = None) -> tuple:
    """``(re + i im) / scale`` of length ``n``, a witness from its integer loop:
    Fraction entries without ``im``; with it, typed as a complex bracket, a
    GaussianRational where ``re`` or ``im`` has a key (a term touched it)."""
    if im is None:
        return tuple(Fraction(re[j], scale) if j in re else _ZERO for j in range(n))
    return tuple(GaussianRational(Fraction(re.get(j, 0), scale), Fraction(im.get(j, 0), scale))
                 if j in re or j in im else _ZERO for j in range(n))


def apply_columns(columns: Sequence, v: dict, acc: dict, sign: int = 1) -> dict:
    """Add ``sign * M v`` to ``acc`` and return it, for ``M`` given by its
    integer columns (:attr:`ExactMatrix.integer_columns`)."""
    for j, x in v.items():
        if x:
            x *= sign
            for i, a in columns[j]:
                acc[i] = acc.get(i, 0) + x * a
    return acc


def annihilated(columns: Sequence, v: dict) -> bool:
    """Whether ``Q v = 0`` for ``Q`` given by its integer columns: with ``Q``
    a :attr:`Subspace.annihilator`, whether ``v`` lies in the subspace."""
    return not any(apply_columns(columns, v, {}).values())
