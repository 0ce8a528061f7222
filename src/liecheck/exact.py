"""Exact scalar fields and exact linear algebra over sparse rows.

Scalars are arbitrary-precision rationals (``fractions.Fraction``, re-exported
as :data:`Rational`) or Gaussian rationals (:class:`GaussianRational`, the
field Q(i)).  Matrices and subspaces are immutable and every operation is a
pure function, so values can be shared freely between threads.

A matrix is stored as its dense row-major ``entries``; equality, hashing
and row reduction read only those.  The products (``apply``, ``@``) and
subspace membership iterate a view derived from them instead,
:attr:`ExactMatrix.nonzero_rows`: per row, the ``(column, value)`` pairs of
its nonzero entries, built once on first use.  The matrices of this package
are mostly zeros (a unit generator of gl(n) has one nonzero entry, an
operator ``ad(D)`` one per row), so those loops skip the zeros without
testing them.  An entry of a product is a :class:`GaussianRational` exactly
when one of its terms ``a_ik * b_kj`` with ``a_ik`` nonzero is; membership
coordinates are the vector's own entries at the pivot columns.

The pair loops of the checks ("does this value lie in k?") run in integer
arithmetic instead.  :attr:`ExactMatrix.integer_columns` holds a real
matrix's nonzero columns times the lcm of all its denominators, and
:attr:`Subspace.annihilator` is an integer matrix ``Q`` with one row per
non-pivot column of the echelon basis, so that ``v`` lies in the subspace
exactly when ``Q v = 0`` (:func:`annihilated`).  Vectors in that arithmetic
are sparse dicts ``{index: int}`` (:func:`integer_vector`).  Scaling a
vector by a positive integer does not change whether it lies in a subspace,
so the scales are never divided out.

Subspaces are kept in reduced row-echelon form with a fixed pivot rule
(leftmost nonzero column, first nonzero row, pivot normalized to 1, zeros
above and below), which makes equality of subspaces plain structural
equality.  The elimination behind :func:`rref` and :func:`kernel_basis` is
fraction-free: each row is a list of Gaussian integers over one positive
common denominator (a real row has no imaginary list), kept free of common
content, and scalars are built again only for the result.  One rule types
those scalars: every entry is a :class:`GaussianRational` when the input
has a GaussianRational entry, and a Fraction otherwise.
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

from .errors import DimensionCapExceeded, DimensionMismatch

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


def conjugate_scalar(x):
    x = _coerce_scalar(x)
    if isinstance(x, GaussianRational):
        return x.conjugate()
    return x


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
    products and membership tests iterate; :attr:`integer_columns` is the
    integer view that the pair loops of the checks use.
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

    @property
    def integer_columns(self) -> tuple:
        """Per column, the ``(row, int)`` pairs of its nonzero entries, all
        times one positive integer (the lcm of the denominators).  Real
        matrices only."""
        view = self._integer_columns
        if view is None:
            columns = [[] for _ in range(self.cols)]
            terms = scaled_integers(
                ((i, j), e) for i, row in enumerate(self.nonzero_rows) for j, e in row
            )
            for (i, j), a in terms:
                columns[j].append((i, a))
            view = self._integer_columns = tuple(map(tuple, columns))
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
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Matrix product; row i of the result combines the rows of ``other``
        selected by the nonzeros of row i of ``self``."""
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions do not match")
        width = other.cols
        out = []
        for terms in self.nonzero_rows:
            acc = [_ZERO] * width
            for k, a in terms:
                acc = [x + a * b for x, b in zip(acc, other.row(k))]
            out.extend(acc)
        return ExactMatrix(self.rows, width, out)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector.

        A term whose factors are a rational entry and a rational zero of
        ``vec`` is skipped: it changes neither the value nor the type of its
        sum.
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
        return ExactMatrix(self.rows, self.cols, [conjugate_scalar(e) for e in self.entries])

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


def _integer_rows(m: ExactMatrix) -> list:
    """The rows of ``m`` as ``[re, im, den]``: entry j is
    ``(re[j] + i*im[j]) / den`` with int lists ``re``, ``im`` and a positive
    int ``den``; ``im`` is None in a row without imaginary parts."""
    cols = m.cols
    rows = []
    for terms in m.nonzero_rows:
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
    Gaussian integers (:func:`_eliminate`).  A row it changed is typed
    GaussianRational when ``m`` has a GaussianRational entry and Fraction
    otherwise; a row it never changed is returned as given.
    """
    cols = m.cols
    rows = _integer_rows(m)
    gaussian = _is_gaussian(m)
    given = rows[:]  # holds the given rows, so no changed row can reuse their ids
    pivots = _eliminate(rows, cols, range(cols))
    index = {id(row): i for i, row in enumerate(given)}
    entries = []
    for row in rows[:len(pivots)]:
        i = index.get(id(row))
        entries.extend(_scalar_row(row, gaussian) if i is None else m.row(i))
    return ExactMatrix._of(len(pivots), cols, tuple(entries)), tuple(pivots)


def kernel_basis(m: ExactMatrix) -> "Subspace":
    """Canonical basis of the right kernel ``{x : m x = 0}``, entries typed
    GaussianRational when ``m`` has a GaussianRational entry."""
    return _kernel(m, _is_gaussian(m))


def _kernel(m: ExactMatrix, gaussian: bool) -> "Subspace":
    """The kernel of ``m``, typed by ``gaussian``.

    One elimination, with pivot columns chosen from the right.  Then each
    free column f leads its kernel vector ``e_f - sum_r red[r][f] e_{p_r}``
    (a pivot ``p_r`` with ``red[r][f]`` nonzero lies right of f), whose
    entries at the other free columns are zero: by ascending f these
    vectors are already the canonical reduced row-echelon basis.
    """
    cols = m.cols
    rows = _integer_rows(m)
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
    return Subspace(cols, ExactMatrix._of(len(free), cols, tuple(kernel)), tuple(free))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A linear subspace held as a reduced row-echelon basis.

    Because the representation is canonical, two subspaces are equal exactly
    when their ``(ambient_dim, basis)`` data are equal.
    """

    __slots__ = ("ambient_dim", "basis", "pivot_cols", "_eqs", "_annihilator")

    def __init__(self, ambient_dim: int, basis: ExactMatrix, pivot_cols: tuple):
        if ambient_dim > AMBIENT_DIM_CAP:
            raise DimensionCapExceeded(
                f"ambient dimension {ambient_dim} exceeds the cap {AMBIENT_DIM_CAP}"
            )
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivot_cols = pivot_cols
        self._eqs = self._annihilator = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        if ambient_dim > AMBIENT_DIM_CAP:
            raise DimensionCapExceeded(
                f"ambient dimension {ambient_dim} exceeds the cap {AMBIENT_DIM_CAP}"
            )
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        m = ExactMatrix.from_rows(vecs, cols=ambient_dim)
        red, piv = rref(m)
        return cls(ambient_dim, red, piv)

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
        q = self._annihilator
        if q is None:
            n = self.ambient_dim
            rows = []
            for terms in self._equations():
                row = [_ZERO] * n
                for j, a in scaled_integers(terms):
                    row[j] = Fraction(a)
                rows.append(row)
            q = self._annihilator = ExactMatrix.from_rows(rows, cols=n)
        return q

    def conjugated(self) -> "Subspace":
        # Conjugation fixes the pivot structure, so the result stays canonical.
        return Subspace(self.ambient_dim, self.basis.conjugated(), self.pivot_cols)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.pivot_cols == other.pivot_cols
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.pivot_cols, self.basis))

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
    equations = a._equations() + b._equations()
    entries = [_ZERO] * (len(equations) * n)
    for r, terms in enumerate(equations):
        for j, x in terms:
            entries[r * n + j] = x
    stacked = ExactMatrix._of(len(equations), n, tuple(entries))
    return _kernel(stacked, _is_gaussian(a.basis) or _is_gaussian(b.basis))


# ---------------------------------------------------------------------------
# integer views
# ---------------------------------------------------------------------------

def _real_rational(x):
    """A real scalar as a Fraction (or int); a Q(i) scalar with a nonzero
    imaginary part is rejected."""
    if isinstance(x, GaussianRational):
        if x.im:
            raise TypeError("integer views need real entries")
        return x.re
    return x


def scaled_integers(terms) -> tuple:
    """``(key, value)`` pairs with real values, as ``(key, int)``: every value
    times one positive integer, the lcm of their denominators."""
    terms = [(key, _real_rational(x)) for key, x in terms]
    scale = lcm(*(x.denominator for _, x in terms))
    return tuple((key, x.numerator * (scale // x.denominator)) for key, x in terms)


def integer_vector(v: Sequence) -> dict:
    """The nonzeros of a real vector times the lcm of their denominators, as
    ``{index: int}``: a positive multiple of ``v``."""
    return dict(scaled_integers((j, x) for j, x in enumerate(v) if x))


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
