"""Parser and serializer for the declarative ``.lie`` input format.

The format describes algebras (structure-constant or matrix-generator form),
subalgebras, complements, operators and homogeneous pairs::

    algebra so3 { basis k0 e1 e2; bracket [k0,e1] = -1*e2; bracket [k0,e2] = e1; bracket [e1,e2] = -1*k0; }
    subalgebra k of so3 = span(k0);
    operator I on so3 = ad(k0);
    pair sphere = (so3, k, connected = true);

Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    document    := item* ;
    item        := algebra | matrixalg | subalgebra | complement | operator | pair ;
    algebra     := "algebra" NAME "{" "basis" NAME+ ";" ("bracket" "[" NAME "," NAME "]" "=" lincomb ";")* "}" ;
    matrixalg   := "matrix_algebra" NAME "dim" "=" DIGITS "{" ("gen" NAME "=" matrix ";")+ "}" ;
    subalgebra  := "subalgebra" NAME "of" NAME "=" "span" "(" lincomb ("," lincomb)* ")" ";" ;
    complement  := "complement" NAME "of" NAME "=" "span" "(" lincomb ("," lincomb)* ")" ";" ;
    operator    := "operator" NAME "on" NAME ("{" (NAME "->" lincomb ";")+ "}"
                   | "=" ("ad" "(" lincomb ")" | "left" "(" matrix ")" | "right" "(" matrix ")"
                          | "sandwich" "(" matrix "," matrix ")")) ";"? ;
    pair        := "pair" NAME "=" "(" NAME "," NAME ["," "complement" NAME]
                   ["," "connected" "=" ("true"|"false")] ["," "reps" "(" matrix ("," matrix)* ")"] ")" ";" ;
    lincomb     := [scalar "*"] NAME (("+"|"-") [scalar "*"] NAME)* | scalar ;
    matrix      := "[" row ("," row)* "]" ;   row := "[" scalar ("," scalar)* "]" ;
    scalar      := ["+"|"-"] (rational ["i" | ("+"|"-") [rational] "i"] | "i") ;
    rational    := DIGITS ["/" DIGITS] ;

A scalar is one token, :data:`liecheck.exact.SCALAR_SYNTAX`: whitespace may
separate its parts but a comment may not, and DIGITS are ASCII ``0-9``.  In
``1+2i`` the ``+2i`` belongs to the scalar; in ``1 + 2*e1`` it does not, and
``+ 2`` starts the next term.  A name starts with a letter or ``_``.

A bare scalar as a lincomb must be 0 (the zero vector).  Unspecified
brackets default to zero and ``[b,a]`` is inferred as ``-[a,b]``; declaring
both with values that are not negatives of each other is an error.  The name
``i`` is reserved for the imaginary unit and cannot be a basis label.

A name must be declared before it is used: an item may refer only to the
algebras, subalgebras and complements declared above it.  Each item is
resolved as it is parsed, so of several errors the first in the text is
reported; a character outside the grammar is the exception, because the
whole text is scanned first.

Every parsed document round-trips: ``parse(serialize(doc)) == doc``.
Serialization is canonical: items sorted by kind then name, one declaration
per line, scalars in canonical form, brackets emitted only for i < j.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from . import _lazy_module
from .errors import LieCheckError
from .exact import (
    _ZERO,
    I,
    SCALAR_SYNTAX,
    ExactMatrix,
    GaussianRational,
    ScalarLiteralError,
    Subspace,
    format_scalar,
    scalar_from_match,
)
from .values import FrozenValue, Value

# Only build() needs these; parsing and serializing run without them.
_algebra = _lazy_module("liecheck.algebra")
_operators = _lazy_module("liecheck.operators")


class SpecfileError(LieCheckError):
    """A diagnostic with a source position inside the parsed text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class SpecSyntaxError(SpecfileError):
    def __init__(self, message, line, col, found=None, expected=()):
        super().__init__(message, line, col)
        self.found = found
        self.expected = tuple(expected)


class DuplicateName(SpecfileError):
    pass


class UnresolvedReference(SpecfileError):
    pass


class InconsistentBracket(SpecfileError):
    pass


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------

class AlgebraDecl(FrozenValue):
    """``brackets`` is ``((i, j, coords), ...)`` with i < j, nonzero coords only."""

    __slots__ = ("name", "labels", "brackets")


class MatrixAlgebraDecl(FrozenValue):
    __slots__ = ("name", "size", "gen_names", "gen_matrices")


class SubspaceDecl(FrozenValue):
    """``kind`` is ``"subalgebra"`` or ``"complement"``."""

    __slots__ = ("kind", "name", "algebra", "vectors")


class OperatorDecl(FrozenValue):
    """``form`` is ``"rules"``, ``"ad"``, ``"left"``, ``"right"`` or ``"sandwich"``."""

    __slots__ = ("name", "algebra", "form", "data")


class PairDecl(FrozenValue):
    """``reps`` are the component representatives of a non-connected subgroup."""

    __slots__ = ("name", "algebra", "subalgebra", "complement", "connected", "reps")
    _defaults = {"complement": None, "connected": True, "reps": ()}


class SpecDocument(Value):
    """All declarations of a parsed document: one dict per kind, keyed by name."""

    __slots__ = ("algebras", "matrix_algebras", "subalgebras", "complements",
                 "operators", "pairs")
    _defaults = dict.fromkeys(__slots__, {})

    def labels(self, algebra: str) -> Optional[tuple]:
        """The basis labels of a declared algebra, or None."""
        if algebra in self.algebras:
            return self.algebras[algebra].labels
        if algebra in self.matrix_algebras:
            return self.matrix_algebras[algebra].gen_names
        return None


# ---------------------------------------------------------------------------
# scanner
# ---------------------------------------------------------------------------

class _Token:
    """A token: its kind (NAME, SCALAR, PUNCT or EOF), text, position and value."""

    __slots__ = ("kind", "text", "line", "col", "value")

    def __init__(self, kind: str, text: str, line: int, col: int, value):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.value = value


# A lone ``i`` is a NAME: it may name an algebra, and the parser reads it as
# the imaginary unit where a scalar is expected.
_TOKEN = re.compile(rf"""
      (?P<NEWLINE> \n )
    | (?P<SKIP> [ \t\r]+ | \#[^\n]* )
    | (?P<NAME> [^\W\d]\w* )
    | (?P<SCALAR> {SCALAR_SYNTAX} )
    | (?P<PUNCT> -> | [{{}}()\[\],;=*+\-/] )
    | (?P<EOF> \Z )
    | (?P<BAD> . )
""", re.VERBOSE)


def _scan(text: str) -> list:
    tokens = []
    values = {}  # scalars are immutable: one value per literal text, as I is
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, word = m.lastgroup, m[0]
        if kind == "SKIP":
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        col = m.start() - line_start + 1
        value = None
        if kind == "SCALAR":
            value = values.get(word)
            if value is None:
                try:
                    value = values[word] = scalar_from_match(m)
                except ScalarLiteralError as exc:  # raised when the parser takes the token
                    at = exc.offset
                    value = SpecSyntaxError(str(exc), text.count("\n", 0, at) + 1,
                                            at - text.rfind("\n", 0, at))
        # \w admits numerals such as "²"; a name starts with a letter or "_".
        elif kind == "BAD" or kind == "NAME" and not (word[0].isalpha() or word[0] == "_"):
            raise SpecSyntaxError(f"unexpected character {word[0]!r}", line, col,
                                  found=word[0])
        tokens.append(_Token(kind, word, line, col, value))
        if "\n" in word:  # the parts of a scalar may stand on several lines
            line += word.count("\n")
            line_start = m.start() + word.rindex("\n") + 1
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    """Parses the items in order, resolving each into its declaration and
    registering it in :attr:`doc` before the next item starts."""

    def __init__(self, text: str):
        self.tokens = _scan(text)
        self.pos = 0
        self.doc = SpecDocument()

    # -- token helpers ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, expected, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        shown = tok.text or "end of input"
        exp = ", ".join(expected)
        raise SpecSyntaxError(
            f"expected {exp}, found {shown!r}", tok.line, tok.col,
            found=shown, expected=expected,
        )

    def expect_punct(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == text:
            return self.advance()
        self.fail([repr(text)])

    def expect_name(self, what: str = "a name") -> _Token:
        tok = self.peek()
        if tok.kind == "NAME":
            return self.advance()
        self.fail([what])

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind == "NAME" and tok.text == word:
            return self.advance()
        self.fail([repr(word)])

    def at_punct(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "PUNCT" and tok.text == text

    def at_name(self, text: Optional[str] = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "NAME" and (text is None or tok.text == text)

    # -- names ----------------------------------------------------------------

    def _new_name(self, what: str) -> str:
        """The name an item declares; no earlier item may hold it."""
        tok = self.expect_name(what)
        if any(tok.text in getattr(self.doc, table) for table in SpecDocument.__slots__):
            raise DuplicateName(f"name {tok.text!r} already declared", tok.line, tok.col)
        return tok.text

    def _algebra_ref(self) -> tuple:
        """An algebra declared earlier: its name and ``{label: index}``."""
        tok = self.expect_name("an algebra name")
        labels = self.doc.labels(tok.text)
        if labels is None:
            raise UnresolvedReference(f"unknown algebra {tok.text!r}", tok.line, tok.col)
        return tok.text, {lab: i for i, lab in enumerate(labels)}

    def _subspace_ref(self, table: dict, kind: str, algebra: str) -> str:
        """A subalgebra or complement declared earlier on ``algebra``."""
        tok = self.expect_name(f"a {kind} name")
        decl = table.get(tok.text)
        if decl is None:
            raise UnresolvedReference(f"unknown {kind} {tok.text!r}", tok.line, tok.col)
        if decl.algebra != algebra:
            raise UnresolvedReference(
                f"{kind} {tok.text!r} is declared on {decl.algebra!r}, not {algebra!r}",
                tok.line, tok.col,
            )
        return tok.text

    def _label(self, index: dict) -> _Token:
        """A basis label of the algebra whose labels ``index`` maps."""
        tok = self.expect_name("a basis label")
        if tok.text not in index:
            raise UnresolvedReference(f"unknown basis label {tok.text!r}", tok.line, tok.col)
        return tok

    # -- scalars ------------------------------------------------------------

    def _try_scalar(self):
        """Take a scalar if one starts here; returns None otherwise."""
        tok = self.tokens[self.pos]
        if tok.kind == "SCALAR":
            value = tok.value
            if value.__class__ is SpecSyntaxError:  # a literal without a value
                raise value
        elif tok.kind == "NAME" and tok.text == "i":
            value = I
        else:
            return None
        self.pos += 1
        # In "3//2" the first "/" starts a denominator that is not there.
        if self.tokens[self.pos].text == "/" and tok.text[-1] != "i" and "/" not in tok.text:
            self.advance()
            self.fail(["a denominator"])
        return value

    def _scalar(self):
        s = self._try_scalar()
        if s is None:
            self.fail(["a scalar"])
        return s

    # -- lincombs and matrices ----------------------------------------------

    def _lincomb(self, index: dict) -> tuple:
        """A vector over the labels that ``index`` maps to their positions,
        as a tuple of Fractions; each term is resolved as it is read."""
        head = self.peek()
        coords = [_ZERO] * len(index)
        terms = 0
        bare = False
        while True:
            sign = 1
            if self.at_punct("+"):
                self.advance()
            elif self.at_punct("-"):
                sign = -1
                self.advance()
            elif terms:
                # A signed scalar is a term of its own: "x -2*y".
                tok = self.peek()
                if tok.kind != "SCALAR" or tok.text[0] not in "+-":
                    break
            terms += 1
            if self.at_name() and not self.at_name("i"):
                coords[index[self._label(index).text]] += sign
                continue
            coeff = self._try_scalar()
            if coeff is None:
                self.fail(["a scalar or a basis label"])
            if not self.at_punct("*"):
                if coeff != 0:
                    raise SpecSyntaxError("a bare scalar in a vector position must be 0",
                                          head.line, head.col)
                bare = True
                continue
            self.advance()
            label = self._label(index)
            if isinstance(coeff, GaussianRational):
                if not coeff.is_real:
                    raise SpecSyntaxError("coefficients in vectors must be rational",
                                          label.line, label.col)
                coeff = coeff.re
            coords[index[label.text]] += sign * coeff
        if bare and terms > 1:
            raise SpecSyntaxError("a bare scalar cannot be mixed with basis terms",
                                  head.line, head.col)
        return tuple(coords)

    def _matrix(self) -> ExactMatrix:
        head = self.expect_punct("[")
        entries, widths = [], []
        while True:
            self.expect_punct("[")
            start = len(entries)
            entries.append(self._scalar())
            while self.tokens[self.pos].text == ",":  # only a PUNCT reads ","
                self.pos += 1
                entries.append(self._scalar())
            self.expect_punct("]")
            widths.append(len(entries) - start)
            if not self.at_punct(","):
                break
            self.pos += 1
        self.expect_punct("]")
        if widths.count(widths[0]) != len(widths):
            raise SpecSyntaxError("ragged matrix rows", head.line, head.col)
        # The entries are exact scalars already.
        return ExactMatrix._of(len(widths), widths[0], tuple(entries))

    # -- items ----------------------------------------------------------------

    def parse_items(self) -> SpecDocument:
        handlers = {
            "algebra": self._item_algebra,
            "matrix_algebra": self._item_matrix_algebra,
            "subalgebra": self._item_subspace,
            "complement": self._item_subspace,
            "operator": self._item_operator,
            "pair": self._item_pair,
        }
        while not self.peek().kind == "EOF":
            tok = self.peek()
            handler = handlers.get(tok.text) if tok.kind == "NAME" else None
            if handler is None:
                self.fail(["algebra", "matrix_algebra", "subalgebra",
                           "complement", "operator", "pair"])
            handler()
        return self.doc

    def _item_algebra(self):
        self.expect_keyword("algebra")
        name = self._new_name("an algebra name")
        self.expect_punct("{")
        self.expect_keyword("basis")
        index = {}
        while self.at_name():
            tok = self.advance()
            if tok.text in index:
                raise DuplicateName(f"duplicate basis label {tok.text!r}", tok.line, tok.col)
            if tok.text == "i":
                raise SpecSyntaxError("basis label 'i' is reserved for the imaginary unit",
                                      tok.line, tok.col)
            index[tok.text] = len(index)
        if not index:
            self.fail(["at least one basis label"])
        self.expect_punct(";")
        given = {}
        while self.at_name("bracket"):
            self.advance()
            self.expect_punct("[")
            a = self._label(index)
            self.expect_punct(",")
            b = self._label(index)
            self.expect_punct("]")
            self.expect_punct("=")
            coords = self._lincomb(index)
            ia, ib = index[a.text], index[b.text]
            if ia == ib:
                if any(coords):
                    raise InconsistentBracket(f"[{a.text},{a.text}] must be 0", a.line, a.col)
            elif (ia, ib) in given and given[(ia, ib)] != coords:
                raise InconsistentBracket(
                    f"bracket [{a.text},{b.text}] declared twice with different values",
                    a.line, a.col,
                )
            elif (ib, ia) in given and given[(ib, ia)] != tuple(-x for x in coords):
                raise InconsistentBracket(
                    f"brackets [{a.text},{b.text}] and [{b.text},{a.text}] are not negatives",
                    a.line, a.col,
                )
            else:
                given[(ia, ib)] = coords
            self.expect_punct(";")
        self.expect_punct("}")
        canonical = {}
        for (ia, ib), coords in given.items():
            if ia < ib:
                canonical[(ia, ib)] = coords
            else:
                canonical[(ib, ia)] = tuple(-x for x in coords)
        brackets = tuple(
            (ia, ib, coords) for (ia, ib), coords in sorted(canonical.items()) if any(coords)
        )
        self.doc.algebras[name] = AlgebraDecl(name, tuple(index), brackets)

    def _item_matrix_algebra(self):
        self.expect_keyword("matrix_algebra")
        name = self._new_name("an algebra name")
        self.expect_keyword("dim")
        self.expect_punct("=")
        size_tok = self.peek()
        if size_tok.kind != "SCALAR" or not size_tok.text.isdigit():
            self.fail(["the matrix size"])
        self.advance()
        if isinstance(size_tok.value, SpecSyntaxError):  # too many digits
            raise size_tok.value
        size = size_tok.value.numerator
        if size < 1:
            raise SpecSyntaxError("matrix size must be positive",
                                  size_tok.line, size_tok.col)
        self.expect_punct("{")
        gens = {}
        while self.at_name("gen"):
            self.advance()
            gname = self.expect_name("a generator name")
            if gname.text in gens:
                raise DuplicateName(f"duplicate generator {gname.text!r}",
                                    gname.line, gname.col)
            if gname.text == "i":
                raise SpecSyntaxError("generator name 'i' is reserved for the imaginary unit",
                                      gname.line, gname.col)
            self.expect_punct("=")
            mat = self._matrix()
            self.expect_punct(";")
            if mat.rows != size or mat.cols != size:
                raise SpecSyntaxError(
                    f"generator {gname.text!r} must be {size}x{size}",
                    gname.line, gname.col,
                )
            gens[gname.text] = mat
        if not gens:
            self.fail(["at least one generator"])
        self.expect_punct("}")
        self.doc.matrix_algebras[name] = MatrixAlgebraDecl(
            name, size, tuple(gens), tuple(gens.values())
        )

    def _item_subspace(self):
        kind = self.advance().text  # subalgebra | complement
        name = self._new_name("a name")
        self.expect_keyword("of")
        algebra, index = self._algebra_ref()
        self.expect_punct("=")
        self.expect_keyword("span")
        self.expect_punct("(")
        vectors = [self._lincomb(index)]
        while self.at_punct(","):
            self.advance()
            vectors.append(self._lincomb(index))
        self.expect_punct(")")
        self.expect_punct(";")
        table = self.doc.subalgebras if kind == "subalgebra" else self.doc.complements
        table[name] = SubspaceDecl(kind, name, algebra, tuple(vectors))

    def _item_operator(self):
        self.expect_keyword("operator")
        name = self._new_name("an operator name")
        self.expect_keyword("on")
        algebra, index = self._algebra_ref()
        if self.at_punct("{"):
            self.advance()
            rules = {}
            while self.at_name():
                label = self._label(index)
                if label.text in rules:
                    raise DuplicateName(f"rule for {label.text!r} given twice",
                                        label.line, label.col)
                self.expect_punct("->")
                rules[label.text] = self._lincomb(index)
                self.expect_punct(";")
            if not rules:
                self.fail(["at least one rule"])
            self.expect_punct("}")
            form = "rules"
            data = tuple(sorted(rules.items(), key=lambda kv: index[kv[0]]))
        else:
            self.expect_punct("=")
            form_tok = self.expect_name("ad, left, right or sandwich")
            form = form_tok.text
            if form not in ("ad", "left", "right", "sandwich"):
                self.fail(["'ad'", "'left'", "'right'", "'sandwich'"], form_tok)
            self.expect_punct("(")
            if form == "ad":
                data = (self._lincomb(index),)
            elif form in ("left", "right"):
                data = (self._matrix(),)
            else:
                a = self._matrix()
                self.expect_punct(",")
                data = (a, self._matrix())
            self.expect_punct(")")
        if self.at_punct(";"):
            self.advance()
        self.doc.operators[name] = OperatorDecl(name, algebra, form, data)

    def _item_pair(self):
        self.expect_keyword("pair")
        name_tok = self.peek()
        name = self._new_name("a pair name")
        self.expect_punct("=")
        self.expect_punct("(")
        algebra, index = self._algebra_ref()
        self.expect_punct(",")
        subalgebra = self._subspace_ref(self.doc.subalgebras, "subalgebra", algebra)
        complement = None
        connected = True
        reps = []
        n = len(index)
        while self.at_punct(","):
            self.advance()
            key = self.expect_name("complement, connected or reps")
            if key.text == "complement":
                complement = self._subspace_ref(self.doc.complements, "complement", algebra)
            elif key.text == "connected":
                self.expect_punct("=")
                val = self.expect_name("true or false")
                if val.text not in ("true", "false"):
                    self.fail(["'true'", "'false'"], val)
                connected = val.text == "true"
            elif key.text == "reps":
                self.expect_punct("(")
                while True:
                    rep = self._matrix()
                    if rep.rows != n or rep.cols != n:
                        raise SpecSyntaxError(f"component rep must be {n}x{n}",
                                              name_tok.line, name_tok.col)
                    reps.append(rep)
                    if not self.at_punct(","):
                        break
                    self.advance()
                self.expect_punct(")")
            else:
                self.fail(["'complement'", "'connected'", "'reps'"], key)
        self.expect_punct(")")
        self.expect_punct(";")
        self.doc.pairs[name] = PairDecl(name, algebra, subalgebra, complement,
                                        connected, tuple(reps))


def parse(text: str) -> SpecDocument:
    """Parse a document; raises a diagnostic with line/column on failure."""
    return _Parser(text).parse_items()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _lincomb_text(coords: Sequence, labels: Sequence[str]) -> str:
    terms = [(c, lab) for c, lab in zip(coords, labels) if c]
    if not terms:
        return "0"
    parts = []
    for idx, (coeff, lab) in enumerate(terms):
        if idx == 0:
            if coeff == 1:
                parts.append(lab)
            else:
                parts.append(f"{format_scalar(coeff)}*{lab}")
            continue
        sign = "+" if coeff > 0 else "-"
        mag = abs(coeff)
        if mag == 1:
            parts.append(f" {sign} {lab}")
        else:
            parts.append(f" {sign} {format_scalar(mag)}*{lab}")
    return "".join(parts)


def _matrix_text(m: ExactMatrix) -> str:
    rows = []
    for i in range(m.rows):
        rows.append("[" + ",".join(format_scalar(e) for e in m.row(i)) + "]")
    return "[" + ",".join(rows) + "]"


def serialize(doc: SpecDocument) -> str:
    """Canonical text form; ``parse(serialize(doc)) == doc``."""
    lines = []
    for name in sorted(doc.algebras):
        a = doc.algebras[name]
        chunks = [f"algebra {a.name} {{ basis {' '.join(a.labels)};"]
        for ia, ib, coords in a.brackets:
            chunks.append(
                f" bracket [{a.labels[ia]},{a.labels[ib]}] = "
                f"{_lincomb_text(coords, a.labels)};"
            )
        chunks.append(" }")
        lines.append("".join(chunks))
    for name in sorted(doc.matrix_algebras):
        m = doc.matrix_algebras[name]
        chunks = [f"matrix_algebra {m.name} dim = {m.size} {{"]
        for gname, mat in zip(m.gen_names, m.gen_matrices):
            chunks.append(f" gen {gname} = {_matrix_text(mat)};")
        chunks.append(" }")
        lines.append("".join(chunks))
    for kind, table in (("subalgebra", doc.subalgebras), ("complement", doc.complements)):
        for name in sorted(table):
            s = table[name]
            labels = doc.labels(s.algebra)
            body = ", ".join(_lincomb_text(v, labels) for v in s.vectors)
            lines.append(f"{kind} {s.name} of {s.algebra} = span({body});")
    for name in sorted(doc.operators):
        o = doc.operators[name]
        labels = doc.labels(o.algebra)
        if o.form == "rules":
            body = " ".join(
                f"{lab} -> {_lincomb_text(coords, labels)};" for lab, coords in o.data
            )
            lines.append(f"operator {o.name} on {o.algebra} {{ {body} }}")
        elif o.form == "ad":
            lines.append(
                f"operator {o.name} on {o.algebra} = ad({_lincomb_text(o.data[0], labels)});"
            )
        elif o.form in ("left", "right"):
            lines.append(
                f"operator {o.name} on {o.algebra} = {o.form}({_matrix_text(o.data[0])});"
            )
        else:
            lines.append(
                f"operator {o.name} on {o.algebra} = sandwich("
                f"{_matrix_text(o.data[0])}, {_matrix_text(o.data[1])});"
            )
    for name in sorted(doc.pairs):
        p = doc.pairs[name]
        parts = [p.algebra, p.subalgebra]
        if p.complement is not None:
            parts.append(f"complement {p.complement}")
        parts.append(f"connected = {'true' if p.connected else 'false'}")
        if p.reps:
            parts.append("reps(" + ", ".join(_matrix_text(r) for r in p.reps) + ")")
        lines.append(f"pair {p.name} = ({', '.join(parts)});")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# semantic build
# ---------------------------------------------------------------------------

class BuiltDocument(Value):
    """Semantic objects constructed from a parsed document, one dict per kind."""

    __slots__ = ("algebras", "subalgebras", "complements", "operators", "pairs")


def build(doc: SpecDocument) -> BuiltDocument:
    """Construct algebras, operators and pairs; validation errors propagate."""
    algebras = {}
    for name, decl in doc.algebras.items():
        n = len(decl.labels)
        nonzeros = [[()] * n for _ in range(n)]
        for ia, ib, coords in decl.brackets:
            terms = tuple([(k, x) for k, x in enumerate(coords) if x])
            nonzeros[ia][ib] = terms
            nonzeros[ib][ia] = tuple([(k, -x) for k, x in terms])
        algebras[name] = _algebra.LieAlgebra(name, decl.labels, nonzeros)
    for name, decl in doc.matrix_algebras.items():
        algebras[name] = _algebra.from_matrix_generators(
            decl.size, decl.gen_matrices, labels=decl.gen_names, name=name
        )
    subalgebras = {}
    for name, decl in doc.subalgebras.items():
        subalgebras[name] = _algebra.make_subalgebra(algebras[decl.algebra], decl.vectors)
    complements = {}
    for name, decl in doc.complements.items():
        alg = algebras[decl.algebra]
        complements[name] = Subspace.from_vectors(alg.dim, decl.vectors)
    operators = {}
    for name, decl in doc.operators.items():
        alg = algebras[decl.algebra]
        if decl.form == "rules":
            operators[name] = _operators.operator_from_rules(alg, dict(decl.data))
        elif decl.form == "ad":
            operators[name] = _operators.operator_ad(alg, decl.data[0])
        elif decl.form == "left":
            operators[name] = _operators.operator_left_mult(alg, decl.data[0])
        elif decl.form == "right":
            operators[name] = _operators.operator_right_mult(alg, decl.data[0])
        else:
            operators[name] = _operators.operator_sandwich(alg, decl.data[0], decl.data[1])
    pairs = {}
    for name, decl in doc.pairs.items():
        pairs[name] = _operators.HomogeneousPair(
            algebras[decl.algebra],
            subalgebras[decl.subalgebra],
            m=complements[decl.complement] if decl.complement else None,
            connected=decl.connected,
            component_reps=decl.reps,
        )
    return BuiltDocument(algebras, subalgebras, complements, operators, pairs)
