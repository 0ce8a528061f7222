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

Every parsed document round-trips: ``parse(serialize(doc)) == doc``.
Serialization is canonical: items sorted by kind then name, one declaration
per line, scalars in canonical form, brackets emitted only for i < j.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import LieAlgebra, from_matrix_generators, make_subalgebra
from .errors import LieCheckError
from .exact import (
    I,
    SCALAR_SYNTAX,
    ExactMatrix,
    GaussianRational,
    ScalarLiteralError,
    Subspace,
    format_scalar,
    scalar_from_match,
)
from .operators import (
    HomogeneousPair,
    operator_ad,
    operator_from_rules,
    operator_left_mult,
    operator_right_mult,
    operator_sandwich,
)
from .values import FrozenValue, Value


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
    __slots__ = ("name", "labels", "brackets")

    def __init__(self, name: str, labels: tuple, brackets: tuple):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labels", labels)
        # ((i, j, coords), ...) with i < j, nonzero coords only
        object.__setattr__(self, "brackets", brackets)


class MatrixAlgebraDecl(FrozenValue):
    __slots__ = ("name", "size", "gen_names", "gen_matrices")

    def __init__(self, name: str, size: int, gen_names: tuple, gen_matrices: tuple):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "gen_names", gen_names)
        object.__setattr__(self, "gen_matrices", gen_matrices)


class SubspaceDecl(FrozenValue):
    __slots__ = ("kind", "name", "algebra", "vectors")

    def __init__(self, kind: str, name: str, algebra: str, vectors: tuple):
        object.__setattr__(self, "kind", kind)  # "subalgebra" | "complement"
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "vectors", vectors)


class OperatorDecl(FrozenValue):
    __slots__ = ("name", "algebra", "form", "data")

    def __init__(self, name: str, algebra: str, form: str, data: tuple):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "algebra", algebra)
        # "rules" | "ad" | "left" | "right" | "sandwich"
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "data", data)


class PairDecl(FrozenValue):
    __slots__ = ("name", "algebra", "subalgebra", "complement", "connected", "reps")

    def __init__(self, name: str, algebra: str, subalgebra: str,
                 complement: Optional[str] = None, connected: bool = True,
                 reps: tuple = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "subalgebra", subalgebra)
        object.__setattr__(self, "complement", complement)
        object.__setattr__(self, "connected", connected)
        object.__setattr__(self, "reps", reps)


class SpecDocument(Value):
    """All declarations of a parsed document, keyed by name.

    Equality ignores ``source_spans``, so a document equals its parsed
    canonical dump.
    """

    __slots__ = ("algebras", "matrix_algebras", "subalgebras", "complements",
                 "operators", "pairs", "source_spans")

    def __init__(self, algebras: Optional[dict] = None,
                 matrix_algebras: Optional[dict] = None,
                 subalgebras: Optional[dict] = None,
                 complements: Optional[dict] = None,
                 operators: Optional[dict] = None,
                 pairs: Optional[dict] = None,
                 source_spans: Optional[dict] = None):
        self.algebras = {} if algebras is None else algebras
        self.matrix_algebras = {} if matrix_algebras is None else matrix_algebras
        self.subalgebras = {} if subalgebras is None else subalgebras
        self.complements = {} if complements is None else complements
        self.operators = {} if operators is None else operators
        self.pairs = {} if pairs is None else pairs
        self.source_spans = {} if source_spans is None else source_spans

    def _key(self) -> tuple:
        return (self.algebras, self.matrix_algebras, self.subalgebras,
                self.complements, self.operators, self.pairs)

    def algebra_decl(self, name):
        if name in self.algebras:
            return self.algebras[name]
        if name in self.matrix_algebras:
            return self.matrix_algebras[name]
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
# raw syntax tree (lincomb terms unresolved)
# ---------------------------------------------------------------------------

class _RawLincomb(Value):
    __slots__ = ("terms", "line", "col")

    def __init__(self, terms: list, line: int, col: int):
        # terms: list of (sign, scalar_or_None, name_token_or_None)
        self.terms = terms
        self.line = line
        self.col = col


class _RawItem(Value):
    __slots__ = ("kind", "name", "name_tok", "payload")

    def __init__(self, kind: str, name: str, name_tok: _Token, payload: dict):
        self.kind = kind
        self.name = name
        self.name_tok = name_tok
        self.payload = payload


class _Parser:
    def __init__(self, text: str):
        self.tokens = _scan(text)
        self.pos = 0

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

    def _lincomb(self) -> _RawLincomb:
        head = self.peek()
        terms = []
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
            if self.at_name() and not self.at_name("i"):
                terms.append((sign, None, self.advance()))
                continue
            scalar = self._try_scalar()
            if scalar is None:
                self.fail(["a scalar or a basis label"])
            name_tok = None
            if self.at_punct("*"):
                self.advance()
                name_tok = self.expect_name("a basis label")
            terms.append((sign, scalar, name_tok))
        return _RawLincomb(terms, head.line, head.col)

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

    def parse_items(self):
        items = []
        while not self.peek().kind == "EOF":
            tok = self.peek()
            if tok.kind != "NAME":
                self.fail(["algebra", "matrix_algebra", "subalgebra",
                           "complement", "operator", "pair"])
            handler = {
                "algebra": self._item_algebra,
                "matrix_algebra": self._item_matrix_algebra,
                "subalgebra": self._item_subspace,
                "complement": self._item_subspace,
                "operator": self._item_operator,
                "pair": self._item_pair,
            }.get(tok.text)
            if handler is None:
                self.fail(["algebra", "matrix_algebra", "subalgebra",
                           "complement", "operator", "pair"])
            items.append(handler())
        return items

    def _item_algebra(self):
        self.expect_keyword("algebra")
        name_tok = self.expect_name("an algebra name")
        self.expect_punct("{")
        self.expect_keyword("basis")
        labels = []
        while self.at_name():
            labels.append(self.advance())
        if not labels:
            self.fail(["at least one basis label"])
        self.expect_punct(";")
        brackets = []
        while self.at_name("bracket"):
            self.advance()
            self.expect_punct("[")
            a = self.expect_name("a basis label")
            self.expect_punct(",")
            b = self.expect_name("a basis label")
            self.expect_punct("]")
            self.expect_punct("=")
            rhs = self._lincomb()
            self.expect_punct(";")
            brackets.append((a, b, rhs))
        self.expect_punct("}")
        return _RawItem("algebra", name_tok.text, name_tok,
                        {"labels": labels, "brackets": brackets})

    def _item_matrix_algebra(self):
        self.expect_keyword("matrix_algebra")
        name_tok = self.expect_name("an algebra name")
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
        gens = []
        while self.at_name("gen"):
            self.advance()
            gname = self.expect_name("a generator name")
            self.expect_punct("=")
            mat = self._matrix()
            self.expect_punct(";")
            if mat.rows != size or mat.cols != size:
                raise SpecSyntaxError(
                    f"generator {gname.text!r} must be {size}x{size}",
                    gname.line, gname.col,
                )
            gens.append((gname, mat))
        if not gens:
            self.fail(["at least one generator"])
        self.expect_punct("}")
        return _RawItem("matrix_algebra", name_tok.text, name_tok,
                        {"size": size, "gens": gens})

    def _item_subspace(self):
        kind_tok = self.advance()  # subalgebra | complement
        name_tok = self.expect_name("a name")
        self.expect_keyword("of")
        alg_tok = self.expect_name("an algebra name")
        self.expect_punct("=")
        self.expect_keyword("span")
        self.expect_punct("(")
        vectors = [self._lincomb()]
        while self.at_punct(","):
            self.advance()
            vectors.append(self._lincomb())
        self.expect_punct(")")
        self.expect_punct(";")
        return _RawItem(kind_tok.text, name_tok.text, name_tok,
                        {"algebra": alg_tok, "vectors": vectors})

    def _item_operator(self):
        self.expect_keyword("operator")
        name_tok = self.expect_name("an operator name")
        self.expect_keyword("on")
        alg_tok = self.expect_name("an algebra name")
        if self.at_punct("{"):
            self.advance()
            rules = []
            while self.at_name():
                label = self.advance()
                self.expect_punct("->")
                rhs = self._lincomb()
                self.expect_punct(";")
                rules.append((label, rhs))
            if not rules:
                self.fail(["at least one rule"])
            self.expect_punct("}")
            if self.at_punct(";"):
                self.advance()
            return _RawItem("operator", name_tok.text, name_tok,
                            {"algebra": alg_tok, "form": "rules", "rules": rules})
        self.expect_punct("=")
        form_tok = self.expect_name("ad, left, right or sandwich")
        form = form_tok.text
        if form not in ("ad", "left", "right", "sandwich"):
            self.fail(["'ad'", "'left'", "'right'", "'sandwich'"], form_tok)
        self.expect_punct("(")
        if form == "ad":
            data = {"ad": self._lincomb()}
        elif form in ("left", "right"):
            data = {"matrix": self._matrix()}
        else:
            a = self._matrix()
            self.expect_punct(",")
            b = self._matrix()
            data = {"matrices": (a, b)}
        self.expect_punct(")")
        if self.at_punct(";"):
            self.advance()
        payload = {"algebra": alg_tok, "form": form}
        payload.update(data)
        return _RawItem("operator", name_tok.text, name_tok, payload)

    def _item_pair(self):
        self.expect_keyword("pair")
        name_tok = self.expect_name("a pair name")
        self.expect_punct("=")
        self.expect_punct("(")
        alg_tok = self.expect_name("an algebra name")
        self.expect_punct(",")
        sub_tok = self.expect_name("a subalgebra name")
        complement = None
        connected = True
        reps = []
        while self.at_punct(","):
            self.advance()
            key = self.expect_name("complement, connected or reps")
            if key.text == "complement":
                complement = self.expect_name("a complement name")
            elif key.text == "connected":
                self.expect_punct("=")
                val = self.expect_name("true or false")
                if val.text not in ("true", "false"):
                    self.fail(["'true'", "'false'"], val)
                connected = val.text == "true"
            elif key.text == "reps":
                self.expect_punct("(")
                reps.append(self._matrix())
                while self.at_punct(","):
                    self.advance()
                    reps.append(self._matrix())
                self.expect_punct(")")
            else:
                self.fail(["'complement'", "'connected'", "'reps'"], key)
        self.expect_punct(")")
        self.expect_punct(";")
        return _RawItem("pair", name_tok.text, name_tok,
                        {"algebra": alg_tok, "subalgebra": sub_tok,
                         "complement": complement, "connected": connected,
                         "reps": tuple(reps)})


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

def _resolve_lincomb(raw: _RawLincomb, labels: Sequence[str]) -> tuple:
    """Turn a raw lincomb into a rational coordinate vector over ``labels``."""
    index = {lab: i for i, lab in enumerate(labels)}
    coords = [Fraction(0)] * len(labels)
    bare = None
    for sign, scalar, name_tok in raw.terms:
        if name_tok is None:
            bare = (sign, scalar, raw)
            if scalar != 0:
                raise SpecSyntaxError(
                    "a bare scalar in a vector position must be 0",
                    raw.line, raw.col,
                )
            continue
        if name_tok.text not in index:
            raise UnresolvedReference(
                f"unknown basis label {name_tok.text!r}",
                name_tok.line, name_tok.col,
            )
        coeff = Fraction(1) if scalar is None else scalar
        if isinstance(coeff, GaussianRational):
            if not coeff.is_real:
                raise SpecSyntaxError(
                    "coefficients in vectors must be rational",
                    name_tok.line, name_tok.col,
                )
            coeff = coeff.re
        coords[index[name_tok.text]] += sign * coeff
    if bare is not None and len(raw.terms) > 1:
        raise SpecSyntaxError(
            "a bare scalar cannot be mixed with basis terms", raw.line, raw.col
        )
    return tuple(coords)


def _resolve(items) -> SpecDocument:
    doc = SpecDocument()
    taken = {}
    for it in items:
        if it.name in taken:
            raise DuplicateName(
                f"name {it.name!r} already declared", it.name_tok.line, it.name_tok.col
            )
        taken[it.name] = it
        doc.source_spans[it.name] = (it.name_tok.line, it.name_tok.col)

    def algebra_labels(alg_tok: _Token) -> tuple:
        decl = doc.algebra_decl(alg_tok.text)
        if decl is None:
            raise UnresolvedReference(
                f"unknown algebra {alg_tok.text!r}", alg_tok.line, alg_tok.col
            )
        if isinstance(decl, AlgebraDecl):
            return decl.labels
        return decl.gen_names

    # Algebras first: other items resolve against their labels.
    for it in items:
        if it.kind == "algebra":
            labels = []
            seen = set()
            for tok in it.payload["labels"]:
                if tok.text in seen:
                    raise DuplicateName(
                        f"duplicate basis label {tok.text!r}", tok.line, tok.col
                    )
                if tok.text == "i":
                    raise SpecSyntaxError(
                        "basis label 'i' is reserved for the imaginary unit",
                        tok.line, tok.col,
                    )
                seen.add(tok.text)
                labels.append(tok.text)
            labels = tuple(labels)
            index = {lab: i for i, lab in enumerate(labels)}
            given = {}
            for a_tok, b_tok, rhs in it.payload["brackets"]:
                for tok in (a_tok, b_tok):
                    if tok.text not in index:
                        raise UnresolvedReference(
                            f"unknown basis label {tok.text!r}", tok.line, tok.col
                        )
                ia, ib = index[a_tok.text], index[b_tok.text]
                coords = _resolve_lincomb(rhs, labels)
                if ia == ib:
                    if any(coords):
                        raise InconsistentBracket(
                            f"[{a_tok.text},{a_tok.text}] must be 0",
                            a_tok.line, a_tok.col,
                        )
                    continue
                if (ia, ib) in given and given[(ia, ib)] != coords:
                    raise InconsistentBracket(
                        f"bracket [{a_tok.text},{b_tok.text}] declared twice "
                        "with different values", a_tok.line, a_tok.col,
                    )
                if (ib, ia) in given and given[(ib, ia)] != tuple(-x for x in coords):
                    raise InconsistentBracket(
                        f"brackets [{a_tok.text},{b_tok.text}] and "
                        f"[{b_tok.text},{a_tok.text}] are not negatives",
                        a_tok.line, a_tok.col,
                    )
                given[(ia, ib)] = coords
            canonical = {}
            for (ia, ib), coords in given.items():
                if ia < ib:
                    canonical[(ia, ib)] = coords
                else:
                    canonical[(ib, ia)] = tuple(-x for x in coords)
            brackets = tuple(
                (ia, ib, coords)
                for (ia, ib), coords in sorted(canonical.items())
                if any(coords)
            )
            doc.algebras[it.name] = AlgebraDecl(it.name, labels, brackets)
        elif it.kind == "matrix_algebra":
            names = []
            seen = set()
            mats = []
            for tok, mat in it.payload["gens"]:
                if tok.text in seen:
                    raise DuplicateName(
                        f"duplicate generator {tok.text!r}", tok.line, tok.col
                    )
                if tok.text == "i":
                    raise SpecSyntaxError(
                        "generator name 'i' is reserved for the imaginary unit",
                        tok.line, tok.col,
                    )
                seen.add(tok.text)
                names.append(tok.text)
                mats.append(mat)
            doc.matrix_algebras[it.name] = MatrixAlgebraDecl(
                it.name, it.payload["size"], tuple(names), tuple(mats)
            )

    for it in items:
        if it.kind in ("subalgebra", "complement"):
            labels = algebra_labels(it.payload["algebra"])
            vectors = tuple(
                _resolve_lincomb(raw, labels) for raw in it.payload["vectors"]
            )
            decl = SubspaceDecl(it.kind, it.name, it.payload["algebra"].text, vectors)
            if it.kind == "subalgebra":
                doc.subalgebras[it.name] = decl
            else:
                doc.complements[it.name] = decl
        elif it.kind == "operator":
            labels = algebra_labels(it.payload["algebra"])
            form = it.payload["form"]
            if form == "rules":
                seen = set()
                rules = []
                for label_tok, rhs in it.payload["rules"]:
                    if label_tok.text not in labels:
                        raise UnresolvedReference(
                            f"unknown basis label {label_tok.text!r}",
                            label_tok.line, label_tok.col,
                        )
                    if label_tok.text in seen:
                        raise DuplicateName(
                            f"rule for {label_tok.text!r} given twice",
                            label_tok.line, label_tok.col,
                        )
                    seen.add(label_tok.text)
                    rules.append((label_tok.text, _resolve_lincomb(rhs, labels)))
                rules.sort(key=lambda kv: labels.index(kv[0]))
                data = tuple(rules)
            elif form == "ad":
                data = (_resolve_lincomb(it.payload["ad"], labels),)
            elif form in ("left", "right"):
                data = (it.payload["matrix"],)
            else:
                data = it.payload["matrices"]
            doc.operators[it.name] = OperatorDecl(
                it.name, it.payload["algebra"].text, form, data
            )

    for it in items:
        if it.kind != "pair":
            continue
        alg_tok = it.payload["algebra"]
        if doc.algebra_decl(alg_tok.text) is None:
            raise UnresolvedReference(
                f"unknown algebra {alg_tok.text!r}", alg_tok.line, alg_tok.col
            )
        sub_tok = it.payload["subalgebra"]
        sub = doc.subalgebras.get(sub_tok.text)
        if sub is None:
            raise UnresolvedReference(
                f"unknown subalgebra {sub_tok.text!r}", sub_tok.line, sub_tok.col
            )
        if sub.algebra != alg_tok.text:
            raise UnresolvedReference(
                f"subalgebra {sub_tok.text!r} is declared on {sub.algebra!r}, "
                f"not {alg_tok.text!r}", sub_tok.line, sub_tok.col,
            )
        comp_tok = it.payload["complement"]
        comp_name = None
        if comp_tok is not None:
            comp = doc.complements.get(comp_tok.text)
            if comp is None:
                raise UnresolvedReference(
                    f"unknown complement {comp_tok.text!r}", comp_tok.line, comp_tok.col
                )
            if comp.algebra != alg_tok.text:
                raise UnresolvedReference(
                    f"complement {comp_tok.text!r} is declared on {comp.algebra!r}, "
                    f"not {alg_tok.text!r}", comp_tok.line, comp_tok.col,
                )
            comp_name = comp_tok.text
        n = len(algebra_labels(alg_tok))
        for rep in it.payload["reps"]:
            if rep.rows != n or rep.cols != n:
                raise SpecSyntaxError(
                    f"component rep must be {n}x{n}",
                    it.name_tok.line, it.name_tok.col,
                )
        doc.pairs[it.name] = PairDecl(
            it.name, alg_tok.text, sub_tok.text, comp_name,
            it.payload["connected"], it.payload["reps"],
        )
    return doc


def parse(text: str) -> SpecDocument:
    """Parse a document; raises a diagnostic with line/column on failure."""
    return _resolve(_Parser(text).parse_items())


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
            labels = _labels_for(doc, s.algebra)
            body = ", ".join(_lincomb_text(v, labels) for v in s.vectors)
            lines.append(f"{kind} {s.name} of {s.algebra} = span({body});")
    for name in sorted(doc.operators):
        o = doc.operators[name]
        labels = _labels_for(doc, o.algebra)
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


def _labels_for(doc: SpecDocument, algebra: str) -> tuple:
    decl = doc.algebra_decl(algebra)
    if isinstance(decl, AlgebraDecl):
        return decl.labels
    return decl.gen_names


# ---------------------------------------------------------------------------
# semantic build
# ---------------------------------------------------------------------------

class BuiltDocument(Value):
    """Semantic objects constructed from a parsed document."""

    __slots__ = ("algebras", "subalgebras", "complements", "operators", "pairs")

    def __init__(self, algebras: dict, subalgebras: dict, complements: dict,
                 operators: dict, pairs: dict):
        self.algebras = algebras
        self.subalgebras = subalgebras
        self.complements = complements
        self.operators = operators
        self.pairs = pairs


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
        algebras[name] = LieAlgebra(name, decl.labels, nonzeros)
    for name, decl in doc.matrix_algebras.items():
        algebras[name] = from_matrix_generators(
            decl.size, decl.gen_matrices, labels=decl.gen_names, name=name
        )
    subalgebras = {}
    for name, decl in doc.subalgebras.items():
        subalgebras[name] = make_subalgebra(algebras[decl.algebra], decl.vectors)
    complements = {}
    for name, decl in doc.complements.items():
        alg = algebras[decl.algebra]
        complements[name] = Subspace.from_vectors(alg.dim, decl.vectors)
    operators = {}
    for name, decl in doc.operators.items():
        alg = algebras[decl.algebra]
        if decl.form == "rules":
            operators[name] = operator_from_rules(alg, dict(decl.data))
        elif decl.form == "ad":
            operators[name] = operator_ad(alg, decl.data[0])
        elif decl.form == "left":
            operators[name] = operator_left_mult(alg, decl.data[0])
        elif decl.form == "right":
            operators[name] = operator_right_mult(alg, decl.data[0])
        else:
            operators[name] = operator_sandwich(alg, decl.data[0], decl.data[1])
    pairs = {}
    for name, decl in doc.pairs.items():
        pairs[name] = HomogeneousPair(
            algebras[decl.algebra],
            subalgebras[decl.subalgebra],
            m=complements[decl.complement] if decl.complement else None,
            connected=decl.connected,
            component_reps=decl.reps,
        )
    return BuiltDocument(algebras, subalgebras, complements, operators, pairs)
