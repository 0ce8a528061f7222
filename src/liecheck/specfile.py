"""Parser and builder for the declarative ``.lie`` input format.

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
both with values that are not negatives of each other is an error, and so is
declaring one twice with different values.  The name ``i`` is reserved for
the imaginary unit and cannot be a basis label or a generator name.

A name must be declared before it is used: an item may refer only to the
algebras, subalgebras and complements declared above it.  Each item is
resolved as it is parsed, so of several errors the first in the text is
reported; a character outside the grammar is the exception, because the
whole text is scanned first.

A diagnostic starts ``line:col:``, the start of a token: the unexpected one,
or the name or matrix the error is about.  Lines split at ``\\n`` only, and
columns count characters from 1, so a tab or a ``\\r`` is one column.  A
scalar literal without a value (a zero denominator, or an integer too long
for ``int``) is diagnosed at that integer, where the parser takes the literal.

Every parsed document round-trips through its canonical text form,
:func:`liecheck.serializer.serialize`: ``parse(serialize(doc)) == doc``.
"""

from __future__ import annotations

import re

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
    """``form`` is ``"rules"`` or a call form of :data:`_CALL_FORMS`."""

    __slots__ = ("name", "algebra", "form", "data")


#: The call forms of an operator: the kinds of their arguments, and the name
#: of the :mod:`liecheck.operators` constructor that :func:`build` calls.
_CALL_FORMS = {
    "ad": (("lincomb",), "operator_ad"),
    "left": (("matrix",), "operator_left_mult"),
    "right": (("matrix",), "operator_right_mult"),
    "sandwich": (("matrix", "matrix"), "operator_sandwich"),
}


class PairDecl(FrozenValue):
    """``reps`` are the component representatives of a non-connected subgroup."""

    __slots__ = ("name", "algebra", "subalgebra", "complement", "connected", "reps")
    _defaults = {"complement": None, "connected": True, "reps": ()}


class SpecDocument(Value):
    """All declarations of a parsed document: one dict per kind, keyed by name."""

    __slots__ = ("algebras", "matrix_algebras", "subalgebras", "complements",
                 "operators", "pairs")
    _defaults = dict.fromkeys(__slots__, {})

    def labels(self, algebra: str) -> tuple | None:
        """The basis labels of a declared algebra, or None."""
        if algebra in self.algebras:
            return self.algebras[algebra].labels
        if algebra in self.matrix_algebras:
            return self.matrix_algebras[algebra].gen_names
        return None


# ---------------------------------------------------------------------------
# scanner
# ---------------------------------------------------------------------------

# A token is a match of _TOKEN: its kind is ``m.lastgroup`` (NAME, SCALAR,
# PUNCT or EOF), its text ``m[0]`` and its offset ``m.start()``.  A lone
# ``i`` is a NAME: it may name an algebra, and the parser reads it as the
# imaginary unit where a scalar is expected.
_TOKEN = re.compile(rf"""
      (?P<SKIP> [ \t\r\n]+ | \#[^\n]* )
    | (?P<NAME> [^\W\d]\w* )
    | (?P<SCALAR> {SCALAR_SYNTAX} )
    | (?P<PUNCT> -> | [{{}}()\[\],;=*+\-/] )
    | (?P<EOF> \Z )
    | (?P<BAD> . )
""", re.VERBOSE)


def _position(text: str, offset: int) -> tuple:
    """The ``(line, col)`` of ``offset`` in ``text``, both from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _scan(text: str) -> tuple:
    """The tokens of ``text`` and ``{literal text: value}`` for its scalars.

    Scalars are immutable, so each literal text is converted once.  The
    value of an invalid literal is a :class:`ScalarLiteralError` whose offset
    counts from the start of the literal; the parser raises it when it takes
    the token.
    """
    tokens, values = [], {}
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "SCALAR":
            word = m[0]
            if word not in values:
                try:
                    values[word] = scalar_from_match(m)
                except ScalarLiteralError as exc:
                    values[word] = ScalarLiteralError(str(exc), exc.offset - m.start())
        # \w admits numerals such as "²"; a name starts with a letter or "_".
        elif kind == "BAD" or kind == "NAME" and not (m[0][0].isalpha() or m[0][0] == "_"):
            raise SpecSyntaxError(f"unexpected character {m[0][0]!r}",
                                  *_position(text, m.start()), found=m[0][0])
        tokens.append(m)
    return tokens, values


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    """Parses the items in order, resolving each into its declaration and
    registering it in :attr:`doc` before the next item starts.

    Only a PUNCT token reads as punctuation and only a NAME as a word, so a
    token's text alone tells whether it is a given mark or keyword.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.values = _scan(text)
        self.pos = 0
        self.doc = SpecDocument()

    # -- token helpers ------------------------------------------------------

    def error(self, cls, message: str, offset: int, **fields) -> SpecfileError:
        """A diagnostic of class ``cls`` at ``offset`` in the text."""
        return cls(message, *_position(self.text, offset), **fields)

    def peek(self) -> re.Match:
        return self.tokens[self.pos]

    def advance(self) -> re.Match:
        tok = self.tokens[self.pos]
        if tok.lastgroup != "EOF":
            self.pos += 1
        return tok

    def fail(self, expected, tok: re.Match | None = None):
        tok = tok or self.peek()
        shown = tok[0] or "end of input"
        raise self.error(SpecSyntaxError, f"expected {', '.join(expected)}, found {shown!r}",
                         tok.start(), found=shown, expected=expected)

    def expect(self, text: str) -> re.Match:
        """Take the punctuation mark or keyword ``text``."""
        if self.tokens[self.pos][0] == text:
            return self.advance()
        self.fail([repr(text)])

    def expect_name(self, what: str = "a name") -> re.Match:
        if self.tokens[self.pos].lastgroup == "NAME":
            return self.advance()
        self.fail([what])

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][0] == text

    def at_name(self) -> bool:
        return self.tokens[self.pos].lastgroup == "NAME"

    # -- names ----------------------------------------------------------------

    def _new_name(self, what: str) -> str:
        """The name an item declares; no earlier item may hold it."""
        tok = self.expect_name(what)
        if any(tok[0] in getattr(self.doc, table) for table in SpecDocument.__slots__):
            raise self.error(DuplicateName, f"name {tok[0]!r} already declared", tok.start())
        return tok[0]

    def _algebra_ref(self) -> tuple:
        """An algebra declared earlier: its name and ``{label: index}``."""
        tok = self.expect_name("an algebra name")
        labels = self.doc.labels(tok[0])
        if labels is None:
            raise self.error(UnresolvedReference, f"unknown algebra {tok[0]!r}", tok.start())
        return tok[0], {lab: i for i, lab in enumerate(labels)}

    def _subspace_ref(self, table: dict, kind: str, algebra: str) -> str:
        """A subalgebra or complement declared earlier on ``algebra``."""
        tok = self.expect_name(f"a {kind} name")
        decl = table.get(tok[0])
        if decl is None:
            raise self.error(UnresolvedReference, f"unknown {kind} {tok[0]!r}", tok.start())
        if decl.algebra != algebra:
            raise self.error(
                UnresolvedReference,
                f"{kind} {tok[0]!r} is declared on {decl.algebra!r}, not {algebra!r}",
                tok.start(),
            )
        return tok[0]

    def _label(self, index: dict) -> re.Match:
        """A basis label of the algebra whose labels ``index`` maps."""
        tok = self.expect_name("a basis label")
        if tok[0] not in index:
            raise self.error(UnresolvedReference, f"unknown basis label {tok[0]!r}", tok.start())
        return tok

    def _new_label(self, tok: re.Match, labels: dict, what: str):
        """Check a newly declared ``what``, a basis label or a generator name:
        ``labels`` does not hold it yet (a duplicate generator is named
        without ``name``), and ``i`` is reserved."""
        if tok[0] in labels:
            raise self.error(DuplicateName, f"duplicate {what.removesuffix(' name')} {tok[0]!r}",
                             tok.start())
        if tok[0] == "i":
            raise self.error(SpecSyntaxError, f"{what} 'i' is reserved for the imaginary unit",
                             tok.start())

    # -- scalars ------------------------------------------------------------

    def _value(self, tok: re.Match):
        """The value of a SCALAR token; raises at an invalid literal."""
        value = self.values[tok[0]]
        if value.__class__ is ScalarLiteralError:
            raise self.error(SpecSyntaxError, str(value), tok.start() + value.offset)
        return value

    def _try_scalar(self):
        """Take a scalar if one starts here; returns None otherwise."""
        tok = self.tokens[self.pos]
        word = tok[0]
        if tok.lastgroup == "SCALAR":
            value = self._value(tok)
        elif word == "i":
            value = I
        else:
            return None
        self.pos += 1
        # In "3//2" the first "/" starts a denominator that is not there.
        if self.tokens[self.pos][0] == "/" and word[-1] != "i" and "/" not in word:
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
        head = self.peek().start()
        coords = [_ZERO] * len(index)
        terms = 0
        bare = False
        while True:
            sign = 1
            if self.at("+"):
                self.advance()
            elif self.at("-"):
                sign = -1
                self.advance()
            elif terms:
                # A signed scalar is a term of its own: "x -2*y".
                tok = self.peek()
                if tok.lastgroup != "SCALAR" or tok[0][0] not in "+-":
                    break
            terms += 1
            if self.at_name() and not self.at("i"):
                coords[index[self._label(index)[0]]] += sign
                continue
            coeff = self._try_scalar()
            if coeff is None:
                self.fail(["a scalar or a basis label"])
            if not self.at("*"):
                if coeff != 0:
                    raise self.error(SpecSyntaxError,
                                     "a bare scalar in a vector position must be 0", head)
                bare = True
                continue
            self.advance()
            label = self._label(index)
            if isinstance(coeff, GaussianRational):
                if not coeff.is_real:
                    raise self.error(SpecSyntaxError, "coefficients in vectors must be rational",
                                     label.start())
                coeff = coeff.re
            coords[index[label[0]]] += sign * coeff
        if bare and terms > 1:
            raise self.error(SpecSyntaxError, "a bare scalar cannot be mixed with basis terms",
                             head)
        return tuple(coords)

    def _commas(self):
        """Yield once, then again after each ``,``: the caller reads one
        item of a comma-separated list per step."""
        yield
        while self.tokens[self.pos][0] == ",":
            self.pos += 1
            yield

    def _matrix(self) -> ExactMatrix:
        head = self.expect("[")
        entries, widths = [], []
        for _ in self._commas():
            self.expect("[")
            start = len(entries)
            entries.append(self._scalar())
            while self.tokens[self.pos][0] == ",":
                self.pos += 1
                entries.append(self._scalar())
            self.expect("]")
            widths.append(len(entries) - start)
        self.expect("]")
        if widths.count(widths[0]) != len(widths):
            raise self.error(SpecSyntaxError, "ragged matrix rows", head.start())
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
        while self.peek().lastgroup != "EOF":
            handler = handlers.get(self.peek()[0])
            if handler is None:
                self.fail(list(handlers))
            handler()
        return self.doc

    def _item_algebra(self):
        self.expect("algebra")
        name = self._new_name("an algebra name")
        self.expect("{")
        self.expect("basis")
        index = {}
        while self.at_name():
            tok = self.advance()
            self._new_label(tok, index, "basis label")
            index[tok[0]] = len(index)
        if not index:
            self.fail(["at least one basis label"])
        self.expect(";")
        # Each bracket in the orientation i < j, and the orientations declared.
        table, declared = {}, set()
        while self.at("bracket"):
            self.advance()
            self.expect("[")
            a = self._label(index)
            self.expect(",")
            b = self._label(index)[0]
            self.expect("]")
            self.expect("=")
            coords = self._lincomb(index)
            ia, ib = index[a[0]], index[b]
            if ia == ib:
                if any(coords):
                    raise self.error(InconsistentBracket, f"[{a[0]},{b}] must be 0", a.start())
            else:
                value = coords if ia < ib else tuple(-x for x in coords)
                if table.setdefault((min(ia, ib), max(ia, ib)), value) != value:
                    message = (f"bracket [{a[0]},{b}] declared twice with different values"
                               if (ia, ib) in declared
                               else f"brackets [{a[0]},{b}] and [{b},{a[0]}] are not negatives")
                    raise self.error(InconsistentBracket, message, a.start())
                declared.add((ia, ib))
            self.expect(";")
        self.expect("}")
        brackets = tuple(
            (ia, ib, coords) for (ia, ib), coords in sorted(table.items()) if any(coords)
        )
        self.doc.algebras[name] = AlgebraDecl(name, tuple(index), brackets)

    def _item_matrix_algebra(self):
        self.expect("matrix_algebra")
        name = self._new_name("an algebra name")
        self.expect("dim")
        self.expect("=")
        size_tok = self.peek()
        if size_tok.lastgroup != "SCALAR" or not size_tok[0].isdigit():
            self.fail(["the matrix size"])
        self.advance()
        size = self._value(size_tok).numerator
        if size < 1:
            raise self.error(SpecSyntaxError, "matrix size must be positive", size_tok.start())
        self.expect("{")
        gens = {}
        while self.at("gen"):
            self.advance()
            gname = self.expect_name("a generator name")
            gen = gname[0]
            self._new_label(gname, gens, "generator name")
            self.expect("=")
            mat = self._matrix()
            self.expect(";")
            if mat.rows != size or mat.cols != size:
                raise self.error(SpecSyntaxError, f"generator {gen!r} must be {size}x{size}",
                                 gname.start())
            gens[gen] = mat
        if not gens:
            self.fail(["at least one generator"])
        self.expect("}")
        self.doc.matrix_algebras[name] = MatrixAlgebraDecl(
            name, size, tuple(gens), tuple(gens.values())
        )

    def _item_subspace(self):
        kind = self.advance()[0]  # subalgebra | complement
        name = self._new_name("a name")
        self.expect("of")
        algebra, index = self._algebra_ref()
        self.expect("=")
        self.expect("span")
        self.expect("(")
        vectors = [self._lincomb(index) for _ in self._commas()]
        self.expect(")")
        self.expect(";")
        table = self.doc.subalgebras if kind == "subalgebra" else self.doc.complements
        table[name] = SubspaceDecl(kind, name, algebra, tuple(vectors))

    def _item_operator(self):
        self.expect("operator")
        name = self._new_name("an operator name")
        self.expect("on")
        algebra, index = self._algebra_ref()
        if self.at("{"):
            self.advance()
            rules = {}
            while self.at_name():
                label = self._label(index)
                if label[0] in rules:
                    raise self.error(DuplicateName, f"rule for {label[0]!r} given twice",
                                     label.start())
                self.expect("->")
                rules[label[0]] = self._lincomb(index)
                self.expect(";")
            if not rules:
                self.fail(["at least one rule"])
            self.expect("}")
            form = "rules"
            data = tuple(sorted(rules.items(), key=lambda kv: index[kv[0]]))
        else:
            self.expect("=")
            *first, last = _CALL_FORMS
            form_tok = self.expect_name(f"{', '.join(first)} or {last}")
            form = form_tok[0]
            if form not in _CALL_FORMS:
                self.fail([repr(f) for f in _CALL_FORMS], form_tok)
            self.expect("(")
            data = []
            for kind in _CALL_FORMS[form][0]:
                if data:
                    self.expect(",")
                data.append(self._lincomb(index) if kind == "lincomb" else self._matrix())
            data = tuple(data)
            self.expect(")")
        if self.at(";"):
            self.advance()
        self.doc.operators[name] = OperatorDecl(name, algebra, form, data)

    def _item_pair(self):
        self.expect("pair")
        name = self._new_name("a pair name")
        self.expect("=")
        self.expect("(")
        algebra, index = self._algebra_ref()
        self.expect(",")
        subalgebra = self._subspace_ref(self.doc.subalgebras, "subalgebra", algebra)
        complement = None
        connected = True
        reps = []
        n = len(index)
        keys = set()
        while self.at(","):
            self.advance()
            key = self.expect_name("complement, connected or reps")
            if key[0] in keys:
                raise self.error(DuplicateName, f"{key[0]!r} given twice in pair {name!r}",
                                 key.start())
            keys.add(key[0])
            if key[0] == "complement":
                complement = self._subspace_ref(self.doc.complements, "complement", algebra)
            elif key[0] == "connected":
                self.expect("=")
                val = self.expect_name("true or false")
                if val[0] not in ("true", "false"):
                    self.fail(["'true'", "'false'"], val)
                connected = val[0] == "true"
            elif key[0] == "reps":
                self.expect("(")
                for _ in self._commas():
                    rep_at = self.peek().start()
                    rep = self._matrix()
                    if rep.rows != n or rep.cols != n:
                        raise self.error(SpecSyntaxError,
                                         f"component rep #{len(reps)} must be {n}x{n}", rep_at)
                    reps.append(rep)
                self.expect(")")
            else:
                self.fail(["'complement'", "'connected'", "'reps'"], key)
        self.expect(")")
        self.expect(";")
        self.doc.pairs[name] = PairDecl(name, algebra, subalgebra, complement,
                                        connected, tuple(reps))


def parse(text: str) -> SpecDocument:
    """Parse a document; raises a diagnostic with line/column on failure."""
    return _Parser(text).parse_items()


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
        else:
            constructor = getattr(_operators, _CALL_FORMS[decl.form][1])
            operators[name] = constructor(alg, *decl.data)
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
