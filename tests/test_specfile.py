"""Parsing, canonical serialization, diagnostics, and round trips."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from liecheck.exact import GaussianRational, parse_scalar
from liecheck.specfile import (
    DuplicateName,
    InconsistentBracket,
    SpecfileError,
    SpecSyntaxError,
    UnresolvedReference,
    build,
    parse,
    serialize,
)

CANONICAL_SPHERE = """\
algebra so3 { basis k0 e1 e2; bracket [k0,e1] = -1*e2; bracket [k0,e2] = e1; bracket [e1,e2] = -1*k0; }
subalgebra k of so3 = span(k0);
operator I on so3 = ad(k0);
pair sphere = (so3, k, connected = true);
"""


def test_parse_sphere_document():
    doc = parse(CANONICAL_SPHERE)
    assert list(doc.algebras) == ["so3"]
    assert list(doc.subalgebras) == ["k"]
    assert list(doc.operators) == ["I"]
    assert list(doc.pairs) == ["sphere"]
    alg = doc.algebras["so3"]
    assert alg.labels == ("k0", "e1", "e2")
    # three declared brackets, all nonzero, i < j
    assert len(alg.brackets) == 3
    assert all(i < j for i, j, _ in alg.brackets)


def test_empty_document():
    doc = parse("")
    assert doc.algebras == {} and doc.pairs == {}
    assert serialize(doc) == ""


def test_comments_and_whitespace():
    text = "# leading comment\n\n  algebra   a { basis x ; } # trailing\n"
    doc = parse(text)
    assert doc.algebras["a"].labels == ("x",)


def test_inconsistent_bracket_direct():
    with pytest.raises(InconsistentBracket):
        parse("algebra a { basis x y; bracket [x,y] = -1*y; bracket [y,x] = -1*y; }")


def test_inconsistent_bracket_diagonal():
    with pytest.raises(InconsistentBracket):
        parse("algebra a { basis x y; bracket [x,x] = y; }")


def test_consistent_reverse_brackets_accepted():
    doc = parse("algebra a { basis x y z; bracket [x,y] = z; bracket [y,x] = -1*z; }")
    assert len(doc.algebras["a"].brackets) == 1


def test_duplicate_names():
    with pytest.raises(DuplicateName):
        parse("algebra a { basis x; } algebra a { basis y; }")
    with pytest.raises(DuplicateName):
        parse("algebra a { basis x x; }")


def test_unresolved_references():
    with pytest.raises(UnresolvedReference):
        parse("subalgebra s of ghost = span(x);")
    with pytest.raises(UnresolvedReference):
        parse("algebra a { basis x; } subalgebra s of a = span(zz);")
    with pytest.raises(UnresolvedReference):
        parse("algebra a { basis x; } subalgebra s of a = span(x);"
              "pair p = (a, s, complement ghost);")


def test_mismatched_parent_algebra():
    text = (
        "algebra a { basis x; } algebra b { basis y; }"
        "subalgebra s of a = span(x);"
        "pair p = (b, s);"
    )
    with pytest.raises(UnresolvedReference):
        parse(text)


def test_syntax_error_positions():
    try:
        parse("algebra a { basis x;\n bracket [x,x] = 3//2*x; }")
    except SpecSyntaxError as err:
        assert err.line == 2 and err.col > 0
        assert err.expected
    else:
        pytest.fail("expected a syntax diagnostic")


_A = "algebra a { basis x y; }\n"
_S = _A + "subalgebra s of a = span(x);\n"
_M = "matrix_algebra m dim = 1 { gen d = "

# One snippet per diagnostic the scanner, the parser and the lincomb resolver
# raise, with its exact position and message.
PINNED_DIAGNOSTICS = [
    ("algebra a { basis x; } $", SpecSyntaxError, "1:24: unexpected character '$'"),
    (_A + "operator o on a { x => y; }", SpecSyntaxError,
     "2:22: unexpected character '>'"),
    (_M + "[[1.5]]; }", SpecSyntaxError, "1:39: unexpected character '.'"),
    ("lemma a;", SpecSyntaxError, "1:1: expected algebra, matrix_algebra, "
     "subalgebra, complement, operator, pair, found 'lemma'"),
    ("[[1]]", SpecSyntaxError, "1:1: expected algebra, matrix_algebra, "
     "subalgebra, complement, operator, pair, found '['"),
    ("algebra { basis x; }", SpecSyntaxError,
     "1:9: expected an algebra name, found '{'"),
    ("algebra a { basis x y; bracket [x,y] = x }", SpecSyntaxError,
     "1:42: expected ';', found '}'"),
    ("algebra a { basis x;", SpecSyntaxError,
     "1:21: expected '}', found 'end of input'"),
    ("algebra a basis x; }", SpecSyntaxError, "1:11: expected '{', found 'basis'"),
    ("algebra a { basis ; }", SpecSyntaxError,
     "1:19: expected at least one basis label, found ';'"),
    ("algebra a { basis x i; }", SpecSyntaxError,
     "1:21: basis label 'i' is reserved for the imaginary unit"),
    (_M.replace("gen d", "gen i") + "[[1]]; }", SpecSyntaxError,
     "1:32: generator name 'i' is reserved for the imaginary unit"),
    ("algebra a { basis x y; bracket [x,y] = 3//2*x; }", SpecSyntaxError,
     "1:42: expected a denominator, found '/'"),
    ((Path(__file__).parent / "data" / "bad_scalar.lie").read_text(encoding="utf-8"),
     SpecSyntaxError, "2:21: expected a denominator, found '/'"),
    (_M + "[[1/0]]; }", SpecSyntaxError, "1:40: zero denominator"),
    (_M + "[[1/00]]; }", SpecSyntaxError, "1:40: zero denominator"),
    (_M + "[[1+1/0i]]; }", SpecSyntaxError, "1:42: zero denominator"),
    (_M + "[[2ii]]; }", SpecSyntaxError, "1:39: expected ']', found 'ii'"),
    (_M + "[[1 2]]; }", SpecSyntaxError, "1:40: expected ']', found '2'"),
    (_M + "[[1+]]; }", SpecSyntaxError, "1:39: expected ']', found '+'"),
    (_M + "[[x]]; }", SpecSyntaxError, "1:38: expected a scalar, found 'x'"),
    (_M + "[[1 +\n 2i, x]]; }", SpecSyntaxError, "2:6: expected a scalar, found 'x'"),
    (_M + "[1]; }", SpecSyntaxError, "1:37: expected '[', found '1'"),
    (_M.replace("dim = 1", "dim = 2") + "[[1,0],[0]]; }", SpecSyntaxError,
     "1:36: ragged matrix rows"),
    (_M.replace("dim = 1", "dim = 2") + "[[1]]; }", SpecSyntaxError,
     "1:32: generator 'd' must be 2x2"),
    (_M.replace("dim = 1", "dim = 0") + "[[1]]; }", SpecSyntaxError,
     "1:24: matrix size must be positive"),
    (_M.replace("dim = 1", "dim = x") + "[[1]]; }", SpecSyntaxError,
     "1:24: expected the matrix size, found 'x'"),
    ("matrix_algebra m dim = 1 { }", SpecSyntaxError,
     "1:28: expected at least one generator, found '}'"),
    (_A + "subalgebra s of a = span(2);", SpecSyntaxError,
     "2:26: a bare scalar in a vector position must be 0"),
    (_A + "subalgebra s of a = span(0 + x);", SpecSyntaxError,
     "2:26: a bare scalar cannot be mixed with basis terms"),
    (_A + "subalgebra s of a = span(2i*x);", SpecSyntaxError,
     "2:29: coefficients in vectors must be rational"),
    (_A + "subalgebra s of a = span(z);", UnresolvedReference,
     "2:26: unknown basis label 'z'"),
    (_A + "subalgebra s of a = span(x + );", SpecSyntaxError,
     "2:30: expected a scalar or a basis label, found ')'"),
    (_A + "subalgebra s of a = span(x, );", SpecSyntaxError,
     "2:29: expected a scalar or a basis label, found ')'"),
    (_A + "subalgebra s of a = span(2*);", SpecSyntaxError,
     "2:28: expected a basis label, found ')'"),
    (_A + "operator o on a { }", SpecSyntaxError,
     "2:19: expected at least one rule, found '}'"),
    (_A + "operator o on a = foo(x);", SpecSyntaxError,
     "2:19: expected 'ad', 'left', 'right', 'sandwich', found 'foo'"),
    (_S + "pair p = (a, s, connected = maybe);", SpecSyntaxError,
     "3:29: expected 'true', 'false', found 'maybe'"),
    (_S + "pair p = (a, s, colour = red);", SpecSyntaxError,
     "3:17: expected 'complement', 'connected', 'reps', found 'colour'"),
    # A component rep of the wrong size is diagnosed at its matrix, by index.
    (_S + "pair p = (a, s, connected = false,\n  reps([[1,0],[0,1]], [[1]]));",
     SpecSyntaxError, "4:23: component rep #1 must be 2x2"),
    # Digits are ASCII: other digits are neither integers nor names.
    (_M + "[[\u00b2]]; }", SpecSyntaxError, "1:38: unexpected character '\u00b2'"),
    (_M + "[[1\u00b2]]; }", SpecSyntaxError, "1:39: unexpected character '\u00b2'"),
    (_M + "[[\u0663]]; }", SpecSyntaxError, "1:38: unexpected character '\u0663'"),
    (_M + "[[1/\u0663]]; }", SpecSyntaxError, "1:40: unexpected character '\u0663'"),
    # An integer too long for int() is diagnosed at the literal.
    (_M + "[[" + "7" * 5000 + "]]; }", SpecSyntaxError, "1:38: integer literal too long"),
    (_M + "[[1/" + "7" * 5000 + "]]; }", SpecSyntaxError,
     "1:40: integer literal too long"),
    (_M.replace("dim = 1", "dim = " + "7" * 5000) + "[[1]]; }", SpecSyntaxError,
     "1:24: integer literal too long"),
    (_A + "subalgebra s of a = span(x - " + "7" * 5000 + "*y);", SpecSyntaxError,
     "2:30: integer literal too long"),
    # A name must be declared before it is used.
    ("subalgebra s of a = span(x);\nalgebra a { basis x; }", UnresolvedReference,
     "1:17: unknown algebra 'a'"),
    ("operator o on a = ad(x);\nalgebra a { basis x; }", UnresolvedReference,
     "1:15: unknown algebra 'a'"),
    (_A + "pair p = (a, s);\nsubalgebra s of a = span(x);", UnresolvedReference,
     "2:14: unknown subalgebra 's'"),
    (_S + "pair p = (a, s, complement m);\ncomplement m of a = span(y);", UnresolvedReference,
     "3:28: unknown complement 'm'"),
    # Of two errors the first in the text is reported: here before the
    # duplicate name on line 3, and before the missing ")".
    (_A + "subalgebra s of a = span(x + 2i*y, z);\nsubalgebra s of a = span(x);",
     SpecSyntaxError, "2:33: coefficients in vectors must be rational"),
    (_A + "subalgebra s of a = span(q;", UnresolvedReference,
     "2:26: unknown basis label 'q'"),
    # Lines split at "\n" only; a column counts characters, a tab or a "\r"
    # included, and a comment ends at its line.
    ("algebra a { basis x; }\n\tpair", SpecSyntaxError,
     "2:6: expected a pair name, found 'end of input'"),
    ("algebra a {\r basis x; } $", SpecSyntaxError, "1:25: unexpected character '$'"),
    ("algebra a { basis x; } # c $\n  @", SpecSyntaxError, "2:3: unexpected character '@'"),
    ("algebra a { basis x; bracket [x,x] = 1/\n0*x; }", SpecSyntaxError,
     "2:1: zero denominator"),
    # An invalid literal is diagnosed where the parser first takes it.
    (_A + "operator o on a { x -> 3/0*y; }\noperator p on a = ad(3/0*x);", SpecSyntaxError,
     "2:26: zero denominator"),
]


@pytest.mark.parametrize("text,exc_type,diagnostic", PINNED_DIAGNOSTICS,
                         ids=[case[2] for case in PINNED_DIAGNOSTICS])
def test_pinned_diagnostics(text, exc_type, diagnostic):
    with pytest.raises(exc_type) as err:
        parse(text)
    assert type(err.value) is exc_type
    assert str(err.value) == diagnostic
    assert f"{err.value.line}:{err.value.col}: {err.value.message}" == diagnostic


@pytest.mark.parametrize("spaced,compact", [
    ("1 / 2", "1/2"),
    ("1 + 2 i", "1+2i"),
    ("2 i", "2i"),
    ("- 3", "-3"),
    ("3/2 + 1/4 i", "3/2+1/4i"),
    ("-\n1 /\n 2", "-1/2"),
])
def test_whitespace_inside_scalars(spaced, compact):
    def entry(scalar):
        doc = parse(f"matrix_algebra m dim = 1 {{ gen d = [[{scalar}]]; }}")
        return doc.matrix_algebras["m"].gen_matrices[0].entry(0, 0)

    assert entry(spaced) == entry(compact)
    assert type(entry(spaced)) is type(entry(compact))


def test_repeated_literals_give_equal_values_at_each_position():
    # A literal text is converted once per parse and its value shared; each
    # position must still hold the value and type of its own conversion.
    rows = [["1/2", "1+2i", "2"], ["1/2", "-1/2", "2i"], ["2", "1+2i", "1 / 2"]]
    doc = parse("matrix_algebra m dim = 3 { "
                + " ".join(f"gen {name} = [{','.join('[' + ','.join(r) + ']' for r in mat)}];"
                           for name, mat in (("a", rows), ("b", rows[::-1])))
                + " }\nalgebra g { basis x y; bracket [x,y] = 1/2*x - 1/2*y; }\n"
                "subalgebra s of g = span(1/2*x, 1/2*y + x, x - 1/2*y);")
    for mat, texts in zip(doc.matrix_algebras["m"].gen_matrices, (rows, rows[::-1])):
        want = [parse_scalar(t) for r in texts for t in r]
        assert list(mat.entries) == want
        assert [type(e) for e in mat.entries] == [type(e) for e in want]
    assert doc.algebras["g"].brackets == ((0, 1, (Fraction(1, 2), Fraction(-1, 2))),)
    assert doc.subalgebras["s"].vectors == (
        (Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(-1, 2)))
    assert all(type(x) is Fraction for v in doc.subalgebras["s"].vectors for x in v)


def test_signs_and_terms_in_lincombs():
    doc = parse("algebra a { basis x y; } subalgebra s of a = span(x - -2*y);")
    assert doc.subalgebras["s"].vectors == ((Fraction(1), Fraction(2)),)
    # "0 + 2*x" is two terms, a bare scalar and 2*x; "0 + 2i*x" is one term
    # whose coefficient is the scalar 0+2i.
    with pytest.raises(SpecSyntaxError, match="cannot be mixed"):
        parse("algebra a { basis x; } subalgebra s of a = span(0 + 2*x);")
    with pytest.raises(SpecSyntaxError, match="must be rational"):
        parse("algebra a { basis x; } subalgebra s of a = span(0 + 2i*x);")


MUTATION_ALPHABET = "0123456789/+-*i[](){}#\n.\u00b2\u0663"


def test_mutated_inputs_parse_or_raise_a_positioned_diagnostic(corpus_dir, fixtures_dir):
    rng = random.Random(20261018)
    for path in sorted(corpus_dir.glob("*.lie")) + sorted(fixtures_dir.glob("*.lie")):
        text = path.read_text(encoding="utf-8")
        for _ in range(120):
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                op, pos = rng.choice("idr"), rng.randrange(len(chars) + 1)
                if op == "i":
                    chars.insert(pos, rng.choice(MUTATION_ALPHABET))
                elif pos < len(chars) and op == "d":
                    del chars[pos]
                elif pos < len(chars):
                    chars[pos] = rng.choice(MUTATION_ALPHABET)
            mutated = "".join(chars)
            try:
                doc = parse(mutated)
            except SpecfileError as err:
                lines = mutated.split("\n")
                assert 1 <= err.line <= len(lines), (path.name, mutated)
                assert 1 <= err.col <= len(lines[err.line - 1]) + 1, (path.name, mutated)
            else:
                assert parse(serialize(doc)) == doc, (path.name, mutated)


def test_malformed_fixtures(fixtures_dir):
    cases = {
        "inconsistent_bracket.lie": InconsistentBracket,
        "unresolved_ref.lie": UnresolvedReference,
        "bad_scalar.lie": SpecSyntaxError,
    }
    for name, exc_type in cases.items():
        text = (fixtures_dir / name).read_text()
        with pytest.raises(exc_type) as err:
            parse(text)
        lines = text.splitlines()
        assert 1 <= err.value.line <= len(lines)
        assert 1 <= err.value.col <= len(lines[err.value.line - 1]) + 1


def test_round_trip_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.lie")):
        doc = parse(path.read_text())
        canon = serialize(doc)
        assert parse(canon) == doc, path.name
        # canonical form is a fixed point
        assert serialize(parse(canon)) == canon, path.name


def test_corpus_dumps_match_golden_files(corpus_dir, fixtures_dir):
    golden = sorted((fixtures_dir / "canonical").glob("*.lie"))
    assert [p.name for p in golden] == sorted(p.name for p in corpus_dir.glob("*.lie"))
    for path in golden:
        doc = parse((corpus_dir / path.name).read_text(encoding="utf-8"))
        assert serialize(doc) == path.read_text(encoding="utf-8"), path.name


def test_round_trip_randomized_documents():
    rng = random.Random(61)
    for _ in range(15):
        n = rng.randint(1, 4)
        labels = [f"b{i}" for i in range(n)]
        lines = [f"algebra a {{ basis {' '.join(labels)}; }}"]
        chosen = rng.sample(labels, rng.randint(1, n))
        vecs = ", ".join(chosen)
        lines.append(f"subalgebra s of a = span({vecs});")
        rules = " ".join(
            f"{lab} -> {rng.randint(-3, 3)}*{rng.choice(labels)};"
            for lab in labels
        )
        lines.append(f"operator op on a {{ {rules} }}")
        lines.append("pair p = (a, s, connected = false);")
        doc = parse("\n".join(lines))
        assert parse(serialize(doc)) == doc


def test_scalar_canonicalization():
    doc = parse("algebra a { basis x y; bracket [x,y] = 2/4*x; }")
    assert "1/2*x" in serialize(doc)


def test_serialization_emits_lower_triangle_only():
    doc = parse("algebra a { basis x y z; bracket [y,x] = z; }")
    out = serialize(doc)
    assert "bracket [x,y] = -1*z;" in out
    assert "[y,x]" not in out


def test_gaussian_matrix_round_trip():
    text = (
        "matrix_algebra u1 dim = 1 { gen d = [[i]]; }\n"
        "subalgebra triv of u1 = span(0);\n"
        "pair p = (u1, triv);\n"
    )
    doc = parse(text)
    assert doc.matrix_algebras["u1"].gen_matrices[0].entry(0, 0) == GaussianRational(0, 1)
    assert parse(serialize(doc)) == doc


def test_complex_coefficient_rejected_in_vector():
    with pytest.raises(SpecSyntaxError):
        parse("algebra a { basis x y; bracket [x,y] = 2i*x; }")


def test_bare_scalar_must_be_zero():
    with pytest.raises(SpecSyntaxError):
        parse("algebra a { basis x; } subalgebra s of a = span(2);")


def test_reps_round_trip():
    text = (
        "algebra a { basis x y; }\n"
        "subalgebra s of a = span(x);\n"
        "pair p = (a, s, connected = false, reps([[1,0],[0,-1]]));\n"
    )
    doc = parse(text)
    assert len(doc.pairs["p"].reps) == 1
    assert parse(serialize(doc)) == doc
    built = build(doc)
    assert built.pairs["p"].component_reps[0].entry(1, 1) == Fraction(-1)


def test_build_constructs_working_objects(corpus_dir):
    from liecheck import check_admissible
    doc = parse((corpus_dir / "so3_sphere.lie").read_text())
    built = build(doc)
    pair = built.pairs["sphere"]
    assert check_admissible(pair, built.operators["I"]).holds
    assert built.operators["I"].ad_generator == pair.alg.basis_vector("k0")
