"""Value semantics of the report and declaration classes.

Every class built on :mod:`liecheck.values` compares field by field, names
every field in its repr, and survives pickling and copying; the frozen ones
are hashable and immutable, the others unhashable.
"""

import copy
import pickle

import pytest

from liecheck.complexstruct import IntegrabilityReport, SplitDiagnostics
from liecheck.harness import DeviationReport, FieldSample, RelationReport
from liecheck.operators import VerdictReport, check_admissible
from liecheck.serializer import serialize
from liecheck.specfile import (
    AlgebraDecl,
    BuiltDocument,
    MatrixAlgebraDecl,
    OperatorDecl,
    PairDecl,
    SpecDocument,
    SubspaceDecl,
    build,
    parse,
)
from liecheck.torsion import TorsionReport, check_nijenhuis
from liecheck.values import Value

from conftest import identity_operator, split_admissible

FROZEN = (
    SplitDiagnostics, IntegrabilityReport, VerdictReport, TorsionReport,
    AlgebraDecl, MatrixAlgebraDecl, SubspaceDecl, OperatorDecl, PairDecl,
)
MUTABLE = (
    FieldSample, RelationReport, DeviationReport, SpecDocument, BuiltDocument,
)

every_class = pytest.mark.parametrize("cls", FROZEN + MUTABLE,
                                      ids=lambda cls: cls.__name__)


def fields(cls):
    return cls.__slots__


def values(cls, tag="a"):
    """Distinct, hashable and picklable values, one per field."""
    return [f"{name}-{tag}" for name in fields(cls)]


def make(cls, tag="a"):
    return cls(*values(cls, tag))


@every_class
def test_positional_and_keyword_construction_agree(cls):
    obj = make(cls)
    assert obj == cls(**dict(zip(fields(cls), values(cls))))
    assert [getattr(obj, name) for name in fields(cls)] == values(cls)


@every_class
def test_equality_by_field(cls):
    obj = make(cls)
    assert obj == make(cls)
    assert obj != make(cls, "b")
    assert obj != tuple(values(cls))
    for idx in range(len(fields(cls))):
        changed = values(cls)
        changed[idx] = "other"
        assert cls(*changed) != obj


@every_class
def test_repr_names_every_field(cls):
    text = repr(make(cls))
    assert text.startswith(f"{cls.__qualname__}(")
    for name, value in zip(fields(cls), values(cls)):
        assert f"{name}={value!r}" in text


@every_class
@pytest.mark.parametrize("roundtrip", [
    lambda obj: pickle.loads(pickle.dumps(obj)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_roundtrip(cls, roundtrip):
    obj = make(cls)
    again = roundtrip(obj)
    assert type(again) is cls
    assert again == obj
    assert [getattr(again, name) for name in fields(cls)] == values(cls)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_is_hashable_and_immutable(cls):
    obj = make(cls)
    assert hash(obj) == hash(make(cls))
    assert len({obj, make(cls), make(cls, "b")}) == 2
    for name in fields(cls):
        with pytest.raises(AttributeError):
            setattr(obj, name, "other")
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert [getattr(obj, name) for name in fields(cls)] == values(cls)


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda cls: cls.__name__)
def test_mutable_is_unhashable(cls):
    obj = make(cls)
    with pytest.raises(TypeError):
        hash(obj)
    name = fields(cls)[0]
    setattr(obj, name, "other")
    assert getattr(obj, name) == "other"
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_defaults():
    assert VerdictReport(True, "full", ()) == VerdictReport(True, "full", (), None, None)
    assert TorsionReport(True, 0, "all-pairs").witness is None
    report = IntegrabilityReport(True, "z+", "z-", True, True, ())
    assert report.witness is None and report.split is None
    pair = PairDecl("p", "g", "k")
    assert (pair.complement, pair.connected, pair.reps) == (None, True, ())
    relation = RelationReport(20, 0, 0.0, 0.0)
    assert all(getattr(relation, name) is None for name in fields(RelationReport)[4:])
    # A fresh dict per object, never one shared default.
    docs = SpecDocument(), SpecDocument()
    for name in fields(SpecDocument):
        assert getattr(docs[0], name) == {}
        assert getattr(docs[0], name) is not getattr(docs[1], name)


def test_parsed_document_roundtrips(corpus_dir):
    doc = parse((corpus_dir / "gl3_full.lie").read_text(encoding="utf-8"))
    assert doc.matrix_algebras and doc.pairs
    assert parse(serialize(doc)) == doc
    for other in (pickle.loads(pickle.dumps(doc)), copy.deepcopy(doc)):
        assert other == doc


# The one constructor, on Value.

@every_class
def test_too_many_arguments(cls):
    n = len(fields(cls))
    with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\(\) takes {n} fields, got {n + 1}$"):
        cls(*values(cls), "extra")


@every_class
def test_unknown_keyword(cls):
    with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\(\) got unknown field 'colour'$"):
        cls(*values(cls), colour="red")


@every_class
def test_keyword_repeats_a_positional_argument(cls):
    first = fields(cls)[0]
    with pytest.raises(TypeError,
                       match=rf"^{cls.__qualname__}\(\) got repeated field '{first}'$"):
        cls(*values(cls)[:1], **{first: "again"})


@pytest.mark.parametrize("cls", [cls for cls in FROZEN + MUTABLE
                                 if set(fields(cls)) - set(cls._defaults)],
                         ids=lambda cls: cls.__name__)
def test_missing_required_field(cls):
    required = [name for name in fields(cls) if name not in cls._defaults]
    for name in required:
        given = dict(zip(fields(cls), values(cls)))
        del given[name]
        with pytest.raises(TypeError,
                           match=rf"^{cls.__qualname__}\(\) missing field '{name}'$"):
            cls(**given)
    with pytest.raises(TypeError, match="missing field"):
        cls()


def test_keywords_fill_fields_after_positional_ones():
    report = VerdictReport(False, "full", ("preserves_k",), witness=(("vector", (1,)),))
    assert report == VerdictReport(False, "full", ("preserves_k",), None, (("vector", (1,)),))
    pair = PairDecl("p", "g", "k", reps=("r",), connected=False)
    assert (pair.complement, pair.connected, pair.reps) == (None, False, ("r",))


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_only_value_defines_a_constructor():
    records = [cls for cls in subclasses(Value) if cls.__module__ != "liecheck.values"]
    assert set(FROZEN + MUTABLE) <= set(records)
    assert [cls.__qualname__ for cls in records if "__init__" in vars(cls)] == []


def test_reports_of_failing_checks_are_hashable(corpus_dir, so3_pair):
    built = build(parse((corpus_dir / "gl3_full.lie").read_text(encoding="utf-8")))
    ops = built.operators
    reports = admissible, split, torsion = (
        check_admissible(built.pairs["modsl3"], ops["lmul"]),
        split_admissible(so3_pair, identity_operator(so3_pair.alg)),
        check_nijenhuis(built.pairs["full"], ops["smix"]),
    )
    assert not (admissible.holds or split.holds or torsion.verdict)
    assert [name for name, _ in admissible.witness] == ["vector", "image"]
    assert [name for name, _ in split.witness] == ["vector", "image"]
    for report in reports:
        again = pickle.loads(pickle.dumps(report))
        assert again is not report and hash(again) == hash(report)
        assert len({report, again}) == 1
