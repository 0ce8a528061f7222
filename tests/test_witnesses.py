"""Each check decides its clause once, in integers, and its witness is the
failing integer value divided by that loop's scale: no check evaluates its
clause a second time in the rationals.  The split clauses, E+ and the
component-rep validation run on the same integer views.

The rational forms stay available as references (``torsion_form``,
``LieAlgebra.bracket``, ``ExactMatrix.apply`` and ``@``, and
``Subspace.coordinates_of``, behind ``in``); here each is counted while an
input runs through a check, and none may be called.  ``operators`` and
``complexstruct`` do not name them, nor ``kernel_basis``.
"""

import ast
import inspect
from fractions import Fraction

import pytest

import liecheck.algebra
import liecheck.complexstruct
import liecheck.operators
import liecheck.torsion
from liecheck import (
    ExactMatrix,
    HomogeneousPair,
    LieAlgebra,
    Subspace,
    check_admissible,
    check_integrable,
    check_nijenhuis,
    make_subalgebra,
    operator_ad,
    operator_from_rules,
    split_diagnostics,
)
from liecheck.complexstruct import SplitDiagnostics
from liecheck.errors import InvalidComponentRep, NotClosedUnderBracket
from liecheck.operators import _split_verdict

from conftest import CORPUS, FIXTURES, _built


def _cases():
    """name -> (check, expect): ``check()`` runs a check, and
    ``expect(result)`` says what it found, or ``expect`` is the error that
    ``check()`` raises."""
    fam = _built(CORPUS / "so3_family.lie")
    so3, k, sphere = fam.algebras["so3"], fam.subalgebras["k"], fam.pairs["sphere_split"]
    k0_to_e1 = operator_from_rules(so3, {"k0": so3.basis_vector("e1"),
                                         "e1": so3.zero_vector(), "e2": so3.zero_vector()})
    e1_to_k0 = operator_from_rules(so3, {"k0": so3.zero_vector(),
                                         "e1": so3.basis_vector("k0"), "e2": so3.zero_vector()})
    fam_unit = fam.operators["fam_unit"]
    flip = _built(FIXTURES / "so3_flip_reps.lie")
    half = ExactMatrix.from_rows([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
    gl3 = _built(CORPUS / "gl3_full.lie")
    gl3_alg = gl3.algebras["gl3"]
    ad_e12 = operator_ad(gl3_alg, gl3_alg.basis_vector("e12"))
    nil4 = _built(CORPUS / "nil4.lie")
    jtwist, nilgroup = nil4.operators["jtwist"], nil4.pairs["nilgroup"]
    # k = 0 and no complement, so that no split diagnostic runs.
    bare = HomogeneousPair(nilgroup.alg, nilgroup.k)
    u4 = _built(CORPUS / "u4_grassmannian.lie")

    def clause(name):
        return lambda report: report.failed_clause == name

    def fails(report):
        return report.verdict is False

    return {
        "admissible preserves_k": (lambda: check_admissible(sphere, k0_to_e1),
                                   clause("preserves_k")),
        "admissible commutes_with_ad_k": (
            lambda: check_admissible(sphere, fam.operators["fam_bad"]),
            clause("commutes_with_ad_k")),
        "admissible commutes_with_component_reps": (
            lambda: check_admissible(flip.pairs["flip"], flip.operators["I"]),
            clause("commutes_with_component_reps")),
        "torsion all": (lambda: check_nijenhuis(gl3.pairs["full"], gl3.operators["smix"],
                                                pairs="all"), fails),
        "torsion complement": (lambda: check_nijenhuis(nilgroup, jtwist, pairs="complement"),
                               fails),
        "torsion ad": (lambda: check_nijenhuis(gl3.pairs["full"], ad_e12, pairs="ad"), fails),
        "integrable": (lambda: check_integrable(bare, jtwist),
                       lambda report: report.witness is not None),
        "make_subalgebra": (lambda: make_subalgebra(so3, [so3.basis_vector("e1"),
                                                          so3.basis_vector("e2")]),
                            NotClosedUnderBracket),
        "split k_in_kernel": (
            lambda: _split_verdict(sphere, fam_unit, check_admissible(sphere, fam_unit)),
            clause("k_in_kernel")),
        "split m_invariant": (
            lambda: _split_verdict(sphere, e1_to_k0, check_admissible(sphere, e1_to_k0)),
            clause("m_invariant")),
        "integrable with complement": (lambda: check_integrable(nilgroup, jtwist),
                                       lambda report: report.split is not None),
        "split_diagnostics": (lambda: split_diagnostics(u4.pairs["grass"], u4.operators["jgr"]),
                              lambda split: split == SplitDiagnostics(True, True, True)),
        "valid component rep": (
            lambda: HomogeneousPair(so3, k, connected=False,
                                    component_reps=flip.pairs["flip"].component_reps),
            lambda pair: len(pair.component_reps) == 1),
        "invalid component rep": (
            lambda: HomogeneousPair(so3, k, connected=False, component_reps=(half,)),
            InvalidComponentRep),
    }


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_check_rederives_its_witness(monkeypatch, name):
    calls = []

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(liecheck.torsion, "torsion_form",
                        counted("torsion_form", liecheck.torsion.torsion_form))
    monkeypatch.setattr(LieAlgebra, "bracket", counted("bracket", LieAlgebra.bracket))
    monkeypatch.setattr(ExactMatrix, "apply", counted("apply", ExactMatrix.apply))
    monkeypatch.setattr(ExactMatrix, "__matmul__", counted("@", ExactMatrix.__matmul__))
    monkeypatch.setattr(Subspace, "coordinates_of",
                        counted("coordinates_of", Subspace.coordinates_of))
    check, expect = CASES[name]
    if isinstance(expect, type):
        with pytest.raises(expect):
            check()
    else:
        assert expect(check())
    assert calls == []


@pytest.mark.parametrize("module", [liecheck.operators, liecheck.complexstruct])
def test_checks_name_no_rational_kernel(module):
    # LinearOperator.apply is the one ``.apply`` left, and no ``@`` at all.
    tree = ast.parse(inspect.getsource(module))
    names = ([node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
             + [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)])
    assert not {"bracket", "coordinates_of", "kernel_basis"} & set(names)
    assert names.count("apply") == (module is liecheck.operators)
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))


def test_k_and_z_plus_share_one_closure_loop(monkeypatch):
    # make_subalgebra certifies k and check_integrable certifies Z+ through
    # the same integer pair loop; complexstruct brackets nothing itself.
    loop = liecheck.algebra._bracket_escape
    assert liecheck.complexstruct._bracket_escape is loop
    tree = ast.parse(inspect.getsource(liecheck.complexstruct))
    assert "bracket_into" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    spaces = []

    def counted(alg, space):
        spaces.append(space)
        return loop(alg, space)

    monkeypatch.setattr(liecheck.algebra, "_bracket_escape", counted)
    monkeypatch.setattr(liecheck.complexstruct, "_bracket_escape", counted)
    with pytest.raises(NotClosedUnderBracket) as err:
        CASES["make_subalgebra"][0]()
    report = CASES["integrable"][0]()
    assert spaces[0].vectors() == (err.value.x, err.value.y)
    assert spaces[1:] == [report.z_plus] and report.witness is not None
