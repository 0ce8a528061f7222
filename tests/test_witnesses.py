"""Each check decides its clause once, in integers, and its witness is the
failing integer value divided by that loop's scale: no check evaluates its
clause a second time in the rationals.

The rational forms stay available as references (``torsion_form``,
``LieAlgebra.bracket``, ``ExactMatrix.apply`` and ``@``); here each is
counted while a failing input runs through a check, and none may be called.
"""

import pytest

import liecheck.torsion
from liecheck import (
    ExactMatrix,
    HomogeneousPair,
    LieAlgebra,
    check_admissible,
    check_integrable,
    check_nijenhuis,
    make_subalgebra,
    operator_ad,
    operator_from_rules,
)
from liecheck.errors import NotClosedUnderBracket

from conftest import CORPUS, FIXTURES, _built


def _cases():
    """name -> (check, expect): ``check()`` runs a check on an input that
    fails it, and ``expect(result)`` says that it failed."""
    fam = _built(CORPUS / "so3_family.lie")
    so3, sphere = fam.algebras["so3"], fam.pairs["sphere_split"]
    k0_to_e1 = operator_from_rules(so3, {"k0": so3.basis_vector("e1"),
                                         "e1": so3.zero_vector(), "e2": so3.zero_vector()})
    flip = _built(FIXTURES / "so3_flip_reps.lie")
    gl3 = _built(CORPUS / "gl3_full.lie")
    gl3_alg = gl3.algebras["gl3"]
    ad_e12 = operator_ad(gl3_alg, gl3_alg.basis_vector("e12"))
    nil4 = _built(CORPUS / "nil4.lie")
    jtwist, nilgroup = nil4.operators["jtwist"], nil4.pairs["nilgroup"]
    # k = 0 and no complement, so that no split diagnostic runs.
    bare = HomogeneousPair(nilgroup.alg, nilgroup.k)

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
                            None),
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
    check, expect = CASES[name]
    if expect is None:
        with pytest.raises(NotClosedUnderBracket):
            check()
    else:
        assert expect(check())
    assert calls == []
