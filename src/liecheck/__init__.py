"""Exact verdicts for operators on homogeneous pairs of Lie algebras.

The package decides, in exact rational arithmetic, whether a linear operator
on a finite-dimensional Lie algebra descends to a homogeneous bundle map
(admissibility), whether the induced map is a Nijenhuis operator (torsion
values inside the subalgebra), and whether an induced almost complex
structure is integrable (the subspace Z+ of the complexification closed
under the bracket).  A floating-point harness cross-validates the algebraic
torsion criterion against finite-difference brackets on concrete matrix
models.
"""

from .algebra import (
    LieAlgebra,
    Subalgebra,
    conjugate_vector,
    from_matrix_generators,
    make_subalgebra,
)
from .complexstruct import (
    IntegrabilityReport,
    SplitDiagnostics,
    check_integrable,
    compute_z_spaces,
    split_diagnostics,
)
from .errors import LieCheckError
from .exact import (
    ExactMatrix,
    GaussianRational,
    Rational,
    Subspace,
    format_scalar,
    kernel_basis,
    parse_scalar,
    rref,
    subspace_intersection,
    subspace_sum,
)
from .operators import (
    HomogeneousPair,
    LinearOperator,
    VerdictReport,
    check_admissible,
    operator_ad,
    operator_from_rules,
    operator_left_mult,
    operator_right_mult,
    operator_sandwich,
)
from .torsion import (
    TorsionReport,
    check_nijenhuis,
    check_nijenhuis_ad,
    torsion_form,
)

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix",
    "GaussianRational",
    "HomogeneousPair",
    "IntegrabilityReport",
    "LieAlgebra",
    "LieCheckError",
    "LinearOperator",
    "Rational",
    "SplitDiagnostics",
    "Subalgebra",
    "Subspace",
    "TorsionReport",
    "VerdictReport",
    "check_admissible",
    "check_integrable",
    "check_nijenhuis",
    "check_nijenhuis_ad",
    "compute_z_spaces",
    "conjugate_vector",
    "format_scalar",
    "from_matrix_generators",
    "kernel_basis",
    "make_subalgebra",
    "operator_ad",
    "operator_from_rules",
    "operator_left_mult",
    "operator_right_mult",
    "operator_sandwich",
    "parse_scalar",
    "rref",
    "split_diagnostics",
    "subspace_intersection",
    "subspace_sum",
    "torsion_form",
]
