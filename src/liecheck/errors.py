"""Exception taxonomy shared across the package.

Every error raised by the library derives from :class:`LieCheckError`, so a
caller (notably the CLI) can separate usage/input problems from mathematical
verdicts, which are never reported through exceptions.
"""


class LieCheckError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LieCheckError):
    """A vector or matrix has the wrong length for the ambient space."""


class DimensionCapExceeded(LieCheckError):
    """Ambient dimension above the supported cap (exact elimination cost)."""


class NotIndependent(LieCheckError):
    """Matrix generators are linearly dependent over the rationals."""


class NotClosed(LieCheckError):
    """A commutator of generators leaves the span."""

    def __init__(self, label_a, label_b, commutator=None):
        super().__init__(f"commutator [{label_a},{label_b}] is outside the generator span")
        self.labels = (label_a, label_b)
        self.commutator = commutator


class NonRealStructureConstants(LieCheckError):
    """A commutator lies in the complex span only; the real span is not closed."""

    def __init__(self, label_a, label_b):
        super().__init__(
            f"commutator [{label_a},{label_b}] needs non-real coefficients; "
            "the generators do not span a real Lie algebra"
        )
        self.labels = (label_a, label_b)


class InvalidStructureConstants(LieCheckError):
    """Structure tensor violates antisymmetry or the Jacobi identity."""


class NotClosedUnderBracket(LieCheckError):
    """A candidate subalgebra is not closed; carries and names an exact witness pair."""

    def __init__(self, x, y, value, format_element):
        super().__init__("span is not closed under the bracket: "
                         f"[{format_element(x)}, {format_element(y)}] = {format_element(value)}")
        self.x = x
        self.y = y
        self.value = value


class InvalidComponentRep(LieCheckError):
    """A component rep is not a k-preserving automorphism; carries its index and witness."""

    def __init__(self, message, rep_index, witness=None):
        super().__init__(f"component rep #{rep_index} {message}")
        self.rep_index, self.witness = rep_index, witness


class RuleIncomplete(LieCheckError):
    """An operator rule table does not cover every basis label."""

    def __init__(self, missing):
        super().__init__("no rule for basis label(s): " + ", ".join(missing))
        self.missing = tuple(missing)


class ImageOutsideAlgebra(LieCheckError):
    """A multiplication operator maps a basis element outside the algebra."""

    def __init__(self, label):
        super().__init__(f"image of basis element {label} is outside the algebra span")
        self.label = label


class MissingComplement(LieCheckError):
    """The requested check needs a declared complement of the subalgebra."""


class NotAdmissible(LieCheckError):
    """Operator fails the admissibility precondition; carries the report and
    names its failed clause."""

    def __init__(self, report):
        super().__init__("operator is not admissible for the pair "
                         f"(failed clause: {report.failed_clause})")
        self.report = report


class NotACAdmissible(LieCheckError):
    """Operator does not induce an almost complex structure."""


class NotSplitACAdmissible(LieCheckError):
    """Operator fails the split clauses (kernel / complement / square)."""

    def __init__(self, clause):
        super().__init__(f"split almost-complex clause violated: {clause}")
        self.clause = clause


class PointOffManifold(LieCheckError):
    """A sample point does not lie on the model manifold."""


class SectionSingular(LieCheckError):
    """The local section of the model is singular near the given point."""


class StepTooSmall(LieCheckError):
    """Finite-difference step below the supported minimum."""


class InternalInconsistency(LieCheckError):
    """Two computations that must agree did not: a fault in the package."""
