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
    """A candidate subalgebra is not closed; carries an exact witness pair."""

    def __init__(self, x, y, value):
        super().__init__("span is not closed under the bracket")
        self.x = x
        self.y = y
        self.value = value


class InvalidComponentRep(LieCheckError):
    """A declared component representative is not a k-preserving automorphism."""


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
    """Operator fails the admissibility precondition; carries the report."""

    def __init__(self, report):
        super().__init__("operator is not admissible for the pair")
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
