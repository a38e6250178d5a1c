"""Exception types shared across the package."""


class EllsymError(Exception):
    """Base class for all analyzer errors."""


class DslSyntaxError(EllsymError):
    """Malformed DSL input. Carries a line/column location when known."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" if col is None else f"line {line}, col {col}"
            message = f"{where}: {message}"
        super().__init__(message)


class NonHomogeneousRowError(DslSyntaxError):
    """A single operator row mixes derivative orders."""


class UnknownComponentError(DslSyntaxError):
    """A row references a component beyond the declared source dimension."""


class InvalidArgumentError(EllsymError, ValueError):
    """An argument (quadrature level, grid size, direction, j, mode) is invalid."""


class DimensionMismatchError(EllsymError):
    """Operator/constraint dimensions are inconsistent."""


class DuplicateBlockError(DslSyntaxError):
    """The same declaration appears twice in one file."""


class OversizedInputError(EllsymError):
    """An input whose counted size is over a fixed budget, refused before the work."""


class NotHomogeneousError(EllsymError):
    """Operation requires an operator with a single common row degree."""


class NotEllipticError(EllsymError):
    """Operation requires an elliptic operator.

    witness_xi / kernel_vector hold the witness found, exact unless the message says `near`.
    """

    def __init__(self, message, witness_xi=None, kernel_vector=None):
        super().__init__(message)
        self.witness_xi = witness_xi
        self.kernel_vector = kernel_vector


class OrderTooLowError(EllsymError):
    """Moment-map analysis requires operator order >= space dimension."""


class QuadratureNotConvergedError(EllsymError):
    """Successive quadrature refinements failed to agree."""


class NearSingularSymbolError(EllsymError):
    """det(A*A) at a quadrature node is below DET_FLOOR times its largest value over the nodes."""


class HypothesisFailedError(EllsymError):
    """Left-inverse construction hypothesis M(common kernel) = 0 fails."""


class EpsilonTooSmallError(EllsymError):
    """Mollification width too small for the grid resolution."""
