"""Exception types shared across the package."""


class MoserTransportError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(MoserTransportError):
    """Invalid configuration: unknown kind, bad parameter, malformed config text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ExpressionSyntaxError(MoserTransportError):
    """Syntax error in an arithmetic expression, with byte offset into the source."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"at offset {offset}: {message}")


class EvaluationDomainError(MoserTransportError):
    """Expression evaluated outside its mathematical domain (log of <= 0, x/0, ...)."""


class MassMismatchError(MoserTransportError):
    """Two densities that should carry equal mass do not, beyond tolerance."""


class SolverError(MoserTransportError):
    """Linear solve failed to reach the requested residual."""


class DegeneracyError(MoserTransportError):
    """A density dropped below the floor required by the current operation."""


class InfeasibilityError(MoserTransportError):
    """Root bracketing failed: the requested mass cannot be matched (mass deficiency)."""


class ResolutionError(MoserTransportError):
    """Tabulated data is too coarse for the requested operation (refine the grid)."""


class IntegrationError(MoserTransportError):
    """Flow trajectory left the domain by more than one grid cell.

    ``point`` is the index of the offending point in the swept array, when known.
    """

    def __init__(self, message, point=None):
        self.point = point
        super().__init__(message)
