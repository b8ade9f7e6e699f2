"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GeometryError):
    pass


class ZeroPoint(GeometryError):
    pass


class NotInCone(GeometryError):
    """Target lies outside the positive hull; carries a Farkas witness."""

    def __init__(self, witness):
        super().__init__("target not in positive hull")
        self.witness = witness


class NotSpanning(GeometryError):
    """A set that was required to positively span the space does not."""

    def __init__(self, witness, colour=None):
        message = "set does not positively span the space"
        if colour is not None:
            message = f"{message} (colour {colour})"
        super().__init__(message)
        self.witness = witness
        self.colour = colour


class PreconditionFailed(GeometryError):
    """A per-colour precondition failed; carries the colour and a witness."""

    def __init__(self, colour, witness):
        super().__init__(f"precondition failed for colour {colour}")
        self.colour = colour
        self.witness = witness


class BudgetExceeded(GeometryError):
    pass


class RecursionInvariantViolation(GeometryError):
    """Internal consistency failure; indicates a bug, not a valid outcome."""


class ParseError(GeometryError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
