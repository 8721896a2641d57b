"""Exception hierarchy for the gra package, and the shared type check."""

import numbers


class GraError(Exception):
    """Base class for all errors raised by this package."""


class GraphValidationError(GraError):
    """An edge list or state vector does not describe a valid graph."""


class NotThreeRegularError(GraphValidationError):
    pass


class NonBinaryStateError(GraphValidationError):
    pass


class SelfLoopError(GraphValidationError):
    pass


class DuplicateEdgeError(GraphValidationError):
    pass


class IndexOutOfRangeError(GraphValidationError):
    pass


class RuleNumberOutOfRangeError(GraError):
    pass


class LengthMismatchError(GraError):
    pass


class OracleCapExceededError(GraError):
    pass


class DegenerateWindowError(GraError):
    pass


class ConfigMismatchError(GraError):
    pass


class SeriesFormatError(GraError, ValueError):
    """A recorded t,order,increment series cannot be read."""


class EngineInvariantError(GraError):
    """Internal consistency guard tripped; indicates an engine bug."""


class WorkerDiedError(GraError):
    """A sweep's worker process died, so its pool can run no more rules."""


def check_number(value, name: str, *, integer: bool = False, least=None) -> None:
    """GraError naming name unless value is a real number, or with integer
    set an integer; a bool is neither, and NaN is not a number.  With least
    given, a value below it is refused too, after the type."""
    kind, noun = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind) or value != value:
        raise GraError(f"{name} must be {noun}, got {value!r}")
    if least is not None and value < least:
        raise GraError(f"{name} must be at least {least}, got {value}")
