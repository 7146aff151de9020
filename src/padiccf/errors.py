"""Exception types shared across the package."""


class PadiccfError(Exception):
    """Base class for library-specific failures."""


class HViolation(PadiccfError, ValueError):
    """A candidate minimal polynomial fails one of the admissibility clauses.

    The ``clause`` attribute names the failed check.
    """

    def __init__(self, clause: str, message: str = ""):
        self.clause = clause
        super().__init__(message or clause)


class Reducible(PadiccfError, ValueError):
    """The candidate polynomial has a proper factor over Q."""


class IrreducibilityUnknown(PadiccfError, ValueError):
    """No single-prime irreducibility certificate was found.

    Callers that have established irreducibility by other means may
    retry with ``force=True``.
    """


class MixedField(PadiccfError, ValueError):
    """Operands belong to different ambient fields."""


class NonSquare(PadiccfError, ValueError):
    """A square matrix was required."""


class ConfigError(PadiccfError, ValueError):
    """A batch config is malformed or asks for something that cannot run."""


class RecordFormatError(PadiccfError, ValueError):
    """Serialized data carries a format this version does not read."""


class PoleHit(PadiccfError, ArithmeticError):
    """An inverse fractional map was evaluated at a pole of its domain."""


class NotPrimitive(PadiccfError, ValueError):
    """The element generates a proper subfield."""


class CapExceeded(PadiccfError, RuntimeError):
    """An iteration cap was reached before the search succeeded."""


class PrecisionCapExceeded(PadiccfError, RuntimeError):
    """Defensive guard: the valuation ladder passed its sound upper bound."""


class StreamExhausted(PadiccfError, RuntimeError):
    """The pseudorandom bit budget ran out before the set was filled."""
