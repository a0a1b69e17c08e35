"""Exception types shared across the library."""


class QTLineError(Exception):
    """Base class for every error raised by this library."""


class DomainError(QTLineError, ValueError):
    """Operands live in incompatible domains (different radicands, lattices,
    or Lambda-denominators)."""


class PreconditionError(QTLineError, ValueError):
    """A documented precondition of an operation was violated."""


class RangeError(QTLineError, OverflowError):
    """An exponent magnitude exceeds the double-precision exp range."""


class PrecisionError(RangeError):
    """A quantity lies in the double range but is too large for a double to
    resolve to the tolerance, so what it would yield is rounding noise."""


class ConsistencyError(QTLineError, ArithmeticError):
    """Two computation routes that must agree did not.  Signals a malformed
    input or a branch-of-logarithm bug, never a tolerance issue on healthy
    data."""


class FormatError(QTLineError, ValueError):
    """A JSON document or textual argument does not match the expected
    schema."""
