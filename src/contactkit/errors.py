"""Exception types shared across the package, and the one int check that
raises them for counts, indices and orders."""


class ContactKitError(Exception):
    """Base class for all package errors."""


class VariantError(ContactKitError, TypeError):
    """Raised when exact and numeric data are mixed in one operation.

    Exact (rational) arithmetic is closed: nothing silently demotes an
    exact value to a float.  Callers convert explicitly instead.
    """


class DimensionError(ContactKitError, ValueError):
    """Raised when ambient dimensions or degrees do not line up."""


class PoleError(ContactKitError, ArithmeticError):
    """Raised when a Laurent coefficient is evaluated on a coordinate
    hyperplane where a negative exponent makes it singular."""


class ExponentRangeError(ContactKitError, OverflowError):
    """Raised when a Laurent exponent leaves the range of a packed monomial
    key, ``|e| < 2**31``; the message names the exponent and its variable."""


class PreconditionError(ContactKitError, ValueError):
    """Raised when an operation's documented precondition fails.

    The message always names the offending object (node, sample, or
    coefficient) so failures are diagnosable without a debugger.
    """


class ParseError(ContactKitError, ValueError):
    """Raised for malformed input documents, with position information."""


def _count(value, what: str, least: int | None = None, error=DimensionError) -> int:
    """``value`` when it is an int not below ``least``, else ``error`` naming
    ``what`` and the value.  type() is exact: a bool, a float or a numpy
    integer is no count, index or order."""
    if type(value) is not int:
        raise error(f"{what} must be an int, got {value!r}")
    if least is not None and value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    return value
