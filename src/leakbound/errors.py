"""Exception types shared across the package.

The CLI maps these onto exit codes: validation and precondition failures
exit 1, capacity refusals exit 2, I/O problems exit 3.
"""

# The default budget of every exact enumeration: joint states, LP
# variables, coupling support tuples.
DEFAULT_MAX_STATES = 10**6

# CPython's default limit on the digits of an int converted to or from a
# string (sys.int_info.default_max_str_digits): str() of a longer int
# raises ValueError, and so does Fraction("num/den") with a longer part.
MAX_DIGITS = 4300
DIGITS_EXCEEDED = 10**MAX_DIGITS  # the least integer of more digits


def exact_str(value) -> str:
    """str() of an int or Fraction for a message. An integer of more than
    MAX_DIGITS digits is written as its bit length, so that building the
    message never raises."""

    def digits(n: int) -> str:
        if -DIGITS_EXCEEDED < n < DIGITS_EXCEEDED:
            return str(n)
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"

    if value.denominator == 1:
        return digits(value.numerator)
    return f"{digits(value.numerator)}/{digits(value.denominator)}"


class LeakboundError(Exception):
    """Base class for all package errors."""


class NetworkFormatError(LeakboundError):
    """A network or PMF file could not be parsed."""


class CapacityError(LeakboundError):
    """A requested enumeration exceeds the configured state budget."""

    def __init__(self, requested: int, limit: int, what: str = "states"):
        self.requested = requested
        self.limit = limit
        super().__init__(
            f"refusing to enumerate {exact_str(requested)} {what} (limit {limit}); "
            f"raise the limit explicitly if this is intentional"
        )


class OutputTooLongError(CapacityError):
    """An exact output with an integer of more than MAX_DIGITS digits,
    which str() cannot write and which is never abbreviated."""

    def __init__(self, n: int):
        self.requested, self.limit = n, MAX_DIGITS
        msg = f"refusing to write {exact_str(n)} in an exact output (limit {MAX_DIGITS} digits)"
        LeakboundError.__init__(self, msg)


def output_str(value) -> str:
    """str() of an int or Fraction written out as an exact value; raises
    OutputTooLongError for a numerator or denominator past MAX_DIGITS."""
    for n in (value.numerator, value.denominator):
        if not -DIGITS_EXCEEDED < n < DIGITS_EXCEEDED:
            raise OutputTooLongError(n)
    return str(value)


class PreconditionError(LeakboundError):
    """A bound or coupling precondition fails; carries the offending value.

    ``condition`` names the check (e.g. ``"tau_max2(P_V|X) <= 1"``) and
    ``value`` is the exact quantity that violated it. ``trace`` holds the
    peel steps that passed before the failure (none for a single step).
    """

    trace: tuple = ()

    def __init__(self, condition: str, value=None):
        self.condition = condition
        self.value = value
        msg = f"precondition failed: {condition}"
        if value is not None:
            msg += f" (got {exact_str(value)})"
        super().__init__(msg)


class ConstructionError(LeakboundError):
    """An explicit coupling construction produced inconsistent numbers.

    This signals a bug or a violated structural assumption, not bad user
    input; the message names the offending tuple or identity.
    """


class InfeasibleError(LeakboundError):
    """The linear program has no feasible point."""
