"""Exception types shared across the package.

The CLI maps these onto exit codes: validation and precondition failures
exit 1, capacity refusals exit 2, I/O problems exit 3.
"""

# The default budget of every exact enumeration: joint states, LP
# variables, coupling support tuples.
DEFAULT_MAX_STATES = 10**6


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
            f"refusing to enumerate {requested} {what} (limit {limit}); "
            f"raise the limit explicitly if this is intentional"
        )


class PreconditionError(LeakboundError):
    """A bound or coupling precondition fails; carries the offending value.

    ``condition`` names the check (e.g. ``"tau_max2(P_V|X) <= 1"``) and
    ``value`` is the exact quantity that violated it.
    """

    def __init__(self, condition: str, value=None):
        self.condition = condition
        self.value = value
        msg = f"precondition failed: {condition}"
        if value is not None:
            msg += f" (got {value})"
        super().__init__(msg)


class ConstructionError(LeakboundError):
    """An explicit coupling construction produced inconsistent numbers.

    This signals a bug or a violated structural assumption, not bad user
    input; the message names the offending tuple or identity.
    """


class InfeasibleError(LeakboundError):
    """The linear program has no feasible point."""
