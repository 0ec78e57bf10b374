"""Exception types shared across the package."""


class ResolvdimError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedOrder(ResolvdimError):
    """Requested field order is outside the built-in table."""


class DivisionByZero(ResolvdimError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class DimensionMismatch(ResolvdimError):
    """Vectors of unequal length were mixed in one computation."""


class OutOfRange(ResolvdimError):
    """Vertex id or coefficient outside its valid range."""


class InstanceTooLarge(ResolvdimError):
    """Instance exceeds the configured vertex cap or a hard size guard."""


class NotTwins(ResolvdimError):
    """Attempted twin swap between vertices that are not twins."""


class NotMember(ResolvdimError):
    """Vertex expected inside the working set was not found there."""


class AlreadyMember(ResolvdimError):
    """Vertex expected outside the working set is already a member."""


class EmptySet(ResolvdimError):
    """An operation that needs a non-empty vertex set got an empty one."""


class NotResolving(ResolvdimError):
    """Minimality was queried for a set that does not resolve the graph."""


class BadParameters(ResolvdimError):
    """Arguments violate a documented precondition."""


class EmptyMember(ResolvdimError):
    """A set family member is empty."""


class VertexParseError(ResolvdimError):
    """Vertex text did not match the `<coeff?>e<index>` grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.detail, self.position = message, position


class BudgetExceeded(ResolvdimError):
    """A search ran out of its subset-evaluation budget.

    Carries the best bounds known at the point of interruption.
    """

    def __init__(self, message: str, *, evaluated: int | None = None,
                 budget: int | None = None, lower_bound: int | None = None,
                 upper_bound: int | None = None):
        super().__init__(message)
        self.evaluated = evaluated
        self.budget = budget
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
