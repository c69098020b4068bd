"""Exception types shared across the package."""

SIZE_LIMIT = 10**4300  # past any argument or cap: ints are read to 4,300 digits


class ClusterTreeError(Exception):
    """Base class for all errors raised by this package."""


class NotBipartiteError(ClusterTreeError):
    """The operation requires a bipartite graph."""


class NotRegularError(ClusterTreeError):
    """The operation requires a regular graph."""


class DegreeMismatchError(ClusterTreeError):
    """Two inputs were expected to be regular of the same degree."""


class EmptyGraphError(ClusterTreeError):
    """The operation requires at least one edge."""


class BoundViolatedError(ClusterTreeError):
    """A numeric precondition on the requested order was not met."""


class IterationLimitError(ClusterTreeError):
    """Defensive cap hit; indicates a bug, not a bad input."""


class SizeCapExceededError(ClusterTreeError):
    """The estimated output size exceeds the size cap.

    Carries ``estimate`` and ``cap`` so callers can decide what to do.
    An estimate from SIZE_LIMIT on, math.inf too, is not written out.
    """

    def __init__(self, estimate: int | float, cap: int):
        self.estimate = estimate
        self.cap = cap
        shown = estimate if estimate < SIZE_LIMIT else "of 10^4300 or more"
        super().__init__(f"estimated output size {shown} exceeds cap {cap}")


class GirthTooLowError(ClusterTreeError):
    """The graph's girth is below the minimum the operation needs."""


class PairingFailureError(ClusterTreeError):
    """Neighborhood buckets could not be paired; the input is not a valid
    cluster-tree graph or there is an internal bug."""


class NotATreeError(ClusterTreeError):
    """The operation requires an acyclic, connected input."""


class TooLargeError(ClusterTreeError):
    """Input exceeds the size limit of an exact solver."""
