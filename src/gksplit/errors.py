"""Exception hierarchy shared across the package."""


class GKSplitError(Exception):
    """Base class for all errors raised by this package."""


class NotCoprime(GKSplitError):
    """Multiplicative order requested for non-coprime arguments."""


class BudgetExceeded(GKSplitError):
    """Factoring effort budget ran out; carries the partial factorization."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class UnknownVertex(GKSplitError):
    """Edge endpoint is not a declared vertex."""


class LoopEdge(GKSplitError):
    """Loops are not allowed in simple graphs."""


class InvalidPartition(GKSplitError):
    """A claimed split partition failed validation as a precondition."""


class InternalInconsistency(GKSplitError):
    """Two criteria that must agree disagreed.  Never repaired silently."""


class CheckFailed(InternalInconsistency):
    """A group's built data failed its check: a FAIL row in a campaign, else an error."""


class PreconditionViolated(GKSplitError):
    """Operation called outside its stated domain."""


class RankTooSmall(PreconditionViolated):
    """Classical partition construction needs rank/dimension at least 4."""


class UnsupportedFamily(GKSplitError):
    """No closed-form spectrum or diagram is available for this group."""


class NotSimple(GKSplitError):
    """Descriptor names a group that is not simple."""


class InvalidField(GKSplitError):
    """Field size violates the family's constraint (e.g. Suzuki groups need q = 2^(2m+1))."""


class DescriptorSyntaxError(GKSplitError):
    """Group descriptor string could not be parsed; carries the offending position."""

    def __init__(self, message, position=0):
        super().__init__(message)
        self.position = position


class InputTooLarge(GKSplitError):
    """An input exceeds a documented size ceiling; refused before any allocation."""


class SpectrumError(GKSplitError):
    """A spectrum (set of maximal element orders) failed validation."""


class MalformedInput(GKSplitError):
    """A graph, spectrum or certificate document is not well formed."""
