"""Shared exception types."""


class CoxkitError(Exception):
    pass


class OutOfBallError(CoxkitError):
    """A group operation left the enumerated length-bounded ball."""


class ResourceError(CoxkitError):
    """A configured cap (element count, search nodes) was hit."""


class IncompleteSliceError(CoxkitError):
    """A reflection slice T_k is not certified complete at this radius."""


class DomainError(CoxkitError):
    """Arguments outside the mathematical domain of an operation."""
