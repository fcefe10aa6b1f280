"""Exception hierarchy shared by all modules."""


class SparseCodeError(Exception):
    """Base class for all library errors."""


class DomainError(SparseCodeError, ValueError):
    """A parameter is outside the range an operation supports."""


class PreconditionError(SparseCodeError, ValueError):
    """A documented precondition of an operation is violated."""


class EnumerationCapError(SparseCodeError, RuntimeError):
    """An exhaustive enumeration would exceed the configured cap.

    Certifiers never fall back to sampling; they refuse instead.
    """


class ConstructionFailedError(SparseCodeError, RuntimeError):
    """A randomized construction exhausted its retry budget."""


class NotAnEmbeddingError(SparseCodeError, ValueError):
    """A matrix column is not a valid spherical embedding of a binary word."""
