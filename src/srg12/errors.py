"""Exception types shared across the package."""


class Graph6Error(ValueError):
    """Malformed graph6 input; carries a byte offset where decoding failed."""

    def __init__(self, message, byte_index=None):
        if byte_index is not None:
            message = f"{message} (byte {byte_index})"
        super().__init__(message)
        self.byte_index = byte_index


class SizeLimitError(ValueError):
    """An operation was called on a graph outside its guarded size range."""


class FamilyViolationError(ValueError):
    """A census that requires a verified srg(n,k,1,2) was given something else."""


class CountingInconsistencyError(RuntimeError):
    """Counts broke a guarantee: two routes disagree, a total is not divisible
    as it must be, or a kernel met a structure lambda = 1, mu = 2 rule out."""


class InfeasibleParametersError(ValueError):
    """Parameter set admits no integer spectrum; names the failed relation."""

    def __init__(self, message, failed_relation=None):
        super().__init__(message)
        self.failed_relation = failed_relation
