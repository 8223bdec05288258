"""Exception hierarchy shared by all primekit modules.

The CLI maps these onto exit codes: ValidationError -> 1,
ResourceLimitError -> 2, InvariantViolation -> 3.
"""


class PrimekitError(Exception):
    pass


class ValidationError(PrimekitError, ValueError):
    """Caller-supplied parameters violate a documented precondition."""


class ResourceLimitError(PrimekitError, RuntimeError):
    """A configured resource cap (digits, candidates) would be exceeded."""


class InvariantViolation(PrimekitError, AssertionError):
    """A value the construction guarantees prime was refuted by the oracle.

    This never fires unless the implementation (or the underlying theorem)
    is wrong, so it is kept maximally loud and is never caught internally.
    """
