"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 2, AmbiguityError -> 3,
InvariantError -> 4.
"""


class FracphaseError(Exception):
    """Base class for all package errors."""


class InputError(FracphaseError):
    """Invalid user-supplied data (bad IFS, bad schema, bad parameters)."""


class AmbiguityError(FracphaseError):
    """An analysis could not be decided."""


class InvariantError(FracphaseError):
    """An internal consistency check failed; indicates a bug."""
