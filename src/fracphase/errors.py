"""Exception hierarchy shared across the package, and the two argument checks.

The CLI maps these onto exit codes: InputError -> 2, AmbiguityError -> 3,
InvariantError -> 4.

Every public integer argument goes through :func:`check_int`, which takes only
an ``int`` that is not a ``bool`` (no float, numpy integer or string) within
its bounds; every public rational argument goes through
:func:`check_rational`, which takes whatever ``Fraction`` takes, within its
closed range when it has one, except a string longer than ``_TEXT_CHARS`` or
with a decimal exponent past ``_TEXT_EXPONENT`` in size.  Their messages, and
every other message that can echo a user's number, render it with :func:`shown`.
"""

import math
from fractions import Fraction

# Fraction("1e-30000000") alone takes tens of seconds, so strings are bounded first
_TEXT_CHARS = 1000
_TEXT_EXPONENT = 10**4


class FracphaseError(Exception):
    """Base class for all package errors."""


class InputError(FracphaseError):
    """Invalid user-supplied data (bad IFS, bad schema, bad parameters)."""


class AmbiguityError(FracphaseError):
    """An analysis could not be decided."""


class InvariantError(FracphaseError):
    """An internal consistency check failed; indicates a bug."""


def shown(x) -> str:
    """``x`` for a message: ``repr``, but an int or Fraction as its digits, with
    each integer past 60 digits given by its digit count (``str`` refuses one
    past 4,300 digits, and a message stays one line)."""
    if isinstance(x, Fraction):
        den = f"/{shown(x.denominator)}" if x.denominator != 1 else ""
        return shown(x.numerator) + den
    if not isinstance(x, int) or abs(x) < 10**60:
        return repr(x)
    k = int(math.log10(abs(x)))  # within one of the exact floor
    k += (abs(x) >= 10 ** (k + 1)) - (abs(x) < 10**k)
    return f"{'-' * (x < 0)}<{k + 1} digits>"


def check_int(x, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``x`` if it is an int, not a bool, with lo <= x < hi (hi needs lo); else InputError."""
    is_int = isinstance(x, int) and type(x) is not bool
    if is_int and (lo is None or x >= lo) and (hi is None or x < hi):
        return x
    bounds = f" in [{lo}, {shown(hi)})" if hi is not None else f" >= {lo}" if lo is not None else ""
    raise InputError(f"{what} must be an integer{bounds}, got {shown(x)}")


def check_rational(x, what: str, lo: int | None = None, hi: int | None = None) -> Fraction:
    """``Fraction(x)`` if it is a finite rational with lo <= x <= hi (given both); else InputError."""
    if isinstance(x, str) and len(x) > _TEXT_CHARS:
        raise InputError(f"{what} must be at most {_TEXT_CHARS} characters, got {len(x)}")
    try:
        exponent = int(x.lower().partition("e")[2] or 0) if isinstance(x, str) else 0
        if abs(exponent) > _TEXT_EXPONENT:
            raise InputError(f"{what} must have a decimal exponent of at most {_TEXT_EXPONENT} "
                             f"in size, got {shown(exponent)}")
        q = Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"{what} must be a rational number, got {x!r}") from None
    if lo is None or lo <= q <= hi:
        return q
    raise InputError(f"{what} must be in [{lo}, {hi}], got {shown(q)}")
