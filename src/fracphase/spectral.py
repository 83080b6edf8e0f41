"""Certified Perron-root enclosures for nonnegative integer matrices.

The engine is an exact comparison: for a nonnegative matrix A with
characteristic polynomial p, a rational x >= 0 satisfies x >= rho(A) if and
only if every coefficient of the shifted polynomial p(y + x) is nonnegative,
and then x = rho(A) exactly when p(x) = 0; :func:`rho_sign` decides both.
(For nonnegative A the spectral radius is itself an eigenvalue; pairing the
complex-conjugate root factors shows the shifted coefficients are nonnegative
exactly when all roots have modulus <= x.)

One bisection on this predicate gives the least multiple of 2^-30 at or above
rho and the one below it (width 2^-30, below 10^-9), or rho itself when it is
an integer, from any bracket with grid ends, a power-of-two width and rho in
(lo, up]: one certified around a float estimate of rho, else [-1, 2^b - 1].
p comes from a Faddeev-LeVerrier recursion in Fractions over A's nonzero
entries; each enclosure keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, InvariantError, check_int, check_rational

_STEP = Fraction(1, 2**30)  # width of an enclosure that is not exact


@dataclass(frozen=True)
class SpectralEnclosure:
    """Certified bounds lower <= rho(A) <= upper; coeffs is char_poly(A), if known."""

    lower: Fraction
    upper: Fraction
    coeffs: tuple = field(default=(), compare=False, repr=False)

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper

    @property
    def midpoint_float(self) -> float:
        return float((self.lower + self.upper) / 2)


def char_poly(matrix) -> list[Fraction]:
    """Coefficients of det(lambda*I - A), ascending order, monic.

    Uses the Faddeev-LeVerrier recursion in exact rational arithmetic, forming
    A @ M_k from each row's nonzero entries only.
    """
    try:
        entries = [[check_rational(a, "matrix entry") for a in row] for row in matrix]
    except TypeError:
        raise InputError("matrix must be a sequence of rows of numbers") from None
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise InputError("matrix must be square")
    rows = [[(t, a) for t, a in enumerate(row) if a] for row in entries]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    Mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # Mk <- A @ Mk; a zero row sums to the int 0, so c is made a Fraction
        Mk = [[sum(a * Mk[t][j] for t, a in row) for j in range(n)] for row in rows]
        c = -Fraction(sum(Mk[i][i] for i in range(n))) / k
        coeffs[n - k] = c
        for i in range(n):
            Mk[i][i] += c
    return coeffs


def rho_sign(coeffs, x) -> int:
    """Exact sign of x - rho(A) (-1, 0 or 1), given A's characteristic polynomial.

    Repeated synthetic division by (lambda - x) leaves the Taylor coefficients
    of p at x in place, lowest first; the first negative one settles -1, and
    coefficient 0, p(x), splits 0 from 1.
    """
    if x < 0:
        return -1
    work = list(reversed(coeffs))  # descending
    for k in range(len(work)):  # pass k leaves Taylor coefficient k in work[-1 - k]
        for i in range(1, len(work) - k):
            work[i] += work[i - 1] * x
        if work[-1 - k] < 0:
            return -1
    return 1 if work[-1] else 0


def dominates_rho(coeffs, x: Fraction) -> bool:
    """Exact predicate: x >= rho(A), given A's characteristic polynomial."""
    return rho_sign(coeffs, x) >= 0


def _bracket(coeffs, bound: int) -> tuple[Fraction, Fraction]:
    """The first of (k -+ h) * _STEP, k = round(r / _STEP) for a float estimate
    r of rho and h = 1, 2^9, 2^19 times the float spacing at r (about the error
    at a simple, double, triple root), with lo < rho <= up certified exactly;
    else [-1, 2^b - 1] for the bit length b of the row/column-sum bound."""
    try:
        fcoeffs = [float(c) for c in coeffs]
        flo, r = 0.0, float(bound)
        for _ in range(bound.bit_length() + 34):
            mid = (flo + r) / 2
            flo, r = (flo, mid) if rho_sign(fcoeffs, mid) >= 0 else (mid, r)
        k, base = round(r * 2**30), max(1, int(math.ulp(r) * 2**30))
    except OverflowError:  # a coefficient, the bound or r / _STEP past the float range
        pass
    else:
        for j in (0, 9, 19):
            lo, up = (k - (base << j)) * _STEP, (k + (base << j)) * _STEP
            if dominates_rho(coeffs, up) and not dominates_rho(coeffs, lo):
                return lo, up
    return Fraction(-1), Fraction((1 << bound.bit_length()) - 1)


def spectral_radius(matrix) -> SpectralEnclosure:
    """Certified enclosure of the Perron root of a nonnegative integer matrix."""
    # the entries are checked before the exact work, which grows fast with the size
    try:
        rows = [[check_int(x, "matrix entry", 0) for x in row] for row in matrix]
    except TypeError:
        raise InputError("matrix must be a sequence of rows of numbers") from None
    if not rows:
        raise InputError("matrix must be nonempty")
    coeffs = tuple(char_poly(rows))  # an InputError unless matrix is square
    # rho is at most the largest row or column sum
    bound = min(max(map(sum, rows)), max(map(sum, zip(*rows))))
    if not dominates_rho(coeffs, Fraction(bound)):
        raise InvariantError("column/row-sum bound failed to dominate rho")
    lo, up = _bracket(coeffs, bound)
    # any rational root of a monic integer polynomial is an integer, so rho is
    # exact if it is the integer up: at width 1, which the fallback bracket
    # reaches with integer ends, and at _STEP, the least multiple of _STEP >= rho
    for width in (1, _STEP):
        while up - lo > width:  # every midpoint stays on the grid
            mid = (lo + up) / 2
            if dominates_rho(coeffs, mid):
                up = mid
            else:
                lo = mid
        if up.denominator == 1 and rho_sign(coeffs, up) == 0:
            return SpectralEnclosure(up, up, coeffs)
    return SpectralEnclosure(lo, up, coeffs)
