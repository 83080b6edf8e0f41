"""Certified Perron-root enclosures for nonnegative integer matrices.

The engine is an exact comparison: for a nonnegative matrix A with
characteristic polynomial p, a rational x >= 0 satisfies x >= rho(A) if and
only if every coefficient of the shifted polynomial p(y + x) is nonnegative,
and then x = rho(A) exactly when p(x) = 0; :func:`rho_sign` decides both.
(For nonnegative A the spectral radius is itself an eigenvalue; pairing the
complex-conjugate root factors shows the shifted coefficients are nonnegative
exactly when all roots have modulus <= x.)

Binary search on this predicate gives a certified enclosure of width at most
10^-9, exact whenever rho is an integer.  p comes from a Faddeev-LeVerrier
recursion in Fractions over A's nonzero entries; each enclosure keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral

from .errors import InputError, InvariantError

_TOL = Fraction(1, 10**9)  # width of an enclosure that is not exact


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
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("matrix must be square")
    rows = [[(t, Fraction(a)) for t, a in enumerate(row) if a] for row in matrix]
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


def _shifted_coeffs(coeffs, x: Fraction) -> list[Fraction]:
    """Taylor coefficients of p at x (i.e. coefficients of p(y + x))."""
    # repeated synthetic division by (lambda - x); remainders are the
    # ascending Taylor coefficients
    work = list(reversed(coeffs))  # descending
    out: list[Fraction] = []
    while work:
        acc = Fraction(0)
        quotient = []
        for c in work:
            acc = acc * x + c
            quotient.append(acc)
        out.append(quotient.pop())
        work = quotient
    return out


def rho_sign(coeffs, x) -> int:
    """Exact sign of x - rho(A) (-1, 0 or 1), given A's characteristic polynomial."""
    if x < 0:
        return -1
    shifted = _shifted_coeffs(coeffs, x)  # coefficient 0 is p(x)
    return -1 if any(c < 0 for c in shifted) else 1 if shifted[0] else 0


def dominates_rho(coeffs, x: Fraction) -> bool:
    """Exact predicate: x >= rho(A), given A's characteristic polynomial."""
    return rho_sign(coeffs, x) >= 0


def spectral_radius(matrix) -> SpectralEnclosure:
    """Certified enclosure of the Perron root of a nonnegative integer matrix."""
    n = len(matrix)
    if not n or any(len(row) != n for row in matrix):
        raise InputError("matrix must be square and nonempty")
    if any(not isinstance(x, Integral) or x < 0 for row in matrix for x in row):
        raise InputError("matrix entries must be nonnegative integers")
    coeffs = tuple(char_poly(matrix))
    # smallest integer u >= rho; rho is at most the largest row or column sum
    lo_int, u = 0, int(min(max(map(sum, matrix)), max(map(sum, zip(*matrix)))))
    if not dominates_rho(coeffs, Fraction(u)):
        raise InvariantError("column/row-sum bound failed to dominate rho")
    while lo_int < u:
        mid = (lo_int + u) // 2
        if dominates_rho(coeffs, Fraction(mid)):
            u = mid
        else:
            lo_int = mid + 1
    if rho_sign(coeffs, u) == 0:
        # rho is exactly the integer u (monic integer polynomial: any
        # rational root is an integer, and u is the least integer >= rho)
        return SpectralEnclosure(Fraction(u), Fraction(u), coeffs)
    lo, up = Fraction(u - 1), Fraction(u)
    while up - lo > _TOL:
        mid = (lo + up) / 2
        if dominates_rho(coeffs, mid):
            up = mid
        else:
            lo = mid
    return SpectralEnclosure(lo, up, coeffs)
