"""Certified Perron-root enclosures for nonnegative integer matrices.

The engine is an exact one-sided test: for a nonnegative matrix A with
characteristic polynomial p, a rational x >= 0 satisfies x >= rho(A) if and
only if every coefficient of the shifted polynomial p(y + x) is nonnegative.
(For nonnegative A the spectral radius is itself an eigenvalue; pairing the
complex-conjugate root factors shows the shifted coefficients are nonnegative
exactly when all roots have modulus <= x.)

Binary search on this predicate gives a certified enclosure in exact rational
arithmetic, with exact termination whenever rho is an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantError
from .type_system import identity


@dataclass(frozen=True)
class SpectralEnclosure:
    """Certified bounds lower <= rho(A) <= upper (exact rationals)."""

    lower: Fraction
    upper: Fraction

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper

    @property
    def midpoint_float(self) -> float:
        return float((self.lower + self.upper) / 2)


def char_poly(matrix) -> list[Fraction]:
    """Coefficients of det(lambda*I - A), ascending order, monic.

    Uses the Faddeev-LeVerrier recursion in exact rational arithmetic.
    """
    n = len(matrix)
    A = [[Fraction(x) for x in row] for row in matrix]
    if any(len(row) != n for row in A):
        raise InputError("matrix must be square")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    Mk = identity(n)
    for k in range(1, n + 1):
        # Mk <- A @ Mk
        Mk = [
            [sum(A[i][t] * Mk[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(Mk[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            Mk[i][i] += c
    return coeffs


def _shifted_coeffs(coeffs: list[Fraction], x: Fraction) -> list[Fraction]:
    """Taylor coefficients of p at x (i.e. coefficients of p(y + x))."""
    # repeated synthetic division by (lambda - x); remainders are the
    # ascending Taylor coefficients
    work = list(reversed(coeffs))  # descending
    out: list[Fraction] = []
    for _ in range(len(coeffs)):
        acc = Fraction(0)
        quotient = []
        for c in work:
            acc = acc * x + c
            quotient.append(acc)
        out.append(quotient[-1])
        work = quotient[:-1]
        if not work:
            break
    return out


def dominates_rho(coeffs: list[Fraction], x: Fraction) -> bool:
    """Exact predicate: x >= rho(A), given A's characteristic polynomial."""
    if x < 0:
        return False
    return all(c >= 0 for c in _shifted_coeffs(coeffs, x))


def poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def spectral_radius(matrix, tol: Fraction = Fraction(1, 10**9)) -> SpectralEnclosure:
    """Certified enclosure of the Perron root of a nonnegative matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("matrix must be square")
    if any(x < 0 for row in matrix for x in row):
        raise InputError("matrix must be nonnegative")
    if all(x == 0 for row in matrix for x in row):
        return SpectralEnclosure(Fraction(0), Fraction(0))
    coeffs = char_poly(matrix)
    max_col = max(sum(matrix[i][j] for i in range(n)) for j in range(n))
    max_row = max(sum(row) for row in matrix)
    hi = min(max_col, max_row)
    # smallest integer u with u >= rho
    lo_int, hi_int = 0, int(hi)
    if not dominates_rho(coeffs, Fraction(hi_int)):
        raise InvariantError("column/row-sum bound failed to dominate rho")
    while lo_int < hi_int:
        mid = (lo_int + hi_int) // 2
        if dominates_rho(coeffs, Fraction(mid)):
            hi_int = mid
        else:
            lo_int = mid + 1
    u = hi_int
    if poly_eval(coeffs, Fraction(u)) == 0:
        # rho is exactly the integer u (monic integer polynomial: any
        # rational root is an integer, and u is the least integer >= rho)
        return SpectralEnclosure(Fraction(u), Fraction(u))
    lo, up = Fraction(u - 1), Fraction(u)
    while up - lo > tol:
        mid = (lo + up) / 2
        if dominates_rho(coeffs, mid):
            up = mid
        else:
            lo = mid
    return SpectralEnclosure(lo, up)
