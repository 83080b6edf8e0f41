"""Certified verification of the plane-slice area inequality.

For the plane ``z = a*x + b*y + c`` and the unit cube ``Q``, the function
``ftilde(a, b, c)`` is the area of the (x, y)-projection of the slice
``Q & {z = ax+by+c}``; it is piecewise quadratic in (a, b, c) with nine
closed-form cases.  The slack function

    htilde = (5/9) * ftilde(a, b, c)
             - (1/9) * sum over the 7 removed-cube corners (u, v, w) of
               ftilde(a, b, 3*(a*u + b*v + c - w))

is nonnegative everywhere on the admissible wedge; part of that statement is
analytic (see :func:`classify_region`), and the remaining parameter region is
certified by :func:`verify_grid`: exact rational evaluation of htilde on a
grid of step ``d`` combined with the Lipschitz bound 15, which yields global
nonnegativity whenever the grid minimum exceeds ``15 * sqrt(3) * d`` (the
comparison is squared so that everything stays rational).

All certification arithmetic is exact.  The grid kernel maps each coordinate
to an integer numerator over the common denominator ``D = 3 * denominator(d)``
so the hot loop runs on int64 numpy arrays.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, InvariantError
from .lattice import MENGER_REMOVED


class WedgeError(InputError):
    """Parameters outside the wedge 0 <= a <= b <= 1."""


@dataclass(frozen=True)
class PlaneParams:
    """The plane z = a*x + b*y + c, with exact rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction


def plane(a, b, c) -> PlaneParams:
    return PlaneParams(Fraction(a), Fraction(b), Fraction(c))


def reduce_to_wedge(p: PlaneParams) -> PlaneParams:
    """Reflect and sort (a, b) into the wedge 0 <= a <= b <= 1.

    Negating a slope coordinate corresponds to reflecting the cube, which
    shifts c; swapping a and b is a symmetry of the cube.  Slopes larger
    than 1 have no wedge representative and are rejected.
    """
    a, b, c = p.a, p.b, p.c
    if a < 0:
        c += a
        a = -a
    if b < 0:
        c += b
        b = -b
    if a > b:
        a, b = b, a
    if b > 1:
        raise WedgeError(f"|slope| exceeds 1 after reduction: a={a}, b={b}")
    return PlaneParams(a, b, c)


# Lower-left corners of the 7 removed level-1 cubes, in units of 1/3.
REMOVED_CORNERS: tuple[tuple[int, int, int], ...] = tuple(sorted(MENGER_REMOVED))


def _check_wedge(p: PlaneParams) -> None:
    if not (0 <= p.a <= p.b <= 1):
        raise WedgeError(
            f"(a, b) = ({p.a}, {p.b}) outside the wedge 0 <= a <= b <= 1; "
            "apply reduce_to_wedge first"
        )


def _case_of(a: Fraction, b: Fraction, c: Fraction) -> int:
    """First matching slice case, checked top-down (0..8).

    The cases tile the whole real line in c for every (a, b) in the wedge,
    agreeing on shared boundaries.  Note the case-2 region is
    ``-(a+b) <= c <= -b`` (the region between cases 0 and 3).
    """
    s = a + b + c
    if c >= 1 or s <= 0:
        return 0
    if c >= 0 and s <= 1:
        return 1
    if -(a + b) <= c <= -b:
        return 2
    if -b <= c <= -a:
        return 3
    if -a <= c and c <= min(Fraction(0), 1 - (a + b)):
        return 4
    if a + b >= 1 and 1 - (a + b) <= c <= 0:
        return 5
    if max(Fraction(0), 1 - (a + b)) <= c <= 1 - b:
        return 6
    if 1 - b <= c <= 1 - a:
        return 7
    if 1 - a <= c <= 1:
        return 8
    raise InvariantError(f"slice cases do not cover (a, b, c) = ({a}, {b}, {c})")


def ftilde(p: PlaneParams) -> Fraction:
    """Projected slice area, exact rational, for wedge parameters."""
    _check_wedge(p)
    a, b, c = p.a, p.b, p.c
    case = _case_of(a, b, c)
    if case == 0:
        return Fraction(0)
    if case == 1:
        return Fraction(1)
    # cases 3 and 7 divide by b only; the rest divide by a*b.  With the
    # top-down dispatch, degenerate slopes never reach a vanishing divisor
    # (they are absorbed by cases 0 and 1), so this is an invariant.
    if b == 0 or (a == 0 and case not in (3, 7)):
        raise InvariantError(f"division case {case} reached with a*b = 0")
    s = a + b + c
    if case == 2:
        return s**2 / (2 * a * b)
    if case == 3:
        return (a + 2 * b + 2 * c) / (2 * b)
    if case == 4:
        return 1 - c**2 / (2 * a * b)
    if case == 5:
        return 1 - (c**2 + (s - 1) ** 2) / (2 * a * b)
    if case == 6:
        return 1 - (s - 1) ** 2 / (2 * a * b)
    if case == 7:
        return (2 - 2 * c - a) / (2 * b)
    return (1 - c) ** 2 / (2 * a * b)  # case 8


def htilde(p: PlaneParams) -> Fraction:
    """The slack function; nonnegative on the whole admissible wedge."""
    _check_wedge(p)
    a, b, c = p.a, p.b, p.c
    total = 5 * ftilde(p)
    for u3, v3, w3 in REMOVED_CORNERS:
        c_prime = 3 * (a * Fraction(u3, 3) + b * Fraction(v3, 3) + c) - 3 * Fraction(w3, 3)
        total -= ftilde(PlaneParams(a, b, c_prime))
    return total / 9


# --- analytic region classification -------------------------------------

TAG_POSITIVE_C = "positive-c-small-sum"  # c > 0 and a+b+c <= 1
TAG_LARGE_C = "large-c"  # 1/3 <= c <= 1
TAG_SMALL_SUM = "small-sum"  # a+b+c <= 2/3
TAG_SMALL_SLOPES = "small-slope-sum"  # a+b <= 2/3
TAG_SMALL_A = "small-a"  # a < 1/3
TAG_GRID = "grid"  # needs the grid certificate

_THIRD = Fraction(1, 3)


def _in_domain(p: PlaneParams) -> bool:
    return 0 <= p.a <= p.b <= 1 and -(p.a + p.b) <= p.c <= 1


# The analytic certificates, in the order classify_region tries them.
_CERTIFICATES = (
    (TAG_POSITIVE_C, lambda p: p.c > 0 and p.a + p.b + p.c <= 1),
    (TAG_LARGE_C, lambda p: _THIRD <= p.c <= 1),
    (TAG_SMALL_SUM, lambda p: p.a + p.b + p.c <= 2 * _THIRD),
    (TAG_SMALL_SLOPES, lambda p: p.a + p.b <= 2 * _THIRD),
    (TAG_SMALL_A, lambda p: p.a < _THIRD),
)


def classify_region(p: PlaneParams) -> str:
    """First analytic certificate covering the point, or "grid"."""
    if not _in_domain(p):
        raise InputError(
            f"({p.a}, {p.b}, {p.c}) outside the admissible region "
            "0 <= a <= b <= 1, -(a+b) <= c <= 1"
        )
    return next((tag for tag, holds in _CERTIFICATES if holds(p)), TAG_GRID)


def sample_nonnegativity(region: str, count: int, seed: int) -> list:
    """Check htilde >= 0 at random rational points of a tagged region.

    A certificate tag samples its own inequality, "grid" the points no
    certificate covers, and "all" the whole admissible region.  Returns the
    list of violations (expected empty).
    """
    predicates = {
        **dict(_CERTIFICATES),
        TAG_GRID: lambda p: classify_region(p) == TAG_GRID,
        "all": lambda p: True,
    }
    if region not in predicates:
        raise InputError(f"unknown region tag {region!r}")
    predicate = predicates[region]
    rng = np.random.Generator(np.random.Philox(seed))
    denom = 3600
    violations = []
    accepted = 0
    tries = 0
    max_tries = 200 * count + 1000
    while accepted < count and tries < max_tries:
        tries += 1
        a = Fraction(int(rng.integers(0, denom + 1)), denom)
        b = Fraction(int(rng.integers(0, denom + 1)), denom)
        if a > b:
            a, b = b, a
        c = Fraction(int(rng.integers(-2 * denom, denom + 1)), denom)
        p = PlaneParams(a, b, c)
        if not _in_domain(p) or not predicate(p):
            continue
        accepted += 1
        value = htilde(p)
        if value < 0:
            violations.append((a, b, c, value))
    if accepted < count:
        raise InputError(
            f"could not draw {count} points from region {region!r} "
            f"(accepted {accepted})"
        )
    return violations


# --- the grid certificate ------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    d_hat: Fraction
    point_count: int
    minimum: Fraction
    argmin: tuple[Fraction, Fraction, Fraction]
    certified: bool
    wall_time: float
    workers: int


def _ftilde_num(A, B, C, D: int):
    """Numerator of ftilde over the common denominator 2*A*B.

    A, B are positive integer scalars (or arrays), C an int64 array, all in
    units of 1/D.  Mirrors the top-down case dispatch of :func:`_case_of`.
    """
    A = np.int64(A)
    B = np.int64(B)
    C = np.asarray(C, dtype=np.int64)
    S = A + B + C
    two_ab = 2 * A * B
    conds = [
        (C >= D) | (S <= 0),
        (C >= 0) & (S <= D),
        (-(A + B) <= C) & (C <= -B),
        (-B <= C) & (C <= -A),
        (-A <= C) & (C <= np.minimum(np.int64(0), D - A - B)),
        (A + B >= D) & (D - A - B <= C) & (C <= 0),
        (np.maximum(np.int64(0), D - A - B) <= C) & (C <= D - B),
        (D - B <= C) & (C <= D - A),
        (D - A <= C) & (C <= D),
    ]
    vals = [
        np.int64(0) * C,
        two_ab + 0 * C,
        S**2,
        A * (A + 2 * B + 2 * C),
        two_ab - C**2,
        two_ab - C**2 - (S - D) ** 2,
        two_ab - (S - D) ** 2,
        A * (2 * D - 2 * C - A),
        (D - C) ** 2,
    ]
    return np.select(conds, vals)


def _htilde_block(A: int, B: int, C, D: int):
    """5*n0 - sum(n_k): numerator of htilde over the denominator 18*A*B."""
    C = np.asarray(C, dtype=np.int64)
    k = C.shape[0]
    # stack the base plane and the 7 renormalized planes into one dispatch
    stacked = np.empty((8, k), dtype=np.int64)
    stacked[0] = C
    for idx, (u3, v3, w3) in enumerate(REMOVED_CORNERS, start=1):
        stacked[idx] = A * u3 + B * v3 + 3 * C - w3 * D
    nums = _ftilde_num(A, B, stacked.ravel(), D).reshape(8, k)
    return 5 * nums[0] - nums[1:].sum(axis=0)


def _slice_min(args):
    """Exact minimum of htilde over one a-slice of the grid.

    Returns (num, den, A, B, C, count): the slice minimum num/den, its grid
    point in 1/D units, and the number of points scanned.
    """
    A, D, S, y = args
    best = None  # (Fraction, A, B, C, num, den)
    count = 0
    n_b = (D - A) // S + 1
    for B in range(A, A + n_b * S, S):
        c0 = 2 * y - A - B
        n_c = (A + B - y) // S + 1
        C = c0 + S * np.arange(n_c, dtype=np.int64)
        count += n_c
        nums = _htilde_block(A, B, C, D)
        j = int(np.argmin(nums))
        den = 18 * A * B
        val = Fraction(int(nums[j]), den)
        if best is None or val < best[0]:
            best = (val, A, B, int(C[j]))
    return best[0], best[1], best[2], best[3], count


def verify_grid(d_hat, workers: int = 1) -> VerificationReport:
    """Evaluate htilde exactly on the certification grid of step d_hat.

    The grid is a from 1/3 stepping d_hat while it stays <= 1; b from a the
    same way; c from 2/3 - (a + b) stepping d_hat while it stays <= 1/3.
    Certifies global nonnegativity on the grid-covered region iff the exact
    minimum m satisfies m > 0 and m^2 > 675 * d_hat^2.
    """
    d = Fraction(d_hat)
    if not 0 < d <= _THIRD:
        raise InputError(f"grid step must be in (0, 1/3], got {d}")
    if workers < 1:
        raise InputError("workers must be >= 1")
    start = time.monotonic()
    y = d.denominator
    D = 3 * y  # common denominator of all grid coordinates
    S = 3 * d.numerator  # grid step in units of 1/D
    # recurrence: start at 1/3 = y/D, step S while the next value stays <= D
    a_values = [y]
    while a_values[-1] + S <= D:
        a_values.append(a_values[-1] + S)

    tasks = [(A, D, S, y) for A in a_values]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_slice_min, tasks, chunksize=4))
    else:
        results = [_slice_min(t) for t in tasks]

    best_val = None
    best_point = None
    total = 0
    for val, A, B, C, count in results:
        total += count
        point = (A, B, C)
        if best_val is None or val < best_val or (val == best_val and point < best_point):
            best_val = val
            best_point = point
    A, B, C = best_point
    argmin = (Fraction(A, D), Fraction(B, D), Fraction(C, D))
    certified = best_val > 0 and best_val**2 > 675 * d**2
    return VerificationReport(
        d_hat=d,
        point_count=total,
        minimum=best_val,
        argmin=argmin,
        certified=certified,
        wall_time=time.monotonic() - start,
        workers=workers,
    )
