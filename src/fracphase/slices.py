"""Certified verification of the plane-slice area inequality.

For the plane ``z = a*x + b*y + c`` and the unit cube ``Q``, the function
``ftilde(a, b, c)`` is the area of the (x, y)-projection of the slice
``Q & {z = ax+by+c}``.  Over the common denominator of (a, b, c) it is one
signed sum of eight truncated squares, the table ``_SLICE_KNOTS``, which the
grid kernel below evaluates too.  The slack function

    htilde = (5/9) * ftilde(a, b, c)
             - (1/9) * sum over the 7 removed cubes, corners (u, v, w) / 3, of
               ftilde(a, b, a*u + b*v + 3*c - w)

is nonnegative everywhere on the admissible wedge; part of that statement is
analytic (see :func:`classify_region`), and the remaining parameter region is
certified by :func:`verify_grid`: exact rational evaluation of htilde on a
grid of step ``d`` combined with the Lipschitz bound 15, which yields global
nonnegativity whenever the grid minimum exceeds ``15 * sqrt(3) * d`` (the
comparison is squared so that everything stays rational).

All certification arithmetic is exact.  The grid kernel maps each coordinate
to an integer numerator over the common denominator ``D = 3 * denominator(d)``
and never visits the grid point by point.  Along a grid row (fixed a, b) the
numerator of htilde is a signed sum of 40 truncated squares in c, so it is one
integer quadratic on each of 41 pieces between sorted knots; the row's exact
minimum over the grid's c values is among two candidates per piece: the grid
points around a convex piece's vertex, else the piece's end points.

Few rows reach the kernel.  With y = D/3 and S = D*d, row (i, j) of the box
0 <= i, j <= M = 2y // S has A = y + S*i, B = y + S*j (grid rows: i <= j) and
takes C = -S*t .. y for a t >= i + j (i + j: its own c values).  At fixed X
its numerator N = sum w*(K - X)_+^2 is q + r: q = sum over w > 0 of w*(K -
X)^2 has the constant Hessian H = 2*sum_{w>0} w*(f, g)^T (f, g) = [[1224, 900],
[900, 1224]] in (A, B), and r = -sum_{w>0} w*(K - X)_-^2 + sum_{w<0} w*(K -
X)_+^2 is concave.  So at x = sum_c l_c*v_c in a cell with corners v_c, N(x) >=
sum_c l_c*(N(v_c) - (v_c - x)^T H (v_c - x)/2), q's chord gap (the alpha-BB
underestimator of Adjiman, Dallwig, Floudas and Neumaier, 1998).  At row x's
minimizing X, inside the cell's widest c-range t = i1 + j1, N(v_c) is at least
corner c's minimum m_c over any range t' >= t, which holds those grid points,
and H01 > 0 bounds the gap by S^2*(612*di^2 + 900*di*dj + 612*dj^2), di = i1 -
i0, dj = j1 - j0.  The kernel cuts the box into _SPLIT x _SPLIT closed cells,
which share their boundary rows; breadth first it drops a cell if min m_c less
that slack is above the least value for each row in it, and halves the rest
into [i0, mid] and [mid, i1].  A level evaluates each distinct corner once,
over the widest range its cells ask, unless the table of rows evaluated so far
holds it over one as wide.  A corner whose smallest minimizer is in its own
c-range is exact; a cell at most one step a side puts its other rows back as
one-row cells (i, i, j, j).  About 300-500 rows are evaluated at any step.  No
float enters: numpy runs the row kernel in int64, and every decision after it
is one comparison of Python ints.  Every knot, piece coefficient and piece
value fits in int64, all over the box, while ``D <= _MAX_D`` (about 1.3e7; the
derivation is at ``_MAX_D``); finer steps are rejected.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, check_int, check_rational, shown
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
    return PlaneParams(check_rational(a, "a"), check_rational(b, "b"), check_rational(c, "c"))


# Lower-left corners of the 7 removed level-1 cubes, in units of 1/3.
REMOVED_CORNERS: tuple[tuple[int, int, int], ...] = tuple(sorted(MENGER_REMOVED))


def _check_wedge(p: PlaneParams) -> None:
    if not (0 <= p.a <= p.b <= 1):
        a, b = shown(p.a), shown(p.b)
        raise WedgeError(f"(a, b) = ({a}, {b}) outside the wedge 0 <= a <= b <= 1")


# With slopes A, B > 0 and all coordinates in units of 1/D, the ftilde
# numerator n(X) = 2*A*B*ftilde(a, b, X/D) is a signed sum of truncated squares
# sigma * (kappa - X)_+^2: the area of {a*x + b*y <= t} over the unit square is
# such a sum in t, and ftilde is its difference at t = 1 - c and t = -c.  Rows
# are (sigma, e, f, g) for the knot kappa = e*D + f*A + g*B.
_SLICE_KNOTS = (
    (1, 1, 0, 0), (-1, 1, -1, 0), (-1, 1, 0, -1), (1, 1, -1, -1),
    (-1, 0, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1), (-1, 0, -1, -1),
)


def ftilde(p: PlaneParams) -> Fraction:
    """Projected slice area, exact rational, for wedge parameters.

    Evaluates n(C) / (2*A*B) over the rows of _SLICE_KNOTS in integers; at
    A = 0 its limit in A, a sum of truncated linear terms over B.  The
    horizontal plane (B = 0) counts the open slab 0 < c < 1: the closed slab
    0 <= c <= 1 of the clipping oracle would make htilde(0, 0, 1/3) = -1/9.
    """
    _check_wedge(p)
    D = math.lcm(p.a.denominator, p.b.denominator, p.c.denominator)
    A, B, C = (x.numerator * (D // x.denominator) for x in (p.a, p.b, p.c))
    if not B:
        return Fraction(0 < C < D)
    if not A:
        return Fraction(
            sum(s * f * max(e * D + g * B - C, 0) for s, e, f, g in _SLICE_KNOTS), B
        )
    return Fraction(
        sum(s * max(e * D + f * A + g * B - C, 0) ** 2 for s, e, f, g in _SLICE_KNOTS),
        2 * A * B,
    )


def htilde(p: PlaneParams) -> Fraction:
    """The slack function; nonnegative on the whole admissible wedge."""
    _check_wedge(p)
    a, b, c = p.a, p.b, p.c
    total = 5 * ftilde(p)
    for u, v, w in REMOVED_CORNERS:
        total -= ftilde(PlaneParams(a, b, a * u + b * v + 3 * c - w))
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
            f"({shown(p.a)}, {shown(p.b)}, {shown(p.c)}) outside the admissible region "
            "0 <= a <= b <= 1, -(a+b) <= c <= 1"
        )
    return next((tag for tag, holds in _CERTIFICATES if holds(p)), TAG_GRID)


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


def _row_knots() -> np.ndarray:
    """The (w, e, f, g) of the htilde numerator along a grid row, 40 once merged.

    With X = 3C, 9 * (5*n(C) - sum over removed corners (u, v, w) of
    n(3C + u*A + v*B - w*D)) = sum_j w_j * (K_j - X)_+^2 = 162*A*B*htilde with
    K_j = e_j*D + f_j*A + g_j*B: the base plane gives knots 3*kappa of weight
    5*sigma, each removed cube knots kappa - u*A - v*B + w*D of weight -9*sigma.
    """
    merged: Counter = Counter()  # equal (e, f, g) coincide for every A, B and D
    for s, e, f, g in _SLICE_KNOTS:
        merged[3 * e, 3 * f, 3 * g] += 5 * s
        for u, v, w in REMOVED_CORNERS:
            merged[e + w, f - u, g - v] -= 9 * s
    return np.array([(w, *knot) for knot, w in merged.items()], dtype=np.int64).T


_W, _E, _F, _G = _row_knots()
# grid rows per kernel call: no level's row count has a proven bound, so this
# caps one call's temporaries (about 1.3 MiB traced at 256 rows)
_BLOCK = 256
_INT64_MAX = np.iinfo(np.int64).max
# int64 range of the kernel.  0 < A, B <= D puts every kappa in [-2D, D], so
# |K| <= 6D (base knots 3*kappa; removed-cube knots lie in [-4D, 3D]), and every
# c-range the kernel takes has X = 3C in [-4D, D].  With sum |w| = 400 <= 8*5 +
# 56*9 = 544, a piece's alpha = sum w, beta = sum w*K, gamma = sum w*K^2 obey
# |alpha| <= 544, |beta| <= 3264*D, |gamma| <= 19584*D^2, so (alpha*X - 2*beta)*X
# + gamma stays within (544*4 + 2*3264)*4*D^2 + 19584*D^2 = 54400*D^2; the
# vertex numerator beta - alpha*X is within 5440*D.  All fit for D <= _MAX_D.
_MAX_D = math.isqrt(_INT64_MAX // 54400)
_SPLIT = 16  # the first partition cuts each side of the row box into _SPLIT cells
# (612, 450, 612): sum of w*(f^2, f*g, g^2) over w > 0, half of H in the module docstring
_Q = tuple(int((np.maximum(_W, 0) * p).sum()) for p in (_F * _F, _F * _G, _G * _G))


def _row_minima(A: np.ndarray, B: np.ndarray, t: np.ndarray, D: int, S: int, y: int):
    """Exact minimum of the htilde numerator over C along the rows (A, B), given as columns.

    Row (A, B) takes C = -S*t .. y in steps of S, for a column t >= (A + B - 2y)/S.
    In X = 3C the numerator N = 162*A*B*htilde = sum_j w_j * (K_j - X)_+^2 is
    the integer quadratic alpha*X^2 - 2*beta*X + gamma on each of the 41 pieces
    between the sorted knots, with alpha, beta, gamma the sums of w, w*K, w*K^2
    over the knots above the piece.  Over the grid points X = x0 + T*j of a
    piece, a convex quadratic (alpha > 0) is smallest at one of the two points
    around its vertex beta/alpha, any other at the piece's first or last point;
    clipped to the piece, these two candidates hold every smallest-j minimizer.
    Returns, per row, the minimum of N and the smallest j attaining it.
    """
    T = 3 * S
    x0 = -T * t  # X at the row's first grid point
    last = y // S + t  # j of the row's last grid point
    # sort the knots, carrying each one's table index in the low 6 bits
    K = np.sort((_F << 6) * A + (_G << 6) * B + ((_E * D << 6) + np.arange(len(_W))), axis=1)
    w = _W[K & 63]
    K >>= 6
    # suffix sums over the knots above each piece; the last piece has none
    sums = np.zeros((3, len(A), len(_W) + 1), np.int64)
    np.cumsum(np.stack((w, w * K, w * K * K))[..., ::-1], axis=2, out=sums[..., -2::-1])
    # piece i spans knots i-1 .. i; its grid points are j = lo .. hi
    K -= x0
    lo = np.concatenate((np.zeros_like(t), -(-K // T)), axis=1)
    hi = np.concatenate((K // T, last), axis=1)
    valid = (lo <= hi) & (lo <= last) & (hi >= 0)
    # a piece without grid points gets alpha = beta = 0 and gamma = _INT64_MAX
    sums *= valid
    alpha, beta, gamma = sums
    gamma[~valid] = _INT64_MAX
    lo, hi = np.minimum(np.maximum((lo, hi), 0), last)  # keep every candidate on the row
    j = (beta - alpha * x0) // (np.maximum(alpha, 1) * T)  # the vertex, in j units
    # a piece that is not convex pushes its candidates out: the clip takes its ends
    push = (alpha <= 0) * 2**62
    X = np.minimum(np.maximum((j - push, j + 1 + push), lo), hi) * T + x0
    vals = (alpha * X - 2 * beta) * X + gamma
    m = vals.min(axis=(0, 2))
    X += (vals != m[:, None]) * 2**62  # non-minimal X leave the row
    return m, (X.min(axis=(0, 2)) - x0[:, 0]) // T


def _halves(lo: int, hi: int) -> list:
    """[lo, hi], or its halves [lo, mid] and [mid, hi] if it is longer than one step."""
    mid = (lo + hi) // 2
    return [(lo, hi)] if hi - lo <= 1 else [(lo, mid), (mid, hi)]


def _cells_min(args):
    """Exact minimum of htilde over the grid rows in the cells of one task (cells, D, S, y).

    A cell (i0, i1, j0, j1), i0 <= j1, holds the rows A = y + S*i, B = y + S*j
    with i0 <= i <= i1, j0 <= j <= j1 and i <= j.  Breadth first, a level
    evaluates its cells' corners in blocks of _BLOCK rows, drops each cell whose
    bound is above the least value for each of its rows, halves those with a
    side longer than one step and puts the others' unsettled rows back as
    one-row cells.  The least value N0/(A0*B0) is kept as the ints (N0, A0, B0,
    j), so every decision is one comparison of Python ints.  Returns (value, A,
    B, C): the least value and its smallest grid point in 1/D units.
    """
    cells, D, S, y = args
    seen = {}  # every row evaluated so far (i, j): (t, m, settled)
    # (N, A, B, j): the least N/(A*B), ties to the least (A, B, j).  It starts
    # at 1/0, above every row, and no cell is dropped before some row is settled
    best = (1, 0, 0, 0)
    while cells:
        ask = {}  # each row's widest c-range asked
        corners = [((i1, j1), (i0, j1), (i1, j0), (i0, j0)) for i0, i1, j0, j1 in cells]
        for cell, rows in zip(cells, corners):
            t = cell[1] + cell[3]
            for row in rows:
                if ask.get(row, -1) < t:
                    ask[row] = t
        # a minimum over a c-range at least as wide still bounds a row, and one
        # asked for its own c-range needs no second look if settled
        todo = [(*row, t) for row, t in ask.items()
                if not ((old := seen.get(row)) and old[0] >= t and (old[2] or t > sum(row)))]
        for r in range(0, len(todo), _BLOCK):
            block = todo[r : r + _BLOCK]
            i, j, t = np.array(block, dtype=np.int64).T[..., None]
            minima = _row_minima(y + S * i, y + S * j, t, D, S, y)
            for (i, j, t), m, k in zip(block, *(x.tolist() for x in minima)):
                k -= t - i - j  # counted from the row's own first grid point
                settled = i <= j and k >= 0
                seen[i, j] = t, m, settled
                if settled:  # compare N/(A*B) cross-multiplied, then (A, B, j)
                    A, B = y + S * i, y + S * j
                    d = m * best[1] * best[2] - best[0] * A * B
                    if d < 0 or d == 0 and (A, B, k) < best[1:]:
                        best = m, A, B, k
        kept, N0, AB0 = [], best[0], best[1] * best[2]
        for (i0, i1, j0, j1), rows in zip(cells, corners):
            di, dj = i1 - i0, j1 - j0
            # drop the cell if low - slack > N0/(A0*B0) * A*B for each of its
            # rows: at its largest A*B if N0 > 0, else at its smallest
            low = min([seen[row][1] for row in rows])
            slack = S * S * ((_Q[0] * di + 2 * _Q[1] * dj) * di + _Q[2] * dj * dj)
            AB = (y + S * i1) * (y + S * j1) if N0 > 0 else (y + S * i0) * (y + S * j0)
            if (low - slack) * AB0 > N0 * AB:
                continue
            if di <= 1 and dj <= 1:  # a finished cell's rows are its corners
                kept += [(i, i, j, j) for i, j in rows if i <= j and not seen[i, j][2]]
            else:  # i0 = j1 leaves one grid row, which a sibling holds
                kept += [(*a, *b) for a in _halves(i0, i1) for b in _halves(j0, j1) if a[0] < b[1]]
        cells = kept
    N, A, B, j = best
    return Fraction(N, 162 * A * B), A, B, 2 * y - A - B + S * j


def _first_cells(M: int) -> list:
    """Each side of the row box 0 <= i, j <= M cut into _SPLIT runs sharing their ends: cells with i0 < j1."""
    n = min(_SPLIT, M)
    e = [M * k // n for k in range(n + 1)]
    return [(e[p], e[p + 1], e[q], e[q + 1]) for p in range(n) for q in range(p, n)]


def verify_grid(d_hat, workers: int = 1) -> VerificationReport:
    """Exact minimum of htilde on the certification grid of step d_hat.

    The grid is a from 1/3 stepping d_hat while it stays <= 1; b from a the
    same way; c from 2/3 - (a + b) stepping d_hat while it stays <= 1/3.
    Certifies global nonnegativity on the grid-covered region iff the exact
    minimum m satisfies m > 0 and m^2 > 675 * d_hat^2.  ``workers`` deals the
    cells of the first partition out in turn to that many processes, at most
    ``os.cpu_count()`` because the pool starts them all at once.
    """
    d = check_rational(d_hat, "grid step")
    if not 0 < d <= _THIRD:
        raise InputError(f"grid step must be in (0, 1/3], got {shown(d)}")
    check_int(workers, "workers (at most os.cpu_count())", 1, (os.cpu_count() or 1) + 1)
    y = d.denominator
    D = 3 * y  # common denominator of all grid coordinates
    if D > _MAX_D:
        raise InputError(
            f"grid step denominator {shown(y)} exceeds {_MAX_D // 3}, the largest the "
            "int64 grid kernel evaluates exactly"
        )
    S = 3 * d.numerator  # grid step in units of 1/D
    M = 2 * y // S  # a and b run over y + S*(0 .. M)
    start = time.monotonic()
    cells = _first_cells(M)
    tasks = [(cells[w::workers], D, S, y) for w in range(len(cells))[:workers]]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_cells_min, tasks))
    else:
        results = [_cells_min(t) for t in tasks]

    best_val, A, B, C = min(results)  # ties: least (A, B, C)
    certified = best_val > 0 and best_val**2 > 675 * d**2
    return VerificationReport(
        d_hat=d,
        # row (i, j) has y//S + i + j + 1 points, and i + j sums to M(M+1)(M+2)/2
        point_count=(M + 1) * (M + 2) * (y // S + 1 + M) // 2,
        minimum=best_val,
        argmin=(Fraction(A, D), Fraction(B, D), Fraction(C, D)),
        certified=certified,
        wall_time=time.monotonic() - start,
        workers=workers,
    )
