import functools
import math
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracphase import slices
from fracphase.errors import InputError
from fracphase.slices import (
    TAG_GRID,
    TAG_LARGE_C,
    TAG_POSITIVE_C,
    TAG_SMALL_A,
    TAG_SMALL_SUM,
    REMOVED_CORNERS,
    WedgeError,
    _SLICE_KNOTS,
    _row_knots,
    classify_region,
    ftilde,
    htilde,
    plane,
    verify_grid,
)
from oracles import (
    clip_area,
    diagonal_min_exact,
    diagonal_rows,
    grid_scan,
    htilde_oracle,
    sample_nonnegativity,
)


def _random_wedge_point(rng, denom=720):
    a = Fraction(rng.randint(0, denom), denom)
    b = Fraction(rng.randint(0, denom), denom)
    if a > b:
        a, b = b, a
    c = Fraction(rng.randint(-3 * denom, 2 * denom), denom)
    return a, b, c


def test_ftilde_simple_cases():
    assert ftilde(plane(Fraction(1, 2), Fraction(1, 2), 0)) == 1  # fits inside
    assert ftilde(plane(Fraction(1, 2), Fraction(1, 2), 2)) == 0  # misses
    assert ftilde(plane(0, 0, Fraction(1, 2))) == 1  # horizontal plane
    assert ftilde(plane(0, 0, 2)) == 0
    assert ftilde(plane(0, 0, 0)) == ftilde(plane(0, 0, 1)) == 0  # open slab
    # one point per quadratic case, against the clipping oracle
    half = Fraction(1, 2)
    for c in (
        Fraction(-9, 10),  # case 2
        Fraction(-45, 100),  # case 3
        Fraction(-1, 10),  # case 4
        Fraction(1, 20),  # case 5 needs a+b>1; handled below
        Fraction(55, 100),  # case 7
        Fraction(95, 100),  # case 8
    ):
        p = plane(half, half, c)
        assert ftilde(p) == clip_area(half, half, c)
    p5 = plane(Fraction(3, 4), Fraction(3, 4), Fraction(-1, 4))  # case 5
    assert ftilde(p5) == clip_area(p5.a, p5.b, p5.c)
    p6 = plane(Fraction(1, 4), Fraction(1, 2), Fraction(2, 5))  # case 6
    assert ftilde(p6) == clip_area(p6.a, p6.b, p6.c)


def test_ftilde_matches_oracle_random():
    rng = random.Random(2024)
    for _ in range(400):
        a, b, c = _random_wedge_point(rng)
        assert ftilde(plane(a, b, c)) == clip_area(a, b, c)


def test_ftilde_boundary_continuity():
    # adjacent cases agree on their shared boundaries
    a, b = Fraction(2, 5), Fraction(3, 5)
    for c in (-(a + b), -b, -a, Fraction(0), 1 - (a + b), 1 - b, 1 - a, Fraction(1)):
        assert ftilde(plane(a, b, c)) == clip_area(a, b, c)


slopes = st.one_of(st.just(Fraction(0)), st.fractions(0, 1, max_denominator=48))


@settings(max_examples=300, deadline=None)
@given(slopes, slopes, st.fractions(-3, 2, max_denominator=48))
def test_ftilde_matches_oracle_with_degenerate_slopes(a, b, c):
    # a = 0 comes up often, a = b = 0 about a quarter of the time
    a, b = min(a, b), max(a, b)
    assume(b or c not in (0, 1))  # the slab is open, the oracle's closed
    assert ftilde(plane(a, b, c)) == clip_area(a, b, c)


def test_ftilde_rejects_outside_wedge():
    with pytest.raises(WedgeError):
        ftilde(plane(Fraction(3, 4), Fraction(1, 4), 0))  # a > b
    with pytest.raises(WedgeError):
        ftilde(plane(Fraction(-1, 4), Fraction(1, 4), 0))


def test_htilde_frozen_values():
    # horizontal plane at height 1/10: slices only the bottom slab
    assert htilde(plane(0, 0, Fraction(1, 10))) == Fraction(4, 9)
    # the certified grid minimizer
    p = plane(Fraction(1, 3), Fraction(1, 3), Fraction(83, 500))
    assert htilde(p) == Fraction(62509, 1125000)
    # height 1/2 fully covers the middle slab, where five of the seven
    # removed cubes live: 5*1 - 5*1 = 0 exactly
    assert htilde(plane(0, 0, Fraction(1, 2))) == 0
    # height 1/3 only touches faces of six removed cubes: the open slab
    # counts none of them, the oracle's closed slab all six, giving 5 - 6
    assert htilde(plane(0, 0, Fraction(1, 3))) == Fraction(5, 9)
    assert htilde_oracle(0, 0, Fraction(1, 3)) == Fraction(-1, 9)


def test_htilde_matches_oracle_random():
    rng = random.Random(99)
    for _ in range(200):
        a, b, c = _random_wedge_point(rng, denom=360)
        assert htilde(plane(a, b, c)) == htilde_oracle(a, b, c)


def test_classify_region_examples():
    assert classify_region(plane(Fraction(1, 4), Fraction(1, 2), Fraction(1, 8))) == TAG_POSITIVE_C
    assert classify_region(plane(Fraction(1, 2), Fraction(1), Fraction(1, 2))) == TAG_LARGE_C
    assert classify_region(plane(Fraction(1, 4), Fraction(1, 2), Fraction(-1, 4))) == TAG_SMALL_SUM
    assert classify_region(plane(Fraction(1, 4), Fraction(1, 3), Fraction(1, 5))) == TAG_POSITIVE_C
    assert classify_region(plane(Fraction(1, 4), Fraction(5, 12), Fraction(1, 4))) == TAG_POSITIVE_C
    # a+b > 2/3 with slightly negative c and a < 1/3
    assert classify_region(plane(Fraction(1, 4), Fraction(1), Fraction(-1, 8))) == TAG_SMALL_A
    # c <= 0, sum > 2/3, a + b > 2/3, a >= 1/3: only the grid covers it
    assert classify_region(plane(Fraction(2, 5), Fraction(2, 5), Fraction(-1, 10))) == TAG_GRID
    # the grid minimizer itself happens to sit in an analytic region
    assert classify_region(plane(Fraction(1, 3), Fraction(1, 3), Fraction(83, 500))) == TAG_POSITIVE_C
    with pytest.raises(InputError):
        classify_region(plane(2, 2, 0))
    with pytest.raises(InputError):
        classify_region(plane(Fraction(1, 2), Fraction(1, 2), -2))


def test_sample_nonnegativity_empty():
    assert sample_nonnegativity(TAG_GRID, 40, seed=1) == []
    assert sample_nonnegativity("all", 60, seed=2) == []
    with pytest.raises(InputError):
        sample_nonnegativity("bogus", 10, seed=0)


def test_sample_nonnegativity_seeds(monkeypatch):
    drawn = []
    real = slices.htilde
    monkeypatch.setattr(slices, "htilde", lambda p: drawn.append((p.a, p.b, p.c)) or real(p))
    sample_nonnegativity("all", 3, seed=0)
    sample_nonnegativity(TAG_GRID, 3, seed=2**64 - 1)
    # pinned: seeded samples are part of the reproducibility contract
    pinned = [
        ("1/72", "61/450", "61/75"),
        ("58/225", "1391/3600", "-2107/3600"),
        ("1033/1800", "47/48", "-887/720"),
        ("1429/3600", "1759/1800", "-163/1800"),
        ("1441/3600", "491/600", "-193/450"),
        ("403/900", "917/1200", "-1337/3600"),
    ]
    assert drawn == [tuple(Fraction(x) for x in point) for point in pinned]
    for seed in (-1, 2**64):
        with pytest.raises(InputError):
            sample_nonnegativity("all", 3, seed=seed)


def _truncated_squares(rows, a, b, x):
    """Sum of weight * (e + f*a + g*b - x)_+^2 over rows (weight, e, f, g)."""
    return sum(s * max(e + f * a + g * b - x, 0) ** 2 for s, e, f, g in rows)


positive_slopes = st.fractions(min_value=0, max_value=1, max_denominator=48).filter(bool)


@settings(max_examples=150, deadline=None)
@given(positive_slopes, positive_slopes, st.fractions(-3, 2, max_denominator=48))
def test_truncated_square_forms_match_oracles(a, b, c):
    # the knot tables of the grid kernel, in units where D = 1
    a, b = min(a, b), max(a, b)
    n = _truncated_squares(_SLICE_KNOTS, a, b, c)
    assert n == 2 * a * b * ftilde(plane(a, b, c)) == 2 * a * b * clip_area(a, b, c)
    row = _truncated_squares(_row_knots().T.tolist(), a, b, 3 * c)
    assert row == 162 * a * b * htilde_oracle(a, b, c)


def test_row_knots_are_merged_within_the_int64_derivation():
    # coincident (e, f, g) are summed: 64 knots become 40, none of weight 0,
    # and sum |w| stays within the 8*5 + 56*9 = 544 that _MAX_D is derived from
    w, e, f, g = _row_knots()
    assert len(set(zip(e.tolist(), f.tolist(), g.tolist()))) == len(w) == 40
    assert all(w)
    assert sum(abs(w)) == 400 <= 544


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(3, 20), st.data())
def test_row_minima_match_brute_force(k, n, data):
    # each row's minimum numerator and its smallest minimizing j, for rows of
    # several a-slices in one kernel call, against htilde at every grid point
    d = Fraction(k, n)
    assume(d <= Fraction(1, 3))
    y, S = d.denominator, 3 * d.numerator
    D = 3 * y
    a_slices = data.draw(st.sets(st.sampled_from(range(y, D + 1, S)), min_size=1, max_size=3))
    rows = [(A, B) for A in sorted(a_slices) for B in range(A, D + 1, S)]
    A, B = (np.array(col, dtype=np.int64)[:, None] for col in zip(*rows))
    work = slices._work(len(rows))
    for a in work:
        a.fill(12345)  # stale values of an earlier call must not leak in
    m, j = slices._row_minima(A, B, D, S, y, work)
    for (A, B), got_m, got_j in zip(rows, m.tolist(), j.tolist()):
        N = [
            162 * A * B * htilde(plane(Fraction(A, D), Fraction(B, D), Fraction(C, D)))
            for C in range(2 * y - A - B, y + 1, S)
        ]
        assert (got_m, got_j) == (min(N), N.index(min(N)))


def test_lipschitz_spot_check():
    # |htilde(p) - htilde(q)| <= 15 * euclidean distance, sampled
    rng = random.Random(5)
    for _ in range(100):
        a, b, c = _random_wedge_point(rng, denom=300)
        eps = Fraction(1, 3000)
        p, q = plane(a, b, c), plane(a, b, c + eps)
        assert abs(htilde(p) - htilde(q)) <= 15 * eps


def test_verify_grid_coarse_matches_pure_fractions():
    report = verify_grid(Fraction(1, 12))
    # recompute the same grid with the scalar rational evaluator
    d = Fraction(1, 12)
    best = None
    count = 0
    a = Fraction(1, 3)
    points = []
    while a <= 1:
        b = a
        while b <= 1:
            c = Fraction(2, 3) - a - b
            while c <= Fraction(1, 3):
                points.append((a, b, c))
                c += d
            b += d
        a += d
    for a, b, c in points:
        count += 1
        v = htilde(plane(a, b, c))
        if best is None or v < best[0]:
            best = (v, (a, b, c))
    assert report.point_count == count
    assert report.minimum == best[0]
    # points ascend lexicographically, so best holds the smallest minimizer
    assert report.argmin == best[1]
    assert report.minimum > 0
    # 1/12 is far too coarse for the Lipschitz certificate
    assert not report.certified
    assert report.workers == 1


def test_verify_grid_certificate_logic():
    report = verify_grid(Fraction(1, 12))
    needed = report.minimum**2 > 675 * Fraction(1, 12) ** 2
    assert report.certified == (report.minimum > 0 and needed)
    assert math.isclose(
        float(675) ** 0.5, 15 * 3**0.5, rel_tol=1e-12
    )  # certificate constant is (15 sqrt 3)^2


def test_verify_grid_rejects_bad_step(monkeypatch):
    def no_pool(*args, **kwargs):
        pytest.fail("a process pool was started")

    monkeypatch.setattr(slices, "ProcessPoolExecutor", no_pool)
    with pytest.raises(InputError):
        verify_grid(Fraction(1, 2))
    with pytest.raises(InputError):
        verify_grid(Fraction(0))
    for workers in (0, os.cpu_count() + 1, 10**6):  # the pool forks them all
        with pytest.raises(InputError):
            verify_grid(Fraction(1, 12), workers=workers)
    with pytest.raises(InputError):  # beyond the int64 range of the kernel
        verify_grid(Fraction(1, 5_000_000))


def test_verify_grid_rejects_steps_past_the_row_budget(monkeypatch):
    def no_work(*args, **kwargs):
        pytest.fail("the grid started work")

    monkeypatch.setattr(slices, "_diagonal_min", no_work)
    monkeypatch.setattr(slices, "ProcessPoolExecutor", no_work)
    # both within the int64 range of the kernel: 1/4340344 has 4.19e12 rows,
    # 1/21212 has 14142 b values, so 14142 * 14143 / 2 = 100,005,153 rows
    for step in ("1/4340344", "1/21212"):
        with pytest.raises(InputError, match="more than the budget of 100000000 rows"):
            verify_grid(Fraction(step))
    # 1/21211 has 99,991,011 rows; 1/30 has 21 b values, so 231 rows
    monkeypatch.setattr(slices, "_diagonal_min", lambda task: (Fraction(1), 1, 1, 0, 0))
    assert verify_grid(Fraction(1, 21211)).minimum == 1
    monkeypatch.setattr(slices, "_MAX_ROWS", 230)
    with pytest.raises(InputError, match="231 grid rows"):
        verify_grid(Fraction(1, 30))


@pytest.mark.parametrize("workers", [1, 2])
def test_fine_grids_keep_their_minima(workers):
    third = Fraction(1, 3)
    for step, minimum, c, count in (
        ("1/500", "62509/1125000", "83/500", 27_972_500),
        ("1/1000", "250009/4500000", "167/1000", 222_778_000),
        ("2/1001", "501113/9018009", "166/1001", 27_972_500),
    ):
        report = verify_grid(Fraction(step), workers)
        got = (report.minimum, report.argmin, report.point_count, report.certified)
        assert got == (Fraction(minimum), (third, third, Fraction(c)), count, True)


def test_grid_memory_does_not_grow_with_the_grid():
    # diagonals are laid out a batch at a time, and 1/2000 has 16x the rows of 1/500
    def peak(step):
        tracemalloc.start()
        try:
            verify_grid(step)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(Fraction(1, 2000)) <= 1.5 * peak(Fraction(1, 500))


def _grid(step):
    d = Fraction(step)
    y, S = d.denominator, 3 * d.numerator
    return 3 * y, S, y, 2 * y // S  # D, S, y and M: a and b run over y + S*(0 .. M)


def _smallest_minimizer(ts, D, S, y):
    """(value, A, B, C, count) of the diagonals ts, from htilde at every grid point."""
    points = [
        (A, B, C) for A, B in diagonal_rows(ts, D, S, y) for C in range(2 * y - A - B, y + 1, S)
    ]
    values = [htilde(plane(*(Fraction(x, D) for x in p))) for p in points]
    best = min(values)
    return (best, *points[values.index(best)], len(points)), values.count(best)


@pytest.mark.parametrize("step", ["1/6", "1/12"])
def test_slice_minima_take_the_smallest_tied_point(step, monkeypatch):
    # both steps have rows whose minimum is attained at two c; at 1/6 the rows
    # (a, b) = (1/2, 5/6) and (1/2, 1), on diagonals 4 and 5, attain it too
    D, S, y, M = _grid(step)
    tasks = [[t] for t in range(2 * M + 1)] + [range(2 * M + 1), range(1, 2 * M + 1, 2)]
    ties = 0
    for ts in tasks:
        expected, count = _smallest_minimizer(ts, D, S, y)
        ties += count > 1
        for stride in (1, 2, 3, 64):
            monkeypatch.setattr(slices, "_STRIDE", stride)
            assert slices._diagonal_min((ts, D, S, y)) == expected
    assert ties >= 3


@settings(max_examples=60, deadline=None)
@example(k=1, n=6, block=1, batch=1, stride=2, picks={4, 5})  # tied rows on diagonals 4, 5
@example(k=1, n=6, block=3, batch=3, stride=1, picks={0, 4, 5})
@example(k=2, n=75, block=7, batch=40, stride=3, picks={20, 21, 40})
@given(
    st.integers(1, 3),
    st.integers(3, 80),
    st.integers(1, 7),
    st.integers(1, 80),
    st.sampled_from([1, 2, 3, 5, 64]),
    st.sets(st.integers(0, 120), min_size=1, max_size=4),
)
def test_screened_slice_minima_match_the_exact_loop(k, n, block, batch, stride, picks):
    # blocks of 1-7 rows leave partial last blocks and put tied rows in
    # different blocks, and small batches split the diagonals every few rows;
    # the oracle compares every row exactly in one block
    d = Fraction(k, n)
    assume(d <= Fraction(1, 3))
    D, S, y, M = _grid(d)
    task = (sorted({i % (2 * M + 1) for i in picks}), D, S, y)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("_BLOCK", block), ("_BATCH", batch), ("_STRIDE", stride)):
            mp.setattr(slices, name, value)
        assert slices._diagonal_min(task) == diagonal_min_exact(task)


def test_screen_keeps_exact_ties_whose_floats_differ(monkeypatch):
    # past 2^53 a row minimum m rounds to float: here every row's m / (A*B)
    # is c/3 exactly, yet row 0's float quotient is above the least one
    c = 2**45 + 1
    monkeypatch.setattr(
        slices, "_row_minima", lambda A, B, *_: ((c * (A * B // 3))[:, 0], np.zeros(len(A), int))
    )
    A, B = (np.array(col) for col in zip(*diagonal_rows([58], 297, 3, 99)))
    v = (c * (A * B // 3)) / (A * B)
    assert len(A) <= slices._BLOCK and v[0] > v.min()
    for stride in (1, 2, 64):  # all rows in one kernel call; coarse and screened rows
        monkeypatch.setattr(slices, "_STRIDE", stride)
        got = slices._diagonal_min(([58], 297, 3, 99))[:4]
        assert got == (Fraction(c, 3 * 162), 99, 273, -174)


def test_screen_keeps_a_row_whose_bound_equals_the_least_value(monkeypatch):
    # rows k = 0, 1, 2 of one diagonal, with stride 2: row 1 is screened, its
    # bound (m0 + m2)/2 - _CURVE*S^2 is exactly m1, and m1/(A1*B1) equals
    # m2/(A2*B2), the least coarse value.  Row 1 must be evaluated and win the
    # tie on its smaller A; with curvature 0 it would be pruned
    D, S, y, M = _grid(Fraction(1, 9))
    t = 4  # rows (A, B) = (9, 21), (12, 18), (15, 15)
    monkeypatch.setattr(slices, "_STRIDE", 2)
    real = slices._row_minima
    extra = {9: 650 * S * S}  # row 0 lies above the others

    def row_minima(A, B, *args):
        m, j = real(A, B, *args)
        return (A * B)[:, 0] + [extra.get(a, 0) for a in A[:, 0].tolist()], j

    monkeypatch.setattr(slices, "_row_minima", row_minima)
    assert slices._CURVE == 324  # row 0's excess 650 S^2 = 2 * 324 S^2 + 2 S^2
    value, A, B, _, _ = slices._diagonal_min(([t], D, S, y))
    assert (value, A, B) == (Fraction(1, 162), 12, 18)


def test_curvature_constant_recomputed_from_the_tables():
    # 162*A*B*htilde = sum over base knots 3*kappa of weight 5*sigma and removed-cube
    # knots kappa - u*A - v*B + w*D of weight -9*sigma; along a diagonal a knot
    # e*D + f*A + g*B moves by (f - g)*S a step.  Equal knots add their weights.
    weights = {}
    for s, e, f, g in _SLICE_KNOTS:
        knots = [((3 * e, 3 * f, 3 * g), 5 * s)]
        knots += [((e + w, f - u, g - v), -9 * s) for u, v, w in REMOVED_CORNERS]
        for knot, weight in knots:
            weights[knot] = weights.get(knot, 0) + weight
    moves = [(w, (f - g) ** 2) for (e, f, g), w in weights.items()]
    # the positive terms bound the second derivative; with every term active
    # the numerator is the zero area of an empty slice, so the signs balance
    up = sum(w * q for w, q in moves if w > 0)
    assert up == sum(-w * q for w, q in moves if w < 0) == slices._CURVE == 324


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(3, 4_340_344), st.data())
def test_diagonal_bound_is_below_every_row_between(k, n, data):
    # over rows k0 < k < k1 of one diagonal, with any coarse rows k0 and k1,
    # ((k1-k)*m(k0) + (k-k0)*m(k1))/(k1-k0) - _CURVE*S^2*(k-k0)*(k1-k) <= m(k)
    d = Fraction(k, n)
    assume(d <= Fraction(1, 3))
    D, S, y, M = _grid(d)
    rows = diagonal_rows([data.draw(st.integers(0, 2 * M))], D, S, y)
    k0 = data.draw(st.integers(0, len(rows) - 1))
    k1 = data.draw(st.integers(k0, min(k0 + 80, len(rows) - 1)))
    A, B = (np.array(col, dtype=np.int64)[:, None] for col in zip(*rows[k0 : k1 + 1]))
    m = slices._row_minima(A, B, D, S, y, slices._work(len(A)))[0].tolist()
    w, curve = k1 - k0, slices._CURVE * S * S
    for i, mk in enumerate(m):  # row k = k0 + i
        assert (w - i) * m[0] + i * m[-1] - curve * i * (w - i) * w <= w * mk


positive_fractions = st.fractions(0, 1, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(positive_fractions, positive_fractions, st.fractions(-2, 1, max_denominator=12),
       st.fractions(0, Fraction(1, 8), max_denominator=24).filter(bool))
def test_numerator_curvature_along_a_diagonal_is_bounded(a, b, c, h):
    # the exact rational htilde, not the knot table: at fixed c, 162*a*b*htilde
    # at (a - h, b + h), (a, b), (a + h, b - h) has a second difference of at
    # most 2 * _CURVE * h^2 (htilde is symmetric in a and b)
    points = [(a - h, b + h), (a, b), (a + h, b - h)]
    assume(all(0 < p <= 1 and 0 < q <= 1 for p, q in points))
    N = [162 * p * q * htilde(plane(min(p, q), max(p, q), c)) for p, q in points]
    assert N[0] - 2 * N[1] + N[2] <= 2 * slices._CURVE * h * h


_scan = functools.cache(grid_scan)


@pytest.mark.parametrize("stride", [1, 2, 3, 10**9])
@pytest.mark.parametrize("step", ["1/37", "2/75", "1/100"])
def test_verify_grid_matches_grid_scan_at_every_stride(step, stride, monkeypatch):
    D, S, y, M = _grid(step)
    rows = []
    real = slices._row_minima

    def row_minima(A, *args):
        rows.append(len(A))
        return real(A, *args)

    monkeypatch.setattr(slices, "_row_minima", row_minima)
    monkeypatch.setattr(slices, "_STRIDE", stride)
    report = verify_grid(Fraction(step))
    got = (report.minimum, report.argmin, report.point_count, report.certified)
    assert got == _scan(Fraction(step))
    # every stride-th row of a diagonal and its last are coarse; the rest are screened
    lengths = [t // 2 - max(t - M, 0) + 1 for t in range(2 * M + 1)]
    coarse = sum(len(range(0, n, stride)) + ((n - 1) % stride > 0) for n in lengths)
    assert coarse <= sum(rows) <= sum(lengths)
    if stride in (2, 3):
        assert sum(rows) < sum(lengths)  # the screen ruled rows out
    if stride == 10**9:
        assert sum(rows) > coarse  # and evaluated some it could not rule out


def test_warm_grid_reuses_its_work_arrays():
    # fresh block-sized temporaries cost about 50,000 minor page faults a call
    resource = pytest.importorskip("resource")
    verify_grid(Fraction(1, 500))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    verify_grid(Fraction(1, 500))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 5000


@pytest.mark.parametrize("step", ["1/30", "1/37", "1/64", "1/100", "2/75", "2/101"])
def test_verify_grid_matches_grid_scan(step):
    d = Fraction(step)
    report = verify_grid(d)
    got = (report.minimum, report.argmin, report.point_count, report.certified)
    assert got == grid_scan(d)


def test_verify_grid_parallel_agrees():
    a = verify_grid(Fraction(1, 25))
    b = verify_grid(Fraction(1, 25), workers=2)
    assert (a.minimum, a.argmin, a.point_count) == (b.minimum, b.argmin, b.point_count)
