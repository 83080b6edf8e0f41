import concurrent.futures
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
    _SLICE_KNOTS,
    _row_knots,
    classify_region,
    ftilde,
    htilde,
    plane,
    verify_grid,
)
from oracles import (
    cell_rows,
    cells_min_exact,
    clip_area,
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
    with pytest.raises(InputError, match="outside the wedge"):
        ftilde(plane(Fraction(3, 4), Fraction(1, 4), 0))  # a > b
    with pytest.raises(InputError, match="outside the wedge"):
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
    # each row's minimum numerator and its smallest minimizing j, for rows all
    # over the box 0 <= i, j <= M in one kernel call, against htilde at every
    # point of the row's c-range: its own c values extended downwards by up to
    # 2M - i - j steps, as a cell corner takes them.  Rows with A > B are no
    # grid rows; htilde is symmetric in a and b
    d = Fraction(k, n)
    assume(d <= Fraction(1, 3))
    D, S, y, M = _grid(d)
    ij = data.draw(st.lists(st.tuples(st.integers(0, M), st.integers(0, M)), min_size=1, max_size=12))
    rows = [(y + S * i, y + S * j, data.draw(st.integers(i + j, 2 * M))) for i, j in ij]
    A, B, t = (np.array(col, dtype=np.int64)[:, None] for col in zip(*rows))
    m, j = slices._row_minima(A, B, t, D, S, y)
    for (A, B, t), got_m, got_j in zip(rows, m.tolist(), j.tolist()):
        a, b = sorted((Fraction(A, D), Fraction(B, D)))
        N = [162 * A * B * htilde(plane(a, b, Fraction(C, D))) for C in range(-S * t, y + 1, S)]
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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
    # the int64 range of the kernel is the only limit on the step: 1/4340344
    # is the finest 1/n, and 1/4340345 is rejected before any work starts
    def no_work(*args, **kwargs):
        pytest.fail("the grid started work")

    monkeypatch.setattr(slices, "_cells_min", no_work)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
    assert slices._MAX_D // 3 == 4_340_344
    for step in ("1/4340345", "2/8680691"):
        with pytest.raises(InputError, match="exceeds 4340344"):
            verify_grid(Fraction(step))
    monkeypatch.setattr(slices, "_cells_min", lambda task: (Fraction(1), 1, 1, 0))
    assert verify_grid(Fraction(1, 4_340_344)).minimum == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_fine_grids_keep_their_minima(workers):
    third = Fraction(1, 3)
    for step, minimum, c, count in (
        ("1/500", "62509/1125000", "83/500", 27_972_500),
        ("1/1000", "250009/4500000", "167/1000", 222_778_000),
        ("2/1001", "501113/9018009", "166/1001", 27_972_500),
        ("1/4000", "4000009/72000000", "667/4000", 14_231_112_000),
        ("1/8000", "16000009/288000000", "1333/8000", 113_827_560_000),
        ("1/21211", "224953265/4049158689", "3535/21211", 2_120_909_334_321),
    ):
        report = verify_grid(Fraction(step), workers)
        got = (report.minimum, report.argmin, report.point_count, report.certified)
        assert got == (Fraction(minimum), (third, third, Fraction(c)), count, True)


def _kernel_rows(monkeypatch):
    """A list that gets the number of rows of every kernel call from now on."""
    rows, real = [], slices._row_minima
    monkeypatch.setattr(slices, "_row_minima", lambda A, *args: rows.append(len(A)) or real(A, *args))
    return rows


def test_grid_work_does_not_grow_with_the_grid(monkeypatch):
    # 1/500 has 55,945 grid rows, 1/21211 1.0e8 and 1/4340344, the finest
    # step, 4.2e12.  Cells share their corners, so a level evaluates each once
    rows = _kernel_rows(monkeypatch)
    for step, budget in (("1/500", 400), ("1/2000", 550), ("1/21211", 550), ("1/4340344", 550)):
        rows.clear()
        verify_grid(Fraction(step))
        assert 0 < sum(rows) <= budget


def test_grid_memory_does_not_grow_with_the_grid():
    # the cells of one level are all that is laid out at a time, and 1/2000
    # has 16x the rows of 1/500, 1/21211 1,787x
    def peak(step):
        tracemalloc.start()
        try:
            verify_grid(step)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    least = peak(Fraction(1, 500))
    assert peak(Fraction(1, 2000)) <= 1.5 * least
    assert peak(Fraction(1, 21211)) <= 1.5 * least


def _grid(step):
    d = Fraction(step)
    y, S = d.denominator, 3 * d.numerator
    return 3 * y, S, y, 2 * y // S  # D, S, y and M: a and b run over y + S*(0 .. M)


def _split_cells(M, split, monkeypatch):
    monkeypatch.setattr(slices, "_SPLIT", split)
    return slices._first_cells(M)


def _smallest_minimizer(cells, D, S, y):
    """(value, A, B, C) of the grid rows in cells, from htilde at every grid point."""
    points = [(A, B, C) for A, B in cell_rows(cells, S, y) for C in range(2 * y - A - B, y + 1, S)]
    values = [htilde(plane(*(Fraction(x, D) for x in p))) for p in points]
    best = min(values)
    return (best, *points[values.index(best)]), values.count(best)


@pytest.mark.parametrize("step", ["1/6", "1/12"])
def test_slice_minima_take_the_smallest_tied_point(step, monkeypatch):
    # both steps have rows whose minimum is attained at two c; at 1/6 the rows
    # (a, b) = (1/2, 5/6) and (1/2, 1) attain it too.  Each first cell, all of
    # them and every other one, at one first cell up to cells one step a side
    D, S, y, M = _grid(step)
    ties = 0
    for split in (1, 2, 3, 10**9):
        cells = _split_cells(M, split, monkeypatch)
        for task in [[c] for c in cells] + [cells, cells[1::2]]:
            if not task:
                continue
            expected, count = _smallest_minimizer(task, D, S, y)
            ties += count > 1
            assert slices._cells_min((task, D, S, y)) == expected
    assert ties >= 3


@settings(max_examples=60, deadline=None)
@example(k=1, n=6, block=1, split=10**9, picks={7, 8})  # the tied rows (1/2, 5/6), (1/2, 1)
@example(k=1, n=6, block=3, split=2, picks={0, 1, 2})
@example(k=2, n=75, block=7, split=1, picks={0})
@given(
    st.integers(1, 3),
    st.integers(3, 80),
    st.integers(1, 7),
    st.sampled_from([1, 2, 3, 5, 16, 10**9]),
    st.sets(st.integers(0, 200), min_size=1, max_size=4),
)
def test_screened_slice_minima_match_the_exact_loop(k, n, block, split, picks):
    # blocks of 1-7 rows leave partial last blocks and put tied rows in
    # different kernel calls; the oracle compares every row exactly in one call
    d = Fraction(k, n)
    assume(d <= Fraction(1, 3))
    D, S, y, M = _grid(d)
    with pytest.MonkeyPatch.context() as mp:
        cells = _split_cells(M, split, mp)
        task = ([cells[i % len(cells)] for i in sorted(picks)], D, S, y)
        mp.setattr(slices, "_BLOCK", block)
        assert slices._cells_min(task) == cells_min_exact(task)


def test_screen_keeps_exact_ties_whose_floats_differ(monkeypatch):
    # past 2^53 a row minimum m rounds to float: here every row's m / (A*B) is
    # c/3 exactly, at every c-range, yet in floats the quotient of the least
    # row (A, B) = (99, 99) is above the least one, so a float comparison would
    # break the tie against it.  No cell can be ruled out, so every row is
    # evaluated, at one first cell and at cells one step a side.  Of the cells
    # [0, 1]^2 and the single row (M - 1, M), a level settles (102, 102) first
    # and leaves (99, 99) and (99, 102) alone to the next, where at 2^45 + 36
    # both float quotients are above float(c/3), the least value found so far;
    # compared as ints, (99, 99) still wins the tie
    D, S, y, M = _grid(Fraction(1, 99))
    A, B = (np.array(col) for col in zip(*cell_rows([(0, M, 0, M)], S, y)))
    for c in (2**45 + 1, 2**45 + 36):
        monkeypatch.setattr(
            slices, "_row_minima", lambda A, B, *_: ((c * (A * B // 3))[:, 0], np.zeros(len(A), int))
        )
        v = (c * (A * B // 3)) / (A * B)
        assert (A[0], B[0]) == (99, 99) and v[0] > v.min()
        late = min(float(c * (99 * q // 3)) / (99 * q) for q in (99, 102))
        assert (late > float(Fraction(c, 3))) == (c == 2**45 + 36)
        pair = [(0, 1, 0, 1), (M - 1, M - 1, M, M)]
        for cells in (_split_cells(M, 1, monkeypatch), _split_cells(M, 10**9, monkeypatch), pair):
            got = slices._cells_min((cells, D, S, y))
            assert got == (Fraction(c, 3 * 162), 99, 99, 0)


def test_screen_keeps_a_row_whose_bound_equals_the_least_value(monkeypatch):
    # cells (i, j) in [5, 5] x [6, 6] and [1, 3] x [4, 6] at step 1/9.  Row
    # (5, 6) takes N = A*B, value 1, and so does the second cell's middle row
    # (2, 5), (A, B) = (15, 24), over any c-range.  Its other rows take 10^6
    # more over their own c-range, and over a wider one 18*27 + S^2 (612 +
    # 2*450 + 612)*2^2, which is less: a wider range holds more grid points.  So
    # the second cell's bound is exactly 1 * 18*27, at its largest A*B.  It
    # must be kept, and row (2, 5) must win the tie on its smaller A.  With
    # curvature 0, a bound equal to the least value ruled out, or corners taken
    # over their own c-ranges, the cell would be dropped
    D, S, y, M = _grid(Fraction(1, 9))
    wide = 18 * 27 + S * S * (612 + 2 * 450 + 612) * 2**2

    def row_minima(A, B, t, *args):
        own = (A + B - 2 * y) // S == t
        lone = (A < 24) & (A * B != 15 * 24)  # every row but (2, 5) and (5, 6)
        m = np.where(lone & ~own, wide, A * B + 10**6 * lone)
        return m[:, 0], np.zeros(len(A), int)

    monkeypatch.setattr(slices, "_row_minima", row_minima)
    assert slices._Q == (612, 450, 612)
    got = slices._cells_min(([(5, 5, 6, 6), (1, 3, 4, 6)], D, S, y))
    assert got == (Fraction(1, 162), 15, 24, 2 * y - 15 - 24)


def test_cell_drop_is_exact_past_2_to_the_53(monkeypatch):
    # at step 1/10 the cell [0, 2] x [4, 6] has slack S^2 * 8496 and its
    # largest A*B is 16*28 = 448, coprime to 19*25 = 475 of the single row
    # (3, 5), whose minimum N0 near 2^60 settles the least value.  The cell's
    # corners take low = L + slack: with L*475 = 448*N0 + 1 the cell is above
    # the least value by one part in about 2^69 and is dropped, so no row
    # inside it is asked for; with L*475 = 448*N0 it is kept and halved
    D, S, y, M = _grid(Fraction(1, 10))
    slack = S * S * (612 + 900 + 612) * 2**2
    for N0, L, dropped in ((2**60 + 62, (448 * (2**60 + 62) + 1) // 475, True),
                           (475 * 2**51, 448 * 2**51, False)):
        assert L * 475 - 448 * N0 == dropped
        asked = set()

        def row_minima(A, B, t, *args):
            asked.update(zip(((A[:, 0] - y) // S).tolist(), ((B[:, 0] - y) // S).tolist()))
            m = np.where((A == 19) & (B == 25), N0, L + slack)
            return m[:, 0], np.zeros(len(A), int)

        monkeypatch.setattr(slices, "_row_minima", row_minima)
        got = slices._cells_min(([(3, 3, 5, 5), (0, 2, 4, 6)], D, S, y))
        assert got == (Fraction(N0, 162 * 475), 19, 25, 2 * y - 19 - 25)
        assert ((1, 5) in asked) == (not dropped)


def test_curvature_constant_recomputed_from_the_tables():
    # 162*A*B*htilde = sum over base knots 3*kappa of weight 5*sigma and removed-cube
    # knots kappa - u*A - v*B + w*D of weight -9*sigma, at fixed X a sum of
    # w * (K - X)_+^2 with K = e*D + f*A + g*B.  Equal knots add their weights.
    weights = {}
    for s, e, f, g in _SLICE_KNOTS:
        knots = [((3 * e, 3 * f, 3 * g), 5 * s)]
        knots += [((e + w, f - u, g - v), -9 * s) for u, v, w in REMOVED_CORNERS]
        for knot, weight in knots:
            weights[knot] = weights.get(knot, 0) + weight
    # the full squares of positive weight have Hessian H = 2 * sum w (f, g)^T (f, g)
    # in (A, B); with every term active the numerator is the zero area of an
    # empty slice, so the negative terms balance it
    H = [[2 * sum(w * knot[p] * knot[q] for knot, w in weights.items() if w > 0) for q in (1, 2)]
         for p in (1, 2)]
    down = [[2 * sum(-w * knot[p] * knot[q] for knot, w in weights.items() if w < 0) for q in (1, 2)]
            for p in (1, 2)]
    assert H == down == [[1224, 900], [900, 1224]]
    assert slices._Q == (H[0][0] // 2, H[0][1] // 2, H[1][1] // 2)
    # along a + b = const, h = (1, -1): h^T H h = 648, twice the 324 of the diagonal screen
    assert H[0][0] - 2 * H[0][1] + H[1][1] == 648


@settings(max_examples=100, deadline=None)
@example(k=1, n=70, i=36, j=1, di=7, dj=4, w=0)  # with curvature 0 these bounds are above a row
@example(k=3, n=52, i=1, j=7, di=0, dj=4, w=0)
@example(k=2, n=283, i=74, j=10, di=10, dj=7, w=0)
@example(k=1, n=70, i=36, j=1, di=7, dj=4, w=3)
@given(st.integers(1, 7), st.integers(3, 4_340_344), st.integers(0, 2**23), st.integers(0, 2**23),
       st.integers(0, 24), st.integers(0, 24), st.integers(0, 2**23))
def test_cell_bound_is_below_every_row_inside(k, n, i, j, di, dj, w):
    # for any cell [i0, i1] x [j0, j1] of the box 0 <= i, j <= M, rows with
    # i > j included, the least corner minimum over any c-range at least as
    # wide as the cell's widest, t = i1 + j1 + w (at most 2M, the widest the
    # kernel takes), less the curvature slack of the module docstring, is at
    # most the exact minimum of every row inside over the row's own c-range
    d = Fraction(k, n)
    assume(d <= Fraction(1, 3))
    D, S, y, M = _grid(d)
    i0, j0 = i % (M + 1), j % (M + 1)
    i1, j1 = min(i0 + di, M), min(j0 + dj, M)
    t = min(i1 + j1 + w, 2 * M)
    corners = np.array([(y + S * i, y + S * j, t) for i in (i0, i1) for j in (j0, j1)])[:, :, None]
    low = min(slices._row_minima(*corners.transpose(1, 0, 2), D, S, y)[0].tolist())
    Q00, Q01, Q11 = slices._Q
    di, dj = i1 - i0, j1 - j0
    slack = S * S * (Q00 * di * di + 2 * Q01 * di * dj + Q11 * dj * dj)
    rows = [(y + S * i, y + S * j, i + j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)]
    A, B, t = (np.array(col, dtype=np.int64)[:, None] for col in zip(*rows))
    m = slices._row_minima(A, B, t, D, S, y)[0]
    assert low - slack <= min(m.tolist())


positive_fractions = st.fractions(0, 1, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(positive_fractions, positive_fractions, st.fractions(-2, 1, max_denominator=12),
       st.fractions(-Fraction(1, 8), Fraction(1, 8), max_denominator=24),
       st.fractions(-Fraction(1, 8), Fraction(1, 8), max_denominator=24))
def test_numerator_curvature_in_any_direction_is_bounded(a, b, c, ha, hb):
    # the exact rational htilde, not the knot table: at fixed c, 162*a*b*htilde
    # at (a, b) - h, (a, b), (a, b) + h has a second difference of at most
    # h^T H h for every direction h = (ha, hb) (htilde is symmetric in a and b)
    points = [(a - ha, b - hb), (a, b), (a + ha, b + hb)]
    assume(all(0 < p <= 1 and 0 < q <= 1 for p, q in points))
    N = [162 * p * q * htilde(plane(min(p, q), max(p, q), c)) for p, q in points]
    Q00, Q01, Q11 = slices._Q
    assert N[0] - 2 * N[1] + N[2] <= 2 * (Q00 * ha * ha + 2 * Q01 * ha * hb + Q11 * hb * hb)


_scan = functools.cache(grid_scan)


@pytest.mark.parametrize("split", [1, 2, 3, 10**9])
@pytest.mark.parametrize("step", ["1/37", "2/75", "1/100"])
def test_verify_grid_matches_grid_scan_at_every_stride(step, split, monkeypatch):
    # the first partition cuts each side of the row box into `split` cells: one
    # first cell, 2 or 3 a side, or cells one step a side
    D, S, y, M = _grid(step)
    exact, alone, real = set(), set(), slices._row_minima

    def row_minima(A, B, t, *args):
        m, k = real(A, B, t, *args)
        for a, b, wide, j in zip(A[:, 0].tolist(), B[:, 0].tolist(), t[:, 0].tolist(), k.tolist()):
            own = (a + b - 2 * y) // S  # the row's own c-range
            if a <= b and j >= wide - own:
                exact.add((a, b))  # its smallest minimizer lies in its own c-range
            if a <= b and wide == own:
                alone.add((a, b))
        return m, k

    monkeypatch.setattr(slices, "_row_minima", row_minima)
    monkeypatch.setattr(slices, "_SPLIT", split)
    report = verify_grid(Fraction(step))
    got = (report.minimum, report.argmin, report.point_count, report.certified)
    assert got == _scan(Fraction(step))
    # cells one step a side get every grid row's exact minimum; else few rows
    # are evaluated over their own c-range, the rest only as shared corners
    grid_rows = (M + 1) * (M + 2) // 2
    if split == 10**9:
        assert len(exact) == grid_rows
    else:
        assert 0 < len(alone) < grid_rows / 4


def test_warm_grid_reuses_its_work_arrays():
    # fresh block-sized temporaries cost about 50,000 minor page faults a call
    resource = pytest.importorskip("resource")
    verify_grid(Fraction(1, 500))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    verify_grid(Fraction(1, 500))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 5000


def test_one_kernel_block_stays_small():
    # a kernel call computes into fresh temporaries, so _BLOCK rows are what cap
    # its memory: 256 rows took about 1.3 MiB traced
    D, S, y, M = _grid(Fraction(1, 4340344))
    i = np.linspace(0, M, slices._BLOCK, dtype=np.int64)[:, None]
    A, B, t = y + S * i, y + S * (M - i), np.full_like(i, 2 * M)
    tracemalloc.start()
    try:
        slices._row_minima(A, B, t, D, S, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak < 2 * 2**20


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
