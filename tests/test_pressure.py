import importlib
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    exact_masses,
    log_masses,
    mc_pressure,
    sampled_log_masses,
    sampled_words,
    word_product,
)

from fracphase.errors import InputError
from fracphase.lattice import menger, project, sierpinski
from fracphase.line_ifs import LineIFS, normalize
from fracphase.pressure import (
    _block_digits,
    _masses_exact_dfs,
    _product_tables,
    _renorm_every,
    _sampled_log_masses,
    _sampled_words,
    lyapunov,
    pressure,
)
from fracphase.simulate import sample_survival, stream
from fracphase.type_system import compute_type_system


# the package exports the function pressure under the submodule's name
pressure_mod = importlib.import_module("fracphase.pressure")


@pytest.fixture(scope="module")
def systems():
    return {
        "menger": compute_type_system(project(menger(), (1, 1, 1))),
        "menger-137": compute_type_system(project(menger(), (1, 3, 7))),
        "carpet-diag": compute_type_system(project(sierpinski(), (1, -1))),
        "carpet-axis": compute_type_system(project(sierpinski(), (1, 0))),
    }


def test_endpoint_identities_exact(systems):
    for ts in systems.values():
        for n in range(1, 6):
            p0 = pressure(ts, 0, n)
            assert p0.value == pytest.approx(1.0, abs=1e-12)
            assert p0.mass_sum == ts.L**n
            p1 = pressure(ts, 1, n)
            assert p1.mass_sum == ts.M**n  # exact mass conservation
            assert p1.value == pytest.approx(
                math.log(ts.M) / math.log(ts.L), rel=1e-12
            )


# (value.hex(), mass_sum.hex()) of exact pressure at n = 5, captured from an
# enumeration of full N x N matrix products; the row-vector walk must
# reproduce them bit for bit.
EXACT_PRESSURE_N5 = {
    ("menger", 0.5): ("0x1.dce74008a44f2p+0", "0x1.b27c18564dfb9p+14"),
    ("menger", -0.5): ("0x1.1adfa5b68029cp-3", "0x1.1158d8eca18ddp+1"),
    ("menger", 2): ("0x1.1d4c327a83639p+2", "0x1.41229786f5c29p+35"),
    ("menger-137", 0.5): ("0x1.dd08dbecfe46ap+0", "0x1.b3b5de4770d0dp+14"),
    ("menger-137", -0.5): ("0x1.17b9376635a3cp-3", "0x1.0f0c185177cc5p+1"),
    ("menger-137", 2): ("0x1.1d08e0350bb02p+2", "0x1.39f7d09f922afp+35"),
}


def test_exact_pressure_golden_values(systems):
    for (name, t), (value, mass_sum) in EXACT_PRESSURE_N5.items():
        est = pressure(systems[name], t, 5)
        assert (est.value.hex(), est.mass_sum.hex()) == (value, mass_sum)
        assert est.method == "exact-enumeration"


def test_exact_walk_memory_does_not_grow_with_the_word_count(systems):
    # the depth-first walk holds one row per level, O(n N); 3^10 = 59,049
    # words against 3^6 = 729 may add a few rows, not a list of the words
    peaks = []
    for n in (6, 10):
        tracemalloc.start()
        try:
            pressure(systems["menger"], 0.5, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**14


def test_exact_walk_at_the_word_budget_stays_small(systems):
    # 3^12 = 531,441 words is the most the budget allows for L = 3
    ts = systems["menger"]
    assert ts.L**12 <= pressure_mod._WORD_BUDGET < ts.L**13
    tracemalloc.start()
    try:
        mass_sum = pressure(ts, 1, 12).mass_sum  # sums the walk as it goes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mass_sum == ts.M**12
    assert peak < 2**20


# R = 2^20 + 1: products of three digits are past 2^53, so k = 2, not 12
WIDE_ROWS = SimpleNamespace(L=2, N=1, matrices=(((2**20 + 1,),), ((3,),)))
# R = 2^600: k = 1, and two steps could pass 2^1000, so the walk renormalizes every step
HUGE_ROWS = SimpleNamespace(L=2, N=1, matrices=(((2**600,),), ((3,),)))
# L^k - 1 = 69,999 needs uint32 table indices
MANY_DIGITS = SimpleNamespace(L=70000, N=1, matrices=tuple(((a % 3 + 1,),) for a in range(70000)))


def test_block_digits_follow_the_table_and_float_bounds(systems):
    # the largest k with L^k N^2 <= 4096 and R^k < 2^53
    got = {name: _block_digits(ts) for name, ts in systems.items()}
    assert got == {"menger": 5, "menger-137": 3, "carpet-diag": 6, "carpet-axis": 7}
    assert [_block_digits(ts) for ts in (WIDE_ROWS, HUGE_ROWS, MANY_DIGITS)] == [2, 1, 1]
    # and r steps of k digits between renormalizations keep N R^(k r) < 2^1000
    got = {name: _renorm_every(ts, got[name]) for name, ts in systems.items()}
    assert got == {"menger": 49, "menger-137": 83, "carpet-diag": 55, "carpet-axis": 71}
    for ts in (*systems.values(), WIDE_ROWS, HUGE_ROWS, MANY_DIGITS):
        k = _block_digits(ts)
        r = _renorm_every(ts, k)
        R = max(max(map(sum, A)) for A in ts.matrices)
        assert r == 1 or ts.N * R ** (k * r) < 2**1000
    assert [_renorm_every(ts, _block_digits(ts)) for ts in (WIDE_ROWS, HUGE_ROWS)] == [23, 1]


def test_exact_walk_matches_full_products(systems):
    # n < k, n = k and n mod k != 0 vary both the suffix columns and the prefix walk
    for ts in systems.values():
        den = math.lcm(*(x.denominator for x in ts.nu))
        nu = [int(x * den) for x in ts.nu]
        for n in range(1, _block_digits(ts) + 4):
            assert list(_masses_exact_dfs(ts, n, nu)) == exact_masses(ts, n, nu)


def test_product_tables_hold_exact_integer_products(systems):
    for ts in (*systems.values(), WIDE_ROWS):
        k = _block_digits(ts)
        tables = _product_tables(np.array(ts.matrices, dtype=float), k)
        assert [len(table) for table in tables] == [ts.L**j for j in range(1, k + 1)]
        for j, table in enumerate(tables, 1):
            for entry, word in zip(table, itertools.product(range(ts.L), repeat=j)):
                P = word_product(ts.matrices, word)
                assert max(map(max, P)) < 2**53
                assert entry.tolist() == P


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 12),
    name=st.sampled_from(["menger", "menger-137"]),
)
def test_float_walker_matches_exact_products(systems, seed, n, name):
    # one sample draws the word stream(seed, 0), so the float walk can be
    # checked against the exact matrix product of that word
    ts = systems[name]
    L = ts.L
    P = word_product(ts.matrices, stream(seed, 0).integers(0, L, size=n).tolist())
    mass = sum(x * y for row in P for x, y in zip(row, ts.nu))  # e^T A_w nu
    if mass == 0:
        return
    w_hat = lyapunov(ts, n, 1, seed=seed).w_hat
    assert n * w_hat == pytest.approx(math.log(sum(map(sum, P))), rel=1e-12)
    value = pressure(ts, 1, n, mode="mc", samples=1, seed=seed).value
    assert n * math.log(L) * (value - 1) == pytest.approx(math.log(mass), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("name", ["menger", "menger-137"])
def test_batched_walker_matches_per_sample_loop(systems, name, seed):
    ts = systems[name]
    k = _block_digits(ts)
    for weight in (np.ones(ts.N), np.array([float(x) for x in ts.nu])):
        # at n = 2000 a block walks 8 full renormalization runs and part of a ninth
        for n in (1, k - 1, k, k + 1, 2 * k + 1, 60, 2000):
            got = _sampled_log_masses(ts, n, 40, seed, weight)
            want = sampled_log_masses(ts, n, 40, seed, weight)
            assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("ts", [WIDE_ROWS, HUGE_ROWS, MANY_DIGITS], ids=["wide", "huge", "many"])
def test_walk_matches_per_sample_loop_at_extreme_row_sums_and_digit_counts(ts):
    # r = 23, then r = 1 (renormalized every step), then uint32 table indices
    for n in (1, 2, 3, 50, 130):
        got = _sampled_log_masses(ts, n, 20, 11, np.ones(1))
        assert got == pytest.approx(sampled_log_masses(ts, n, 20, 11, np.ones(1)), rel=1e-12, abs=0)


def test_one_block_holds_its_table_indices_at_two_bytes_a_digit(monkeypatch):
    # k = 1, so one index a digit; L = 300 needs uint16 for the digits and the indices
    ts = SimpleNamespace(L=300, N=1, matrices=tuple(((a % 3 + 1,),) for a in range(300)))
    assert _block_digits(ts) == 1
    n = 2**14
    samples = pressure_mod._BLOCK // n  # one block of _BLOCK digits
    draw = pressure_mod._sampled_words

    def drawn(*args):  # the peak from here on is what the walk holds beside its words
        words = draw(*args)
        tracemalloc.reset_peak()
        return words

    monkeypatch.setattr(pressure_mod, "_sampled_words", drawn)
    _sampled_log_masses(ts, n, samples, 0, np.ones(1))  # lazy set-up, outside the trace
    words_bytes = 2 * samples * n  # uint16 digits
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _sampled_log_masses(ts, n, samples, 0, np.ones(1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert samples * n == pressure_mod._BLOCK
    assert peak < words_bytes + 2 * pressure_mod._BLOCK + 2**16


@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("L", [2, 3, 5, 7, 2**31 + 1, 2**32 - 1])
def test_sampled_words_match_one_generator_per_word(L, seed):
    for n in (1, 2, 7, 20):
        want = sampled_words(L, n, 30, seed)
        assert (_sampled_words(L, n, seed, 0, 30) == want).all()
        assert (_sampled_words(L, n, seed, 11, 30) == want[11:]).all()


def test_sampled_words_rejection_branch_is_exercised():
    # at L = 2^31 + 1 about half of the 32-bit draws fall in Lemire's
    # rejection branch, so most words are drawn again through stream
    L, n, seed = 2**31 + 1, 3, 5
    rejected = 0
    for i in range(200):
        raw = np.random.Philox(key=np.array([seed, i], dtype=np.uint64)).random_raw(2)
        draws = [int(x) >> s & 0xFFFFFFFF for x in raw for s in (0, 32)][:n]
        rejected += any(u * L % 2**32 < (2**32 - L) % L for u in draws)
    assert 100 < rejected < 200
    assert (_sampled_words(L, n, seed, 0, 200) == sampled_words(L, n, 200, seed)).all()


def test_blocked_walk_matches_per_sample_loop(systems, monkeypatch):
    # blocks of 4 samples (the floor of _BLOCK / max(n, N^2) for N = 3, n = 9)
    monkeypatch.setattr(pressure_mod, "_BLOCK", 40)
    ts = systems["menger"]
    weight = np.ones(ts.N)
    got = _sampled_log_masses(ts, 9, 13, 7, weight)
    assert got == pytest.approx(sampled_log_masses(ts, 9, 13, 7, weight), rel=1e-12, abs=0)


def test_sampled_walk_at_the_draw_budget_holds_one_block(systems, monkeypatch):
    # only the float outputs, a few arrays of 8 bytes a sample, grow with the
    # sample count; the draws of one block (2^12 digits) are freed before the next
    monkeypatch.setattr(pressure_mod, "_BLOCK", 2**12)
    monkeypatch.setattr(pressure_mod, "_DRAW_BUDGET", 2**20)
    ts, n = systems["menger"], 256
    pressure(ts, 0.5, n, mode="mc", samples=2)  # lazy set-up, outside the trace
    peaks = []
    for samples in (2**10, 2**12):
        tracemalloc.start()
        try:
            pressure(ts, 0.5, n, mode="mc", samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 2**12 * n == pressure_mod._DRAW_BUDGET
    assert peaks[1] - peaks[0] < 64 * 3 * 2**10
    assert peaks[1] < 2**12 * n // 4  # a quarter of the draws, at one byte a digit


def test_sampled_digit_budget(systems):
    ts = systems["menger"]
    budget = pressure_mod._DRAW_BUDGET
    for samples, n in ((budget + 1, 1), (10**12, 20), (2, budget // 2 + 1)):
        with pytest.raises(InputError, match="budget"):
            lyapunov(ts, n, samples)
        with pytest.raises(InputError, match="budget"):
            pressure(ts, 0.5, n, mode="mc", samples=samples)


# digit 1 is nilpotent (A_1^2 = 0), so every word with two consecutive 1s
# has a zero row vector and log mass -inf
NILPOTENT = SimpleNamespace(
    L=2, N=2, nu=(Fraction(1, 3), Fraction(2, 3)),
    matrices=(((1, 1), (1, 1)), ((0, 1), (0, 0))),
)


@pytest.mark.parametrize("seed", [3, 2**64 - 1])
def test_batched_walker_keeps_dead_words(seed, monkeypatch):
    weight = np.array([1.0, 2.0])
    got = _sampled_log_masses(NILPOTENT, 8, 64, seed, weight)
    want = sampled_log_masses(NILPOTENT, 8, 64, seed, weight)
    dead = np.isneginf(want)
    assert 0 < dead.sum() < 64
    assert (np.isneginf(got) == dead).all()
    assert got[~dead] == pytest.approx(want[~dead], rel=1e-12, abs=0)
    # Monte Carlo pressure over the same words: dead words contribute 0
    nu = np.array([float(x) for x in NILPOTENT.nu])
    vals = [math.exp(0.5 * x) for x in sampled_log_masses(NILPOTENT, 8, 64, seed, nu)]
    est = pressure(NILPOTENT, 0.5, 8, mode="mc", samples=64, seed=seed)
    mean = sum(vals) / 64
    assert est.value == pytest.approx(1 + math.log(mean) / (8 * math.log(2)), rel=1e-12)
    # long words that die (at a digit pair 11) inside the first step, across the
    # first two, inside a step that renormalizes, between two renormalizations
    # and after the last one
    k, n = _block_digits(NILPOTENT), 2000
    run = k * _renorm_every(NILPOTENT, k)  # 490 digits from one renormalization to the next
    words = np.zeros((6, n), dtype=np.uint8)
    words[:, 1::2] = 1  # 0101... lives
    for row, at in enumerate((3, k - 1, run - 2, run + 100, n - 2), 1):
        words[row, at:at + 2] = 1
    monkeypatch.setattr(pressure_mod, "_sampled_words", lambda L, n, seed, start, stop: words[start:stop])
    got = _sampled_log_masses(NILPOTENT, n, 6, seed, weight)
    want = log_masses(NILPOTENT, words, weight)
    assert np.isneginf(want[1:]).all()
    assert np.isneginf(got[1:]).all()
    assert got[0] == pytest.approx(want[0], rel=1e-12)


# A_1 = 0, so every sampled word with a digit 1 has mass 0
DEAD_DIGIT_IFS = [LineIFS(3, ((0, 1), (2, 1))), LineIFS(2, ((0, 1),))]


@pytest.mark.parametrize("ifs", DEAD_DIGIT_IFS)
def test_dead_words_weigh_as_in_exact_enumeration(ifs):
    ts = compute_type_system(ifs)
    assert not any(map(any, ts.matrices[1]))
    for mode in ("exact", "mc"):
        assert pressure(ts, 0, 3, mode=mode, samples=50).value == 1.0
        with pytest.raises(InputError, match="zero cylinder mass"):
            pressure(ts, -1, 3, mode=mode, samples=50)
    est = lyapunov(ts, 5, 20)
    assert est.w_hat == est.ci_low == est.ci_high == est.first_level_mean == -math.inf


def test_pressure_monotone_and_convex(systems):
    ts = systems["menger"]
    ts_points = [0.0, 0.25, 0.5, 0.75, 1.0]
    vals = [pressure(ts, t, 4).value for t in ts_points]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    # midpoint convexity of log of the partition sum translates here to
    # P(mid) <= (P(lo) + P(hi)) / 2 in (n log L)-normalized units
    for i in (1, 2, 3):
        assert vals[i] <= (vals[i - 1] + vals[i + 1]) / 2 + 1e-12


def test_monte_carlo_matches_exact(systems):
    ts = systems["carpet-diag"]
    exact = pressure(ts, 0.5, 6).value
    mc = pressure(ts, 0.5, 6, mode="mc", samples=4000, seed=3)
    assert mc.stderr is not None
    assert abs(mc.value - exact) < 5 * mc.stderr + 1e-3


@pytest.mark.parametrize("n", [20, 400])
@pytest.mark.parametrize("name", ["menger", "menger-137"])
def test_monte_carlo_pressure_matches_a_log_space_oracle(systems, name, n):
    ts = systems[name]
    ests = {t: pressure(ts, t, n, mode="mc", samples=200, seed=7) for t in (-3, -0.5, 0.5, 2, 10)}
    for t, est in ests.items():
        value, stderr = mc_pressure(ts, t, n, 200, 7)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)
        assert est.mass_sum is None
    if (name, n) == ("menger", 400):
        # a mass sum past the float range, and squares of m(w)^t below it
        assert ests[0.5].value == pytest.approx(1.8628597529018829, rel=1e-12)
        assert ests[-0.5].stderr == pytest.approx(0.00013336990192817295, rel=1e-12)


def test_pressure_input_errors(systems):
    ts = systems["menger"]
    with pytest.raises(InputError):
        pressure(ts, 0.5, 0)
    with pytest.raises(InputError):
        pressure(ts, 0.5, 20)
    with pytest.raises(InputError):
        pressure(ts, 0.5, 2, mode="nope")
    for n, samples in ((0, 10), (5, 0)):
        with pytest.raises(InputError, match=">= 1"):
            lyapunov(ts, n, samples)
    # every m(w)^t underflows, but the mean is taken relative to the largest
    est = pressure(ts, -1e6, 5, mode="mc", samples=50)
    assert (est.value, est.stderr) == pytest.approx(mc_pressure(ts, -1e6, 5, 50, 0), rel=1e-12)
    # only a t log m(w) past the float range is refused; no word is dead
    for t in (1e308, -1e308):
        with pytest.raises(InputError, match=re.escape(f"t = {t}, n = 5 leave the float range")):
            pressure(ts, t, 5, mode="mc", samples=50)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_norm_submultiplicative(systems, seed):
    ts = systems["menger"]
    rng = random.Random(seed)
    u = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
    v = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
    nu, nv, nuv = (sum(map(sum, word_product(ts.matrices, w))) for w in (u, v, u + v))
    assert nuv <= nu * nv


def test_lyapunov_single_type_is_zero():
    ts = compute_type_system(normalize(2, [0, 1]))
    est = lyapunov(ts, 50, 20, seed=1)
    assert est.w_hat == 0.0
    assert est.ci_low == est.ci_high == 0.0


def test_lyapunov_below_reference_bound(systems):
    ts = systems["menger"]
    est = lyapunov(ts, 200, 100, seed=42)
    assert est.bound_log_m_over_l == pytest.approx(math.log(20 / 3))
    # subadditivity: the depth-n mean never exceeds the depth-1 mean
    assert est.w_hat <= est.first_level_mean + 1e-9
    assert est.ci_low <= est.w_hat <= est.ci_high


def test_lyapunov_deterministic_given_seed(systems):
    ts = systems["carpet-diag"]
    a = lyapunov(ts, 100, 50, seed=5)
    b = lyapunov(ts, 100, 50, seed=5)
    assert a == b
    c = lyapunov(ts, 100, 50, seed=6)
    assert c.w_hat != a.w_hat


def test_lyapunov_streams_cover_the_seed_domain(systems):
    ts = systems["carpet-diag"]
    estimates = {
        lyapunov(ts, 20, 10, seed=s).w_hat for s in (0, 2**64 - 1, 2**64 - 2)
    }
    assert len(estimates) == 3
    for bad in (-1, 2**64, 1.5, True, "3"):
        with pytest.raises(InputError):
            lyapunov(ts, 20, 10, seed=bad)
    with pytest.raises(InputError):
        stream(1.5, 0)
    with pytest.raises(InputError):
        sample_survival(20, 0.5, 2, 1.5)


def test_entries_and_totals_past_the_float_range():
    ts = compute_type_system(LineIFS(2, ((0, 10**400), (1, 1))))
    with pytest.raises(InputError, match="past the float range"):
        lyapunov(ts, 2, 10)
    with pytest.raises(InputError, match="past the float range"):
        pressure(ts, 0.5, 2, mode="mc", samples=10)
    # entries below the float range whose row sums pass it (this gave NaN)
    ts = compute_type_system(LineIFS(2, ((0, 10**308), (1, 10**308), (2, 1))))
    with pytest.raises(InputError, match="past the float range"):
        lyapunov(ts, 3, 10)
    with pytest.raises(InputError, match="past the float range"):
        pressure(ts, 0.5, 3, mode="mc", samples=10)
    # the exact mass sum M^n at t = 1 is past the float range; its log is not
    ts = compute_type_system(LineIFS(2, ((0, 10**200), (1, 1))))
    assert pressure(ts, 1, 3).value == pytest.approx(math.log(10**200 + 1) / math.log(2))


def test_zero_measure_estimate_carpet(systems):
    ts = systems["carpet-diag"]
    est = lyapunov(ts, 200, 100, seed=7)
    assert est.w_hat > 1e-12
    assert est.bound_log_m_over_l == pytest.approx(math.log(8 / 3))
    assert est.w_hat < est.bound_log_m_over_l  # exp(-w) exceeds L/M
    assert est.ci_low <= est.w_hat <= est.ci_high
