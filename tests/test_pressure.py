import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracphase.errors import InputError
from fracphase.lattice import menger, project, sierpinski
from fracphase.line_ifs import normalize
from fracphase.pressure import (
    lyapunov,
    pressure,
    zero_measure_threshold_estimate,
)
from fracphase.simulate import stream
from fracphase.type_system import (
    Word,
    compute_type_system,
    covering_cylinder_count,
    cylinder_measure,
)


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
    w = Word(tuple(int(a) for a in stream(seed, 0).integers(0, L, size=n)), L)
    mass = ts.M**n * sum(cylinder_measure(ts, l, w) for l in range(ts.N))
    if mass == 0:
        return
    w_hat = lyapunov(ts, n, 1, seed=seed).w_hat
    assert n * w_hat == pytest.approx(
        math.log(covering_cylinder_count(ts, w)), rel=1e-12
    )
    value = pressure(ts, 1, n, mode="mc", samples=1, seed=seed).value
    assert n * math.log(L) * (value - 1) == pytest.approx(math.log(mass), rel=1e-12)


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


def test_pressure_input_errors(systems):
    ts = systems["menger"]
    with pytest.raises(InputError):
        pressure(ts, 0.5, 0)
    with pytest.raises(InputError):
        pressure(ts, 0.5, 20)
    with pytest.raises(InputError):
        pressure(ts, 0.5, 2, mode="nope")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_norm_submultiplicative(systems, seed):
    ts = systems["menger"]
    rng = random.Random(seed)
    u = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
    v = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
    nu = covering_cylinder_count(ts, Word(u, 3))
    nv = covering_cylinder_count(ts, Word(v, 3))
    nuv = covering_cylinder_count(ts, Word(u + v, 3))
    assert nuv <= nu * nv


def test_lyapunov_single_type_is_zero():
    ts = compute_type_system(normalize(2, [0, 1]))
    est = lyapunov(ts, 50, 20, seed=1)
    assert est.w_hat == 0.0
    zm = zero_measure_threshold_estimate(ts, est)
    assert zm.degenerate
    assert zm.b_hat == 1.0


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
    for bad in (-1, 2**64):
        with pytest.raises(InputError):
            lyapunov(ts, 20, 10, seed=bad)


def test_zero_measure_estimate_carpet(systems):
    ts = systems["carpet-diag"]
    est = lyapunov(ts, 200, 100, seed=7)
    zm = zero_measure_threshold_estimate(ts, est)
    assert not zm.degenerate
    assert zm.trivial_bound == pytest.approx(3 / 8)
    assert zm.consistent  # exp(-w) exceeds L/M
    assert zm.ci_low <= zm.b_hat <= zm.ci_high
