"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (to the real stdout, so it shows
up in the pytest log) and enforces its own wall-clock budget.  Frozen
expected values come from independent oracles (exact polygon clipping,
exhaustive word enumeration) or from hand-checked small cases.
"""

import math
import os
import random
import time
from fractions import Fraction

import numpy as np

from fracphase.lattice import menger, project, sierpinski
from fracphase.line_ifs import scale
from fracphase.phase import (
    extinction_probability,
    menger_disconnection_threshold,
    phase_report,
)
from fracphase.pressure import lyapunov, pressure
from fracphase.simulate import interface_process, sample_survival
from fracphase.slices import ftilde, plane, verify_grid
from fracphase.type_system import compute_type_system
from oracles import brute_force_entry, clip_area, random_small_ifs, word_product


def _verdict(capsys, num: int, name: str, ok: bool) -> None:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_acceptance_1_exact_type_systems(capsys):
    start = time.monotonic()
    ok = True
    ts = compute_type_system(project(menger(), (1, 1, 1)))
    ok &= ts.matrices == (
        ((1, 0, 0), (6, 3, 3), (1, 3, 3)),
        ((3, 1, 0), (3, 6, 3), (0, 1, 3)),
        ((3, 3, 1), (3, 3, 6), (0, 0, 1)),
    )
    ok &= ts.nu == (Fraction(1, 5), Fraction(3, 5), Fraction(1, 5))
    axis = compute_type_system(scale(project(menger(), (1, 0, 0)), 3))
    ok &= axis.matrices[1] == ((0, 8, 0), (0, 4, 0), (0, 8, 0))
    diag = compute_type_system(project(sierpinski(), (1, -1)))
    ok &= diag.matrices == (
        ((1, 0), (2, 2)),
        ((2, 1), (1, 2)),
        ((2, 2), (0, 1)),
    )
    ok &= diag.nu == (Fraction(1, 2), Fraction(1, 2))
    caxis = compute_type_system(scale(project(sierpinski(), (1, 0)), 3))
    ok &= caxis.matrices == (
        ((3, 0, 0), (2, 0, 0), (3, 0, 0)),
        ((0, 3, 0), (0, 2, 0), (0, 3, 0)),
        ((0, 0, 3), (0, 0, 2), (0, 0, 3)),
    )
    ok &= time.monotonic() - start < 1.0
    _verdict(capsys, 1, "exact transition matrices", bool(ok))


def test_acceptance_2_exact_thresholds(capsys):
    start = time.monotonic()
    ok = True
    rep = phase_report(compute_type_system(project(menger(), (1, 1, 1))))
    ok &= rep.p_extinction == Fraction(1, 20)
    ok &= rep.p_dim1 == Fraction(3, 20)
    ok &= rep.interval_threshold == Fraction(1, 6)
    ok &= rep.interval_witness is not None and len(rep.interval_witness) == 1
    thr = rep.positive_measure_threshold
    ok &= (thr.base, thr.root) == (288, 3)
    ok &= thr.sign(Fraction(16, 100)) > 0 and thr.sign(Fraction(15, 100)) < 0
    axis = phase_report(
        compute_type_system(scale(project(menger(), (1, 0, 0)), 3))
    )
    ok &= axis.no_interval_threshold.lower <= Fraction(1, 4) <= axis.no_interval_threshold.upper
    diag = phase_report(compute_type_system(project(sierpinski(), (1, -1))))
    ok &= diag.interval_threshold == Fraction(1, 2)
    dthr = diag.positive_measure_threshold
    ok &= (dthr.base, dthr.root) == (18, 3)
    disc = menger_disconnection_threshold()
    ok &= disc.sign(Fraction(35, 100)) < 0 and not disc.sign(Fraction(36, 100)) < 0
    ok &= time.monotonic() - start < 1.0
    _verdict(capsys, 2, "exact phase thresholds", bool(ok))


def test_acceptance_3_grid_certificate(capsys):
    start = time.monotonic()
    workers = min(8, os.cpu_count() or 1)
    coarse_start = time.monotonic()
    coarse = verify_grid(Fraction(1, 100), workers=workers)
    ok = time.monotonic() - coarse_start < 60.0
    ok &= coarse.minimum > 0
    fine = verify_grid(Fraction(1, 500), workers=workers)
    ok &= fine.minimum == Fraction(62509, 1125000)
    ok &= fine.argmin == (Fraction(1, 3), Fraction(1, 3), Fraction(83, 500))
    ok &= fine.certified
    ok &= fine.minimum**2 > 675 * Fraction(1, 500) ** 2
    ok &= time.monotonic() - start < 1800.0
    _verdict(capsys, 3, "certified slice-inequality grid", bool(ok))


def test_acceptance_4_oracle_equivalence(capsys):
    start = time.monotonic()
    ok = True
    rng = random.Random(20260823)
    denom = 840
    for _ in range(10**4):
        a = Fraction(rng.randint(0, denom), denom)
        b = Fraction(rng.randint(0, denom), denom)
        if a > b:
            a, b = b, a
        c = Fraction(rng.randint(-3 * denom, 2 * denom), denom)
        if ftilde(plane(a, b, c)) != clip_area(a, b, c):
            ok = False
            break
    systems = 0
    while systems < 100 and ok:
        ifs = random_small_ifs(rng)
        ts = compute_type_system(ifs)
        word = tuple(rng.randrange(ifs.L) for _ in range(rng.randint(1, 4)))
        Aw = word_product(ts.matrices, word)
        for ell in range(ts.N):
            for k in range(ts.N):
                if Aw[ell][k] != brute_force_entry(ifs, ts.basic_offsets, word, ell, k):
                    ok = False
        systems += 1
    ok &= systems == 100
    ok &= time.monotonic() - start < 120.0
    _verdict(capsys, 4, "independent-oracle equivalence", bool(ok))


def test_acceptance_5_pressure_identities(capsys):
    start = time.monotonic()
    ok = True
    cases = [
        compute_type_system(project(menger(), (1, 1, 1))),
        compute_type_system(project(sierpinski(), (1, -1))),
        compute_type_system(project(sierpinski(), (1, 0))),
    ]
    for ts in cases:
        target = math.log(ts.M) / math.log(ts.L)
        for n in range(1, 7):
            p0 = pressure(ts, 0, n)
            p1 = pressure(ts, 1, n)
            ok &= abs(p0.value - 1.0) < 1e-12
            ok &= p1.mass_sum == ts.M**n
            ok &= abs(p1.value - target) < 1e-12
    ok &= time.monotonic() - start < 60.0
    _verdict(capsys, 5, "pressure endpoint identities", bool(ok))


def test_acceptance_6_statistical_checks(capsys):
    start = time.monotonic()
    ok = True

    # (a) mean retained count at depth 2 matches (M p)^2, 3 sigma, 250 reps
    M, p, n, reps = 20, Fraction(3, 10), 2, 250
    counts = [len(sample_survival(M, p, n, seed=s).retained) for s in range(reps)]
    mean = sum(counts) / reps
    var = sum((c - mean) ** 2 for c in counts) / (reps - 1)
    ok &= abs(mean - float((M * p) ** n)) <= 3 * math.sqrt(var / reps)

    # (b) extinction frequency vs the pgf fixed point, via the branching
    # recursion Z <- Binomial(M Z, p), 2000 replicas at depth 50
    for Mb, pb in [(20, 0.1), (20, 0.15), (8, 0.2)]:
        q = extinction_probability(Mb, pb)
        extinct = 0
        replicas = 2000
        for i in range(replicas):
            gen = np.random.Generator(np.random.Philox(key=[77 * 1000 + Mb, i]))
            z = 1
            for _ in range(50):
                if z == 0 or z > 10**6:
                    break
                z = int(gen.binomial(Mb * z, pb))
            extinct += z == 0
        se = math.sqrt(max(q * (1 - q), 1e-6) / replicas)
        ok &= abs(extinct / replicas - q) <= 3 * se + 0.01

    # (c) face-interface process: a.s. extinction at p = 0.3, matches the
    # analytic fixed point at p = 0.5
    sub = interface_process(0.3, 40, 300, seed=5)
    ok &= sub.extinction_frequency == 1.0 and sub.analytic_fixed_point == 1.0
    sup = interface_process(0.5, 40, 400, seed=6)
    qi = sup.analytic_fixed_point
    ok &= abs(sup.extinction_frequency - qi) <= 3 * math.sqrt(qi * (1 - qi) / 400) + 0.01

    # (d) Lyapunov exponent of the norm cocycle: the 95% CI sits below the
    # trivial bound log(M/L), and exp(-w) lands strictly between L/M and
    # the interval threshold 1/6
    ts = compute_type_system(project(menger(), (1, 1, 1)))
    est = lyapunov(ts, n=800, samples=500, seed=42)
    ok &= est.ci_high < math.log(20 / 3)
    b_hat = math.exp(-est.w_hat)
    ok &= 0.15 < b_hat < 1 / 6

    ok &= time.monotonic() - start < 600.0
    _verdict(capsys, 6, "statistical consistency", bool(ok))
