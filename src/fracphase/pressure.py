"""Pressure function and Lyapunov exponent of the matrix cocycle.

The pressure is ``P_n(t) = log(sum over |w|=n of m(w)^t) / (n log L)`` where
``m(w) = e^T A_w nu`` is the measure-weighted mass of the depth-n cylinders
with L-adic tail ``w`` (times M^n).  With this weighting the finite-depth
identities are exact at every n: ``P_n(0) = 1`` and ``sum m(w) = M^n`` (mass
conservation), so ``P_n(1) = log M / log L``.  The all-ones norm
``||A|| = e^T A e`` satisfies ``sum ||A_w|| = N * M^n`` instead; since nu is
strictly positive the two weightings are equivalent and define the same
pressure limit.

The Lyapunov exponent is the almost-sure limit of
``(1/n) log ||A_{a_1..a_n}||`` (all-ones norm, matching the covering-count
bound) under uniform digits; ``exp(-w)`` estimates the zero-measure threshold
of the percolation parameter.

Mass sums are exact rationals whenever t is 0 or 1; logs are taken in double
precision at the end.  Monte Carlo sampling uses a counter-based generator
keyed by (seed, sample index) so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .simulate import stream
from .type_system import TypeSystem

_WORD_BUDGET = 10**6  # most words exact enumeration visits


@dataclass(frozen=True)
class PressureEstimate:
    t: float
    n: int
    value: float
    method: str  # "exact-enumeration" | "monte-carlo"
    mass_sum: Fraction | float  # exact for exact mode with t in {0, 1}
    stderr: float | None = None


@dataclass(frozen=True)
class LyapunovEstimate:
    n: int
    samples: int
    seed: int
    w_hat: float
    ci_low: float
    ci_high: float
    bound_log_m_over_l: float  # reference upper bound log(M/L)
    first_level_mean: float  # E log||A_a||, a subadditivity proxy


def _masses_exact_dfs(ts: TypeSystem, n: int, nu: list[int]):
    """Yield e^T A_w nu (an integer) for every word |w| = n, in lexicographic order.

    The depth-first walk carries the row vector e^T A_w of Python integers,
    so it costs O(N^2) per node and O(n N) memory; the last digit is folded
    into the precomputed columns A_a nu.
    """
    mats = [np.array(A, dtype=object) for A in ts.matrices]
    ends = [A @ np.array(nu, dtype=object) for A in mats]

    def rec(row, left):
        if left == 1:
            for v in ends:
                yield row @ v
            return
        for A in mats:
            yield from rec(row @ A, left - 1)

    yield from rec(np.ones(ts.N, dtype=object), n)


def _sampled_log_masses(ts: TypeSystem, n: int, samples: int, seed: int, weight):
    """log(e^T A_w weight) in floats for the words w = stream(seed, i), i < samples.

    Each word walks a row vector from all-ones, renormalized per step, so
    a step costs O(N^2); the float matrices are built once.
    """
    if n < 1 or samples < 1:
        raise InputError("n and samples must be >= 1")
    mats = np.array(ts.matrices, dtype=float)
    out = np.full(samples, -math.inf)
    for i in range(samples):
        row = np.ones(ts.N)
        acc = 0.0
        for a in stream(seed, i).integers(0, ts.L, size=n):
            row = row @ mats[a]
            s = row.sum()
            if s == 0:
                break
            acc += math.log(s)
            row /= s
        else:  # row sums to 1 and weight > 0, so the tail is positive
            out[i] = acc + math.log(row @ weight)
    return out


def pressure(
    ts: TypeSystem,
    t: float,
    n: int,
    mode: str = "exact",
    samples: int = 10000,
    seed: int = 0,
) -> PressureEstimate:
    """Finite-depth pressure P_n(t) by exact enumeration or Monte Carlo."""
    if n < 1:
        raise InputError("depth n must be >= 1")
    if not math.isfinite(t):
        raise InputError(f"t must be finite, got {t}")
    L = ts.L
    log_l = math.log(L)
    if mode == "exact":
        if L**n > _WORD_BUDGET:
            raise InputError(
                f"exact enumeration needs {L**n} words, budget is {_WORD_BUDGET}"
            )
        # m(w) = k / den with integer k, once nu is scaled to integers
        den = math.lcm(*(x.denominator for x in ts.nu))
        masses = _masses_exact_dfs(ts, n, [int(x * den) for x in ts.nu])
        if t == 0:
            total: Fraction | float = Fraction(L**n)
        elif t == 1:
            total = Fraction(sum(masses), den)
        else:
            total = 0.0
            for k in masses:
                if k == 0:
                    if t < 0:
                        raise InputError("zero cylinder mass with negative t")
                    continue
                total += math.exp(t * math.log(k / den))
        value = math.log(total) / (n * log_l)
        return PressureEstimate(t, n, value, "exact-enumeration", total)
    if mode != "mc":
        raise InputError(f"unknown pressure mode {mode!r}")
    # Monte Carlo: total ~= L^n * mean(m(w)^t) over uniform words
    nu = np.array([float(x) for x in ts.nu])
    logs = _sampled_log_masses(ts, n, samples, seed, nu)
    vals = np.array([math.exp(t * x) for x in logs])
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    total = (L**n) * mean
    value = (n * log_l + math.log(mean)) / (n * log_l)
    stderr = se / (mean * n * log_l) if mean > 0 else None
    return PressureEstimate(t, n, value, "monte-carlo", total, stderr)


def lyapunov(ts: TypeSystem, n: int, samples: int, seed: int = 0) -> LyapunovEstimate:
    """Monte Carlo estimate of the Lyapunov exponent of the norm cocycle."""
    L = ts.L
    vals = _sampled_log_masses(ts, n, samples, seed, np.ones(ts.N)) / n
    w_hat = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    half = 1.959963984540054 * se  # 95% normal CI
    first = sum(
        math.log(sum(sum(row) for row in A)) for A in ts.matrices
    ) / L
    return LyapunovEstimate(
        n=n,
        samples=samples,
        seed=seed,
        w_hat=w_hat,
        ci_low=w_hat - half,
        ci_high=w_hat + half,
        bound_log_m_over_l=math.log(ts.M / L),
        first_level_mean=first,
    )


@dataclass(frozen=True)
class ZeroMeasureEstimate:
    b_hat: float  # exp(-w_hat)
    ci_low: float
    ci_high: float
    trivial_bound: float  # L / M; b_hat should exceed this
    degenerate: bool  # single-type systems carry no norm growth
    consistent: bool  # b_hat > L / M as the theory predicts


def zero_measure_threshold_estimate(
    ts: TypeSystem, est: LyapunovEstimate
) -> ZeroMeasureEstimate:
    """Translate a Lyapunov estimate into the zero-measure p-threshold."""
    b_hat = math.exp(-est.w_hat)
    trivial = ts.L / ts.M
    degenerate = ts.N == 1 or est.w_hat <= 1e-12
    return ZeroMeasureEstimate(
        b_hat=b_hat,
        ci_low=math.exp(-est.ci_high),
        ci_high=math.exp(-est.ci_low),
        trivial_bound=trivial,
        degenerate=degenerate,
        consistent=b_hat > trivial,
    )
