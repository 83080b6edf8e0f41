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

Exact mass sums are rationals at t = 0, 1 and floats otherwise; a float sum
past the float range is redone as c + log sum exp(t log m(w) - c), c the
largest term, as Monte Carlo takes log mean m(w)^t.  Both refuse only a t log
m(w) past the float range.  Sampled-word scheme: Monte Carlo word i of a seed
is ``simulate.stream(seed, i).integers(0, L, size=n)``.  One Philox, rekeyed to
key (seed, i), counter 0 and an empty buffer, gives ``random_raw(ceil(n/2))``;
digit j is Lemire's ``(u L) >> 32`` of the j-th 32-bit half u (low half first),
as in ``Generator.integers``.  A word that reaches Lemire's rejection branch
``(u L) mod 2^32 < (2^32 - L) mod L`` (probability about n L / 2^32) is drawn
again through ``stream``.  Both walks step k digits at a time (``_block_digits``):
the L^k products of k digit matrices fit a table of at most 4096 entries, each
an integer below 2^53.  The sampled walk renormalizes its float rows once every
r steps (``_renorm_every``), r as large as keeps every row sum below 2^1000.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING

from .errors import InputError, check_int, shown
from .simulate import _check_seed, stream
from .type_system import TypeSystem

if TYPE_CHECKING:
    import numpy as np

_WORD_BUDGET = 10**6  # most words exact enumeration visits
_DRAW_BUDGET = 10**7  # most digits (samples * n) one Monte Carlo estimate draws
_BLOCK = 2**20  # most digits or gathered matrix entries one block of samples holds


@dataclass(frozen=True)
class PressureEstimate:
    t: float
    n: int
    value: float
    method: str  # "exact-enumeration" | "monte-carlo"
    mass_sum: Fraction | float | None  # exact at t in {0, 1}; None in Monte Carlo or in logs
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


def _block_digits(ts: TypeSystem) -> int:
    """Largest k >= 1 with L^k N^2 <= 4096 and R^k < 2^53, R the largest row sum of an A_a."""
    R = max(max(map(sum, A)) for A in ts.matrices)
    k = 1
    while ts.L ** (k + 1) * ts.N**2 <= 4096 and R ** (k + 1) < 2**53:
        k += 1
    return k


def _masses_exact_dfs(ts: TypeSystem, n: int, nu: list[int]):
    """Yield e^T A_w nu (an integer) for every word |w| = n, in lexicographic order.

    The columns A_v nu of every suffix v of j = min(n, k) digits are
    precomputed, and the prefixes are walked depth first on an explicit stack
    of rows e^T A_u in Python integers; memory is O(n L N + L^j N).
    """
    j = min(n, _block_digits(ts))
    ends = [nu]
    for _ in range(j):
        ends = [[sum(map(mul, r, v)) for r in A] for A in ts.matrices for v in ends]
    cols = [list(zip(*A)) for A in reversed(ts.matrices)]  # the stack pops digit 0 first
    stack = [([1] * ts.N, n - j)]
    while stack:
        row, left = stack.pop()
        if left:
            stack += (([sum(map(mul, row, c)) for c in C], left - 1) for C in cols)
        else:
            for v in ends:
                yield sum(map(mul, row, v))


def _sampled_words(L: int, n: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Words i of the sampled-word scheme for start <= i < stop (L <= 2^32)."""
    import numpy as np

    bits, key = np.random.Philox(0), [seed, 0]  # lists convert faster than arrays
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    raw = np.empty((stop - start, (n + 1) // 2), dtype="<u8")
    for row in range(len(raw)):
        key[1] = start + row
        bits.state = state
        raw[row] = bits.random_raw(raw.shape[1])
    prod = raw.view("<u4")[:, :n].astype("<u8")
    prod *= L  # u L < 2^64; its little-endian halves are the remainder, then the digit
    halves = prod.view("<u4")
    words = halves[:, 1::2].astype(np.min_scalar_type(L - 1))
    for row in np.flatnonzero((halves[:, 0::2] < (2**32 - L) % L).any(axis=1)).tolist():
        words[row] = stream(seed, start + row).integers(0, L, size=n)
    return words


def _product_tables(mats: np.ndarray, k: int) -> list:
    """tables[j - 1] holds A_v for every word v of j <= k digits, in lexicographic order."""
    tables = [mats]
    while len(tables) < k:
        tables.append((tables[-1][:, None] @ mats).reshape(-1, *mats.shape[1:]))
    return tables


def _renorm_every(ts: TypeSystem, k: int) -> int:
    """Steps of k digits between renormalizations: r = (1000 - b(N)) // (k b(R)), at least 1.

    b is the bit length and R the largest row sum of an A_a.  r steps grow a
    row's sum at most R^(k r)-fold, so rows that start at all-ones or at sum 1
    stay below 2^1000 whenever that quotient is at least 1.
    """
    R = max(max(map(sum, A)) for A in ts.matrices)
    return max(1, (1000 - ts.N.bit_length()) // (k * R.bit_length()))


def _sampled_log_masses(ts: TypeSystem, n: int, samples: int, seed: int, weight):
    """log(e^T A_w weight) in floats for the words w = stream(seed, i), i < samples.

    Samples walk together in blocks: a block of row vectors starts at all-ones,
    and each step multiplies every row by the product of its own next k digits,
    so ceil(n/k) steps of O(N^2) walk a sample.  The table indices of a block
    are read off its words once, and its rows are renormalized to sum 1 only
    every r = ``_renorm_every(ts, k)`` steps.  A row that reaches 0 turns NaN
    at its next renormalization (0/0); its word comes out -inf either way.
    """
    import numpy as np

    if samples * n > _DRAW_BUDGET:
        raise InputError(
            f"{shown(samples)} samples of {shown(n)} digits exceed the budget {_DRAW_BUDGET}"
        )
    L, k = ts.L, _block_digits(ts)
    try:
        tables = _product_tables(np.array(ts.matrices, dtype=float), min(n, k))
    except OverflowError:
        raise InputError("a digit matrix entry is past the float range") from None
    r = _renorm_every(ts, k)
    out = np.empty(samples)
    block = max(1, _BLOCK // max(n, ts.N**2))
    for start in range(0, samples, block):
        words = _sampled_words(L, n, seed, start, min(samples, start + block))
        index = words[:, ::k].astype(np.min_scalar_type(L**k - 1))
        for d in range(1, k):  # index[:, c] reads digits c k .. c k + k - 1 in base L
            digits = words[:, d::k]
            index[:, :digits.shape[1]] *= L
            index[:, :digits.shape[1]] += digits
        rows = np.ones((len(words), ts.N))
        acc = np.zeros(len(words))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for c in range(1, index.shape[1] + 1):  # the last of ceil(n/k) steps may be short
                table = tables[-1] if c * k <= n else tables[n % k - 1]
                rows = np.einsum("si,sij->sj", rows, table.take(index[:, c - 1], axis=0))
                if c % r == 0:
                    total = rows.sum(axis=1)
                    if np.isposinf(total).any():  # r = 1, and one step passed the float range
                        raise InputError("a product of digit matrices is past the float range")
                    acc += np.log(total)
                    rows /= total[:, None]
            logs = acc + np.log(rows @ weight)  # weight > 0: only dead rows give log(0)
        logs[np.isnan(logs)] = -np.inf
        out[start:start + len(words)] = logs
    return out


def _float_range_error(t: float, n: int) -> InputError:
    """The largest t log m(w), over every word or the sampled ones, is not a float."""
    return InputError(
        f"sums of m(w)^t at t = {t}, n = {n} leave the float range (0, {sys.float_info.max:.6g}]; "
        "use a smaller |t|"
    )


def pressure(
    ts: TypeSystem,
    t: float,
    n: int,
    mode: str = "exact",
    samples: int = 10000,
    seed: int = 0,
) -> PressureEstimate:
    """Finite-depth pressure P_n(t) by exact enumeration or Monte Carlo."""
    check_int(n, "depth n", 1)
    if not isinstance(t, (int, float)) or type(t) is bool or not math.isfinite(t):
        raise InputError(f"t must be a finite int or float, got {t!r}")
    check_int(samples, "samples", 1)  # checked in exact mode too, which draws none
    _check_seed(seed)
    L = ts.L
    log_l = math.log(L)
    if mode == "exact":
        if L ** min(n, 64) > _WORD_BUDGET:  # L >= 2, so L^64 is past any budget
            raise InputError(
                f"exact enumeration needs {shown(L)}^{shown(n)} words, budget is {_WORD_BUDGET}"
            )
        # m(w) = k / den with integer k, once nu is scaled to integers
        den = math.lcm(*(x.denominator for x in ts.nu))
        scaled = [int(x * den) for x in ts.nu]

        def masses():  # each nonzero k; a zero one is refused at negative t
            for k in _masses_exact_dfs(ts, n, scaled):
                if k:
                    yield k
                elif t < 0:
                    raise InputError("zero cylinder mass with negative t")

        if t == 0:
            total: Fraction | float = Fraction(L**n)
        elif t == 1:
            total = Fraction(sum(masses()), den)
        else:
            total = 0.0
            try:
                for k in masses():
                    total += math.exp(t * math.log(k / den))
            except OverflowError:
                total = math.inf
            if not 0 < total < math.inf:  # the same sum in logs, scaled by its largest term e^c
                log_den = math.log(den)
                c = max((t * (math.log(k) - log_den) for k in masses()), default=math.inf)
                if not math.isfinite(c):
                    raise _float_range_error(t, n)
                total = math.fsum(math.exp(t * (math.log(k) - log_den) - c) for k in masses())
                value = (c + math.log(total)) / (n * log_l)
                return PressureEstimate(t, n, value, "exact-enumeration", None)
        try:
            value = math.log(total) / (n * log_l)
        except OverflowError:  # an exact total past the float range
            value = (math.log(total.numerator) - math.log(total.denominator)) / (n * log_l)
        return PressureEstimate(t, n, value, "exact-enumeration", total)
    if mode != "mc":
        raise InputError(f"unknown pressure mode {mode!r}")
    import numpy as np

    # Monte Carlo over uniform words, with 0^0 = 1; each m(w)^t is scaled by the largest, e^c
    nu = np.array([float(x) for x in ts.nu])
    logs = _sampled_log_masses(ts, n, samples, seed, nu)
    if t < 0 and np.isneginf(logs).any():
        raise InputError("zero cylinder mass with negative t")
    if t > 0 and np.isneginf(logs).all():
        raise InputError("every sampled word has mass 0, so the log of the estimate is undefined")
    with np.errstate(over="ignore"):  # an overflowing largest term leaves c infinite
        x = t * logs if t else np.zeros(samples)
    c = float(x.max())
    if not math.isfinite(c):
        raise _float_range_error(t, n)
    scaled = np.exp(x - c)
    mean = float(scaled.mean())
    rel = float(scaled.std(ddof=1)) / mean / math.sqrt(samples) if samples > 1 else 0.0
    value = (n * log_l + c + math.log(mean)) / (n * log_l)
    return PressureEstimate(t, n, value, "monte-carlo", None, rel / (n * log_l))


def lyapunov(ts: TypeSystem, n: int, samples: int, seed: int = 0) -> LyapunovEstimate:
    """Monte Carlo estimate of the Lyapunov exponent of the norm cocycle (-inf if a word dies)."""
    import numpy as np

    check_int(n, "depth n", 1)
    check_int(samples, "samples", 1)
    _check_seed(seed)
    L = ts.L
    vals = _sampled_log_masses(ts, n, samples, seed, np.ones(ts.N)) / n
    w_hat = float(vals.mean())
    live = samples > 1 and w_hat > -math.inf
    se = float(vals.std(ddof=1) / math.sqrt(samples)) if live else 0.0
    half = 1.959963984540054 * se  # 95% normal CI
    norms = [sum(sum(row) for row in A) for A in ts.matrices]
    first = sum(map(math.log, norms)) / L if all(norms) else -math.inf
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
