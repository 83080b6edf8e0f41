"""Independent recomputations that the benchmark checks outputs against.

Nothing here imports ``fracphase``: lattices, projections, the keyed-hash
retention tree, coverage, the grid size and the float cocycle are rebuilt
from their definitions with the standard library and numpy.  The one package
function a check relies on, the spectral enclosure whose containment of
numpy's root is checked, is passed in.  Each ``check_*``
function returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from hashlib import blake2b

import numpy as np

# --- lattices and projections ----------------------------------------------


def menger_cells():
    """The 20 cells of [3]^3 with at most one coordinate in the middle."""
    return [c for c in itertools.product(range(3), repeat=3) if sum(x == 1 for x in c) < 2]


def sierpinski_cells():
    return [c for c in itertools.product(range(3), repeat=2) if c != (1, 1)]


LATTICES = {"menger": menger_cells, "sierpinski": sierpinski_cells}


def projected_maps(lattice: str, direction, scale: int = 1, L: int = 3):
    """Sorted translations (with multiplicity) of the projected line IFS.

    Shift to 0, then multiply by the least factor making (L - 1) divide the
    largest translation, then by ``scale``.
    """
    raw = [sum(a * x for a, x in zip(direction, c)) for c in LATTICES[lattice]()]
    low = min(raw)
    shifted = sorted(t - low for t in raw)
    factor = (L - 1) // math.gcd(L - 1, shifted[-1])
    return [t * factor * scale for t in shifted]


def _as_maps(translations):
    return sorted(t for t, n in translations for _ in range(n))


# --- exact threshold pipeline (thresholds) ---------------------------------


def _frac(s) -> Fraction | None:
    return None if s is None else Fraction(s)


def _root_threshold(text):
    """Parse "(base)^(-1/root)" or "1/base" into (base, root)."""
    m = re.fullmatch(r"\((\d+)\)\^\(-1/(\d+)\)", text)
    if m:
        return int(m.group(1)), int(m.group(2))
    m = re.fullmatch(r"1/(\d+)", text)
    return (int(m.group(1)), 1) if m else None


def check_report(rep: dict, lattice: str, direction, scale: int = 1, n_tilde=None):
    """Invariants and recomputed exact thresholds of one ``analyze`` report."""
    problems = []
    L = rep["ifs"]["L"]
    translations = rep["ifs"]["translations"]
    M = sum(n for _, n in translations)
    maps = projected_maps(lattice, direction, scale)
    if L != 3 or _as_maps(translations) != maps:
        problems.append(f"projected IFS L={L} {translations} != recomputed {maps}")
    if n_tilde is not None and translations[-1][0] != n_tilde * (L - 1):
        problems.append(f"n_tilde is {translations[-1][0] // (L - 1)}, expected {n_tilde}")
    mats = rep["type_system"]["matrices"]
    nu = [Fraction(x) for x in rep["type_system"]["nu"]]
    problems += check_matrix_family(mats, nu, M)
    if problems:
        return problems
    N = len(nu)
    col = [[sum(A[i][j] for i in range(N)) for j in range(N)] for A in mats]
    min_cs = min(min(c) for c in col)
    base = min(math.prod(col[a][U] for a in range(L)) for U in range(N))
    rows_ok = all(any(all(x > 0 for x in row) for row in A) for A in mats)
    got = {t["name"]: t for t in rep["thresholds"]}
    expect = {"extinction": Fraction(1, M), "dimension-one": Fraction(L, M)}
    if min_cs > 0:
        expect["interval-sufficient"] = Fraction(1, min_cs)
    elif "interval-sufficient" in got:
        problems.append("interval-sufficient reported although a column sum is 0")
    for name, value in expect.items():
        if name not in got or _frac(got[name]["value_exact"]) != value:
            problems.append(f"{name}: got {got.get(name)}, expected {value}")
    pos = got.get("positive-measure")
    if pos is None:
        problems.append("positive-measure threshold missing")
    elif rows_ok:
        parsed = _root_threshold(pos["value_exact"] or "")
        if parsed != (base, L) or not math.isclose(pos["value_float"], base ** (-1 / L),
                                                     rel_tol=1e-12):
            problems.append(f"positive-measure {pos}, expected base {base} root {L}")
    elif pos["value_exact"] is not None:
        problems.append("positive-measure exact value reported without positive rows")
    return problems


def check_matrix_family(mats, nu, M):
    """Mass conservation and the exact fixed point nu = A nu / M."""
    problems = []
    N = len(nu)
    for j in range(N):
        total = sum(A[i][j] for A in mats for i in range(N))
        if total != M:
            problems.append(f"column {j} of the family sums to {total}, not {M}")
    if sum(nu) != 1 or any(x <= 0 for x in nu):
        problems.append("nu is not a positive probability vector")
    for i in range(N):
        if sum(sum(A[i][j] for A in mats) * nu[j] for j in range(N)) != M * nu[i]:
            problems.append(f"row {i}: nu is not a fixed point of A / M")
    return problems


def check_spectral(mats, spectral_radius, no_interval: dict):
    """numpy's Perron root lies in the enclosure behind the reported threshold.

    The no-interval threshold is 1 / min_a rho(A_a), capped at 1.  The digits
    whose float root is (within 1e-7) the smallest are enclosed with
    ``spectral_radius``; each float root must lie in its enclosure, and the
    reported threshold in the interval those enclosures imply.
    """
    problems = []
    rhos = [float(max(abs(np.linalg.eigvals(np.array(A, dtype=float))))) for A in mats]
    least = min(rhos)
    encs = []
    for a, (A, rho) in enumerate(zip(mats, rhos)):
        if rho > least * (1 + 1e-7) + 1e-12:
            continue
        enc = spectral_radius(A)
        encs.append((enc.lower, enc.upper))
        slack = 1e-9 * max(1.0, rho)
        if not float(enc.lower) - slack <= rho <= float(enc.upper) + slack:
            problems.append(f"digit {a}: numpy rho {rho!r} outside [{enc.lower}, {enc.upper}]")
    low = _capped_inverse(min(up for _, up in encs))
    high = _capped_inverse(min(lo for lo, _ in encs))
    value = no_interval["value_float"]
    if not float(low) - 1e-12 <= value <= float(high) + 1e-12:
        problems.append(f"no-interval threshold {value!r} outside [{low}, {high}]")
    exact = _frac(no_interval["value_exact"])
    if exact is not None and not low <= exact <= high:
        problems.append(f"no-interval exact value {exact} outside [{low}, {high}]")
    return problems


def _capped_inverse(rho) -> Fraction:
    """1 / rho capped at 1 (p never exceeds 1)."""
    return Fraction(1) if rho <= 1 else 1 / Fraction(rho)


MENGER_111 = {
    "matrices": [[[1, 0, 0], [6, 3, 3], [1, 3, 3]],
                 [[3, 1, 0], [3, 6, 3], [0, 1, 3]],
                 [[3, 3, 1], [3, 3, 6], [0, 0, 1]]],
    "nu": ["1/5", "3/5", "1/5"],
    "thresholds": {"extinction": "1/20", "dimension-one": "3/20", "interval-sufficient": "1/6"},
    "positive_measure": (288, 3),
}


def check_menger_111(rep: dict):
    """The acceptance values of menger along (1, 1, 1)."""
    problems = []
    if rep["type_system"]["matrices"] != MENGER_111["matrices"]:
        problems.append("menger 1,1,1 matrices differ from the acceptance values")
    if rep["type_system"]["nu"] != MENGER_111["nu"]:
        problems.append("menger 1,1,1 nu differs from the acceptance values")
    got = {t["name"]: t for t in rep["thresholds"]}
    for name, value in MENGER_111["thresholds"].items():
        if got.get(name, {}).get("value_exact") != value:
            problems.append(f"menger 1,1,1 {name} is not {value}")
    witness = got.get("interval-sufficient", {}).get("witness")
    if witness is None or len(witness) != 1:
        problems.append(f"menger 1,1,1 interval witness {witness!r} is not one digit")
    if _root_threshold(got.get("positive-measure", {}).get("value_exact") or "") != MENGER_111["positive_measure"]:
        problems.append("menger 1,1,1 positive-measure threshold is not (288)^(-1/3)")
    return problems


def check_band_outputs(csv_text: str, svg_text: str):
    """README ``analyze sierpinski --dir 1,-1 --format csv --svg``."""
    problems = []
    lines = csv_text.splitlines()
    if not lines or lines[0] != "name,theorem,value_exact,value_float":
        return [f"unexpected CSV header {lines[:1]}"]
    rows = {r.split(",")[0]: r.split(",") for r in lines[1:]}
    expect = {"extinction": "1/8", "dimension-one": "3/8", "interval-sufficient": "1/2"}
    for name, value in expect.items():
        if name not in rows or rows[name][2] != value:
            problems.append(f"sierpinski 1,-1 {name} is not {value}")
    if _root_threshold(rows.get("positive-measure", ["", "", ""])[2]) != (18, 3):
        problems.append("sierpinski 1,-1 positive-measure threshold is not (18)^(-1/3)")
    if not (svg_text.startswith("<svg") and svg_text.rstrip().endswith("</svg>")):
        problems.append("SVG band chart is not a standalone <svg> document")
    for name, row in rows.items():
        if row[3] and f">{name} " not in svg_text:
            problems.append(f"SVG band chart has no marker for {name}")
    return problems


# --- slice grid --------------------------------------------------------------


def grid_point_count(step: Fraction) -> int:
    """Points (a, b, c) of the certification grid, counted per (a, b) column.

    a runs from 1/3 to 1 and b from a to 1, both in steps of ``step``; c runs
    from 2/3 - (a + b) in steps of ``step`` while c <= 1/3, which gives
    floor((a + b - 1/3) / step) + 1 values of c.
    """
    third = Fraction(1, 3)
    n_a = int((1 - third) / step) + 1
    total = 0
    for i in range(n_a):
        a = third + i * step
        for k in range(int((1 - a) / step) + 1):
            b = a + k * step
            total += int((a + b - third) / step) + 1
    return total


# --- retention tree and coverage (montecarlo) --------------------------------


def tree_replica(M: int, p: Fraction, depth: int, seed: int):
    """Retained level-``depth`` words and the retained count per level.

    The coin of the node with address (i_1, ..., i_k) is the blake2b digest
    (8 bytes, keyed by ``seed`` as 8 little-endian bytes) of the decimal
    digits joined by commas, read little-endian as h; the node is kept iff
    h / 2^64 < p.
    """
    key = seed.to_bytes(8, "little")
    current = [()]
    counts = [1]
    for _ in range(depth):
        kept = []
        for word in current:
            for i in range(M):
                child = word + (i,)
                digest = blake2b(",".join(map(str, child)).encode(), digest_size=8, key=key)
                if int.from_bytes(digest.digest(), "little") * p.denominator < p.numerator << 64:
                    kept.append(child)
        current = kept
        counts.append(len(kept))
    return current, counts


def coverage(words, maps, L: int, depth: int):
    """Union of the projected level-``depth`` hull images.

    Word (i_1..i_n) maps the hull [0, nt*L] onto an interval of length nt in
    units of L^(1-n) starting at the L-adic number with digits maps[i_k].
    Returns (measure, longest run of adjacent covered units).
    """
    nt = maps[-1] // (L - 1)
    starts = []
    for word in words:
        x = 0
        for i in word:
            x = x * L + maps[i]
        starts.append(x)
    total = longest = 0
    run_lo = run_hi = None
    for lo in sorted(starts):
        hi = lo + nt
        if run_hi is not None and lo <= run_hi:
            run_hi = max(run_hi, hi)
            continue
        if run_hi is not None:
            total += run_hi - run_lo
            longest = max(longest, run_hi - run_lo)
        run_lo, run_hi = lo, hi
    if run_hi is not None:
        total += run_hi - run_lo
        longest = max(longest, run_hi - run_lo)
    return Fraction(total, L ** (depth - 1)), longest


def check_simulate(csv_text: str, lattice: str, direction, p: Fraction, depth: int,
                   seed: int, replicas):
    """Recompute the given replicas of ``simulate`` from the hash scheme."""
    lines = csv_text.splitlines()
    if lines[:1] != ["replica,retained_count,proj_measure,longest_run,extinct_level"]:
        return [f"unexpected simulate header {lines[:1]}"]
    maps = projected_maps(lattice, direction)
    problems = []
    for r in replicas:
        words, counts = tree_replica(len(maps), p, depth, seed + r)
        measure, longest = coverage(words, maps, 3, depth)
        extinct = next((k for k, c in enumerate(counts) if c == 0), "")
        row = lines[1 + r].split(",")
        expect = [str(r), str(len(words)), repr(float(measure)), str(longest), str(extinct)]
        if row != expect:
            problems.append(f"replica {r}: got {row}, recomputed {expect}")
    return problems


# --- matrix cocycle ----------------------------------------------------------


def _words(L: int, n: int, samples: int, seed: int):
    """Word i is drawn from Philox keyed by (seed, i), as the package documents."""
    return np.stack([
        np.random.Generator(np.random.Philox(key=[seed, i])).integers(0, L, size=n)
        for i in range(samples)
    ])


def _log_row_mass(mats, words, weight=None):
    """log(e^T A_w weight) per word, propagating row vectors with renormalization."""
    A = np.array(mats, dtype=float)
    v = np.ones((words.shape[0], A.shape[1]))
    acc = np.zeros(words.shape[0])
    for k in range(words.shape[1]):
        v = np.einsum("si,sij->sj", v, A[words[:, k]])
        s = v.sum(axis=1)
        acc += np.log(s)
        v /= s[:, None]
    if weight is not None:
        acc += np.log(v @ np.asarray(weight, dtype=float))
    return acc


def _close(a, b, rel=1e-9):
    return a is not None and b is not None and math.isclose(a, b, rel_tol=rel)


def check_lyapunov(mats, M: int, est, n: int, samples: int, seed: int):
    L = len(mats)
    vals = _log_row_mass(mats, _words(L, n, samples, seed)) / n
    w_hat = float(vals.mean())
    half = 1.959963984540054 * float(vals.std(ddof=1)) / math.sqrt(samples)
    first = sum(math.log(sum(map(sum, A))) for A in mats) / L
    got = (est.w_hat, est.ci_low, est.ci_high, est.bound_log_m_over_l, est.first_level_mean)
    want = (w_hat, w_hat - half, w_hat + half, math.log(M / L), first)
    if not all(_close(g, w) for g, w in zip(got, want)):
        return [f"lyapunov n={n} {got} != numpy {want}"]
    return []


def pressure_mc(mats, nu, t: float, n: int, samples: int, seed: int):
    L = len(mats)
    vals = np.exp(t * _log_row_mass(mats, _words(L, n, samples, seed), nu))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(samples)
    log_ln = n * math.log(L)
    return (log_ln + math.log(mean)) / log_ln, se / (mean * log_ln)


def pressure_exact(mats, nu, t: float, n: int) -> float:
    """log(sum over all |w| = n of m(w)^t) / (n log L), words enumerated level by level."""
    A = np.array(mats, dtype=float)
    rows = np.ones((1, A.shape[1]))
    for _ in range(n):
        rows = np.einsum("wi,aij->waj", rows, A).reshape(-1, A.shape[1])
    mass = rows @ np.asarray(nu, dtype=float)
    mass = mass[mass > 0]
    return math.log(float(np.exp(t * np.log(mass)).sum())) / (n * math.log(len(mats)))


def check_pressure(out: dict, mats, nu, M: int, t, n, mode, samples, seed):
    if mode == "mc":
        value, stderr = pressure_mc(mats, nu, t, n, samples, seed)
        ok = out["method"] == "monte-carlo" and _close(out["stderr_float"], stderr)
    elif t == 1:
        value = math.log(M) / math.log(len(mats))
        ok = out["method"] == "exact-enumeration"
    else:
        value = pressure_exact(mats, nu, t, n)
        ok = out["method"] == "exact-enumeration"
    if not (ok and out["t"] == t and out["n"] == n and _close(out["value_float"], value)):
        return [f"pressure t={t} n={n} {mode}: {out} != recomputed {value!r}"]
    return []
