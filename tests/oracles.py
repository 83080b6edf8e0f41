"""Independent oracles used by the test suite.

Kept deliberately dumb and slow: exact rational polygon clipping for slice
areas, a point-by-point scan of the slice certification grid, every grid
row's kernel minimum compared in exact integers, seeded random
points of the slice regions where htilde must be nonnegative, exhaustive
word enumeration for transition-matrix entries, a Fraction nullspace over
all candidate intervals, a BFS over whole zero-patterns for positive-row
witnesses, one hash per simulator node, the set of every covered cell of a
projected realization, one Generator per sampled word, one cocycle walk per
sampled word, the Monte Carlo pressure of those walks by logaddexp and
statistics.stdev, full integer matrix products for every word of exact pressure,
exact rational bisection for the extinction probability, the dense
Fraction characteristic polynomial, Taylor coefficients from binomial sums and
a doubling-then-bisection search for Perron-root enclosures, and every phase
verdict read off its definition.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import statistics
from collections import deque
from fractions import Fraction
from hashlib import blake2b

import numpy as np

from fracphase import slices
from fracphase.errors import InputError
from fracphase.line_ifs import LineIFS, normalize
from fracphase.simulate import _check_seed, stream
from fracphase.type_system import pattern

UNIT_SQUARE = [
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(1)),
]


def _clip_halfplane(poly, f):
    """Sutherland-Hodgman clip of a polygon against f(x, y) >= 0."""
    if not poly:
        return []
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp, fq = f(*p), f(*q)
        if fp >= 0:
            out.append(p)
            if fq < 0:
                t = fp / (fp - fq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        elif fq >= 0:
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _shoelace(poly) -> Fraction:
    if len(poly) < 3:
        return Fraction(0)
    total = Fraction(0)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def clip_area(a, b, c) -> Fraction:
    """Exact area of {(x, y) in [0,1]^2 : 0 <= a*x + b*y + c <= 1}.

    This is the projected slice area: the plane z = ax + by + c meets the
    unit cube above (x, y) exactly when ax + by + c lies in [0, 1].
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    poly = _clip_halfplane(UNIT_SQUARE, lambda x, y: a * x + b * y + c)
    poly = _clip_halfplane(poly, lambda x, y: 1 - (a * x + b * y + c))
    return _shoelace(poly)


# lower-left corners of the 7 removed level-1 Menger cubes, in units of 1/3
REMOVED = [
    (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    (2, 1, 1), (1, 2, 1), (1, 1, 2),
]


def htilde_oracle(a, b, c) -> Fraction:
    """The slack function evaluated purely through the clipping oracle."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    total = 5 * clip_area(a, b, c)
    for u3, v3, w3 in REMOVED:
        total -= clip_area(a, b, a * u3 + b * v3 + 3 * c - w3)
    return total / 9


def _ftilde_num(A, B, C, D: int):
    """Numerator of ftilde over 2*A*B by the nine-case dispatch, per point.

    A, B are positive integer scalars, C an int64 array, all in units of 1/D.
    """
    A = np.int64(A)
    B = np.int64(B)
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


def _htilde_num(A: int, B: int, C, D: int):
    """5*n0 - sum(n_k): numerator of htilde over 18*A*B at every C."""
    # stack the base plane and the 7 renormalized planes into one dispatch
    stacked = np.empty((8, len(C)), dtype=np.int64)
    stacked[0] = C
    for idx, (u3, v3, w3) in enumerate(REMOVED, start=1):
        stacked[idx] = A * u3 + B * v3 + 3 * C - w3 * D
    nums = _ftilde_num(A, B, stacked.ravel(), D).reshape(8, len(C))
    return 5 * nums[0] - nums[1:].sum(axis=0)


def grid_scan(d: Fraction):
    """(minimum, argmin, point_count, certified) of the slice grid of step d.

    Evaluates htilde at every grid point; the argmin is the lexicographically
    smallest minimizer (a, b, c).
    """
    y = d.denominator
    D = 3 * y
    S = 3 * d.numerator
    best = None
    count = 0
    for A in range(y, D + 1, S):
        for B in range(A, D + 1, S):
            C = np.arange(2 * y - A - B, y + 1, S, dtype=np.int64)
            count += len(C)
            nums = _htilde_num(A, B, C, D)
            j = int(np.argmin(nums))  # first, so the smallest C
            val = Fraction(int(nums[j]), 18 * A * B)
            if best is None or val < best[0]:
                best = (val, (Fraction(A, D), Fraction(B, D), Fraction(int(C[j]), D)))
    minimum, argmin = best
    return minimum, argmin, count, minimum > 0 and minimum**2 > 675 * d**2


def cell_rows(cells, S, y) -> list:
    """The grid rows (A, B), A <= B, of the cells (i0, i1, j0, j1), in ascending (A, B)."""
    rows = {
        (y + S * i, y + S * j)
        for i0, i1, j0, j1 in cells
        for i in range(i0, i1 + 1)
        for j in range(max(i, j0), j1 + 1)
    }
    return sorted(rows)


def cells_min_exact(args):
    """slices._cells_min without blocks or the branch and bound.

    The kernel takes every grid row of the cells of the task (cells, D, S, y)
    in one call, over its own c values, in ascending (A, B), and every row's
    minimum is compared with the best so far in cross-multiplied ints.
    """
    cells, D, S, y = args
    rows = cell_rows(cells, S, y)
    A, B = (np.array(col, dtype=np.int64)[:, None] for col in zip(*rows))
    t = (A + B - 2 * y) // S
    m, j = slices._row_minima(A, B, t, D, S, y)
    best = None  # (N, A, B, j) with value N / (162*A*B)
    for row in zip(m.tolist(), A[:, 0].tolist(), B[:, 0].tolist(), j.tolist()):
        if best is None or row[0] * best[1] * best[2] < best[0] * row[1] * row[2]:
            best = row
    N, A, B, j = best
    return Fraction(N, 162 * A * B), A, B, 2 * y - A - B + S * j


def sample_nonnegativity(region: str, count: int, seed: int) -> list:
    """Check htilde >= 0 at random rational points of a tagged region.

    An uncertified sampling check of what slices.verify_grid certifies.  A
    certificate tag samples its own inequality, "grid" the points no
    certificate covers, and "all" the whole admissible region.  Point
    coordinates are multiples of 1/3600 drawn from Philox(seed).  Returns the
    list of violations (expected empty).
    """
    predicates = {
        **dict(slices._CERTIFICATES),
        slices.TAG_GRID: lambda p: slices.classify_region(p) == slices.TAG_GRID,
        "all": lambda p: True,
    }
    if region not in predicates:
        raise InputError(f"unknown region tag {region!r}")
    predicate = predicates[region]
    _check_seed(seed)
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
        p = slices.PlaneParams(a, b, c)
        if not slices._in_domain(p) or not predicate(p):
            continue
        accepted += 1
        value = slices.htilde(p)
        if value < 0:
            violations.append((a, b, c, value))
    if accepted < count:
        raise InputError(
            f"could not draw {count} points from region {region!r} "
            f"(accepted {accepted})"
        )
    return violations


def compose_interval(ifs: LineIFS, translations, k: int):
    """Identify f_{i_1..i_n}(J^k) as (ell, digits) by innermost-first steps.

    Applying a single map to J^k_w yields J^{k'}_{b w} with
    k' = (k + t) div L and b = (k + t) mod L; compositions apply the
    innermost (last) map first and prepend digits outward.
    """
    L = ifs.L
    cur = k
    digits: tuple[int, ...] = ()
    for t in reversed(translations):
        cur, b = divmod(cur + t, L)
        digits = (b,) + digits
    return cur, digits


def brute_force_entry(ifs: LineIFS, offsets, word, ell: int, k: int) -> int:
    """A_w(ell, k) by enumerating all words over the M maps (Lemma-style)."""
    maps = ifs.map_translations()
    n = len(word)
    target = tuple(word)
    count = 0
    idx = [0] * n
    total = len(maps) ** n
    for flat in range(total):
        x = flat
        for pos in range(n):
            idx[pos] = x % len(maps)
            x //= len(maps)
        cur, digits = compose_interval(ifs, [maps[i] for i in idx], offsets[k])
        if digits == target and cur == offsets[ell]:
            count += 1
    return count


def candidate_kernel(ifs: LineIFS) -> list[list[Fraction]]:
    """Nullspace basis of hat_sum - M*I over all candidates 0..n_tilde-1.

    hat_sum(c2, c) counts, with multiplicity, the maps t sending candidate
    interval c into candidate interval c2 = (c + t) div L.  The basis comes
    from Gauss-Jordan in Fractions, one basis vector per free column.
    """
    nc = max(ifs.n_tilde, 1)
    mat = [[Fraction(-ifs.M if i == j else 0) for j in range(nc)] for i in range(nc)]
    for c in range(nc):
        for t, n in ifs.translations:
            mat[(c + t) // ifs.L][c] += n
    pivots: list[int] = []
    for c in range(nc):
        r = len(pivots)
        pivot = next((i for i in range(r, nc) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(nc):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        vec = [Fraction(0)] * nc
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -mat[pr][fc]
        basis.append(vec)
    return basis


def pattern_witness(ts, budget: int):
    """(word, inconclusive) from a BFS over whole N x N zero-patterns of A_w.

    Patterns are popped in (length, lex) order of their first word, so a found
    word is the lexicographically least shortest one; the search gives up once
    ``budget`` distinct patterns are seen.
    """
    gens = [pattern(A) for A in ts.matrices]
    full = (1 << ts.N) - 1

    def mul(P, Q):
        return tuple(
            functools.reduce(operator.or_, (q for k, q in enumerate(Q) if row >> k & 1), 0)
            for row in P
        )

    seen = set(gens)
    queue = deque((g, (a,)) for a, g in enumerate(gens) if gens.index(g) == a)
    while queue:
        pat, word = queue.popleft()
        if full in pat:
            return word, False
        if len(seen) >= budget:
            return None, True
        for a in range(ts.L):
            nxt = mul(pat, gens[a])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (a,)))
    return None, False


def random_small_ifs(rng: random.Random) -> LineIFS:
    """A random valid small system (L <= 3, M <= 6) for equivalence tests."""
    while True:
        L = rng.choice([2, 3])
        m = rng.randint(1, 3)
        span = rng.randint(1, 3) * (L - 1)  # ensures divisibility
        ts = {0, span} if span > 0 else {0}
        while len(ts) < m and len(ts) <= span:
            ts.add(rng.randint(0, span))
        ts = sorted(ts)
        total = 0
        pairs = []
        for t in ts:
            n = rng.randint(1, 2)
            pairs.append((t, n))
            total += n
        if total <= 6:
            raw = [t for t, n in pairs for _ in range(n)]
            return normalize(L, raw)


def node_hash(seed: int, address) -> int:
    """h of one tree node: blake2b of the comma-joined decimal address, keyed
    by the seed as 8 little-endian bytes, digest read as 8 little-endian bytes."""
    msg = ",".join(str(a) for a in address).encode()
    digest = blake2b(msg, digest_size=8, key=seed.to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little")


def node_kept(seed: int, address, p) -> bool:
    """The node's coin: kept iff h / 2^64 < p = num / q, i.e. h q < num 2^64."""
    p = Fraction(p)
    return node_hash(seed, address) * p.denominator < p.numerator << 64


def survival_levels(M: int, p, depth: int, seed: int):
    """Retained words level by level, one node_kept call per child."""
    levels = [frozenset({()})]
    for _ in range(depth):
        levels.append(frozenset(
            w + (i,) for w in levels[-1] for i in range(M) if node_kept(seed, w + (i,), p)
        ))
    return tuple(levels)


def coverage(ifs: LineIFS, retained, depth: int):
    """(covered_cells, longest_run) from the set of every covered cell.

    The word w covers the cells [X_w, X_w + n_tilde) in units of L^{1-n},
    where X_w is the left endpoint of f_w(hull).
    """
    maps = ifs.map_translations()
    covered = set()
    for word in retained:
        X = 0
        for i in word:
            X = X * ifs.L + maps[i]
        covered.update(range(X, X + ifs.n_tilde))
    longest = run = 0
    for cell in sorted(covered):
        run = run + 1 if cell - 1 in covered else 1
        longest = max(longest, run)
    return len(covered), longest


def sampled_words(L: int, n: int, samples: int, seed: int):
    """Word i is stream(seed, i).integers(0, L, size=n): one Generator per word."""
    return np.array([stream(seed, i).integers(0, L, size=n) for i in range(samples)])


def sampled_log_masses(ts, n: int, samples: int, seed: int, weight):
    """log(e^T A_w weight) for w = stream(seed, i), walking one sample at a time."""
    return log_masses(ts, sampled_words(ts.L, n, samples, seed), weight)


def log_masses(ts, words, weight):
    """log(e^T A_w weight) for each word, renormalizing after every digit."""
    mats = np.array(ts.matrices, dtype=float)
    out = np.full(len(words), -math.inf)
    for i, word in enumerate(words):
        row = np.ones(ts.N)
        acc = 0.0
        for a in word:
            row = row @ mats[a]
            s = row.sum()
            if s == 0:
                break
            acc += math.log(s)
            row /= s
        else:
            out[i] = acc + math.log(row @ weight)
    return out


def mc_pressure(ts, t, n: int, samples: int, seed: int):
    """(value, stderr) of Monte Carlo pressure over the per-sample walks, the value in logs."""
    nu = np.array([float(x) for x in ts.nu])
    terms = [t * x if t else 0.0 for x in sampled_log_masses(ts, n, samples, seed, nu)]
    log_mean = float(np.logaddexp.reduce(terms)) - math.log(samples)
    top = max(terms)
    scaled = [math.exp(x - top) for x in terms]
    spread = statistics.stdev(scaled) / statistics.fmean(scaled)
    scale = n * math.log(ts.L)
    return (scale + log_mean) / scale, spread / math.sqrt(samples) / scale


def exact_log_pressure(ts, t, n: int) -> float:
    """Exact-mode P_n(t) from every word's rational mass, its sum taken by np.logaddexp.reduce."""
    masses = [m for m in exact_masses(ts, n, ts.nu) if m]
    terms = [t * (math.log(m.numerator) - math.log(m.denominator)) for m in masses]
    return float(np.logaddexp.reduce(terms)) / (n * math.log(ts.L))


def word_product(matrices, word):
    """A_{a_1} ... A_{a_n} in Python integers, multiplied out in full."""
    N = len(matrices[0])
    P = [[int(i == j) for j in range(N)] for i in range(N)]
    for a in word:
        P = [[sum(map(operator.mul, row, col)) for col in zip(*matrices[a])] for row in P]
    return P


def exact_masses(ts, n: int, nu):
    """e^T A_w nu for every word |w| = n, in lexicographic order."""
    return [sum(sum(map(operator.mul, row, nu)) for row in word_product(ts.matrices, w))
            for w in itertools.product(range(ts.L), repeat=n)]


def extinction_root(M: int, p) -> Fraction:
    """Smallest root in [0, 1] of q = (1 - p + p q)^M by exact rational bisection.

    For M p > 1, h(q) = (1 - p + p q)^M - q has h(0) > 0, and since
    h(1) = 0, h'(1) = M p - 1 and h'' <= M (M - 1) p^2, h(1 - eps) < 0 at
    eps = (M p - 1) / (M (M - 1) p^2).  The result is within 2^-60.
    """
    p = Fraction(p)
    if M * p <= 1:
        return Fraction(1)

    def h(q):
        return (1 - p + p * q) ** M - q

    lo, hi = Fraction(0), 1 - (M * p - 1) / (M * (M - 1) * p * p)
    assert h(lo) >= 0 > h(hi)
    for _ in range(60):
        mid = (lo + hi) / 2
        if h(mid) < 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def char_poly_dense(matrix) -> list[Fraction]:
    """det(lambda*I - A), ascending: dense Faddeev-LeVerrier in Fractions."""
    n = len(matrix)
    A = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    Mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        Mk = [[sum(A[i][t] * Mk[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(Mk[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            Mk[i][i] += c
    return coeffs


def taylor_shift(coeffs, x) -> list[Fraction]:
    """Coefficients of p(y + x), ascending: coefficient k is the binomial sum
    of C(i, k) * c_i * x^(i - k) over i >= k, with no synthetic division."""
    x = Fraction(x)
    n = len(coeffs) - 1
    return [sum(math.comb(i, k) * Fraction(coeffs[i]) * x ** (i - k) for i in range(k, n + 1))
            for k in range(n + 1)]


def perron_enclosure(matrix, tol) -> tuple[Fraction, Fraction]:
    """(lower, upper) from the least integer u >= rho, found by doubling an
    integer until it dominates and then bisecting the integers below it,
    then halving [u - 1, u] until its width is at most tol (exact at a root u)."""
    coeffs = char_poly_dense(matrix)

    def dominates(x):
        return x >= 0 and all(c >= 0 for c in taylor_shift(coeffs, x))

    below, u = -1, 1
    while not dominates(u):
        below, u = u, 2 * u
    while u - below > 1:  # below < rho <= u
        mid = (below + u) // 2
        below, u = (below, mid) if dominates(mid) else (mid, u)
    if taylor_shift(coeffs, u)[0] == 0:
        return Fraction(u), Fraction(u)
    lo, up = Fraction(u - 1), Fraction(u)
    while up - lo > tol:
        mid = (lo + up) / 2
        lo, up = (lo, mid) if dominates(mid) else (mid, up)
    return lo, up


def phase_verdict(ts, name: str, p, gave_up: bool = False) -> str:
    """The verdict of threshold ``name`` at p, from its definition on exact values.

    extinction: p < 1/M; dimension-one: p > L/M; interval-sufficient:
    p * min CS > 1 and some A_w has a positive row, by :func:`pattern_witness`
    (a witness search that ``gave_up`` leaves it at most "boundary");
    no-interval: p * rho(A_a) < 1 for some digit a, from the dense char polys
    and binomial shifts; positive-measure: every A_a has a positive row and
    p^L * min_U prod_a CS_a(U) > 1.  Equality gives "boundary".
    """
    def strict(lhs, rhs):  # the verdict of lhs > rhs
        return "holds" if lhs > rhs else "boundary" if lhs == rhs else "fails"

    p = Fraction(p)
    cs = [[sum(col) for col in zip(*A)] for A in ts.matrices]
    if name == "extinction":
        return strict(Fraction(1, ts.M), p)
    if name == "dimension-one":
        return strict(p, Fraction(ts.L, ts.M))
    if name == "interval-sufficient":
        word, undecided = pattern_witness(ts, budget=10**4)
        assert not undecided
        min_cs = min(map(min, cs))
        if min_cs == 0 or not (gave_up or word):
            return "fails"
        v = strict(p * min_cs, 1)
        return "boundary" if gave_up and v == "holds" else v
    if name == "no-interval":
        if p == 0:
            return "holds"
        at_rho = set()  # for each digit with 1/p >= rho: is 1/p a root?
        for A in ts.matrices:
            shifted = taylor_shift(char_poly_dense(A), 1 / p)
            if min(shifted) >= 0:
                at_rho.add(shifted[0] == 0)
        return "holds" if False in at_rho else "boundary" if True in at_rho else "fails"
    if name == "positive-measure":
        if not all(any(min(row) > 0 for row in A) for A in ts.matrices):
            return "fails"
        return strict(p**ts.L * min(math.prod(col) for col in zip(*cs)), 1)
    raise ValueError(f"no verdict {name!r}")
