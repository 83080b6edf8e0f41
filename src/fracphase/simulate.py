"""Seeded simulator of the coin-tossing construction.

Each node of the M-ary address tree keeps its children independently with
probability p.  The coin for a child is derived from a keyed hash of the
child's address, so a realization is a pure function of (seed, parameters):
identical across runs and worker counts, and monotone in p when the seed is
shared (child kept iff its uniform draw is below p).

Address-hash scheme: the child with address ``(a_1, ..., a_k)`` hashes the
message ``"a_1,...,a_k"`` (decimal digits, comma-joined, ASCII) with
``blake2b(digest_size=8, key=seed.to_bytes(8, "little"))``.  Its digest read
as a little-endian integer h gives the uniform h / 2^64, and the child is kept
iff h / 2^64 < p, i.e. h * q < num * 2^64 for p = num / q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from hashlib import blake2b
from typing import TYPE_CHECKING

from .errors import InputError
from .line_ifs import LineIFS
from .phase import extinction_probability

if TYPE_CHECKING:
    import numpy as np

_TWO64 = 2**64
_INTERFACE_CAP = 10**7  # population at which a replica counts as surviving
_NODE_BUDGET = 10**6  # most nodes one realization hashes, at 1-3 us a node


def _check_seed(seed: int) -> None:
    if not 0 <= seed < _TWO64:
        raise InputError("seed must be in [0, 2**64)")


def stream(seed: int, index: int) -> np.random.Generator:
    """Monte Carlo draw ``index`` of ``seed``: Philox keyed by (seed, index)."""
    import numpy as np

    _check_seed(seed)
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SurvivalSet:
    """A depth-n realization: retained words level by level."""

    M: int
    p: Fraction
    depth: int
    seed: int
    levels: tuple[frozenset[tuple[int, ...]], ...]  # levels[k]: retained |w|=k

    @property
    def retained(self) -> frozenset[tuple[int, ...]]:
        return self.levels[-1]

    @property
    def extinct_level(self) -> int | None:
        """First level with no retained words, or None if alive at depth."""
        for k, level in enumerate(self.levels):
            if not level:
                return k
        return None


def sample_survival(M: int, p, depth: int, seed: int) -> SurvivalSet:
    """Draw one realization of the retention tree down to ``depth``."""
    if M < 2:
        raise InputError("arity M must be >= 2")
    if not 0 <= depth <= _NODE_BUDGET:  # deeper, only a dead tree fits the budget
        raise InputError(f"depth must be in [0, {_NODE_BUDGET}]")
    _check_seed(seed)
    pf = Fraction(p)
    if not 0 <= pf <= 1:
        raise InputError("p must be in [0, 1]")
    # h / 2^64 < p  <=>  h < ceil(p * 2^64), as h is an integer
    bound = -((-pf.numerator << 64) // pf.denominator)
    keyed = blake2b(digest_size=8, key=seed.to_bytes(8, "little"))
    labels = [str(i).encode() for i in range(M)]
    levels: list[frozenset[tuple[int, ...]]] = [frozenset({()})]
    current: dict[tuple[int, ...], bytes] = {(): b""}  # word -> its message
    hashed = 0
    while current and len(levels) <= depth:
        hashed += M * len(current)
        if hashed > _NODE_BUDGET:
            raise InputError(f"the realization hashes more than {_NODE_BUDGET} nodes")
        nxt: dict[tuple[int, ...], bytes] = {}
        for word, msg in current.items():
            parent = keyed.copy()  # then fed the parent's message and a comma
            if word:
                msg += b","
                parent.update(msg)
            for i, label in enumerate(labels):
                h = parent.copy()
                h.update(label)
                if int.from_bytes(h.digest(), "little") < bound:
                    nxt[word + (i,)] = msg + label
        levels.append(frozenset(nxt))
        current = nxt
    levels += [levels[-1]] * (depth + 1 - len(levels))  # extinct: one empty level
    return SurvivalSet(M=M, p=pf, depth=depth, seed=seed, levels=tuple(levels))


@dataclass(frozen=True)
class CoverageStats:
    depth: int
    covered_cells: int
    total_cells: int
    measure: Fraction  # covered length of the projected hull
    longest_run: int
    full_cover: bool


def project_survival(ifs, s: SurvivalSet) -> CoverageStats:
    """Which L-adic cells of the projected hull are covered at depth n.

    ``ifs`` is a LineIFS or a ``(LatticeIFS, direction)`` pair.  Word index
    ``i`` maps to the i-th translation in the multiplicity expansion order.
    All interval arithmetic is exact on integers.
    """
    if not isinstance(ifs, LineIFS):
        from .lattice import project

        lat, direction = ifs
        ifs = project(lat, direction)
    if ifs.M != s.M:
        raise InputError(f"arity mismatch: ifs.M = {ifs.M}, survival M = {s.M}")
    L, nt, n = ifs.L, ifs.n_tilde, s.depth
    maps = ifs.map_translations()
    total_cells = nt * L**n
    # left endpoints of the f_w(hull) in units of L^{1-n}; each covers [X, X + nt)
    starts = set()
    for word in s.retained:
        X = 0
        for i in word:
            X = X * L + maps[i]
        starts.add(X)
    runs: list[list[int]] = []  # maximal runs [lo, hi) of covered cells
    for X in sorted(starts) if nt else ():
        if runs and X <= runs[-1][1]:
            runs[-1][1] = X + nt
        else:
            runs.append([X, X + nt])
    count = sum(hi - lo for lo, hi in runs)
    measure = Fraction(count, L ** (n - 1)) if n >= 1 else Fraction(count * L)
    longest = max((hi - lo for lo, hi in runs), default=0)
    return CoverageStats(
        depth=n,
        covered_cells=count,
        total_cells=total_cells,
        measure=measure,
        longest_run=longest,
        full_cover=count == total_cells and total_cells > 0,
    )


@dataclass(frozen=True)
class InterfaceStats:
    p: float
    mean_offspring: float  # 8 * p^2
    depth: int
    replicas: int
    extinction_frequency: float
    analytic_fixed_point: float  # smallest root of q = (1 - p^2 + p^2 q)^8


def interface_process(
    p: float, depth: int, replicas: int, seed: int = 0
) -> InterfaceStats:
    """Galton-Watson process with Binomial(8, p^2) offspring per individual.

    Models the count of face-adjacent retained cube pairs across a shared
    face of the level-n sponge approximations; subcritical iff 8 p^2 < 1.
    """
    if not 0 <= p <= 1:
        raise InputError("p must be in [0, 1]")
    if replicas < 1:
        raise InputError("replicas must be >= 1")
    pp = p * p
    extinct = 0
    for i in range(replicas):
        rng = stream(seed, i)
        z = 1
        for _ in range(depth):
            if z == 0 or z > _INTERFACE_CAP:
                break
            z = int(rng.binomial(8 * z, pp))
        if z == 0:
            extinct += 1
    return InterfaceStats(
        p=p,
        mean_offspring=8 * pp,
        depth=depth,
        replicas=replicas,
        extinction_frequency=extinct / replicas,
        analytic_fixed_point=extinction_probability(8, pp),
    )


def empirical_box_dimension(s: SurvivalSet, L: int) -> float:
    """log(#retained) / (n log L); NaN for extinct realizations."""
    count = len(s.retained)
    if count == 0 or s.depth == 0:
        return float("nan") if count == 0 else 0.0
    return math.log(count) / (s.depth * math.log(L))
