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

from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from hashlib import blake2b
from itertools import accumulate
from typing import TYPE_CHECKING

from .errors import InputError, check_int, check_rational, shown
from .line_ifs import LineIFS
from .phase import extinction_probability

if TYPE_CHECKING:
    import numpy as np

_TWO64 = 2**64
_INTERFACE_CAP = 10**7  # population at which a replica counts as surviving
_NODE_BUDGET = 10**6  # most nodes one realization hashes, at 1-3 us a node


def _check_seed(seed: int) -> int:
    return check_int(seed, "seed", 0, _TWO64)


def stream(seed: int, index: int) -> np.random.Generator:
    """Monte Carlo draw ``index`` of ``seed``: Philox keyed by (seed, index)."""
    import numpy as np

    _check_seed(seed)
    check_int(index, "index", 0, _TWO64)
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _extend(words: list, level: tuple) -> list:  # level: the next level's (parents, digits)
    return [words[j] + (i,) for j, i in zip(*level)]


@dataclass(frozen=True)
class SurvivalSet:
    """A depth-n realization, kept as parent index and digit per level.

    Word j of level k >= 1 is word ``parents[k-1][j]`` of level k - 1 followed
    by ``digits[k-1][j]``; stored levels stop at ``depth`` or the first empty one.
    """

    M: int
    p: Fraction
    depth: int
    seed: int
    parents: tuple[tuple[int, ...], ...]
    digits: tuple[tuple[int, ...], ...]

    @cached_property
    def levels(self) -> tuple[frozenset[tuple[int, ...]], ...]:
        """levels[k]: retained words |w| = k, every level through ``depth``."""
        words = accumulate(zip(self.parents, self.digits), _extend, initial=[()])
        levels = [frozenset(level) for level in words]
        return tuple(levels + levels[-1:] * (self.depth + 1 - len(levels)))

    @cached_property
    def retained(self) -> frozenset[tuple[int, ...]]:
        """levels[-1], folded from the stored levels without keeping their words."""
        return frozenset(reduce(_extend, zip(self.parents, self.digits), [()]))

    @property
    def retained_count(self) -> int:
        return len(self.digits[-1]) if self.digits else 1

    @property
    def extinct_level(self) -> int | None:
        """First level with no retained words, or None if alive at depth."""
        return len(self.digits) if self.digits and not self.digits[-1] else None


def sample_survival(M: int, p, depth: int, seed: int) -> SurvivalSet:
    """Draw one realization of the retention tree down to ``depth``, depth first."""
    check_int(M, "arity M", 2)
    check_int(depth, "depth", 0, _NODE_BUDGET + 1)  # deeper, only a dead tree fits the budget
    _check_seed(seed)
    pf = check_rational(p, "p", 0, 1)
    # h / 2^64 < p  <=>  h < ceil(p * 2^64), as h is an integer; the digest's
    # last byte is h's top byte, so it decides unless it equals the bound's
    if not depth:
        return SurvivalSet(M=M, p=pf, depth=0, seed=seed, parents=(), digits=())
    if M > _NODE_BUDGET:  # the root alone hashes M nodes
        raise InputError(f"the realization hashes more than {_NODE_BUDGET} nodes")
    bound = -((-pf.numerator << 64) // pf.denominator)
    top = bound >> 56
    labels = [(i, str(i).encode()) for i in reversed(range(M))]  # 0 is pushed last
    parents: list[list[int]] = []
    digits: list[list[int]] = []
    # nodes to expand, as parallel stacks: level, index in the level, and hash
    # state (keyed; for a node below the root, then fed its message and a comma)
    states = [blake2b(digest_size=8, key=seed.to_bytes(8, "little"))]
    ks, js = [0], [0]
    hashed = 0
    while states:
        state, k, j = states.pop(), ks.pop(), js.pop()
        hashed += M
        if hashed > _NODE_BUDGET:
            raise InputError(f"the realization hashes more than {_NODE_BUDGET} nodes")
        if k == len(parents):
            parents.append([])
            digits.append([])
        par, dig, inner = parents[k], digits[k], k + 1 < depth
        for i, label in labels:
            h = state.copy()
            h.update(label)
            d = h.digest()
            if d[7] < top or d[7] == top and int.from_bytes(d, "little") < bound:
                if inner:
                    h.update(b",")
                    states.append(h)
                    ks.append(k + 1)
                    js.append(len(par))
                par.append(j)
                dig.append(i)
    for k in range(len(parents)):  # one level at a time, so only one is held twice
        parents[k], digits[k] = tuple(parents[k]), tuple(digits[k])
    return SurvivalSet(M=M, p=pf, depth=depth, seed=seed,
                       parents=tuple(parents), digits=tuple(digits))


@dataclass(frozen=True)
class CoverageStats:
    depth: int
    covered_cells: int
    total_cells: int
    measure: Fraction  # covered length of the projected hull
    longest_run: int
    full_cover: bool


def project_survival(ifs: LineIFS, s: SurvivalSet) -> CoverageStats:
    """Which L-adic cells of the projected hull are covered at depth n.

    Word index ``i`` maps to the i-th translation of ``ifs`` in the
    multiplicity expansion order.  All interval arithmetic is exact on
    integers.
    """
    if ifs.M != s.M:
        raise InputError(f"arity mismatch: ifs.M = {shown(ifs.M)}, survival M = {shown(s.M)}")
    L, nt, n = ifs.L, ifs.n_tilde, s.depth
    maps = ifs.map_translations() if s.digits else []  # depth 0 maps no digit
    total_cells = nt * L**n
    # left endpoints of the f_w(hull) in units of L^{1-n}; each covers [X, X + nt)
    starts = [0]
    for par, dig in zip(s.parents, s.digits):  # X_{wi} = X_w L + t_i
        starts = [starts[j] * L + maps[i] for j, i in zip(par, dig)]
    runs: list[list[int]] = []  # maximal runs [lo, hi) of covered cells
    for X in sorted(set(starts)) if nt else ():
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
    p = float(check_rational(p, "p", 0, 1))
    check_int(depth, "depth", 0)
    check_int(replicas, "replicas", 1)
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
