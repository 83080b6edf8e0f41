"""Integer self-similar IFSs on the line.

A system consists of maps ``f_i(x) = x / L + t_i`` with integer translations
``t_i >= 0``.  Equal maps are merged into ``(t_j, n_j)`` pairs where ``n_j``
is the multiplicity.  The normal form used everywhere in this package has
``t_0 = 0`` and ``(L - 1) | t_{m-1}``, so the convex hull of the attractor is
``[0, n_tilde * L]`` with ``n_tilde = t_{m-1} / (L - 1)``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import InputError, check_int, shown


@dataclass(frozen=True)
class LineIFS:
    """A normalized integer self-similar IFS on the line.

    ``translations`` is a sorted tuple of ``(t_j, n_j)`` pairs with distinct
    ``t_j`` and multiplicities ``n_j >= 1``.  ``applied_factor`` records the
    integer conjugation factor applied by :func:`normalize` to repair the
    divisibility condition (1 when none was needed).
    """

    L: int
    translations: tuple[tuple[int, int], ...]
    applied_factor: int = 1

    def __post_init__(self) -> None:
        check_int(self.L, "contraction base", 2)
        if not self.translations:
            raise InputError("translation set is empty")
        ts = [check_int(t, "translation") for t, _ in self.translations]
        for _, n in self.translations:
            check_int(n, "multiplicity", 1)
        check_int(self.applied_factor, "applied factor", 1)
        if ts[0] != 0:
            raise InputError("normal form requires t_0 = 0")
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            raise InputError("translations must be strictly increasing")
        if ts[-1] % (self.L - 1) != 0:
            raise InputError(
                f"(L-1) = {shown(self.L - 1)} does not divide t_max = {shown(ts[-1])}; "
                "use normalize() to repair by conjugation"
            )

    @property
    def M(self) -> int:
        """Total number of maps, counted with multiplicity."""
        return sum(n for _, n in self.translations)

    @property
    def n_tilde(self) -> int:
        return self.translations[-1][0] // (self.L - 1)

    def map_translations(self) -> list[int]:
        """All M translations, with multiplicity, in sorted order.

        This fixes the word-index -> map assignment used by the simulator.
        """
        out: list[int] = []
        for t, n in self.translations:
            out.extend([t] * n)
        return out


def normalize(L: int, raw_translations) -> LineIFS:
    """Build the normal form of an IFS from a raw translation multiset.

    Shifts translations so the minimum is 0 and merges duplicates.  If
    ``(L - 1)`` does not divide the largest translation, every translation is
    multiplied by ``k = (L-1) / gcd(L-1, t_max)`` -- an affine conjugation
    that preserves all phase properties -- and the factor is recorded.
    """
    check_int(L, "contraction base", 2)
    raw = [check_int(t, "translation") for t in raw_translations]
    if not raw:
        raise InputError("translation set is empty")
    low = min(raw)
    shifted = [t - low for t in raw]
    t_max = max(shifted)
    factor = 1
    if t_max > 0 and t_max % (L - 1) != 0:
        factor = (L - 1) // math.gcd(L - 1, t_max)
        shifted = [t * factor for t in shifted]
    counts = Counter(shifted)
    translations = tuple(sorted(counts.items()))
    return LineIFS(L=L, translations=translations, applied_factor=factor)


def scale(ifs: LineIFS, factor: int) -> LineIFS:
    """Affinely conjugate ``ifs`` by multiplying all translations by ``factor``.

    Used to reproduce alternative (non-minimal) representations of the same
    system, e.g. the translation set {0, 3, 6} instead of {0, 1, 2}.
    """
    check_int(factor, "scale factor", 1)
    translations = tuple((t * factor, n) for t, n in ifs.translations)
    return LineIFS(L=ifs.L, translations=translations,
                   applied_factor=ifs.applied_factor)
