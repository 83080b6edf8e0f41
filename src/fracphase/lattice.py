"""Equal-ratio lattice IFSs in R^d and their rational-direction projections.

Cells are stored on the integer lattice (pre-scaled by L), so the dot product
``dir . cell`` is the integer translation of the projected map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, check_int, shown
from .line_ifs import LineIFS, normalize


@dataclass(frozen=True)
class LatticeIFS:
    """M maps ``x -> x/L + cell/L`` indexed by integer cells in [0, L)^d."""

    d: int
    L: int
    cells: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        check_int(self.d, "dimension", 1)
        check_int(self.L, "base", 2)
        if not self.cells:
            raise InputError("cell set is empty")
        for cell in self.cells:
            if len(cell) != self.d:
                raise InputError(f"cell ({', '.join(map(shown, cell))}) has wrong dimension")
            for x in cell:
                check_int(x, "cell coordinate", 0, self.L)

    @property
    def M(self) -> int:
        return len(self.cells)


def make_direction(components) -> tuple[int, ...]:
    """Validate and gcd-reduce an integer projection direction."""
    vec = tuple(check_int(x, "direction component") for x in components)
    if all(x == 0 for x in vec):
        raise InputError("direction must be nonzero")
    g = math.gcd(*(abs(x) for x in vec))
    return tuple(x // g for x in vec)


# Lower-left corners (in L=3 lattice coordinates) of the 7 cubes removed
# from the first approximation of the Menger sponge.
MENGER_REMOVED: frozenset[tuple[int, int, int]] = frozenset(
    {(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)}
)


def menger() -> LatticeIFS:
    """The Menger sponge: 20 of the 27 cells of [3]^3."""
    cells = frozenset(
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if (i, j, k) not in MENGER_REMOVED
    )
    return LatticeIFS(d=3, L=3, cells=cells)


def sierpinski() -> LatticeIFS:
    """The Sierpinski carpet: 8 of the 9 cells of [3]^2."""
    cells = frozenset(
        (i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)
    )
    return LatticeIFS(d=2, L=3, cells=cells)


def project(lat: LatticeIFS, direction) -> LineIFS:
    """Project a lattice IFS along an integer direction to a line IFS.

    The raw translations are the multiset ``{dir . cell}``; the result is the
    minimal normalized form (use :func:`fracphase.line_ifs.scale` for scaled
    representations).
    """
    vec = make_direction(direction)
    if len(vec) != lat.d:
        raise InputError(
            f"direction has {len(vec)} components, lattice has dimension {lat.d}"
        )
    raw = [sum(a * x for a, x in zip(vec, cell)) for cell in lat.cells]
    return normalize(lat.L, raw)
