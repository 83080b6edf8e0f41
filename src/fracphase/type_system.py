"""Basic-type intervals, transition matrices and the self-similar measure.

For a normalized :class:`~fracphase.line_ifs.LineIFS` the attractor's natural
measure nu lives on L-adic intervals ``J^k = [k*L, (k+1)*L]``.  The *basic
types* are the candidates ``k`` with ``nu(J^k) > 0``, which are the candidates
reachable from candidate 0 under the maps; they index a family of
``N x N`` nonnegative integer transition matrices ``A_a`` (one per child
digit ``a`` in ``[L]``) whose ``(l, k)`` entry counts, with multiplicity, the
maps sending ``J^k`` onto the ``a``-th L-adic child of ``J^l``.  The basic
types are closed under the maps, so the matrices are built over them alone.

Everything in this module is exact: arbitrary-precision integers and
``fractions.Fraction`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import InputError, InvariantError, shown
from .line_ifs import LineIFS

Matrix = tuple[tuple[int, ...], ...]
_CANDIDATE_BUDGET = 10**5  # most L * max(n_tilde, 1)^2, which also bounds L * N^2


@dataclass(frozen=True)
class TypeSystem:
    """Basic types of a line IFS together with the matrix family {A_a}."""

    parent: LineIFS
    basic_offsets: tuple[int, ...]
    matrices: tuple[Matrix, ...]  # one N x N matrix per digit a in [L]
    nu: tuple[Fraction, ...]

    @property
    def N(self) -> int:
        return len(self.basic_offsets)

    @property
    def L(self) -> int:
        return self.parent.L

    @property
    def M(self) -> int:
        return self.parent.M


def pattern(mat) -> tuple[int, ...]:
    """Zero-pattern of a nonnegative matrix: bit j of row i is set iff entry > 0."""
    return tuple(sum(1 << j for j, x in enumerate(row) if x > 0) for row in mat)


def row_mul(row: int, pat) -> int:
    """One row of a boolean product: the OR of ``pat``'s rows k over the set bits k of ``row``.

    Row i of P*Q is ``row_mul(P[i], Q)``; it depends on row i of P alone.
    """
    return reduce(or_, (q for k, q in enumerate(pat) if row >> k & 1), 0)


def _fixed_measure(A: Matrix, M: int) -> tuple[Fraction, ...]:
    """The probability vector spanning the kernel of ``A - M*I``, A = sum of A_a.

    Fraction-free Gauss-Jordan in Python ints: every eliminated row is divided
    by its content, the free entry is set to the lcm of the pivots so that the
    back-substitution stays integral, and the vector is normalized once.
    """
    N = len(A)
    rows = [[x - (M if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(A)]
    pivots: list[int] = []
    for c in range(N):
        r = len(pivots)
        i = next((i for i in range(r, N) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        p = rows[r][c]
        for k in range(N):
            if k != r and rows[k][c]:
                f = rows[k][c]
                row = [p * x - f * y for x, y in zip(rows[k], rows[r])]
                g = math.gcd(*row)
                rows[k] = [x // g for x in row] if g else row
        pivots.append(c)
    free = [c for c in range(N) if c not in pivots]
    if len(free) != 1:
        raise InvariantError(
            f"A - M*I has {len(free)} free columns; its kernel must be a line"
        )
    (fc,) = free
    scale = math.lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    v = [0] * N
    v[fc] = scale
    for r, c in enumerate(pivots):
        v[c] = -rows[r][fc] * scale // rows[r][c]
    total = sum(v)
    return tuple(Fraction(x, total) for x in v)


def compute_type_system(ifs: LineIFS) -> TypeSystem:
    """Derive the basic types, transition matrices and measure vector.

    Under c -> (c + t) // L, with t_0 = 0, every candidate reaches candidate 0,
    and the candidate transition counts divided by M form a column-stochastic
    chain.  Its one closed class is the set of candidates reachable from 0,
    which is exactly the support of the stationary vector: these are the
    basic offsets.  That set is closed under the maps, so each ``A_a`` is
    built directly over it, and ``nu`` spans the kernel of ``A - M*I`` for
    the sum matrix ``A``, solved once in integers.
    """
    L = ifs.L
    entries = L * max(ifs.n_tilde, 1) ** 2
    if entries > _CANDIDATE_BUDGET:
        raise InputError(
            f"the type system needs {shown(entries)} candidate transition entries, "
            f"more than {_CANDIDATE_BUDGET}"
        )
    basic, todo = {0}, [0]
    while todo:
        c = todo.pop()
        for t, _ in ifs.translations:
            c2 = (c + t) // L
            if c2 not in basic:
                basic.add(c2)
                todo.append(c2)
    support = sorted(basic)
    index = {c: i for i, c in enumerate(support)}
    mats = [[[0] * len(support) for _ in support] for _ in range(L)]
    for c in support:
        for t, n in ifs.translations:
            c2, a = divmod(c + t, L)
            mats[a][index[c2]][index[c]] += n
    matrices = tuple(tuple(map(tuple, rows)) for rows in mats)
    A = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*matrices))
    ts = TypeSystem(parent=ifs, basic_offsets=tuple(support),
                    matrices=matrices, nu=_fixed_measure(A, ifs.M))
    _validate(ts, A)
    return ts


def _validate(ts: TypeSystem, A: Matrix) -> None:
    N, M = ts.N, ts.M
    # mass conservation: every column of A sums to M
    for j, total in enumerate(map(sum, zip(*A))):
        if total != M:
            raise InvariantError(
                f"column {j} of the matrix family sums to {total}, expected {M}"
            )
    # exact measure fixed point
    if sum(ts.nu) != 1 or any(x <= 0 for x in ts.nu):
        raise InvariantError("nu is not a positive probability vector")
    for i in range(N):
        if sum(A[i][j] * ts.nu[j] for j in range(N)) != M * ts.nu[i]:
            raise InvariantError("nu is not a fixed point of A / M")
    # primitivity of A within N^2 steps, on boolean patterns
    pat = pattern(A)
    cur = pat
    for _ in range(max(1, N * N)):
        if cur.count((1 << N) - 1) == N:
            break
        cur = tuple(row_mul(row, pat) for row in cur)
    else:
        raise InvariantError("sum matrix A is not primitive")

