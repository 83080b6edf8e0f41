"""Basic-type intervals, transition matrices and the self-similar measure.

For a normalized :class:`~fracphase.line_ifs.LineIFS` the attractor's natural
measure nu lives on L-adic intervals ``J^k = [k*L, (k+1)*L]``.  The *basic
types* are the candidates ``k`` with ``nu(J^k) > 0``; they index a family of
``N x N`` nonnegative integer transition matrices ``A_a`` (one per child
digit ``a`` in ``[L]``) whose ``(l, k)`` entry counts, with multiplicity, the
maps sending ``J^k`` onto the ``a``-th L-adic child of ``J^l``.

Everything in this module is exact: arbitrary-precision integers and
``fractions.Fraction`` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import AmbiguityError, InvariantError
from .line_ifs import LineIFS

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Word:
    """A finite digit string over a fixed alphabet size (``base``)."""

    digits: tuple[int, ...]
    base: int

    def __post_init__(self) -> None:
        if any(not (0 <= d < self.base) for d in self.digits):
            raise ValueError(f"digits must lie in [0, {self.base})")

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return "".join(str(d) for d in self.digits) if self.digits else "<empty>"


@dataclass(frozen=True)
class TypeSystem:
    """Basic types of a line IFS together with the matrix family {A_a}."""

    parent: LineIFS
    basic_offsets: tuple[int, ...]
    matrices: tuple[Matrix, ...]  # one N x N matrix per digit a in [L]
    nu: tuple[Fraction, ...]
    undecided: tuple[int, ...] = field(default=())

    @property
    def N(self) -> int:
        return len(self.basic_offsets)

    @property
    def L(self) -> int:
        return self.parent.L

    @property
    def M(self) -> int:
        return self.parent.M

    def sum_matrix(self) -> Matrix:
        """A = sum over a of A_a."""
        N = self.N
        return tuple(
            tuple(sum(A[i][j] for A in self.matrices) for j in range(N))
            for i in range(N)
        )


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n, k, m = len(A), len(B), len(B[0])
    if len(A[0]) != k:
        raise InvariantError(f"cannot multiply {n}x{len(A[0])} by {k}x{m}")
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def pattern(mat) -> tuple[tuple[bool, ...], ...]:
    """Boolean zero-pattern of a nonnegative matrix."""
    return tuple(tuple(x > 0 for x in row) for row in mat)


def pattern_mul(P, Q) -> tuple[tuple[bool, ...], ...]:
    """Boolean product of two square zero-patterns."""
    n = len(P)
    return tuple(
        tuple(any(P[i][k] and Q[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _candidate_matrices(ifs: LineIFS) -> tuple[list[list[list[int]]], list[int]]:
    """Transition counts over *all* candidate offsets 0..n_tilde-1.

    Returns (hat_A, candidates) where hat_A[a][c2][c] accumulates the
    multiplicity of maps sending candidate interval c into the a-th child of
    candidate interval c2.
    """
    L = ifs.L
    candidates = list(range(ifs.n_tilde)) if ifs.n_tilde >= 1 else [0]
    nc = len(candidates)
    hat = [[[0] * nc for _ in range(nc)] for _ in range(L)]
    for ci, c in enumerate(candidates):
        for t, n in ifs.translations:
            c2, a = divmod(c + t, L)
            if not 0 <= c2 < nc:
                raise InvariantError(
                    f"candidate image offset {c2} escapes the candidate range"
                )
            hat[a][c2][ci] += n
    return hat, candidates


def _nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the nullspace of a rational matrix, via Gauss-Jordan."""
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -mat[pr][fc]
        basis.append(vec)
    return basis


def _bracket_basic(ifs: LineIFS, candidates: list[int], depth: int) -> set[int]:
    """Candidates provably basic via interval bracketing up to ``depth``.

    A candidate c is basic once some composition image of the hull lands
    inside [c*L, (c+1)*L].  Positions are tracked as exact integers: after k
    symbols the image of the hull is [Y, Y + n_tilde*L] in units of L^{1-k}.
    """
    L, nt = ifs.L, ifs.n_tilde
    basic: set[int] = set()
    level = {0}  # distinct position numerators Y at the current depth
    for k in range(1, depth + 1):
        nxt = set()
        for Y in level:
            for t, _ in ifs.translations:
                nxt.add(Y * L + t)
        level = nxt
        for c in candidates:
            if c in basic:
                continue
            # image interval: [Y, Y + nt] in units of L^{1-k};
            # candidate interval: [c*L, (c+1)*L] = [c*L*L^{k-1}, (c+1)*L*L^{k-1}]
            # in the same units.
            lo = c * L * L ** (k - 1)
            hi = (c + 1) * L * L ** (k - 1)
            if any(lo <= Y and Y + nt <= hi for Y in level):
                basic.add(c)
        if len(basic) == len(candidates):
            break
    return basic


def compute_type_system(ifs: LineIFS, bracket_depth: int = 12) -> TypeSystem:
    """Derive the basic types, transition matrices and measure vector.

    The basic offsets are computed as the support of the exact nonnegative
    solution of ``v = (1/M) * hat_A * v`` with ``sum(v) = 1`` over all
    candidate offsets.  When that linear system is degenerate (solution space
    of dimension > 1, or a sign-mixed solution) we fall back to interval
    bracketing and raise :class:`AmbiguityError` if candidates remain
    undecided.
    """
    hat, candidates = _candidate_matrices(ifs)
    L, M = ifs.L, ifs.M
    nc = len(candidates)
    # hat_sum - M*I, as a rational matrix
    rows = [
        [
            Fraction(sum(hat[a][i][j] for a in range(L)) - (M if i == j else 0))
            for j in range(nc)
        ]
        for i in range(nc)
    ]
    basis = _nullspace(rows)
    v: list[Fraction] | None = None
    if len(basis) == 1:
        cand = basis[0]
        total = sum(cand)
        if total != 0:
            cand = [x / total for x in cand]
            if all(x >= 0 for x in cand):
                v = cand
    if v is None:
        # Degenerate eigenspace: decide supports by bracketing, then re-solve
        # restricted to the provably-basic candidates.
        basic = _bracket_basic(ifs, candidates, bracket_depth)
        if not basic:
            raise AmbiguityError(
                "no candidate interval could be certified basic by bracketing"
            )
        idx = sorted(candidates.index(c) for c in basic)
        closed = all(
            all(hat[a][i][j] == 0 for a in range(L) for i in range(nc) if i not in idx)
            for j in idx
        )
        sub = [
            [
                Fraction(
                    sum(hat[a][idx[i]][idx[j]] for a in range(L))
                    - (M if i == j else 0)
                )
                for j in range(len(idx))
            ]
            for i in range(len(idx))
        ]
        sub_basis = _nullspace(sub)
        if not closed or len(sub_basis) != 1:
            undecided = [candidates[i] for i in range(nc) if i not in idx]
            raise AmbiguityError(
                f"basic-type extraction is ambiguous; certified basic: "
                f"{sorted(candidates[i] for i in idx)}, undecided: {undecided}"
            )
        w = sub_basis[0]
        total = sum(w)
        w = [x / total for x in w]
        if any(x <= 0 for x in w):
            raise AmbiguityError("restricted measure solution is not positive")
        v = [Fraction(0)] * nc
        for i, x in zip(idx, w):
            v[i] = x

    support = [i for i in range(nc) if v[i] > 0]
    basic_offsets = tuple(candidates[i] for i in support)
    matrices = tuple(
        tuple(tuple(hat[a][i][j] for j in support) for i in support)
        for a in range(L)
    )
    nu = tuple(v[i] for i in support)
    ts = TypeSystem(parent=ifs, basic_offsets=basic_offsets,
                    matrices=matrices, nu=nu)
    _validate(ts)
    return ts


def _validate(ts: TypeSystem) -> None:
    N, M, L = ts.N, ts.M, ts.L
    # mass conservation: every column of the stacked family sums to M
    for j in range(N):
        total = sum(ts.matrices[a][i][j] for a in range(L) for i in range(N))
        if total != M:
            raise InvariantError(
                f"column {j} of the matrix family sums to {total}, expected {M}"
            )
    # exact measure fixed point
    if sum(ts.nu) != 1 or any(x <= 0 for x in ts.nu):
        raise InvariantError("nu is not a positive probability vector")
    A = ts.sum_matrix()
    for i in range(N):
        if sum(A[i][j] * ts.nu[j] for j in range(N)) != M * ts.nu[i]:
            raise InvariantError("nu is not a fixed point of A / M")
    # primitivity of A within N^2 steps, on boolean patterns
    pat = pattern(A)
    cur = pat
    for _ in range(max(1, N * N)):
        if all(all(row) for row in cur):
            break
        cur = pattern_mul(cur, pat)
    else:
        raise InvariantError("sum matrix A is not primitive")


def matrix_product(ts: TypeSystem, w: Word) -> Matrix:
    """Left-to-right product ``A_{a_1} ... A_{a_n}``; empty word -> identity."""
    if w.base != ts.L:
        raise ValueError(f"word alphabet {w.base} != L = {ts.L}")
    out = identity(ts.N)
    for a in w.digits:
        out = mat_mul(out, ts.matrices[a])
    return out


def column_sums(ts: TypeSystem, a: int) -> tuple[int, ...]:
    """Column sums of A_a: CS_{a,j} = sum_i A_a(i, j)."""
    if not 0 <= a < ts.L:
        raise ValueError(f"digit {a} out of range [0, {ts.L})")
    A = ts.matrices[a]
    return tuple(sum(A[i][j] for i in range(ts.N)) for j in range(ts.N))


def cylinder_measure(ts: TypeSystem, ell: int, w: Word) -> Fraction:
    """Exact measure nu(J^ell_w) = M^{-n} * (row ell of A_w) . nu."""
    if not 0 <= ell < ts.N:
        raise ValueError(f"type index {ell} out of range [0, {ts.N})")
    Aw = matrix_product(ts, w)
    num = sum(Aw[ell][k] * ts.nu[k] for k in range(ts.N))
    return num / Fraction(ts.M) ** len(w)


def covering_cylinder_count(ts: TypeSystem, w: Word) -> int:
    """Norm ||A_w|| = sum of all entries.

    Upper-bounds the number of level-n retained cylinders that can contain a
    point whose L-adic address has tail ``w``.
    """
    Aw = matrix_product(ts, w)
    return sum(sum(row) for row in Aw)
