"""Phase thresholds of one type system, assembled into a single report.

Each threshold marks a *sufficient* condition for one regime of the random
(coin-tossing) construction with retention parameter p:

- interval containment: p * CS > 1 for every column sum CS of every digit
  matrix, plus a finite matrix product with a strictly positive row;
- empty interior: some digit matrix has rho(p * A_a) < 1;
- positive Lebesgue measure: p^L times the product over digits of the U-th
  column sums exceeds 1 for every type U, plus a positive row in every
  single digit matrix.

:func:`phase_report` computes every threshold and its witnesses once, and
keeps each digit's enclosure with its characteristic polynomial, so
:meth:`PhaseReport.verdict` decides each condition at a p in [0, 1] from the
report alone.  Each verdict is one exact sign of p against a threshold, read
as holds / boundary / fails: the conditions are strict inequalities that say
nothing at equality.  Thresholds involving roots are kept as exact power
predicates; floats appear only in rendered output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, check_int, check_rational
from .spectral import SpectralEnclosure, rho_sign, spectral_radius
from .type_system import _CANDIDATE_BUDGET, TypeSystem, pattern, row_mul

_ROW_BUDGET = 10**6  # distinct zero-pattern rows the witness BFS may visit


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class RootThreshold:
    """The algebraic number base**(-1/root), kept as an exact predicate."""

    base: int
    root: int

    def __post_init__(self) -> None:
        check_int(self.base, "base", 1)
        # a report's root is L, which the candidate budget keeps at most 10^5;
        # a larger root would make ``sign`` raise p to it for seconds
        check_int(self.root, "root", 1, _CANDIDATE_BUDGET + 1)

    @property
    def value_float(self) -> float:
        try:
            return self.base ** (-1.0 / self.root)
        except OverflowError:  # base is past the float range
            return math.exp(-math.log(self.base) / self.root)

    def exact_str(self) -> str:
        if self.root == 1:
            return f"1/{self.base}"
        return f"({self.base})^(-1/{self.root})"

    def sign(self, p) -> int:
        """Exact sign of p - base**(-1/root): -1 for p <= 0, else that of p^root * base - 1."""
        p = check_rational(p, "p")
        return -1 if p <= 0 else _sign(p**self.root * self.base - 1)


def positive_row_witness(ts: TypeSystem):
    """Lexicographically least shortest word w with a strictly positive row in A_w.

    A BFS over single zero-pattern rows (N-bit ints, at most 2^N states): row
    i of A_w A_a depends only on row i of A_w, and a row already seen at an
    earlier word has the same continuations there.  Either a witness is found,
    absence is certified, or the budget of distinct rows is exceeded.

    Returns (word_or_None, inconclusive_flag); a word is a tuple of digits.
    """
    gens = [pattern(A) for A in ts.matrices]
    full = (1 << ts.N) - 1
    seen: set[int] = set()
    history: list[tuple[list[int], list[int]]] = []  # per level: parent index, digit
    level = [tuple(1 << i for i in range(ts.N))]  # the empty word's rows
    while level:
        parents, digits, nxt = [], [], []
        for k, rows in enumerate(level):
            for a, gen in enumerate(gens):
                new = {row_mul(row, gen) for row in rows} - seen
                if full in new:
                    word = (a,)
                    for par, dig in reversed(history):
                        word, k = (dig[k], *word), par[k]
                    return word, False
                if new:
                    seen |= new
                    parents.append(k)
                    digits.append(a)
                    nxt.append(tuple(new))
            if len(seen) > _ROW_BUDGET:
                return None, True
        history.append((parents, digits))
        level = nxt
    return None, False


@dataclass(frozen=True)
class PhaseReport:
    """All p-thresholds derivable from one type system."""

    ts: TypeSystem
    p_extinction: Fraction  # below: a.s. extinction
    p_dim1: Fraction  # similarity dimension exceeds 1 above this
    interval_threshold: Fraction | None  # 1 / min CS (None if min CS = 0)
    interval_witness: tuple[int, ...] | None
    interval_inconclusive: bool
    no_interval_threshold: SpectralEnclosure  # enclosure of 1 / min_a rho(A_a)
    digit_radii: tuple[SpectralEnclosure, ...]  # rho(A_a) per digit, with char polys
    positive_measure_threshold: RootThreshold | None  # None unless each A_a has a positive row
    notes: tuple[str, ...] = ()

    def thresholds(self) -> list[tuple[str, str, object, tuple[int, ...] | None]]:
        """The ordered (name, theorem, value, witness) rows of the report.

        A value is a ``Fraction``, a ``RootThreshold``, a
        ``SpectralEnclosure``, or None when the condition cannot hold in this
        representation.  The interval row is left out when some digit
        matrix has a zero column.
        """
        rows = [
            ("extinction", "branching-process criticality", self.p_extinction, None),
            ("dimension-one", "similarity dimension", self.p_dim1, None),
        ]
        if self.interval_threshold is not None:
            rows.append(
                ("interval-sufficient", "column-sum growth with positive-row product",
                 self.interval_threshold, self.interval_witness)
            )
        rows.append(
            ("no-interval", "spectral contraction of a digit matrix",
             self.no_interval_threshold, None)
        )
        rows.append(("positive-measure", "geometric-mean column growth",
                     self.positive_measure_threshold, None))
        return rows

    def verdict(self, name: str, p) -> str:
        """Exact three-valued verdict of the condition behind threshold ``name``.

        "extinction" holds for p < 1/M and "dimension-one" for p > L/M.
        "interval-sufficient" and "positive-measure" hold above their
        thresholds and fail wherever their witness condition is certainly
        unmet.  "no-interval" holds when p * rho(A_a) < 1 for some digit a,
        decided on the kept characteristic polynomials without a tolerance.
        Each is one exact sign s (1 holds, 0 boundary, -1 fails); "boundary"
        means equality, or an inconclusive witness search.  A p that is not a
        rational in [0, 1] is an input error.
        """
        p = check_rational(p, "p", 0, 1)
        if name == "extinction":
            s = _sign(self.p_extinction - p)
        elif name == "dimension-one":
            s = _sign(p - self.p_dim1)
        elif name == "interval-sufficient":
            thr = self.interval_threshold
            if thr is None or (self.interval_witness is None and not self.interval_inconclusive):
                s = -1
            else:  # an inconclusive witness search caps the verdict at "boundary"
                s = min(_sign(p - thr), 0 if self.interval_inconclusive else 1)
        elif name == "no-interval":  # p * rho < 1  <=>  1/p > rho
            s = 1 if p == 0 else max(rho_sign(e.coeffs, 1 / p) for e in self.digit_radii)
        elif name == "positive-measure":
            thr = self.positive_measure_threshold
            s = -1 if thr is None else thr.sign(p)
        else:
            raise InputError(f"no exact verdict for threshold {name!r}")
        return ("fails", "boundary", "holds")[s + 1]


def phase_report(ts: TypeSystem) -> PhaseReport:
    """Assemble every threshold with its witnesses and enclosures."""
    M, L = ts.M, ts.L
    cs = [tuple(map(sum, zip(*A))) for A in ts.matrices]
    min_cs = min(map(min, cs))
    # with a zero column no output reads the witness, so the search is skipped
    witness, inconclusive = positive_row_witness(ts) if min_cs > 0 else (None, False)
    interval_threshold = Fraction(1, min_cs) if min_cs > 0 else None

    seen = {}  # A and its mirror J A J (J the reversal) are similar: one enclosure
    for A in ts.matrices:
        if A not in seen:
            seen[A] = seen[tuple(row[::-1] for row in reversed(A))] = spectral_radius(A)
    radii = tuple(seen[A] for A in ts.matrices)
    # threshold 1 / min_a rho(A_a), each end over all digits, capped at 1 (p <= 1)
    no_int = SpectralEnclosure(1 / max(min(e.upper for e in radii), Fraction(1)),
                               1 / max(min(e.lower for e in radii), Fraction(1)))

    # a strictly positive row leaves no zero column, so every product below
    # (over digits, of the U-th column sums, for each type U) is then > 0
    rows_ok = all((1 << ts.N) - 1 in pattern(A) for A in ts.matrices)
    pos_thr = RootThreshold(min(math.prod(col) for col in zip(*cs)), L) if rows_ok else None

    notes = []
    if interval_threshold is None:
        notes.append(
            "some digit matrix has a zero column; the interval-containment "
            "condition cannot hold in this representation"
        )
    if interval_threshold is not None and interval_threshold >= 1:
        notes.append(
            "interval-containment condition requires p > 1; vacuous for "
            "this system (min column sum is 1)"
        )
    if not rows_ok:
        notes.append(
            "not every digit matrix has a strictly positive row; the "
            "positive-measure condition cannot hold in this representation"
        )
    if inconclusive:
        notes.append("positive-row witness search hit its row budget")
    if ts.parent.applied_factor != 1:
        notes.append(
            f"translations were conjugated by factor {ts.parent.applied_factor} "
            "to repair divisibility"
        )

    return PhaseReport(
        ts=ts,
        p_extinction=Fraction(1, M),
        p_dim1=Fraction(L, M),
        interval_threshold=interval_threshold,
        interval_witness=witness,
        interval_inconclusive=inconclusive,
        no_interval_threshold=no_int,
        digit_radii=radii,
        positive_measure_threshold=pos_thr,
        notes=tuple(notes),
    )
