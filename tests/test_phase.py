import functools
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import extinction_root, pattern_witness, perron_enclosure, phase_verdict
from test_type_system import line_systems

from fracphase import phase
from fracphase.errors import InputError
from fracphase.lattice import menger, project, sierpinski
from fracphase.line_ifs import LineIFS, normalize, scale
from fracphase.phase import (
    RootThreshold,
    extinction_probability,
    menger_disconnection_threshold,
    phase_report,
    positive_row_witness,
)
from fracphase.serialize import phase_report_to_json
from fracphase.spectral import SpectralEnclosure, char_poly, rho_sign, spectral_radius
from fracphase.type_system import TypeSystem, compute_type_system


@pytest.fixture(scope="module")
def menger_ts():
    return compute_type_system(project(menger(), (1, 1, 1)))


@pytest.fixture(scope="module")
def menger_report(menger_ts):
    return phase_report(menger_ts)


@pytest.fixture(scope="module")
def axis_report():
    return phase_report(compute_type_system(scale(project(menger(), (1, 0, 0)), 3)))


EXACT_VERDICTS = (
    "extinction",
    "dimension-one",
    "interval-sufficient",
    "no-interval",
    "positive-measure",
)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=400)


def test_menger_thresholds(menger_ts):
    rep = phase_report(menger_ts)
    assert rep.p_extinction == Fraction(1, 20)
    assert rep.p_dim1 == Fraction(3, 20)
    assert rep.interval_threshold == Fraction(1, 6)
    assert rep.interval_witness is not None
    assert len(rep.interval_witness) == 1
    assert rep.positive_measure_threshold == RootThreshold(288, 3)
    assert rep.positive_measure_threshold.exact_str() == "(288)^(-1/3)"
    assert not any("strictly positive row" in n for n in rep.notes)


def test_menger_axis_thresholds():
    ts = compute_type_system(scale(project(menger(), (1, 0, 0)), 3))
    rep = phase_report(ts)
    # every digit matrix has a zero column, so the interval condition is
    # unavailable; the spectral route still gives the threshold 1/4
    assert rep.interval_threshold is None
    assert rep.no_interval_threshold.lower <= Fraction(1, 4)
    assert rep.no_interval_threshold.upper >= Fraction(1, 4)
    assert any("strictly positive row" in n for n in rep.notes)
    assert rep.positive_measure_threshold is None
    assert any("zero column" in n for n in rep.notes)


def test_sierpinski_thresholds():
    rep = phase_report(compute_type_system(project(sierpinski(), (1, -1))))
    assert rep.p_extinction == Fraction(1, 8)
    assert rep.interval_threshold == Fraction(1, 2)
    assert rep.positive_measure_threshold == RootThreshold(18, 3)
    assert rep.positive_measure_threshold.exact_str() == "(18)^(-1/3)"


def test_root_threshold_predicates():
    thr = RootThreshold(288, 3)
    assert thr.sign(Fraction(16, 100)) > 0
    assert thr.sign(Fraction(15, 100)) < 0
    assert RootThreshold(4, 2).sign(Fraction(1, 2)) == RootThreshold(6, 1).sign(Fraction(1, 6)) == 0
    assert thr.value_float == 288 ** (-1 / 3)
    # past the float range the root is taken in logs
    assert RootThreshold(3**1000, 1000).value_float == pytest.approx(1 / 3, rel=1e-12)
    assert RootThreshold(10**400, 1).value_float == 0.0
    assert RootThreshold(6, 1).exact_str() == "1/6"
    for base, root in ((0, 3), (-2, 1), (6, 0)):
        with pytest.raises(InputError):
            RootThreshold(base, root)
    # an even root of a negative p is not p: p <= 0 is below every threshold
    for p in (-1, Fraction(-1, 2), 0):
        assert RootThreshold(8, 2).sign(p) < 0
        assert RootThreshold(1, 1).sign(p) < 0


def test_interval_check_three_valued(menger_report):
    rep = menger_report
    assert rep.verdict("interval-sufficient", Fraction(1, 5)) == "holds"
    assert rep.verdict("interval-sufficient", Fraction(1, 6)) == "boundary"
    assert rep.verdict("interval-sufficient", Fraction(1, 7)) == "fails"


def test_no_interval_check(menger_report):
    rep = menger_report
    # min_a rho(A_a) = 6, so rho(p A_a) < 1 for some a iff p < 1/6
    assert rep.verdict("no-interval", Fraction(1, 7)) == "holds"
    assert rep.verdict("no-interval", Fraction(1, 6)) == "boundary"
    assert rep.verdict("no-interval", Fraction(1, 5)) == "fails"
    first, middle, last = rep.digit_radii
    assert first.lower == first.upper == last.lower == last.upper == 6
    assert not middle.is_exact and middle.lower > 6
    assert [len(e.coeffs) for e in rep.digit_radii] == [4, 4, 4]  # N = 3


def test_verdict_rejects_an_unknown_threshold_name(menger_report):
    for name in ("nope", "Extinction"):
        with pytest.raises(InputError, match="no exact verdict"):
            menger_report.verdict(name, Fraction(1, 5))


@pytest.mark.parametrize("name", EXACT_VERDICTS)
def test_verdict_rejects_p_outside_the_unit_interval(name):
    # L=2 {0, 1, 1, 2}: the positive-measure threshold is 4^(-1/2), so an
    # even power once took p = -1 for a p above it
    rep = phase_report(compute_type_system(normalize(2, [0, 1, 1, 2])))
    for p in (-1, Fraction(-1, 2), Fraction(3, 2), 2):
        with pytest.raises(InputError, match=r"p must be in \[0, 1\]"):
            rep.verdict(name, p)
    for p in ("x", float("nan"), float("inf"), None, "1/0"):
        with pytest.raises(InputError, match="p must be a rational number"):
            rep.verdict(name, p)
    assert {rep.verdict(name, 0), rep.verdict(name, 1)} <= {"holds", "fails", "boundary"}


def test_no_interval_verdict_computes_char_polys_once_per_report(monkeypatch):
    import fracphase.spectral as spectral_mod

    calls = []

    def counting(A):
        calls.append(A)
        return char_poly(A)

    monkeypatch.setattr(spectral_mod, "char_poly", counting)
    ts = compute_type_system(project(menger(), (1, 1, 1)))
    rep = phase_report(ts)
    # one per digit up to mirroring, inside spectral_radius: digit 2's matrix
    # is digit 0's reversed in both axes
    assert ts.matrices[2] == tuple(row[::-1] for row in reversed(ts.matrices[0]))
    assert len(calls) == 2
    for p in (Fraction(1, 7), Fraction(1, 6), Fraction(1, 5), Fraction(1, 7)):
        rep.verdict("no-interval", p)
    assert len(calls) == 2  # the verdicts read the report's polynomials


@settings(max_examples=25, deadline=None)
@given(ifs=line_systems())
def test_reused_enclosures_equal_each_digits_own(ifs):
    # a digit whose matrix repeats or mirrors an earlier one reuses its
    # enclosure; that must be the enclosure the digit's own matrix gives
    ts = compute_type_system(ifs)
    radii = phase_report(ts).digit_radii
    own = [spectral_radius(A) for A in ts.matrices]
    assert [(e.lower, e.upper, e.coeffs) for e in radii] == [(e.lower, e.upper, e.coeffs) for e in own]


def test_no_interval_check_exact_for_irrational_radius():
    # menger --dir 1,3,7 has N = 11 and an irrational min_a rho(A_a); a
    # relative offset of 1e-11 from 1/rho_min is decided without a tolerance
    rep = phase_report(compute_type_system(project(menger(), (1, 3, 7))))
    encs = [perron_enclosure(A, Fraction(1, 10**30)) for A in rep.ts.matrices]
    eps = Fraction(1, 10**11)
    below = (1 - eps) / min(up for _, up in encs)
    above = (1 + eps) / min(lo for lo, _ in encs)
    assert rep.verdict("no-interval", below) == "holds"
    assert rep.verdict("no-interval", above) == "fails"


@pytest.mark.parametrize("k_first", [False, True], ids=["2I first", "K first"])
def test_no_interval_threshold_takes_each_end_over_all_digits(k_first):
    # rho(2I) = 2 and the 32-bonacci rho(K) = 1.99999999907 both have upper end
    # 2, so the lower end must come from K whichever digit is first
    n = 32
    two = tuple(tuple(2 * (i == j) for j in range(n)) for i in range(n))
    K = ((1,) * n, *(tuple(int(j == i - 1) for j in range(n)) for i in range(1, n)))
    mats = (K, two) if k_first else (two, K)
    ts = TypeSystem(LineIFS(2, ((0, 1), (1, 1))), tuple(range(n)), mats, (Fraction(1, n),) * n)
    rep = phase_report(ts)
    enc = rep.no_interval_threshold
    assert (enc.lower, enc.upper) == (Fraction(1, 2), Fraction(2**30, 2**31 - 1))
    coeffs = char_poly(K)  # 1/upper <= rho(K) <= 1/lower, and rho(K) < 2
    assert rho_sign(coeffs, 1 / enc.upper) <= 0 <= rho_sign(coeffs, 1 / enc.lower)
    assert rho_sign(coeffs, Fraction(2)) == 1
    rows = phase_report_to_json(rep)["thresholds"]
    assert [r["value_exact"] for r in rows if r["name"] == "no-interval"] == [None]


@settings(max_examples=50, deadline=None)
@given(st.lists(unit_fractions, min_size=2, max_size=6))
def test_verdicts_monotone_in_p(menger_report, axis_report, ps):
    rank = {"fails": 0, "boundary": 1, "holds": 2}
    for rep in (menger_report, axis_report):
        # the exact rational thresholds exercise "boundary"
        exact = {v for _, _, v, _ in rep.thresholds() if isinstance(v, Fraction)}
        if rep.no_interval_threshold.is_exact:
            exact.add(rep.no_interval_threshold.lower)
        grid = sorted(set(ps) | exact)
        for name in EXACT_VERDICTS:
            ranks = [rank[rep.verdict(name, p)] for p in grid]
            assert ranks == sorted(ranks) or ranks == sorted(ranks, reverse=True), name


@settings(max_examples=100, deadline=None)
@given(unit_fractions)
def test_checks_never_both_hold(menger_report, p):
    a = menger_report.verdict("interval-sufficient", p)
    b = menger_report.verdict("no-interval", p)
    assert not (a == "holds" and b == "holds")


@functools.cache
def _capped_report():
    """menger --dir 3,2,0, whose witness (0, 0) lies past a row budget of 1."""
    with mock.patch.object(phase, "_ROW_BUDGET", 1):
        return phase_report(compute_type_system(project(menger(), (3, 2, 0))))


def _exact_points(rep) -> set[Fraction]:
    """0, 1 and every threshold of ``rep`` in [0, 1] that is rational: where "boundary" shows."""
    points = {Fraction(0), Fraction(1), rep.p_extinction, rep.p_dim1}
    if rep.interval_threshold is not None:
        points.add(rep.interval_threshold)
    points |= {1 / e.lower for e in rep.digit_radii if e.is_exact and e.lower >= 1}
    thr = rep.positive_measure_threshold
    if thr is not None and round(1 / thr.value_float) ** thr.root == thr.base:
        points.add(Fraction(1, round(1 / thr.value_float)))
    return {p for p in points if p <= 1}


@settings(max_examples=40, deadline=None)
@given(ifs=line_systems(scales=(1,)), data=st.data())
def test_verdicts_match_the_definition_oracle(ifs, data):
    capped = _capped_report()
    assert capped.interval_inconclusive
    for rep in (phase_report(compute_type_system(ifs)), capped):
        points = _exact_points(rep) | {data.draw(unit_fractions)}
        for name in EXACT_VERDICTS:
            for p in sorted(points):
                expected = phase_verdict(rep.ts, name, p, rep.interval_inconclusive)
                assert rep.verdict(name, p) == expected, (name, p)


def test_positive_measure_check(menger_report):
    # min_U product of column sums is 6*8*6 = 288
    rep = menger_report
    assert rep.verdict("positive-measure", Fraction(16, 100)) == "holds"
    assert rep.positive_measure_threshold.base == 288
    assert rep.verdict("positive-measure", Fraction(15, 100)) == "fails"


def test_positive_row_witness_is_shortest(menger_ts):
    word, inconclusive = positive_row_witness(menger_ts)
    assert not inconclusive
    assert word is not None and len(word) == 1
    # a system whose pattern semigroup never reaches a positive row
    ts = compute_type_system(scale(project(menger(), (1, 0, 0)), 3))
    word2, inconclusive2 = positive_row_witness(ts)
    assert word2 is None and not inconclusive2
    # N = 20: the zero-pattern semigroup outgrew a million patterns, while
    # the reachable rows are few
    ts = compute_type_system(normalize(3, [0, 10, 38, 42]))
    assert ts.N == 20
    tracemalloc.start()
    try:
        assert positive_row_witness(ts) == (None, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_row_budget_leaves_the_interval_verdict_open(monkeypatch):
    ts = compute_type_system(project(menger(), (3, 2, 0)))
    assert positive_row_witness(ts) == ((0, 0), False)
    monkeypatch.setattr(phase, "_ROW_BUDGET", 1)
    rep = phase_report(ts)
    assert (rep.interval_witness, rep.interval_inconclusive) == (None, True)
    assert rep.notes[-1] == "positive-row witness search hit its row budget"
    assert rep.interval_threshold < Fraction(1, 2)
    assert rep.verdict("interval-sufficient", Fraction(1, 2)) == "boundary"


def test_row_search_memory_stays_small_up_to_its_budget(monkeypatch):
    # N = 28: the search gives up after 10^4 rows.  Keeping each level as
    # parent indices and digits, with row tuples, peaks near 1.7 MiB; a word
    # tuple and a row set per entry took it past 4 MiB.
    ts = compute_type_system(normalize(3, [0, 31, 56]))
    assert ts.N == 28
    monkeypatch.setattr(phase, "_ROW_BUDGET", 10**4)
    tracemalloc.start()
    try:
        assert positive_row_witness(ts) == (None, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@settings(max_examples=60, deadline=None)
@given(ifs=line_systems())
def test_row_search_matches_the_pattern_search(ifs):
    # the pattern BFS gives the least shortest word; where it decides within
    # its budget, the row BFS must give the same word, or also certify none
    ts = compute_type_system(ifs)
    expected = pattern_witness(ts, budget=2000)
    if not expected[1]:
        assert positive_row_witness(ts) == expected


@settings(max_examples=60, deadline=None)
@given(ifs=line_systems(scales=(1,)))  # char_poly is slow on scaled systems
def test_verdicts_agree_across_theorems(ifs):
    # Perron-Frobenius and AM-GM on the column sums rule these pairs out at
    # every p; check at each threshold and halfway between neighbouring ones
    rep = phase_report(compute_type_system(ifs))
    points = {Fraction(1)}
    for _, _, value, _ in rep.thresholds():
        if isinstance(value, SpectralEnclosure):
            points |= {value.lower, value.upper}
        elif isinstance(value, RootThreshold):
            points.add(Fraction(value.value_float))
        elif value is not None:
            points.add(value)
    grid = sorted(p for p in points if 0 < p <= 1)
    for p in grid + [(x + y) / 2 for x, y in zip(grid, grid[1:])]:
        v = {name: rep.verdict(name, p) for name in EXACT_VERDICTS}
        assert not v["interval-sufficient"] == v["no-interval"] == "holds", p
        assert not v["positive-measure"] == v["extinction"] == "holds", p
        assert v["positive-measure"] != "holds" or v["dimension-one"] == "holds", p


def test_extinction_probability():
    assert extinction_probability(20, 0.05) == 1.0
    assert extinction_probability(20, 0.02) == 1.0
    q = extinction_probability(20, 0.1)
    assert 0 < q < 1
    assert abs((1 - 0.1 + 0.1 * q) ** 20 - q) < 1e-9
    # deeper supercritical regime pushes extinction towards 0
    assert extinction_probability(20, 0.5) < 1e-4
    with pytest.raises(InputError):
        extinction_probability(8, 1.5)


@pytest.mark.parametrize(
    "M, p",
    [
        (20, 0.050001),  # M p - 1 = 2e-5: the fixed-point iteration stalled here
        (20, 0.05 * (1 + 1e-9)),
        (8, 0.125 * (1 + 1e-7)),
        (20, 0.1), (20, 0.15), (8, 0.2),  # acceptance 6(b)
        (8, 0.36),  # interface_process at p = 0.6
        (2, 0.75), (20, 0.5), (20, 0.9), (20, 1.0),
    ],
)
def test_extinction_probability_matches_exact_root(M, p):
    assert abs(Fraction(extinction_probability(M, p)) - extinction_root(M, p)) <= 1e-12


def test_disconnection_threshold():
    thr = menger_disconnection_threshold()
    assert thr.sign(Fraction(3, 10)) < 0
    assert not thr.sign(Fraction(4, 10)) < 0
    assert thr == RootThreshold(8, 2)


def test_degenerate_single_type_report():
    rep = phase_report(compute_type_system(normalize(2, [0, 1])))
    assert rep.p_extinction == Fraction(1, 2)
    assert rep.p_dim1 == 1
    # min column sum is 1, so the interval condition needs p > 1: vacuous
    assert rep.interval_threshold == 1
    assert any("vacuous" in n for n in rep.notes)
