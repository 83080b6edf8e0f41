import math
from fractions import Fraction

import pytest

from fracphase.errors import InputError
from fracphase.lattice import menger
from fracphase.line_ifs import normalize
from fracphase.simulate import (
    empirical_box_dimension,
    interface_process,
    project_survival,
    sample_survival,
)

MENGER_111 = normalize(
    3, [0] * 1 + [1] * 3 + [2] * 3 + [3] * 6 + [4] * 3 + [5] * 3 + [6] * 1
)


def test_trivial_retention_probabilities():
    full = sample_survival(20, 1, 3, seed=0)
    assert len(full.retained) == 20**3
    assert full.extinct_level is None
    empty = sample_survival(20, 0, 3, seed=0)
    assert empty.extinct_level == 1
    assert empty.retained == frozenset()


def test_determinism():
    a = sample_survival(20, Fraction(3, 10), 3, seed=11)
    b = sample_survival(20, Fraction(3, 10), 3, seed=11)
    assert a.levels == b.levels
    c = sample_survival(20, Fraction(3, 10), 3, seed=12)
    assert a.levels != c.levels


def test_monotone_coupling_in_p():
    # with a shared seed, raising p only adds nodes
    lo = sample_survival(20, Fraction(2, 10), 3, seed=4)
    hi = sample_survival(20, Fraction(4, 10), 3, seed=4)
    for k in range(4):
        assert lo.levels[k] <= hi.levels[k]


def test_levels_are_consistent_tree():
    s = sample_survival(8, Fraction(1, 2), 4, seed=9)
    for k in range(1, 5):
        for word in s.levels[k]:
            assert word[:-1] in s.levels[k - 1]


def test_level_counts_match_branching_mean():
    # E #level-n = (M p)^n; average over seeds and check at 3 sigma.
    M, p, n, reps = 20, Fraction(3, 10), 2, 300
    mean_target = float((M * p) ** n)
    counts = [len(sample_survival(M, p, n, seed=s).retained) for s in range(reps)]
    mean = sum(counts) / reps
    var = sum((c - mean) ** 2 for c in counts) / (reps - 1)
    assert abs(mean - mean_target) <= 3 * math.sqrt(var / reps)


def test_input_validation():
    with pytest.raises(InputError):
        sample_survival(1, 0.5, 2, seed=0)
    with pytest.raises(InputError):
        sample_survival(8, 1.5, 2, seed=0)
    with pytest.raises(InputError):
        sample_survival(8, 0.5, -1, seed=0)
    with pytest.raises(InputError):
        interface_process(0.5, 3, 0)


def test_project_survival_full_tree_covers_hull():
    s = sample_survival(20, 1, 2, seed=0)
    stats = project_survival(MENGER_111, s)
    assert stats.full_cover
    assert stats.covered_cells == stats.total_cells == 3 * 3**2
    assert stats.measure == Fraction(9)  # hull [0, 9] in units of L^(1-n)


def test_project_survival_lattice_pair_form():
    s = sample_survival(20, Fraction(1, 2), 2, seed=3)
    via_pair = project_survival((menger(), (1, 1, 1)), s)
    via_ifs = project_survival(MENGER_111, s)
    assert via_pair == via_ifs
    assert 0 <= via_ifs.covered_cells <= via_ifs.total_cells
    assert via_ifs.longest_run <= via_ifs.covered_cells


def test_project_survival_arity_mismatch():
    s = sample_survival(8, Fraction(1, 2), 2, seed=0)
    with pytest.raises(InputError):
        project_survival(MENGER_111, s)


def test_interface_process_trivial_and_subcritical():
    zero = interface_process(0.0, 10, 50, seed=0)
    assert zero.extinction_frequency == 1.0
    assert zero.analytic_fixed_point == 1.0
    sub = interface_process(0.3, 40, 200, seed=1)
    assert sub.mean_offspring == pytest.approx(0.72)
    assert sub.analytic_fixed_point == 1.0
    assert sub.extinction_frequency == 1.0  # subcritical dies out fast
    sup = interface_process(0.6, 40, 300, seed=2)
    q = sup.analytic_fixed_point
    assert 0 < q < 1
    se = math.sqrt(q * (1 - q) / 300)
    assert abs(sup.extinction_frequency - q) <= 3 * se + 0.02


def test_empirical_box_dimension():
    full = sample_survival(20, 1, 3, seed=0)
    assert empirical_box_dimension(full, 3) == pytest.approx(
        math.log(20) / math.log(3)
    )
    extinct = sample_survival(20, 0, 3, seed=0)
    assert math.isnan(empirical_box_dimension(extinct, 3))
