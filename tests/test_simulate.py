import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coverage, node_hash, survival_levels

from fracphase import simulate
from fracphase.errors import InputError
from fracphase.lattice import menger, project, sierpinski
from fracphase.line_ifs import LineIFS, normalize
from fracphase.simulate import project_survival, sample_survival

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


@pytest.mark.parametrize("seed", [0, 2**63 + 1, 2**64 - 1])
@pytest.mark.parametrize("p", [0, Fraction(1, 3), Fraction(3, 10), 1])
@pytest.mark.parametrize("M, depth", [(8, 4), (20, 3)])
def test_sample_survival_matches_node_oracle(M, depth, p, seed):
    s, levels = sample_survival(M, p, depth, seed), survival_levels(M, p, depth, seed)
    assert s.retained == levels[-1]
    assert "levels" not in vars(s)  # the leaves are folded without the other levels
    assert s.levels == levels


def test_deep_narrow_tree_is_walked_without_recursion():
    # seed 1315 keeps the critical binary tree (M p = 1) alive through depth
    # 300 on 4,154 nodes; a walk that recursed once per level would raise
    # RecursionError under a limit below that depth.  The default limit of
    # 1000 would need a tree whose tuple words the oracle takes seconds to build.
    depth, seed, limit = 300, 1315, sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        s = sample_survival(2, Fraction(1, 2), depth, seed)
    finally:
        sys.setrecursionlimit(limit)
    assert s.extinct_level is None
    assert s.levels == survival_levels(2, Fraction(1, 2), depth, seed)


def test_node_coin_boundary():
    # a depth-2 node whose parent hashes lower: at p = h / 2^64 the node is
    # dropped (h / 2^64 < p fails); at (h + 1/2) / 2^64 and above it is kept
    seed, M = 2**63 + 1, 20
    node = next(
        (i, j) for i in range(M) for j in range(M)
        if node_hash(seed, (i,)) < node_hash(seed, (i, j))
    )
    h = node_hash(seed, node)
    dropped = sample_survival(M, Fraction(h, 2**64), 2, seed)
    assert node[:1] in dropped.levels[1]
    assert node not in dropped.levels[2]
    for p in (Fraction(2 * h + 1, 2**65), Fraction(h + 1, 2**64)):
        assert node in sample_survival(M, p, 2, seed).levels[2]


def test_input_validation():
    with pytest.raises(InputError):
        sample_survival(1, 0.5, 2, seed=0)
    with pytest.raises(InputError):
        sample_survival(8, 1.5, 2, seed=0)
    with pytest.raises(InputError):
        sample_survival(8, 0.5, -1, seed=0)


def test_project_survival_full_tree_covers_hull():
    s = sample_survival(20, 1, 2, seed=0)
    stats = project_survival(MENGER_111, s)
    assert stats.full_cover
    assert stats.covered_cells == stats.total_cells == 3 * 3**2
    assert stats.measure == Fraction(9)  # hull [0, 9] in units of L^(1-n)


COVERAGE_SYSTEMS = {
    8: [project(sierpinski(), (1, -1)), project(sierpinski(), (1, 2)),
        LineIFS(L=3, translations=((0, 8),))],  # the last has n_tilde = 0
    20: [MENGER_111, project(menger(), (1, 3, 7))],
}


@settings(max_examples=40, deadline=None)
@given(
    M=st.sampled_from([8, 20]),
    k=st.integers(0, 2),
    p=st.fractions(0, 1, max_denominator=20),
    depth=st.integers(0, 4),
    seed=st.integers(0, 2**64 - 1),
)
def test_project_survival_matches_cell_set_oracle(M, k, p, depth, seed):
    ifs = COVERAGE_SYSTEMS[M][k % len(COVERAGE_SYSTEMS[M])]
    if M == 20 and depth == 4:
        p = min(p, Fraction(1, 2))  # keeps the tree at a few thousand words
    s = sample_survival(M, p, depth, seed)
    stats = project_survival(ifs, s)
    covered, longest = coverage(ifs, s.retained, depth)
    total = ifs.n_tilde * ifs.L**depth
    assert (stats.covered_cells, stats.longest_run, stats.total_cells) == (
        covered, longest, total
    )
    assert stats.measure == Fraction(covered * ifs.L, ifs.L**depth)
    assert stats.full_cover == (covered == total > 0)


def test_sample_survival_node_budget(monkeypatch):
    # p = 1, M = 20: levels 0 and 1 hash 20 + 400 nodes, level 2 hashes 8000
    monkeypatch.setattr(simulate, "_NODE_BUDGET", 420)
    assert len(sample_survival(20, 1, 2, seed=0).retained) == 400
    with pytest.raises(InputError, match="420 nodes"):
        sample_survival(20, 1, 3, seed=0)
    monkeypatch.setattr(simulate, "_NODE_BUDGET", 419)
    with pytest.raises(InputError):
        sample_survival(20, 1, 2, seed=0)


def test_realization_at_the_node_budget_stays_small():
    # 2 + 4 + ... + 2^18 = 524,286 hashed nodes; kept as frozensets of tuple
    # words, the levels took the process to 192 MiB
    tracemalloc.start()
    try:
        s = sample_survival(2, 1, 18, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.retained_count == 2**18
    assert peak < 64 * 2**20


def test_wide_arity_builds_nothing_of_length_m():
    # M = 3 * 10^6: a list of M child labels took the process to 457 MiB
    M = 3 * 10**6
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="1000000 nodes"):
            sample_survival(M, Fraction(1, 2), 1, 0)
        s = sample_survival(M, Fraction(1, 2), 0, 0)
        stats = project_survival(LineIFS(2, ((0, M - 1), (1, 1))), s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (s.retained_count, s.extinct_level, len(s.levels)) == (1, None, 1)
    assert (stats.covered_cells, stats.measure, stats.full_cover) == (1, 2, True)
    assert peak < 2**20


def test_dead_realization_stops_hashing():
    s = sample_survival(8, 0, simulate._NODE_BUDGET, 0)
    assert s.extinct_level == 1
    assert len(s.levels) == simulate._NODE_BUDGET + 1
    assert s.levels[-1] == frozenset()
    with pytest.raises(InputError):
        sample_survival(8, 0, simulate._NODE_BUDGET + 1, 0)


def test_project_survival_lattice_pair_form():
    s = sample_survival(20, Fraction(1, 2), 2, seed=3)
    via_pair = project_survival(project(menger(), (1, 1, 1)), s)
    via_ifs = project_survival(MENGER_111, s)
    assert via_pair == via_ifs
    assert 0 <= via_ifs.covered_cells <= via_ifs.total_cells
    assert via_ifs.longest_run <= via_ifs.covered_cells


def test_project_survival_arity_mismatch():
    s = sample_survival(8, Fraction(1, 2), 2, seed=0)
    with pytest.raises(InputError):
        project_survival(MENGER_111, s)
