import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracphase.errors import InputError, InvariantError
from fracphase.lattice import menger, project, sierpinski
from fracphase.line_ifs import normalize, scale
from fracphase.type_system import (
    _CANDIDATE_BUDGET,
    _fixed_measure,
    compute_type_system,
)
from oracles import brute_force_entry, candidate_kernel, random_small_ifs, word_product


@pytest.fixture(scope="module")
def menger_ts():
    return compute_type_system(project(menger(), (1, 1, 1)))


def test_menger_matrices(menger_ts):
    assert menger_ts.basic_offsets == (0, 1, 2)
    assert menger_ts.matrices[0] == ((1, 0, 0), (6, 3, 3), (1, 3, 3))
    assert menger_ts.matrices[1] == ((3, 1, 0), (3, 6, 3), (0, 1, 3))
    assert menger_ts.matrices[2] == ((3, 3, 1), (3, 3, 6), (0, 0, 1))
    assert menger_ts.nu == (Fraction(1, 5), Fraction(3, 5), Fraction(1, 5))


def test_sierpinski_diagonal_matrices():
    ts = compute_type_system(project(sierpinski(), (1, -1)))
    assert ts.matrices[0] == ((1, 0), (2, 2))
    assert ts.matrices[1] == ((2, 1), (1, 2))
    assert ts.matrices[2] == ((2, 2), (0, 1))


def test_full_binary_single_type():
    ts = compute_type_system(normalize(2, [0, 1]))
    assert ts.N == 1
    assert ts.matrices == (((1,),), ((1,),))
    assert ts.nu == (Fraction(1),)


def test_cylinder_measure(menger_ts):
    def measure(ell, w):  # nu(J^ell_w) = M^-|w| (row ell of A_w) . nu
        row = word_product(menger_ts.matrices, w)[ell]
        return sum(x * y for x, y in zip(row, menger_ts.nu)) / menger_ts.M ** len(w)

    assert sum(measure(ell, ()) for ell in range(3)) == 1
    assert measure(1, (0,)) == Fraction(9, 50)
    # additivity over one more digit
    for ell in range(3):
        assert sum(measure(ell, (a,)) for a in range(3)) == measure(ell, ())


def test_covering_cylinder_count(menger_ts):
    def norm(ts, w):  # ||A_w||, the sum of all entries
        return sum(map(sum, word_product(ts.matrices, w)))

    assert norm(menger_ts, (0,)) == 20
    ts2 = compute_type_system(normalize(2, [0, 1]))
    assert norm(ts2, (0, 1, 0)) == 1
    # norm of A_0^n grows like 6^n (dominant eigenvalue of A_0)
    norms = [norm(menger_ts, (0,) * n) for n in (4, 8)]
    ratio = norms[1] / norms[0]
    assert abs(ratio - 6**4) / 6**4 < 0.05


def test_mass_conservation_on_examples(menger_ts):
    for ts in (
        menger_ts,
        compute_type_system(project(sierpinski(), (1, -1))),
        compute_type_system(project(sierpinski(), (1, 0))),
    ):
        M, L, N = ts.M, ts.L, ts.N
        for j in range(N):
            assert sum(ts.matrices[a][i][j] for a in range(L) for i in range(N)) == M


def test_measure_fixed_point(menger_ts):
    A = [list(map(sum, zip(*rows))) for rows in zip(*menger_ts.matrices)]
    for i in range(3):
        assert sum(A[i][j] * menger_ts.nu[j] for j in range(3)) == 20 * menger_ts.nu[i]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_small_systems_satisfy_invariants(seed):
    ifs = random_small_ifs(random.Random(seed))
    ts = compute_type_system(ifs)  # raises on any invariant violation
    assert sum(ts.nu) == 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_brute_force_equivalence_random(seed, data):
    ifs = random_small_ifs(random.Random(seed))
    ts = compute_type_system(ifs)
    n = data.draw(st.integers(1, 3))
    word = tuple(data.draw(st.integers(0, ifs.L - 1)) for _ in range(n))
    Aw = word_product(ts.matrices, word)
    for ell in range(ts.N):
        for k in range(ts.N):
            assert Aw[ell][k] == brute_force_entry(
                ifs, ts.basic_offsets, word, ell, k
            )


def test_brute_force_equivalence_menger_depth2(menger_ts):
    ifs = menger_ts.parent
    for word in [(0, 0), (1, 2), (2, 1)]:
        Aw = word_product(menger_ts.matrices, word)
        for ell in range(3):
            for k in range(3):
                assert Aw[ell][k] == brute_force_entry(
                    ifs, menger_ts.basic_offsets, word, ell, k
                )


@st.composite
def line_systems(draw, scales=(1, 2, 3, 5)):
    """random_small_ifs, or a menger/carpet projection scaled by one of scales."""
    kind = draw(st.sampled_from(["random", "menger", "sierpinski"]))
    if kind == "random":
        return random_small_ifs(random.Random(draw(st.integers(0, 10**6))))
    lat = menger() if kind == "menger" else sierpinski()
    v = draw(st.lists(st.integers(-4, 4), min_size=lat.d, max_size=lat.d))
    assume(any(v))
    return scale(project(lat, v), draw(st.sampled_from(scales)))


@settings(max_examples=60, deadline=None)
@given(ifs=line_systems())
def test_candidate_kernel_is_the_reachable_measure(ifs):
    # the fact behind reachability from candidate 0: over all candidates,
    # hat_sum - M*I has a one-dimensional kernel, it is nonnegative, and it
    # is positive exactly on the basic offsets
    basis = candidate_kernel(ifs)
    assert len(basis) == 1
    v = [x / sum(basis[0]) for x in basis[0]]
    assert all(x >= 0 for x in v)
    ts = compute_type_system(ifs)
    assert tuple(i for i, x in enumerate(v) if x > 0) == ts.basic_offsets
    assert tuple(v[i] for i in ts.basic_offsets) == ts.nu
    # each A_a, built directly over the basic offsets, against the word oracle
    for a, A in enumerate(ts.matrices):
        for ell in range(ts.N):
            for k in range(ts.N):
                assert A[ell][k] == brute_force_entry(
                    ifs, ts.basic_offsets, (a,), ell, k
                )


def test_integer_solve_rejects_a_plane_kernel():
    # A = M*I with N = 2: both columns of A - M*I are free
    with pytest.raises(InvariantError):
        _fixed_measure(((2, 0), (0, 2)), 2)


def test_type_system_at_the_candidate_budget_stays_small():
    # L * n_tilde^2 = 3 * 182^2 = 99,372 candidate entries; n_tilde = 183 is past the budget
    ifs = normalize(3, [0, 5, 364])
    assert ifs.L * ifs.n_tilde**2 <= _CANDIDATE_BUDGET
    with pytest.raises(InputError):
        compute_type_system(normalize(3, [0, 5, 366]))
    tracemalloc.start()
    try:
        ts = compute_type_system(ifs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ts.N == 69
    assert peak < 2 * 2**20
