import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import char_poly_dense, perron_enclosure, taylor_shift

from fracphase import spectral
from fracphase.errors import InputError
from fracphase.lattice import menger, project, sierpinski
from fracphase.line_ifs import scale
from fracphase.spectral import char_poly, dominates_rho, rho_sign, spectral_radius
from fracphase.type_system import compute_type_system


def test_known_integer_radii():
    # outer matrices of the diagonal sponge projection have Perron root 6
    ts = compute_type_system(project(menger(), (1, 1, 1)))
    for a in (0, 2):
        enc = spectral_radius(ts.matrices[a])
        assert enc.is_exact and enc.lower == 6
    # the axis projection of the sponge, scaled by 3: middle matrix has rho 4
    ts2 = compute_type_system(scale(project(menger(), (1, 0, 0)), 3))
    enc2 = spectral_radius(ts2.matrices[1])
    assert enc2.is_exact and enc2.lower == 4
    # axis projection of the carpet, minimal form: 1x1 matrices
    ts3 = compute_type_system(project(sierpinski(), (1, 0)))
    assert spectral_radius(ts3.matrices[1]).lower == 2
    assert spectral_radius(ts3.matrices[0]).lower == 3


def test_diagonal_carpet_radii():
    ts = compute_type_system(project(sierpinski(), (1, -1)))
    radii = [spectral_radius(A) for A in ts.matrices]
    assert all(e.is_exact for e in radii)
    assert [e.lower for e in radii] == [2, 3, 2]


def test_irrational_radius_enclosed():
    # [[1,1],[1,0]] has Perron root the golden ratio
    enc = spectral_radius([[1, 1], [1, 0]])
    assert 0 < enc.upper - enc.lower <= Fraction(1, 10**9)
    # the enclosure must contain (1 + sqrt 5) / 2 = 1.6180339887498948...
    assert enc.lower <= Fraction(1618033988749895, 10**15)
    assert enc.upper >= Fraction(1618033988749894, 10**15)


def test_zero_matrix():
    # the zero matrix and a nilpotent one take the general path to (0, 0)
    for matrix in ([[0, 0], [0, 0]], [[0, 1], [0, 0]]):
        enc = spectral_radius(matrix)
        assert enc.is_exact and enc.lower == 0


def test_char_poly_companion():
    # companion matrix of x^2 - x - 1
    assert char_poly([[1, 1], [1, 0]]) == [Fraction(-1), Fraction(-1), Fraction(1)]


def test_dominates_rho_predicate():
    coeffs = char_poly([[2, 1], [1, 2]])  # eigenvalues 1 and 3
    assert dominates_rho(coeffs, Fraction(3))
    assert not dominates_rho(coeffs, Fraction(29, 10))
    assert not dominates_rho(coeffs, Fraction(-1))
    signs = [rho_sign(coeffs, x) for x in (Fraction(29, 10), 3, Fraction(31, 10), -1)]
    assert signs == [-1, 0, 1, -1]


def test_dominates_rho_takes_rational_coefficients():
    # eigenvalues 1/2 +- 1/3: the coefficients 5/36 and -1 have denominators
    coeffs = char_poly([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]])
    assert coeffs == [Fraction(5, 36), Fraction(-1), Fraction(1)]
    assert dominates_rho(coeffs, Fraction(5, 6))
    assert dominates_rho(coeffs, 1)
    assert not dominates_rho(coeffs, Fraction(5, 6) - Fraction(1, 2**60))
    assert not dominates_rho(coeffs, Fraction(1, 6))


def test_rejects_bad_matrices():
    with pytest.raises(InputError):
        spectral_radius([[1, 2], [3]])
    with pytest.raises(InputError):
        spectral_radius([[1, -1], [0, 1]])
    with pytest.raises(InputError):
        spectral_radius([])
    for matrix in (7, np.array([[1, 2], [3, 4]])):  # not a sequence of int rows
        with pytest.raises(InputError):
            spectral_radius(matrix)
    # the integer bound and the exact-hit argument need integer entries
    for matrix in ([[1.5]], [[Fraction(3, 2)]]):
        with pytest.raises(InputError):
            spectral_radius(matrix)


def test_bad_entries_are_refused_before_the_exact_work(monkeypatch):
    # the Fraction characteristic polynomial's cost grows fast with the size
    calls = []
    monkeypatch.setattr(spectral, "char_poly", lambda m: calls.append(m) or char_poly(m))
    for matrix in ([[0.5] * 60] * 60, [[1] * 60] * 59 + [[1] * 59 + [-1]]):
        with pytest.raises(InputError, match="matrix entry must be an integer >= 0"):
            spectral_radius(matrix)
    assert calls == []
    assert spectral_radius([[2, 1], [1, 2]]).lower == 3 and len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_enclosure_within_colsum_rowsum_bounds(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    A = [[rng.randint(0, 5) for _ in range(n)] for _ in range(n)]
    enc = spectral_radius(A)
    assert enc.lower <= enc.upper
    assert enc.upper - enc.lower <= Fraction(1, 10**9)
    max_col = max(sum(A[i][j] for i in range(n)) for j in range(n))
    max_row = max(sum(row) for row in A)
    min_diag = min(A[i][i] for i in range(n))
    assert enc.upper <= min(max_col, max_row)
    assert enc.lower >= 0
    # the trace lower bound rho >= max diagonal entry / 1 is too strong in
    # general; the diagonal minimum is a safe weak floor
    assert enc.upper >= min_diag


@st.composite
def random_matrices(draw, max_n=8, fractions=False):
    """Square matrices of size 1..max_n whose share of nonzero entries is 0..1."""
    n = draw(st.integers(1, max_n))
    density = draw(st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        if rng.random() >= density:
            return 0
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if fractions else rng.randint(1, 9)

    return [[entry() for _ in range(n)] for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(matrix=st.one_of(random_matrices(), random_matrices(fractions=True)))
def test_sparse_char_poly_matches_the_dense_oracle(matrix):
    coeffs = char_poly(matrix)
    assert coeffs == char_poly_dense(matrix)
    assert all(type(c) is Fraction for c in coeffs)


@st.composite
def polys_and_points(draw):
    """(coefficients, x): a characteristic polynomial times (z - r) over drawn
    integer roots r, at 0, a negative x, a root, or a dyadic up to 2^-60."""
    coeffs = char_poly(draw(random_matrices(max_n=5, fractions=draw(st.booleans()))))
    roots = draw(st.lists(st.integers(-6, 6), max_size=3))
    for r in roots:  # multiply by (z - r)
        coeffs = [b - r * a for a, b in zip(coeffs + [0], [0] + coeffs)]
    j = draw(st.integers(0, 60))
    dyadic = Fraction(draw(st.integers(-(12 << j), 12 << j)), 2**j)
    near = [r + Fraction(s, 2**60) for r in roots for s in (-1, 1)]
    x = draw(st.sampled_from([Fraction(0), -abs(dyadic) - 1, dyadic, *roots, *near]))
    return coeffs, x


@settings(max_examples=200, deadline=None)
@given(case=polys_and_points())
def test_shift_matches_the_binomial_oracle(case):
    coeffs, x = case
    expected = taylor_shift(coeffs, x)
    assert dominates_rho(coeffs, x) == (x >= 0 and all(c >= 0 for c in expected))
    assert rho_sign(coeffs, x) == (-1 if x < 0 or min(expected) < 0 else 1 if expected[0] else 0)


def block_diagonal(blocks):
    n = sum(map(len, blocks))
    out = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            out[at + i][at:at + len(row)] = row
        at += len(block)
    return out


FIB = [[1, 1], [1, 0]]


@st.composite
def float_hard_matrices(draw):
    """Matrices whose float estimate of rho is poor: a block repeated two or
    three times on the diagonal (a double or triple root), entries near 10^20
    (float spacing far above 2^-30), or entries near 10^200 (coefficients
    past the float range)."""
    kind = draw(st.sampled_from(["repeat", "near 1e20", "near 1e200"]))
    if kind == "repeat":
        return block_diagonal([draw(random_matrices(max_n=3))] * draw(st.integers(2, 3)))
    big = 10**20 if kind == "near 1e20" else 10**200
    n = draw(st.integers(1, 3))
    return [[big * draw(st.integers(0, 1)) + draw(st.integers(0, 9)) for _ in range(n)]
            for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(matrix=st.one_of(random_matrices(max_n=5), float_hard_matrices()))
@example(matrix=[[0, 0], [0, 0]])  # bound 0 and rho 0
@example(matrix=[[0, 1], [0, 0]])  # nilpotent: rho 0 under a bound of 1
@example(matrix=[[3]])  # integer rho equal to its bound
@example(matrix=[[0, 1], [1, 0]])
@example(matrix=[[2, 1], [1, 2]])  # rho 3 under a bound of 3
@example(matrix=[[1, 1], [1, 0]])  # irrational rho
@example(matrix=block_diagonal([FIB, FIB]))  # double irrational root
@example(matrix=block_diagonal([FIB, FIB, FIB]))  # triple irrational root
@example(matrix=block_diagonal([[[1, 2], [3, 1]]] * 3))  # triple root 1 + sqrt 6
@example(matrix=[[10**20, 1], [1, 10**20]])  # float spacing 2^14 at rho
@example(matrix=[[10**20, 3], [7, 10**20 + 5]])  # irrational rho near 10^20
@example(matrix=[[10**200, 1], [1, 10**200]])  # coefficient 10^400 - 1
@example(matrix=[[10**400]])  # the bound itself past the float range
def test_enclosure_equals_the_oracle_bisection(matrix):
    enc = spectral_radius(matrix)
    assert (enc.lower, enc.upper) == perron_enclosure(matrix, Fraction(1, 10**9))
    assert enc.coeffs == tuple(char_poly_dense(matrix))  # kept for later comparisons



@pytest.mark.parametrize("matrix", [[[10**400]], [[10**200, 1], [1, 10**200]]])
def test_fallback_bracket_stops_at_an_integer_rho(matrix, monkeypatch):
    # a bound or a coefficient past the float range starts the bisection from
    # [-1, 2^b - 1]; at width 1 its upper end is the integer rho, so it takes
    # the bound's check and b halvings, not 30 more down to 2^-30
    import fracphase.spectral as spectral

    calls = []
    monkeypatch.setattr(spectral, "dominates_rho", lambda *a: calls.append(1) or dominates_rho(*a))
    enc = spectral_radius(matrix)
    bound = max(map(sum, matrix))
    assert enc.lower == enc.upper == bound
    assert len(calls) == bound.bit_length() + 1
