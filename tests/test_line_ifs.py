from fractions import Fraction

import pytest

from fracphase.errors import InputError
from fracphase.line_ifs import LineIFS, normalize, scale

MENGER_111_MULTISET = (
    [0] * 1 + [1] * 3 + [2] * 3 + [3] * 6 + [4] * 3 + [5] * 3 + [6] * 1
)


def test_normalize_menger_projection_multiset():
    ifs = normalize(3, MENGER_111_MULTISET)
    assert len(ifs.translations) == 7
    assert ifs.M == 20
    assert ifs.n_tilde == 3
    assert ifs.translations == ((0, 1), (1, 3), (2, 3), (3, 6), (4, 3), (5, 3), (6, 1))


def test_normalize_full_binary():
    ifs = normalize(2, [0, 1])
    assert ifs.M == 2 and len(ifs.translations) == 2
    assert ifs.n_tilde == 1
    assert ifs.translations == ((0, 1), (1, 1))


def test_normalize_shifts_minimum_to_zero():
    ifs = normalize(3, [5, 6, 7])
    assert ifs.translations == ((0, 1), (1, 1), (2, 1))
    assert ifs.n_tilde == 1
    assert ifs.applied_factor == 1


def test_normalize_auto_rescales_for_divisibility():
    # L=3, raw {0,1}: (L-1)=2 does not divide 1, so conjugate by factor 2
    ifs = normalize(3, [0, 1])
    assert ifs.applied_factor == 2
    assert ifs.translations == ((0, 1), (2, 1))
    assert ifs.n_tilde == 1


def test_normalize_rejects_bad_input():
    with pytest.raises(InputError):
        normalize(1, [0, 1])
    with pytest.raises(InputError):
        normalize(3, [])
    with pytest.raises(InputError):
        normalize(3, [0, 1.5])


def test_q_is_exact_probability_vector():
    ifs = normalize(3, MENGER_111_MULTISET)
    assert sum(n for _, n in ifs.translations) == ifs.M
    assert Fraction(ifs.translations[3][1], ifs.M) == Fraction(6, 20)


def test_scale_by_three():
    ifs = normalize(3, [0] * 8 + [1] * 4 + [2] * 8)
    scaled = scale(ifs, 3)
    assert scaled.translations == ((0, 8), (3, 4), (6, 8))
    assert scale(ifs, 1) == ifs


def test_scale_rejects_nonpositive_factor():
    ifs = normalize(3, [0, 2])
    with pytest.raises(InputError):
        scale(ifs, 0)


def test_direct_construction_validates():
    with pytest.raises(InputError):
        LineIFS(L=3, translations=((1, 1), (2, 1)))  # t_0 != 0
    with pytest.raises(InputError):
        LineIFS(L=3, translations=((0, 1), (1, 1)))  # (L-1) does not divide 1
    with pytest.raises(InputError, match="^translation set is empty$"):
        LineIFS(L=3, translations=())
    with pytest.raises(InputError, match="^translations must be strictly increasing$"):
        LineIFS(L=3, translations=((0, 1), (2, 1), (2, 1)))
