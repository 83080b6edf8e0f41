import pytest

from fracphase.errors import InputError
from fracphase.lattice import (
    MENGER_REMOVED,
    LatticeIFS,
    make_direction,
    menger,
    project,
    sierpinski,
)


def test_menger_cell_count():
    lat = menger()
    assert lat.M == 20
    assert lat.cells.isdisjoint(MENGER_REMOVED)
    assert (0, 0, 0) in lat.cells and (2, 2, 2) in lat.cells


def test_sierpinski_cell_count():
    lat = sierpinski()
    assert lat.M == 8
    assert (1, 1) not in lat.cells


def test_make_direction_reduces():
    assert make_direction((2, 2, 2)) == (1, 1, 1)
    assert make_direction((3, -6)) == (1, -2)
    for bad in ((0, 0), (1.9, 1, 1), ("2", "1", "1")):
        with pytest.raises(InputError):
            make_direction(bad)


def test_project_menger_111():
    ifs = project(menger(), (1, 1, 1))
    assert ifs.translations == ((0, 1), (1, 3), (2, 3), (3, 6), (4, 3), (5, 3), (6, 1))
    assert ifs.M == 20


def test_project_menger_100():
    ifs = project(menger(), (1, 0, 0))
    assert ifs.translations == ((0, 8), (1, 4), (2, 8))


def test_project_sierpinski():
    diag = project(sierpinski(), (1, -1))
    assert diag.translations == ((0, 1), (1, 2), (2, 2), (3, 2), (4, 1))
    axis = project(sierpinski(), (1, 0))
    assert axis.translations == ((0, 3), (1, 2), (2, 3))


def test_projection_multiplicities_sum_to_m():
    for lat, direction in [
        (menger(), (1, 1, 1)),
        (menger(), (2, 1, 0)),
        (sierpinski(), (1, 1)),
    ]:
        ifs = project(lat, direction)
        assert ifs.M == lat.M


def test_direction_negation_gives_same_system():
    # reflecting the direction reflects the translations; after shifting the
    # minimum to zero the normalized multiset is the mirror image
    lat = menger()
    a = project(lat, (1, 1, 1))
    b = project(lat, (-1, -1, -1))
    rev = tuple((a.n_tilde * (a.L - 1) - t, n) for t, n in reversed(a.translations))
    assert b.translations == rev


def test_axis_permutation_invariance():
    lat = menger()
    assert project(lat, (1, 2, 3)).translations == project(lat, (3, 1, 2)).translations
    assert project(sierpinski(), (1, 0)).translations == project(
        sierpinski(), (0, 1)
    ).translations


def test_bad_lattice_rejected():
    with pytest.raises(InputError):
        LatticeIFS(d=2, L=3, cells=frozenset({(0, 3)}))
    with pytest.raises(InputError):
        LatticeIFS(d=2, L=3, cells=frozenset())
    with pytest.raises(InputError):
        project(menger(), (1, 1))
