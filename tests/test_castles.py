from fractions import Fraction

import pytest

from odolab.castles import (
    AtomSpace,
    Castle,
    CastleError,
    NotAPartition,
    Tower,
    castle_refinement_over,
    minimal_cone_vector,
    refine_pure_columns,
)
from odolab.lattice import IntegerLattice
from odolab.odometer import OdometerChain
from odolab.speedup import Cone


def chain32():
    return OdometerChain.diagonal_power([3, 2])


QUADRANT = Cone.quadrant(2)


# ---------------------------------------------------------------- cone vectors

def test_minimal_cone_vector_general_sector():
    lat = IntegerLattice.diagonal([3, 2])
    vec = minimal_cone_vector(Cone.sector((1, 1), (1, 1)), (0, 0), (0, 0), lat)
    assert vec == (6, 6)  # least multiple of (1,1) inside 3Z x 2Z
    vec2 = minimal_cone_vector(Cone.sector((2, 1), (-1, 3)), (1, 0), (0, 0), lat)
    assert vec2 == (1, 2)


def test_cone_transfer_minimal_vectors():
    # quadrant: the least vector onto a neighbouring atom is the unit step
    stage = chain32().stage(1)
    assert minimal_cone_vector(QUADRANT, (1, 0), (0, 0), stage) == (1, 0)
    assert minimal_cone_vector(QUADRANT, (0, 1), (0, 0), stage) == (0, 1)


def test_cone_transfer_avoidance_second_minimal():
    stage = chain32().stage(1)
    vec = minimal_cone_vector(QUADRANT, (1, 0), (0, 0), stage, second=True)
    assert vec != (1, 0)
    assert QUADRANT.contains(vec)
    # congruent mod the stage, so the atom map is unchanged
    assert stage.contains((vec[0] - 1, vec[1]))


def test_minimal_cone_vector_empty_coset():
    from odolab.castles import EmptyConeCoset

    lat = IntegerLattice.diagonal([3, 2])
    ray = Cone.sector((1, 0), (1, 0))
    # ray members are (t, 0); the coset of (0, 1) has odd second coordinate
    with pytest.raises(EmptyConeCoset):
        minimal_cone_vector(ray, (0, 1), (0, 0), lat, search_bound=16)


# ---------------------------------------------------------------- castles

def _two_level_castle():
    ch = chain32()
    space = AtomSpace(ch, 1)
    base = frozenset([space.encode((0, 0)), space.encode((1, 0))])
    top = frozenset([space.encode((0, 1)), space.encode((1, 1))])
    steps = {c: (0, 1) for c in base}
    return Castle(ch, 1, [Tower([base, top])], steps)


def test_castle_refinement_over_two_way_split():
    castle = _two_level_castle()
    base = sorted(castle.towers[0].levels[0])
    refined = castle_refinement_over(castle, [[frozenset([base[0]]), frozenset([base[1]])]])
    assert len(refined.towers) == 2
    assert all(t.height == 2 for t in refined.towers)
    total_old = frozenset().union(*(l for t in castle.towers for l in t.levels))
    total_new = frozenset().union(*(l for t in refined.towers for l in t.levels))
    assert total_old == total_new


def test_castle_refinement_trivial_partition():
    castle = _two_level_castle()
    refined = castle_refinement_over(castle, [[castle.towers[0].levels[0]]])
    assert len(refined.towers) == 1
    assert refined.towers[0].levels == castle.towers[0].levels


def test_castle_refinement_measure_bookkeeping():
    castle = _two_level_castle()
    base = sorted(castle.towers[0].levels[0])
    refined = castle_refinement_over(castle, [[frozenset([base[0]]), frozenset([base[1]])]])
    old_base_measure = Fraction(len(castle.towers[0].levels[0]), 6)
    new_base_measure = sum(Fraction(len(t.levels[0]), 6) for t in refined.towers)
    assert old_base_measure == new_base_measure


def test_castle_refinement_rejects_bad_partition():
    castle = _two_level_castle()
    with pytest.raises(NotAPartition):
        castle_refinement_over(castle, [[frozenset([min(castle.towers[0].levels[0])])]])


def test_refine_pure_columns_splits_by_labels():
    ch = chain32()
    space = AtomSpace(ch, 2)
    # one tower of height 2 whose base meets two different depth-1 atoms
    base = frozenset([space.encode((0, 0)), space.encode((1, 0))])
    steps = {c: (0, 1) for c in base}
    top = frozenset(space.translate(c, steps[c]) for c in base)
    castle = Castle(ch, 2, [Tower([base, top])], steps)
    refined = refine_pure_columns(castle, 1)
    assert len(refined.towers) == 2


def test_refine_pure_columns_trivial_labels():
    castle = _two_level_castle()
    refined = refine_pure_columns(castle, lambda atom: 0)
    assert len(refined.towers) == 1


# ---------------------------------------------------------------- atom spaces

def test_fibers_need_a_finer_space_of_the_same_chain():
    ch = chain32()
    coarse, fine = AtomSpace(ch, 1), AtomSpace(ch, 2)
    assert len(coarse.fibers(0, fine)) == 6
    with pytest.raises(CastleError):
        fine.fibers(0, coarse)
    with pytest.raises(CastleError):
        coarse.fibers(0, AtomSpace(chain32(), 2))
