import random
from fractions import Fraction

import pytest

from odolab.lattice import IntegerLattice, RationalLattice
from odolab.odometer import (
    ChainDepthError,
    DerivedProvider,
    NotNested,
    OdometerChain,
    _shortest_vector,
)

from _oracles import pairs_integrally, shortest_nonzero_in_box
from test_castles import _random_chain


def chain32():
    return OdometerChain.diagonal_power([3, 2])


def chain22():
    return OdometerChain.diagonal_power([2, 2])


# ---------------------------------------------------------------- stages

def test_stage_diagonal_power():
    assert chain32().stage(2) == IntegerLattice.diagonal([9, 4])


def test_stage_explicit():
    ch = OdometerChain.explicit([IntegerLattice.standard(2)])
    assert ch.stage(1) == IntegerLattice.standard(2)
    with pytest.raises(ChainDepthError):
        ch.stage(2)


def test_stage_nesting_violation():
    bad = OdometerChain.explicit(
        [IntegerLattice.diagonal([4, 4]), IntegerLattice.diagonal([2, 2])]
    )
    bad.stage(1)
    with pytest.raises(NotNested) as err:
        bad.stage(2)
    assert err.value.depth == 1


def test_stage_derived_provider_callback():
    ch = OdometerChain(2, DerivedProvider(2, lambda j: IntegerLattice.diagonal([2**j, 3**j])))
    assert ch.stage(3) == IntegerLattice.diagonal([8, 27])


# ---------------------------------------------------------------- partitions

def test_kr_partition_shape():
    part = chain32().kr_partition(1)
    assert len(part) == 6
    assert part.rectangle == (3, 2)
    assert part.atom_measure == Fraction(1, 6)
    assert sum((part.atom_measure for _ in part.atoms()), Fraction(0)) == 1


def test_kr_partition_trivial():
    ch = OdometerChain.explicit([IntegerLattice.standard(2)])
    part = ch.kr_partition(1)
    assert len(part) == 1
    assert part.atom_measure == 1


# ---------------------------------------------------------------- freeness

def test_freeness_evidence_diagonal():
    rep = chain32().freeness_evidence(5)
    assert rep.intersection == IntegerLattice.diagonal([243, 32])
    assert rep.shortest_nonzero == (0, 32)
    assert rep.certified_free is True
    oracle = shortest_nonzero_in_box(rep.intersection.contains, 2, 40)
    assert oracle == rep.shortest_nonzero


def _least_column_sup(lat):
    return min(max(map(abs, col)) for col in lat.columns())


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_shortest_vector_matches_the_box_scan_on_the_cube(depth):
    lat = OdometerChain.diagonal_power([2, 2, 2]).stage(depth)
    expected = shortest_nonzero_in_box(lat.contains, 3, _least_column_sup(lat))
    assert _shortest_vector(lat) == expected == (0, 0, 2**depth)


def test_shortest_vector_matches_the_box_scan_on_sheared_chains():
    rng = random.Random("shortest-sheared")
    firsts = [[[3, 1], [0, 2]], [[2, -1], [1, 3]], [[2, 1, 1], [0, 2, 1], [0, 0, 1]], [[1, 2, 0], [0, 3, 1], [1, 0, 2]]]
    sheared = 0
    for first in firsts * 3:  # a fourth round meets a 3-d box of radius 81: 10 s of scanning
        chain = _random_chain(rng, IntegerLattice.from_rows(first), 3)
        for depth in range(1, 4):
            lat = chain.stage(depth)
            sheared += not lat.is_diagonal()
            expected = shortest_nonzero_in_box(lat.contains, lat.dim, _least_column_sup(lat))
            assert _shortest_vector(lat) == expected, (lat.rows, depth)
    assert sheared > 30


def test_freeness_constant_chain_not_certified():
    two = IntegerLattice.diagonal([2, 2])
    ch = OdometerChain.explicit([two, two, two])
    rep = ch.freeness_evidence(3)
    assert rep.intersection == two
    assert rep.certified_free is None


def test_freeness_dyadic():
    rep = chain22().freeness_evidence(4)
    assert rep.intersection == IntegerLattice.diagonal([16, 16])


# ---------------------------------------------------------------- cohomology

def test_cohomology_stage_examples():
    ch = chain32()
    assert ch.cohomology_stage(1) == RationalLattice.from_scaled_rows(6, [[2, 0], [0, 3]])
    eye = OdometerChain.explicit([IntegerLattice.standard(2)])
    assert eye.cohomology_stage(1) == RationalLattice.from_integer(IntegerLattice.standard(2))


def test_cohomology_stages_increase():
    ch = chain32()
    for j in range(1, 5):
        assert ch.cohomology_stage(j).is_sublattice(ch.cohomology_stage(j + 1))


def test_cohomology_pairing_oracle():
    ch = chain32()
    for j in (1, 2, 3):
        dual = ch.cohomology_stage(j)
        cols = ch.stage(j).columns()
        assert all(pairs_integrally(c, cols) for c in dual.columns())


# ---------------------------------------------------------------- value groups

def test_value_group_mixed_radix():
    vg = chain32().clopen_value_group()
    assert vg.exact
    assert vg.infinite == frozenset({2, 3})
    assert vg.contains(Fraction(5, 36))
    assert not vg.contains(Fraction(1, 5))


def test_value_group_trivial():
    ch = OdometerChain.explicit([IntegerLattice.standard(2)] * 2)
    vg = ch.clopen_value_group()
    assert vg.infinite == frozenset() and not dict(vg.finite)
    assert vg.contains(3) and not vg.contains(Fraction(1, 2))


def test_value_group_dyadic_square():
    # indices 4^j generate the same group as powers of 2
    vg = chain22().clopen_value_group()
    assert vg.infinite == frozenset({2})
    assert vg.contains(Fraction(1, 2))
    assert not vg.contains(Fraction(1, 6))


def test_value_group_membership_at_large_depth():
    # arbitrary-precision arithmetic: stages far beyond machine words
    ch = chain32()
    deep = ch.stage(45)
    assert deep == IntegerLattice.diagonal([3**45, 2**45])
    dual = ch.cohomology_stage(45)
    assert dual.covolume == Fraction(1, 6**45)
    assert ch.clopen_value_group().contains(Fraction(1, 3**45 * 2**45))


# ---------------------------------------------------------------- product type

def test_product_type_checks():
    assert chain32().is_product_type_stagewise(6)
    assert not OdometerChain.explicit([IntegerLattice.from_rows([[2, 1], [0, 2]])]).is_product_type_stagewise(1)
