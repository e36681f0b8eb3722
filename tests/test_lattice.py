import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from odolab.lattice import (
    DimensionMismatch,
    IntegerLattice,
    LatticeError,
    RationalLattice,
    SingularBasis,
    _adjugate,
    _integer_kernel,
    hnf,
    prime_factors,
    prime_support,
)

from _oracles import (
    integer_coordinates,
    leibniz_det,
    minimal_generators_2d,
    rank_by_minors,
    rational_members_in_box,
    residue_classes,
    shortest_nonzero_in_box,
    pairs_integrally,
)


D32 = IntegerLattice.diagonal([3, 2])
SHEARED = hnf([[3, 2], [0, 2]])  # columns (3,0) and (2,2)


# ---------------------------------------------------------------- hnf

def test_hnf_sheared_generators():
    assert IntegerLattice.from_columns([(3, 0), (2, 2)]).rows == ((3, 2), (0, 2))


def test_hnf_identity_fixed_point():
    eye = IntegerLattice.standard(3)
    assert hnf(eye.rows).rows == eye.rows


def test_hnf_matches_box_oracle():
    gens = [(6, 0), (3, 2)]
    lat = IntegerLattice.from_columns(gens)
    assert lat.index == 12
    assert lat.rows == minimal_generators_2d(gens)


def test_hnf_idempotent():
    assert hnf(SHEARED.rows) == SHEARED


def test_hnf_rejects_singular():
    with pytest.raises(SingularBasis):
        hnf([[1, 2], [2, 4]])



@pytest.mark.parametrize(
    "build, entry",
    [
        (lambda: IntegerLattice.from_rows([[Fraction(3, 2), 0], [0, 1]]), "3/2"),
        (lambda: IntegerLattice.from_rows([[2.7, 0], [0, 1]]), "2.7"),
        (lambda: IntegerLattice.from_columns([(1, 0), (0, Fraction(1, 3))]), "1/3"),
        (lambda: IntegerLattice.diagonal([Fraction(5, 2), 3]), "5/2"),
        (lambda: RationalLattice.from_scaled_rows(2, [[Fraction(3, 2), 0], [0, 1]]), "3/2"),
        (lambda: RationalLattice.from_scaled_rows(Fraction(3, 2), [[1, 0], [0, 1]]), "3/2"),
    ],
    ids=["rows-fraction", "rows-float", "columns", "diagonal", "scaled-rows", "scaled-rows-den"],
)
def test_non_integer_entries_are_refused(build, entry):
    with pytest.raises(LatticeError, match=re.escape(f"entry {entry} is not an integer")):
        build()


def test_integral_values_of_other_types_are_accepted():
    assert IntegerLattice.from_rows([[Fraction(4, 2), 0], [0, 1.0]]) == IntegerLattice.diagonal([2, 1])

# ---------------------------------------------------------------- index

def test_index_examples():
    assert D32.index == 6
    assert IntegerLattice.standard(4).index == 1
    assert SHEARED.index == 6


def test_index_counts_residues():
    classes = residue_classes(SHEARED.contains, 2, (6, 6))
    assert len(classes) == 6


# ---------------------------------------------------------------- contains

def test_contains_examples():
    assert SHEARED.contains((2, 2))
    assert SHEARED.contains((0, 0))
    assert not SHEARED.contains((1, 1))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        SHEARED.contains((1, 1, 1))


# ---------------------------------------------------------------- sublattice

def test_is_sublattice_examples():
    assert IntegerLattice.diagonal([9, 4]).is_sublattice(D32)
    assert D32.is_sublattice(D32)
    assert not D32.is_sublattice(IntegerLattice.diagonal([2, 3]))


# ---------------------------------------------------------------- intersect

def test_intersect_coordinate_product():
    a = IntegerLattice.diagonal([3, 1])
    b = IntegerLattice.diagonal([1, 2])
    assert a.intersect(b) == D32


def test_intersect_with_ambient():
    assert SHEARED.intersect(IntegerLattice.standard(2)) == SHEARED


def test_intersect_matches_enumeration():
    other = IntegerLattice.diagonal([2, 2])
    meet = SHEARED.intersect(other)
    # brute force: common elements of both lattices inside a box
    common = [
        (x, y)
        for x in range(-12, 12)
        for y in range(-12, 12)
        if SHEARED.contains((x, y)) and other.contains((x, y))
    ]
    assert all(meet.contains(v) for v in common)
    assert all(SHEARED.contains(c) and other.contains(c) for c in meet.columns())
    assert meet.index == 12
    assert len(residue_classes(meet.contains, 2, (12, 12))) == 12


def test_rational_sum_accepts_integer_lattice():
    # columns (2, 0) and (1/2, 1); with Z^2 they generate (1/2)Z x Z
    lat = RationalLattice.from_scaled_rows(2, [[4, 1], [0, 2]])
    assert lat.sum(IntegerLattice.standard(2)) == RationalLattice.from_scaled_rows(2, [[1, 0], [0, 2]])
    d23 = IntegerLattice.diagonal([2, 3])
    assert lat.sum(d23) == lat.sum(RationalLattice.from_integer(d23))
    with pytest.raises(DimensionMismatch):
        lat.sum(IntegerLattice.standard(3))


# ---------------------------------------------------------------- dual

def test_dual_sheared_matches_published_matrix():
    dual = SHEARED.dual()
    stated = RationalLattice.from_scaled_rows(6, [[2, 0], [-2, 3]])
    assert dual == stated
    assert all(pairs_integrally(col, SHEARED.columns()) for col in dual.columns())


def test_dual_standard_is_selfdual():
    eye = IntegerLattice.standard(3)
    assert eye.dual() == RationalLattice.from_integer(eye)


def test_dual_diagonal():
    assert D32.dual() == RationalLattice.from_scaled_rows(6, [[2, 0], [0, 3]])


# ---------------------------------------------------------------- coset systems

def test_coset_system_diagonal():
    cs = D32.coset_system()
    assert cs.rectangle == (3, 2)
    assert set(cs.reps) == {(x, y) for x in range(3) for y in range(2)}


def test_coset_system_standard():
    cs = IntegerLattice.standard(3).coset_system()
    assert cs.rectangle == (1, 1, 1)
    assert cs.reps == ((0, 0, 0),)


def test_coset_system_sheared():
    cs = SHEARED.coset_system()
    assert cs.rectangle == (3, 2)
    assert len(cs.reps) == 6


def test_reduce_examples():
    assert D32.coset_system().reduce((1, 2)) == (1, 0)
    assert SHEARED.coset_system().reduce((0, 0)) == (0, 0)
    assert SHEARED.coset_system().reduce((1, 2)) == (2, 0)


def test_reduce_is_retraction():
    cs = SHEARED.coset_system()
    for v in [(5, 7), (-4, 3), (100, -99)]:
        w = cs.reduce(v)
        assert SHEARED.contains(tuple(a - b for a, b in zip(v, w)))
        assert cs.reduce(w) == w


# ---------------------------------------------------------------- property suites

def _random_lattice(rng, dim, bound=20):
    while True:
        cols = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)]
        try:
            return IntegerLattice.from_columns(cols)
        except SingularBasis:
            continue


def _random_unimodular(rng, dim, steps=6):
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        c = rng.randint(-3, 3)
        for k in range(dim):
            rows[k][i] += c * rows[k][j]  # column operation: unimodular
    return rows


def test_hnf_unimodular_invariance():
    rng = random.Random(7)
    for _ in range(60):
        dim = rng.choice([2, 3])
        lat = _random_lattice(rng, dim)
        u = _random_unimodular(rng, dim)
        mixed = [
            [sum(lat.rows[i][k] * u[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
        assert hnf(mixed) == lat


def test_index_multiplicative_under_containment():
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.choice([2, 3])
        b = _random_lattice(rng, dim, bound=4)
        scale = rng.randint(1, 3)
        a = IntegerLattice.from_columns([[scale * e for e in c] for c in b.columns()])
        assert a.is_sublattice(b)
        # coordinates of a's columns in b's basis form the relative lattice
        rel = IntegerLattice.from_columns([b.coefficients(c) for c in a.columns()])
        assert a.index == b.index * rel.index


def test_duality_properties_random():
    rng = random.Random(13)
    for _ in range(60):
        dim = rng.choice([2, 3])
        lat = _random_lattice(rng, dim)
        dual = lat.dual()
        assert dual.dual() == RationalLattice.from_integer(lat)
        assert dual.covolume == Fraction(1, lat.index)
        assert all(pairs_integrally(col, lat.columns()) for col in dual.columns())


def test_duality_reverses_inclusion():
    rng = random.Random(17)
    for _ in range(30):
        dim = 2
        b = _random_lattice(rng, dim, bound=5)
        a = IntegerLattice.from_columns([[2 * e for e in c] for c in b.columns()])
        assert a.is_sublattice(b)
        assert b.dual().is_sublattice(a.dual())


def test_coset_system_cardinality_brute_force():
    rng = random.Random(19)
    checked = 0
    while checked < 25:
        dim = 2
        lat = _random_lattice(rng, dim, bound=9)
        if lat.index > 200:
            continue
        checked += 1
        cs = lat.coset_system()
        box = tuple(2 * m for m in cs.rectangle)
        from itertools import product as iproduct

        seen = {cs.reduce(v) for v in iproduct(*(range(b) for b in box))}
        assert len(seen) == lat.index
        assert seen == set(cs.reps)


@given(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
)
def test_reduce_action_compatible(v, w):
    # reduce is a retraction compatible with translation
    cs = SHEARED.coset_system()
    direct = cs.reduce((v[0] + w[0], v[1] + w[1]))
    r = cs.reduce(v)
    assert cs.reduce((r[0] + w[0], r[1] + w[1])) == direct


@given(st.integers(min_value=2, max_value=10_000))
def test_prime_factors_reconstruct(n):
    fac = prime_factors(n)
    out = 1
    for p, e in fac.items():
        out *= p**e
    assert out == n


def test_prime_support():
    assert prime_support(Fraction(1, 6)) == frozenset({2, 3})
    assert prime_support(Fraction(4, 1)) == frozenset()


def test_shortest_vector_oracle_diag():
    best = shortest_nonzero_in_box(IntegerLattice.diagonal([243, 32]).contains, 2, 40)
    assert best == (0, 32)


# ---------------------------------------------------------------- rational algebra against enumeration

def _random_rational_lattice(rng, dim):
    """(den, generator columns, lattice) with integer entries in [-3, 3] over den in 1..6."""
    while True:
        cols = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        if leibniz_det(cols):
            break
    den = rng.randint(1, 6)
    rows = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    return den, cols, RationalLattice.from_scaled_rows(den, rows)


def _box(dim, radius):
    return product(range(-radius, radius + 1), repeat=dim)


def test_rational_contains_matches_enumeration():
    rng = random.Random(23)
    nonzero = 0
    for _ in range(24):
        dim = rng.choice([2, 3])
        den, cols, lat = _random_rational_lattice(rng, dim)
        # a grid twice as fine as the lattice's, so vectors with too large a
        # denominator are probed as well
        grid = 2 * den
        radius = 2 * grid if dim == 2 else grid
        members = rational_members_in_box(den, cols, grid, radius)
        nonzero += len(members) - 1
        for v in _box(dim, radius):
            assert lat.contains(tuple(Fraction(e, grid) for e in v)) == (v in members)
    assert nonzero > 1000


def test_rational_dual_matches_pairing():
    rng = random.Random(29)
    nonzero = 0
    for _ in range(24):
        dim = rng.choice([2, 3])
        den, cols, lat = _random_rational_lattice(rng, dim)
        gens = [tuple(Fraction(e, den) for e in c) for c in cols]
        dual = lat.dual()
        assert all(pairs_integrally(col, gens) for col in dual.columns())
        assert dual.covolume == 1 / lat.covolume
        assert dual.dual() == lat
        # the dual lies in (den/det)Z^d; probe a grid twice as fine
        grid = 2 * abs(leibniz_det(cols))
        for v in _box(dim, 8 if dim == 2 else 4):
            x = tuple(Fraction(e, grid) for e in v)
            inside = pairs_integrally(x, gens)
            nonzero += inside and any(v)
            assert dual.contains(x) == inside
    assert nonzero > 100


def test_rational_intersect_matches_enumeration():
    rng = random.Random(31)
    nonzero = 0
    for _ in range(24):
        dim = rng.choice([2, 3])
        den_a, cols_a, a = _random_rational_lattice(rng, dim)
        den_b, cols_b, b = _random_rational_lattice(rng, dim)
        # every member of the meet lies in a, so on a's grid
        grid, radius = den_a, 3 * den_a if dim == 2 else 2 * den_a
        common = rational_members_in_box(den_a, cols_a, grid, radius) & rational_members_in_box(
            den_b, cols_b, grid, radius
        )
        nonzero += len(common) - 1
        meet = a.intersect(b)
        assert meet == b.intersect(a)
        for v in _box(dim, radius):
            assert meet.contains(tuple(Fraction(e, grid) for e in v)) == (v in common)
    assert nonzero > 100


def test_integer_meets_rational_in_both_orders():
    rng = random.Random(37)
    nonzero = 0
    for _ in range(24):
        dim = rng.choice([2, 3])
        den, cols, rational = _random_rational_lattice(rng, dim)
        integer = _random_lattice(rng, dim, bound=2)
        left, right = integer.intersect(rational), rational.intersect(integer)
        assert isinstance(left, IntegerLattice)
        assert RationalLattice.from_integer(left) == right
        radius = 4 if dim == 2 else 3
        common = rational_members_in_box(den, cols, 1, radius) & rational_members_in_box(
            1, integer.columns(), 1, radius
        )
        nonzero += len(common) - 1
        for v in _box(dim, radius):
            assert left.contains(v) == (v in common)
    assert nonzero > 200


# ---------------------------------------------------------------- integer helpers

def test_adjugate_with_row_swap_and_negative_determinant():
    rng = random.Random(41)
    for _ in range(60):
        dim = rng.choice([2, 3, 4])
        while True:
            a = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(dim)]
            a[0][0] = 0  # the first pivot needs a row swap
            det = leibniz_det(a)
            if det:
                break
        if det > 0:
            a[-1] = [-e for e in a[-1]]
            det = -det
        d, m = _adjugate(a)
        assert d == -det
        product_ = [[sum(a[i][k] * m[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
        assert product_ == [[d * (i == j) for j in range(dim)] for i in range(dim)]


def test_adjugate_rejects_singular():
    with pytest.raises(SingularBasis):
        _adjugate([[0, 1], [0, 2]])
    with pytest.raises(SingularBasis):
        _adjugate([[1, 2, 3], [2, 4, 6], [0, 1, 1]])


def test_integer_kernel_matches_brute_force():
    rng = random.Random(43)
    for _ in range(40):
        n, m = rng.randint(2, 4), rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            a[-1] = [2 * e for e in a[0]]  # a dependent row
        basis = _integer_kernel(a, n)
        assert all(sum(r[c] * b[c] for c in range(n)) == 0 for b in basis for r in a)
        assert len(basis) == n - rank_by_minors(a)
        for v in _box(n, 2):
            if all(sum(r[c] * v[c] for c in range(n)) == 0 for r in a):
                assert integer_coordinates(v, basis) is not None
