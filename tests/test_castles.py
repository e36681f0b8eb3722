import gc
import random
import weakref
from array import array
from fractions import Fraction
from math import gcd, prod

import pytest

from odolab import castles
from odolab.castles import (
    AtomSpace,
    Castle,
    CastleError,
    EmptyConeCoset,
    NotAPartition,
    StepMap,
    Tower,
    _climbs_as_stored,
    _put_in_climb_order,
    castle_refinement_over,
    minimal_cone_vector,
    refine_pure_columns,
)
from odolab.lattice import DimensionMismatch, IntegerLattice, SingularBasis
from odolab.odometer import ChainError, OdometerChain
from odolab.speedup import Cone, derived_odometer

from _oracles import (
    castle_refinement_by_sets,
    coarsen_by_reduction,
    column_by_translation,
    coset_members_by_l1,
    cylinder_labels_by_reduction,
    fibers_by_scan,
    fibers_by_transversal,
    fraction_cone_member,
    images_by_translation,
    refine_pure_columns_by_sets,
    stored_in_climb_order,
    tower_from_levels,
    translate_by_reduction,
)
from test_speedup import alternating_chain, row_shear_cocycle


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


def test_minimal_cone_vector_empty_coset():
    lat = IntegerLattice.diagonal([3, 2])
    ray = Cone.sector((1, 0), (1, 0))
    # ray members are (t, 0); the coset of (0, 1) has odd second coordinate
    with pytest.raises(EmptyConeCoset):
        minimal_cone_vector(ray, (0, 1), (0, 0), lat)


def test_minimal_cone_vector_search_bound_is_not_a_silent_clamp():
    # the least member is (0, 4) = -3*(8, 0) + 4*(6, 1), outside the radius-2 box
    lat = IntegerLattice.from_rows([[8, 6], [0, 1]])
    assert minimal_cone_vector(QUADRANT, (0, 0), (0, 0), lat) == (0, 4)


def _nondiagonal_lattice(rng, dim):
    while True:
        rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = rng.randint(1, 5)
            for j in range(i + 1, dim):
                rows[i][j] = rng.randrange(rows[i][i])
        lat = IntegerLattice.from_rows(rows)
        if not lat.is_diagonal():
            return lat


def _random_sector(rng):
    """A sector cone with interior and the independent cross-product test of it."""
    while True:
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if u[0] * v[1] - u[1] * v[0] > 0:
            break
    iu, iv = rng.random() < 0.5, rng.random() < 0.5

    def member(x):
        cu = u[0] * x[1] - u[1] * x[0]
        cv = x[0] * v[1] - x[1] * v[0]
        return x != (0, 0) and (cu > 0 or iu and cu == 0) and (cv > 0 or iv and cv == 0)

    return Cone.sector(u, v, include_u=iu, include_v=iv), member


def _random_facet_cone(rng, dim):
    """A cone of rational facets around an interior vector, with its Fraction test."""
    inside = tuple(rng.randint(-2, 2) for _ in range(dim - 1)) + (rng.randint(1, 2),)
    normals = []
    while len(normals) < dim + rng.randint(0, 1):
        n = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim))
        if sum(a * b for a, b in zip(n, inside)) > 0:
            normals.append((n, rng.random() < 0.5))
    return Cone.from_facets(normals), lambda x: fraction_cone_member(normals, x)


def _random_quadrant(rng, dim, strict):
    """A quadrant, with some axes strict when asked, and its coordinate test."""
    axes = {i for i in range(dim) if rng.random() < 0.5} if strict else set()

    def member(x):
        return any(x) and all(e > 0 if i in axes else e >= 0 for i, e in enumerate(x))

    return Cone.quadrant(dim, strict_axes=axes), member


def _random_ray(rng):
    """A ray cone, and its test as a positive multiple of the primitive u."""
    while True:
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        if gcd(*u) == 1:
            break

    def member(x):
        k = max(map(abs, x)) // max(map(abs, u))  # the multiple, if x is one
        return k > 0 and x == (k * u[0], k * u[1])

    return Cone.sector(u, u), member


def _cone_vector_case(rng, kind):
    """(cone, member test, lattice, target, source) of one random case."""
    dim = 3 if kind.endswith("3d") else 2
    if kind == "sector" or kind == "nonzero-source":
        cone, member = _random_sector(rng)
    elif kind.startswith("facets"):
        cone, member = _random_facet_cone(rng, dim)
    elif kind == "ray":
        cone, member = _random_ray(rng)
    else:
        cone, member = _random_quadrant(rng, dim, strict=kind.startswith("strict"))
    if kind.startswith("quadrant-diagonal"):
        lat = IntegerLattice.diagonal([rng.randint(1, 5) for _ in range(dim)])
    else:
        lat = _nondiagonal_lattice(rng, dim)
    reduce = lat.coset_system().reduce
    source = (0,) * dim
    if kind == "nonzero-source":
        source = reduce(tuple(rng.randint(-6, 6) for _ in range(dim)))
    if kind.startswith("quadrant-diagonal") and rng.random() < 0.3:
        target = (0,) * dim  # the lattice's own coset
    else:
        target = reduce(tuple(rng.randint(-6, 6) for _ in range(dim)))
    return cone, member, lat, target, source


@pytest.mark.parametrize(
    "kind",
    [
        "sector",
        "facets-2d",
        "facets-3d",
        "quadrant-diagonal-2d",
        "quadrant-diagonal-3d",
        "strict-quadrant-2d",
        "strict-quadrant-3d",
        "ray",
        "nonzero-source",
    ],
)
def test_minimal_cone_vector_matches_brute_force(kind):
    rng = random.Random(f"least-cone-vector-{kind}")
    for _ in range(25):
        cone, member, lat, target, source = _cone_vector_case(rng, kind)
        base = tuple(t - s for t, s in zip(target, source))
        try:
            got = minimal_cone_vector(cone, target, source, lat)
        except EmptyConeCoset:
            # only a ray misses whole cosets; none of its members lies near 0
            assert kind == "ray", (cone.describe(), lat, target)
            assert coset_members_by_l1(member, lat.contains, base, 30) == []
            continue
        # the box of radius |got|_1 holds every member that could precede it
        expected = coset_members_by_l1(member, lat.contains, base, sum(map(abs, got)))
        assert got == expected[0], (cone.describe(), lat, target, source)


# ---------------------------------------------------------------- castles

def _step_map(space, entries):
    steps = StepMap(space.size)
    for c, vec in entries.items():
        steps.assign(c, vec)
    return steps


def _two_level_castle():
    ch = chain32()
    space = AtomSpace(ch, 1)
    base = frozenset([space.encode((0, 0)), space.encode((1, 0))])
    top = frozenset([space.encode((0, 1)), space.encode((1, 1))])
    steps = _step_map(space, {c: (0, 1) for c in base})
    return Castle(ch, 1, [tower_from_levels([base, top])], steps)


def test_castle_refinement_over_two_way_split():
    castle = _two_level_castle()
    base = sorted(castle.towers[0].level(0))
    parts = [[frozenset([base[0]]), frozenset([base[1]])]]
    refined = castle_refinement_over(castle, parts)
    assert len(refined.towers) == 2
    assert all(t.height == 2 for t in refined.towers)
    total_old = frozenset().union(*(l for t in castle.towers for l in t.levels))
    total_new = frozenset().union(*(l for t in refined.towers for l in t.levels))
    assert total_old == total_new


def test_castle_refinement_trivial_partition():
    castle = _two_level_castle()
    refined = castle_refinement_over(castle, [[castle.towers[0].level(0)]])
    assert len(refined.towers) == 1
    assert refined.towers[0] == castle.towers[0]


def test_castle_refinement_measure_bookkeeping():
    castle = _two_level_castle()
    base = sorted(castle.towers[0].level(0))
    parts = [[frozenset([base[0]]), frozenset([base[1]])]]
    refined = castle_refinement_over(castle, parts)
    old_base_measure = Fraction(len(castle.towers[0].level(0)), 6)
    new_base_measure = sum(Fraction(len(t.level(0)), 6) for t in refined.towers)
    assert old_base_measure == new_base_measure


def test_castle_refinement_rejects_bad_partition():
    castle = _two_level_castle()
    with pytest.raises(NotAPartition):
        castle_refinement_over(castle, [[frozenset([min(castle.towers[0].level(0))])]])


def test_refine_pure_columns_splits_by_labels():
    ch = chain32()
    space = AtomSpace(ch, 2)
    # one tower of height 2 whose base meets two different depth-1 atoms
    base = frozenset([space.encode((0, 0)), space.encode((1, 0))])
    steps = _step_map(space, {c: (0, 1) for c in base})
    top = frozenset(space.translate(c, steps[c]) for c in base)
    castle = Castle(ch, 2, [tower_from_levels([base, top])], steps)
    refined = refine_pure_columns(castle, cylinder_labels_by_reduction(castle, AtomSpace(ch, 1)))
    assert len(refined.towers) == 2


def test_refine_pure_columns_trivial_labels():
    ch = chain32()
    space = AtomSpace(ch, 2)
    # a base of two depth-2 atoms inside one depth-1 atom, moved by one vector
    base = frozenset([space.encode((0, 0)), space.encode((3, 0))])
    steps = _step_map(space, {c: (0, 1) for c in base})
    top = frozenset(space.translate(c, steps[c]) for c in base)
    castle = Castle(ch, 2, [tower_from_levels([base, top])], steps)
    refined = refine_pure_columns(castle, cylinder_labels_by_reduction(castle, AtomSpace(ch, 1)))
    assert tower_lists(refined) == tower_lists(castle)


def test_refine_pure_columns_keeps_a_width_1_tower_codes_array():
    # a width-1 tower that climbs as stored is its one column: the new tower
    # holds the old tower's array, not a copy of it
    ch = chain32()
    space = AtomSpace(ch, 2)
    base = frozenset([space.encode((0, 0))])
    steps = _step_map(space, {c: (0, 1) for c in base})
    top = frozenset(space.translate(c, steps[c]) for c in base)
    castle = Castle(ch, 2, [tower_from_levels([base, top])], steps)
    refined = refine_pure_columns(castle, cylinder_labels_by_reduction(castle, AtomSpace(ch, 1)))
    assert refined.towers[0].codes is castle.towers[0].codes


def _climbing_tower(width, height):
    """A tower of width columns on the 1-D space of width * height atoms,
    whose level map moves every atom by +width: each column is one residue
    class, codes[i::width].  Returns the tower, the map and the map read
    off its displacement table."""
    size = width * height
    space = OdometerChain.diagonal_power([size]).kr_partition(1)
    steps = StepMap(size, [None, (width,)], array("i", [1]) * size)
    return Tower(width, array("i", range(size))), steps, space.displacements(steps.vectors, steps.ids)


def test_put_in_climb_order_mends_the_levels_above_each_edge():
    # levels 2-4 and 5-6 are stored in two other column orders, so only
    # edges 1 and 4 are out of climb order; permuting the columns above
    # them mends the tower and never moves level 0
    tower, _, moves = _climbing_tower(4, 7)
    expected = array("i", tower.codes)
    for v in range(2, 7):
        order = [2, 0, 3, 1] if v < 5 else [3, 2, 1, 0]
        tower.codes[4 * v : 4 * v + 4] = array("i", [4 * v + i for i in order])
    assert not _climbs_as_stored(moves, tower)
    _put_in_climb_order(tower, moves, [1, 4])
    assert tower.codes == expected and _climbs_as_stored(moves, tower)
    # edges already in climb order leave the codes alone
    _put_in_climb_order(tower, moves, [0, 1, 2, 5])
    assert tower.codes == expected


def test_put_in_climb_order_refuses_a_level_not_sent_onto_the_next():
    # an atom with no step (image -1), or a step outside the next level,
    # below the top is a broken map: CastleError, not an assertion
    for broken in (None, (18,)):
        tower, steps, moves = _climbing_tower(4, 7)
        if broken is None:
            steps.ids[9] = 0
        else:
            steps.assign(9, broken)  # onto atom 27, a vector appended after the table was filled
        with pytest.raises(CastleError, match="the level map does not send level 2 onto level 3"):
            _put_in_climb_order(tower, moves, [0, 2])


@pytest.mark.parametrize("chunk", [3, 1 << 14])
def test_climbs_as_stored_is_the_per_atom_test(chunk, monkeypatch):
    # against one translate per atom, chunk by chunk: a tower in climb
    # order, one whose climb ends at an atom with no step, one with -1 among
    # its codes, one with a level out of column order, and one with a code
    # past the space; chunks of 3 codes put each break inside a later chunk
    monkeypatch.setattr(castles, "CLIMB_CHUNK", chunk)
    tower, steps, moves = _climbing_tower(4, 7)
    images = array("i", [(c + 4) % 28 for c in range(28)])
    cases = [array("i", tower.codes)]
    cases.append(array("i", tower.codes))  # no step at atom 17
    cases.append(array("i", tower.codes[:-1]) + array("i", [-1]))
    cases.append(array("i", tower.codes))
    cases[-1][20:24] = array("i", [21, 20, 22, 23])
    cases.append(array("i", tower.codes))
    cases[-1][13] = 28
    for j, codes in enumerate(cases):
        t = Tower(4, codes)
        steps.ids[17] = 0 if j == 1 else 1
        images[17] = -1 if j == 1 else 21
        assert _climbs_as_stored(moves, t) == stored_in_climb_order(images + array("i", [-1]), t) == (j == 0), j


def tower_lists(castle, images=None):
    """Each tower as its list of levels, each a sorted list; given the
    `images` of the castle's level map, every tower must also be stored in
    climb order, column i `codes[i::width]`."""
    if images is not None:
        assert all(stored_in_climb_order(images, t) for t in castle.towers)
    return [[sorted(t.level(v)) for v in range(t.height)] for t in castle.towers]


def _random_castle(rng, chain, depth):
    """Up to four towers over random atoms of the depth-`depth` space, each
    level sent onto the next by vectors drawn from a small pool.  Returns the
    castle, its towers stored in climb order over a sorted base, and its
    towers as lists of levels."""
    space = chain.kr_partition(depth)
    pool = [tuple(rng.randint(-3, 3) for _ in range(chain.dim)) for _ in range(4)]
    free = set(range(space.size))
    steps = StepMap(space.size)
    towers = []
    while len(free) >= 2 and len(towers) < 4:
        level = rng.sample(sorted(free), rng.randint(1, min(4, len(free) // 2)))
        free.difference_update(level)
        levels = [level]
        for _ in range(rng.randint(1, 6)):
            moves, taken = [], set()
            for c in level:
                options = [v for v in pool if space.translate(c, v) in free - taken]
                if not options:
                    break
                vec = rng.choice(options)
                taken.add(space.translate(c, vec))
                moves.append((c, vec))
            if len(moves) < len(level):
                break
            for c, vec in moves:
                steps.assign(c, vec)
            level = [space.translate(c, vec) for c, vec in moves]
            free.difference_update(level)
            levels.append(level)
        towers.append(levels)
    return Castle(chain, depth, [_in_climb_order(levels) for levels in towers], steps), towers


def _in_climb_order(levels):
    """The tower whose level v is `levels[v]`, each level listed in the
    order of the columns that climb it, with the columns sorted by base atom."""
    order = sorted(range(len(levels[0])), key=levels[0].__getitem__)
    return Tower(len(order), array("i", [level[i] for level in levels for i in order]))


@pytest.mark.parametrize("kind", ["diagonal-power", "sheared-explicit"])
def test_refinements_match_the_two_pass_oracle(kind):
    rng = random.Random(f"refine-{kind}")
    for _ in range(12):
        if kind == "diagonal-power":
            chain = OdometerChain.diagonal_power(rng.choice([[3, 2], [2, 2], [2, 3, 5]]))
        else:
            first = rng.choice([[[3, 1], [0, 2]], [[2, 1, 1], [0, 2, 1], [0, 0, 1]]])
            chain = _random_chain(rng, IntegerLattice.from_rows(first), 3)
        depth = rng.randint(1, 3)
        castle, towers = _random_castle(rng, chain, depth)
        space = castle.space
        coarse = chain.kr_partition(rng.randint(1, depth))
        expected = refine_pure_columns_by_sets(
            space, towers, castle.steps, lambda c: coarsen_by_reduction(space, c, coarse)
        )
        images = images_by_translation(castle)
        assert all(stored_in_climb_order(images, t) for t in castle.towers)
        moves = space.displacements(castle.steps.vectors, castle.steps.ids)
        assert all(_climbs_as_stored(moves, t) for t in castle.towers)
        refined = refine_pure_columns(castle, cylinder_labels_by_reduction(castle, coarse))
        assert tower_lists(refined, images) == expected, chain.describe()
        partitions = []
        for levels in towers:
            base = list(levels[0])
            rng.shuffle(base)
            cut = rng.randint(0, len(base))
            partitions.append([frozenset(base[:cut]), frozenset(base[cut:])])
        expected = castle_refinement_by_sets(space, towers, castle.steps, partitions)
        refined = castle_refinement_over(castle, partitions)
        assert tower_lists(refined, images) == expected, chain.describe()


# ---------------------------------------------------------------- atom spaces

def test_fibers_need_a_finer_space_of_the_same_chain():
    ch = chain32()
    coarse, fine = AtomSpace(ch, 1), AtomSpace(ch, 2)
    assert len(coarse.fibers(0, fine)) == 6
    with pytest.raises(ChainError):
        fine.fibers(0, coarse)
    with pytest.raises(ChainError):
        coarse.fibers(0, AtomSpace(chain32(), 2))


def test_fibers_match_full_scan_on_the_derived_chain():
    chain = derived_odometer(row_shear_cocycle(), checked_depth=2)
    rng = random.Random("derived-fibers")
    for j in range(1, 5):
        coarse = AtomSpace(chain, j)
        assert not chain.stage(j).is_diagonal()
        for finer_depth in range(j, 5):
            fine = AtomSpace(chain, finer_depth)
            codes = rng.sample(range(coarse.size), min(5, coarse.size))
            for c in codes:
                assert coarse.fibers(c, fine) == fibers_by_scan(coarse, c, fine), (j, finer_depth, c)


# the diagonal quadrant chain, the sheared row-shear derived chain, the
# dyadic cube and random sheared explicit 3-D chains
FIBER_CHAINS = {
    "quadrant": (lambda: [OdometerChain.diagonal_power([3, 2])], 4),
    "row-shear-derived": (lambda: [derived_odometer(row_shear_cocycle(), checked_depth=2)], 4),
    "dyadic-cube": (lambda: [OdometerChain.diagonal_power([2, 2, 2])], 4),
    "sheared-3d": (lambda: _sheared_3d_chains(random.Random("fibers-3d"), 4), 3),
}


@pytest.mark.parametrize("name", sorted(FIBER_CHAINS))
def test_fibers_are_the_transversal_at_every_code(name):
    # the zero fiber translated off a displacement table, against one encode
    # per finer atom of the coarse representative's transversal
    chains, depth = FIBER_CHAINS[name]
    for chain in chains():
        for j in range(1, depth + 1):
            coarse = chain.kr_partition(j)
            for finer_depth in range(j, depth + 1):
                fine = chain.kr_partition(finer_depth)
                for c in range(coarse.size):
                    assert coarse.fibers(c, fine) == fibers_by_transversal(coarse, c, fine), (
                        chain.describe(), j, finer_depth, c,
                    )


def _sheared_3d_chains(rng, count):
    return [_random_chain(rng, IntegerLattice.from_rows([[2, 1, 1], [0, 2, 1], [0, 0, 1]]), 4) for _ in range(count)]


def _random_chain(rng, first, depth):
    """Explicit chain whose stage k+1 is stage k's basis times a random integer matrix."""
    dim = first.dim
    stages = [first]
    while len(stages) < depth:
        m = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        rows = stages[-1].rows
        product = [[sum(rows[i][t] * m[t][j] for t in range(dim)) for j in range(dim)] for i in range(dim)]
        try:
            lat = IntegerLattice.from_rows(product)
        except SingularBasis:
            continue
        if 1 < lat.index // stages[-1].index <= 8:
            stages.append(lat)
    return OdometerChain.explicit(stages)


@pytest.mark.parametrize(
    "first",
    [
        IntegerLattice.diagonal([2, 3]),
        IntegerLattice.from_rows([[3, 1], [0, 2]]),
        IntegerLattice.diagonal([2, 1, 2]),
        IntegerLattice.from_rows([[2, 1, 1], [0, 2, 1], [0, 0, 1]]),
    ],
    ids=["diagonal-2d", "sheared-2d", "diagonal-3d", "sheared-3d"],
)
def test_fibers_match_full_scan_on_explicit_chains(first):
    rng = random.Random(f"explicit-fibers-{first}")
    for _ in range(4):
        chain = _random_chain(rng, first, 3)
        for j in range(1, 4):
            coarse = AtomSpace(chain, j)
            for finer_depth in range(j, 4):
                fine = AtomSpace(chain, finer_depth)
                every = [coarse.fibers(c, fine) for c in range(coarse.size)]
                for c, fiber in enumerate(every):
                    assert fiber == fibers_by_scan(coarse, c, fine), (chain.describe(), j, finer_depth, c)
                # the fibers partition the finer atoms
                assert sorted(x for fiber in every for x in fiber) == list(range(fine.size))


# diagonal chains of dimension 1-3 (exponents unequal in two of them), the
# non-diagonal row-shear derived chain, and an explicit chain whose stages
# are sheared and diagonal in turn, each up to depth 4
KERNEL_CHAINS = {
    "alternating-explicit": alternating_chain,
    "diag-1d": lambda: OdometerChain.diagonal_power([5]),
    "diag-2d": lambda: OdometerChain.diagonal_power([3, 2]),
    "diag-2d-unequal": lambda: OdometerChain.diagonal_power([2, 3], [1, 2]),
    "diag-3d": lambda: OdometerChain.diagonal_power([2, 3, 5]),
    "diag-3d-unequal": lambda: OdometerChain.diagonal_power([2, 2, 3], [2, 1, 1]),
    "row-shear-derived": lambda: derived_odometer(row_shear_cocycle(), checked_depth=2),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CHAINS))
def test_translate_matches_the_reduction(name):
    chain = KERNEL_CHAINS[name]()
    rng = random.Random(f"translate-{name}")
    for j in range(1, 5):
        space = chain.kr_partition(j)
        reach = 3 * max(space.rectangle)
        # a small pool, so most calls run on offsets set up by an earlier call
        pool = [(0,) * chain.dim] + [
            tuple(rng.randint(-reach, reach) for _ in range(chain.dim)) for _ in range(12)
        ]
        for _ in range(200):
            code = rng.randrange(space.size)
            vec = rng.choice(pool)
            assert space.translate(code, vec) == translate_by_reduction(space, code, vec), (j, code, vec)
        assert space.translate(space.size - 1, list(pool[1])) == translate_by_reduction(
            space, space.size - 1, pool[1]
        )


@pytest.mark.parametrize("name", sorted(KERNEL_CHAINS))
def test_coarsen_matches_the_reduction(name):
    # `lift` of the coarse codes reads each fine atom's coarser atom
    chain = KERNEL_CHAINS[name]()
    rng = random.Random(f"coarsen-{name}")
    for fine_depth in range(1, 5):
        fine = chain.kr_partition(fine_depth)
        for j in range(1, fine_depth + 1):
            coarse = chain.kr_partition(j)
            lifted = fine.lift(array("i", range(coarse.size)), coarse)
            assert len(lifted) == fine.size
            for code in [0, fine.size - 1] + [rng.randrange(fine.size) for _ in range(100)]:
                assert lifted[code] == coarsen_by_reduction(fine, code, coarse), (j, fine_depth, code)


@pytest.mark.parametrize(
    "first",
    [IntegerLattice.diagonal([2, 3]), IntegerLattice.diagonal([2, 1, 2])],
    ids=["diagonal-2d", "diagonal-3d"],
)
def test_coarsen_onto_a_diagonal_stage_of_a_sheared_chain(first):
    # the coarse stage is diagonal and the finer ones are not: digit
    # arithmetic on the finer code must still give the containing atom
    rng = random.Random(f"explicit-coarsen-{first}")
    for _ in range(4):
        chain = _random_chain(rng, first, 3)
        coarse = chain.kr_partition(1)
        for fine_depth in range(1, 4):
            fine = chain.kr_partition(fine_depth)
            lifted = fine.lift(array("i", range(coarse.size)), coarse)
            assert lifted.tolist() == [coarsen_by_reduction(fine, code, coarse) for code in range(fine.size)]


# the diagonal quadrant chain, the sheared row-shear derived chain, the
# dyadic cube, twelve random sheared explicit chains, random sheared
# explicit 3-D chains and a 1-D chain, each with its deepest depth of at
# most about 50,000 atoms
LIFT_CHAINS = {
    "quadrant": (lambda: [OdometerChain.diagonal_power([3, 2])], 6),
    "row-shear-derived": (lambda: [derived_odometer(row_shear_cocycle(), checked_depth=2)], 6),
    "dyadic-cube": (lambda: [OdometerChain.diagonal_power([2, 2, 2])], 5),
    "sheared-explicit": (lambda: _sheared_chains(random.Random("lift"), 12), 4),
    "sheared-3d": (lambda: _sheared_3d_chains(random.Random("lift-3d"), 4), 4),
    "diag-1d": (lambda: [OdometerChain.diagonal_power([5])], 4),
}


def _sheared_chains(rng, count):
    firsts = [[[3, 1], [0, 2]], [[2, 1], [0, 3]], [[2, 1, 1], [0, 2, 1], [0, 0, 1]]]
    return [_random_chain(rng, IntegerLattice.from_rows(rng.choice(firsts)), 4) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(LIFT_CHAINS))
def test_lift_is_the_coarsening_at_every_code(name):
    # `lift` reads digit 0 mod its coarse side and repeats what it read:
    # the row-shear chain repeats it at depths 5 -> 2 and 5 -> 3 with a
    # last coarse digit that carries, and a 1-D chain has no digit to repeat
    chains, depth = LIFT_CHAINS[name]
    repeated = set()  # (fine depth, coarse depth) with a repeat and a carrying last digit
    for chain in chains():
        for fine_depth in range(1, depth + 1):
            fine = chain.kr_partition(fine_depth)
            for j in range(1, fine_depth + 1):
                coarse = chain.kr_partition(j)
                if chain.dim > 1 and fine.rectangle[0] > coarse.rectangle[0] and any(coarse._carries[-1]):
                    repeated.add((fine_depth, j))
                # values other than the coarse codes, read through the same map
                expected = array("i", [100 + coarsen_by_reduction(fine, c, coarse) for c in range(fine.size)])
                lifted = fine.lift(array("i", range(100, 100 + coarse.size)), coarse)
                assert lifted == expected, (chain.describe(), j, fine_depth)
    assert name != "row-shear-derived" or {(5, 2), (5, 3)} <= repeated
    assert name != "sheared-3d" or repeated


# the chains of LIFT_CHAINS, the 3-D mixed chain, and random sheared
# explicit 3-D chains whose carrying digits 1 and 2 form one run
IMAGES_CHAINS = {
    **LIFT_CHAINS,
    "mixed-3d": (lambda: [OdometerChain.diagonal_power([3, 2, 6])], 2),
    "merged-runs-3d": (
        lambda: [
            _random_chain(random.Random(f"merged-{i}"), IntegerLattice.from_rows([[2, 1, 1], [0, 2, 1], [0, 0, 1]]), 4)
            for i in range(4)
        ],
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(IMAGES_CHAINS))
def test_images_are_the_translates_at_every_code(name):
    chains, depth = IMAGES_CHAINS[name]
    rng = random.Random(f"images-{name}")
    merged = False  # a 3-D stage whose digit 2 carries into digit 1
    for chain in chains():
        for j in range(1, depth + 1):
            space = chain.kr_partition(j)
            merged = merged or chain.dim == 3 and space.system.lattice.rows[1][2] != 0
            vectors = [None] + [tuple(rng.randint(-50, 50) for _ in range(chain.dim)) for _ in range(6)]
            ids = array("i", [rng.randrange(len(vectors)) for _ in range(space.size)])
            expected = [space.translate(c, vectors[i]) if i else -1 for c, i in enumerate(ids)]
            images = space.displacements(vectors, ids).images(range(space.size))
            assert images.tolist() == expected, (chain.describe(), j)
    assert merged or name != "merged-runs-3d"


def test_images_read_a_one_digit_last_run_off_two_translates(monkeypatch):
    # a last run of one digit wraps at most once, so its table comes from two
    # translates per vector, whatever its number of values, and a head term
    # from one per value of the other runs' digits: every code against
    # translate, on diagonal, sheared and 3-D stages, last sides of 1 and 2
    # beside wider ones, vectors whose last digit is 0 (no wrap) and negative
    # vectors
    rng = random.Random("one-digit-run")
    spaces = [
        OdometerChain.diagonal_power([3, 2]).kr_partition(1),
        OdometerChain.diagonal_power([3, 2]).kr_partition(2),
        derived_odometer(row_shear_cocycle(), checked_depth=2).kr_partition(2),
        OdometerChain.explicit([IntegerLattice.from_rows([[4, 1], [0, 1]])]).kr_partition(1),
        OdometerChain.diagonal_power([2, 3, 1]).kr_partition(2),
        OdometerChain.diagonal_power([3, 2, 6]).kr_partition(1),
    ]
    for space in spaces:
        side, dim = space.rectangle[-1], len(space.rectangle)
        vectors = [None, (0,) * dim, (0,) * (dim - 1) + (-side,), (0,) * (dim - 1) + (side - 1,)]
        vectors += [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(5)]
        ids = array("i", [rng.randrange(len(vectors)) for _ in range(space.size)])
        n = min(len(vectors), space.size)
        ids[:n] = array("i", range(n))  # every vector at least once where the space allows
        expected = [space.translate(c, vectors[i]) if i else -1 for c, i in enumerate(ids)]
        calls = []
        monkeypatch.setattr(space, "translate", lambda c, v, t=space.translate: calls.append(c) or t(c, v))
        images = space.displacements(vectors, ids).images(range(space.size))
        assert images.tolist() == expected, space.rectangle
        assert space._runs[-1][1] == side  # the last run is one digit
        heads = sum(size for _, size in space._runs[:-1])
        assert len(calls) == (2 + heads) * (len(vectors) - 1), space.rectangle


def _walk_spaces():
    """Spaces for the walks along tower order, with the width of their last
    run of carrying digits and whether they have a head term: a line, the
    2-D diagonal, the derived shear, the dyadic cube, a 3-D space whose
    digits 1 and 2 carry into digit 0 but not into each other, a 3-D space
    whose digit 2 carries into digit 1, so that its last run is two digits
    wide (a refinement of the first stage of the sheared explicit chains of
    the refinement oracle test), and a last side of one value."""
    sheared = IntegerLattice.from_rows([[2, 1, 1], [0, 2, 0], [0, 0, 2]])
    sheared_3d = OdometerChain.explicit([sheared, IntegerLattice.from_rows([[4, 2, 2], [0, 4, 0], [0, 0, 4]])])
    merged = IntegerLattice.from_rows([[2, 1, 1], [0, 2, 1], [0, 0, 1]])
    merged_runs = OdometerChain.explicit([merged, IntegerLattice.from_rows([[4, 2, 2], [0, 4, 2], [0, 0, 2]])])
    return {
        "line": (OdometerChain.diagonal_power([6]).kr_partition(2), 1, False),
        "diagonal-2d": (OdometerChain.diagonal_power([3, 2]).kr_partition(2), 4, False),
        "diagonal-2d-two-values": (OdometerChain.diagonal_power([3, 2]).kr_partition(1), 2, False),
        "derived-shear": (derived_odometer(row_shear_cocycle(), checked_depth=2).kr_partition(2), 4, False),
        "dyadic-cube": (OdometerChain.diagonal_power([2, 2, 2]).kr_partition(2), 4, True),
        "sheared-3d": (sheared_3d.kr_partition(2), 4, True),
        "sheared-explicit": (merged_runs.kr_partition(2), 8, False),
        "last-side-one": (OdometerChain.diagonal_power([2, 3, 1]).kr_partition(2), 1, True),
    }


@pytest.mark.parametrize("name", sorted(_walk_spaces()))
def test_walks_read_the_translates_off_the_displacement_table(name):
    # both readers of the displacement table against one translation by
    # reduction per atom: the images of the whole space and of runs of
    # codes, with and without an atom with no step (id 0), and the column
    # from every code, before and after vectors are appended to the table
    # it was made from
    space, width, head = _walk_spaces()[name]
    dim, n, side = len(space.rectangle), space.size, space.rectangle[-1]
    rng = random.Random(f"walks-{name}")
    vectors = [None, (0,) * dim, (0,) * (dim - 1) + (-side,), (0,) * (dim - 1) + (side - 1,)]
    vectors += [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(4)]
    ids = array("i", [rng.randrange(1, len(vectors)) for _ in range(n)])
    moves = space.displacements(vectors, ids)
    assert (moves.width, moves.heads is not None) == (width, head)
    if not space.system.lattice.is_diagonal():
        assert any(space.system.lattice.rows[0][1:])

    def image(c):
        return translate_by_reduction(space, c, vectors[ids[c]]) if ids[c] else -1

    for appended in (False, True):
        if appended:  # rows for these come at the next read
            vectors += [tuple(rng.randint(-12, 12) for _ in range(dim)) for _ in range(3)]
            for c in rng.sample(range(n), n // 2):
                ids[c] = rng.randrange(len(vectors) - 3, len(vectors))
        assert moves.images(range(n)).tolist() == [image(c) for c in range(n)], appended
        codes = array("i", [rng.randrange(n) for _ in range(3 * n)])
        assert moves.images(codes).tolist() == [image(c) for c in codes], appended
        for c in range(n):
            assert moves.column(c, 9).tolist() == column_by_translation(space, vectors, ids, c, 9), (appended, c)
        saved = ids[codes[5]]
        ids[codes[5]] = 0  # no step: image -1, and the column ends there
        assert moves.images(codes).tolist() == [image(c) for c in codes], appended
        assert moves.column(codes[5], 9).tolist() == [codes[5]]
        ids[codes[5]] = saved


@pytest.mark.parametrize("name", sorted(_walk_spaces()))
def test_a_displacement_table_makes_each_row_once(name, monkeypatch):
    # reads interleaved with appended vectors: after each read the table
    # holds one row of W entries (and one head term per setting of the
    # other runs) per vector, the rows of earlier reads are the same
    # objects, and each new vector cost its translate calls once: two for
    # a last run of one digit, else one per value, and one per value of
    # each other run
    space, width, head = _walk_spaces()[name]
    dim, n = len(space.rectangle), space.size
    per_vector = (2 if width == space.rectangle[-1] else width) + sum(size for _, size in space._runs[:-1])
    calls = []
    monkeypatch.setattr(space, "translate", lambda c, v, t=space.translate: calls.append(c) or t(c, v))
    rng = random.Random(f"rows-{name}")
    vectors, ids = [None], array("i", [0]) * n
    moves = space.displacements(vectors, ids)
    settings = prod(size for _, size in space._runs[:-1])
    made = []
    for read in range(6):
        vectors += [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(read % 3)]
        if read % 2:
            moves.images(range(n))
        else:
            moves.column(rng.randrange(n), 5)
        assert len(moves.rows) == len(vectors) and all(len(row) == width for row in moves.rows)
        if head:
            assert len(moves.heads) == len(vectors) and all(len(h) == settings for h in moves.heads)
        assert all(row is old for row, old in zip(moves.rows, made))
        assert len(calls) == per_vector * (len(vectors) - 1)
        made = list(moves.rows)


def test_coarsen_needs_a_coarser_space_of_the_same_chain():
    ch = chain32()
    coarse, fine = ch.kr_partition(1), ch.kr_partition(2)
    lifted = fine.lift(array("i", range(coarse.size)), coarse)
    assert [lifted[c] for c in coarse.fibers(4, fine)] == [4] * 6
    message = "lift needs a coarser atom space of the same chain"
    with pytest.raises(ChainError, match=message):
        coarse.lift(array("i", range(fine.size)), fine)
    with pytest.raises(ChainError, match=message):
        fine.lift(array("i", range(6)), chain32().kr_partition(1))


@pytest.mark.parametrize("sheared", [False, True])
def test_a_chain_is_freed_without_the_cyclic_collector(sheared):
    # atom spaces refer to no chain, so dropping the last reference to a
    # chain frees it and its spaces by reference counting alone
    gc.disable()
    try:
        ch = derived_odometer(row_shear_cocycle(), checked_depth=2) if sheared else chain32()
        coarse, fine = ch.kr_partition(1), ch.kr_partition(2)
        assert coarse.fibers(1, fine) and fine.lift(array("i", range(coarse.size)), coarse)[5] >= 0
        chain_ref, space_ref = weakref.ref(ch), weakref.ref(fine)
        del ch, coarse, fine
        assert chain_ref() is None and space_ref() is None
    finally:
        gc.enable()


# the diagonal chains, and the alternating chain whose sheared stages have
# diagonal neighbours on both sides
@pytest.mark.parametrize(
    "name", [n for n in sorted(KERNEL_CHAINS) if n.startswith(("diag", "alternating"))]
)
def test_diagonal_fibers_match_full_scan(name):
    chain = KERNEL_CHAINS[name]()
    rng = random.Random(f"diagonal-fibers-{name}")
    for j in range(1, 3):
        coarse = chain.kr_partition(j)
        for finer_depth in range(j, 3):
            fine = chain.kr_partition(finer_depth)
            for c in [0, coarse.size - 1] + rng.sample(range(coarse.size), min(4, coarse.size)):
                assert coarse.fibers(c, fine) == fibers_by_scan(coarse, c, fine), (j, finer_depth, c)


def test_translate_rejects_a_vector_of_the_wrong_length():
    space = chain32().kr_partition(2)
    assert space.translate(5, (1, 0)) == 9  # (1, 1) + (1, 0) in the 9 x 4 rectangle
    for bad in ((1,), (1, 0, 7)):
        with pytest.raises(DimensionMismatch):
            space.translate(5, bad)
    sheared = derived_odometer(row_shear_cocycle(), checked_depth=2).kr_partition(2)
    assert not sheared.system.lattice.is_diagonal()
    for bad in ((1,), (1, 0, 7)):
        with pytest.raises(DimensionMismatch):
            sheared.translate(5, bad)
        # the table translates every vector of the map's table at its first read
        with pytest.raises(DimensionMismatch):
            sheared.displacements([None, (1, 0), bad], array("i", [0]) * sheared.size).images(range(sheared.size))
