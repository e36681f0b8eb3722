import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import product

import pytest

from odolab.lattice import IntegerLattice
from odolab.odometer import AtomSpace, Displacements, OdometerChain
from odolab.speedup import (
    AntipodalValues,
    Cone,
    HypothesisFailed,
    IncompatibleCocycle,
    NonBijectiveGenerator,
    NotMinimalAtDepth,
    PiecewiseCocycle,
    SpeedupError,
    _angle_order,
    cone_check,
    cone_hull,
    constant_cocycle,
    derived_chain,
    derived_odometer,
    derived_stage,
    evaluate,
    minimality_to_depth,
    orbit_of_zero,
    product_form_check,
    sandwich_diagonal_check,
    validate,
    walk,
)

from odolab.sampling import sample_cocycles

from _oracles import (
    fraction_cone_member,
    minimality_by_reduction,
    permutation_by_reduction,
    stabilizer_by_schreier,
    stabilizer_by_staircase,
)


def chain32():
    return OdometerChain.diagonal_power([3, 2])


def chain22():
    return OdometerChain.diagonal_power([2, 2])


def alternating_chain():
    """Sheared and diagonal stages in turn: [3 1; 0 2] > diag(6, 6) >
    [18 6; 0 12] > diag(36, 36), so a carrying stage sits next to a
    carry-free one in both directions."""
    return OdometerChain.explicit(
        [
            IntegerLattice.from_rows([[3, 1], [0, 2]]),
            IntegerLattice.diagonal([6, 6]),
            IntegerLattice.from_rows([[18, 6], [0, 12]]),
            IntegerLattice.diagonal([36, 36]),
        ]
    )


def row_shear_cocycle(chain=None):
    """Base generator moves one step right; the vertical generator moves up,
    drifting right by one on the odd row.  Resolution depth 1."""
    chain = chain or chain32()
    reps = chain.system(1).reps
    p1 = {rep: (1, 0) for rep in reps}
    p2 = {rep: ((0, 1) if rep[1] % 2 == 0 else (1, 1)) for rep in reps}
    return PiecewiseCocycle(chain, 2, 1, (p1, p2))


def staircase_cocycle(step=(1, 0), chain=None):
    """Constant cocycle: generator one moves by `step`, generator two by
    `step` plus one unit up."""
    chain = chain or chain22()
    return constant_cocycle(chain, 1, [tuple(step), (step[0], step[1] + 1)])


QUADRANT = Cone.quadrant(2)


# ---------------------------------------------------------------- validate

def test_validate_row_shear_passes():
    report = validate(row_shear_cocycle())
    assert report.ok


def test_validate_constant_passes():
    c = constant_cocycle(chain32(), 1, [(2, 0), (5, 3)])
    assert validate(c).ok


def test_validate_rejects_non_bijective():
    ch = OdometerChain.diagonal_power([2])
    c = PiecewiseCocycle(ch, 1, 1, ({(0,): (2,), (1,): (1,)},))
    with pytest.raises(NonBijectiveGenerator):
        validate(c)


def test_table_values_of_the_wrong_length_are_rejected():
    ch = chain32()
    table = {rep: (1,) for rep in ch.system(1).reps}
    with pytest.raises(SpeedupError, match="vectors of length 2"):
        PiecewiseCocycle(ch, 1, 1, (table,))


def test_validate_rejects_incompatible():
    # each generator permutes the quotient, but the second table changes
    # along the first generator's moves, which breaks the relation
    ch = chain32()
    reps = ch.system(1).reps
    p1 = {rep: (1, 0) for rep in reps}
    p2 = {rep: ((3, 1) if rep[0] == 1 else (0, 1)) for rep in reps}
    c = PiecewiseCocycle(ch, 2, 1, (p1, p2))
    report = validate(c, raise_on_error=False)
    assert not report.ok
    with pytest.raises(IncompatibleCocycle):
        validate(c)


# ---------------------------------------------------------------- cones

def test_cone_membership_quadrant():
    assert QUADRANT.contains((1, 0))
    assert QUADRANT.contains((0, 3))
    assert not QUADRANT.contains((0, 0))
    assert not QUADRANT.contains((-1, 2))


def test_cone_sector_strict_flags():
    c = Cone.sector((1, 0), (0, 1), include_u=True, include_v=False)
    assert c.contains((1, 0))
    assert not c.contains((0, 1))
    assert c.contains((5, 4))


@pytest.mark.parametrize("u", [(3, 1), (1, 0), (-2, 5)])
def test_degenerate_sector_is_its_ray(u):
    cone = Cone.sector(u, u)
    assert cone.contains(u) and cone.contains((2 * u[0], 2 * u[1]))
    assert not cone.contains((0, 0)) and not cone.contains((-u[0], -u[1]))
    # brute force over a box: the members are the positive multiples of u
    for x in product(range(-12, 13), repeat=2):
        assert cone.contains(x) == any(x == (t * u[0], t * u[1]) for t in range(1, 13)), x
    with pytest.raises(SpeedupError, match="must include its boundary ray"):
        Cone.sector(u, u, include_v=False)


def test_quadrant_refuses_a_strict_axis_out_of_range():
    with pytest.raises(SpeedupError, match="strict axis 2 is not an axis of dimension 2"):
        Cone.quadrant(2, strict_axes=(0, 2))
    with pytest.raises(SpeedupError, match="strict axis -1"):
        Cone.quadrant(2, strict_axes=(-1,))


def test_cone_closed_under_addition_sampled():
    rng = random.Random(5)
    cones = [QUADRANT, Cone.sector((1, 0), (1, 1)), Cone.sector((2, 1), (-1, 3))]
    for cone in cones:
        members = []
        while len(members) < 12:
            v = (rng.randint(-6, 6), rng.randint(-6, 6))
            if cone.contains(v):
                members.append(v)
        for a in members:
            for b in members:
                assert cone.contains((a[0] + b[0], a[1] + b[1]))


def test_from_facets_stores_primitive_integer_normals():
    assert Cone.from_facets([((Fraction(1, 2), 1), False)]).facets == (((1, 2), False),)
    cone = Cone.from_facets([((Fraction(2, 3), Fraction(-4, 9)), True), ((0, 6), False)])
    assert cone.facets == (((3, -2), True), ((0, 1), False))
    assert all(type(e) is int for normal, _ in cone.facets for e in normal)


def test_cone_contains_matches_fraction_dot_products():
    rng = random.Random("rational-normals")
    for _ in range(40):
        dim = rng.choice((2, 3))
        normals = [
            (tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(dim)), rng.random() < 0.5)
            for _ in range(rng.randint(1, dim + 1))
        ]
        cone = Cone.from_facets(normals)
        for x in product(range(-4, 5), repeat=dim):
            assert cone.contains(x) == fraction_cone_member(normals, x), (normals, x)


def test_zero_normal_keeps_membership():
    inclusive = [((0, 0), False), ((1, 0), False)]
    strict = [((Fraction(0), Fraction(0, 5)), True), ((1, 0), False)]
    assert Cone.from_facets(inclusive).facets[0] == ((0, 0), False)
    assert Cone.from_facets(strict).facets[0] == ((0, 0), True)
    for x in product(range(-3, 4), repeat=2):
        assert Cone.from_facets(inclusive).contains(x) == fraction_cone_member(inclusive, x)
        assert not Cone.from_facets(strict).contains(x)


def test_cone_check_examples():
    ok, _ = cone_check(row_shear_cocycle(), QUADRANT)
    assert ok
    strict = Cone.quadrant(2, strict_axes=(0, 1))
    ok, witnesses = cone_check(row_shear_cocycle(), strict)
    assert not ok
    assert witnesses[0][2] == (1, 0)
    axis_inclusive = Cone.quadrant(2, strict_axes=(0,))  # x-axis kept, y-axis strict
    ok, _ = cone_check(staircase_cocycle(), axis_inclusive)
    assert ok


# ---------------------------------------------------------------- evaluate

def test_evaluate_staircase_closed_form():
    c = staircase_cocycle()
    rng = random.Random(1)
    for _ in range(20):
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        rep = (rng.randint(0, 1), rng.randint(0, 1))
        assert evaluate(c, rep, v) == (v[0] + v[1], v[1])


def test_evaluate_zero():
    assert evaluate(row_shear_cocycle(), (0, 0), (0, 0)) == (0, 0)


def test_evaluate_row_shear_step_by_step():
    c = row_shear_cocycle()
    assert evaluate(c, (0, 0), (2, 2)) == (3, 2)
    # the accumulated displacement lands back in the base coset
    end, disp = walk(c, (0, 0), (2, 2))
    assert end == (0, 0) and disp == (3, 2)


def test_cocycle_identity_random():
    rng = random.Random(9)
    c = row_shear_cocycle()
    for _ in range(60):
        rep = (rng.randint(0, 2), rng.randint(0, 1))
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        w = (rng.randint(-4, 4), rng.randint(-4, 4))
        mid, p_v = walk(c, rep, v)
        _, p_w = walk(c, mid, w)
        total = evaluate(c, rep, (v[0] + w[0], v[1] + w[1]))
        assert tuple(a + b for a, b in zip(p_v, p_w)) == total


def test_permutation_property_at_depths():
    c = row_shear_cocycle()
    for j in (1, 2, 3):
        for i in (0, 1):
            perm = c.permutation(i, j)
            assert sorted(perm) == list(range(c.chain.index(j)))


def test_permutations_match_the_reduction_loop():
    # sampled cocycles on the diagonal mixed chain, constant cocycles of
    # resolution 1 and 3 on the non-diagonal row-shear derived chain (every
    # stage sheared), and one on the alternating chain whose values differ
    # across its depth-1 atoms by vectors of stage 1 (so it is bijective at
    # every depth): above the resolution a finer atom must read the value of
    # the sheared atom it lies in; and a constant cocycle on the dyadic cube,
    # whose maps read a head term (its digits 1 and 2 carry into nothing, so
    # they are two runs).  Each runs at its resolution and two depths above it
    derived = derived_odometer(row_shear_cocycle(), checked_depth=2)
    cocycles = sample_cocycles(chain32(), 12, random.Random(7))
    cocycles.append(constant_cocycle(derived, 1, [(1, 0), (2, 1)]))
    cocycles.append(constant_cocycle(derived, 3, [(1, 0), (2, 1)]))
    alternating = alternating_chain()
    shifts = [(0, 0), (3, 0), (1, 2), (-1, -2), (4, 2), (-3, 0)]
    table = {rep: (1 + a, b) for rep, (a, b) in zip(alternating.system(1).reps, shifts)}
    cocycles.append(PiecewiseCocycle(alternating, 1, 1, (table,)))
    cube = OdometerChain.diagonal_power([2, 2, 2])
    cocycles.append(constant_cocycle(cube, 1, [(1, 0, 0), (0, -1, 3), (3, 1, -1)]))
    assert len(cube.kr_partition(1)._runs) == 2
    for c in cocycles:
        for depth in range(c.depth, c.depth + 3):
            space = c.chain.kr_partition(depth)
            for i in range(c.d2):
                expected = permutation_by_reduction(c, i, depth)
                perm = c.permutation(i, depth)
                assert {space.decode(a): space.decode(b) for a, b in enumerate(perm)} == expected
                inverse = c.inverse_permutation(i, depth)
                assert {space.decode(a): space.decode(b) for b, a in enumerate(inverse)} == expected


def test_permutations_run_on_tables_not_on_atoms(monkeypatch):
    # every translate call of the staircase cocycle's permutations at depths
    # 1-8 fills a displacement table: at most one per vector and value of
    # the last digit (a 2-D stage's one run of carrying digits), far fewer
    # than the 65,536 atoms of the last depth
    calls, entries = [0], [0]
    translate, fill = AtomSpace.translate, Displacements.fill

    def counted_translate(space, code, vector):
        calls[0] += 1
        return translate(space, code, vector)

    def counted_fill(table):
        entries[0] += (len(table.vectors) - len(table.rows)) * table.space.rectangle[-1]
        return fill(table)

    monkeypatch.setattr(AtomSpace, "translate", counted_translate)
    monkeypatch.setattr(Displacements, "fill", counted_fill)
    c = staircase_cocycle()
    perms = [c.permutation(i, depth) for depth in range(1, 9) for i in range(c.d2)]
    atoms = c.chain.index(8)
    assert len(perms[-1]) == atoms
    assert atoms == 65536
    assert 0 < calls[0] <= entries[0] < atoms // 32, (calls[0], entries[0], atoms)


# ---------------------------------------------------------------- minimality

def test_minimality_staircase():
    flags = minimality_to_depth(staircase_cocycle(), 6)
    assert all(flags.values())


def test_minimality_row_shear():
    flags = minimality_to_depth(row_shear_cocycle(), 4)
    assert all(flags.values())


def test_minimality_fails_for_triple_step():
    ch = OdometerChain.diagonal_power([3])
    c = constant_cocycle(ch, 1, [(3,)])
    flags = minimality_to_depth(c, 2)
    assert flags[1] is False


@pytest.mark.parametrize("steps, minimal", [([(1, 0), (0, 1)], True), ([(3, 0), (0, 1)], False)])
def test_minimality_below_the_resolution_matches_the_reduction(steps, minimal):
    # resolution 2: depth 1 is read off the classes of the depth-2 orbit
    c = constant_cocycle(chain32(), 2, steps)
    expected = minimality_by_reduction(c, 4)
    assert minimality_to_depth(c, 4) == expected == {j: minimal for j in range(1, 5)}


def test_minimality_double_step_is_valid_but_stuck():
    # the doubled step induces the identity on the depth-1 quotient, so it
    # validates fine and is simply not minimal
    ch = OdometerChain.diagonal_power([2])
    c = constant_cocycle(ch, 1, [(2,)])
    assert validate(c).ok
    assert minimality_to_depth(c, 1)[1] is False


# ---------------------------------------------------------------- derived chain

def test_derived_stage_row_shear_matches_closed_form():
    c = row_shear_cocycle()
    for j in range(1, 5):
        expected = IntegerLattice.from_rows([[3**j, 3**j - 2 ** (j - 1)], [0, 2**j]])
        assert derived_stage(c, j) == expected


def test_derived_chain_report():
    rep = derived_chain(row_shear_cocycle(), 4)
    assert rep.orbit_sizes == (6, 36, 216, 1296)
    for j in range(1, 4):
        assert rep.stage(j + 1).is_sublattice(rep.stage(j))


def test_derived_chain_below_the_resolution_depth_is_an_error():
    for c, depth in ((row_shear_cocycle(), 0), (constant_cocycle(chain32(), 2, [(1, 0), (0, 1)]), 1)):
        with pytest.raises(SpeedupError, match="derive at least to the cocycle resolution depth"):
            derived_chain(c, depth)


def test_derived_stage_staircase():
    c = staircase_cocycle()
    assert derived_stage(c, 1) == IntegerLattice.diagonal([2, 2])
    assert derived_stage(c, 2) == IntegerLattice.diagonal([4, 4])


def test_derived_stage_matches_enumeration_oracle():
    # independent oracle: brute-force the stabilizer of the zero atom by
    # enumerating displacement vectors in a box and checking the walk
    c = row_shear_cocycle()
    for depth in (1, 2):
        lat = derived_stage(c, depth)
        system = c.chain.system(depth)
        zero = system.reduce((0, 0))
        box = 2 * c.chain.index(depth)
        members = set()
        for h1 in range(-box, box + 1):
            for h2 in range(-6, 7):
                end, _ = walk(c, zero, (h1, h2), depth=depth)
                if end == zero:
                    members.add((h1, h2))
        assert all(lat.contains(v) for v in members)
        assert all((v in members) for v in lat.columns())


def test_derived_stage_not_minimal():
    ch = OdometerChain.diagonal_power([3])
    c = constant_cocycle(ch, 1, [(3,)])
    with pytest.raises(NotMinimalAtDepth):
        derived_stage(c, 1)


def _stabilizer_or_message(find, cocycle, depth):
    try:
        return find(cocycle, depth)
    except NotMinimalAtDepth as err:
        return str(err)


def test_derived_stage_matches_the_schreier_oracle():
    # sampled cocycles of the mixed and dyadic chains at depths 1-4 and, past
    # J + 3, at depths 5-6, and of the 3-D mixed chain at depths 1-3 (two of
    # them at depth 4, 1,679,616 atoms), constant cocycles of resolution 1
    # and 3 on the sheared derived row-shear chain, and constant cocycles of
    # rank 1 and 2 on a 1-D chain; the closed form must equal the lattice
    # or the not-minimal message of both the Schreier oracle and the
    # staircase walked at the depth itself
    cases = []
    for chain, deep in ((chain32(), 6), (chain22(), 12)):
        samples = sample_cocycles(chain, 24, random.Random(5))
        cases += [(c, d) for c in samples for d in range(1, 5)]
        cases += [(c, d) for c in samples[:deep] for d in (5, 6)]
    mixed3 = sample_cocycles(OdometerChain.diagonal_power([3, 2, 6]), 6, random.Random(11))
    cases += [(c, d) for c in mixed3 for d in range(1, 4)] + [(c, 4) for c in mixed3[:2]]
    derived = derived_odometer(row_shear_cocycle(), checked_depth=2)
    for resolution in (1, 3):
        c = constant_cocycle(derived, resolution, [(1, 0), (2, 1)])
        cases += [(c, d) for d in range(resolution, resolution + 2)]
    line = OdometerChain.diagonal_power([6])
    for steps in ([(1,)], [(5,)], [(2,)], [(2,), (3,)], [(4,), (3,)], [(3,), (3,)]):
        cases += [(constant_cocycle(line, 1, steps), d) for d in range(1, 4)]
    found = [_stabilizer_or_message(derived_stage, c, d) for c, d in cases]
    assert found == [_stabilizer_or_message(stabilizer_by_schreier, c, d) for c, d in cases]
    assert found == [_stabilizer_or_message(stabilizer_by_staircase, c, d) for c, d in cases]
    lattices = [lat for lat in found if not isinstance(lat, str)]
    assert 0 < len(lattices) < len(found)
    # a staircase that returns off the zero code gives a sheared stabilizer
    assert any(not lat.is_diagonal() for lat in lattices)
    deep = [lat for lat, (_, d) in zip(found, cases) if d >= 5]
    assert any(isinstance(lat, str) for lat in deep) and any(not isinstance(lat, str) for lat in deep)


def test_minimality_matches_the_reduction_past_the_resolution():
    # sampled cocycles of the dyadic chain, some minimal at depth 1 and not
    # at depth 4: minimality must be read at every depth, not at J alone
    found, expected = [], []
    for c in sample_cocycles(chain22(), 12, random.Random(5)):
        found.append(minimality_to_depth(c, 4))
        expected.append(minimality_by_reduction(c, 4))
    assert found == expected
    assert any(flags[1] and not flags[4] for flags in found)


def test_deriving_walks_permutations_and_orbits_at_the_resolution_only(monkeypatch):
    # the derived chain, the minimality flags and the derived odometer of the
    # staircase cocycle to depth 8 touch no quotient deeper than J = 1
    from odolab import speedup

    depths = []
    permutation, orbit = PiecewiseCocycle.permutation, speedup.orbit_of_zero

    def counted_permutation(cocycle, i, depth):
        depths.append(("permutation", depth))
        return permutation(cocycle, i, depth)

    def counted_orbit(cocycle, depth):
        depths.append(("orbit_of_zero", depth))
        return orbit(cocycle, depth)

    monkeypatch.setattr(PiecewiseCocycle, "permutation", counted_permutation)
    monkeypatch.setattr(speedup, "orbit_of_zero", counted_orbit)
    c = staircase_cocycle()
    assert derived_chain(c, 8).orbit_sizes == tuple(4**j for j in range(1, 9))
    assert all(minimality_to_depth(c, 8).values())
    assert derived_odometer(c, checked_depth=8).stage(8) == IntegerLattice.diagonal([2**8, 2**8])
    assert {name for name, _ in depths} == {"permutation", "orbit_of_zero"}
    assert {depth for _, depth in depths} == {c.depth}
    # the depth-J staircase is walked once per cocycle
    assert depths.count(("orbit_of_zero", 1)) == 1


def test_phi_reads_forward_steps_only(monkeypatch):
    # phi on the basis of D_J sums table values forward up the depth-J
    # permutations: deriving the row-shear cocycle (whose second basis
    # column has a negative entry) takes no backward step and reduces no
    # coset representative
    from odolab.lattice import CosetSystem

    calls = []
    inverse, reduce = PiecewiseCocycle.inverse_permutation, CosetSystem.reduce

    def counted_inverse(cocycle, i, depth):
        calls.append("inverse_permutation")
        return inverse(cocycle, i, depth)

    def counted_reduce(system, rep):
        calls.append("reduce")
        return reduce(system, rep)

    monkeypatch.setattr(PiecewiseCocycle, "inverse_permutation", counted_inverse)
    monkeypatch.setattr(CosetSystem, "reduce", counted_reduce)
    c = row_shear_cocycle()
    validate(c)
    del calls[:]
    report = derived_chain(c, 8)
    assert report.stage(8) == IntegerLattice.from_rows([[6561, 6433], [0, 256]])
    assert calls == []


def test_derived_odometer_value_group():
    chain = derived_odometer(row_shear_cocycle(), checked_depth=2)
    vg = chain.clopen_value_group()
    assert vg.exact and vg.infinite == frozenset({2, 3})
    assert chain.stage(1) == IntegerLattice.from_rows([[3, 2], [0, 2]])


def test_derived_odometer_kr_partition():
    chain = derived_odometer(row_shear_cocycle(), checked_depth=2)
    part = chain.kr_partition(1)
    assert len(part) == 6
    assert part.rectangle == (3, 2)


def test_derived_odometer_not_visibly_product_type():
    chain = derived_odometer(row_shear_cocycle(), checked_depth=2)
    assert not chain.is_product_type_stagewise(2)


# ---------------------------------------------------------------- cone hull

def test_cone_hull_row_shear():
    hull = cone_hull(row_shear_cocycle())
    assert hull.sector_data[:2] == ((1, 0), (0, 1))
    ok, _ = cone_check(row_shear_cocycle(), hull)
    assert ok


def test_cone_hull_single_direction():
    c = constant_cocycle(chain32(), 1, [(3, 1), (6, 2)])
    hull = cone_hull(c)
    assert hull.sector_data == ((3, 1), (3, 1), True, True)
    assert hull.contains((3, 1)) and hull.contains((9, 3))
    assert not hull.contains((1, 0)) and not hull.contains((-3, -1))


def test_angle_order_sorts_a_full_turn_counterclockwise():
    # from the positive x-axis round: the upper half-turn [0, pi), then the
    # lower one, each ordered by the sign of the cross product, which alone
    # is no order on a full turn
    ordered = [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 2), (-1, 0), (-3, -1), (0, -1), (1, -1)]
    rng = random.Random(20210223)
    for _ in range(10):
        shuffled = rng.sample(ordered, len(ordered))
        assert sorted(shuffled, key=cmp_to_key(_angle_order)) == ordered


def test_cone_hull_antipodal():
    ch = chain32()
    reps = ch.system(1).reps
    p1 = {rep: (1, 0) for rep in reps}
    p2 = {rep: (-1, 0) for rep in reps}
    c = PiecewiseCocycle(ch, 2, 1, (p1, p2))
    with pytest.raises(AntipodalValues):
        cone_hull(c)


# ---------------------------------------------------------------- product form

def test_product_form_examples():
    assert not product_form_check(row_shear_cocycle())
    assert product_form_check(constant_cocycle(chain32(), 1, [(2, 0), (0, 3)]))
    assert not product_form_check(staircase_cocycle())


# ---------------------------------------------------------------- sandwich rigidity

def test_sandwich_check_diagonal():
    assert sandwich_diagonal_check(IntegerLattice.diagonal([9, 4]), 2, 1)


def test_sandwich_check_hypothesis_failure():
    sheared = IntegerLattice.from_rows([[3, 2], [0, 2]])
    with pytest.raises(HypothesisFailed):
        sandwich_diagonal_check(sheared, 1, 1)


def test_sandwich_exhaustive_index_6_and_36():
    for target_index, m in ((6, 1), (36, 2)):
        expected = {2: IntegerLattice.diagonal([3, 2]), 2.0: None}
        hits = []
        for a in range(1, target_index + 1):
            if target_index % a:
                continue
            d = target_index // a
            for b in range(a):
                lat = IntegerLattice(2, ((a, b), (0, d)))
                try:
                    ok = sandwich_diagonal_check(lat, m, 0)
                except HypothesisFailed:
                    continue
                assert ok  # rigidity: sandwiched groups must be the diagonal one
                hits.append(lat)
        assert hits == [IntegerLattice.diagonal([3**m, 2**m])]


def test_walk_is_path_independent():
    # the staircase order is canonical, but any interleaving of the same
    # generator steps must accumulate the same displacement
    rng = random.Random(31)
    c = row_shear_cocycle()
    space = c.chain.kr_partition(1)
    for _ in range(25):
        v = (rng.randint(0, 4), rng.randint(0, 4))
        path = [0] * v[0] + [1] * v[1]
        rng.shuffle(path)
        rep = (rng.randint(0, 2), rng.randint(0, 1))
        cur, total = rep, (0, 0)
        for i in path:
            disp = c.value(i, cur)
            total = tuple(a + b for a, b in zip(total, disp))
            cur = space.decode(c.permutation(i, 1)[space.encode(cur)])
        assert total == evaluate(c, rep, v)


def test_induced_permutations_preserve_cylinder_measures():
    # generators permute the equal-measure atoms of every stage partition,
    # so every cylinder measure is preserved exactly
    c = row_shear_cocycle()
    for depth in (1, 2):
        part = c.chain.kr_partition(depth)
        for i in (0, 1):
            perm = c.permutation(i, depth)
            assert set(perm) == set(part.atoms())
            assert all(part.atom_measure == part.atom_measure for _ in perm)


# ---------------------------------------------------------------- orbit sanity

def _digits(t, sides):
    vector = []
    for side in sides:
        t, digit = divmod(t, side)
        vector.append(digit)
    return tuple(vector)


def test_orbit_reaching_vectors_consistent():
    # codes[t] is reached from 0 by the digits of t over `sides`, generator
    # 0 least significant; sampled cocycles add orbits that are not the
    # whole quotient and staircases with two or more blocks on each side
    cocycles = [row_shear_cocycle(), *sample_cocycles(chain32(), 6, random.Random(7))]
    for c in cocycles:
        codes, sides = orbit_of_zero(c, 2)
        space = c.chain.kr_partition(2)
        assert len(set(codes)) == len(codes) == sides[0] * sides[1]
        for t, code in enumerate(codes):
            end, _ = walk(c, (0, 0), _digits(t, sides), depth=2)
            assert space.encode(end) == code


def test_the_staircase_hashes_each_inner_orbit_once(monkeypatch):
    # a block is tested against O_i alone, so only O_0 and O_1 are hashed;
    # the orbit so far would give the same sides at a cost quadratic in them
    from odolab import speedup

    hashed = []

    def counted_set(codes):
        hashed.append(len(codes))
        return set(codes)

    c = row_shear_cocycle()
    validate(c)
    monkeypatch.setattr(speedup, "set", counted_set, raising=False)
    codes, sides = orbit_of_zero(c, 5)
    assert sides == (243, 32) and hashed == [1, 243]


