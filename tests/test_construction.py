from fractions import Fraction

import pytest

from odolab.castles import Tower, ValueGroupMismatch, positions, refine_pure_columns
from odolab.construction import SpeedupConstruction
from odolab.odometer import OdometerChain
from odolab.speedup import Cone, derived_odometer

from _oracles import coarsen_by_reduction, coset_members_by_l1, refine_pure_columns_by_sets
from test_digests import FROZEN, stage_digests
from test_speedup import row_shear_cocycle


def build(stages=1, cone=None, source=None, target=None):
    con = SpeedupConstruction(
        source or OdometerChain.diagonal_power([3, 2]),
        target or OdometerChain.diagonal_power([6]),
        cone or Cone.quadrant(2),
    )
    return con.run(stages)


def test_anchor_choice_and_schedule():
    con = build(0)
    assert con.u == (0, 1)
    n, cap, boundary = con._schedule(0)
    assert n == 2 and cap == Fraction(1, 6)


def test_anchor_is_the_least_cone_vector():
    # the least member lies outside the unit box, where a box scan that
    # stops at the first radius with a hit never looks
    cone = Cone.from_facets([((8, -6, 9), False), ((2, -6, -3), False), ((-4, 1, -6), True)])
    con = SpeedupConstruction(
        OdometerChain.diagonal_power([2, 3, 5]), OdometerChain.diagonal_power([30]), cone
    )
    least = coset_members_by_l1(cone.contains, lambda v: True, (0, 0, 0), 3)[0]
    assert con.u == least == (-1, -2, 0)


def test_base_stage_all_invariants():
    con = build(1)
    report = con.stage_invariants(0)
    assert report.ok, report.failures()
    rec = con.stages[0]
    assert rec.height == 36
    assert rec.f_atoms == frozenset() and rec.r_atoms == frozenset()


def test_three_stages_all_invariants():
    con = build(3)
    for k in range(3):
        report = con.stage_invariants(k)
        assert report.ok, (k, report.failures())
    # swapped-measure bound is exact at each stage
    for k in (1, 2):
        rec = con.stages[k]
        mu_f = Fraction(len(rec.f_atoms), con.source.index(rec.gamma))
        assert mu_f <= 4 * con.anchor_measure(k)
        # both anchors fall in the one tall tower: it splits into the x0
        # column, the x2 column and the w - 2 columns left
        assert rec.pretower_count == 3
        w = con.source.index(rec.gamma) // rec.height
        assert [width for width, _ in rec.swap_audit[0][-3:]] == [1, 1, w - 2]


def test_stage_invariants_detect_corruption():
    con = build(1)
    rec = con.stages[0]
    # move one base atom out of the anchor cylinder: (5b) must fail
    tower = rec.src_castle.towers[rec.tower_x0]
    base = sorted(tower.levels[0])
    outsider = max(
        frozenset().union(*(t.levels[1] for t in rec.src_castle.towers))
    )
    corrupted = [
        Tower.from_levels([[outsider] + base[1:]] + list(tower.levels)[1:])
        if i == rec.tower_x0
        else t
        for i, t in enumerate(rec.src_castle.towers)
    ]
    rec.src_castle.towers = corrupted
    report = con.stage_invariants(0)
    assert not report.ok
    assert "anchors-in-boundary-cylinders" in report.failures()


def test_stage_invariants_detect_one_displacement_outside_the_cone():
    con = build(1)
    rec = con.stages[0]
    steps = rec.src_castle.steps
    atom = min(rec.src_castle.towers[0].levels[0])
    vec = steps[atom]
    # a congruent vector outside the quadrant: the level maps stay bijective
    m = con.source.stage(rec.gamma).diag[0]
    steps.assign(atom, (vec[0] - m * (vec[0] // m + 1),) + vec[1:])
    assert not con.cone.contains(steps[atom])
    failures = con.stage_invariants(0).failures()
    assert "displacements-in-cone" in failures
    assert "level-maps-biject" not in failures


def test_stage_invariants_vacuous_before_running():
    con = SpeedupConstruction(
        OdometerChain.diagonal_power([3, 2]),
        OdometerChain.diagonal_power([6]),
        Cone.quadrant(2),
    )
    report = con.stage_invariants(0)
    assert report.ok and report.checks == ()


def test_base_stage_tower_count_matches_column_scan():
    # independent oracle: distinct (separation piece, cylinder itinerary)
    # columns of the joined slabs
    con = build(1)
    rec = con.stages[0]
    from odolab.castles import AtomSpace

    space = AtomSpace(con.source, rec.gamma)
    coarse = AtomSpace(con.source, 1)
    steps = rec.src_castle.steps
    where = positions(rec.src_castle.towers, space.size)
    itineraries = set()
    for tower in rec.src_castle.towers:
        for start in tower.levels[0]:
            atom = start
            names = [coarse.encode(coarse.system.reduce(space.decode(atom)))]
            for _ in range(rec.height - 1):
                atom = space.translate(atom, steps[atom])
                names.append(coarse.encode(coarse.system.reduce(space.decode(atom))))
            itineraries.add((tuple(names), where[start] // rec.height))
    assert len({t for t, _ in itineraries}) <= len(rec.src_castle.towers)
    per_tower = {}
    for names, alpha in itineraries:
        per_tower.setdefault(alpha, set()).add(names)
    # pure columns: one itinerary per tower
    assert all(len(s) == 1 for s in per_tower.values())


@pytest.mark.parametrize("case", ["quadrant", "sector", "derived"])
def test_refine_pure_columns_matches_the_two_pass_oracle_on_stages(case):
    sector = Cone.sector((1, 0), (1, 1))
    if case == "quadrant":
        con = build(2)
    elif case == "sector":
        con = build(2, cone=sector)
    else:
        con = build(2, cone=sector, source=derived_odometer(row_shear_cocycle(), checked_depth=2))
    for rec in con.stages:
        castle = rec.src_castle
        space = castle.space
        towers = [list(t.levels) for t in castle.towers]
        # cylinders one depth below the stage's own, and single atoms
        for depth in (min(rec.k + 2, rec.gamma), rec.gamma):
            coarse = con.source.kr_partition(depth)
            expected = refine_pure_columns_by_sets(
                space, towers, castle.steps, lambda c: coarsen_by_reduction(space, c, coarse)
            )
            refined = refine_pure_columns(castle, depth)
            assert [[t.level(v).tolist() for v in range(t.height)] for t in refined.towers] == expected


def test_value_group_mismatch_rejected():
    with pytest.raises(ValueGroupMismatch):
        SpeedupConstruction(
            OdometerChain.diagonal_power([3, 2]),
            OdometerChain.diagonal_power([2]),
            Cone.quadrant(2),
        )


def test_sector_cone_two_stages():
    con = build(2, cone=Cone.sector((1, 0), (1, 1)))
    for k in range(2):
        assert con.stage_invariants(k).ok
    # every displacement respects the narrower cone
    rec = con.stages[1]
    assert all(con.cone.contains(v) for v in rec.src_castle.steps.values())


def test_derived_sector_stage2_audit():
    con = build(
        3,
        cone=Cone.sector((1, 0), (1, 1)),
        source=derived_odometer(row_shear_cocycle(), checked_depth=2),
    )
    for k in range(3):
        assert con.stage_invariants(k).failures() == [], k
    assert stage_digests(con) == FROZEN["derived-sector"]


def test_diagonal_sector_stage2_audit():
    # the previous map is not defined on the previous top level; comparing
    # against steps left there by earlier stages failed map-stable-off-rebuild
    con = build(3, cone=Cone.sector((1, 0), (1, 1)))
    for k in range(3):
        assert con.stage_invariants(k).failures() == [], k
    assert stage_digests(con) == FROZEN["sector"]
    for k in (1, 2):
        prev, rec = con.stages[k - 1].src_castle, con.stages[k]
        below_top = {c for t in prev.towers for c in t.codes[: len(t.codes) - t.width]}
        fine = con.source.kr_partition(rec.gamma)
        assert len(rec.prev_steps) == len(below_top) * fine.size // prev.space.size
        assert all(fine.coarsen(c, prev.space) in below_top for c in rec.prev_steps)


def test_dyadic_pair_two_stages():
    con = build(
        3,
        source=OdometerChain.diagonal_power([2, 2]),
        target=OdometerChain.diagonal_power([4]),
    )
    for k in range(3):
        assert con.stage_invariants(k).ok
    assert stage_digests(con) == FROZEN["dyadic"]


def test_x0_column_is_exact_and_increasing():
    con = build(1)
    rec = con.stages[0]
    pts = rec.x0_column
    assert pts[0] == (0, 0)
    assert len(pts) == rec.height
    for a, b in zip(pts, pts[1:]):
        step = (b[0] - a[0], b[1] - a[1])
        assert con.cone.contains(step)
    assert all(p != con.x2_vector for p in pts)


def test_partial_speedup_table_is_grouped():
    con = build(1)
    table = con.partial_speedup_pieces(0)
    rec = con.stages[0]
    total = sum(count for _, _, _, count in table)
    per_level = sum(len(t.levels[0]) for t in rec.src_castle.towers)
    assert total == per_level * (rec.height - 1)
    assert all(con.cone.contains(vec) for _, _, vec, _ in table)


def test_stabilization_across_stages():
    # once an atom leaves the anchor regions and the castle boundary, it
    # re-enters the rebuild set at most once more in this finite run
    con = build(3)
    last = con.stages[-1]
    gamma = last.gamma
    from odolab.castles import AtomSpace

    space = AtomSpace(con.source, gamma)
    rebuilt_stages: dict[int, list[int]] = {}
    for k in (1, 2):
        rec = con.stages[k]
        coarse = AtomSpace(con.source, rec.gamma)
        for c in rec.r_atoms:
            for child in coarse.fibers(c, space):
                rebuilt_stages.setdefault(child, []).append(k)
    for atom, ks in rebuilt_stages.items():
        assert len(ks) <= 2
