from fractions import Fraction

import pytest

from odolab.castles import Tower, ValueGroupMismatch
from odolab.construction import SpeedupConstruction
from odolab.odometer import OdometerChain
from odolab.speedup import Cone, derived_odometer

from _oracles import coset_members_by_l1
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
        Tower([frozenset([outsider] + base[1:])] + tower.levels[1:])
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
    steps[atom] = (vec[0] - m * (vec[0] // m + 1),) + vec[1:]
    assert not con.cone.contains(steps[atom])
    failures = con.stage_invariants(0).failures()
    assert "displacements-in-cone" in failures
    assert "level-maps-biject" not in failures


def test_first_stage_precondition():
    # forcing a first stage whose atoms are not below the anchor measure
    # violates the construction's opening inequality
    con = SpeedupConstruction(
        OdometerChain.diagonal_power([3, 2]),
        OdometerChain.diagonal_power([6]),
        Cone.quadrant(2),
        first_stage=1,  # atom measure 1/6 is not < 1/6
    )
    with pytest.raises(Exception) as err:
        con.run(1)
    assert "anchor" in str(err.value)


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
    itineraries = set()
    for tower in rec.src_castle.towers:
        for start in tower.levels[0]:
            atom = start
            names = [coarse.encode(coarse.system.reduce(space.decode(atom)))]
            for _ in range(rec.height - 1):
                atom = space.translate(atom, steps[atom])
                names.append(coarse.encode(coarse.system.reduce(space.decode(atom))))
            itineraries.add((tuple(names), rec.src_castle.locate(start)[0]))
    assert len({t for t, _ in itineraries}) <= len(rec.src_castle.towers)
    per_tower = {}
    for names, alpha in itineraries:
        per_tower.setdefault(alpha, set()).add(names)
    # pure columns: one itinerary per tower
    assert all(len(s) == 1 for s in per_tower.values())


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: with the sector cone, stage 2 rebuilds the level map on atoms"
    " outside its rebuild set and fails map-stable-off-rebuild, as on the diagonal chain"
    " (perfbench/README.md, 'Known defect')",
)
def test_derived_sector_stage2_audit():
    con = build(
        3,
        cone=Cone.sector((1, 0), (1, 1)),
        source=derived_odometer(row_shear_cocycle(), checked_depth=2),
    )
    # earlier stages must pass outright: only the stage-2 assertion is expected to fail
    for k in (0, 1):
        if not con.stage_invariants(k).ok:
            pytest.fail(f"stage {k}: {con.stage_invariants(k).failures()}")
    assert con.stage_invariants(2).failures() == []


def test_dyadic_pair_two_stages():
    con = build(
        2,
        source=OdometerChain.diagonal_power([2, 2]),
        target=OdometerChain.diagonal_power([4]),
    )
    for k in range(2):
        assert con.stage_invariants(k).ok


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
