import random
import re
from array import array
from fractions import Fraction
from itertools import count
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from odolab import construction
from odolab.castles import (
    CLIMB_CHUNK,
    Castle,
    CastleError,
    DepthExhausted,
    EmptyConeCoset,
    StepMap,
    Tower,
    ValueGroupMismatch,
    _climbs_as_stored,
    refine_pure_columns,
)
from odolab.construction import SpeedupConstruction, StageRecord, _previous_map
from odolab.lattice import IntegerLattice
from odolab.odometer import AtomSpace, DerivedProvider, Displacements, OdometerChain
from odolab.speedup import Cone, derived_odometer
from odolab.valuegroup import ValueGroup

from _oracles import (
    anchor_towers,
    coarsen_by_reduction,
    column_walk_by_translation,
    coset_members_by_l1,
    cylinder_labels_by_reduction,
    images_by_translation,
    previous_map_by_coarsening,
    refine_pure_columns_by_sets,
    schedule_by_fractions,
    source_index_chain,
    stage_checks_by_levels,
    stored_in_climb_order,
    swap_by_full_scan,
    target_bases_by_deal,
    target_castle_by_translation,
    tower_from_levels,
    x0_column_points,
)
from test_castles import tower_lists
from test_digests import FROZEN, stage_digests
from test_speedup import row_shear_cocycle


MIRRORED_QUADRANT = Cone.from_facets([((-1, 0), False), ((0, -1), False)])


def build(stages=1, cone=None, source=None, target=None):
    con = SpeedupConstruction(
        source or OdometerChain.diagonal_power([3, 2]),
        target or OdometerChain.diagonal_power([6]),
        cone or Cone.quadrant(2),
    )
    return con.run(stages)


def assert_audit_matches_the_level_oracle(con, k):
    """The audit's verdicts equal those of the level-by-level walk, and its
    column walk equals the one by per-atom translation; returns the report."""
    report = con.stage_invariants(k)
    assert [(name, ok) for name, ok, _ in report.checks] == stage_checks_by_levels(con, k)
    assert_walk_matches_the_translating_oracle(con, k)
    return report


def assert_walk_matches_the_translating_oracle(con, k):
    """`_column_walk`, reading the level map off its displacement table on
    the stage's working space, gives the three results of the walk that
    translates atom by atom, or raises as it does (errors compared by their
    repr)."""
    rec = con.stages[k]
    castle, space = rec.src_castle, con.source.kr_partition(rec.gamma)
    steps = castle.steps

    def outcome(walk):
        try:
            return [repr(r) if isinstance(r, KeyError) else r for r in walk()]
        except Exception as err:  # noqa: BLE001 - a corrupted stage may make both walks raise
            return repr(err)

    def walk():
        return construction._column_walk(castle, space.displacements(steps.vectors, steps.ids), con.cone)

    assert outcome(walk) == outcome(lambda: column_walk_by_translation(castle, space, con.cone)), k


def assert_targets_are_translation_climbs(con):
    """The target bases dealt to the source towers by their widths are the
    multiples of the height below the working index, and every target
    tower, base + v by definition, equals the +1 climb of its base, at the
    stage's working depth of the source's indices."""
    for rec in con.stages:
        tspace = source_index_chain(con.source).kr_partition(rec.gamma)
        bases = target_bases_by_deal([t.width for t in rec.src_castle.towers], rec.height)
        assert sorted(c for base in bases for c in base) == list(range(0, tspace.size, rec.height))
        expected = [[[c + v for c in base] for v in range(rec.height)] for base in bases]
        assert target_castle_by_translation(tspace, bases, rec.height) == expected


def test_anchor_choice_and_schedule():
    con = build(0)
    assert con.u == (0, 1)
    assert con._schedule(0) == 2


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


def test_three_stages_all_invariants(monkeypatch):
    refine, received = construction.refine_pure_columns, []

    def recording(castle, labels):
        received.append([t.width for t in castle.towers])
        return refine(castle, labels)

    monkeypatch.setattr(construction, "refine_pure_columns", recording)
    con = build(3)
    for k in range(3):
        report = assert_audit_matches_the_level_oracle(con, k)
        assert report.ok, (k, report.failures())
    assert_targets_are_translation_climbs(con)
    # swapped-measure bound is exact at each stage
    for k in (1, 2):
        rec = con.stages[k]
        mu_f = Fraction(len(rec.f_atoms), con.source.index(rec.gamma))
        assert mu_f <= 4 * con.anchor_measure(k)
        # both anchors fall in the one tall tower: it splits into the x0
        # column, the x2 column and the w - 2 columns left, the pretowers
        # that the refinement receives
        w = con.source.index(rec.gamma) // rec.height
        assert received[k] == [1, 1, w - 2]


def test_stage_invariants_detect_corruption():
    con = build(1)
    rec = con.stages[0]
    tower_x0 = anchor_towers(con, 0)[0]
    # move one base atom out of the anchor cylinder: (5b) must fail
    tower = rec.src_castle.towers[tower_x0]
    base = sorted(tower.level(0))
    outsider = max(
        frozenset().union(*(t.level(1) for t in rec.src_castle.towers))
    )
    corrupted = [
        tower_from_levels([[outsider] + base[1:]] + list(tower.levels)[1:])
        if i == tower_x0
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
    atom = min(rec.src_castle.towers[0].level(0))
    vec = steps[atom]
    # a congruent vector outside the quadrant: the level maps stay bijective
    m = con.source.stage(rec.gamma).diag[0]
    steps.assign(atom, (vec[0] - m * (vec[0] // m + 1),) + vec[1:])
    assert not con.cone.contains(steps[atom])
    failures = con.stage_invariants(0).failures()
    assert "displacements-in-cone" in failures
    assert "level-maps-biject" not in failures


def test_cube_audit_matches_the_level_oracle():
    con = SpeedupConstruction(
        OdometerChain.diagonal_power([2, 2, 2]), OdometerChain.diagonal_power([8]), Cone.quadrant(3)
    ).run(3)
    for k in range(3):
        assert assert_audit_matches_the_level_oracle(con, k).ok, k
    assert_targets_are_translation_climbs(con)


def _set_level(tower, v, level):
    tower.codes[v * tower.width : (v + 1) * tower.width] = array("i", sorted(level))


# quadrant stage 1: towers 0, 1, 3 and 4 have width 1, tower 2 width 2
@pytest.mark.parametrize("alpha", [0, 2])
def test_audit_matches_the_oracle_on_atoms_swapped_between_levels(alpha):
    con = build(2)
    assert [t.width for t in con.stages[1].src_castle.towers] == [1, 1, 2, 1, 1]
    tower = con.stages[1].src_castle.towers[alpha]
    low, high = tower.level(5).tolist(), tower.level(6).tolist()
    low[-1], high[0] = high[0], low[-1]
    _set_level(tower, 5, low)
    _set_level(tower, 6, high)
    report = assert_audit_matches_the_level_oracle(con, 1)
    assert ("level-maps-biject", False, f"first failure: tower {alpha} level 5") in report.checks
    assert "column-sums-in-cone" not in report.failures()


@pytest.mark.parametrize("alpha", [0, 2])
def test_audit_matches_the_oracle_on_a_step_removed_below_the_top(alpha):
    con = build(2)
    castle = con.stages[1].src_castle
    atom = castle.towers[alpha].level(7)[0]
    castle.steps.ids[atom] = 0
    report = assert_audit_matches_the_level_oracle(con, 1)
    detail = f"check raised KeyError: \"an atom below a tower's top has no step: tower {alpha} level 7\""
    for name in ("level-maps-biject", "column-sums-in-cone"):
        assert (name, False, detail) in report.checks
    # tower 0 holds the x0 column, whose exact points stop at the atom
    if alpha == 0:
        assert ("anchors-in-distinct-towers", False, f"check raised KeyError: {atom}") in report.checks


@pytest.mark.parametrize("alpha", [0, 2])
def test_audit_matches_the_oracle_on_a_congruent_step_outside_the_cone(alpha):
    con = build(2)
    rec = con.stages[1]
    steps = rec.src_castle.steps
    atom = rec.src_castle.towers[alpha].level(0)[-1]
    vec = steps[atom]
    m = con.source.stage(rec.gamma).diag[0]
    steps.assign(atom, (vec[0] - m * (vec[0] // m + 1),) + vec[1:])
    report = assert_audit_matches_the_level_oracle(con, 1)
    assert "level-maps-biject" not in report.failures()
    assert ("column-sums-in-cone", False, f"first failure: tower {alpha} level 1") in report.checks


def test_audit_matches_the_oracle_on_a_wide_level_straddling_two_cylinders():
    con = build(2)
    castle = con.stages[1].src_castle
    space, coarse = castle.space, con.source.kr_partition(2)
    wide, narrow = castle.towers[2], castle.towers[0]
    v = next(
        v
        for v in range(1, wide.height)
        if coarsen_by_reduction(space, narrow.level(v)[0], coarse)
        != coarsen_by_reduction(space, wide.level(v)[0], coarse)
    )
    a, b = wide.level(v).tolist(), narrow.level(v).tolist()
    a[1], b[0] = b[0], a[1]
    _set_level(wide, v, a)
    _set_level(narrow, v, b)
    report = assert_audit_matches_the_level_oracle(con, 1)
    assert "levels-refine-cylinders" in report.failures()


def _detour(con, k, v, via):
    """Send the x0 column of stage k from its level-v point through the
    exact points `via`, then on to its own point one level after them,
    by rewriting the steps at those points' atoms."""
    space = con.source.kr_partition(con.stages[k].gamma)
    points = x0_column_points(con, k)
    path = [points[v], *via] + points[v + len(via) + 1 : v + len(via) + 2]
    for a, b in zip(path, path[1:]):
        con.stages[k].src_castle.steps.assign(space.encode_vector(a), tuple(y - x for x, y in zip(a, b)))


# quadrant stage 1 has height 1296; its x0 column climbs tower 0, and x2 = (0, -1)
# tops tower 1.  The atom of (1, -1) is on no level of that column.
@pytest.mark.parametrize(
    "v, via",
    [
        (0, [(0, -1)]),             # through x2 at level 1
        (1294, [(0, -1)]),          # ending at x2, on the top level
        (600, [(1, -1), (0, -1)]),  # through x2 two levels above the tower's own level-601 atom
    ],
)
def test_audit_matches_the_oracle_on_an_x0_column_through_x2(v, via):
    con = build(2)
    _detour(con, 1, v, via)
    report = assert_audit_matches_the_level_oracle(con, 1)
    assert ("anchors-in-distinct-towers", False, "towers 0 vs 1") in report.checks


def test_audit_matches_the_oracle_on_anchors_in_one_tower():
    # trade the top atom of x0's tower for x2, the top of tower 1
    con = build(2)
    towers = con.stages[1].src_castle.towers
    x2_atom = con.source.kr_partition(con.stages[1].gamma).encode_vector(con.x2_vector)
    top = towers[0].height - 1
    assert towers[1].level(top).tolist() == [x2_atom]
    other = towers[0].level(top).tolist()
    _set_level(towers[0], top, [x2_atom])
    _set_level(towers[1], top, other)
    report = assert_audit_matches_the_level_oracle(con, 1)
    assert ("anchors-in-distinct-towers", False, "towers 0 vs 0") in report.checks


def _hand_built(cone, vectors):
    """A construction whose only stage is one width-1 tower climbing from
    atom 0 by `vectors`; its target tower is the one over target atom 0."""
    con = SpeedupConstruction(OdometerChain.diagonal_power([3, 2]), OdometerChain.diagonal_power([6]), cone)
    space = con.source.kr_partition(1)
    steps, codes = StepMap(space.size), array("i", [0])
    for vec in vectors:
        steps.assign(codes[-1], vec)
        codes.append(space.translate(codes[-1], vec))
    castle = Castle(con.source, 1, [Tower(1, codes)], steps)
    con.stages = [
        StageRecord(
            k=0, n=1, gamma=1, height=len(codes), src_castle=castle,
            f_atoms=frozenset(), r_atoms=frozenset(),
        )
    ]
    return con


@pytest.mark.parametrize(
    "cone, vectors",
    [
        # an open half-plane: its strict facet alone keeps every sum in it
        # nonzero, and the second sum lies on it
        (Cone.from_facets([((1, 0), True)]), [(1, 0), (-1, 1)]),
        # pointed: the facet values of the second sum are all 0, so it is zero
        (Cone.quadrant(2), [(1, 0), (-1, 0)]),
        # the second sum lies on the strict facet y > 0
        (Cone.quadrant(2, strict_axes=(1,)), [(1, 1), (0, -1)]),
    ],
)
def test_audit_matches_the_oracle_on_column_sums_leaving_the_cone(cone, vectors):
    con = _hand_built(cone, vectors)
    report = assert_audit_matches_the_level_oracle(con, 0)
    assert "level-maps-biject" not in report.failures()
    assert ("column-sums-in-cone", False, "first failure: tower 0 level 2") in report.checks


@pytest.mark.parametrize(
    "cone, vectors",
    [
        # pointed: the zero step has facet values all >= 0 but total 0
        (Cone.quadrant(2), [(0, 0)]),
        # the first step lies on the strict facet y > 0; the second sum is inside
        (Cone.quadrant(2, strict_axes=(1,)), [(1, 0), (0, 1)]),
    ],
)
def test_audit_matches_the_oracle_on_a_first_step_outside_the_cone(cone, vectors):
    # a step outside the cone keeps the walk from skipping the column sums,
    # though every facet value of it is >= 0
    con = _hand_built(cone, vectors)
    report = assert_audit_matches_the_level_oracle(con, 0)
    assert "displacements-in-cone" in report.failures()
    assert ("column-sums-in-cone", False, "first failure: tower 0 level 1") in report.checks


def test_audit_matches_the_oracle_on_castles_coarser_than_their_cylinders():
    # stage 1's levels must lie in source cylinders of depth 2, and the
    # hand-built source castle has depth 1; its target levels must lie in
    # cylinders of depth n, here set one past the working depth gamma = 5.
    # The stage takes the hand-built height, so its towers hold whole levels
    # and the level checks run
    con = build(2)
    rec = con.stages[1]
    hand = _hand_built(Cone.quadrant(2), [(1, 0), (0, 1)]).stages[0]
    rec.src_castle, rec.n, rec.height = hand.src_castle, rec.gamma + 1, hand.height
    report = assert_audit_matches_the_level_oracle(con, 1)
    details = {
        "levels-refine-cylinders": "lift needs a coarser atom space of the same chain",
        "target-levels-refine-cylinders": "target stage 6 is finer than the working depth 5",
    }
    for name, detail in details.items():
        assert (name, False, f"check raised ChainError: {detail}") in report.checks


def test_finer_target_towers_are_translation_climbs():
    # index 36^j against the source's 6^j: the target runs at the source's
    # indices, so its towers are +1 climbs at the source's working depth
    con = build(2, target=OdometerChain.diagonal_power([36]))
    for k in range(2):
        assert con.stage_invariants(k).ok, k
    assert [rec.gamma for rec in con.stages] == [3, 5]
    assert_targets_are_translation_climbs(con)


@pytest.mark.parametrize("inside", [False, True])
def test_audit_matches_the_oracle_on_a_step_changed_off_or_on_the_rebuild_set(inside):
    # move the step at the least atom outside (or inside) R where both maps
    # have one by a lattice period: the atom map stays, the vector changes
    con = build(2)
    rec = con.stages[1]
    steps = rec.src_castle.steps
    prev = _previous_map(con.stages[0].src_castle, rec.gamma)
    atom = min(c for c in prev if c in steps and (c in rec.r_atoms) == inside)
    m = con.source.stage(rec.gamma).diag[0]
    steps.assign(atom, (steps[atom][0] + m,) + steps[atom][1:])
    report = assert_audit_matches_the_level_oracle(con, 1)
    assert ("map-stable-off-rebuild" in report.failures()) is not inside


def _step_out_of_its_tower(rec, prev):
    """Send the base atom of tower 0 onto level 1 of tower 1."""
    castle = rec.src_castle
    space, c, d = castle.space, castle.towers[0].level(0)[0], castle.towers[1].level(1)[0]
    castle.steps.assign(c, tuple(b - a for a, b in zip(space.decode(c), space.decode(d))))


def _step_outside_the_cone_mid_column(rec, prev):
    """Give the atom halfway up tower 0 a congruent step outside the cone;
    the column's partial sums there are far inside it and stay so."""
    steps, tower = rec.src_castle.steps, rec.src_castle.towers[0]
    atom = tower.level(tower.height // 2)[0]
    vec, m = steps[atom], rec.src_castle.chain.stage(rec.gamma).diag[0]
    steps.assign(atom, (vec[0] - m * (vec[0] // m + 1),) + vec[1:])


def _top_code_minus_one(alpha):
    """Set the last top code of tower alpha to -1 and drop the step below
    it, whose image is then -1 too: the codes match their images, but a
    climb stops."""

    def corrupt(rec, prev):
        castle = rec.src_castle
        tower = castle.towers[alpha]
        castle.steps.ids[tower.codes[-1 - tower.width]] = 0
        tower.codes[-1] = -1

    return corrupt


def _previous_step_moved_by_a_period(rec, prev):
    """Move the previous stage's step below its top, at the parent of the
    least atom off R where both maps have a step, by a lattice period of
    the previous depth: its atom map stays, and the audit must compare
    against the previous stage itself, not against a copy of its map."""
    castle, steps = prev.src_castle, rec.src_castle.steps
    fine = rec.src_castle.space
    atom = min(c for c in _previous_map(castle, rec.gamma) if c in steps and c not in rec.r_atoms)
    parent = coarsen_by_reduction(fine, atom, castle.space)
    vec, m = castle.steps[parent], castle.chain.stage(prev.gamma).diag[0]
    castle.steps.assign(parent, (vec[0] + m,) + vec[1:])


def _halfway_level_of_tower_2(rec):
    tower = rec.src_castle.towers[2]
    return tower, tower.height // 2 * tower.width


def _atoms_swapped_in_a_wide_level(rec, prev):
    """Swap the two atoms of the middle level of tower 2 (width 2): the
    images no longer match the codes in order, but still level by level."""
    tower, j = _halfway_level_of_tower_2(rec)
    tower.codes[j], tower.codes[j + 1] = tower.codes[j + 1], tower.codes[j]


def _atom_doubled_in_a_wide_level(rec, prev):
    """Replace the second atom of the middle level of tower 2 by the first."""
    tower, j = _halfway_level_of_tower_2(rec)
    tower.codes[j + 1] = tower.codes[j]


def _top_atom_dropped(rec, prev):
    """Drop the top atom of tower 3 (width 1): the tower holds a level
    fewer than the stage's height, and its new top lies outside the top
    anchor cylinder."""
    rec.src_castle.towers[3].codes.pop()


def _wide_top_code_popped(rec, prev):
    """Pop the last code of tower 2 (width 2): its top level is half
    gone, so the tower no longer holds whole levels."""
    rec.src_castle.towers[2].codes.pop()


def _code_appended_to_a_wide_tower(rec, prev):
    """Append tower 2's first code to it: one atom of a level past its
    top, so the tower no longer holds whole levels."""
    tower = rec.src_castle.towers[2]
    tower.codes.append(tower.codes[0])


def _zero_width_tower_appended(rec, prev):
    """Append a tower of width 0 and no codes: its length is 0 levels of
    any height, but it holds no level, and its height is no number."""
    rec.src_castle.towers.append(Tower(0, array("i")))


# every check that reads levels fails on a tower of no whole levels, and
# names the shape as the reason
RAGGED = [
    "castle-shape",
    "levels-refine-cylinders",
    "anchors-in-boundary-cylinders",
    "level-maps-biject",
    "displacements-in-cone",
    "anchors-in-distinct-towers",
    "pairing-intertwines",
    "swap-conserves-shape",
    "column-sums-in-cone",
]


def _unused_vector_outside_the_cone(rec, prev):
    """Put a vector outside the cone into the step table, used by no atom:
    the table alone no longer proves the displacements, so the audit reads
    the ids in use off the codes, and every one of them is in the cone."""
    steps = rec.src_castle.steps
    atom = rec.src_castle.towers[0].codes[0]
    vec = steps[atom]
    steps.assign(atom, tuple(-x for x in vec))
    steps.assign(atom, vec)


# corrupted records of quadrant stage 1 (or of stage 0 under it) and the
# checks that fail on them: one per check that the build's own records
# decide, a tower a level short, a tower of width 0, a level map whose
# image leaves its tower, a previous map changed under the stage, and one
# that defeats each shortcut of the column walk (`construction._column_walk`)
CORRUPTIONS = {
    "stage-numbers-increase": (lambda rec, prev: setattr(rec, "n", prev.n), ["stage-numbers-increase"]),
    "rebuild-set-recorded": (
        lambda rec, prev: setattr(rec, "r_atoms", frozenset()),
        ["rebuild-set-recorded", "map-stable-off-rebuild"],
    ),
    "rebuild-set-past-the-space": (
        lambda rec, prev: setattr(rec, "r_atoms", rec.r_atoms | {rec.src_castle.space.size}),
        ["rebuild-set-recorded"],
    ),
    "swap-conserves-shape": (_top_atom_dropped, RAGGED),
    "wide-top-code-popped": (_wide_top_code_popped, RAGGED),
    "code-appended-to-a-wide-tower": (_code_appended_to_a_wide_tower, RAGGED),
    "zero-width-tower": (_zero_width_tower_appended, RAGGED),
    "level-maps-biject": (
        _step_out_of_its_tower, ["level-maps-biject", "map-stable-off-rebuild", "pairing-intertwines"]
    ),
    "displacements-in-cone": (
        _step_outside_the_cone_mid_column, ["displacements-in-cone", "map-stable-off-rebuild"]
    ),
    "previous-step-moved-by-a-period": (_previous_step_moved_by_a_period, ["map-stable-off-rebuild"]),
    "top-code-minus-one": (
        _top_code_minus_one(3),
        [
            "castle-shape",
            "anchors-in-boundary-cylinders",
            "level-maps-biject",
            "displacements-in-cone",
            "pairing-intertwines",
            "column-sums-in-cone",
        ],
    ),
    "wide-top-code-minus-one": (
        _top_code_minus_one(2),
        [
            "castle-shape",
            "levels-refine-cylinders",
            "anchors-in-boundary-cylinders",
            "level-maps-biject",
            "displacements-in-cone",
            "pairing-intertwines",
            "column-sums-in-cone",
        ],
    ),
    "atoms-swapped-in-a-wide-level": (_atoms_swapped_in_a_wide_level, []),
    "unused-vector-outside-the-cone": (_unused_vector_outside_the_cone, []),
    "atom-doubled-in-a-wide-level": (
        _atom_doubled_in_a_wide_level, ["castle-shape", "level-maps-biject", "pairing-intertwines"]
    ),
    # depth-(n + 1) target cylinders hold one residue mod 6h: the bases of
    # the width-2 tower, h apart, lie in two
    "target-stage-plus-one": (lambda rec, prev: setattr(rec, "n", rec.n + 1), ["target-levels-refine-cylinders"]),
    # the towers stay h tall, so none holds whole levels of height h + 1;
    # and h + 1 neither divides the working index nor is a multiple of I(n) = h
    "height-plus-one": (
        lambda rec, prev: setattr(rec, "height", rec.height + 1),
        [
            "castle-shape",
            "levels-refine-cylinders",
            "anchors-in-boundary-cylinders",
            "target-levels-refine-cylinders",
            "target-translation-castle",
            "level-maps-biject",
            "displacements-in-cone",
            "anchors-in-distinct-towers",
            "pairing-intertwines",
            "swap-conserves-shape",
            "column-sums-in-cone",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_audit_matches_the_oracle_on_a_corrupted_record(name):
    con = build(2)
    corrupt, failures = CORRUPTIONS[name]
    corrupt(con.stages[1], con.stages[0])
    report = assert_audit_matches_the_level_oracle(con, 1)
    assert report.failures() == failures


@pytest.mark.parametrize(
    "name", ["swap-conserves-shape", "wide-top-code-popped", "code-appended-to-a-wide-tower", "zero-width-tower"]
)
def test_checks_that_read_levels_name_the_shape_on_a_ragged_tower(name):
    # no check slices a tower of no whole levels: each one that reads
    # levels fails for the shape, and none reports an exception
    con = build(2)
    CORRUPTIONS[name][0](con.stages[1], con.stages[0])
    details = {check: detail for check, ok, detail in con.stage_invariants(1).checks if not ok}
    shape = ("castle-shape", "swap-conserves-shape")
    assert all(details[check] == "castle-shape failed" for check in RAGGED if check not in shape)
    assert not any("check raised" in detail for detail in details.values())


def test_castle_shape_reports_a_code_out_of_range():
    # the audit survives a code past the atom space and names the error
    con = build(2)
    castle = con.stages[1].src_castle
    castle.towers[0].codes[0] = castle.space.size
    checks = {name: (ok, detail) for name, ok, detail in con.stage_invariants(1).checks}
    assert checks["castle-shape"] == (False, "check raised IndexError: bytearray index out of range")


def test_the_walk_of_quadrant_stage_3_matches_the_translating_oracle():
    con = build(4)
    assert con.source.index(con.stages[3].gamma) == 279936
    assert_walk_matches_the_translating_oracle(con, 3)


def test_translation_runs_on_tables_not_on_atoms(monkeypatch):
    # every translate call of the build and audit of quadrant stages 0-2 fills
    # a displacement table: at most one per vector and value of the last
    # digit (a 2-D stage's one run of carrying digits), far fewer than atoms
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
    con = build(3)
    assert all(con.stage_invariants(k).ok for k in range(3))
    atoms = sum(con.source.index(rec.gamma) for rec in con.stages)
    assert 0 < calls[0] <= entries[0] < atoms // 3, (calls[0], entries[0], atoms)


def test_the_audit_and_the_refinement_climb_only_what_no_certificate_covers(monkeypatch):
    # on quadrant stages 0-3 every final tower is stored in climb order and
    # every step is inside the cone: the column walk climbs no column, and
    # the audit reads the first anchor's column off its tower.  The build
    # hands the refinement every pretower in climb order, so it climbs no
    # column at any stage, wide pretowers included
    column, refine = Displacements.column, construction.refine_pure_columns
    climbs, refinements = [], []

    def counted(moves, c, height):
        climbs.append(c)
        return column(moves, c, height)

    def recording(castle, labels):
        del climbs[:]
        refined = refine(castle, labels)
        refinements.append((list(climbs), any(t.width > 1 for t in castle.towers)))
        return refined

    monkeypatch.setattr(Displacements, "column", counted)
    monkeypatch.setattr(construction, "refine_pure_columns", recording)
    con = build(4)
    assert len(refinements) == 4 and all(wide for _, wide in refinements)
    assert all(climbed == [] for climbed, _ in refinements)
    del climbs[:]
    assert all(con.stage_invariants(k).ok for k in range(4))
    assert climbs == []


def test_a_rebuild_set_equal_to_the_swapped_set_is_recorded():
    con = build(2)
    rec = con.stages[1]
    assert rec.f_atoms < rec.r_atoms
    rec.r_atoms = rec.f_atoms
    report = assert_audit_matches_the_level_oracle(con, 1)
    assert ("rebuild-set-recorded", True, f"|R|={len(rec.f_atoms)}") in report.checks


@pytest.mark.parametrize("case, stages", [("quadrant", 5), ("mirrored-quadrant", 4), ("cube", 4), ("sector", 4)])
def test_the_rebuild_set_is_the_swapped_set_and_the_changed_previous_steps(case, stages):
    # R - F is minimal: each of its atoms had a step in the previous map, and
    # the stage gave it a different one.  A join atom, which had none, is not
    # counted.  `map-stable-off-rebuild` checks only that R covers every change
    _, kwargs = case_inputs(case)
    con = build(stages, **kwargs)
    rebuilt = 0
    for prev, rec in zip(con.stages, con.stages[1:]):
        previous, steps = _previous_map(prev.src_castle, rec.gamma), rec.src_castle.steps
        for c in rec.r_atoms - rec.f_atoms:
            assert c in previous and previous[c] != steps.get(c), (rec.k, c)
        rebuilt += len(rec.r_atoms - rec.f_atoms)
    assert rebuilt


def case_inputs(case):
    """The stage count and the `build` arguments of a case: quadrant, dyadic
    or mirrored-quadrant stages 0-3, or derived-sector, sector or
    dyadic-cube stages 0-2."""
    if case == "quadrant":
        return 4, {}
    if case == "derived-sector":
        source = derived_odometer(row_shear_cocycle(), checked_depth=2)
        return 3, {"cone": Cone.sector((1, 0), (1, 1)), "source": source}
    if case == "sector":
        return 3, {"cone": Cone.sector((1, 0), (1, 1))}
    if case == "dyadic":
        return 4, {"source": OdometerChain.diagonal_power([2, 2]), "target": OdometerChain.diagonal_power([4])}
    if case == "mirrored-quadrant":
        return 4, {"cone": MIRRORED_QUADRANT}
    cube, target = OdometerChain.diagonal_power([2, 2, 2]), OdometerChain.diagonal_power([8])
    return 3, {"cone": Cone.quadrant(3), "source": cube, "target": target}


def build_case(case):
    stages, kwargs = case_inputs(case)
    return build(stages, **kwargs)


@pytest.mark.parametrize("case", ["quadrant", "derived-sector", "cube"])
def test_the_build_and_the_audit_compute_no_whole_space_images(case, monkeypatch):
    # the build climbs its block pieces, and the audit checks its towers,
    # off the level maps' displacement tables, translating only the codes a
    # walk reads: no read of a map's images takes more codes than one chunk
    # of the climb-order test, on spaces far larger than a chunk
    stages, kwargs = case_inputs(case)
    reads = []
    images = Displacements.images

    def counted(moves, codes):
        codes = list(codes)
        reads.append((len(codes), moves.space.size))
        return images(moves, codes)

    monkeypatch.setattr(Displacements, "images", counted)
    con = build(stages, **kwargs)
    assert all(con.stage_invariants(k).ok for k in range(stages))
    assert max(read for read, _ in reads) <= CLIMB_CHUNK < max(size for _, size in reads)


@pytest.mark.parametrize("case", ["quadrant", "derived-sector", "sector", "dyadic", "cube", "mirrored-quadrant"])
def test_every_built_tower_is_stored_in_climb_order(case):
    # a tower is its columns: below the top its level map sends codes[j]
    # onto codes[j + width], in the wide towers too; checked off the map's
    # displacement table, and up its images at every code one atom at a time
    stages = build_case(case).stages
    assert any(t.width > 1 for rec in stages for t in rec.src_castle.towers)
    for rec in stages:
        castle = rec.src_castle
        moves = castle.space.displacements(castle.steps.vectors, castle.steps.ids)
        assert all(_climbs_as_stored(moves, t) for t in castle.towers), rec.k
        images = moves.images(range(castle.space.size))
        assert all(stored_in_climb_order(images, t) for t in castle.towers), rec.k


@pytest.mark.parametrize("case", ["quadrant", "derived-sector", "sector", "dyadic", "cube", "mirrored-quadrant"])
def test_every_pretower_the_refinement_takes_is_stored_in_climb_order(case, monkeypatch):
    # the build mends the climb order its swaps and joins break, so the
    # refinement reads column i as codes[i::width]: checked up the images of
    # the level map by per-atom translation, before the refinement runs
    wide = []

    def checked(castle, labels):
        images = images_by_translation(castle)
        assert all(stored_in_climb_order(images, t) for t in castle.towers), len(wide)
        wide.append(any(t.width > 1 for t in castle.towers))
        return refine_pure_columns(castle, labels)

    monkeypatch.setattr(construction, "refine_pure_columns", checked)
    stages = build_case(case).stages
    assert len(wide) == len(stages) and any(wide[1:])


@pytest.mark.parametrize("case", ["quadrant", "derived-sector", "cube"])
def test_each_join_difference_is_searched_once(case, monkeypatch):
    # the construction keeps its least cone vectors by lattice and
    # target - source: one search per distinct pair, and every step a
    # transfer assigns is the vector a fresh search of its endpoints finds
    stages, kwargs = case_inputs(case)
    search = construction.minimal_cone_vector
    searched, transfers = [], [0]

    def counted(cone, target_rep, source_rep, lattice):
        searched.append((lattice, tuple(t - s for t, s in zip(target_rep, source_rep))))
        return search(cone, target_rep, source_rep, lattice)

    transfer = SpeedupConstruction._transfer

    def checked(con, src, dst, space, lattice, steps, changed=None):
        transfer(con, src, dst, space, lattice, steps, changed)
        for s, d in zip(src, dst):
            transfers[0] += 1
            assert steps[s] == search(con.cone, space.decode(d), space.decode(s), lattice), (s, d)

    monkeypatch.setattr(construction, "minimal_cone_vector", counted)
    monkeypatch.setattr(SpeedupConstruction, "_transfer", checked)
    build(stages, **kwargs)
    assert len(searched) == len(set(searched)) < transfers[0]


def test_each_construction_searches_its_own_joins(monkeypatch):
    # the table lives on the construction: a second one built from the same
    # inputs meets it empty and searches as often as the first
    search = construction.minimal_cone_vector
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(construction, "minimal_cone_vector", counted)
    counts = []
    for _ in range(2):
        calls[0] = 0
        build(2)
        counts.append(calls[0])
    assert counts[0] == counts[1] > 1


@pytest.mark.parametrize("case", ["quadrant", "derived-sector", "cube"])
def test_each_inductive_stage_lifts_the_previous_map_once(case, monkeypatch):
    # each inductive stage is built once and lifts the previous map once,
    # to its own working depth
    lifts = []
    previous_map = construction._previous_map

    def counted(castle, depth):
        lifts.append(depth)
        return previous_map(castle, depth)

    monkeypatch.setattr(construction, "_previous_map", counted)
    stages = build_case(case).stages
    assert lifts == [rec.gamma for rec in stages[1:]]


@pytest.mark.parametrize("case", ["quadrant", "derived-sector", "cube"])
def test_tower_codes_are_int32_arrays(case):
    # one array type for every atom array, as the images and step ids are
    for rec in build_case(case).stages:
        assert {t.codes.typecode for t in rec.src_castle.towers} == {"i"}, rec.k


@pytest.mark.parametrize("case", ["quadrant", "derived-sector", "cube"])
def test_the_build_refines_and_lifts_like_the_per_atom_oracles(case, monkeypatch):
    # record every call of the refinement
    calls = []

    def recording(castle, labels):
        depth = len(calls) + 1  # stage k refines by its depth-(k+1) cylinders
        towers = [list(t.levels) for t in castle.towers]
        refined = refine_pure_columns(castle, labels)
        moves = castle.space.displacements(castle.steps.vectors, castle.steps.ids)
        calls.append((castle, towers, depth, tower_lists(refined, moves.images(range(castle.space.size)))))
        return refined

    monkeypatch.setattr(construction, "refine_pure_columns", recording)
    con = build_case(case)
    # stages 0-2: the refined towers are those of the two translating
    # passes, each stored in climb order up the images of the level map
    assert len(calls) == len(con.stages)
    for castle, towers, depth, refined_levels in calls[:3]:
        space, coarse = castle.space, con.source.kr_partition(depth)
        expected = refine_pure_columns_by_sets(
            space, towers, castle.steps, lambda c: coarsen_by_reduction(space, c, coarse)
        )
        assert refined_levels == expected
    # every stage: the previous map is the per-atom one
    for prev, rec in zip(con.stages, con.stages[1:]):
        previous = _previous_map(prev.src_castle, rec.gamma)
        assert previous.vectors == prev.src_castle.steps.vectors
        assert previous.ids == previous_map_by_coarsening(prev.src_castle, rec.gamma), rec.k


# stages built per case: quadrant 0-4, derived sector, cube and mirrored
# quadrant 0-3, sector 0-2 and dyadic 0-3
LABEL_STAGES = {"quadrant": 5, "derived-sector": 4, "cube": 4, "mirrored-quadrant": 4, "sector": 3, "dyadic": 4}


@pytest.mark.parametrize("case", sorted(LABEL_STAGES))
def test_the_refinement_reads_the_cylinders_the_build_passes_like_the_per_atom_oracle(case, monkeypatch):
    # every stage passes the cylinders of each wide tower it refines, laid
    # out like its codes, and they are the per-atom reductions at every
    # code; a width-1 tower gets None, and no inductive stage lifts the
    # depth-(k+1) cylinders onto its working space
    _, kwargs = case_inputs(case)
    passed, lifts, building = [], [], []
    lift, build_inductive = AtomSpace.lift, SpeedupConstruction._build_inductive

    def counted(space, values, coarse):
        if building:
            lifts.append((*building[-1], space.depth, coarse.depth))
        return lift(space, values, coarse)

    def inductive(con, k, h, gamma):
        building.append((k, gamma))
        try:
            return build_inductive(con, k, h, gamma)
        finally:
            building.pop()

    def checked(castle, labels):
        depth = len(passed) + 1  # stage k refines by its depth-(k+1) cylinders
        passed.append(labels is not None)
        if labels is not None:
            space, coarse = castle.space, castle.chain.kr_partition(depth)
            assert [cylinders is None for cylinders in labels] == [t.width == 1 for t in castle.towers], depth
            for t, cylinders in zip(castle.towers, labels):
                if cylinders is not None:
                    expected = array("i", (coarsen_by_reduction(space, c, coarse) for c in t.codes))
                    assert cylinders == expected, depth
        return refine_pure_columns(castle, labels)

    monkeypatch.setattr(AtomSpace, "lift", counted)
    monkeypatch.setattr(SpeedupConstruction, "_build_inductive", inductive)
    monkeypatch.setattr(construction, "refine_pure_columns", checked)
    stages = build(LABEL_STAGES[case], **kwargs).stages
    assert all(prev.gamma >= rec.k + 1 for prev, rec in zip(stages, stages[1:]))
    assert passed == [True] * len(stages)
    assert lifts and not [lift for lift in lifts if lift[2] == lift[1] and lift[3] == lift[0] + 1]


@pytest.mark.parametrize("case", ["quadrant", "derived-sector", "cube"])
def test_the_refinement_lifts_nothing(case, monkeypatch):
    # every stage, the base stage included, hands the refinement its
    # cylinders, so no refinement lifts codes from one space to another
    lifts, refining = [], []
    lift, refine = AtomSpace.lift, construction.refine_pure_columns

    def counted(space, values, coarse):
        if refining:
            lifts.append((space.depth, coarse.depth))
        return lift(space, values, coarse)

    def tracked(castle, labels):
        refining.append(castle.depth)
        try:
            return refine(castle, labels)
        finally:
            refining.pop()

    monkeypatch.setattr(AtomSpace, "lift", counted)
    monkeypatch.setattr(construction, "refine_pure_columns", tracked)
    stages = build_case(case).stages
    assert stages and lifts == []


# stages built per case by the depth-rule tests: quadrant 0-5, derived
# sector, cube and mirrored quadrant 0-3, the mixed source onto the target
# 36^j, which runs at the source's indices like any target, 0-2, the
# sources of ratio 2: the line 2^j onto itself 0-5 and the line 2, 4, 4, 8,
# 16, ..., which repeats a stage, onto 2^j 0-5, and the dyadic square onto
# 2^j, which runs at the source's indices 4^j, 0-3
DEPTH_RULE_STAGES = {
    "quadrant": 6,
    "derived-sector": 4,
    "cube": 4,
    "mirrored-quadrant": 4,
    "target-36": 3,
    "line-2": 6,
    "source-2-4-4-8": 6,
    "dyadic-onto-2": 4,
}
RATIO_2_CASES = ["dyadic-onto-2", "line-2", "source-2-4-4-8"]


def repeating_source():
    """The line 2, 4, 4, 8, 16, ..., which repeats its second stage; its value
    group Z[1/2^inf] is given exactly, as a derived chain's is."""

    def stage(j):
        return IntegerLattice.from_rows([[2 ** (j - 1 if j > 2 else j)]])

    group = ValueGroup(frozenset({2}), (), exact=True, depth_checked=None)
    return OdometerChain(1, DerivedProvider(1, stage, "2,4,4,8", lambda: group))


def depth_rule_inputs(case):
    if case == "target-36":
        return {"target": OdometerChain.diagonal_power([36])}
    if case == "line-2":
        line = OdometerChain.diagonal_power([2])
        return {"source": line, "target": line, "cone": Cone.quadrant(1)}
    if case == "source-2-4-4-8":
        return {"source": repeating_source(), "target": OdometerChain.diagonal_power([2]), "cone": Cone.quadrant(1)}
    if case == "dyadic-onto-2":
        return {"source": OdometerChain.diagonal_power([2, 2]), "target": OdometerChain.diagonal_power([2])}
    return case_inputs(case)[1]


@pytest.mark.parametrize("case", sorted(DEPTH_RULE_STAGES))
def test_every_stage_builds_at_the_depth_pair_it_starts_at(case, monkeypatch):
    # each stage is built once, at the least working depth whose index is
    # at least 2h at stage 0 and 3h past it, h the height; that depth is at
    # least as fine as the next stage's anchor cylinders, and every
    # inductive stage passes the refinement a cylinder array for each
    # pretower wider than 1
    tried, depths, passed = [], [], []
    build_base, build_inductive = SpeedupConstruction._build_base, SpeedupConstruction._build_inductive
    stage_depths = SpeedupConstruction._depths

    def tracked(build):
        def attempt(con, k, h, gamma):
            tried.append((k, h, gamma))
            return build(con, k, h, gamma)

        return attempt

    def recorded(con, k):
        depths.append(stage_depths(con, k))
        return depths[-1]

    def checked(castle, labels):
        passed.append(labels is not None and [a is None for a in labels] == [t.width == 1 for t in castle.towers])
        return refine_pure_columns(castle, labels)

    monkeypatch.setattr(SpeedupConstruction, "_build_base", tracked(build_base))
    monkeypatch.setattr(SpeedupConstruction, "_build_inductive", tracked(build_inductive))
    monkeypatch.setattr(SpeedupConstruction, "_depths", recorded)
    monkeypatch.setattr(construction, "refine_pure_columns", checked)
    con = build(DEPTH_RULE_STAGES[case], **depth_rule_inputs(case))
    # each build runs at the depths just computed for it
    assert depths == [(rec.n, rec.height, rec.gamma) for rec in con.stages]
    assert tried == [(rec.k, rec.height, rec.gamma) for rec in con.stages]
    for rec in con.stages:
        # the least source depth whose index is at least 2h (stage 0) or 3h
        # (past it): on a source that repeats the height's index, the depth
        # past the repeat, not a second depth of that index with one base
        bases = 3 if rec.k else 2
        assert rec.gamma == next(g for g in count(1) if bases * rec.height <= con.source.index(g)), rec.k
        assert rec.height == con.source.index(rec.n), rec.k
        assert rec.gamma >= rec.k + 2, rec.k
    assert passed == [True] * len(con.stages)


@pytest.mark.parametrize("case", RATIO_2_CASES)
def test_a_ratio_2_target_has_one_tall_tower_at_every_stage(case):
    # a stage scheduled from the previous working depth on has a height
    # that the previous index divides, so block m of every tall tower
    # starts at the same previous atom, and every audit check passes.  On
    # the lines a stage scheduled just past the previous stage number
    # mimics a coarser stage than that depth
    con = build(DEPTH_RULE_STAGES[case], **depth_rule_inputs(case))
    for prev, rec in zip(con.stages, con.stages[1:]):
        assert rec.height % con.source.index(prev.gamma) == 0, rec.k
    for k in range(len(con.stages)):
        assert con.stage_invariants(k).ok, k


@pytest.mark.parametrize("case", sorted(DEPTH_RULE_STAGES))
def test_the_integer_schedule_is_the_fraction_schedule(case, monkeypatch):
    # n_0..n_5 of each source, each stage scheduled from the previous
    # stage's working depth on, the target side at the source's indices;
    # each stage is a record of the depths `_depths` gives it, so no stage
    # is built, and the atom budget, which bounds the spaces a build makes,
    # is lifted
    monkeypatch.setattr(construction, "MAX_ATOMS", 2**64)
    con = build(0, **depth_rule_inputs(case))
    for k in range(6):
        n, _, gamma = con._depths(k)
        con.stages.append(SimpleNamespace(k=k, n=n, gamma=gamma))
    for k, rec in enumerate(con.stages):
        start = con.stages[k - 1].gamma if k else None
        assert rec.n == schedule_by_fractions(con.source, con.source, k, start), (case, k)


@pytest.mark.parametrize("case", ["quadrant", "derived-sector", "cube", "mirrored-quadrant"])
def test_the_swap_moves_what_the_full_scan_moves(case, monkeypatch):
    # on every castle the build swaps, base and inductive stages alike, the
    # swap that searches only its incoming atoms gives the towers, the
    # swapped atoms and the touched (tower, level) pairs of one scan of
    # every code
    stages, kwargs = case_inputs(case)
    swap = SpeedupConstruction._swap
    moved = []

    def checked(con, towers, a0, a2, x0_atom, x2_atom):
        copies = [Tower(t.width, array("i", t.codes)) for t in towers]
        expected = swap_by_full_scan(copies, a0, a2, x0_atom, x2_atom)
        result = swap(con, towers, a0, a2, x0_atom, x2_atom)
        assert result == expected
        assert [t.codes for t in towers] == [t.codes for t in copies]
        moved.append(len(result[0]))
        return result

    monkeypatch.setattr(SpeedupConstruction, "_swap", checked)
    build(stages, **kwargs)
    assert len(moved) >= stages and any(moved)


def test_a_swapped_in_atom_found_in_no_tower_is_named():
    # atom 9 of the anchor set is to replace base atom 1, but no tower holds it
    con = build(1)
    towers = [Tower(2, array("i", range(6)))]
    with pytest.raises(CastleError, match="^atom 9 lies in no tower$"):
        con._swap(towers, frozenset({0, 9}), frozenset({4, 5}), 0, 4)


def test_locate_skips_a_code_straddling_two_codes(monkeypatch):
    # the bytes of atom c also run across the first two codes, which make
    # the first chunk of two; only the aligned hit, in the second chunk, is c
    monkeypatch.setattr(construction, "LOCATE_CHUNK", 2)
    c = 1
    needle = array("i", [c]).tobytes()
    codes = array("i")
    codes.frombytes(bytes(3) + needle + bytes(1))
    codes.append(c)
    assert c not in codes[:2]
    towers = [Tower(1, array("i", [7, 8])), Tower(1, codes)]
    assert construction._locate(towers, [c, 8]) == {c: (1, 2), 8: (0, 1)}


def test_stage_numbers_out_of_range_are_refused():
    con = build(1)
    for call in (con.stage_invariants, con.partial_speedup_pieces):
        with pytest.raises(CastleError, match="no stage -1: 1 stages are built"):
            call(-1)
    with pytest.raises(CastleError, match="no stage 1: 1 stages are built"):
        con.partial_speedup_pieces(1)
    assert con.stage_invariants(1).checks == ()


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
    for alpha, tower in enumerate(rec.src_castle.towers):
        for start in tower.level(0):
            atom = start
            names = [coarse.encode(coarse.system.reduce(space.decode(atom)))]
            for _ in range(rec.height - 1):
                atom = space.translate(atom, steps[atom])
                names.append(coarse.encode(coarse.system.reduce(space.decode(atom))))
            itineraries.add((tuple(names), alpha))
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
        images = images_by_translation(castle)
        # cylinders one depth below the stage's own, and single atoms
        for depth in (min(rec.k + 2, rec.gamma), rec.gamma):
            coarse = con.source.kr_partition(depth)
            expected = refine_pure_columns_by_sets(
                space, towers, castle.steps, lambda c: coarsen_by_reduction(space, c, coarse)
            )
            refined = refine_pure_columns(castle, cylinder_labels_by_reduction(castle, coarse))
            assert tower_lists(refined, images) == expected


@pytest.mark.parametrize(
    "normals, line",
    [
        ([((1, 0), False)], "(0, 1)"),
        ([((1, -1), False)], "(1, 1)"),
        ([((1, 0, 0), False), ((0, 1, 0), False)], "(0, 0, 1)"),
    ],
)
def test_cones_containing_a_line_are_refused(normals, line):
    dim = len(normals[0][0])
    source = OdometerChain.diagonal_power([3, 2] if dim == 2 else [2, 2, 2])
    target = OdometerChain.diagonal_power([6] if dim == 2 else [8])
    with pytest.raises(CastleError, match=re.escape(f"the cone contains the line through {line}")):
        SpeedupConstruction(source, target, Cone.from_facets(normals))


def test_an_open_half_plane_contains_no_line_and_builds():
    con = build(1, cone=Cone.from_facets([((1, 0), True)]))
    assert con.stages[0].gamma == 3
    assert con.stage_invariants(0).ok


def test_the_mirrored_quadrant_parts_its_anchors_by_trading_the_top(monkeypatch):
    # x2 = -u = (1, 0) is the least atom of stage 0's top, which would end
    # x0's column; the top's two least atoms trade places instead.  The
    # budget of 6^6 atoms is the space of stage 2's one working depth, so a
    # build that regressed to a finer working depth raises DepthExhausted
    # here rather than run on a space six times as large
    monkeypatch.setattr(construction, "MAX_ATOMS", 6**6)
    con = build(3, cone=MIRRORED_QUADRANT)
    assert con.u == (-1, 0)
    rec = con.stages[0]
    space = con.source.kr_partition(rec.gamma)
    assert min(c for t in rec.src_castle.towers for c in t.level(rec.height - 1)) == space.encode_vector((1, 0))
    for k in range(3):
        report = assert_audit_matches_the_level_oracle(con, k)
        assert report.ok, (k, report.failures())
    assert stage_digests(con) == FROZEN["mirrored"]


def test_random_plane_facet_cones_build_two_stages(monkeypatch):
    # two facets each, normals in [-3, 3]^2, each strict with probability
    # 0.4; one cone is empty and refused, every other builds stages 0-1 with
    # every check passing.  The budget of 6^5 atoms is the space of stage
    # 1's one working depth, so a build that regressed to a finer working
    # depth raises DepthExhausted here rather than run on a space six times
    # as large
    monkeypatch.setattr(construction, "MAX_ATOMS", 6**5)
    rng = random.Random(20210223)
    empty = 0
    for _ in range(20):
        facets = []
        for _ in range(2):
            normal = (0, 0)
            while normal == (0, 0):
                normal = (rng.randint(-3, 3), rng.randint(-3, 3))
            facets.append((normal, rng.random() < 0.4))
        cone = Cone.from_facets(facets)
        try:
            con = build(2, cone=cone)
        except EmptyConeCoset:
            assert coset_members_by_l1(cone.contains, lambda v: True, (0, 0), 12) == [], cone.facets
            empty += 1
            continue
        for k in range(2):
            report = con.stage_invariants(k)
            assert report.ok, (cone.facets, k, report.failures())
    assert empty == 1


_PLANE_CHAINS = OdometerChain.diagonal_power([3, 2]), OdometerChain.diagonal_power([6])
_CUBE_CHAINS = OdometerChain.diagonal_power([2, 2, 2]), OdometerChain.diagonal_power([8])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_sum_of_two_members_of_an_accepted_cone_is_a_member(data):
    # the premise of the base stage's pointwise separation: u plus cone
    # vectors never sums to 0.  A cone with a line, refused, breaks it
    dim = data.draw(st.sampled_from([2, 3]))
    normal = st.tuples(*[st.integers(-3, 3)] * dim)
    cone = Cone.from_facets(data.draw(st.lists(st.tuples(normal, st.booleans()), min_size=1, max_size=3)))
    try:
        con = SpeedupConstruction(*(_PLANE_CHAINS if dim == 2 else _CUBE_CHAINS), cone)
    except EmptyConeCoset:
        assume(False)
    except CastleError as err:
        assert "contains the line" in str(err)
        assume(False)
    # members up to a little past u, the least one; a + b = 0 needs -a in the cone
    members = coset_members_by_l1(cone.contains, lambda v: True, (0,) * dim, sum(map(abs, con.u)) + 4)
    assert not any(cone.contains(tuple(-x for x in a)) for a in members), cone.facets
    a, b = data.draw(st.sampled_from(members)), data.draw(st.sampled_from(members))
    assert cone.contains(tuple(x + y for x, y in zip(a, b))), (cone.facets, a, b)


def test_value_group_mismatch_rejected():
    with pytest.raises(ValueGroupMismatch, match=r"^source and target clopen value groups differ: 1/3 lies in only one of them$"):
        SpeedupConstruction(
            OdometerChain.diagonal_power([3, 2]),
            OdometerChain.diagonal_power([2]),
            Cone.quadrant(2),
        )


def test_a_target_known_only_to_a_checked_depth_is_refused():
    # the target runs at the source's indices, so its value group must equal
    # the source's exactly; an explicit chain's group is known only to the
    # depth it lists, even where its indices are the source's
    target = OdometerChain.explicit([IntegerLattice.from_rows([[6**j]]) for j in range(1, 4)])
    message = (
        "source and target clopen value groups Z[1/2^inf, 1/3^inf] and Z[1/2^3, 1/3^3] (to depth 3) are not "
        "known to be equal: the target runs at the source's indices, which needs an exact match"
    )
    with pytest.raises(CastleError, match=f"^{re.escape(message)}$"):
        SpeedupConstruction(OdometerChain.diagonal_power([3, 2]), target, Cone.quadrant(2))


def test_targets_with_the_sources_value_group_give_equal_records():
    # 6^j, 36^j and 6^(11j) have the source's value group, and the target
    # runs at the source's indices, so their indices do not matter
    source = OdometerChain.diagonal_power([3, 2])
    targets = OdometerChain.diagonal_power([6]), OdometerChain.diagonal_power([36]), OdometerChain.diagonal_power([6], [11])
    runs = [SpeedupConstruction(source, target, Cone.quadrant(2)).run(3).stages for target in targets]
    assert runs[0] == runs[1] == runs[2]
    assert [rec.gamma for rec in runs[0]] == [3, 5, 6]


# source and target pairs with equal value groups whose indices meet only at
# depth 0, and the stages built of each: the pair (4^j, 3^j) onto 6^j, the
# line 12^j onto 18^j, and the pair (2^j, 3^(2j)) onto 6^j, whose stage 2
# has 18^5 atoms
EQUAL_GROUP_PAIRS = {
    "4,3-onto-6": (OdometerChain.diagonal_power([4, 3]), OdometerChain.diagonal_power([6]), 3),
    "12-onto-18": (OdometerChain.diagonal_power([12]), OdometerChain.diagonal_power([18]), 3),
    "2,3-j,2j-onto-6": (OdometerChain.diagonal_power([2, 3], [1, 2]), OdometerChain.diagonal_power([6]), 2),
}


@pytest.mark.parametrize("case", sorted(EQUAL_GROUP_PAIRS))
def test_pairs_with_equal_value_groups_and_no_common_index_build(case):
    source, target, stages = EQUAL_GROUP_PAIRS[case]
    con = build(stages, source=source, target=target, cone=Cone.quadrant(source.dim))
    assert assert_audit_matches_the_level_oracle(con, 0).ok
    for k in range(1, stages):
        report = con.stage_invariants(k)
        assert report.ok, (k, report.failures())
    assert_targets_are_translation_climbs(con)


def test_the_atom_budget_on_aligning_depths_is_reported_as_such(monkeypatch):
    # onto 36^j, which runs at the source's indices 6^j, stage 1 builds at
    # depth 5, 6^5 atoms, within the budget; stage 2 needs depth 6, past it,
    # and the error names the budget, not the target
    monkeypatch.setattr(construction, "MAX_ATOMS", 6**5)
    con = build(2, target=OdometerChain.diagonal_power([36]))
    with pytest.raises(DepthExhausted, match=r"^stage 2 needs depth 6, whose 46656 atoms exceed 7776$"):
        con.run(3)
    assert len(con.stages) == 2


def test_the_atom_budget_on_scheduling_a_target_stage(monkeypatch):
    # stage 1 needs a stage with 2 atoms below 1/144: depth 4 (6^4 atoms)
    # is the least, and the schedule finds it though it is past the budget;
    # its working depth 5 is checked, and refused
    con = build(1)
    monkeypatch.setattr(construction, "MAX_ATOMS", 36)
    assert con._schedule(1) == 4
    with pytest.raises(DepthExhausted, match=r"^stage 1 needs depth 5, whose 7776 atoms exceed 36$"):
        con.run(2)
    assert len(con.stages) == 1


def test_the_atom_budget_admits_quadrant_depth_10_and_refuses_11():
    # 6^10 atoms is within the budget and 6^11 is not.  A stage 1 after a
    # stage at depth 9 (10) has n = 9 (10) and works at depth 10 (11);
    # `_depths` reads indices only, never an atom space
    con = SpeedupConstruction(OdometerChain.diagonal_power([3, 2]), OdometerChain.diagonal_power([6]), Cone.quadrant(2))
    con.stages = [SimpleNamespace(gamma=9)]
    assert con._depths(1) == (9, 6**9, 10)
    con.stages = [SimpleNamespace(gamma=10)]
    with pytest.raises(DepthExhausted, match=r"^stage 1 needs depth 11, whose 362797056 atoms exceed 67108864$"):
        con._depths(1)
    assert construction.MAX_ATOMS == 2**26
    assert not con.source._spaces


@pytest.mark.parametrize("source_primes", [[1, 1], [1, 1, 1]])
def test_chains_whose_atoms_never_get_finer_are_refused(source_primes):
    # every index is 1, so no depth would ever have atoms fine enough
    source = OdometerChain.diagonal_power(source_primes)
    with pytest.raises(CastleError, match=r"^the clopen value group is Z: the chains' atoms never get finer$"):
        SpeedupConstruction(source, OdometerChain.diagonal_power([1]), Cone.quadrant(len(source_primes)))


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
        assert assert_audit_matches_the_level_oracle(con, k).failures() == [], k
    assert stage_digests(con) == FROZEN["derived-sector"]
    assert_targets_are_translation_climbs(con)


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
        previous = _previous_map(prev, rec.gamma)
        assert len(previous) == len(below_top) * fine.size // prev.space.size
        assert all(coarsen_by_reduction(fine, c, prev.space) in below_top for c in previous)


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
    pts = x0_column_points(con, 0)
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
    per_level = sum(len(t.level(0)) for t in rec.src_castle.towers)
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
