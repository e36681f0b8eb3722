"""Finite-stage construction of a cone speedup conjugate to a target odometer.

Source: a free d-dimensional odometer chain.  Target: a one-dimensional
odometer with the same clopen value group, run at the source's own indices
(`SpeedupConstruction`).  The driver mimics the target's cylinder towers
inside the source space, stage by stage:

  stage 0   partition the source into h equal slabs, swap the base and top
            into shrinking cylinders around two anchor points, join the
            slabs by cone translations, split the two anchors into their
            own towers, and read the cylinders off one lift;
  stage k   read the target's one tall tower as blocks of previous-stage
            towers, mirror them on the source castle with one climb of
            the previous map, separate the anchors by choosing columns of
            that climb, rotate the two anchor towers so the anchors sit at
            the base and top, swap the boundary into the next anchor
            cylinders (recording the moved set), and mend each pretower in
            one pass over its break edges, the block joins and the edges
            beside the swapped levels: one rule sends the atoms the lifted
            previous map no longer takes to the next level by fresh cone
            translations (at a join, every atom), and the columns are
            permuted back into climb order at the same edges; the
            cylinders are read off the previous castle's columns.

Every stage ends alike (`SpeedupConstruction._stage`): refine to pure
cylinder columns by the cylinders its build method passes.  The target
castle that mirrors the tower shape, measure for measure, is a function
of the stage's height and tower widths: it is worked out where it is
read, never stored.

Every tower the build hands to a refinement is stored in climb order, so
column i of a tower is `codes[i::width]` and no refinement climbs.

No homeomorphism between the spaces is ever constructed: every transport
step moves exact atom counts, which is the only consequence of such a map
the castle-level construction consumes.  All selections are
lexicographic, so runs are reproducible.

No working depth has more than MAX_ATOMS atoms (`_depths`); a source whose
clopen value group is Z, whose atoms never get finer, is refused.

Anchor conventions: the first anchor is the zero point; the second is its
translate by minus the least cone vector; the stage-k anchor cylinders
are their depth-(k+1) cylinders.  Stage 0 parts the anchors by one pairing
rule: its joins pair the i-th atoms of consecutive sorted levels, except
that the top's two least atoms trade places when the second anchor is the
least, so the zero point's column never ends at the second anchor
(`_build_base`).  Stage numbers are the least depths of the working
chain, from the previous stage's working depth on, that satisfy the driving
inequalities, computed in integers (`_schedule`); the inequalities only
bound the stage number from below, so the later start keeps them:

    atom measure < anchor measure                      (stage 0)
    boundary measure < min(eps cap, anchor measure/3)  (stage k), with
    eps cap = min(anchor, anchor / (24 * sum of earlier anchors)).
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from itertools import accumulate, compress, count, islice, repeat
from operator import ge, getitem, gt, le, lt, mul, ne, setitem, sub

from ._record import record
from .castles import (
    CLIMB_CHUNK,
    Castle,
    CastleError,
    DepthExhausted,
    StepMap,
    Tower,
    ValueGroupMismatch,
    _climb,
    _climbs_as_stored,
    _put_in_climb_order,
    castle_refinement_over,
    minimal_cone_vector,
    refine_pure_columns,
)
from .classify import orbit_equivalence_test
from .lattice import IntegerLattice, _integer_kernel
from .odometer import ChainError, OdometerChain
from .speedup import Cone


MAX_ATOMS = 2**26  # admits quadrant stage 6 (6^10 atoms, ~23 bytes each) in ~1.5 GB
LOCATE_CHUNK = 1 << 16  # codes per `bytes.find` pass of `_locate`


@record
class StageRecord:
    k: int
    n: int                       # stage of the working chain (a source depth) the castle mimics
    gamma: int                   # working depth of both castles
    height: int
    src_castle: Castle           # the target castle is a function of its widths and the height (`_stage`)
    f_atoms: frozenset[int]      # swapped points, source working depth
    r_atoms: frozenset[int]      # f_atoms and the atoms whose previous step the mending pass changed


class SpeedupConstruction:
    """Stage driver; build with run(k) and audit with stage_invariants(k).

    The target side runs at the source's own indices I(j).  A
    one-dimensional odometer is fixed up to conjugacy by its clopen value
    group, its supernatural number (Downarowicz, "Survey of odometers and
    Toeplitz flows", Contemp. Math. 385, 2005).  The source's stages are
    nested, so I(j) divides I(j + 1), and the one-dimensional odometer of
    the indices I(j) has the source's value group; once that group equals
    the target's, the two one-dimensional odometers are conjugate, and a
    speedup conjugate to one is conjugate to the other.  So the user's
    target chain is read once, in `__init__`, for its value group; that
    comparison must be exact, so a chain known only to a checked depth
    (an explicit chain, on either side) is refused.  Stage numbers n and
    the target's depth are depths of this working chain: the CLI's
    `target-stage=` counts them.

    Each stage is built once, at the least depth gamma whose index is at
    least twice the stage's height at stage 0 and three times it past
    stage 0 (`_depths`), which is fine enough for its anchor cylinders and
    for the next stage's cylinder labels; both castles work at gamma.  Past
    stage 0 the target is one tall tower, which splits into an anchor part,
    a co-anchor part and the rest.  Its `StageRecord` holds the stage
    itself: the one source castle and the swap and rebuild records; the
    audit works out everything else, the target castle, the anchors'
    towers and columns and the previous stage's map included, from these
    and the previous record.  A cone that
    contains a line is refused: with no strict facet, a nonzero integer
    kernel of the facet normals spans a line inside the cone."""

    def __init__(
        self,
        source: OdometerChain,
        target: OdometerChain,
        cone: Cone,
    ):
        if target.dim != 1:
            raise CastleError("the construction targets one-dimensional chains")
        if cone.dim != source.dim:
            raise CastleError("cone and source dimension differ")
        if not any(strict for _, strict in cone.facets):
            kernel = _integer_kernel([normal for normal, _ in cone.facets], cone.dim)
            if kernel:
                raise CastleError(f"the cone contains the line through {kernel[0]}; it must contain no line")
        verdict = orbit_equivalence_test(source, target)
        if verdict.outcome == "no":
            _, witness = verdict.certificate
            raise ValueGroupMismatch(
                f"source and target clopen value groups differ: {witness} lies in only one of them"
            )
        group = source.clopen_value_group(6)
        if verdict.outcome != "yes":
            raise CastleError(
                f"source and target clopen value groups {group.describe()} and "
                f"{target.clopen_value_group(6).describe()} are not known to be equal: "
                "the target runs at the source's indices, which needs an exact match"
            )
        if not group.infinite:  # bounded indices
            raise CastleError(f"the clopen value group is {group.describe()}: the chains' atoms never get finer")
        self.source = source
        self.cone = cone
        zero = (0,) * source.dim
        self.u = minimal_cone_vector(cone, zero, zero, IntegerLattice.standard(source.dim))
        self.x2_vector = tuple(-x for x in self.u)  # exact second anchor: translate of 0
        self.stages: list[StageRecord] = []
        # least cone vectors by lattice and target - source (`_transfer`)
        self._joins: dict[tuple, tuple[int, ...]] = {}

    # -- small helpers -------------------------------------------------

    def anchor_measure(self, k: int) -> Fraction:
        return Fraction(1, self.source.index(k + 1))

    def _anchor_sets(self, k: int, gamma: int):
        """Atom sets (working depth) of the two depth-(k+1) anchor cylinders."""
        coarse = self.source.kr_partition(k + 1)
        fine = self.source.kr_partition(gamma)
        zero = coarse.encode_vector((0,) * self.source.dim)
        other = coarse.encode_vector(self.x2_vector)
        if zero == other:
            raise CastleError("anchor cylinders collide; the anchors are too close")
        a0 = frozenset(coarse.fibers(zero, fine))
        a2 = frozenset(coarse.fibers(other, fine))
        return a0, a2

    # -- stage scheduling ----------------------------------------------

    def _schedule(self, k: int) -> int:
        """The stage n_k: the least depth n of the working chain whose index
        I(n) exceeds a limit, computed in integers; from n = 1 at stage 0,
        and from the previous stage's working depth on at stage k >= 1.

        With I(j) the source index at depth j, which the target side runs
        at too, the module's inequalities read: one target atom measures
        less than an anchor, 1/I(n) < 1/I(1), at stage 0; and two measure
        less than min(eps cap, anchor/3), I(n) > 2 * max(24 * sum_{j<k}
        I(k+1)/I(j+1), 3 * I(k+1)), at stage k >= 1.  The chain is nested,
        so I(j+1) divides I(k+1) and every term is an integer.  Hence
        I(n_0) > I(1), and I(n_k) > 6 * I(k+1).  The indices grow without
        bound (`__init__`), so the scan ends; the atom budget is checked on
        the working depth (`_depths`).

        The inequalities only bound n from below, so the later start keeps
        them, and the previous working depth exceeds n_(k-1), so the stage
        numbers still increase.  From that start the previous index divides
        I(n_k), which makes stage k's target one tall tower
        (`_build_inductive`)."""
        index = self.source.index
        n, limit = 1, index(1)
        if k:
            earlier = sum(index(k + 1) // index(j + 1) for j in range(k))
            n, limit = self.stages[k - 1].gamma, 2 * max(24 * earlier, 3 * index(k + 1))
        while index(n) <= limit:
            n += 1
        return n

    # -- public API ------------------------------------------------------

    def run(self, stages: int) -> "SpeedupConstruction":
        """Build the stages up to `stages`."""
        while len(self.stages) < stages:
            self.stages.append(self._stage(len(self.stages)))
        return self

    def _depths(self, k: int) -> tuple[int, int, int]:
        """(n, h, gamma) of stage k: the stage n = n_k (`_schedule`), the
        height h = I(n), and the least working depth gamma whose index is
        at least 2h at stage 0 and at least 3h past it; a gamma with more
        than MAX_ATOMS atoms raises DepthExhausted, the one budget check.

        h divides every finer index.  At stage 0 this is the least depth
        past one target base, at whose index h no stage builds, and the
        base stage's one tower is at least 2 wide.  On a chain that repeats
        a stage, gamma is the least depth of its index: an earlier depth of
        that index lies past n too (I(n) = h is smaller), so the scan would
        have stopped there.  Past stage 0 the target is one tall
        tower (`_schedule`) of at least 3 bases, enough for an anchor part,
        a co-anchor part and a rest that is not empty (`_build_inductive`);
        its index exceeds the previous stage's, which divides h, so the
        depth is finer than the previous stage's.  I(gamma_k) > h = I(n_k)
        > I(k+1) (`_schedule`), so gamma_k >= k + 2: every castle is at
        least as fine as the next stage's anchor cylinders, off which that
        stage reads its cylinder labels (`_pretower_labels`).  Only indices
        are read, never an atom space."""
        index = self.source.index
        n = self._schedule(k)
        h = index(n)
        bases = 3 if k else 2
        gamma = next(d for d in count(n + 1) if index(d) >= bases * h)
        if index(gamma) > MAX_ATOMS:
            raise DepthExhausted(f"stage {k} needs depth {gamma}, whose {index(gamma)} atoms exceed {MAX_ATOMS}")
        return n, h, gamma

    def _stage(self, k: int) -> StageRecord:
        """Build stage k at its depths (`_depths`), and finish it as every
        stage ends: refine the builder's castle into pure columns by the
        depth-(k+1) cylinders it passes, one array per wide tower.

        The refined towers are mirrored on the target side, measure for
        measure, at the same working depth gamma, by a castle that is a
        function of the stage and is never stored: the multiples of h
        below I(gamma) are its bases, dealt in increasing order to the
        towers, as many to a tower as it has columns.  With c the running
        sums of the tower widths, tower alpha has the bases q * h,
        c(alpha - 1) <= q < c(alpha).  A one-dimensional code is the
        residue mod the index and every base lies in hZ, so +1 never wraps
        below a top: the tower over `base` has the sorted levels base + v
        (the next stage's itinerary in `_build_inductive` and the audit
        read it so).  Both build methods put their one-column anchor towers
        first, so they get the bases 0 and h."""
        n, h, gamma = self._depths(k)
        build = self._build_inductive if k else self._build_base
        castle, labels, f_atoms, r_atoms = build(k, h, gamma)
        return StageRecord(k, n, gamma, h, refine_pure_columns(castle, labels), f_atoms, r_atoms)

    # -- base stage ------------------------------------------------------

    def _build_base(self, k, h, gamma):
        space = self.source.kr_partition(gamma)
        total = space.size  # a multiple of h, at least 2h (`_depths`)
        towers = [Tower(total // h, array("i", range(total)))]

        a0, a2 = self._anchor_sets(k, gamma)
        x0_atom = space.encode_vector((0,) * self.source.dim)
        x2_atom = space.encode_vector(self.x2_vector)

        self._swap(towers, a0, a2, x0_atom, x2_atom)
        tower = towers[0]

        # the anchors' columns part by one pairing rule.  The joins pair the
        # i-th atoms of consecutive stored levels, so column i is
        # codes[i::width].  Every level is stored sorted and x0 is code 0, the
        # least atom of the base, so the least atoms form x0's column; when x2
        # is the least atom of the top, the top's two least atoms trade
        # places (the width total // h is at least 2), so x2 tops another column.
        # Distinct columns hold distinct atoms.  Pointwise they are apart
        # too: the points up x0's column are sums of cone vectors, and x2 =
        # -u is one only if u plus cone vectors sums to 0, which a cone with
        # no line rules out (a sum of its members is a member, never 0)
        top = (h - 1) * tower.width
        if tower.codes[top] == x2_atom:
            tower.codes[top], tower.codes[top + 1] = tower.codes[top + 1], x2_atom

        # join the slabs with least cone vectors
        steps = StepMap(total)
        lattice = self.source.stage(gamma)
        for v in range(h - 1):
            self._transfer(tower.level(v), tower.level(v + 1), space, lattice, steps)

        y_atom = tower.codes[tower.level(h - 1).index(x2_atom)]  # the base of x2's column
        # the anchors' towers part here; an empty rest makes no tower
        rest = set(tower.level(0)) - {x0_atom, y_atom}
        castle = castle_refinement_over(Castle(self.source, gamma, towers, steps), [[[x0_atom], [y_atom], rest]])

        # the depth-1 cylinders of each wide tower, laid out like its codes,
        # off one `lift` of the working space
        coarse = self.source.kr_partition(k + 1)
        lifted = space.lift(array("i", range(coarse.size)), coarse)
        labels = [array("i", map(getitem, repeat(lifted), t.codes)) if t.width > 1 else None for t in castle.towers]
        return castle, labels, frozenset(), frozenset()

    # -- shared machinery -------------------------------------------------

    def _swap(self, towers, a0, a2, x0_atom, x2_atom):
        """Swap the base into the anchor set `a0`, then the top into `a2`.

        Each swap acts on the union of the towers' levels: it removes the
        level's atoms outside the anchor set and brings in the
        lexicographically first anchor atoms from outside the base and top
        (the designated atom first whenever it is not already placed); each
        displaced atom takes the level its replacement left.  Then, level by
        level, the atoms that arrived are dealt in increasing order to the
        towers that lost atoms there, in tower order.  Only the base, the top
        and the moved atoms are written.  The (tower, level) of a base or top
        atom is read off the levels 0 and h - 1; only the incoming anchor
        atoms from inside the towers, at most as many as the base and top
        hold, are searched for (`_locate`).  Updates the towers in place;
        returns the moved atoms and the (tower, level) pairs that changed.
        """
        h = towers[0].height
        where = {c: (alpha, v) for v in (0, h - 1) for alpha, t in enumerate(towers) for c in t.level(v)}
        base = {c for c, (_, v) in where.items() if not v}
        top = set(where) - base
        swaps = []  # (level, incoming atoms, the atoms they displace) per swap
        for position, edge, anchor, keep_atom in ((0, base, a0, x0_atom), (h - 1, top, a2, x2_atom)):
            deficit = sorted(edge - anchor)
            pool = sorted(anchor - base - top)
            if keep_atom in pool:
                pool.remove(keep_atom)
                pool.insert(0, keep_atom)
            if len(pool) < len(deficit):
                raise CastleError("anchor cylinder too small for the swap")
            incoming = pool[: len(deficit)]
            swaps.append((position, incoming, deficit))
            edge.difference_update(deficit)
            edge.update(incoming)
        # an incoming atom not in the base or top as they were lies inside a tower
        where.update(_locate(towers, [c for _, incoming, _ in swaps for c in incoming if c not in where]))
        level_of: dict[int, int] = {}  # level after the swaps of every atom they moved
        for position, incoming, deficit in swaps:
            for c, out in zip(incoming, deficit):
                level_of[out] = level_of[c] if c in level_of else where[c][1]
                level_of[c] = position
        gone: dict[int, list[tuple[int, int]]] = {}  # level -> (tower, atom) that left it
        came: dict[int, list[int]] = {}              # level -> atoms that arrived
        for c, w in level_of.items():
            alpha, v = where[c]
            if v != w:
                gone.setdefault(v, []).append((alpha, c))
                came.setdefault(w, []).append(c)
        if any(len(gone.get(w, ())) != len(came.get(w, ())) for w in gone.keys() | came.keys()):
            raise CastleError("swap bookkeeping lost atoms")
        touched = set()
        for w, left in gone.items():
            left.sort()
            drops = {c for _, c in left}
            adds: dict[int, list[int]] = {}
            for (alpha, _), c in zip(left, sorted(came[w])):
                adds.setdefault(alpha, []).append(c)
            for alpha, new in adds.items():
                t = towers[alpha]
                level = [c for c in t.level(w) if c not in drops] + new
                t.codes[w * t.width : (w + 1) * t.width] = array("i", sorted(level))
                touched.add((alpha, w))
        return frozenset(c for left in gone.values() for _, c in left), touched

    def _transfer(self, src, dst, space, lattice, steps, changed=None):
        """Send `src[i]` onto `dst[i]` by the least cone vector; given the
        set `changed`, add to it each atom that had a step and gets a
        different one.  The search reads only d - s of the representatives
        (its cap too), so it runs once per lattice and difference in a
        construction."""
        if len(src) != len(dst):
            raise CastleError("transfer endpoints have different sizes")
        joins = self._joins
        for s, d in zip(src, dst):
            target, source = space.decode(d), space.decode(s)
            key = (lattice, tuple(map(sub, target, source)))
            if (vec := joins.get(key)) is None:
                vec = joins[key] = minimal_cone_vector(self.cone, target, source, lattice)
            if changed is not None and steps.get(s, vec) != vec:
                changed.add(s)
            steps.assign(s, vec)

    # -- inductive stage ----------------------------------------------------

    def _build_inductive(self, k, h, gamma):
        prev = self.stages[-1]
        space = self.source.kr_partition(gamma)
        h_prev = prev.height
        blocks = h // h_prev

        # --- target side: one tall tower, of the bases hZ.  The previous
        # index P = I(prev.gamma) divides h (`_schedule`), so by residue
        # arithmetic (`_stage`) block m of the tower over every base starts
        # at the previous atom m * h_prev mod P, base number m mod P/h_prev
        # of the previous deal, which lies in the tower whose running sum
        # of widths first exceeds it: one itinerary of previous towers, and
        # at least 3 bases (`_depths`)
        starts = list(accumulate(t.width for t in prev.src_castle.towers))
        itinerary = [bisect_right(starts, m % starts[-1]) for m in range(blocks)]
        width = space.size // h  # the tower's bases: the working index over h

        # --- source mirror: deal the fibers over each previous tower's base
        # into the block pieces the itinerary takes from it, `width` atoms each
        pieces: list[list[int]] = [[] for _ in range(blocks)]
        blocks_of: dict[int, list[int]] = {}
        for m, alpha in enumerate(itinerary):
            blocks_of.setdefault(alpha, []).append(m)
        prev_space = prev.src_castle.space
        column_of: dict[int, int] = {}  # the previous column each piece atom climbs
        for alpha, ms in blocks_of.items():
            over = {}  # the fibers of the previous tower's base, by previous column
            for i, c in enumerate(prev.src_castle.towers[alpha].level(0)):
                over.update(dict.fromkeys(prev_space.fibers(c, space), i))
            column_of.update(over)
            for m, chunk in zip(ms, _deal(sorted(over), [width] * len(ms))):
                pieces[m] = chunk

        # --- climb each block piece once up the previous map: column i of a
        # climb starts at the piece's i-th smallest base atom.  The previous
        # map is mended in place below into this stage's map, and `moves`
        # reads it as it is at each read: the steps the mending pass
        # assigns, and the vectors it appends, included
        steps = _previous_map(prev.src_castle, gamma)
        moves = space.displacements(steps.vectors, steps.ids)
        climbs = [_climb(moves, piece, h_prev) for piece in pieces]
        x0_atom = space.encode_vector((0,) * self.source.dim)
        x2_atom = space.encode_vector(self.x2_vector)
        m0, i0 = _find_column(climbs, x0_atom, 0)
        m2, i2 = _find_column(climbs, x2_atom, h_prev - 1)
        if (m0, i0) == (m2, i2):
            raise CastleError("the anchors share a block column")

        # --- three pretowers, the columns each block gives them: an anchor
        # part and a co-anchor part of one column each, and the rest, which
        # keeps at least one column
        parts = []
        for m in range(blocks):
            a = i0 if m == m0 else None
            b = i2 if m == m2 else None
            rest = [i for i in range(width) if i not in (a, b)]
            a = rest.pop(0) if a is None else a
            b = rest.pop(0) if b is None else b
            parts.append(([a], [b], rest))
        layout = list(zip(*parts))
        # the anchors' pretowers are rotated by whole blocks so that x0's
        # block comes first and x2's last: block m of pretower b is its
        # levels from ((m - first[b]) % blocks) * h_prev on, and its column j
        # there is the climb of the block's j-th chosen column (`_lay_out`)
        first = [m0, (m2 + 1) % blocks, 0]
        pretowers = [
            Tower(len(members[0]), _lay_out(members, f, h_prev, lambda m, i: climbs[m][i]))
            for members, f in zip(layout, first)
        ]
        del climbs

        # --- the depth-(k+1) cylinders of the rest pretower, the one that
        # can be wide, laid out like its codes, off the previous castle's
        # columns, which are that fine (prev.gamma >= k + 1, `_depths`);
        # every later write to the codes makes the same write to them
        label_space = self.source.kr_partition(k + 1)
        labels = [None, None, None]
        if width > 3:
            labels[2] = _pretower_labels(prev.src_castle, label_space, layout[2], itinerary, pieces, column_of)
        del column_of

        # --- swap the castle boundary into the anchor cylinders
        a0, a2 = self._anchor_sets(k, gamma)
        f_atoms, touched = self._swap(pretowers, a0, a2, x0_atom, x2_atom)

        # --- one mending pass per pretower.  Each block was stored in the
        # order of its climb of the previous map, so the map can break, or
        # send a level onto the next out of stored order, only at a break
        # edge v (level v onto v + 1): a join, or an edge beside a level the
        # swap touched, whose cylinders are read off its own atoms first.  At
        # each, the atoms of level v whose image is not in level v + 1 get
        # least cone vectors onto the atoms there that nothing reaches, both
        # sorted; then the pretower is put back in climb order at the same edges.
        #
        # R, the rebuild set, is F, the swapped set, with every atom that had
        # a step and got a different one (`_transfer`).  At a join every
        # atom of level v sits over a previous top atom, to which
        # `_previous_map` gives no step, or the swap brought it there: from
        # the base, whose image lies in level 1 and not in v + 1, or from the
        # top, which has no step.  So at a join every atom is stale, the rule
        # pairs sorted(level v) with sorted(level v + 1), and no join atom
        # enters R off F.  An in-block stale atom with no step is a swapped
        # one, in F already.  Were a join atom to keep its image, its kept
        # step would be a previous step, in the cone.  An atom off F that the
        # map sends, inside a block, onto an atom the swap brought in had its
        # old image on that level, and the swap took it away: it was stale,
        # so it got a new vector, and it is in R
        lattice = self.source.stage(gamma)
        changed: set[int] = set()
        for alpha, tower in enumerate(pretowers):
            edges = set(range(h_prev - 1, h - 1, h_prev))  # the joins
            for w in (w for beta, w in touched if beta == alpha):
                if labels[alpha] is not None:
                    labels[alpha][w * tower.width : (w + 1) * tower.width] = array(
                        "i", (label_space.encode_vector(space.decode(c)) for c in tower.level(w))
                    )
                edges.update(v for v in (w - 1, w) if 0 <= v < h - 1)
            edges = sorted(edges)
            for v in edges:
                level, dst = tower.level(v), set(tower.level(v + 1))
                images = moves.images(level)  # -1 exactly where the map has no step
                stale = sorted(c for c, image in zip(level, images) if image not in dst)
                self._transfer(stale, sorted(dst.difference(images)), space, lattice, steps, changed)
            _put_in_climb_order(tower, moves, edges, labels[alpha])
        r_atoms = f_atoms | changed

        return Castle(self.source, gamma, pretowers, steps), labels, f_atoms, r_atoms

    # -- audits ------------------------------------------------------------

    def _record(self, k: int) -> StageRecord:
        if not 0 <= k < len(self.stages):
            raise CastleError(f"no stage {k}: {len(self.stages)} stages are built, numbered from 0")
        return self.stages[k]

    def stage_invariants(self, k: int) -> "StageReport":
        """Audit stage k: one exact, named check per structural invariant,
        always in the same order (stage numbers, castle shape, swapped
        measure, rebuild set, cylinder levels of both castles, anchor
        placement and separation, the target's tiling, level maps,
        displacements and column sums in the cone, stability off the
        rebuild set, pairing, swap conservation).

        The checks read only the stage's towers, level map, swapped and
        rebuild sets and cone and the previous stage's castle, never an
        array the build made for its own speed.  Swap conservation too is
        read off the towers: `_swap` trades atoms level for level, or
        raises, so every tower holds `height` full levels of its width.
        The target castle is a function of the stage's height and tower
        widths (`_stage`), so its checks are residue arithmetic on those
        and the working index.  The level maps
        and the column sums are those of one climb of each column
        (`_column_walk`, which climbs only
        where no proof on a whole tower or on the vector table gives them),
        and the exact points up the first anchor's column those of its steps,
        the column read off its tower where the walk found the tower stored
        in climb order and climbed otherwise, both up the stage's own level
        map read off its displacement table on the stage's working space
        (`AtomSpace.displacements`), with no image array of the space; the
        anchors' towers are read off the castle's bases and tops, and the
        previous map off the previous castle (`_previous_map`).  A check
        that raises on corrupted data fails and names the exception; a
        failing climb check names its first failing tower and level.  A
        check that reads levels runs only when every tower holds whole
        levels of the stage's height, and otherwise fails with the detail
        `castle-shape failed`.  A stage not built yet reports
        no checks; a negative k raises CastleError.
        """
        if k >= len(self.stages):
            return StageReport(k, ())  # nothing built: vacuously fine
        rec = self._record(k)
        space = self.source.kr_partition(rec.gamma)
        checks: list[tuple[str, bool, str]] = []

        def check(name, ok, detail=""):
            # `ok` may be a thunk so that audits of corrupted data report a
            # failure instead of crashing mid-check; a thunk may also return
            # an (ok, detail) pair
            if callable(ok):
                try:
                    ok = ok()
                except Exception as err:  # noqa: BLE001 - audit must not die
                    checks.append((name, False, f"check raised {type(err).__name__}: {err}"))
                    return
            if isinstance(ok, tuple):
                ok, detail = ok
            checks.append((name, bool(ok), detail))

        # (1) stage numbers strictly increase
        check(
            "stage-numbers-increase",
            k == 0 or rec.n > self.stages[k - 1].n,
            f"n={rec.n}",
        )

        src = rec.src_castle
        steps = src.steps
        whole = all(len(t.codes) == t.width * rec.height for t in src.towers)

        def check_levels(name, ok, detail=""):
            # a check that reads levels runs only on towers of whole levels
            # of the stage's height; castle-shape refuses any other record
            if whole:
                check(name, ok, detail)
            else:
                checks.append((name, False, "castle-shape failed"))

        # (2) castle shape: every tower of whole levels (`whole`), disjoint,
        # full cover; every code is marked in one C-level pass (`operator.setitem`, which
        # calls faster than the bound `seen.__setitem__`), and space.size
        # codes that leave no atom unmarked cover each atom once
        def _shape_ok():
            if not whole:
                return False
            seen = bytearray(space.size)
            for t in src.towers:
                deque(map(setitem, repeat(seen), t.codes, repeat(1)), maxlen=0)
            return sum(len(t.codes) for t in src.towers) == space.size and 0 not in seen

        check("castle-shape", _shape_ok, f"towers={len(src.towers)} height={rec.height}")

        # (3) swapped-set measure bound
        mu_f = Fraction(len(rec.f_atoms), space.size)
        if k == 0:
            check("swap-measure-bound", not rec.f_atoms, "stage 0 records no swaps")
        else:
            bound = 4 * self.anchor_measure(k)
            check("swap-measure-bound", mu_f <= bound, f"{mu_f} <= {bound}")

        # (4) the rebuild set holds every swapped atom and only atoms of the
        # space (both are empty at stage 0)
        check(
            "rebuild-set-recorded",
            rec.f_atoms <= rec.r_atoms and all(map(range(space.size).__contains__, rec.r_atoms)),
            f"|R|={len(rec.r_atoms)}",
        )

        # (5a) every level inside one cylinder atom at depth k+1
        check_levels(
            "levels-refine-cylinders", lambda: _levels_refine(src.space, src.towers, self.source.kr_partition(k + 1))
        )

        # (5b) anchors in base/top inside their cylinders; base and top map
        # each of their atoms to its tower
        a0, a2 = self._anchor_sets(k, rec.gamma)
        base = {c: alpha for alpha, t in enumerate(src.towers) for c in t.level(0)}
        top = {c: alpha for alpha, t in enumerate(src.towers) for c in t.level(t.height - 1)}
        x0_atom = space.encode_vector((0,) * self.source.dim)
        x2_atom = space.encode_vector(self.x2_vector)
        check_levels(
            "anchors-in-boundary-cylinders",
            x0_atom in base and x2_atom in top and base.keys() <= a0 and top.keys() <= a2,
            f"|base|={len(base)} |anchor|={len(a0)}",
        )

        # (5c) target levels inside single target cylinder atoms: +1 maps
        # depth-n atoms onto depth-n atoms, so a tower's levels lie in one
        # each iff its base does.  The target works at depth gamma too, so a
        # code is its residue mod I(gamma), and its depth-n atom its residue
        # mod I(n).  A tower's bases are q * h for consecutive q (`_stage`),
        # so they share one residue iff the tower is one column wide or I(n)
        # divides h
        def _target_levels_ok():
            m = self.source.index(rec.n)
            if space.size % m:
                raise ChainError(f"target stage {rec.n} is finer than the working depth {rec.gamma}")
            return rec.height % m == 0 or all(t.width <= 1 for t in src.towers)

        check("target-levels-refine-cylinders", _target_levels_ok)

        # (5d) towers of height h tile the target: h divides I(gamma), so
        # the multiples of h below it are the bases of towers whose levels
        # base + v never wrap below a top, are disjoint and cover every
        # target atom.  That the deal hands them all to the source towers
        # is the pairing's check (7)
        check("target-translation-castle", lambda: space.size % rec.height == 0)
        shift_ok = checks[-1][1]

        # (6a) level maps are bijections level-to-level, and the column sums
        # stay in the cone: one climb of every column up the map, read off
        # its displacement table on the audit's own space
        moves = space.displacements(steps.vectors, steps.ids)
        walk = functools.cache(lambda: _column_walk(src, moves, self.cone))
        check_levels("level-maps-biject", lambda: _verdict(walk()[0]))
        maps_ok = checks[-1][1]

        # (6b) every displacement lies in the cone; a stage uses few distinct ones.
        # Proved maps leave no code below a top without a step, so a table in the cone decides
        def _cone_ok():
            if maps_ok and _steps_stay_in(self.cone, steps.vectors):
                return True
            used = set()
            for t in src.towers:
                used.update(map(steps.ids.__getitem__, t.codes[: len(t.codes) - t.width]))
            if 0 in used:
                raise KeyError("an atom below a tower's top has no step")
            return all(self.cone.contains(steps.vectors[i]) for i in used)

        check_levels("displacements-in-cone", _cone_ok)

        # (6c) the anchors live in distinct towers with pointwise disjoint
        # columns: the exact points up the x0 column, from the zero point,
        # are the running sums of the steps along it, coordinate by
        # coordinate; the column is read off a tower the column walk found
        # stored in climb order and climbed only in one that is not.  The
        # point at level v lies in the column's atom at level v, so a column
        # that misses x2's atom misses x2, and its sums are not read
        def _anchors_apart():
            tower_x0, tower_x2 = base[x0_atom], top[x2_atom]
            detail = f"towers {tower_x0} vs {tower_x2}"
            tower = src.towers[tower_x0]
            h = tower.height
            if walk()[2][tower_x0]:
                column = tower.codes[tower.level(0).index(x0_atom) :: tower.width]
            else:
                column = moves.column(x0_atom, h)
                if len(column) < h:  # it ends at an atom with no step, as `steps[c]` would say
                    raise KeyError(column[-1])
            if x2_atom not in column:
                return tower_x0 != tower_x2, detail
            # coordinate i of each vector id's step, read lazily up the column
            tables = ([0] + [vec[i] for vec in steps.vectors[1:]] for i in range(self.source.dim))
            coords = (map(t.__getitem__, map(steps.ids.__getitem__, islice(column, h - 1))) for t in tables)
            points = zip(*(accumulate(c, initial=0) for c in coords))
            return tower_x0 != tower_x2 and self.x2_vector not in points, detail

        check_levels("anchors-in-distinct-towers", _anchors_apart)

        # (6d) the map agrees with the previous stage off the rebuild set; only
        # codes whose ids differ, renumbered into one table, are compared,
        # chunk by chunk.  The build leaves the previous table a prefix of
        # this one, and then the previous ids need no renumbering
        def _stable():
            prev = _previous_map(self.stages[k - 1].src_castle, rec.gamma)
            id_of = {vec: i for i, vec in enumerate(steps.vectors)}
            renumber = [id_of.get(vec, -1) for vec in prev.vectors]
            old = prev.ids
            if renumber != list(range(len(renumber))):
                old = array("i", map(renumber.__getitem__, prev.ids))
            for s in range(0, len(old), CLIMB_CHUNK):
                new_chunk, old_chunk = steps.ids[s : s + CLIMB_CHUNK], old[s : s + CLIMB_CHUNK]
                if new_chunk != old_chunk:
                    for c in compress(count(s), map(ne, old_chunk, new_chunk)):
                        i, j = steps.ids[c], prev.ids[c]
                        if i and j and c not in rec.r_atoms and steps.vectors[i] != prev.vectors[j]:
                            return False
            return True

        if k == 0:
            check("map-stable-off-rebuild", True, "no previous stage")
        else:
            check("map-stable-off-rebuild", _stable)

        # (7) the level pairing intertwines the two castles: every source
        # tower is as tall as the target's (it holds whole levels of the
        # stage's height, or the check does not run), and their widths sum to the
        # working index over h, so the deal of `_stage` hands out every
        # target base
        pair_ok = sum(t.width for t in src.towers) * rec.height == space.size
        check_levels("pairing-intertwines", pair_ok and maps_ok and shift_ok)

        # swap conservation: every tower holds `rec.height` full levels of its width
        check("swap-conserves-shape", whole)

        # cone closure along columns: partial sums of every column stay in the cone
        check_levels("column-sums-in-cone", lambda: _verdict(walk()[1]))

        return StageReport(k, tuple(checks))

    def partial_speedup_pieces(self, k: int):
        """Grouped (tower, level, vector, atom count) table of the stage map."""
        rec = self._record(k)
        steps = rec.src_castle.steps
        out = []
        for alpha, t in enumerate(rec.src_castle.towers):
            for v in range(t.height - 1):
                groups: dict[tuple, int] = {}
                for c in t.level(v):
                    vec = steps[c]
                    groups[vec] = groups.get(vec, 0) + 1
                for vec, count in sorted(groups.items()):
                    out.append((alpha, v, vec, count))
        return out


@record(frozen=True)
class StageReport:
    k: int
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [name for name, ok, _ in self.checks if not ok]

    def lines(self):
        return [
            f"stage {self.k} {'PASS' if ok else 'FAIL'} {name}"
            + (f" ({detail})" if detail else "")
            for name, ok, detail in self.checks
        ]


def _previous_map(castle: Castle, depth: int) -> StepMap:
    """The castle's level map off its top levels, at a finer depth of its chain:
    the map the next stage mends in place, and the one its audit finds
    unchanged off the rebuild set.

    The map is not defined on a top level, so its atoms get no step, even
    where the castle still holds one from an earlier stage.  The next
    stage's joins sit over those atoms, so its mending pass treats a join
    as a break edge where this map has no step."""
    ids = array("i", castle.steps.ids)
    for t in castle.towers:
        for c in t.level(t.height - 1):
            ids[c] = 0
    if depth != castle.depth:
        ids = castle.chain.kr_partition(depth).lift(ids, castle.space)
    return StepMap(len(ids), castle.steps.vectors, ids)


def _levels_refine(space, towers, coarse) -> bool:
    """Every level of the towers, on atoms of `space`, lies inside one atom
    of the coarser space.

    Every atom's coarser atom is one entry of the space's `lift` of the
    coarse codes, which raises unless `coarse` is a coarser space of the
    same chain.  A tower's labels, laid out like its codes, hold one label
    per level iff the labels of column i, read by the strided slice
    [i::width], equal those of column 0 for every i."""
    labels = space.lift(array("i", range(coarse.size)), coarse)
    for t in towers:
        w = t.width
        if w > 1:
            level_labels = array("i", map(getitem, repeat(labels), t.codes))
            if any(level_labels[i::w] != level_labels[::w] for i in range(1, w)):
                return False
    return True


def _verdict(failure) -> tuple[bool, str]:
    """(ok, detail) of a climb check from its first failing (tower, level);
    raises the walk's KeyError for a missing step."""
    if isinstance(failure, KeyError):
        raise failure
    if failure is None:
        return True, ""
    return False, "first failure: tower {} level {}".format(*failure)


def _column_walk(castle: Castle, moves, cone: Cone):
    """What climbing each column of the castle from its base atom to its
    top, once, up its level map (`moves`, the map read off its
    displacement table, `AtomSpace.displacements`) finds.

    Returns the first (tower, level) where the set of climbed atoms
    differs from the tower's level and the first where a column's partial
    step sum leaves the cone, each None if there is none; "first" is in
    (tower, level) order.  Like a walk that climbs all columns of a tower
    level by level and stops once both have failed, they are instead one
    KeyError, naming the tower and level, when an atom below a tower's top
    has no step and the walk would reach it.  The third result tells, per
    tower, whether the climb read back its codes (stored in climb order).

    Reads only the towers, the level map and the cone; the audit reads the
    map through a table of its own working space and never passes anything
    the build kept.  A column is climbed by `moves.column`, and the step
    ids along it give its partial sums' facet values (`_sums_outside`).  A
    column is climbed only where no whole-tower proof gives the same two
    results:

    - A tower whose map sends each level onto the next in stored order
      (`castles._climbs_as_stored`: -1 is no code, and the images of
      codes[:-w] are codes[w:]) climbs onto its own codes: column i
      is codes[i::w], every column reaches the top, and every climbed
      level is the tower's level.  Every tower the build stores is such
      a tower; one stored out of climb order is climbed.
    - The sums of a column are not read when every vector of the table
      has facet values >= 0, > 0 on strict facets, and a positive total
      (`_steps_stay_in`): the facet values of a partial sum are sums of
      those of its steps, so they pass the same test, and a sum is in the
      cone iff it passes (see `_sums_outside`).  A vector of the table
      that no column uses can only make this test fail, never pass."""
    steps = castle.steps
    ids = steps.ids
    outside = _sums_outside(cone, steps.vectors)
    sums_hold = _steps_stay_in(cone, steps.vectors)
    maps_at = sums_at = missing = None
    in_order = []
    for alpha, t in enumerate(castle.towers):
        w, h, codes = t.width, t.height, t.codes
        in_order.append(_climbs_as_stored(moves, t))
        if in_order[alpha]:
            climbed, reach = codes, h
        else:
            # the climb laid out like `codes`: column i is climbed[i::w];
            # every column reaches levels 0..reach-1 (one that meets an atom
            # with no step is padded with that atom)
            climbed, reach = array("i", codes), h
            for i, c in enumerate(codes[:w]):
                column = moves.column(c, h)
                if len(column) < h:
                    reach = min(reach, len(column))
                    column.extend([column[-1]] * (h - len(column)))
                climbed[i::w] = column
        n = reach * w
        # some level differs, or only its order
        if maps_at is None and climbed is not codes and climbed[:n] != codes[:n]:
            levels = ((v, climbed[v * w : (v + 1) * w], codes[v * w : (v + 1) * w]) for v in range(1, reach))
            v = next((v for v, a, b in levels if set(a) != set(b)), None)
            if v is not None:
                maps_at = alpha, v
        if not sums_hold and sums_at is None:
            # each column's step ids, at its levels 0..reach-2
            columns = (climbed[i : n - w : w] for i in range(w))
            firsts = (outside(list(map(ids.__getitem__, column))) for column in columns)
            firsts = [j for j in firsts if j is not None]
            if firsts:
                sums_at = alpha, min(firsts) + 1
        if reach < h and missing is None:
            missing = alpha, reach - 1
    if missing and not (maps_at and sums_at and max(maps_at[0], sums_at[0]) <= missing[0]):
        maps_at = sums_at = KeyError("an atom below a tower's top has no step: tower {} level {}".format(*missing))
    return maps_at, sums_at, in_order


def _facet_values(cone: Cone, vectors):
    """(values, strict) per facet of the cone, values[i] the facet value n.v
    of vector id i (0 at id 0, which has no vector), followed by the total
    of all facets' values as one more strict facet."""
    facets = [
        ([0] + [sum(map(mul, normal, vec)) for vec in vectors[1:]], strict) for normal, strict in cone.facets
    ]
    facets.append(([sum(values) for values in zip(*(values for values, _ in facets))], True))
    return facets


def _steps_stay_in(cone: Cone, vectors) -> bool:
    """Whether every vector of the table has facet values >= 0, > 0 on the
    strict facets and the total: then so has every sum of them."""
    return all(all(map(lt if strict else le, repeat(0), values[1:])) for values, strict in _facet_values(cone, vectors))


def _sums_outside(cone: Cone, vectors):
    """The function taking the step ids up a column to the index of the
    first partial sum outside the cone, or None.

    Each step's facet values n.v are computed once per vector id, and a
    column's partial sums have running sums of them as facet values.  The
    cone contains no line (`SpeedupConstruction` refuses one that does),
    so a sum is in it iff its facet values are all >= 0, > 0 on a strict
    facet, and add up to a positive number: a strict facet keeps the sum
    nonzero, and with none, facet values all 0 put it in the kernel of
    the normals, which is 0.  So the total of the facet values is one
    more strict facet, and the first failure is the least index at which
    some facet's running sum fails."""
    facets = _facet_values(cone, vectors)

    def first_outside(step_ids):
        firsts = []
        for values, strict in facets:
            sums = accumulate(map(values.__getitem__, step_ids))
            # 0 >= x fails a strict facet, 0 > x any facet
            j = next(compress(count(), map(ge if strict else gt, repeat(0), sums)), None)
            if j is not None:
                firsts.append(j)
        return min(firsts, default=None)

    return first_outside


def _pretower_labels(prev_castle, label_space, members, itinerary, pieces, column_of):
    """The depth-(k+1) cylinders (codes of `label_space`) of the rest
    pretower, laid out like its codes (`_lay_out`, with the columns
    `members` each block gives it, in block order).  The anchor and
    co-anchor pretowers are one column wide, so the refinement reads no
    cylinders of theirs.

    Read off the previous castle, whose depth is at least k + 1.  A block
    of a pretower column is a climb of the lifted previous map from an atom
    of block m's piece over a previous base atom, so level by level it lies
    over that atom's previous column (`column_of` names it), stored as
    `codes[i::width]` in its tower `itinerary[m]`.  Each atom lies
    in its previous atom's depth-(k+1) cylinder, so the block's cylinders
    are the previous column's: one `lift` onto the previous space, and one
    read per previous atom, each column's cylinders gathered once and
    shared by its fiber-mates."""
    prev_labels = prev_castle.space.lift(array("i", range(label_space.size)), label_space)
    gathered: dict[tuple[int, int], array] = {}  # (previous tower, column) -> its cylinders

    def cylinders(alpha, i):
        if (out := gathered.get((alpha, i))) is None:
            codes = prev_castle.towers[alpha].codes[i :: prev_castle.towers[alpha].width]
            out = gathered[alpha, i] = array("i", map(getitem, repeat(prev_labels), codes))
        return out

    height = prev_castle.towers[0].height
    return _lay_out(members, 0, height, lambda m, i: cylinders(itinerary[m], column_of[pieces[m][i]]))


def _find_column(climbs, atom: int, row: int):
    """(block, column index) of the `_climb` column that holds `atom` at level `row`."""
    for m, columns in enumerate(climbs):
        for i, column in enumerate(columns):
            if column[row] == atom:
                return m, i
    raise CastleError("anchors are misaligned with the block structure")


def _locate(towers, atoms) -> dict[int, tuple[int, int]]:
    """(tower, level) of each atom: `bytes.find` of the bytes of its code
    in the codes of one tower at a time, copied LOCATE_CHUNK codes at a
    time, skipping a hit at an offset that is not a multiple of the code
    size (it straddles two codes).  An atom in no tower raises CastleError."""
    where: dict[int, tuple[int, int]] = {}
    left = {c: array("i", [c]).tobytes() for c in sorted(set(atoms))}
    for alpha, t in enumerate(towers):
        codes, size = t.codes, t.codes.itemsize
        for s in range(0, len(codes), LOCATE_CHUNK):
            if not left:
                return where
            buf = codes[s : s + LOCATE_CHUNK].tobytes()
            for c, needle in list(left.items()):
                j = buf.find(needle)
                while j > 0 and j % size:
                    j = buf.find(needle, j + 1)
                if j >= 0:
                    where[c] = alpha, (s + j // size) // t.width
                    del left[c]
    if left:
        raise CastleError(f"atom {next(iter(left))} lies in no tower")
    return where


def _lay_out(members, first: int, height: int, column) -> array:
    """The array of a pretower of blocks of `height` levels whose column j
    in block m is `column(m, members[m][j])`, block m at levels from
    ((m - first) % blocks) * height on, by strided assignment."""
    blocks, width = len(members), len(members[0])
    span = height * width
    out = array("i", [0]) * (span * blocks)
    for m, chosen in enumerate(members):
        p = (m - first) % blocks
        for j, i in enumerate(chosen):
            out[p * span + j : (p + 1) * span : width] = column(m, i)
    return out


def _deal(pool, sizes):
    """Deal a sorted atom pool into consecutive chunks of the given sizes."""
    if sum(sizes) != len(pool):
        raise CastleError("chunk sizes do not exhaust the atom pool")
    return [pool[end - s : end] for end, s in zip(accumulate(sizes), sizes)]
