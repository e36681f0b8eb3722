"""Finite-stage construction of a cone speedup conjugate to a target odometer.

Source: a free d-dimensional odometer chain.  Target: a one-dimensional
odometer chain with the same clopen value group.  The driver mimics the
target's cylinder towers inside the source space, stage by stage:

  stage 0   partition the source into h equal slabs, swap the base and top
            into shrinking cylinders around two anchor points, join the
            slabs by cone translations, split the two anchors into their
            own towers, refine to pure cylinder columns, and mirror the
            tower shape on the target side by exact measure bookkeeping;
  stage k   refine the target tower into pure previous-stage columns,
            mirror that refinement on the source castle, rotate the two
            anchor towers so the anchors sit at the base and top, swap the
            boundary into the next anchor cylinders (recording the moved
            set and patching the previous translation map where it broke),
            join consecutive blocks by fresh cone translations, refine,
            and copy over.

No homeomorphism between the spaces is ever constructed: every transport
step moves exact atom counts, which is the only consequence of such a map
the castle-level construction consumes.  All selections are
lexicographic, so runs are reproducible.

Anchor conventions: the first anchor is the zero point; the second is its
translate by minus the least cone vector; the stage-k anchor cylinders
are their depth-(k+1) cylinders.  Stage numbers and tower heights are the
least values satisfying the driving inequalities, computed exactly:

    atom measure < anchor measure                      (stage 0)
    boundary measure < min(eps cap, anchor measure/3)  (stage k), with
    eps cap = min(anchor, anchor / (24 * sum of earlier anchors)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .castles import (
    Castle,
    CastleError,
    DepthExhausted,
    Tower,
    ValueGroupMismatch,
    castle_refinement_over,
    minimal_cone_vector,
    refine_pure_columns,
)
from .classify import orbit_equivalence_test
from .lattice import IntegerLattice
from .odometer import OdometerChain
from .speedup import Cone


MAX_DEPTH = 9  # 6^9 source atoms is already beyond desk scale


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


class _NeedDepth(Exception):
    """Internal: the working depth is too coarse for a selection step."""


@dataclass
class StageRecord:
    k: int
    n: int                       # target stage the castle mimics
    gamma: int                   # source working depth
    tgt_depth: int               # target working depth (equal index)
    height: int
    eps_cap: Fraction
    boundary_measure: Fraction
    src_castle: Castle
    tgt_castle: Castle           # target towers; the level map is +1
    pretower_count: int
    f_atoms: frozenset[int]      # swapped points, source working depth
    r_atoms: frozenset[int]      # where the previous map was rebuilt
    prev_steps: dict | None      # previous stage's map at this stage's depth
    swap_audit: tuple            # level sizes (before, after) the swaps
    tower_x0: int
    tower_x2: int
    x0_column: list[tuple[int, ...]]   # exact orbit points up the anchor column


class SpeedupConstruction:
    """Stage driver; build with run(k) and audit with stage_invariants(k)."""

    def __init__(
        self,
        source: OdometerChain,
        target: OdometerChain,
        cone: Cone,
        u: tuple[int, ...] | None = None,
        first_stage: int | None = None,
    ):
        if target.dim != 1:
            raise CastleError("the construction targets one-dimensional chains")
        if cone.dim != source.dim:
            raise CastleError("cone and source dimension differ")
        verdict = orbit_equivalence_test(source, target)
        if verdict.outcome == "no":
            raise ValueGroupMismatch(str(verdict.certificate))
        self.source = source
        self.target = target
        self.cone = cone
        if u is None:
            zero = (0,) * source.dim
            u = minimal_cone_vector(cone, zero, zero, IntegerLattice.standard(source.dim))
        self.u = tuple(u)
        if not cone.contains(self.u):
            raise CastleError("the anchor displacement must lie in the cone")
        self.x2_vector = tuple(-x for x in self.u)  # exact second anchor: translate of 0
        self.first_stage = first_stage
        self.stages: list[StageRecord] = []

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

    def _align_depths(self, min_src_depth: int, min_tgt_depth: int):
        """Smallest depth pair with equal index on both chains."""
        g, t = max(1, min_src_depth), max(1, min_tgt_depth)
        while g <= MAX_DEPTH and t <= MAX_DEPTH * 4:
            si, ti = self.source.index(g), self.target.index(t)
            if si == ti:
                return g, t
            if si < ti:
                g += 1
            else:
                t += 1
        raise ValueGroupMismatch("no common atom granularity found")

    # -- stage scheduling ----------------------------------------------

    def _schedule(self, k: int) -> tuple[int, Fraction, Fraction]:
        """(target stage n_k, eps cap, boundary measure at n_k)."""
        mu = self.anchor_measure(k)
        if k == 0:
            if self.first_stage is not None:
                n = self.first_stage
                if Fraction(1, self.target.index(n)) >= mu:
                    raise CastleError(
                        "first-stage atoms must be strictly smaller than the anchor cylinder"
                    )
            else:
                n = 1
                while Fraction(1, self.target.index(n)) >= mu:
                    n += 1
                    if n > MAX_DEPTH * 4:
                        raise DepthExhausted("no target stage has fine enough atoms")
            return n, mu, Fraction(min(2, self.target.index(n)), self.target.index(n))
        earlier = sum((self.anchor_measure(j) for j in range(k)), Fraction(0))
        cap = min(mu, mu / (24 * earlier))
        bound = min(cap, mu / 3)
        n = self.stages[k - 1].n + 1
        while Fraction(2, self.target.index(n)) >= bound:
            n += 1
            if n > MAX_DEPTH * 4:
                raise DepthExhausted("no target stage has small enough boundary")
        return n, cap, Fraction(2, self.target.index(n))

    # -- public API ------------------------------------------------------

    def run(self, stages: int) -> "SpeedupConstruction":
        while len(self.stages) < stages:
            if not self.stages:
                self.stages.append(self._base_stage())
            else:
                self.stages.append(self._inductive_stage(len(self.stages)))
        return self

    # -- base stage ------------------------------------------------------

    def _base_stage(self) -> StageRecord:
        n, cap, boundary = self._schedule(0)
        h = self.target.index(n)
        gamma, tgt_depth = self._align_depths(2, n)
        while True:
            try:
                return self._build_base(n, cap, boundary, h, gamma, tgt_depth)
            except _NeedDepth:
                if gamma >= MAX_DEPTH:
                    raise DepthExhausted("the base stage needs more depth than allowed")
                gamma, tgt_depth = self._align_depths(gamma + 1, tgt_depth + 1)

    def _build_base(self, n, cap, boundary, h, gamma, tgt_depth) -> StageRecord:
        space = self.source.kr_partition(gamma)
        total = space.size
        if total % h or total // h < 2:
            raise _NeedDepth()
        slab = total // h
        levels = [frozenset(range(w * slab, (w + 1) * slab)) for w in range(h)]

        a0, a2 = self._anchor_sets(0, gamma)
        x0_atom = space.encode_vector((0,) * self.source.dim)
        x2_atom = space.encode_vector(self.x2_vector)

        pre_sizes = tuple(len(l) for l in levels)
        levels = self._swap(levels, 0, a0, keep_atom=x0_atom)
        levels = self._swap(levels, h - 1, a2, keep_atom=x2_atom)
        post_sizes = tuple(len(l) for l in levels)

        # join the slabs with least cone vectors
        steps: dict[int, tuple[int, ...]] = {}
        lattice = self.source.stage(gamma)
        for v in range(h - 1):
            self._transfer(levels[v], levels[v + 1], space, lattice, steps)

        # the two anchor columns must be pointwise distinct before they can
        # be separated; if they merged, re-route the last step on the zero
        # column inside its congruence class (same atom map, new point map)
        zero = (0,) * self.source.dim
        if self._pull_to_base(levels, steps, space) == zero:
            z = zero
            for _ in range(h - 2):
                z = _vadd(z, steps[space.encode_vector(z)])
            atom = space.encode_vector(z)
            tgt = space.translate(atom, steps[atom])
            steps[atom] = minimal_cone_vector(
                self.cone, space.decode(tgt), space.decode(atom), lattice, second=True
            )
            if self._pull_to_base(levels, steps, space) == zero:
                raise _NeedDepth()

        castle = Castle(self.source, gamma, [Tower(levels)], steps)
        y_atom = space.encode_vector(self._pull_to_base(levels, steps, space))
        if y_atom == x0_atom:
            raise _NeedDepth()
        base = set(levels[0])
        parts = [frozenset([x0_atom]), frozenset([y_atom])]
        rest = base - {x0_atom, y_atom}
        if rest:
            parts.append(frozenset(rest))
        castle = castle_refinement_over(castle, [parts])
        castle = refine_pure_columns(castle, 1)

        tower_x0 = next(i for i, t in enumerate(castle.towers) if x0_atom in t.levels[0])
        tower_x2 = next(i for i, t in enumerate(castle.towers) if x2_atom in t.levels[-1])
        if tower_x0 == tower_x2:
            raise _NeedDepth()
        tgt_castle = self._copy_levels_to_target(
            castle, tgt_depth, [sorted(range(0, self.target.index(tgt_depth), h))]
            , [0] * len(castle.towers)
        )
        return StageRecord(
            k=0,
            n=n,
            gamma=gamma,
            tgt_depth=tgt_depth,
            height=h,
            eps_cap=cap,
            boundary_measure=boundary,
            src_castle=castle,
            tgt_castle=tgt_castle,
            pretower_count=1,
            f_atoms=frozenset(),
            r_atoms=frozenset(),
            prev_steps=None,
            swap_audit=(pre_sizes, post_sizes),
            tower_x0=tower_x0,
            tower_x2=tower_x2,
            x0_column=self._column_points(castle, tower_x0),
        )

    def _pull_to_base(self, levels, steps, space):
        """Exact base point of the column ending at the second anchor."""
        y = self.x2_vector
        for v in range(len(levels) - 1, 0, -1):
            y = self._pull_back_in(levels[v - 1], y, space, steps)
        return y

    # -- shared machinery -------------------------------------------------

    def _swap(self, levels, position, anchor, keep_atom):
        """Swap the level at `position` into the anchor set.

        Removes the non-anchor part of the level and replaces it with
        lexicographically first anchor atoms taken outside the base and
        top (the designated atom first whenever it is not already placed).
        Displaced atoms go to the slots the replacements vacated.
        """
        boundary = levels[0] | levels[-1]
        target_level = levels[position]
        deficit = sorted(target_level - anchor)
        pool = sorted((anchor - boundary) - target_level)
        if keep_atom in pool:
            pool.remove(keep_atom)
            pool.insert(0, keep_atom)
        if len(pool) < len(deficit):
            raise CastleError("anchor cylinder too small for the swap")
        incoming = pool[: len(deficit)]
        where = {}
        for v, level in enumerate(levels):
            for c in incoming:
                if c in level:
                    where[c] = v
        new_levels = [set(l) for l in levels]
        new_levels[position] = (set(target_level) & anchor) | set(incoming)
        for c, out in zip(incoming, deficit):
            v = where[c]
            new_levels[v].discard(c)
            new_levels[v].add(out)
        return [frozenset(l) for l in new_levels]

    def _transfer(self, src, dst, space, lattice, steps, changed=None):
        """Pair two atom sets lexicographically with least cone vectors."""
        src_atoms, dst_atoms = sorted(src), sorted(dst)
        if len(src_atoms) != len(dst_atoms):
            raise CastleError("transfer endpoints have different sizes")
        for s, d in zip(src_atoms, dst_atoms):
            vec = minimal_cone_vector(self.cone, space.decode(d), space.decode(s), lattice)
            if changed is not None and steps.get(s) != vec:
                changed.add(s)
            steps[s] = vec

    def _pull_back_in(self, level, point, space, steps):
        """Exact preimage of an orbit point under the level map below it."""
        atom = space.encode_vector(point)
        for c in level:
            if c in steps and space.translate(c, steps[c]) == atom:
                return tuple(p - q for p, q in zip(point, steps[c]))
        raise CastleError("no level atom maps onto the point's atom")

    def _column_points(self, castle: Castle, tower: int):
        """Exact orbit points along the zero anchor's column."""
        space = castle.space
        z = (0,) * self.source.dim
        pts = [z]
        for _ in range(castle.towers[tower].height - 1):
            z = _vadd(z, castle.steps[space.encode_vector(z)])
            pts.append(z)
        return pts

    def _copy_levels_to_target(self, castle, tgt_depth, pools, pretower_of):
        """Mirror the source towers on the target side, measure for measure.

        `pools[beta]` holds the target base atoms available to the towers
        descending from pretower beta; chunks are dealt lexicographically
        in tower order."""
        tspace = self.target.kr_partition(tgt_depth)
        sizes: list[list[int]] = [[] for _ in pools]
        for alpha, tower in enumerate(castle.towers):
            sizes[pretower_of[alpha]].append(len(tower.levels[0]))
        chunks = [iter(_deal(pool, s)) for pool, s in zip(pools, sizes)]
        towers = []
        for alpha, tower in enumerate(castle.towers):
            levels = [frozenset(next(chunks[pretower_of[alpha]]))]
            for _ in range(tower.height - 1):  # each level is the one below moved by +1
                levels.append(frozenset(tspace.translate(c, (1,)) for c in levels[-1]))
            towers.append(Tower(levels))
        return Castle(self.target, tgt_depth, towers, None)

    # -- inductive stage ----------------------------------------------------

    def _inductive_stage(self, k: int) -> StageRecord:
        n, cap, boundary = self._schedule(k)
        h = self.target.index(n)
        prev = self.stages[-1]
        gamma, tgt_depth = self._align_depths(max(prev.gamma, k + 1), max(prev.tgt_depth, n))
        while True:
            try:
                return self._build_inductive(k, n, cap, boundary, h, gamma, tgt_depth)
            except _NeedDepth:
                if gamma >= MAX_DEPTH:
                    raise DepthExhausted("the stage needs more depth than allowed")
                gamma, tgt_depth = self._align_depths(gamma + 1, tgt_depth + 1)

    def _build_inductive(self, k, n, cap, boundary, h, gamma, tgt_depth) -> StageRecord:
        prev = self.stages[-1]
        space = self.source.kr_partition(gamma)
        tspace = self.target.kr_partition(tgt_depth)
        h_prev = prev.height
        blocks = h // h_prev

        src_prev = _reexpress_castle(prev.src_castle, gamma)
        prev_steps = _reexpress_steps(prev.src_castle, gamma)
        src_prev.steps = prev_steps
        tgt_prev = _reexpress_castle(prev.tgt_castle, tgt_depth)

        # --- target side: pure previous-column split of the tall tower
        pos2 = tgt_prev.position_map()
        groups: dict[tuple, list[int]] = {}
        for c in range(0, tspace.size, h):
            itinerary = tuple(pos2[(c + w) % tspace.size] for w in range(0, h, h_prev))
            groups.setdefault(itinerary, []).append(c)
        tall = sorted(groups.items(), key=lambda kv: min(kv[1]))

        # --- source mirror: split previous bases by the tall-tower measures
        piece_of: dict[tuple[int, int], frozenset[int]] = {}
        wants: dict[int, list[tuple[int, int, int]]] = {}
        for beta, (itinerary, codes) in enumerate(tall):
            for m, (alpha, v0) in enumerate(itinerary):
                if v0 != 0:
                    raise CastleError("block itineraries must start at previous bases")
                wants.setdefault(alpha, []).append((beta, m, len(codes)))
        for alpha, demands in wants.items():
            demands.sort()
            pool = sorted(src_prev.towers[alpha].levels[0])
            chunks = _deal(pool, [size for _, _, size in demands])
            for (beta, m, _), chunk in zip(demands, chunks):
                piece_of[(beta, m)] = frozenset(chunk)

        pretowers: list[list[frozenset[int]]] = []
        for beta in range(len(tall)):
            tower_levels: list[frozenset[int]] = []
            for m in range(blocks):
                cur = piece_of[(beta, m)]
                tower_levels.append(cur)
                for _ in range(h_prev - 1):
                    cur = frozenset(space.translate(c, prev_steps[c]) for c in cur)
                    tower_levels.append(cur)
            pretowers.append(tower_levels)
        tall_bases = [sorted(codes) for _, codes in tall]

        # --- separate the anchors into distinct pretowers, then rotate
        x0_atom = space.encode_vector((0,) * self.source.dim)
        x2_atom = space.encode_vector(self.x2_vector)
        beta0, w0 = _find_position(pretowers, x0_atom)
        beta2, w2 = _find_position(pretowers, x2_atom)
        if w0 % h_prev != 0 or (w2 + 1) % h_prev != 0:
            raise CastleError("anchors are misaligned with the block structure")
        if beta0 == beta2:
            pretowers = self._separate_pretower(pretowers, beta0, w0, w2, h_prev, space, prev_steps)
            beta0, w0 = _find_position(pretowers, x0_atom)
            beta2, w2 = _find_position(pretowers, x2_atom)
            pool = sorted(c for b in tall_bases for c in b)
            tall_bases = _deal(pool, [len(t[0]) for t in pretowers])
        pretowers[beta0] = _rotate(pretowers[beta0], w0)
        pretowers[beta2] = _rotate(pretowers[beta2], (w2 + 1) % h)

        # --- swap the castle boundary into the anchor cylinders
        a0, a2 = self._anchor_sets(k, gamma)
        pre_sizes = tuple(len(l) for tower in pretowers for l in tower)
        flat = [frozenset().union(*(t[w] for t in pretowers)) for w in range(h)]
        flat = self._swap(flat, 0, a0, keep_atom=x0_atom)
        flat = self._swap(flat, h - 1, a2, keep_atom=x2_atom)
        pretowers, moved = _unflatten(flat, pretowers)
        post_sizes = tuple(len(l) for tower in pretowers for l in tower)
        f_atoms = frozenset(moved)

        # --- rebuild the previous map where the swap broke it
        steps = dict(prev_steps)
        lattice = self.source.stage(gamma)
        changed: set[int] = set()
        for tower in pretowers:
            for v in range(h - 1):
                if (v + 1) % h_prev == 0:
                    continue  # block boundary: fresh edges defined below
                src_level, dst_level = tower[v], tower[v + 1]
                stale_src = {
                    c
                    for c in src_level
                    if c not in steps or space.translate(c, steps[c]) not in dst_level
                }
                covered = {
                    space.translate(c, steps[c]) for c in src_level - stale_src
                }
                stale_dst = dst_level - covered
                if stale_src:
                    self._transfer(stale_src, stale_dst, space, lattice, steps, changed)
        # record where the map was rebuilt: the swapped set, everything
        # remapped, and the in-block preimages of swapped levels
        r_atoms = set(f_atoms) | changed
        for tower in pretowers:
            for v in range(h - 1):
                if (v + 1) % h_prev == 0:
                    continue
                touched = tower[v + 1] & f_atoms
                if touched:
                    r_atoms |= {
                        c for c in tower[v] if space.translate(c, steps[c]) in touched
                    }

        # --- join the blocks with fresh cone vectors
        for tower in pretowers:
            for v in range(h_prev - 1, h - 1, h_prev):
                self._transfer(tower[v], tower[v + 1], space, lattice, steps)

        # --- refine into pure cylinder columns at depth k+1
        castle = Castle(self.source, gamma, [Tower(list(t)) for t in pretowers], steps)
        refined = refine_pure_columns(castle, k + 1)
        pretower_of_tower = [
            _find_position(pretowers, min(t.levels[0]))[0] for t in refined.towers
        ]
        tower_x0 = next(i for i, t in enumerate(refined.towers) if x0_atom in t.levels[0])
        tower_x2 = next(i for i, t in enumerate(refined.towers) if x2_atom in t.levels[-1])

        tgt_castle = self._copy_levels_to_target(refined, tgt_depth, tall_bases, pretower_of_tower)
        return StageRecord(
            k=k,
            n=n,
            gamma=gamma,
            tgt_depth=tgt_depth,
            height=h,
            eps_cap=cap,
            boundary_measure=boundary,
            src_castle=refined,
            tgt_castle=tgt_castle,
            pretower_count=len(pretowers),
            f_atoms=f_atoms,
            r_atoms=frozenset(r_atoms),
            prev_steps=prev_steps,
            swap_audit=(pre_sizes, post_sizes),
            tower_x0=tower_x0,
            tower_x2=tower_x2,
            x0_column=self._column_points(refined, tower_x0),
        )

    def _separate_pretower(self, pretowers, beta, w0, w2, h_prev, space, prev_steps):
        """Split one pretower into anchor-, co-anchor-, and remainder parts.

        Each block contributes a one-atom column to each anchor part,
        chosen so the two anchors' columns land in distinct parts.  Levels
        must hold at least three atoms so the remainder part keeps equal
        measures; the caller deepens the working depth otherwise.
        """
        tower = pretowers[beta]
        h = len(tower)
        if any(len(l) < 3 for l in tower):
            raise _NeedDepth()
        x0_atom = space.encode_vector((0,) * self.source.dim)
        y = self.x2_vector
        m2 = w2 // h_prev
        for v in range(w2, m2 * h_prev, -1):
            y = self._pull_back_in(tower[v - 1], y, space, prev_steps)
        b2_atom = space.encode_vector(y)
        part_a: list[frozenset[int]] = []
        part_b: list[frozenset[int]] = []
        part_c: list[frozenset[int]] = []
        for m in range(0, h, h_prev):
            base = sorted(tower[m])
            pick_a = x0_atom if w0 == m else None
            pick_b = b2_atom if m2 * h_prev == m else None
            if pick_a == pick_b and pick_a is not None:
                raise CastleError("the anchors share a block column")
            pool = [c for c in base if c not in (pick_a, pick_b)]
            if pick_a is None:
                pick_a = pool.pop(0)
            if pick_b is None:
                pick_b = pool.pop(0)
            cur_a, cur_b = [pick_a], [pick_b]
            cur_r = [c for c in base if c not in (pick_a, pick_b)]
            part_a.append(frozenset(cur_a))
            part_b.append(frozenset(cur_b))
            part_c.append(frozenset(cur_r))
            for _ in range(h_prev - 1):
                cur_a = [space.translate(c, prev_steps[c]) for c in cur_a]
                cur_b = [space.translate(c, prev_steps[c]) for c in cur_b]
                cur_r = [space.translate(c, prev_steps[c]) for c in cur_r]
                part_a.append(frozenset(cur_a))
                part_b.append(frozenset(cur_b))
                part_c.append(frozenset(cur_r))
        out = [t for i, t in enumerate(pretowers) if i != beta]
        out.append(part_a)
        out.append(part_b)
        out.append(part_c)
        return out

    # -- audits ------------------------------------------------------------

    def stage_invariants(self, k: int) -> "StageReport":
        if k >= len(self.stages):
            return StageReport(k, ())  # nothing built: vacuously fine
        rec = self.stages[k]
        space = self.source.kr_partition(rec.gamma)
        tspace = self.target.kr_partition(rec.tgt_depth)
        checks: list[tuple[str, bool, str]] = []

        def check(name, ok, detail=""):
            # `ok` may be a thunk so that audits of corrupted data report a
            # failure instead of crashing mid-check
            if callable(ok):
                try:
                    ok = ok()
                except Exception as err:  # noqa: BLE001 - audit must not die
                    checks.append((name, False, f"check raised {type(err).__name__}: {err}"))
                    return
            checks.append((name, bool(ok), detail))

        # (1) stage numbers strictly increase
        check(
            "stage-numbers-increase",
            k == 0 or rec.n > self.stages[k - 1].n,
            f"n={rec.n}",
        )

        # (2) castle shape: equal-size levels per tower, disjoint, full cover
        sizes_ok = all(
            len({len(l) for l in t.levels}) == 1 and t.height == rec.height
            for t in rec.src_castle.towers
        )
        seen: set[int] = set()
        disjoint = True
        for t in rec.src_castle.towers:
            for l in t.levels:
                if l & seen:
                    disjoint = False
                seen |= l
        check(
            "castle-shape",
            sizes_ok and disjoint and len(seen) == space.size,
            f"towers={len(rec.src_castle.towers)} height={rec.height}",
        )

        # (3) swapped-set measure bound
        mu_f = Fraction(len(rec.f_atoms), space.size)
        if k == 0:
            check("swap-measure-bound", not rec.f_atoms, "stage 0 records no swaps")
        else:
            bound = 4 * self.anchor_measure(k)
            check("swap-measure-bound", mu_f <= bound, f"{mu_f} <= {bound}")

        # (4) rebuild set recorded and within reason
        check("rebuild-set-recorded", rec.r_atoms is not None, f"|R|={len(rec.r_atoms)}")

        # (5a) every level inside one cylinder atom at depth k+1
        coarse = self.source.kr_partition(k + 1)
        fine_ok = all(
            len({space.coarsen(c, coarse) for c in l}) == 1
            for t in rec.src_castle.towers
            for l in t.levels
        )
        check("levels-refine-cylinders", fine_ok)

        # (5b) anchors in base/top inside their cylinders
        a0, a2 = self._anchor_sets(k, rec.gamma)
        base = frozenset().union(*(t.levels[0] for t in rec.src_castle.towers))
        top = frozenset().union(*(t.levels[-1] for t in rec.src_castle.towers))
        x0_atom = space.encode_vector((0,) * self.source.dim)
        x2_atom = space.encode_vector(self.x2_vector)
        check(
            "anchors-in-boundary-cylinders",
            x0_atom in base and x2_atom in top and base <= a0 and top <= a2,
            f"|base|={len(base)} |anchor|={len(a0)}",
        )

        # (5c) target levels inside single target cylinder atoms
        t_coarse = self.target.kr_partition(rec.n)
        tgt_ok = all(
            len({tspace.coarsen(c, t_coarse) for c in l}) == 1
            for t in rec.tgt_castle.towers
            for l in t.levels
        )
        check("target-levels-refine-cylinders", tgt_ok)

        # (5d) the target castle is a translation castle
        shift_ok = all(
            frozenset(tspace.translate(c, (1,)) for c in t.levels[v]) == t.levels[v + 1]
            for t in rec.tgt_castle.towers
            for v in range(t.height - 1)
        )
        check("target-translation-castle", shift_ok)

        # (6a) level maps are bijections level-to-level
        def _maps_ok():
            for t in rec.src_castle.towers:
                for v in range(t.height - 1):
                    image = frozenset(
                        space.translate(c, rec.src_castle.steps[c]) for c in t.levels[v]
                    )
                    if image != t.levels[v + 1]:
                        return False
            return True

        check("level-maps-biject", _maps_ok)
        maps_ok = checks[-1][1]

        # (6b) every displacement lies in the cone; a stage uses few distinct ones
        def _cone_ok():
            domain = frozenset().union(
                *(l for t in rec.src_castle.towers for l in t.levels[:-1])
            )
            return all(self.cone.contains(vec) for vec in {rec.src_castle.steps[c] for c in domain})

        check("displacements-in-cone", _cone_ok)

        # (6c) the anchors live in distinct towers with pointwise disjoint columns
        check(
            "anchors-in-distinct-towers",
            rec.tower_x0 != rec.tower_x2
            and all(p != self.x2_vector for p in rec.x0_column),
            f"towers {rec.tower_x0} vs {rec.tower_x2}",
        )

        # (6d) the map agrees with the previous stage off the rebuild set
        if k == 0:
            check("map-stable-off-rebuild", True, "no previous stage")
        else:
            cur = rec.src_castle.steps
            stable = all(
                c in rec.r_atoms or c not in cur or cur[c] == vec
                for c, vec in rec.prev_steps.items()
            )
            check("map-stable-off-rebuild", stable)

        # (7) the level pairing intertwines the two castles
        pair_ok = len(rec.src_castle.towers) == len(rec.tgt_castle.towers) and all(
            s.height == t.height and len(s.levels[0]) == len(t.levels[0])
            for s, t in zip(rec.src_castle.towers, rec.tgt_castle.towers)
        )
        check("pairing-intertwines", pair_ok and maps_ok and shift_ok)

        # swap conservation: level sizes unchanged by the swaps
        check("swap-conserves-shape", rec.swap_audit[0] == rec.swap_audit[1])

        # cone closure along columns: partial sums of every column stay in the cone
        def _columns_ok():
            for t in rec.src_castle.towers:
                sums = {c: (0,) * self.source.dim for c in t.levels[0]}
                atoms = {c: c for c in t.levels[0]}
                for v in range(t.height - 1):
                    for start in sums:
                        vec = rec.src_castle.steps[atoms[start]]
                        sums[start] = _vadd(sums[start], vec)
                        atoms[start] = space.translate(atoms[start], vec)
                        if not self.cone.contains(sums[start]):
                            return False
            return True

        check("column-sums-in-cone", _columns_ok)

        return StageReport(k, tuple(checks))

    def partial_speedup_pieces(self, k: int):
        """Grouped (tower, level, vector, atom count) table of the stage map."""
        rec = self.stages[k]
        out = []
        for alpha, t in enumerate(rec.src_castle.towers):
            for v in range(t.height - 1):
                groups: dict[tuple, int] = {}
                for c in t.levels[v]:
                    vec = rec.src_castle.steps[c]
                    groups[vec] = groups.get(vec, 0) + 1
                for vec, count in sorted(groups.items()):
                    out.append((alpha, v, vec, count))
        return out


@dataclass(frozen=True)
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


def _reexpress_castle(castle: Castle, depth: int) -> Castle:
    if depth == castle.depth:
        return Castle(castle.chain, castle.depth, [Tower(list(t.levels)) for t in castle.towers], None)
    coarse = castle.space
    fine = castle.chain.kr_partition(depth)
    towers = [Tower([coarse.refine_set(l, fine) for l in t.levels]) for t in castle.towers]
    return Castle(castle.chain, depth, towers, None)


def _reexpress_steps(castle: Castle, depth: int) -> dict:
    if castle.steps is None:
        return {}
    if depth == castle.depth:
        return dict(castle.steps)
    coarse = castle.space
    fine = castle.chain.kr_partition(depth)
    out = {}
    for c, vec in castle.steps.items():
        for child in coarse.fibers(c, fine):
            out[child] = vec
    return out


def _rotate(levels, shift):
    h = len(levels)
    return [levels[(w + shift) % h] for w in range(h)]


def _deal(pool, sizes):
    """Deal a sorted atom pool into consecutive chunks of the given sizes."""
    if sum(sizes) != len(pool):
        raise CastleError("chunk sizes do not exhaust the atom pool")
    out = []
    start = 0
    for s in sizes:
        out.append(pool[start : start + s])
        start += s
    return out


def _unflatten(flat, pretowers):
    """Redistribute swapped union levels back into pretowers.

    Atoms that stayed keep their tower; replacements are assigned, in
    order, to the towers that lost atoms at the same position.  Returns
    the new pretowers and the set of all moved atoms."""
    h = len(flat)
    moved: set[int] = set()
    new_pretowers = [list(t) for t in pretowers]
    for w in range(h):
        old_union = frozenset().union(*(t[w] for t in pretowers))
        new_union = flat[w]
        gone = old_union - new_union
        came = sorted(new_union - old_union)
        moved |= gone | set(came)
        if not gone and not came:
            continue
        takers = []
        for i, t in enumerate(pretowers):
            for _ in sorted(set(t[w]) & gone):
                takers.append(i)
        if len(takers) != len(came):
            raise CastleError("swap bookkeeping lost atoms")
        adds: dict[int, set[int]] = {}
        for i, c in zip(takers, came):
            adds.setdefault(i, set()).add(c)
        for i in range(len(new_pretowers)):
            kept = set(new_pretowers[i][w]) - gone
            kept |= adds.get(i, set())
            new_pretowers[i][w] = frozenset(kept)
    return new_pretowers, moved


def _find_position(pretowers, atom):
    for beta, tower in enumerate(pretowers):
        for w, level in enumerate(tower):
            if atom in level:
                return beta, w
    raise CastleError("atom not found in any pretower")
