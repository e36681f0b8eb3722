"""Least cone vectors, and castles over odometer chains.

Castles live on the integer atom codes of the chain's depth-j
`AtomSpace` (`OdometerChain.kr_partition`).  They are families of
disjoint equal-size levels of atoms organized into towers, optionally
carrying an internal level map given atom-by-atom as integer displacement
vectors.  Everything is a flat integer array: a tower is a level width
and its codes level by level, a level map one vector id per code into a
small vector table, and `positions` one tower-and-level number per code.
The construction driver transports exact atom counts between castles on
top of these primitives.

All choices follow a fixed lexicographic order, so every construction
here is deterministic and regression-testable.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress, product as iter_product

from .odometer import AtomSpace, OdometerChain
from .speedup import Cone


class CastleError(ValueError):
    pass


class EmptyConeCoset(CastleError):
    pass


class NotAPartition(CastleError):
    pass


class ValueGroupMismatch(CastleError):
    pass


class DepthExhausted(CastleError):
    pass


# ---------------------------------------------------------------- cone vectors

def _is_inclusive_quadrant(cone: Cone) -> bool:
    if cone.ray is not None:
        return False
    normals = {tuple(n) for n, strict in cone.facets if not strict}
    if len(normals) != len(cone.facets):
        return False
    expected = {tuple(int(i == j) for j in range(cone.dim)) for i in range(cone.dim)}
    return normals == expected


def minimal_cone_vector(
    cone: Cone, target_rep, source_rep, lattice, second: bool = False, search_bound: int = 128
):
    """Least cone member congruent to target - source mod the lattice.

    Ordering is (l1 norm, lexicographic).  With `second`, the next one in
    that order; it induces the same atom map because the two vectors are
    congruent, which is what the pointwise-avoidance callers rely on.
    Raises EmptyConeCoset when no member shows up within the coefficient
    search bound (which cannot happen for cones with interior), and
    CastleError when proving the member found least would need a wider
    search than the bound allows.
    """
    base = tuple(t - s for t, s in zip(target_rep, source_rep))
    dim = len(base)
    if _is_inclusive_quadrant(cone) and lattice.is_diagonal():
        diag = lattice.diag
        least = tuple(b % m for b, m in zip(base, diag))
        if all(x == 0 for x in least):
            least = min(
                (tuple(m if i == k else 0 for i in range(dim)) for k, m in enumerate(diag)),
                key=lambda v: (sum(v), v),
            )
        if not second:
            return least
        bumps = [tuple(least[i] + (m if i == k else 0) for i in range(dim)) for k, m in enumerate(diag)]
        return min(bumps, key=lambda v: (sum(abs(x) for x in v), v))
    cols = [lattice.column(j) for j in range(dim)]
    diag = lattice.diag
    want = 2 if second else 1

    def scan(radius):
        hits = []
        for coeffs in iter_product(range(-radius, radius + 1), repeat=dim):
            v = tuple(
                b + sum(c * col[i] for c, col in zip(coeffs, cols)) for i, b in enumerate(base)
            )
            if cone.contains(v):
                hits.append((sum(abs(x) for x in v), v))
        hits.sort()
        return hits

    radius = 2
    hits = []
    while radius <= search_bound:
        hits = scan(radius)
        if len(hits) >= want:
            break
        radius *= 4
    if len(hits) < want:
        raise EmptyConeCoset(f"no cone member found in the coset of {base}")
    # widen once so no smaller candidate can hide outside the first box:
    # any coefficient beyond the bound forces an l1 norm above the current one
    bound_l1 = hits[want - 1][0]
    reach = bound_l1 + sum(abs(b) for b in base)
    safe = 1
    for i in reversed(range(dim)):
        safe = max(safe, reach // diag[i] + safe)
    if safe > radius:
        if safe > search_bound:
            raise CastleError(
                f"least cone member of the coset of {base} needs a coefficient search radius"
                f" of {safe}, beyond the search bound {search_bound}"
            )
        hits = scan(safe)
        if len(hits) < want:
            raise EmptyConeCoset(f"no cone member found in the coset of {base}")
    return hits[want - 1][1]


class StepMap(Mapping):
    """A level map: one vector id per atom code into a small vector table.

    `ids[code]` indexes `vectors`; id 0 (`vectors[0] is None`) means no
    step at that atom.  A stage uses few distinct vectors, so the map costs
    four bytes per atom.  Read as a mapping code -> vector tuple, iterated
    in increasing code order; `assign` writes one entry."""

    def __init__(self, size: int, vectors=(None,), ids: array | None = None):
        self.vectors = list(vectors)
        self._id_of = {vec: i for i, vec in enumerate(self.vectors) if i}
        self.ids = array("i", [0]) * size if ids is None else ids

    def copy(self) -> "StepMap":
        return StepMap(len(self.ids), self.vectors, array("i", self.ids))

    def assign(self, code: int, vector) -> None:
        vector = tuple(vector)
        i = self._id_of.get(vector)
        if i is None:
            i = self._id_of[vector] = len(self.vectors)
            self.vectors.append(vector)
        self.ids[code] = i

    def __getitem__(self, code: int) -> tuple[int, ...]:
        vector = self.vectors[self.ids[code]] if 0 <= code < len(self.ids) else None
        if vector is None:
            raise KeyError(code)
        return vector

    def __iter__(self):
        return compress(range(len(self.ids)), self.ids)

    def __len__(self) -> int:
        return len(self.ids) - self.ids.count(0)


class _Levels:
    """Read view of a tower's levels; level v is an array of its codes."""

    def __init__(self, tower: "Tower"):
        self.tower = tower

    def __len__(self) -> int:
        return self.tower.height

    def __getitem__(self, v: int) -> array:
        h = self.tower.height
        if not -h <= v < h:
            raise IndexError("level out of range")
        return self.tower.level(v % h)


@dataclass
class Tower:
    """Equal-size levels of atom codes, stored level by level in one array.

    Level v is `codes[v * width:(v + 1) * width]`, sorted."""

    width: int
    codes: array

    @classmethod
    def from_levels(cls, levels) -> "Tower":
        levels = [sorted(level) for level in levels]
        if not levels or any(len(level) != len(levels[0]) for level in levels):
            raise CastleError("a tower needs levels of one nonzero size")
        return cls(len(levels[0]), array("q", [c for level in levels for c in level]))

    @property
    def height(self) -> int:
        return len(self.codes) // self.width

    def level(self, v: int) -> array:
        return self.codes[v * self.width : (v + 1) * self.width]

    @property
    def levels(self) -> _Levels:
        return _Levels(self)


@dataclass
class Castle:
    """Towers of equal-size levels with an optional internal level map.

    `steps` gives each atom below a tower's top the displacement vector
    that sends it onto the next level up within the same tower."""

    chain: OdometerChain
    depth: int
    towers: list[Tower]
    steps: StepMap | None = None

    @property
    def space(self) -> AtomSpace:
        return self.chain.kr_partition(self.depth)


def positions(towers, size: int) -> array:
    """Code -> alpha * H + v for the atoms of level v of tower alpha, where
    H is the greatest tower height; -1 for atoms outside the towers."""
    stride = max(t.height for t in towers)
    out = array("i", [-1]) * size
    for alpha, t in enumerate(towers):
        first = alpha * stride
        for i, c in enumerate(t.codes):
            out[c] = first + i // t.width
    return out


def _climb(space: AtomSpace, steps: StepMap, base, height: int) -> array:
    """The columns from `base` up the level map, level by level: entry
    v * len(base) + i is the v-th atom of the column starting at base[i]."""
    translate, vectors, ids = space.translate, steps.vectors, steps.ids
    columns = array("q", base)
    cur = list(base)
    try:
        for _ in range(height - 1):
            cur = [translate(c, vectors[ids[c]]) for c in cur]
            columns.extend(cur)
    except TypeError:  # vectors[0] is None: an atom below the top has no step
        raise CastleError("the level map has no step at an atom below a tower's top") from None
    return columns


def _tower_of_columns(columns, width: int, height: int, members) -> Tower:
    """Tower of the columns numbered `members` in a `_climb` result, each
    level sorted."""
    if len(members) == 1:  # one atom per level
        return Tower(1, columns[members[0] :: width])
    codes = array("q")
    for v in range(height):
        level = columns[v * width : (v + 1) * width]
        codes.extend(sorted([level[i] for i in members]))
    return Tower(len(members), codes)


def climb_tower(space: AtomSpace, steps: StepMap, base, height: int) -> Tower:
    """The tower the level map builds over the atoms `base`."""
    base = sorted(base)
    return _tower_of_columns(_climb(space, steps, base, height), len(base), height, range(len(base)))


def castle_refinement_over(castle: Castle, base_partitions) -> Castle:
    """Split each tower over a clopen partition of its base.

    `base_partitions[alpha]` is a list of disjoint atom sets whose union
    is tower alpha's base; each part spawns a tower by climbing the level
    map."""
    if castle.steps is None:
        raise CastleError("refinement needs the castle's level map")
    space = castle.space
    new_towers = []
    for alpha, tower in enumerate(castle.towers):
        parts = base_partitions[alpha]
        union = set()
        for p in parts:
            if union.intersection(p):
                raise NotAPartition("base parts overlap")
            union.update(p)
        if union != set(tower.level(0)):
            raise NotAPartition("base parts do not cover the base")
        for part in parts:
            if part:
                new_towers.append(climb_tower(space, castle.steps, part, tower.height))
    return Castle(castle.chain, castle.depth, new_towers, castle.steps)


def refine_pure_columns(castle: Castle, label_of) -> Castle:
    """Refine so every tower's column meets a constant label sequence.

    `label_of` maps an atom code to a partition label; an integer argument
    is shorthand for "the cylinder partition at that depth".  Each column
    is climbed once: its labels split the tower's columns level by level,
    and the new towers are assembled from the same climb, in the order of
    their least base atoms."""
    if castle.steps is None:
        raise CastleError("refinement needs the castle's level map")
    space = castle.space
    if isinstance(label_of, int):
        coarse = castle.chain.kr_partition(label_of)

        def label(code: int):
            return space.coarsen(code, coarse)

    else:
        label = label_of
    new_towers = []
    for tower in castle.towers:
        w, h = tower.width, tower.height
        columns = _climb(space, castle.steps, tower.level(0), h)
        # group[i]: class of column i under its labels up to level v, numbered
        # by first appearance, so in the order of the least base atoms
        group = [0] * w
        for v in range(h):
            classes: dict = {}
            level = columns[v * w : (v + 1) * w]
            group = [classes.setdefault((g, label(c)), len(classes)) for g, c in zip(group, level)]
            if len(classes) == w:  # every column alone: no label can split further
                break
        members: list[list[int]] = [[] for _ in range(max(group) + 1)]
        for i, g in enumerate(group):
            members[g].append(i)
        new_towers.extend(_tower_of_columns(columns, w, h, m) for m in members)
    return Castle(castle.chain, castle.depth, new_towers, castle.steps)
