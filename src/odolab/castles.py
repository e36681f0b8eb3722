"""Least cone vectors, and castles over odometer chains.

Castles live on the integer atom codes of the chain's depth-j
`AtomSpace` (`OdometerChain.kr_partition`).  They are families of
disjoint equal-size levels of atoms organized into towers, optionally
carrying an internal level map given atom-by-atom as integer displacement
vectors.  The construction driver transports exact atom counts between
castles on top of these primitives.

All choices follow a fixed lexicographic order, so every construction
here is deterministic and regression-testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

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


@dataclass
class Tower:
    levels: list[frozenset[int]]

    @property
    def height(self) -> int:
        return len(self.levels)


@dataclass
class Castle:
    """Towers of equal-height levels with an optional internal level map.

    `steps` maps atom code -> displacement vector; it must send the atoms
    of each non-top level onto the next level up within the same tower.
    """

    chain: OdometerChain
    depth: int
    towers: list[Tower]
    steps: dict[int, tuple[int, ...]] | None = None

    @property
    def space(self) -> AtomSpace:
        return self.chain.kr_partition(self.depth)

    def apply_steps(self, atoms: frozenset[int]) -> frozenset[int]:
        if self.steps is None:
            raise CastleError("castle has no level map")
        space = self.space
        return frozenset(space.translate(c, self.steps[c]) for c in atoms)

    def locate(self, atom: int) -> tuple[int, int]:
        for alpha, tower in enumerate(self.towers):
            for v, level in enumerate(tower.levels):
                if atom in level:
                    return alpha, v
        raise CastleError("atom not in the castle")

    def position_map(self) -> dict[int, tuple[int, int]]:
        out = {}
        for alpha, tower in enumerate(self.towers):
            for v, level in enumerate(tower.levels):
                for c in level:
                    out[c] = (alpha, v)
        return out


def castle_refinement_over(castle: Castle, base_partitions) -> Castle:
    """Split each tower over a clopen partition of its base.

    `base_partitions[alpha]` is a list of disjoint atom frozensets whose
    union is tower alpha's base; each part spawns a tower by climbing the
    level map."""
    if castle.steps is None:
        raise CastleError("refinement needs the castle's level map")
    new_towers = []
    for alpha, tower in enumerate(castle.towers):
        parts = base_partitions[alpha]
        union = set()
        for p in parts:
            if p & union:
                raise NotAPartition("base parts overlap")
            union |= p
        if union != set(tower.levels[0]):
            raise NotAPartition("base parts do not cover the base")
        for part in parts:
            if not part:
                continue
            levels = [frozenset(part)]
            for _ in range(tower.height - 1):
                levels.append(castle.apply_steps(levels[-1]))
            new_towers.append(Tower(levels))
    return Castle(castle.chain, castle.depth, new_towers, castle.steps)


def refine_pure_columns(castle: Castle, label_of) -> Castle:
    """Refine so every tower's column meets a constant label sequence.

    `label_of` maps an atom code to a partition label; an integer argument
    is shorthand for "the cylinder partition at that depth"."""
    space = castle.space
    if isinstance(label_of, int):
        coarse = castle.chain.kr_partition(label_of)

        def label(code: int):
            return space.coarsen(code, coarse)

    else:
        label = label_of
    partitions = []
    for tower in castle.towers:
        groups: dict[tuple, set[int]] = {}
        for c in sorted(tower.levels[0]):
            itinerary = []
            atom = c
            itinerary.append(label(atom))
            for _ in range(tower.height - 1):
                atom = space.translate(atom, castle.steps[atom])
                itinerary.append(label(atom))
            groups.setdefault(tuple(itinerary), set()).add(c)
        partitions.append([frozenset(g) for _, g in sorted(groups.items(), key=lambda kv: min(kv[1]))])
    return castle_refinement_over(castle, partitions)
