"""Least cone vectors, and castles over odometer chains.

`minimal_cone_vector` joins tower levels by the least cone member of a
coset in (l1 norm, lexicographic) order: one exact search over the
lattice's canonical triangular basis, for every cone and every lattice.
It reads only the difference of its two representatives, so the
construction searches once per lattice and difference and keeps the
result.

Castles live on the integer atom codes of the chain's depth-j
`AtomSpace` (`OdometerChain.kr_partition`).  They are families of
disjoint equal-size levels of atoms organized into towers, carrying an
internal level map given atom-by-atom as integer displacement vectors.
Everything is a flat `array('i')`: a tower is a level width and its
codes level by level, a level map one vector id per code into a small
vector table.  The towers are the only record of where an atom is.
A tower is its columns: level v is `codes[v * width:(v + 1) * width]`
and column i, the atoms the level map carries up from base atom
`codes[i]`, is `codes[i::width]`, so below the top the map sends
`codes[j]` onto `codes[j + width]`.
The construction driver transports exact atom counts between castles on
top of these primitives.  No atom is translated by a `translate` call: a
level map is read through its displacement table
(`AtomSpace.displacements`) by its two readers, `column`, which climbs a
column, and `images`, which gives the images of a run of codes, one table
read per atom; the speedup layer reads its quotient permutations with the
same `images`, at every code.  No castle builds an image array of the
whole space.  Every tower the build hands on is stored in climb order
(`_put_in_climb_order` mends it at the few break edges of a stage's one
mending pass per pretower: its joins and the edges beside its swaps), so
`castle_refinement_over` and `refine_pure_columns` read column i as
`codes[i::width]`, climb nothing, and store each new tower's
columns side by side by strided assignment.  `refine_pure_columns` takes
the cylinders of each wide tower as an array laid out like its codes,
which the base stage reads off one `AtomSpace.lift` and every inductive
stage off the previous castle's columns, carried through its swaps and
column moves; the refinement itself reads no cylinder of any atom.

All choices follow a fixed lexicographic order, so every construction
here is deterministic and regression-testable.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping
from itertools import compress

from ._record import record
from .odometer import AtomSpace, Displacements, OdometerChain
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

def minimal_cone_vector(cone: Cone, target_rep, source_rep, lattice):
    """Least cone member congruent to target - source mod the lattice.

    Ordering is (l1 norm, lexicographic).  One exact search for every cone
    and lattice.  On the canonical upper-triangular basis (Cohen, GTM 138,
    2.4) a member of base + L has x_i = o_i + t_i * rows[i][i], where
    o_i = base_i + sum_{j>i} t_j * rows[i][j]: coordinates are chosen last
    to first, each through its residue class in (|x|, x) order, and a
    branch is cut once its l1 norm exceeds that of the least member found
    so far.  The first coordinate is bounded by the cone's facets.  Raises
    EmptyConeCoset when no member has l1 norm within |base|_1 + 128 * (sum
    of |basis entries|).
    """
    base = tuple(t - s for t, s in zip(target_rep, source_rep))
    rows = lattice.rows
    best: list = []  # the least member so far, as one (l1 norm, vector) pair
    cap = sum(map(abs, base)) + 128 * sum(abs(e) for row in rows for e in row)
    _choose(len(base) - 1, base, 0, (), cone, rows, cap, best)
    if not best:
        raise EmptyConeCoset(f"no cone member found in the coset of {base}")
    return best[0][1]


def _choose(i, offsets, norm, tail, cone, rows, cap, best) -> None:
    """Choose x_i, then x_{i-1}, ..., x_0, in front of the chosen `tail`
    (x_{i+1}, ...) of l1 norm `norm`; `offsets` are o_0, ..., o_i.  A cone
    member within the norm limit that precedes `best[0]` replaces it."""
    m = rows[i][i]
    lo, hi = -cap, cap
    if i == 0:  # each facet n.x >= strict bounds x_0 given the tail
        for normal, strict in cone.facets:
            c = strict - sum(n * x for n, x in zip(normal[1:], tail))
            if normal[0] > 0:
                lo = max(lo, -(-c // normal[0]))
            elif normal[0] < 0:
                hi = min(hi, c // normal[0])
            elif c > 0:
                return
    for x in _by_abs(offsets[i], m, lo, hi):
        if norm + abs(x) > (best[0][0] if best else cap):
            return
        if i:
            t = (x - offsets[i]) // m
            shifted = [o + t * row[i] for o, row in zip(offsets[:i], rows)]
            _choose(i - 1, shifted, norm + abs(x), (x,) + tail, cone, rows, cap, best)
        else:
            pair = (norm + abs(x), (x,) + tail)
            if cone.contains(pair[1]) and (not best or pair < best[0]):  # left to check: the zero vector
                best[:] = [pair]


def _by_abs(r: int, m: int, lo: int, hi: int):
    """The integers x = r mod m with lo <= x <= hi, in (|x|, x) order."""
    p = max(lo, 0)
    p += (r - p) % m  # least class member >= max(lo, 0)
    q = min(hi, -1)
    q -= (q - r) % m  # greatest class member <= min(hi, -1)
    while p <= hi or q >= lo:
        if q >= lo and (p > hi or -q <= p):
            yield q
            q -= m
        else:
            yield p
            p += m


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


@record
class Tower:
    """Equal-size levels of atom codes, stored level by level in one array.

    Level v is `codes[v * width:(v + 1) * width]`.  A built tower, and
    every tower the refinements take, is stored in climb order: column i,
    from base atom `codes[i]` up its castle's level map, is
    `codes[i::width]` (`_climbs_as_stored` proves it)."""

    width: int
    codes: array

    @property
    def height(self) -> int:
        return len(self.codes) // self.width

    def level(self, v: int) -> array:
        return self.codes[v * self.width : (v + 1) * self.width]

    @property
    def levels(self) -> Iterator[array]:
        return map(self.level, range(self.height))


@record
class Castle:
    """Towers of equal-size levels with an internal level map.

    `steps` gives each atom below a tower's top the displacement vector
    that sends it onto the next level up within the same tower."""

    chain: OdometerChain
    depth: int
    towers: list[Tower]
    steps: StepMap

    @property
    def space(self) -> AtomSpace:
        return self.chain.kr_partition(self.depth)


CLIMB_CHUNK = 1 << 12  # codes per pass of `_climbs_as_stored`


def _climbs_as_stored(moves: Displacements, tower: Tower) -> bool:
    """Whether climbing the tower up a level map (`moves`, read off its
    displacement table) reads back its own codes: column i is
    `codes[i::width]`, all the way up.

    That holds iff every atom below the top is sent onto the code one level
    above it in the same place: the images of `codes[:-width]` equal
    `codes[width:]`, compared chunk by chunk as arrays, so no image array of
    the space is built.  An atom with no step has image -1, which no code
    matches: -1 among the codes is refused first.  A code past the space
    fails the test (the IndexError of reading its step id) rather than
    raise, as a climb stops at the first code that is not an image."""
    codes, w = tower.codes, tower.width
    if len(codes) != w * tower.height or -1 in codes:
        return False
    below = len(codes) - w
    try:
        for s in range(0, below, CLIMB_CHUNK):
            e = min(s + CLIMB_CHUNK, below)
            if moves.images(codes[s:e]) != codes[s + w : e + w]:
                return False
    except IndexError:
        return False
    return True


def _climb(moves: Displacements, base, height: int) -> list[array]:
    """The columns from the atoms of `base` up a level map.  An atom with
    no step below the top raises CastleError."""
    columns = [moves.column(c, height) for c in base]
    if any(len(column) < height for column in columns):
        raise CastleError("the level map has no known image at an atom below a tower's top")
    return columns


def _put_in_climb_order(tower: Tower, moves: Displacements, edges, labels: array | None = None) -> None:
    """Put the tower in climb order up a level map, when only the sorted
    `edges` v can send level v onto v + 1 out of stored order: at each, in
    turn, where the images of level v, read off the map as it is then,
    differ from level v + 1, the columns of levels v + 1 up to the next
    edge are permuted by strided slice assignment.  Level 0 never moves.  A
    level not sent onto the next one raises CastleError.  An array of
    `labels` laid out like the codes makes the same column moves."""
    codes, w = tower.codes, tower.width
    for v, end in zip(edges, [*edges[1:], tower.height - 1]):
        lo, hi = (v + 1) * w, (end + 1) * w  # levels v + 1 .. end
        image = moves.images(codes[lo - w : lo])
        above = codes[lo : lo + w]
        if image != above:
            if sorted(image) != sorted(above):
                raise CastleError(f"the level map does not send level {v} onto level {v + 1}")
            column_of = {c: i for i, c in enumerate(above)}
            for out in (codes,) if labels is None else (codes, labels):
                segment = out[lo:hi]
                for j, c in enumerate(image):
                    out[lo + j : hi : w] = segment[column_of[c] :: w]


def _columns_of(tower: Tower, members) -> array:
    """The codes of the tower whose column j is `tower`'s column
    `members[j]`, by strided assignment; a width-1 tower's own array."""
    codes, w, n = tower.codes, tower.width, len(members)
    if w == 1:
        return codes
    out = array("i", [0]) * (len(codes) // w * n)
    for j, i in enumerate(members):
        out[j::n] = codes[i::w]
    return out


def castle_refinement_over(castle: Castle, base_partitions) -> Castle:
    """Split each tower over a clopen partition of its base.

    `base_partitions[alpha]` is a list of disjoint atom sets whose union
    is tower alpha's base; each part spawns a tower of the columns over
    it, in base order, each read off the codes (`_columns_of`)."""
    new_towers = []
    for alpha, tower in enumerate(castle.towers):
        parts = base_partitions[alpha]
        union = set()
        for p in parts:
            if union.intersection(p):
                raise NotAPartition("base parts overlap")
            union.update(p)
        base = tower.level(0)
        if union != set(base):
            raise NotAPartition("base parts do not cover the base")
        column_of = {c: i for i, c in enumerate(base)}
        for part in parts:
            if part:
                new_towers.append(Tower(len(part), _columns_of(tower, sorted(column_of[c] for c in part))))
    return Castle(castle.chain, castle.depth, new_towers, castle.steps)


def refine_pure_columns(castle: Castle, labels) -> Castle:
    """Refine so every tower's column meets a constant sequence of
    cylinder atoms.

    `labels[alpha]` holds tower alpha's cylinders laid out like its codes
    (None for a tower of width 1); each entry is set to None as its tower's
    columns are grouped, so the arrays are freed before the new towers are
    assembled.  Every stage k passes the depth-(k+1) cylinders: the base
    stage reads them off one `lift` of its working space, and each
    inductive stage off the previous castle's columns
    (`construction._pretower_labels`).  Column i's cylinders are the
    strided slice [i::width], and each column joins the first group whose
    first column has the same cylinders, compared slice to slice, so no
    column's cylinders outlive their comparison; each group is a new tower
    of its columns in base order (`_columns_of`), and the groups follow the
    order of their first base atoms."""
    groups = []  # (tower, the columns of one new tower)
    for alpha, t in enumerate(castle.towers):
        w = t.width
        by_cylinders = [[0]]  # the columns of each new tower
        if w > 1:
            own, labels[alpha] = labels[alpha], None
            for i in range(1, w):
                cylinders = own[i::w]
                members = next((m for m in by_cylinders if own[m[0] :: w] == cylinders), None)
                if members is None:
                    by_cylinders.append([i])
                else:
                    members.append(i)
            del own
        groups.extend((t, members) for members in by_cylinders)
    return Castle(castle.chain, castle.depth, [Tower(len(m), _columns_of(t, m)) for t, m in groups], castle.steps)
