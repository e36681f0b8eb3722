"""Bounded speedup cocycles constant on fixed-depth cylinders.

A cocycle is given by one table per generator of the acting group: a map
from the depth-J coset representatives of the base chain to integer
displacement vectors.  Validation checks the generator compatibility
relation and that each generator permutes the depth-J quotient; both
together are exactly what makes the generated action a homeomorphism
action on the inverse limit.

Tables, `value` and `step`/`walk`/`evaluate` speak coset representatives;
everything else runs on the integer atom codes of the chain's `AtomSpace`
(`OdometerChain.kr_partition`): permutations are `array('i')` indexed by
code, the images of every code under a generator's table kept as a
level map and read off its displacement table (`AtomSpace.displacements`),
and the orbit of zero is an `array('i')` of codes laid out as a staircase
of blocks, one side per generator.

The derived chain presents a minimal bounded speedup as an odometer again:
stage j is the stabilizer D_j of the zero atom under the induced action on
the depth-j quotient Z^d1 / Gamma_j, and only the resolution depth J is
walked.  There D_J is read in closed form off the orbit staircase:
generator i maps the orbit of the generators before it forward, block by
block, until it returns after sides[i] blocks, at a point of that orbit
with digit vector r; the columns sides[i] e_i - r are triangular, lie in
D_J and have the orbit size as index, so they are a basis of it.  The
displacement c(w, x) of a move depends on x only through its depth-J
atom, so phi(w) = c(w, 0) is a homomorphism on D_J and, for j >= J,
D_j = {w in D_J : phi(w) in Gamma_j}: every deeper stage is one integer
kernel, and the speedup is minimal at depth j iff its index is
[Z^d1 : Gamma_j].  Lattices are returned in canonical form.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from math import gcd, lcm
from operator import mul, sub

from ._record import record
from .lattice import DimensionMismatch, IntegerLattice, _integer_kernel
from .odometer import DerivedProvider, OdometerChain
from .valuegroup import ValueGroup


class SpeedupError(ValueError):
    """Base class for speedup-domain errors."""


class IncompatibleCocycle(SpeedupError):
    def __init__(self, rep, i, k):
        self.rep, self.i, self.k = rep, i, k
        super().__init__(f"generator relation fails at rep {rep} for generators {i} and {k}")


class NonBijectiveGenerator(SpeedupError):
    def __init__(self, generator, image, preimages):
        self.generator, self.image, self.preimages = generator, image, preimages
        super().__init__(
            f"generator {generator} maps representatives {preimages} to the same atom {image}"
        )


class NotMinimalAtDepth(SpeedupError):
    def __init__(self, depth, orbit_size, quotient_size):
        self.depth = depth
        super().__init__(f"orbit of 0 covers {orbit_size}/{quotient_size} atoms at depth {depth}")


class AntipodalValues(SpeedupError):
    """No cone can contain the given set of displacement values."""


class HypothesisFailed(SpeedupError):
    def __init__(self, clause: str):
        self.clause = clause
        super().__init__(clause)


# ---------------------------------------------------------------------- cones

def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _primitive(v):
    g = 0
    for e in v:
        g = gcd(g, e)
    if g == 0:
        raise AntipodalValues("the zero vector has no direction")
    return tuple(e // g for e in v)


@record(frozen=True)
class Cone:
    """Integer points of a filled cone: d half-space facets through 0.

    Stored as primitive integer facet normals with an openness flag each;
    membership is "nonzero and every facet condition holds", in integer
    arithmetic.  Rational normals given to `from_facets` are rescaled by a
    positive factor to primitive integers, which keeps every half-space
    (a zero normal stays zero).  Plane sectors are also
    supported directly: a pair of boundary rays less than a half-plane
    apart, each inclusive or strict, normalized into facet form.  A
    degenerate sector with equal rays u means the single ray itself: the
    line n.x = 0 through u, cut by the strict facet u.x > 0.  A cone
    whose facets allow a whole line is valid here, but the construction
    refuses it (`SpeedupConstruction`).
    """

    dim: int
    facets: tuple[tuple[tuple[int, ...], bool], ...]  # (primitive normal, strict)
    sector_data: tuple | None = None  # (u, v, include_u, include_v) when built as a sector

    @staticmethod
    def from_facets(normals_flags) -> "Cone":
        facets = []
        for normal, strict in normals_flags:
            normal = [Fraction(e) for e in normal]
            scale = lcm(*(e.denominator for e in normal))
            ints = [int(e * scale) for e in normal]
            g = gcd(*ints) or 1
            facets.append((tuple(e // g for e in ints), bool(strict)))
        return Cone(len(facets[0][0]), tuple(facets))

    @staticmethod
    def quadrant(dim: int, strict_axes=()) -> "Cone":
        """Nonnegative orthant minus 0; axes listed in `strict_axes` excluded."""
        for a in strict_axes:
            if not 0 <= a < dim:
                raise SpeedupError(f"strict axis {a} is not an axis of dimension {dim}")
        normals = []
        for i in range(dim):
            n = tuple(int(j == i) for j in range(dim))
            normals.append((n, i in strict_axes))
        return Cone(dim, tuple(normals))

    @staticmethod
    def sector(u, v, include_u: bool = True, include_v: bool = True) -> "Cone":
        """Plane sector from ray u counterclockwise to ray v (span < half turn)."""
        u = _primitive(tuple(int(e) for e in u))
        v = _primitive(tuple(int(e) for e in v))
        if len(u) != 2 or len(v) != 2:
            raise SpeedupError("sector cones are two-dimensional")
        cr = _cross(u, v)
        if u == v:
            if not (include_u and include_v):
                raise SpeedupError("a degenerate sector must include its boundary ray")
            n = (-u[1], u[0])
            facets = ((n, False), (tuple(-e for e in n), False), (u, True))
            return Cone(2, facets, sector_data=(u, v, True, True))
        if cr <= 0:
            raise SpeedupError("sector spans at least a half-plane; not a valid cone here")
        n1 = (-u[1], u[0])        # n1 . x = cross(u, x)
        n2 = (v[1], -v[0])        # n2 . x = cross(x, v)
        facets = ((n1, not include_u), (n2, not include_v))
        return Cone(2, facets, sector_data=(u, v, include_u, include_v))

    def contains(self, x) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch(f"vector of length {len(x)} in dimension {self.dim}")
        if all(e == 0 for e in x):
            return False
        for normal, strict in self.facets:
            val = _dot(normal, x)
            if val < 0 or (strict and val == 0):
                return False
        return True

    def describe(self) -> str:
        if self.sector_data is not None:
            u, v, iu, iv = self.sector_data
            lu, ru = ("[" if iu else "("), ("]" if iv else ")")
            return f"sector {lu}{u} -> {v}{ru}"
        body = ", ".join(
            f"{tuple(str(e) for e in n)} {'>' if strict else '>='} 0" for n, strict in self.facets
        )
        return f"facets {body}"


# ---------------------------------------------------------------- cocycles

@record
class PiecewiseCocycle:
    """Speedup cocycle generated by d2 tables on depth-J representatives.

    Each table is also kept the way a castle keeps a level map, as
    `(vectors, ids)`: `vectors[0]` is None and `ids`, an `array('i')` over
    the depth-J codes, gives each code's vector.  The induced quotient
    maps are `space.displacements(vectors, ids).images(range(space.size))`,
    with `ids` lifted first to a finer depth.
    """

    chain: OdometerChain
    d2: int
    depth: int  # J: cylinders on which the tables are constant
    tables: tuple[dict, ...]  # tables[i][rep] = displacement in Z^d1

    def __post_init__(self):
        if len(self.tables) != self.d2:
            raise SpeedupError("one table per generator is required")
        space = self.chain.kr_partition(self.depth)
        reps = [space.decode(c) for c in space.atoms()]
        if any(set(t) != set(reps) for t in self.tables):
            raise SpeedupError("tables must be total on depth-J representatives")
        self._maps: list[tuple[list, array]] = []
        for t in self.tables:
            id_of: dict = {}
            ids = array("i", [id_of.setdefault(tuple(t[rep]), len(id_of) + 1) for rep in reps])
            self._maps.append(([None, *id_of], ids))
        if any(len(vec) != self.chain.dim for vectors, _ in self._maps for vec in vectors[1:]):
            raise SpeedupError(f"table values must be vectors of length {self.chain.dim}")
        self._perm_cache: dict = {}
        self._stabilizer_basis = None  # (basis of D_J, phi on it), see derived_stage
        self._validated = False

    @property
    def d1(self) -> int:
        return self.chain.dim

    def value(self, i: int, rep) -> tuple[int, ...]:
        """Table value of generator i on the depth-J class of `rep`."""
        vectors, ids = self._maps[i]
        return vectors[ids[self.chain.kr_partition(self.depth).encode_vector(rep)]]

    def values(self) -> list[tuple[int, ...]]:
        out = []
        for t in self.tables:
            out.extend(t.values())
        return out

    # quotient permutations ------------------------------------------

    def permutation(self, i: int, depth: int) -> array:
        """Induced map of generator i on the depth-`depth` atom codes."""
        key = (i, depth)
        if key not in self._perm_cache:
            space = self.chain.kr_partition(depth)
            vectors, ids = self._maps[i]
            if depth != self.depth:
                # a finer atom carries the value of the depth-J atom it refines
                ids = space.lift(ids, self.chain.kr_partition(self.depth))
            self._perm_cache[key] = space.displacements(vectors, ids).images(range(space.size))
        return self._perm_cache[key]

    def inverse_permutation(self, i: int, depth: int) -> tuple[int, ...]:
        key = ("inv", i, depth)
        if key not in self._perm_cache:
            perm = self.permutation(i, depth)
            # codes ordered by their image
            self._perm_cache[key] = tuple(sorted(range(len(perm)), key=perm.__getitem__))
        return self._perm_cache[key]


@record(frozen=True)
class ValidationReport:
    ok: bool
    detail: str
    failure: tuple | None = None


def validate(cocycle: PiecewiseCocycle, raise_on_error: bool = True) -> ValidationReport:
    """Check generator compatibility and bijectivity on the depth-J quotient.

    Compatibility is the relation making the d2 generator functions extend
    to a single cocycle: for all representatives x and generator pairs
    (i, k), value_i(image under generator k of x) + value_k(x) must equal
    value_k(image under generator i of x) + value_i(x).
    """
    space = cocycle.chain.kr_partition(cocycle.depth)
    perms = [cocycle.permutation(i, cocycle.depth) for i in range(cocycle.d2)]
    for i, perm in enumerate(perms):
        preimage: dict[int, int] = {}
        for c, image in enumerate(perm):
            if image in preimage:
                rep = space.decode(c)
                err = NonBijectiveGenerator(i, space.decode(image), (space.decode(preimage[image]), rep))
                if raise_on_error:
                    raise err
                return ValidationReport(False, str(err), (rep, i, i))
            preimage[image] = c
    for i in range(cocycle.d2):
        (vi, ids_i), pi = cocycle._maps[i], perms[i]
        for k in range(i + 1, cocycle.d2):
            (vk, ids_k), pk = cocycle._maps[k], perms[k]
            for c in space.atoms():
                lhs = _vadd(vi[ids_i[pk[c]]], vk[ids_k[c]])
                rhs = _vadd(vk[ids_k[pi[c]]], vi[ids_i[c]])
                if lhs != rhs:
                    err = IncompatibleCocycle(space.decode(c), i, k)
                    if raise_on_error:
                        raise err
                    return ValidationReport(False, str(err), (space.decode(c), i, k))
    cocycle._validated = True
    return ValidationReport(True, "compatible; every generator permutes the quotient")


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _require_valid(cocycle: PiecewiseCocycle) -> None:
    if not cocycle._validated:
        validate(cocycle)


# ---------------------------------------------------------------- evaluation

def step(cocycle: PiecewiseCocycle, rep, i: int, depth: int, forward: bool = True):
    """One generator step on the depth-`depth` quotient.

    Returns (new representative, displacement).  A backward step uses the
    inverse permutation; its displacement is minus the table value at the
    preimage, which is what the cocycle equation forces.
    """
    space = cocycle.chain.kr_partition(depth)
    code = space.encode_vector(rep)
    if forward:
        return space.decode(cocycle.permutation(i, depth)[code]), cocycle.value(i, rep)
    pre = space.decode(cocycle.inverse_permutation(i, depth)[code])
    return pre, tuple(-e for e in cocycle.value(i, pre))


def walk(cocycle: PiecewiseCocycle, rep, vector, depth: int | None = None):
    """Apply the staircase path for `vector`: all first-generator steps,
    then all second-generator steps, and so on.  Compatibility makes the
    result path-independent.  Returns (end representative, displacement).
    """
    _require_valid(cocycle)
    depth = cocycle.depth if depth is None else depth
    if depth < cocycle.depth:
        raise SpeedupError("walks live at depths at least the cocycle resolution")
    if len(vector) != cocycle.d2:
        raise DimensionMismatch(f"vector of length {len(vector)}, acting rank {cocycle.d2}")
    total = (0,) * cocycle.d1
    space = cocycle.chain.kr_partition(depth)
    cur = space.decode(space.encode_vector(rep))
    for i, count in enumerate(vector):
        forward = count >= 0
        for _ in range(abs(count)):
            cur, disp = step(cocycle, cur, i, depth, forward)
            total = _vadd(total, disp)
    return cur, total


def evaluate(cocycle: PiecewiseCocycle, rep, vector, depth: int | None = None):
    """Total displacement of the speedup move `vector` started at `rep`."""
    return walk(cocycle, rep, vector, depth)[1]


# ---------------------------------------------------------------- cone checks

def cone_check(cocycle: PiecewiseCocycle, cone: Cone):
    """True iff every table value lies in the cone; witnesses otherwise."""
    _require_valid(cocycle)
    witnesses = []
    for i, table in enumerate(cocycle.tables):
        for rep in sorted(table):
            if not cone.contains(table[rep]):
                witnesses.append((i, rep, table[rep]))
    return (not witnesses), witnesses


def cone_hull(cocycle: PiecewiseCocycle) -> Cone:
    """Tightest inclusive sector containing all table values (plane case).

    Raises AntipodalValues when the values positively span a line, since
    no cone is closed under addition on such a set.
    """
    _require_valid(cocycle)
    if cocycle.d1 != 2:
        raise SpeedupError("cone hulls are implemented for two-dimensional values")
    values = cocycle.values()
    if any(all(e == 0 for e in v) for v in values):
        raise AntipodalValues("a zero displacement belongs to no cone")
    dirs = sorted({_primitive(v) for v in values}, key=cmp_to_key(_angle_order))
    if len(dirs) == 1:
        return Cone.sector(dirs[0], dirs[0])
    wide = None
    for t in range(len(dirs)):
        u, v = dirs[t], dirs[(t + 1) % len(dirs)]
        if _cross(u, v) < 0 or (_cross(u, v) == 0 and _dot(u, v) < 0):
            # gap from u to v exceeds or equals a half turn
            if _cross(u, v) == 0:
                raise AntipodalValues(f"directions {u} and {v} are opposite")
            if wide is not None:
                raise AntipodalValues("directions span more than a half-plane")
            wide = (v, u)
    if wide is None:
        raise AntipodalValues("directions span more than a half-plane")
    return Cone.sector(wide[0], wide[1])


def _angle_order(u, v):
    """Compare directions by angle in [0, 2pi), exactly: the half-turn
    [0, pi) first, then, within a half-turn, by the sign of the cross
    product."""

    def half(w):
        return 0 if w[1] > 0 or (w[1] == 0 and w[0] > 0) else 1

    return half(u) - half(v) or -_cross(u, v)


def product_form_check(cocycle: PiecewiseCocycle) -> bool:
    """True iff each generator moves only along its own coordinate axis."""
    _require_valid(cocycle)
    if cocycle.d1 != 2 or cocycle.d2 != 2:
        raise SpeedupError("the product-form check applies to rank-2 over dimension-2")
    return all(v[1] == 0 for v in cocycle.tables[0].values()) and all(
        v[0] == 0 for v in cocycle.tables[1].values()
    )


# ---------------------------------------------------------------- minimality

def orbit_of_zero(cocycle: PiecewiseCocycle, depth: int) -> tuple[array, tuple[int, ...]]:
    """Orbit of the zero atom as a staircase of blocks: `(codes, sides)`.

    O_0 = {0}, and O_i is the orbit of 0 under the generators before i.
    Generator i maps O_i forward one block at a time and stops at the
    first block whose first code lies in O_i; `sides[i]` is the number of
    blocks, O_i included.  So codes[t] is reached from 0 by the vector
    whose coordinates are the digits of t in mixed radix over `sides`,
    generator 0 least significant.  One code decides: the generators
    commute and permute the quotient, so each block is an orbit of the
    generators before i, either O_i itself or disjoint from O_i and from
    the blocks before it.
    """
    _require_valid(cocycle)
    codes = array("i", [0])  # the zero representative has code 0
    sides = []
    for i in range(cocycle.d2):
        perm = cocycle.permutation(i, depth)
        inner = set(codes)
        block = codes
        while (block := array("i", map(perm.__getitem__, block)))[0] not in inner:
            codes += block
        sides.append(len(codes) // len(inner))
    return codes, tuple(sides)


def minimality_to_depth(cocycle: PiecewiseCocycle, depth: int) -> dict[int, bool]:
    """Whether the orbit of 0 covers the full quotient at each depth.

    Below the resolution J the tables act on the coarser quotient only
    through the finer one, so the depth-J orbit is projected; from J up the
    orbit has the stabilizer's index as size (`derived_stage`).
    """
    _require_valid(cocycle)
    if depth < cocycle.depth:
        raise SpeedupError("check at least the cocycle resolution depth")
    out = {}
    for j in range(1, cocycle.depth):
        coarse = cocycle.chain.kr_partition(j)
        classes = cocycle.chain.kr_partition(cocycle.depth).lift(array("i", range(coarse.size)), coarse)
        out[j] = len({classes[c] for c in orbit_of_zero(cocycle, cocycle.depth)[0]}) == coarse.size
    for j in range(cocycle.depth, depth + 1):
        out[j] = _stabilizer(cocycle, j).index == cocycle.chain.index(j)
    return out


# ---------------------------------------------------------------- derived chain

@record(frozen=True)
class DerivedChainReport:
    first_depth: int
    stages: tuple[IntegerLattice, ...]
    orbit_sizes: tuple[int, ...]

    def stage(self, j: int) -> IntegerLattice:
        return self.stages[j - self.first_depth]


def _forward_sum(cocycle: PiecewiseCocycle, perms, counts) -> tuple[int, ...]:
    """c(v, 0) for a vector v of counts >= 0: the table values summed up
    the staircase path from the zero atom (code 0), counts[i] forward steps
    of generator i up its depth-J permutation perms[i], i = 0, 1, ..."""
    total, c = (0,) * cocycle.d1, 0
    for (vectors, ids), perm, n in zip(cocycle._maps, perms, counts):
        for _ in range(n):
            total = _vadd(total, vectors[ids[c]])
            c = perm[c]
    return total


def _stabilizer(cocycle: PiecewiseCocycle, depth: int) -> IntegerLattice:
    """D_depth for depth >= J, as `derived_stage` derives it, without the
    minimality check; the basis of D_J and phi on it are kept on the cocycle.

    Column j of the basis is w = side e_j - r with r >= 0, and phi(w) is
    c(side e_j, 0) - c(r, 0), two forward sums: c(r + w, 0) = c(r, w.0) +
    c(w, 0), and c(r, w.0) = c(r, 0) because w.0 lies in the zero atom."""
    if cocycle._stabilizer_basis is None:
        codes, sides = orbit_of_zero(cocycle, cocycle.depth)
        perms = [cocycle.permutation(i, cocycle.depth) for i in range(cocycle.d2)]
        strides = list(accumulate(sides, mul, initial=1))  # strides[j] = |O_j|
        columns, phi = [], []
        for j, side in enumerate(sides):
            # one step of generator j past the first code of its last block
            t = codes.index(perms[j][codes[(side - 1) * strides[j]]], 0, strides[j])
            r = [t // stride % s for stride, s in zip(strides, sides)]
            column = [-e for e in r]
            column[j] += side
            columns.append(column)
            phi.append(tuple(map(sub, _forward_sum(cocycle, perms, [0] * j + [side]), _forward_sum(cocycle, perms, r))))
        cocycle._stabilizer_basis = (columns, phi)
    columns, phi = cocycle._stabilizer_basis
    matrix = [[v[r] for v in phi] + [-e for e in row] for r, row in enumerate(cocycle.chain.stage(depth).rows)]
    kernel = _integer_kernel(matrix, cocycle.d2 + cocycle.d1)
    return IntegerLattice.from_columns(
        [[sum(a * col[r] for a, col in zip(k, columns)) for r in range(cocycle.d2)] for k in kernel]
    )


def derived_stage(cocycle: PiecewiseCocycle, depth: int) -> IntegerLattice:
    """Stabilizer D_depth of the zero atom, from the depth-J stabilizer.

    The orbit staircase is walked once per cocycle, at the resolution J.
    With `(codes, sides) = orbit_of_zero(cocycle, J)`, generator j takes 0
    to perm_j^sides[j](0), a point of O_j = codes[:prod(sides[:j])] whose
    index has the digit vector r.  So column j, sides[j] e_j - r, lies in
    D_J.  The columns are triangular with index prod(sides), the orbit
    size, which is the stabilizer's index by orbit-stabilizer: they are a
    basis B of D_J.  The move w takes a point x to x + c(w, x), and
    c(w, x) depends only on the depth-J atom of x: each step adds a table
    value, constant on depth-J atoms, and maps depth-J atoms onto depth-J
    atoms.  So phi(w) = c(w, 0) is a homomorphism on D_J, because
    c(v + w, 0) = c(v, w.0) + c(w, 0) and w.0 lies in the zero atom; and w
    fixes the zero atom at depth j >= J iff w lies in D_J and
    w.0 = phi(w) lies in Gamma_j.  Hence D_j is B times the first d2
    coordinates of the integer kernel of [phi(B) | -G_j], G_j the basis of
    Gamma_j, and D_j <= D_{j-1} because Gamma_j <= Gamma_{j-1}.  Its index
    is the orbit size, and one short of the quotient raises
    NotMinimalAtDepth.  Depths below the cocycle resolution are rejected:
    the induced atom maps only exist on quotients the tables refine.
    """
    _require_valid(cocycle)
    if depth < cocycle.depth:
        raise SpeedupError("stabilizers are defined from the cocycle resolution depth up")
    lattice = _stabilizer(cocycle, depth)
    quotient = cocycle.chain.index(depth)
    if lattice.index != quotient:
        raise NotMinimalAtDepth(depth, lattice.index, quotient)
    return lattice


def derived_chain(cocycle: PiecewiseCocycle, depth: int) -> DerivedChainReport:
    """Stabilizer lattices of the zero atom, stages J up to `depth`."""
    _require_valid(cocycle)
    if depth < cocycle.depth:
        raise SpeedupError("derive at least to the cocycle resolution depth")
    stages = tuple(derived_stage(cocycle, j) for j in range(cocycle.depth, depth + 1))
    return DerivedChainReport(cocycle.depth, stages, tuple(lat.index for lat in stages))


def derived_odometer(cocycle: PiecewiseCocycle, checked_depth: int = 3) -> OdometerChain:
    """The speedup presented as an odometer chain over its stabilizers.

    Stabilizers exist from the cocycle resolution J up (`derived_stage`),
    so chain stage i is the stabilizer of the zero atom at depth J + i - 1;
    for J = 1 that is depth i.  The orbit staircase runs once, at depth J,
    and each stage is one integer kernel on top of it.  Dropping the first
    stages of a decreasing chain leaves a cofinal chain, with the same
    odometer and the same value group.  The chain's value group is taken
    symbolically from the base chain, which is justified by the
    orbit-stabilizer equality of indices; that equality is verified at
    every realized stage and `checked_depth` stages are realized eagerly
    here.
    """
    _require_valid(cocycle)

    def stage_fn(j: int) -> IntegerLattice:
        # a closure, so that a tracer that wraps `derived_stage` sees each call;
        # derived_stage raises NotMinimalAtDepth when the index falls short
        return derived_stage(cocycle, cocycle.depth + j - 1)

    def value_group_fn() -> ValueGroup:
        return cocycle.chain.clopen_value_group()

    provider = DerivedProvider(
        cocycle.d2, stage_fn, label="derived-speedup", value_group_fn=value_group_fn
    )
    chain = OdometerChain(cocycle.d2, provider)
    for j in range(1, checked_depth + 1):
        chain.stage(j)
    return chain


# ---------------------------------------------------------------- structure

def sandwich_diagonal_check(lattice: IntegerLattice, m: int, m_tilde: int) -> bool:
    """Cross-check of the rigidity statement for index-6^j subgroups.

    Hypotheses: the index is a power of six and the group is sandwiched
    between diag(3^m, 2^m) and diag(3^m_tilde, 2^m_tilde).  Under them the
    group must be exactly diag(3^j, 2^j); a False return would expose an
    implementation bug rather than a counterexample.
    """
    if lattice.dim != 2:
        raise HypothesisFailed("the check applies to two-dimensional lattices")
    from .lattice import prime_factors

    fac = prime_factors(lattice.index)
    j = fac.get(2, 0)
    if set(fac) - {2, 3} or fac.get(3, 0) != j:
        raise HypothesisFailed(f"index {lattice.index} is not a power of 6")
    lower = IntegerLattice.diagonal([3**m, 2**m])
    upper = IntegerLattice.diagonal([3**m_tilde, 2**m_tilde])
    if not lower.is_sublattice(lattice):
        raise HypothesisFailed(f"diag(3^{m}, 2^{m}) is not inside the group")
    if not lattice.is_sublattice(upper):
        raise HypothesisFailed(f"the group is not inside diag(3^{m_tilde}, 2^{m_tilde})")
    return lattice == IntegerLattice.diagonal([3**j, 2**j])


def constant_cocycle(chain: OdometerChain, depth: int, vectors) -> PiecewiseCocycle:
    """Cocycle whose generator displacements do not depend on the point."""
    reps = chain.system(depth).reps
    tables = tuple({rep: tuple(v) for rep in reps} for v in vectors)
    return PiecewiseCocycle(chain, len(vectors), depth, tables)
