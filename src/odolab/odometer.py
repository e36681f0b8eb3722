"""Z^d odometers as decreasing chains of finite-index sublattices.

A chain is described by a provider: an explicit finite list of lattices, a
diagonal power rule j -> diag(b_1^(a_1 j), ..., b_d^(a_d j)), or a derived
rule that computes each stage on demand (used for the stabilizer chains of
bounded speedups).  Stages are realized lazily and cached; nesting is
checked at realization time.  Realizing the same stage twice always yields
the identical lattice, so the cache behaves as a single-writer memo and the
chain presents pure semantics to concurrent readers.

The chain also owns one `AtomSpace` per depth: the integer encoding of
its depth-j cylinder atoms, on which the speedup, sampling and castle
layers all work.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable
from fractions import Fraction
from itertools import product as iter_product
from math import prod

from ._record import record
from .lattice import (
    CosetSystem,
    DimensionMismatch,
    IntegerLattice,
    LatticeError,
    RationalLattice,
    prime_factors,
)
from .valuegroup import ValueGroup


class ChainError(LatticeError):
    """Base class for odometer-chain errors."""


class NotNested(ChainError):
    """A realized stage fails to contain the next one."""

    def __init__(self, depth: int, witness):
        self.depth = depth
        self.witness = witness
        super().__init__(f"stage {depth + 1} is not inside stage {depth}; witness {witness}")


class ChainDepthError(ChainError):
    """An explicit chain was asked for a stage beyond its data."""


# ---------------------------------------------------------------- providers

@record(frozen=True)
class ExplicitProvider:
    lattices: tuple[IntegerLattice, ...]

    def stage(self, j: int) -> IntegerLattice:
        if j > len(self.lattices):
            raise ChainDepthError(f"explicit chain has {len(self.lattices)} stages, asked for {j}")
        return self.lattices[j - 1]

    def describe(self) -> str:
        return f"explicit[{len(self.lattices)}]"


@record(frozen=True)
class DiagonalPowerProvider:
    """Stage j is diag(b_i ** (a_i * j)): a coordinate product at every depth."""

    bases: tuple[int, ...]
    coeffs: tuple[int, ...]

    def stage(self, j: int) -> IntegerLattice:
        return IntegerLattice.diagonal([b ** (a * j) for b, a in zip(self.bases, self.coeffs)])

    def describe(self) -> str:
        rule = ",".join(f"{b}^{a}j" for b, a in zip(self.bases, self.coeffs))
        return f"diagpow({rule})"


@record(frozen=True)
class DerivedProvider:
    """Stage rule supplied by a callback (stabilizer chain of a speedup)."""

    dim: int
    stage_fn: Callable[[int], IntegerLattice]
    label: str = "derived"
    value_group_fn: Callable[[], ValueGroup] | None = None

    def stage(self, j: int) -> IntegerLattice:
        return self.stage_fn(j)

    def describe(self) -> str:
        return self.label


Provider = ExplicitProvider | DiagonalPowerProvider | DerivedProvider


class OdometerChain:
    """Lazily realized decreasing chain of finite-index sublattices of Z^d."""

    def __init__(self, dim: int, provider: Provider):
        self.dim = dim
        self.provider = provider
        self._stages: dict[int, IntegerLattice] = {}
        self._spaces: dict[int, AtomSpace] = {}

    # convenience constructors ----------------------------------------

    @staticmethod
    def diagonal_power(bases, coeffs=None) -> "OdometerChain":
        bases = tuple(int(b) for b in bases)
        coeffs = tuple(1 for _ in bases) if coeffs is None else tuple(int(a) for a in coeffs)
        return OdometerChain(len(bases), DiagonalPowerProvider(bases, coeffs))

    @staticmethod
    def explicit(lattices) -> "OdometerChain":
        lattices = tuple(lattices)
        return OdometerChain(lattices[0].dim, ExplicitProvider(lattices))

    # stages ------------------------------------------------------------

    def stage(self, j: int) -> IntegerLattice:
        if j < 1:
            raise ChainError("stages are numbered from 1")
        if j not in self._stages:
            lat = self.provider.stage(j)
            if lat.dim != self.dim:
                raise DimensionMismatch("provider returned a lattice of wrong dimension")
            self._check_nested(j, lat)
            self._stages[j] = lat
        return self._stages[j]

    def _check_nested(self, j: int, lat: IntegerLattice) -> None:
        prev = self._stages.get(j - 1)
        if prev is not None and not lat.is_sublattice(prev):
            witness = next(c for c in lat.columns() if not prev.contains(c))
            raise NotNested(j - 1, witness)
        nxt = self._stages.get(j + 1)
        if nxt is not None and not nxt.is_sublattice(lat):
            witness = next(c for c in nxt.columns() if not lat.contains(c))
            raise NotNested(j, witness)

    def system(self, j: int) -> CosetSystem:
        return self.kr_partition(j).system

    def index(self, j: int) -> int:
        return self.stage(j).index

    def describe(self) -> str:
        return f"dim={self.dim} {self.provider.describe()}"

    # invariants ------------------------------------------------------------

    def kr_partition(self, j: int) -> "AtomSpace":
        """The depth-j cylinder atoms, built once per depth and kept."""
        if j not in self._spaces:
            self._spaces[j] = AtomSpace(self, j)
        return self._spaces[j]

    def cohomology_stage(self, j: int) -> RationalLattice:
        return self.stage(j).dual()

    def freeness_evidence(self, depth: int) -> "FreenessReport":
        lat = self.stage(depth)
        for j in range(1, depth):
            self.stage(j)  # realize for the nesting audit
        shortest = _shortest_vector(lat)
        certified = None
        if isinstance(self.provider, DiagonalPowerProvider):
            certified = all(
                b > 1 and a >= 1 for b, a in zip(self.provider.bases, self.provider.coeffs)
            )
        return FreenessReport(
            depth=depth,
            intersection=lat,
            indices=tuple(self.index(j) for j in range(1, depth + 1)),
            shortest_nonzero=shortest,
            certified_free=certified,
        )

    def clopen_value_group(self, depth: int | None = None) -> "ValueGroup":
        if depth is not None and depth < 1:
            raise ChainError(f"depth bound must be at least 1, got {depth}")
        if isinstance(self.provider, DiagonalPowerProvider):
            infinite: set[int] = set()
            for b, a in zip(self.provider.bases, self.provider.coeffs):
                if a >= 1:
                    infinite |= set(prime_factors(b)) if b > 1 else set()
            return ValueGroup(frozenset(infinite), (), exact=True, depth_checked=None)
        if isinstance(self.provider, DerivedProvider) and self.provider.value_group_fn is not None:
            return self.provider.value_group_fn()
        if isinstance(self.provider, ExplicitProvider):
            depth = len(self.provider.lattices) if depth is None else min(depth, len(self.provider.lattices))
        if depth is None:
            raise ChainError("a depth bound is required for this provider")
        sup: dict[int, int] = {}
        for j in range(1, depth + 1):
            for p, e in prime_factors(self.index(j)).items():
                sup[p] = max(sup.get(p, 0), e)
        return ValueGroup(
            frozenset(),
            tuple(sorted(sup.items())),
            exact=False,
            depth_checked=depth,
        )

    def is_product_type_stagewise(self, depth: int) -> bool:
        """Sufficient-only check: all realized stages have a diagonal basis.

        A non-diagonal stage does not rule out product type up to
        conjugacy, so False here means "not visibly a product".
        """
        if depth < 1:
            raise ChainError(f"depth bound must be at least 1, got {depth}")
        return all(self.stage(j).is_diagonal() for j in range(1, depth + 1))


@record(frozen=True)
class FreenessReport:
    """Depth-bounded evidence about triviality of the chain intersection.

    `certified_free` is True only for diagonal-power rules with every
    exponent strictly increasing; otherwise the report is evidence, not a
    theorem, since the intersection is a statement about all depths.
    """

    depth: int
    intersection: IntegerLattice
    indices: tuple[int, ...]
    shortest_nonzero: tuple[int, ...] | None
    certified_free: bool | None


def _shortest_vector(lat: IntegerLattice):
    """Shortest nonzero vector in the box [-r, r]^d, sign-normalized, ties to
    the lexicographically least; r is the least sup norm of a basis column,
    which bounds one lattice vector.  Only lattice points are visited: on
    the canonical triangular basis x_i runs, last to first, through its
    residue class o_i mod rows[i][i] in the box, o_i carrying the
    coefficients already chosen (Cohen, GTM 138, 2.4)."""
    rows, zero = lat.rows, (0,) * lat.dim
    radius = min(max(abs(e) for e in col) for col in lat.columns())
    points = [((), zero)]  # (x_{i+1}, ..., x_{d-1}; o_0, ..., o_i)
    for i in reversed(range(lat.dim)):
        m = rows[i][i]
        points = [
            ((x,) + tail, [o + (x - offsets[i]) // m * row[i] for o, row in zip(offsets[:i], rows)])
            for tail, offsets in points
            for x in range(-radius + (offsets[i] + radius) % m, radius + 1, m)
        ]
    # box and lattice are symmetric, and the sign-normalized vectors are those above zero
    keys = [(sum(x * x for x in v), v) for v, _ in points if v > zero]
    return min(keys)[1] if keys else None


class AtomSpace:
    """The chain's depth-j Kakutani-Rokhlin partition, atoms coded as integers.

    One atom per coset of stage j, all of measure 1/index.  A code is the
    coset representative in mixed radix over the coset rectangle, most
    significant coordinate first, so code order is the lexicographic order
    of representatives; on a one-dimensional chain the code is the residue
    mod the index.  `OdometerChain.kr_partition` keeps one per depth.

    `translate` runs on the code's digits, least significant first, with
    no representative tuple built per atom.  The stage's canonical basis is
    upper triangular with the rectangle on its diagonal, so reduction is
    mixed-radix arithmetic in which digit i wrapping q times subtracts
    q * rows[k][i] from each more significant digit k (Cohen, GTM 138,
    2.4); on a diagonal stage nothing carries.  `translate` sets its
    offsets up once per distinct vector (a stage uses few) and raises
    `DimensionMismatch` on a vector whose length is not the chain's
    dimension.  `lift` reads an array indexed by coarser codes at every
    code of this space at once, from slices of it, one per block of codes
    that share their more significant digits and the wraps of the least
    significant.
    A level map's translates are read off its displacement table
    (`displacements`): the most significant digit carries into nothing, so
    a translate is the code plus one table entry per run of the other digits
    that exchange carries, and the table costs one or two `translate` calls
    per vector and digit value, not per atom.  A walk along tower order
    reads only the codes it visits, and a map needed whole (a cocycle's
    quotient permutation) is the images of `range(size)`.
    """

    def __init__(self, chain: OdometerChain, depth: int):
        # the chain keeps its spaces, so a space names its chain by the
        # chain's stage dict rather than refer back to it in a cycle
        self._chain_stages = chain._stages
        self.depth = depth
        self.system = chain.stage(depth).coset_system()
        self.rectangle = self.system.rectangle
        self.size = chain.index(depth)
        strides = [1] * len(self.rectangle)
        for i in reversed(range(len(self.rectangle) - 1)):
            strides[i] = strides[i + 1] * self.rectangle[i + 1]
        self.strides = tuple(strides)
        # column i of the basis above its diagonal entry: the carries of
        # digit i into the more significant digits (none when all zero)
        rows = self.system.lattice.rows
        columns = (tuple(rows[k][i] for k in range(i)) for i in range(len(rows)))
        self._carries = tuple(col if any(col) else () for col in columns)
        # the runs of digits 1..d-1 that exchange carries, most significant
        # first, as (stride of the run's least significant digit, number of
        # values of its digits): a carry of digit i into digit k >= 1 joins
        # the digits k..i
        runs: list[tuple[int, int]] = []  # (first, last) digit
        for i in range(1, len(rows)):
            first = min((k for k in range(1, i) if rows[k][i]), default=i)
            while runs and runs[-1][1] >= first:
                first = min(first, runs.pop()[0])
            runs.append((first, i))
        self._runs = tuple((strides[last], strides[first - 1] // strides[last]) for first, last in runs)
        self._offsets: dict[tuple[int, ...], tuple[tuple[int, int, int, tuple[int, ...]], ...]] = {}
        self._zero_fibers: dict[int, tuple[list[int], dict[int, int]]] = {}  # `fibers`, per finer depth

    @property
    def atom_measure(self) -> Fraction:
        return Fraction(1, self.size)

    def __len__(self) -> int:
        return self.size

    def atoms(self) -> range:
        return range(self.size)

    def encode(self, rep) -> int:
        return sum(r * s for r, s in zip(rep, self.strides))

    def decode(self, code: int) -> tuple[int, ...]:
        out = []
        for s in self.strides:
            out.append(code // s)
            code %= s
        return tuple(out)

    def encode_vector(self, vector) -> int:
        """Atom of the orbit point reached from 0 by an integer vector."""
        return self.encode(self.system.reduce(vector))

    def translate(self, code: int, vector) -> int:
        """Atom of the points of atom `code` moved by an integer vector."""
        try:
            offsets = self._offsets[vector]
        except (KeyError, TypeError):  # a new vector, or an unhashable one
            offsets = self._vector_offsets(vector)
        out, carry = 0, None
        for o, M, s, col in offsets:  # digit i of the code plus digit i of the offset
            t = code % M - code % s + o
            if carry:  # carries owed to digits 0..i, digit i's last
                t -= carry.pop() * s
            if col and (q := t // M):
                carry = [c + q * a for c, a in zip(carry, col)] if carry else [q * a for a in col]
            out += t % M
        return out

    def _vector_offsets(self, vector) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
        """(r_i * s_i, m_i * s_i, s_i, carries of digit i) per coordinate,
        least significant first, for the vector's representative r; kept per
        vector."""
        rep = self.system.reduce(vector)
        offsets = tuple(
            (r * s, m * s, s, col)
            for r, m, s, col in zip(rep, self.rectangle, self.strides, self._carries)
        )[::-1]
        self._offsets[tuple(vector)] = offsets
        return offsets

    def displacements(self, vectors, ids) -> "Displacements":
        """The level map `vectors[ids[c]]` (no step at id 0) read through its
        displacement table on this space (`Displacements`)."""
        return Displacements(self, vectors, ids)

    def lift(self, values, coarse: "AtomSpace") -> array:
        """The `array('i')` whose entry c is `values[k]`, k the code of the
        atom of a coarser space of the same chain that contains atom c.

        A code is a prefix of digits 0..d-2 and a least significant digit
        x = q * m + r, m = coarse.rectangle[-1] (which divides this space's
        last side).  At the coarser stage r stays the last digit and the q
        wraps shift the prefix by q times that digit's carries, so the m
        codes of one (prefix, q) block map onto the m consecutive coarse
        codes from b, the coarse code of the shifted prefix with r = 0:
        the result is built from slices `values[b:b + m]`, with one prefix
        reduced per block and no work per atom.  When the last coarse digit
        carries nothing (always on a diagonal stage), a prefix's blocks are
        one slice repeated.  Digit 0 carries into nothing, so a block reads
        it mod coarse.rectangle[0] and the codes repeat with that period in
        it (a 1-D space has no prefix digits).  Raises ChainError unless
        `coarse` belongs to this space's chain at a depth at most this
        space's."""
        if coarse._chain_stages is not self._chain_stages or coarse.depth > self.depth:
            raise ChainError("lift needs a coarser atom space of the same chain")
        m = coarse.rectangle[-1]
        wraps = self.rectangle[-1] // m
        shift = coarse._carries[-1]
        # the prefix digits at the coarser stage, least significant first:
        # (index, side, stride, carries)
        prefix_len = len(self.rectangle) - 1
        digits = tuple(zip(range(prefix_len), coarse.rectangle, coarse.strides, coarse._carries))[::-1]

        def block(x):  # coarse code of the shifted prefix x, reduced in place
            b = 0
            for i, side, stride, col in digits:
                t = x[i]
                if col and (q := t // side):
                    for k, a in enumerate(col):
                        x[k] -= q * a
                b += t % side * stride
            return b

        sides = list(self.rectangle[:-1])
        periods = 1
        if sides:
            sides[0], periods = coarse.rectangle[0], sides[0] // coarse.rectangle[0]
        out = array("i")
        for prefix in iter_product(*map(range, sides)):
            if shift:
                for q in range(wraps):
                    b = block([x - q * a for x, a in zip(prefix, shift)])
                    out.extend(values[b : b + m])
            else:
                b = block(list(prefix))
                out.extend(values[b : b + m] * wraps)
        return out * periods if periods > 1 else out

    def fibers(self, code: int, finer: "AtomSpace") -> list[int]:
        """Atom codes at the finer depth refining this atom, in increasing order.

        The fiber of this atom is the zero atom's fiber translated by the
        atom's representative, read off one displacement table.  The zero
        fiber is kept per finer depth: both stages have canonical
        upper-triangular bases, so the finer basis is the coarser one times
        an integer upper-triangular matrix with diagonal
        finer.rectangle[i] // self.rectangle[i], and coarse-basis
        combinations with coefficients in that box are a transversal of the
        coarser lattice modulo the finer one (Cohen, GTM 138, 2.4).  It is
        stepped out from the zero atom (code 0) one column of the coarse
        basis at a time: the atoms so far, translated by the column 1, ...,
        n - 1 times (n its side of the box), each translate one read of the
        column's displacement table.
        """
        if finer._chain_stages is not self._chain_stages or finer.depth < self.depth:
            raise ChainError("fibers need a finer atom space of the same chain")
        if (zero := self._zero_fibers.get(finer.depth)) is None:
            codes, ones = [0], {0: 1}  # every code read is given id 1
            for col, f, c in zip(self.system.lattice.columns(), finer.rectangle, self.rectangle):
                step, layer = finer.displacements([None, col], ones), codes
                for _ in range(f // c - 1):
                    layer = step.images(layer)
                    ones.update(dict.fromkeys(layer, 1))
                    codes.extend(layer)
            zero = self._zero_fibers[finer.depth] = (codes, ones)
        codes, ones = zero
        return sorted(finer.displacements([None, self.decode(code)], ones).images(codes))


class Displacements:
    """A level map on an atom space, read through its displacement table.

    The map is `vectors[ids[c]]` at code c, with no step at id 0 (the table
    and the ids of a `castles.StepMap`, or a cocycle's generator table).
    Both are read where they live: vectors appended to the table after this
    object was made get their rows at the next read, and ids written since
    are read as they are.

    Digit 0 carries into nothing, so modulo the index translate(c, v) is
    c + D[x][i] + H[s][i] for v = `vectors[i]`, with:

    - x = c % W, the value of the last run of carrying digits (stride 1,
      W values), and D[x][i] = translate(x, v) - x;
    - s = c // W % len(H), the setting of the other runs' digits, in code
      order, and H[s][i] = the sum over those runs g, at their digit values
      y_g, of translate(y_g * t_g, v) - y_g * t_g - translate(0, v), t_g
      the stride of the run's least significant digit.  A space whose only
      run is the last (every 2-D space, and a 3-D space whose digits 1 and
      2 carry into each other) has no head term, and `heads` is None.

    Rows cost one `translate` call per vector and value of each run's
    digits, whatever the number of atoms; when the last run is one digit,
    D costs two per vector: the digit x + r (r that of the vector) wraps at
    most once, at x = W - r, and on either side of the wrap
    translate(x, v) - x is constant.  Row entries at id 0 are None and are
    never added: the readers test the id first, so an atom with no step
    never gets an image inside the space."""

    def __init__(self, space: AtomSpace, vectors, ids):
        self.space, self.vectors, self.ids = space, vectors, ids
        *self._upper, (_, self.width) = space._runs or ((1, 1),)  # one dimension: x is always 0
        self.rows: list[list] = [[None] for _ in range(self.width)]
        settings = prod(size for _, size in self._upper)
        self.heads: list[list] | None = [[None] for _ in range(settings)] if self._upper else None

    def fill(self) -> None:
        """Give the vectors appended since the last fill their rows."""
        new = self.vectors[len(self.rows[0]) :]
        if not new:
            return
        translate, width = self.space.translate, self.width
        if width == self.space.rectangle[-1]:  # the last run is one digit
            below = [translate(0, v) for v in new]
            wraps = [-b % width for b in below]
            above = [translate(x, v) - x for x, v in zip(wraps, new)]
            for x, row in enumerate(self.rows):
                row.extend([b if x < w else a for b, w, a in zip(below, wraps, above)])
        else:
            for x, row in enumerate(self.rows):
                row.extend([translate(x, v) - x for v in new])
        if self.heads is not None:
            firsts = self.rows[0][-len(new) :]  # translate(0, v)
            terms = [
                [[translate(y * t, v) - y * t - b for v, b in zip(new, firsts)] for y in range(size)]
                for t, size in self._upper
            ]
            for head, cols in zip(self.heads, iter_product(*terms)):
                head.extend(map(sum, zip(*cols)))

    def column(self, c: int, height: int) -> array:
        """The atoms from c up the map: `height` of them, or fewer when the
        column meets an atom with no step, which it ends with.  One step per
        atom, read off the table, with no image array of the space."""
        self.fill()
        ids, rows, heads, n, w = self.ids, self.rows, self.heads, self.space.size, self.width
        column = [c]
        append = column.append
        if heads is None:
            for _ in range(height - 1):
                if not (i := ids[c]):
                    break
                c = (c + rows[c % w][i]) % n
                append(c)
        else:
            settings = len(heads)
            for _ in range(height - 1):
                if not (i := ids[c]):
                    break
                c = (c + rows[c % w][i] + heads[c // w % settings][i]) % n
                append(c)
        return array("i", column)

    def images(self, codes) -> array:
        """The `array('i')` whose entry j is the atom the map sends
        `codes[j]` onto, -1 where its id is 0: one step per code, read off
        the table as in `column`; `images(range(space.size))` is the whole
        map."""
        self.fill()
        ids, rows, heads, n, w = self.ids, self.rows, self.heads, self.space.size, self.width
        codes = list(codes)  # a list iterates faster than an array
        if heads is None:
            return array("i", [(c + rows[c % w][i]) % n if (i := ids[c]) else -1 for c in codes])
        settings = len(heads)
        return array(
            "i", [(c + rows[c % w][i] + heads[c // w % settings][i]) % n if (i := ids[c]) else -1 for c in codes]
        )
