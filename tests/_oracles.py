"""Brute-force reference computations, independent of the library's fast paths.

Every oracle here works by enumeration so it cannot share a bug with the
triangular-solve code it is used to check.
"""

import functools
from array import array
from fractions import Fraction
from itertools import combinations, count, permutations, product


def span_in_box(generators, coeff_bound):
    """All integer combinations of `generators` with |coefficient| <= bound."""
    dim = len(generators[0])
    points = set()
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=len(generators)):
        v = tuple(sum(c * g[i] for c, g in zip(coeffs, generators)) for i in range(dim))
        points.add(v)
    return points


def minimal_generators_2d(generators, coeff_bound=12):
    """Canonical-shape basis of a rank-2 lattice, found by enumeration.

    Returns rows [[a, b], [0, d]] where (a, 0) is the lattice point with the
    least positive first coordinate on the axis, d is the least positive
    second coordinate overall, and b is (a,0)-reduced.
    """
    pts = span_in_box(generators, coeff_bound)
    a = min(x for (x, y) in pts if y == 0 and x > 0)
    d = min(y for (_, y) in pts if y > 0)
    b = min(x for (x, y) in pts if y == d and 0 <= x < a)
    return ((a, b), (0, d))


def residue_classes(lattice_contains, dim, box):
    """Distinct residues of the points of [0, box)^dim under the lattice.

    `lattice_contains` decides membership of a difference vector; counting
    classes by pairwise comparison keeps this independent of any canonical
    reduction routine.
    """
    classes = []
    for v in product(*(range(b) for b in box)):
        for rep in classes:
            if lattice_contains(tuple(x - y for x, y in zip(v, rep))):
                break
        else:
            classes.append(v)
    return classes


def shortest_nonzero_in_box(lattice_contains, dim, radius):
    """Shortest nonzero lattice vector with sup-norm <= radius, by scan.

    Ties broken toward the sign-normalized (first nonzero coordinate
    positive), lexicographically smallest vector.
    """
    best = None
    for v in product(*(range(-radius, radius + 1) for _ in range(dim))):
        if all(x == 0 for x in v):
            continue
        if not lattice_contains(v):
            continue
        lead = next(x for x in v if x != 0)
        if lead < 0:
            v = tuple(-x for x in v)
        key = (sum(x * x for x in v), v)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def pairs_integrally(vector, generators):
    """True iff `vector` (rationals) has integer dot product with every generator."""
    for g in generators:
        dot = sum(Fraction(x) * y for x, y in zip(vector, g))
        if dot.denominator != 1:
            return False
    return True


def leibniz_det(matrix):
    """Determinant as the Leibniz sum over all permutations."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def rank_by_minors(matrix):
    """Largest r such that some r x r minor is nonzero."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    for r in range(min(m, n), 0, -1):
        for rows in combinations(range(m), r):
            for cols in combinations(range(n), r):
                if leibniz_det([[matrix[i][j] for j in cols] for i in rows]):
                    return r
    return 0


def integer_coordinates(vector, basis):
    """Integer c with sum(c_k * basis_k) == vector, or None.

    `basis` holds independent integer vectors.  The coordinates are solved by
    Cramer's rule on the first nonsingular square block of rows, then
    checked on every row.
    """
    k = len(basis)
    if k == 0:
        return () if all(x == 0 for x in vector) else None
    for rows in combinations(range(len(vector)), k):
        block = [[basis[j][i] for j in range(k)] for i in rows]
        det = leibniz_det(block)
        if det:
            break
    coords = []
    for j in range(k):
        swapped = [row[:j] + [vector[i]] + row[j + 1 :] for row, i in zip(block, rows)]
        c = Fraction(leibniz_det(swapped), det)
        if c.denominator != 1:
            return None
        coords.append(int(c))
    if any(sum(c * b[i] for c, b in zip(coords, basis)) != vector[i] for i in range(len(vector))):
        return None
    return tuple(coords)


def rational_members_in_box(den, columns, grid, radius):
    """The integer vectors v with |v_i| <= radius for which v/grid lies in
    the lattice (1/den) * span_Z(columns), `columns` being d independent
    integer vectors.

    v/grid is a member iff its coordinates in the generators are integers.
    By Cramer's rule coordinate i is den * det(N_i) / (grid * det(N)), where
    N has the generators as columns and N_i has column i replaced by v.
    det(N_i) is linear in v, so it is read off the determinants with v a
    unit vector; no elimination is shared with the library.
    """
    dim = len(columns)
    rows = [[columns[j][i] for j in range(dim)] for i in range(dim)]
    det = leibniz_det(rows)
    unit = [[int(k == i) for i in range(dim)] for k in range(dim)]
    cramer = [
        [leibniz_det([row[:i] + [unit[k][r]] + row[i + 1 :] for r, row in enumerate(rows)]) for k in range(dim)]
        for i in range(dim)
    ]
    modulus = grid * det
    members = set()
    for v in product(range(-radius, radius + 1), repeat=dim):
        if all(den * sum(c * x for c, x in zip(cramer[i], v)) % modulus == 0 for i in range(dim)):
            members.add(v)
    return members


def rational_group_generated_by(denominators, probe_denominator_bound=64):
    """Subgroup of Q generated by {1/n} as the set of reduced denominators
    b <= bound with 1/b in the group (the group is a union of (1/n)Z's)."""
    from math import lcm

    acc = 1
    members = set()
    for n in denominators:
        acc = lcm(acc, n)
    for b in range(1, probe_denominator_bound + 1):
        if acc % b == 0:
            members.add(b)
    return members


def fibers_by_scan(coarse, code, finer):
    """Finer atom codes whose representative reduces to the coarser atom `code`.

    Scans every finer atom, decoding and reducing each one at the coarser
    depth, so it shares no transversal with `AtomSpace.fibers`.
    """
    out = []
    for c in range(finer.size):
        if coarse.encode(coarse.system.reduce(finer.decode(c))) == code:
            out.append(c)
    return out


def fibers_by_transversal(coarse, code, finer):
    """Finer atom codes refining the coarser atom `code`, in increasing order.

    Encodes one point per finer atom: the atom's representative plus each
    coarse-basis combination with coefficients in the box
    prod range(finer.rectangle[i] // coarse.rectangle[i]), a transversal of
    the coarser lattice modulo the finer one (Cohen, GTM 138, 2.4).
    """
    rep = coarse.decode(code)
    cols = coarse.system.lattice.columns()
    box = [range(f // c) for f, c in zip(finer.rectangle, coarse.rectangle)]
    return sorted(
        finer.encode_vector(
            tuple(r + sum(k * col[i] for k, col in zip(coeffs, cols)) for i, r in enumerate(rep))
        )
        for coeffs in product(*box)
    )


def fraction_cone_member(normals_flags, x):
    """Membership of the integer vector x in the cone cut out by rational
    normals: nonzero, and every dot product >= 0 (> 0 when strict), in Fractions."""
    if all(e == 0 for e in x):
        return False
    for normal, strict in normals_flags:
        val = sum(Fraction(a) * b for a, b in zip(normal, x))
        if val < 0 or (strict and val == 0):
            return False
    return True


def coset_members_by_l1(member, lattice_contains, base, radius):
    """Members v of the coset base + L with l1 norm <= radius, in
    (l1 norm, lexicographic) order, by scanning the box [-radius, radius]^d."""
    hits = []
    for v in product(range(-radius, radius + 1), repeat=len(base)):
        norm = sum(abs(x) for x in v)
        if norm > radius or not member(v):
            continue
        if lattice_contains(tuple(x - b for x, b in zip(v, base))):
            hits.append((norm, v))
    return [v for _, v in sorted(hits)]


def permutation_by_reduction(cocycle, i, depth):
    """Induced map of generator i on depth-`depth` representatives, as a dict.

    Adds each representative's table value and reduces the sum at that
    depth, one representative at a time, so it shares no atom coding with
    `PiecewiseCocycle.permutation`.
    """
    resolution = cocycle.chain.system(cocycle.depth)
    system = cocycle.chain.system(depth)
    perm = {}
    for rep in system.reps:
        p = cocycle.tables[i][resolution.reduce(rep)]
        perm[rep] = system.reduce(tuple(a + b for a, b in zip(rep, p)))
    return perm


def minimality_by_reduction(cocycle, depth):
    """`minimality_to_depth` on representatives: the orbit of zero under the
    `permutation_by_reduction` maps at max(j, J), and at each depth j the
    number of depth-j atoms its members lie in, each found by
    `coarsen_by_reduction`."""
    out = {}
    for j in range(1, depth + 1):
        probe = max(j, cocycle.depth)
        fine, coarse = cocycle.chain.kr_partition(probe), cocycle.chain.kr_partition(j)
        perms = [permutation_by_reduction(cocycle, i, probe) for i in range(cocycle.d2)]
        zero = (0,) * cocycle.d1
        orbit, queue = {zero}, [zero]
        while queue:
            # the maps permute a finite set: forward steps reach the whole orbit
            cur = queue.pop()
            for nxt in (perm[cur] for perm in perms):
                if nxt not in orbit:
                    orbit.add(nxt)
                    queue.append(nxt)
        atoms = {coarsen_by_reduction(fine, fine.encode(rep), coarse) for rep in orbit}
        out[j] = len(atoms) == coarse.size
    return out


def stabilizer_by_schreier(cocycle, depth):
    """`derived_stage` by orbit/stabilizer with Schreier generators: a BFS
    over forward and inverse permutations maps each orbit code to a
    reaching vector, and the generators reach(a) + e_i - reach(image of a)
    are folded into a canonical lattice whose index must equal the orbit
    size.  Raises `NotMinimalAtDepth` with the same message as
    `derived_stage`."""
    from odolab.lattice import IntegerLattice, _hnf_from_columns
    from odolab.speedup import NotMinimalAtDepth, SpeedupError

    reach = {0: (0,) * cocycle.d2}  # the zero representative has code 0
    queue = [0]
    perms = [cocycle.permutation(i, depth) for i in range(cocycle.d2)]
    inv_perms = [cocycle.inverse_permutation(i, depth) for i in range(cocycle.d2)]
    head = 0
    while head < len(queue):
        cur = queue[head]
        head += 1
        vec = reach[cur]
        for i in range(cocycle.d2):
            for nxt, delta in ((perms[i][cur], 1), (inv_perms[i][cur], -1)):
                if nxt not in reach:
                    new = list(vec)
                    new[i] += delta
                    reach[nxt] = tuple(new)
                    queue.append(nxt)
    quotient = cocycle.chain.index(depth)
    if len(reach) != quotient:
        raise NotMinimalAtDepth(depth, len(reach), quotient)
    # until the generators reach full rank they are all kept, and
    # `_hnf_from_columns` serves as the rank test; from then on each new one
    # is folded into the canonical basis
    basis: list[tuple[int, ...]] = []
    current: IntegerLattice | None = None
    zero = (0,) * cocycle.d2
    for code in sorted(reach):
        vec = reach[code]
        for i in range(cocycle.d2):
            img = perms[i][code]
            gen = list(vec)
            gen[i] += 1
            gen = tuple(a - b for a, b in zip(gen, reach[img]))
            if gen == zero:
                continue
            if current is not None:
                if not current.contains(gen):
                    current = IntegerLattice.from_columns(current.columns() + [gen])
                continue
            basis.append(gen)
            if _hnf_from_columns(basis, cocycle.d2) is not None:
                current = IntegerLattice.from_columns(basis)
    if current is None:
        raise SpeedupError("stabilizer generators do not span a finite-index subgroup")
    if current.index != len(reach):
        raise SpeedupError(
            f"orbit-stabilizer count mismatch: index {current.index}, orbit {len(reach)}"
        )
    return current


def stabilizer_by_staircase(cocycle, depth):
    """`derived_stage` off the orbit staircase walked at `depth` itself, not
    at the resolution: with `(codes, sides) = orbit_of_zero(cocycle, depth)`
    generator j returns after sides[j] blocks to the point of the orbit of
    the generators before it whose index has digit vector r, and the
    triangular columns sides[j] e_j - r span the stabilizer.  Raises
    `NotMinimalAtDepth` with the same message as `derived_stage`."""
    from odolab.lattice import IntegerLattice
    from odolab.speedup import NotMinimalAtDepth, orbit_of_zero

    codes, sides = orbit_of_zero(cocycle, depth)
    quotient = cocycle.chain.index(depth)
    if len(codes) != quotient:
        raise NotMinimalAtDepth(depth, len(codes), quotient)
    columns = []
    inner = 1
    for j, side in enumerate(sides):
        t = codes.index(cocycle.permutation(j, depth)[codes[(side - 1) * inner]], 0, inner)
        column = []
        for s in sides:
            t, digit = divmod(t, s)
            column.append(-digit)
        column[j] += side
        columns.append(column)
        inner *= side
    return IntegerLattice.from_columns(columns)


def translate_by_reduction(space, code, vector):
    """Atom code of atom `code` moved by `vector`: decode the representative,
    add the vector and reduce the sum at the space's depth, one tuple per call."""
    rep = space.decode(code)
    return space.encode(space.system.reduce(tuple(a + b for a, b in zip(rep, vector))))


def coarsen_by_reduction(fine, code, coarse):
    """Coarser atom containing the finer atom `code`: decode its representative
    and reduce it at the coarser depth.  A `coarse` space deeper than `fine`
    has no atom containing it: ValueError."""
    if coarse.depth > fine.depth:
        raise ValueError(f"depth {coarse.depth} is finer than depth {fine.depth}")
    return coarse.encode(coarse.system.reduce(fine.decode(code)))


def cylinder_labels_by_reduction(castle, coarse):
    """The labels `refine_pure_columns` takes, atom by atom: for each tower
    wider than 1, the `coarse` atom of each of its codes, laid out like the
    codes (`coarsen_by_reduction`); None for a tower of width 1."""
    space = castle.space
    return [
        array("i", (coarsen_by_reduction(space, c, coarse) for c in t.codes)) if t.width > 1 else None
        for t in castle.towers
    ]


def tower_from_levels(levels):
    """A `Tower` with the given levels, of one nonzero size, each sorted."""
    from odolab.castles import Tower

    levels = [sorted(level) for level in levels]
    return Tower(len(levels[0]), array("i", [c for level in levels for c in level]))


def castle_refinement_by_sets(space, towers, steps, base_partitions):
    """Towers of `castle_refinement_over` as lists of sorted levels.

    `towers` are lists of level sets and `steps` maps codes to vectors.
    Each part climbs level by level as a frozenset, each atom moved by
    `translate_by_reduction`."""
    out = []
    for levels, parts in zip(towers, base_partitions):
        for part in parts:
            if not part:
                continue
            climbed = [frozenset(part)]
            for _ in range(len(levels) - 1):
                climbed.append(frozenset(translate_by_reduction(space, c, steps[c]) for c in climbed[-1]))
            out.append([sorted(level) for level in climbed])
    return out


def images_by_translation(castle):
    """The images `refine_pure_columns` reads, for a castle: entry c is
    `translate_by_reduction` of c by its step for each atom below a tower's
    top, -1 on the top levels and outside the towers."""
    space, steps = castle.space, castle.steps
    images = array("i", [-1]) * space.size
    for t in castle.towers:
        for c in t.codes[: len(t.codes) - t.width]:
            images[c] = translate_by_reduction(space, c, steps[c])
    return images


def stored_in_climb_order(images, tower):
    """Whether climbing the tower up a map given by its `images` (entry c
    the atom c is sent onto, -1 where it has no step) reads back its codes:
    every atom below the top is sent onto the code one level above it,
    compared one atom at a time; -1 is no code."""
    codes, w = tower.codes, tower.width
    return -1 not in codes and all(images[c] == d for c, d in zip(codes, codes[w:]))


def column_by_translation(space, vectors, ids, code, height):
    """The atoms from `code` up the map `vectors[ids[c]]`, one
    `translate_by_reduction` per level: `height` of them, or fewer, ending
    at the first atom with id 0."""
    column = [code]
    while len(column) < height and ids[code]:
        code = translate_by_reduction(space, code, vectors[ids[code]])
        column.append(code)
    return column


def previous_map_by_coarsening(castle, depth):
    """`construction._previous_map` one atom at a time: the castle's step ids
    off its top levels, each finer atom reading the id of the atom
    `coarsen_by_reduction` puts it in."""
    top = {c for t in castle.towers for c in t.level(t.height - 1)}
    fine = castle.chain.kr_partition(depth)
    ids = array("i", [0]) * fine.size
    for c in range(fine.size):
        parent = coarsen_by_reduction(fine, c, castle.space)
        if parent not in top:
            ids[c] = castle.steps.ids[parent]
    return ids


def refine_pure_columns_by_sets(space, towers, steps, label):
    """Towers of `refine_pure_columns` as lists of sorted levels, in two passes:
    read each column's label sequence and group the base atoms by it (groups
    in the order of their least atoms), then climb every group again with
    `castle_refinement_by_sets`."""
    partitions = []
    for levels in towers:
        groups: dict[tuple, set] = {}
        for c in sorted(levels[0]):
            atom, itinerary = c, [label(c)]
            for _ in range(len(levels) - 1):
                atom = translate_by_reduction(space, atom, steps[atom])
                itinerary.append(label(atom))
            groups.setdefault(tuple(itinerary), set()).add(c)
        partitions.append([frozenset(g) for g in sorted(groups.values(), key=min)])
    return castle_refinement_by_sets(space, towers, steps, partitions)


def swap_by_full_scan(towers, a0, a2, x0_atom, x2_atom):
    """`SpeedupConstruction._swap` by one scan of every code of every tower:
    the (tower, level) of every atom that can move (one in an anchor set,
    the base or the top) is read off that scan, with no search.  Updates
    the towers in place; returns the moved atoms and the (tower, level)
    pairs that changed."""
    from odolab.castles import CastleError

    h = towers[0].height
    base = {c for t in towers for c in t.level(0)}
    top = {c for t in towers for c in t.level(h - 1)}
    wanted = a0 | a2 | base | top
    where = {}
    for alpha, t in enumerate(towers):
        for j, c in enumerate(t.codes):
            if c in wanted:
                where[c] = alpha, j // t.width
    level_of = {}
    for position, edge, anchor, keep_atom in ((0, base, a0, x0_atom), (h - 1, top, a2, x2_atom)):
        deficit = sorted(edge - anchor)
        pool = sorted(anchor - base - top)
        if keep_atom in pool:
            pool.remove(keep_atom)
            pool.insert(0, keep_atom)
        if len(pool) < len(deficit):
            raise CastleError("anchor cylinder too small for the swap")
        incoming = pool[: len(deficit)]
        for c, out in zip(incoming, deficit):
            level_of[out] = level_of.get(c, where[c][1])
            level_of[c] = position
        edge.difference_update(deficit)
        edge.update(incoming)
    gone, came = {}, {}
    for c, w in level_of.items():
        alpha, v = where[c]
        if v != w:
            gone.setdefault(v, []).append((alpha, c))
            came.setdefault(w, []).append(c)
    touched = set()
    for w, left in gone.items():
        left.sort()
        drops = {c for _, c in left}
        adds = {}
        for (alpha, _), c in zip(left, sorted(came[w])):
            adds.setdefault(alpha, []).append(c)
        for alpha, new in adds.items():
            t = towers[alpha]
            level = [c for c in t.level(w) if c not in drops] + new
            t.codes[w * t.width : (w + 1) * t.width] = array("i", sorted(level))
            touched.add((alpha, w))
    return frozenset(c for left in gone.values() for _, c in left), touched


def _shear_candidates(sup2, duals):
    """Shears a/d with d <= the largest stage denominator supported on sup2 and
    |a/d| <= 2, each once, d first, then (|a|, sign): every integer up to
    the cap is factored to pick the denominators."""
    from odolab.lattice import prime_factors

    cap = 1
    for dual in duals:
        cap = max(cap, dual.den)
    dens = sorted(
        d
        for d in range(1, cap + 1)
        if set(prime_factors(d)) <= set(sup2) or d == 1
    )
    seen = set()
    for den in dens:
        for num in sorted(range(-2 * den, 2 * den + 1), key=lambda n: (abs(n), n < 0)):
            lam = Fraction(num, den)
            if lam in seen:
                continue
            seen.add(lam)
            yield lam


def fit_by_enumeration(chain, depth):
    """`fit_descriptor` with the dimension-2 shear found by trying every
    candidate shear in order through `_fit_valid`, rather than by the
    residue class its stage generators pin.  In other dimensions no shear
    is searched, and the library's fit is returned."""
    from odolab.classify import NoFit, SupergroupDescriptor, _fit_valid, _vertical_scale, fit_descriptor
    from odolab.lattice import prime_support

    if chain.dim != 2:
        return fit_descriptor(chain, depth)
    duals = [chain.cohomology_stage(j) for j in range(1, depth + 1)]
    sup1 = set()
    for dual in duals:
        for col in dual.columns():
            sup1 |= prime_support(col[0])
    sup2 = set()
    for dual in duals:
        sup2 |= prime_support(_vertical_scale(dual))
    for lam in _shear_candidates(sup2, duals):
        desc = SupergroupDescriptor.make([[1, 0], [lam, 1]], [sup1, sup2])
        if _fit_valid(desc, chain, duals):
            return desc
    return NoFit("no unit lower shear with the observed prime supports fits")


def source_index_chain(source):
    """The one-dimensional chain of the source's indices I(j), at whose
    depths `SpeedupConstruction` runs the target side: stage j is I(j)Z,
    realized lazily from the source."""
    from odolab.lattice import IntegerLattice
    from odolab.odometer import DerivedProvider, OdometerChain

    def stage(j):
        return IntegerLattice.from_rows([[source.index(j)]])

    return OdometerChain(1, DerivedProvider(1, stage, "source indices"))


def target_bases_by_deal(widths, height):
    """The target bases of `SpeedupConstruction`'s stage whose source towers
    have the given widths: the multiples of `height`, dealt in increasing
    order to the towers, as many to a tower as it is wide, one list each."""
    multiples = count(0, height)
    return [[next(multiples) for _ in range(width)] for width in widths]


def target_castle_by_translation(space, bases, height):
    """Target towers of the given height rebuilt from their bases as lists
    of sorted levels: each level is the sorted +1 images of the one below,
    one `translate_by_reduction` per atom, with no residue arithmetic."""
    out = []
    for base in bases:
        levels = [sorted(base)]
        for _ in range(height - 1):
            levels.append(sorted(translate_by_reduction(space, c, (1,)) for c in levels[-1]))
        out.append(levels)
    return out


def column_walk_by_translation(castle, space, cone):
    """`construction._column_walk` by per-atom translation: each column is
    climbed with one `space.translate` call per level, and an atom with no
    step pads the rest of its column with itself.  Returns the same three
    results: the first (tower, level) whose climbed atoms differ from the
    level as a set, and the first where a column's partial step sum leaves
    the cone (both one KeyError naming the tower and level when the walk
    would reach an atom with no step first), and per tower whether every
    column climbs to the top onto the tower's own codes."""
    from odolab.construction import _sums_outside

    steps = castle.steps
    vectors, ids = steps.vectors, steps.ids
    outside = _sums_outside(cone, vectors)
    maps_at = sums_at = missing = None
    in_order = []
    for alpha, t in enumerate(castle.towers):
        w, h, codes = t.width, t.height, t.codes
        climbed, reach = array("i", codes), h
        for i, c in enumerate(codes[:w]):
            column = array("i", [c])
            for v in range(1, h):
                vec = vectors[ids[c]]
                if vec is None:
                    reach = min(reach, v)
                    column.extend([c] * (h - v))
                    break
                c = space.translate(c, vec)
                column.append(c)
            climbed[i::w] = column
        in_order.append(reach == h and climbed == codes)
        n = reach * w
        if maps_at is None and climbed[:n] != codes[:n]:
            levels = ((v, climbed[v * w : (v + 1) * w], codes[v * w : (v + 1) * w]) for v in range(1, reach))
            v = next((v for v, a, b in levels if set(a) != set(b)), None)
            if v is not None:
                maps_at = alpha, v
        if sums_at is None:
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


def schedule_by_fractions(source, target, k, start):
    """The target stage n_k of `SpeedupConstruction._schedule`, by measures
    in `Fraction`s: the least n (from `start` on, from stage 1 on) at which
    one target atom (stage 0), or two (stage k), measure less than the
    anchor measure mu_k = 1/I(k+1), or less than min(mu_k / (24 * sum of
    the earlier anchor measures), mu_k / 3); I is the source index.  No
    atom budget."""
    mu = Fraction(1, source.index(k + 1))
    n, atoms, bound = 1, 1, mu
    if k:
        earlier = sum((Fraction(1, source.index(j + 1)) for j in range(k)), Fraction(0))
        n, atoms, bound = start, 2, min(mu / (24 * earlier), mu / 3)
    while Fraction(atoms, target.index(n)) >= bound:
        n += 1
    return n


def anchor_towers(con, k):
    """(first tower whose base holds x0, first tower whose top holds x2)
    in the source castle of stage k."""
    rec = con.stages[k]
    space = con.source.kr_partition(rec.gamma)
    x0_atom = space.encode_vector((0,) * con.source.dim)
    x2_atom = space.encode_vector(con.x2_vector)
    towers = rec.src_castle.towers
    tower_x0 = next(i for i, t in enumerate(towers) if x0_atom in t.level(0))
    tower_x2 = next(i for i, t in enumerate(towers) if x2_atom in t.level(t.height - 1))
    return tower_x0, tower_x2


def x0_column_points(con, k):
    """Exact points up the column of stage k's castle from the zero point:
    each level's step is read at the atom of the exact point, found by
    one encode_vector per level."""
    from odolab.speedup import _vadd

    rec = con.stages[k]
    space = con.source.kr_partition(rec.gamma)
    steps = rec.src_castle.steps
    z = (0,) * con.source.dim
    points = [z]
    for _ in range(rec.src_castle.towers[anchor_towers(con, k)[0]].height - 1):
        z = _vadd(z, steps[space.encode_vector(z)])
        points.append(z)
    return points


def stage_checks_by_levels(con, k):
    """(name, ok) of every `SpeedupConstruction.stage_invariants(k)` check,
    walking the castles level by level.

    The level maps and column sums climb all columns of a tower one level
    at a time, comparing the climbed atoms with the level as sets and
    testing every partial sum with `Cone.contains`; every atom of every
    level is coarsened for the cylinder checks.  The target towers are
    rebuilt from their bases by `target_castle_by_translation`: the bases
    dealt to the source towers (`target_bases_by_deal`) for the cylinder
    check, and one tower over every multiple of the height below the
    target's size for the tiling, whose every level must be its base + v,
    with no wrap, covering the target atoms once each; the pairing needs
    the deal to hand out exactly those bases.  The target side works at
    the source's indices (`source_index_chain`), at the stage's depth
    gamma.  A check that reads the source towers' levels runs only when
    every tower holds whole levels of the stage's height, and fails
    otherwise."""
    from odolab.speedup import _vadd

    rec = con.stages[k]
    space = con.source.kr_partition(rec.gamma)
    working = source_index_chain(con.source)
    tspace = working.kr_partition(rec.gamma)
    checks = []

    def check(name, ok):
        if callable(ok):
            try:
                ok = ok()
            except Exception:  # noqa: BLE001 - a raising check fails
                ok = False
        checks.append((name, bool(ok)))

    def check_levels(name, ok):
        check(name, ok if whole else False)

    def levels_refine(space, towers, coarse):
        for levels in towers:
            for level in levels:
                if len({coarsen_by_reduction(space, c, coarse) for c in level}) > 1:
                    return False
        return True

    check("stage-numbers-increase", k == 0 or rec.n > con.stages[k - 1].n)
    src = rec.src_castle
    steps = src.steps
    whole = all(
        all(len(t.level(v)) == t.width for v in range(rec.height)) and not t.codes[rec.height * t.width :]
        for t in src.towers
    )
    dealt = target_bases_by_deal([t.width for t in src.towers], rec.height)
    tgt = functools.cache(lambda: target_castle_by_translation(tspace, dealt, rec.height))

    def shape_ok():
        seen = bytearray(space.size)
        for t in src.towers:
            if t.height != rec.height or len(t.codes) != t.width * t.height:
                return False
            for c in t.codes:
                if seen[c]:
                    return False
                seen[c] = 1
        return 0 not in seen

    check("castle-shape", shape_ok)
    if k == 0:
        check("swap-measure-bound", not rec.f_atoms)
    else:
        check("swap-measure-bound", Fraction(len(rec.f_atoms), space.size) <= 4 * con.anchor_measure(k))
    check("rebuild-set-recorded", rec.f_atoms <= rec.r_atoms and all(0 <= c < space.size for c in rec.r_atoms))
    check_levels(
        "levels-refine-cylinders",
        lambda: levels_refine(src.space, [list(t.levels) for t in src.towers], con.source.kr_partition(k + 1)),
    )
    a0, a2 = con._anchor_sets(k, rec.gamma)
    base = {c for t in src.towers for c in t.level(0)}
    top = {c for t in src.towers for c in t.level(t.height - 1)}
    x0_atom = space.encode_vector((0,) * con.source.dim)
    x2_atom = space.encode_vector(con.x2_vector)
    check_levels("anchors-in-boundary-cylinders", x0_atom in base and x2_atom in top and base <= a0 and top <= a2)
    check("target-levels-refine-cylinders", lambda: levels_refine(tspace, tgt(), working.kr_partition(rec.n)))

    def shift_ok():
        base = list(range(0, tspace.size, rec.height))
        seen = [0] * tspace.size
        for v, level in enumerate(target_castle_by_translation(tspace, [base], rec.height)[0]):
            if level != sorted(c + v for c in base):
                return False
            for c in level:
                seen[c] += 1
        return seen.count(1) == tspace.size

    check("target-translation-castle", shift_ok)
    shift_ok = checks[-1][1]

    def climb():
        zero = (0,) * con.source.dim
        vectors, ids = steps.vectors, steps.ids
        maps_ok = sums_ok = True
        for t in src.towers:
            cur = t.level(0).tolist()
            sums = [zero] * t.width
            for v in range(t.height - 1):
                vecs = [vectors[ids[c]] for c in cur]
                if None in vecs:
                    raise KeyError("an atom below a tower's top has no step")
                cur = [space.translate(c, vec) for c, vec in zip(cur, vecs)]
                maps_ok = maps_ok and set(cur) == set(t.level(v + 1))
                if sums_ok:
                    sums = [_vadd(a, vec) for a, vec in zip(sums, vecs)]
                    sums_ok = all(map(con.cone.contains, sums))
                if not (maps_ok or sums_ok):
                    return False, False
        return maps_ok, sums_ok

    check_levels("level-maps-biject", lambda: climb()[0])
    maps_ok = checks[-1][1]

    def cone_ok():
        used = set()
        for t in src.towers:
            used.update(map(steps.ids.__getitem__, t.codes[: len(t.codes) - t.width]))
        if 0 in used:
            raise KeyError("an atom below a tower's top has no step")
        return all(con.cone.contains(steps.vectors[i]) for i in used)

    check_levels("displacements-in-cone", cone_ok)

    def anchors_apart():
        tower_x0, tower_x2 = anchor_towers(con, k)
        return tower_x0 != tower_x2 and all(p != con.x2_vector for p in x0_column_points(con, k))

    check_levels("anchors-in-distinct-towers", anchors_apart)

    def stable():
        prev = con.stages[k - 1].src_castle
        prev_ids = previous_map_by_coarsening(prev, rec.gamma)
        for c, j in enumerate(prev_ids):
            i = steps.ids[c] if j else 0  # compared where both maps have a step
            if i and c not in rec.r_atoms and steps.vectors[i] != prev.steps.vectors[j]:
                return False
        return True

    check("map-stable-off-rebuild", True if k == 0 else stable)

    def pair_ok():
        bases = sorted(c for base in dealt for c in base)
        return bases == list(range(0, tspace.size, rec.height)) and all(
            s.height == len(levels) for s, levels in zip(src.towers, tgt())
        )

    check_levels("pairing-intertwines", lambda: pair_ok() and maps_ok and shift_ok)
    check("swap-conserves-shape", whole)
    check_levels("column-sums-in-cone", lambda: climb()[1])
    return checks


def transport_by_sorted_search(desc_t, desc_s, relation, height, denominators):
    """The unit-determinant transport search as a full sorted enumeration.

    Materializes every coefficient tuple of the box, sorts it by (max |x|,
    the tuple of |x|, the tuple of x < 0), and tests each candidate with a
    `Fraction` determinant; the first verified candidate is the witness."""
    from math import gcd

    from odolab.classify import (
        _det_form_coefficients,
        _no,
        _undecided,
        _verify_transport,
        _yes,
        _zero_constraints,
    )
    from odolab.lattice import _integer_kernel

    def _det(rows):
        n = len(rows)
        if n == 1:
            return Fraction(rows[0][0])
        if n == 2:
            return Fraction(rows[0][0]) * rows[1][1] - Fraction(rows[0][1]) * rows[1][0]
        total = Fraction(0)
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * Fraction(rows[0][j]) * _det(minor)
        return total

    def _alpha_from(basis, ts, dim):
        flat = [sum(t * k[idx] for t, k in zip(ts, basis)) for idx in range(dim * dim)]
        return [flat[i * dim : (i + 1) * dim] for i in range(dim)]

    dim = desc_t.dim
    constraints = _zero_constraints(desc_t, desc_s)
    kernel = _integer_kernel(constraints, dim * dim)
    if not kernel:
        return _no(relation, "support constraints force the zero matrix")
    if dim == 2:
        coeffs = _det_form_coefficients(kernel)
        if all(c == 0 for c in coeffs):
            return _no(relation, "support constraints force a singular matrix family")
        content = 0
        for c in coeffs:
            content = gcd(content, c)
        if denominators == (1,) and content >= 2:
            return _no(relation, f"determinant content {content}: no unit determinant")
    r = len(kernel)
    for den in denominators:
        for raw in sorted(
            product(range(-height * den, height * den + 1), repeat=r),
            key=lambda t: (
                max((abs(x) for x in t), default=0),
                tuple(abs(x) for x in t),
                tuple(x < 0 for x in t),
            ),
        ):
            if all(x == 0 for x in raw):
                continue
            ts = [Fraction(x, den) for x in raw]
            alpha = _alpha_from(kernel, ts, dim)
            det = _det(alpha)
            if det not in (1, -1):
                continue
            if denominators == (1,) and any(e.denominator != 1 for row in alpha for e in row):
                continue
            if _verify_transport(alpha, desc_t, desc_s):
                return _yes(relation, witness=tuple(tuple(e for e in row) for row in alpha))
    return _undecided(relation, height)
