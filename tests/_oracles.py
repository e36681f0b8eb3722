"""Brute-force reference computations, independent of the library's fast paths.

Every oracle here works by enumeration so it cannot share a bug with the
triangular-solve code it is used to check.
"""

from fractions import Fraction
from itertools import product


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


def translate_by_reduction(space, code, vector):
    """Atom code of atom `code` moved by `vector`: decode the representative,
    add the vector and reduce the sum at the space's depth, one tuple per call."""
    rep = space.decode(code)
    return space.encode(space.system.reduce(tuple(a + b for a, b in zip(rep, vector))))


def coarsen_by_reduction(fine, code, coarse):
    """Coarser atom containing the finer atom `code`: decode its representative
    and reduce it at the coarser depth."""
    return coarse.encode(coarse.system.reduce(fine.decode(code)))


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
