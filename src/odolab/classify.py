"""Equivalence tests for odometer cohomology groups.

Groups between Z^d and Q^d are handled exactly inside one closed-form
family: a unit lower-triangular rational shear composed with coordinates
constrained to have denominators supported on fixed finite prime sets.
Every group computed elsewhere in this package lands in the family, and
membership, inclusion, and the matrix-transport tests are all decidable
there.  Outside the family the tests degrade to depth-bounded
semi-decisions that say so explicitly.

Nonexistence certificates come in one flavor: after the linear constraints
forced by prime supports, the determinant of the candidate matrix family
is a quadratic form whose integer content divides every achievable
determinant; content at least 2 (or a vanishing form) rules out
determinant +-1.  Anything else bounded search cannot settle is reported
as undecided, never as a refusal dressed up as a No.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm

from .lattice import (
    DimensionMismatch,
    IntegerLattice,
    RationalLattice,
    _fraction_inverse,
    _xgcd,
    prime_factors,
    prime_support,
)
from .odometer import OdometerChain


class ClassifyError(ValueError):
    pass


class DimensionUnsupported(ClassifyError):
    """The exact tests are stated for acting rank at most two."""


class UnsupportedDescriptor(ClassifyError):
    """Descriptor outside the shear + prime-support family."""


# ---------------------------------------------------------------- descriptors

@dataclass(frozen=True)
class SupergroupDescriptor:
    """Closed-form membership oracle for a group H with Z^d <= H <= Q^d.

    x belongs to H iff every coordinate of shear @ x is a rational whose
    denominator only uses that coordinate's allowed primes.
    """

    dim: int
    shear: tuple[tuple[Fraction, ...], ...]
    supports: tuple[frozenset[int], ...]

    @staticmethod
    def make(shear, supports) -> "SupergroupDescriptor":
        shear = tuple(tuple(Fraction(e) for e in row) for row in shear)
        dim = len(shear)
        supports = tuple(frozenset(int(p) for p in s) for s in supports)
        if any(len(row) != dim for row in shear) or len(supports) != dim:
            raise DimensionMismatch("shear and supports must agree on the dimension")
        desc = SupergroupDescriptor(dim, shear, supports)
        det = _det(shear)
        if det not in (1, -1):
            raise UnsupportedDescriptor(f"shear determinant {det} is not a unit")
        for i in range(dim):
            if shear[i][i] != 1 or any(shear[i][j] != 0 for j in range(i + 1, dim)):
                raise UnsupportedDescriptor("shear must be unit lower triangular")
        for j in range(dim):
            basis_vec = tuple(Fraction(int(i == j)) for i in range(dim))
            if not desc.member(basis_vec):
                raise UnsupportedDescriptor("the described group does not contain Z^d")
        return desc

    @staticmethod
    def coordinate(supports) -> "SupergroupDescriptor":
        dim = len(supports)
        eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
        return SupergroupDescriptor.make(eye, supports)

    def member(self, x) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch(f"vector of length {len(x)} in dimension {self.dim}")
        x = [Fraction(e) for e in x]
        for i in range(self.dim):
            coord = sum(self.shear[i][j] * x[j] for j in range(self.dim))
            if not prime_support(coord) <= self.supports[i]:
                return False
        return True

    def describe(self) -> str:
        rows = "; ".join(",".join(str(e) for e in row) for row in self.shear)
        sups = " | ".join(",".join(str(p) for p in sorted(s)) or "-" for s in self.supports)
        return f"shear [{rows}] supports [{sups}]"


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


def _mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(Fraction(a[i][t]) * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)
    ]


def _subset_witness(mat_a, sup_a, mat_b, sup_b):
    """None if group(mat_a, sup_a) <= group(mat_b, sup_b); else a reason.

    The subgroup is generated by mat_a^{-1} (p^-k e_i) over p in sup_a[i]
    and k >= 0, so inclusion reduces to per-entry conditions on
    M = mat_b @ mat_a^{-1}: whenever M[m][i] is nonzero, its denominator
    primes and every p in sup_a[i] must be allowed at coordinate m.
    """
    dim = len(mat_a)
    M = _mat_mul(mat_b, _fraction_inverse(mat_a))
    for i in range(dim):
        for m in range(dim):
            entry = M[m][i]
            if entry == 0:
                continue
            bad = prime_support(entry) - sup_b[m]
            if bad:
                return ("entry", i, m, min(bad))
            for p in sorted(sup_a[i]):
                if p not in sup_b[m]:
                    return ("scale", i, m, p)
    return None


def descriptor_subset(a: SupergroupDescriptor, b: SupergroupDescriptor) -> bool:
    if a.dim != b.dim:
        raise DimensionMismatch("descriptors of different dimension")
    return _subset_witness(a.shear, a.supports, b.shear, b.supports) is None


def _non_member_witness(a: SupergroupDescriptor, b: SupergroupDescriptor):
    """A vector in group(a) but not group(b), found by scaling a generator."""
    reason = _subset_witness(a.shear, a.supports, b.shear, b.supports)
    if reason is None:
        return None
    _, i, _, p = reason
    inv = _fraction_inverse(a.shear)
    column = [inv[r][i] for r in range(a.dim)]
    for k in range(0, 64):
        x = tuple(e * Fraction(1, p**k) for e in column)
        if a.member(x) and not b.member(x):
            return x
    return None


# ---------------------------------------------------------------- verdicts

@dataclass(frozen=True)
class ClassificationVerdict:
    relation: str
    outcome: str  # "yes" | "no" | "undecided"
    witness: object = None
    certificate: object = None
    depth: int | None = None

    @property
    def exit_code(self) -> int:
        return {"yes": 0, "no": 1, "undecided": 2}[self.outcome]

    def describe(self) -> str:
        tail = ""
        if self.outcome == "yes" and self.witness is not None:
            tail = f" witness={_fmt(self.witness)}"
        if self.outcome == "no" and self.certificate is not None:
            tail = f" certificate={_fmt(self.certificate)}"
        if self.outcome == "undecided":
            tail = f" (to depth {self.depth})"
        return f"{self.relation}: {self.outcome}{tail}"


def _fmt(value) -> str:
    """Readable rendering of witnesses: nested tuples of exact rationals."""
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _yes(relation, witness=None):
    return ClassificationVerdict(relation, "yes", witness=witness)


def _no(relation, certificate):
    return ClassificationVerdict(relation, "no", certificate=certificate)


def _undecided(relation, depth):
    return ClassificationVerdict(relation, "undecided", depth=depth)


# ---------------------------------------------------------------- fitting

@dataclass(frozen=True)
class NoFit:
    reason: str


def fit_descriptor(chain: OdometerChain, depth: int):
    """Fit the closed-form family to a chain's cohomology stages.

    Every stage generator up to `depth` must be a member, and cutting the
    fitted group at each stage's denominator must reproduce the stage
    exactly.  Returns a descriptor or NoFit; depth must be at least 2 so a
    shear has two stages to pin it down.

    In dimension 2 the fit is the shear [[1, 0], [lam, 1]] with supports
    (sup1, sup2): sup1 the primes of the stage generators' first
    coordinates, sup2 those of the stages' vertical scales.  The shears
    tried are lam = a/d with d <= the largest stage denominator, d
    supported on sup2 and |lam| <= 2, in the order d first, then (|a|,
    sign); the first that fits is returned.  That order is walked in closed
    form and only its first member-passing shear is verified:

    - Membership of every stage generator pins lam to one residue class
      r mod N, or to none (`_column_class`).  Every candidate lam is
      p-integral at each prime p outside sup2.  There a generator column
      (c0, c1) with v_p(c0) = -k < 0 needs lam = -c1/c0 mod p^k (none
      when v_p(c1) < -k), and one with v_p(c0) >= 0 needs v_p(c1) >= 0,
      whatever lam is.  For each d the least a = r*d mod N with
      |a| <= 2d is then one reduction mod N (`_first_shear`).
    - One check is exact.  `_fit_valid` depends on lam only modulo
      M = prod over p in sup1 - sup2 of p^e, e = max_j v_p(den_j): at
      primes in sup2 the second coordinate is unconstrained, and at primes
      outside sup1 and sup2 membership does not involve lam.  If some lam*
      fits, the stage j reaching e contains a vector (p^-e, .), so one of
      its generator columns has v_p(c0) = -e, and N is a multiple of M.
      Every member of the class then agrees with lam* modulo M, so the
      class fits as a whole or not at all, and the first member decides.
    """
    if depth < 2:
        raise ClassifyError("fitting needs at least two stages")
    duals = [chain.cohomology_stage(j) for j in range(1, depth + 1)]
    if chain.dim == 1:
        primes: set[int] = set()
        for j in range(1, depth + 1):
            primes |= set(prime_factors(chain.index(j)))
        desc = SupergroupDescriptor.coordinate([primes])
        if _fit_valid(desc, chain, duals):
            return desc
        return NoFit("one-dimensional stages are not pure prime-power scales")

    if chain.dim != 2:
        desc = SupergroupDescriptor.coordinate(_coordinate_supports(duals, chain.dim))
        if _fit_valid(desc, chain, duals):
            return desc
        return NoFit("only coordinate-product fits are attempted beyond dimension 2")

    sup1: set[int] = set()
    for dual in duals:
        for col in dual.columns():
            sup1 |= prime_support(col[0])
    sup2: set[int] = set()
    for dual in duals:
        sup2 |= prime_support(_vertical_scale(dual))
    lam = _first_shear(duals, sup2)
    if lam is not None:
        desc = SupergroupDescriptor.make([[1, 0], [lam, 1]], [sup1, sup2])
        if _fit_valid(desc, chain, duals):
            return desc
    return NoFit("no unit lower shear with the observed prime supports fits")


def _coordinate_supports(duals, dim):
    sups = [set() for _ in range(dim)]
    for dual in duals:
        for col in dual.columns():
            for i in range(dim):
                sups[i] |= prime_support(col[i])
    return sups


def _vertical_scale(dual: RationalLattice) -> Fraction:
    """Generator of the intersection of the lattice with the second axis."""
    (a, b), (_, c) = dual.num.rows  # upper triangular numerator
    t = a // gcd(a, b) if b else 1
    return Fraction(c * t, dual.den)


def _column_class(duals, sup2):
    """The shears lam with sup2-supported denominator that make every stage
    generator a member of [[1, 0], [lam, 1]] with second support sup2, as
    (r, N) for lam = r mod N, or None when no shear does.

    A generator (u0, u1)/w of a stage needs lam*u0 + u1 = 0 mod w', where w'
    is w without its sup2 primes.  With g = gcd(u0, w') that is solvable iff
    g divides u1, and then lam = -(u1/g) * (u0/g)^-1 mod w'/g.  The classes
    of all generators are merged by the Chinese remainder theorem for
    moduli that need not be coprime.
    """
    r, modulus = 0, 1
    for dual in duals:
        w = dual.den
        for p in sup2:
            while w % p == 0:
                w //= p
        for u0, u1 in dual.num.columns():
            g = gcd(u0, w)
            if u1 % g:
                return None
            m = w // g
            s = -(u1 // g) * pow(u0 // g, -1, m) % m
            h = gcd(modulus, m)
            if (s - r) % h:
                return None
            step = (s - r) // h * pow(modulus // h, -1, m // h) % (m // h)
            r += modulus * step
            modulus *= m // h
    return r, modulus


def _smooth_numbers(primes, cap: int) -> list[int]:
    """The integers in [1, cap] whose prime factors all lie in `primes`, ascending."""
    nums = [1]
    for p in primes:
        grown = []
        for n in nums:
            while n <= cap:
                grown.append(n)
                n *= p
        nums = grown
    return sorted(nums)


def _first_shear(duals, sup2):
    """The first lam = a/d of the fitting order (d ascending, then (|a|,
    sign), |a| <= 2d) whose shear makes every stage generator a member, or
    None.

    The first d that has a class member gives it in lowest terms: were
    gcd(a, d) = g > 1, a/g over d/g would be a member at a smaller d.
    """
    pinned = _column_class(duals, sup2)
    if pinned is None:
        return None
    r, modulus = pinned
    cap = max(dual.den for dual in duals)
    for d in _smooth_numbers(sup2, cap):
        a = r * d % modulus
        if modulus - a < a:
            a -= modulus
        if abs(a) <= 2 * d:
            return Fraction(a, d)
    return None


def _fit_valid(desc: SupergroupDescriptor, chain: OdometerChain, duals) -> bool:
    for dual in duals:
        for col in dual.columns():
            if not desc.member(col):
                return False
    for j, dual in enumerate(duals, start=1):
        if _truncate(desc, dual.den) != dual:
            return False
    return True


def _truncate(desc: SupergroupDescriptor, scale: int) -> RationalLattice:
    """The members of the described group with denominators dividing `scale`.

    Computed exactly: m/scale is a member iff for every coordinate the
    non-allowed part of (D * scale) divides (D * shear * m), with D the
    shear's common denominator.  That congruence set is the intersection
    of a rational preimage lattice with Z^d.
    """
    dim = desc.dim
    D = 1
    for row in desc.shear:
        for e in row:
            D = lcm(D, e.denominator)
    scaled = [[int(e * D) for e in row] for row in desc.shear]
    B = D * scale
    diag = []
    for i in range(dim):
        b = 1
        for p, e in prime_factors(B).items():
            if p not in desc.supports[i]:
                b *= p**e
        diag.append(b)
    inv = _fraction_inverse(scaled)
    cols = [[inv[r][i] * diag[i] for r in range(dim)] for i in range(dim)]
    pre = RationalLattice.from_fraction_columns(cols)
    members = pre.intersect(RationalLattice.from_integer(IntegerLattice.standard(dim)))
    return RationalLattice._canonical(dim, scale, members.as_integer())


# ---------------------------------------------------------------- constraint engine

def _integer_kernel(matrix, n):
    """Basis of the integer kernel of an integer matrix with n columns."""
    m = len(matrix)
    acol = [[matrix[r][c] for r in range(m)] for c in range(n)]
    ucol = [[int(i == c) for i in range(n)] for c in range(n)]
    free = list(range(n))
    for r in range(m):
        piv = None
        for ci in list(free):
            if acol[ci][r] == 0:
                continue
            if piv is None:
                piv = ci
                continue
            g, x, y = _xgcd(acol[piv][r], acol[ci][r])
            a_, b_ = acol[piv][r] // g, acol[ci][r] // g
            acol[piv], acol[ci] = (
                [x * p + y * q for p, q in zip(acol[piv], acol[ci])],
                [a_ * q - b_ * p for p, q in zip(acol[piv], acol[ci])],
            )
            ucol[piv], ucol[ci] = (
                [x * p + y * q for p, q in zip(ucol[piv], ucol[ci])],
                [a_ * q - b_ * p for p, q in zip(ucol[piv], ucol[ci])],
            )
        if piv is not None:
            free.remove(piv)
    return [tuple(ucol[ci]) for ci in free]


def _zero_constraints(desc_t: SupergroupDescriptor, desc_s: SupergroupDescriptor):
    """Linear conditions on alpha forced by the scaled generator families.

    Writing M = shear_s @ alpha @ shear_t^{-1}, entry (m, i) must vanish
    whenever some prime scaling coordinate i of the source is not allowed
    at coordinate m of the target.
    """
    dim = desc_t.dim
    inv_t = _fraction_inverse(desc_t.shear)
    rows = []
    for m in range(dim):
        for i in range(dim):
            if not any(p not in desc_s.supports[m] for p in desc_t.supports[i]):
                continue
            # coefficient of alpha[r][c] in M[m][i]
            coeffs = [desc_s.shear[m][r] * inv_t[c][i] for r in range(dim) for c in range(dim)]
            den = 1
            for e in coeffs:
                den = lcm(den, e.denominator)
            rows.append([int(e * den) for e in coeffs])
    return rows


def _det_form_coefficients(basis):
    """Quadratic form coefficients of det(sum t_r K_r) for 2x2 blocks."""
    mats = [((k[0], k[1]), (k[2], k[3])) for k in basis]
    coeffs = []
    for r in range(len(mats)):
        a = mats[r]
        coeffs.append(a[0][0] * a[1][1] - a[0][1] * a[1][0])
        for s in range(r + 1, len(mats)):
            b = mats[s]
            coeffs.append(
                a[0][0] * b[1][1] + b[0][0] * a[1][1] - a[0][1] * b[1][0] - b[0][1] * a[1][0]
            )
    return coeffs


def _alpha_from(basis, ts, dim):
    flat = [sum(t * k[idx] for t, k in zip(ts, basis)) for idx in range(dim * dim)]
    return [flat[i * dim : (i + 1) * dim] for i in range(dim)]


def _verify_transport(alpha, desc_t: SupergroupDescriptor, desc_s: SupergroupDescriptor) -> bool:
    """alpha(H_T) = H_S, checked symbolically in both directions."""
    alpha_inv = _fraction_inverse(alpha)
    transported = _mat_mul(desc_t.shear, alpha_inv)
    fwd = _subset_witness(transported, desc_t.supports, desc_s.shear, desc_s.supports)
    bwd = _subset_witness(desc_s.shear, desc_s.supports, transported, desc_t.supports)
    return fwd is None and bwd is None


def _matrix_search(desc_t, desc_s, relation, height, denominators):
    """Shared engine for the unit-determinant transport tests."""
    dim = desc_t.dim
    constraints = _zero_constraints(desc_t, desc_s)
    kernel = _integer_kernel(constraints, dim * dim) if constraints else [
        tuple(int(i == c) for i in range(dim * dim)) for c in range(dim * dim)
    ]
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
            iter_product(range(-height * den, height * den + 1), repeat=r),
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


# ---------------------------------------------------------------- public tests

def _check_rank(relation, d1, d2):
    if d1 > 2 or d2 > 2:
        raise DimensionUnsupported("the exact tests cover acting rank at most 2")
    if d1 != d2:
        return _no(relation, f"acting ranks differ ({d1} vs {d2})")
    return None


def conjugate_test(
    desc_t: SupergroupDescriptor | None = None,
    desc_s: SupergroupDescriptor | None = None,
    chain_t: OdometerChain | None = None,
    chain_s: OdometerChain | None = None,
    depth: int = 6,
) -> ClassificationVerdict:
    """Equality of the cohomology groups (acting rank at most two).

    With descriptors the answer is exact.  With chains only, mutual
    stagewise inclusion up to `depth` is all that can be said: success is
    reported as undecided-at-depth, failure as a No with the offending
    stage generator.
    """
    relation = "conjugate"
    if desc_t is not None and desc_s is not None:
        bad = _check_rank(relation, desc_t.dim, desc_s.dim)
        if bad:
            return bad
        if descriptor_subset(desc_t, desc_s) and descriptor_subset(desc_s, desc_t):
            eye = tuple(tuple(int(i == j) for j in range(desc_t.dim)) for i in range(desc_t.dim))
            return _yes(relation, witness=eye)
        witness = _non_member_witness(desc_t, desc_s) or _non_member_witness(desc_s, desc_t)
        return _no(relation, certificate=("separating vector", witness))
    if chain_t is None or chain_s is None:
        raise ClassifyError("provide either both descriptors or both chains")
    bad = _check_rank(relation, chain_t.dim, chain_s.dim)
    if bad:
        return bad
    if chain_t.dim == 1:
        # rank-one chains: equal value groups already force conjugacy
        oe = orbit_equivalence_test(chain_t, chain_s, depth=depth)
        if oe.outcome == "yes":
            return _yes(relation, witness=oe.witness)
        if oe.outcome == "no":
            return _no(relation, certificate=oe.certificate)
        return _undecided(relation, depth)
    deep_t = chain_t.cohomology_stage(depth)
    deep_s = chain_s.cohomology_stage(depth)
    for j in range(1, depth + 1):
        for col in chain_t.cohomology_stage(j).columns():
            if not deep_s.contains(col):
                return _no(relation, certificate=("stage generator escapes", j, col))
        for col in chain_s.cohomology_stage(j).columns():
            if not deep_t.contains(col):
                return _no(relation, certificate=("stage generator escapes", j, col))
    return _undecided(relation, depth)


def _check_bounds(height: int, denom_bound: int = 1) -> None:
    """Bounds below 1 search nothing, so no verdict may rest on them."""
    if height < 1:
        raise ClassifyError(f"search height must be at least 1, got {height}")
    if denom_bound < 1:
        raise ClassifyError(f"denominator bound must be at least 1, got {denom_bound}")


def isomorphism_test(
    desc_t: SupergroupDescriptor, desc_s: SupergroupDescriptor, height: int = 5
) -> ClassificationVerdict:
    """Existence of an integer unimodular matrix carrying one group to the other."""
    _check_bounds(height)
    bad = _check_rank("isomorphic", desc_t.dim, desc_s.dim)
    if bad:
        return bad
    return _matrix_search(desc_t, desc_s, "isomorphic", height, (1,))


def continuous_oe_test(
    desc_t: SupergroupDescriptor,
    desc_s: SupergroupDescriptor,
    height: int = 5,
    denom_bound: int = 4,
) -> ClassificationVerdict:
    """Existence of a rational matrix of determinant +-1 carrying one group
    to the other."""
    _check_bounds(height, denom_bound)
    bad = _check_rank("continuously-orbit-equivalent", desc_t.dim, desc_s.dim)
    if bad:
        return bad
    return _matrix_search(
        desc_t, desc_s, "continuously-orbit-equivalent", height, tuple(range(1, denom_bound + 1))
    )


def orbit_equivalence_test(
    chain_t: OdometerChain, chain_s: OdometerChain, depth: int = 6
) -> ClassificationVerdict:
    """Equality of clopen value groups; exact for rule-backed chains."""
    relation = "orbit-equivalent"
    vg_t = chain_t.clopen_value_group(depth)
    vg_s = chain_s.clopen_value_group(depth)
    same = vg_t.same_group(vg_s)
    if same is True:
        return _yes(relation, witness=vg_t.describe())
    if same is False:
        witness = vg_t.witness_against(vg_s) or vg_s.witness_against(vg_t)
        return _no(relation, certificate=("value-group witness", witness))
    return _undecided(relation, depth)
