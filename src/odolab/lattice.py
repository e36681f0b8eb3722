"""Exact arithmetic on full-rank lattices in Z^d and Q^d.

Integer lattices are kept in a single canonical shape: the basis matrix is
upper triangular with positive diagonal, and every entry to the right of a
diagonal entry is reduced into [0, diagonal).  The *columns* of the matrix
generate the lattice.  With that convention, equality of lattices is plain
equality of matrices, the index in Z^d is the product of the diagonal, and
the rectangle spanned by the diagonal is a fundamental domain.

Rational lattices are an integer basis in the same canonical shape scaled
by 1/s for the least admissible positive s.  The algebra runs on Python
ints: one xgcd elimination loop gives canonical bases and integer kernels,
and one fraction-free Gauss-Jordan gives duals.  fractions.Fraction appears
only at the boundary: the columns and covolume of a rational lattice, and
the vectors `RationalLattice.contains` accepts.  There are no floats
anywhere, and an entry with a fractional part is refused, never truncated.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm

from ._record import record


class LatticeError(ValueError):
    """Base class for lattice-domain errors."""


class SingularBasis(LatticeError):
    """Generator matrix does not have full rank."""


class DimensionMismatch(LatticeError):
    """Operands live in different ambient dimensions."""


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _eliminate(columns, rows):
    """Clear each row of `rows` in turn from every column but one, by xgcd.

    The first column still nonzero at a row becomes its pivot and leaves the
    pool; the others are combined with it by unimodular steps until they
    vanish there.  Returns the pivot per row (None where the whole pool is
    already zero) and the leftover columns, which vanish at every row.
    """
    work = [list(c) for c in columns]
    pivots = []
    for i in rows:
        piv = None
        for col in work:
            if col[i] == 0:
                continue
            if piv is None:
                piv = col
                continue
            g, x, y = _xgcd(piv[i], col[i])
            a, b = piv[i] // g, col[i] // g
            piv[:], col[:] = (
                [x * p + y * q for p, q in zip(piv, col)],
                [a * q - b * p for p, q in zip(piv, col)],
            )
        pivots.append(piv)
        work = [c for c in work if c is not piv]
    return pivots, work


def _hnf_from_columns(columns, dim: int):
    """Canonical basis of the lattice generated by `columns`, or None.

    Works for any number of generators; returns the basis as a tuple of
    rows, or None when the generators do not span a rank-`dim` lattice.
    """
    pivots, _ = _eliminate(columns, reversed(range(dim)))
    if None in pivots:
        return None
    basis = [c if c[j] > 0 else [-e for e in c] for j, c in enumerate(pivots[::-1])]
    for j in range(dim):
        for i in reversed(range(j)):
            q = basis[j][i] // basis[i][i]
            if q:
                basis[j] = [e - q * f for e, f in zip(basis[j], basis[i])]
    return tuple(tuple(basis[j][i] for j in range(dim)) for i in range(dim))


def _integer_kernel(matrix, n):
    """Basis of the integer kernel of an integer matrix with n columns: the
    columns of [matrix; I] left over once every row of the matrix is cleared."""
    m = len(matrix)
    stacked = [[matrix[r][c] for r in range(m)] + [int(i == c) for i in range(n)] for c in range(n)]
    _, free = _eliminate(stacked, range(m))
    return [tuple(col[m:]) for col in free]


def _adjugate(rows):
    """(d, M) with rows . M = d . I, d > 0 and M integral, for a square
    nonsingular integer matrix.

    Fraction-free Gauss-Jordan (Bareiss) on [rows | I]: after step k every
    entry is, up to sign, a minor of the augmented matrix, so each division
    by the previous pivot is exact, and d ends as |det(rows)|.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if aug[r][k]), None)
        if piv is None:
            raise SingularBasis("matrix is singular")
        aug[k], aug[piv] = aug[piv], aug[k]
        p = aug[k][k]
        for r in range(n):
            if r != k:
                f = aug[r][k]
                aug[r] = [(p * e - f * g) // prev for e, g in zip(aug[r], aug[k])]
        prev = p
    sign = 1 if prev > 0 else -1
    return sign * prev, [[sign * e for e in row[n:]] for row in aug]


def _integer_entry(e) -> int:
    """`e` as an int; an entry with a fractional part is refused, not truncated."""
    n = int(e)
    if n != e:
        raise LatticeError(f"entry {e} is not an integer")
    return n


@record(frozen=True)
class IntegerLattice:
    """Finite-index sublattice of Z^d in canonical form.

    Immutable; all operations return new values, so instances are safe to
    share between threads.
    """

    dim: int
    rows: tuple[tuple[int, ...], ...]

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_columns(columns) -> "IntegerLattice":
        columns = [tuple(_integer_entry(e) for e in c) for c in columns]
        if not columns:
            raise SingularBasis("no generators")
        dim = len(columns[0])
        if any(len(c) != dim for c in columns):
            raise DimensionMismatch("generators of mixed dimension")
        rows = _hnf_from_columns(columns, dim)
        if rows is None:
            raise SingularBasis(f"generators do not span a rank-{dim} lattice")
        return IntegerLattice(dim, rows)

    @staticmethod
    def from_rows(matrix) -> "IntegerLattice":
        """Canonicalize a square generator matrix given row-wise."""
        matrix = [list(r) for r in matrix]
        dim = len(matrix)
        if any(len(r) != dim for r in matrix):
            raise DimensionMismatch("matrix is not square")
        cols = [[matrix[i][j] for i in range(dim)] for j in range(dim)]
        return IntegerLattice.from_columns(cols)

    @staticmethod
    def standard(dim: int) -> "IntegerLattice":
        return IntegerLattice(dim, tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))

    @staticmethod
    def diagonal(entries) -> "IntegerLattice":
        entries = [_integer_entry(e) for e in entries]
        if any(e <= 0 for e in entries):
            raise SingularBasis("diagonal entries must be positive")
        dim = len(entries)
        return IntegerLattice(dim, tuple(tuple(entries[i] if i == j else 0 for j in range(dim)) for i in range(dim)))

    # -- basic data --------------------------------------------------

    @property
    def index(self) -> int:
        """Index [Z^d : L]; equals the determinant of the basis."""
        out = 1
        for i in range(self.dim):
            out *= self.rows[i][i]
        return out

    @property
    def diag(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(self.dim))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.rows[i][j] for i in range(self.dim))

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.dim)]

    def is_diagonal(self) -> bool:
        return all(self.rows[i][j] == 0 for i in range(self.dim) for j in range(self.dim) if i != j)

    # -- membership and ordering -------------------------------------

    def coefficients(self, vector):
        """Integer coordinates of `vector` in this basis, or None."""
        if len(vector) != self.dim:
            raise DimensionMismatch(f"vector of length {len(vector)} in dimension {self.dim}")
        residual = list(vector)
        coeffs = [0] * self.dim
        for i in reversed(range(self.dim)):
            q, r = divmod(residual[i], self.rows[i][i])
            if r:
                return None
            coeffs[i] = q
            for k in range(i + 1):
                residual[k] -= q * self.rows[k][i]
        return tuple(coeffs)

    def contains(self, vector) -> bool:
        return self.coefficients(vector) is not None

    def is_sublattice(self, other: "IntegerLattice") -> bool:
        """True iff self <= other as subgroups of Z^d."""
        if self.dim != other.dim:
            raise DimensionMismatch("lattices of different dimension")
        return all(other.contains(c) for c in self.columns())

    # -- derived lattices ---------------------------------------------

    def intersect(self, other) -> "IntegerLattice":
        """Largest common sublattice with an integer or rational lattice,
        computed through the dual sum; it lies in this one, so is integral."""
        return RationalLattice.from_integer(self).intersect(other).as_integer()

    def dual(self) -> "RationalLattice":
        """All rational vectors pairing integrally with every element."""
        return RationalLattice.from_integer(self).dual()

    def coset_system(self) -> "CosetSystem":
        return CosetSystem(self)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(e) for e in row) for row in self.rows) + "]"


def hnf(matrix) -> IntegerLattice:
    """Canonicalize a raw square basis matrix (rows given, columns generate)."""
    return IntegerLattice.from_rows(matrix)


@record(frozen=True)
class RationalLattice:
    """Full-rank lattice in Q^d, stored as (1/den) * (canonical integer basis).

    `den` is minimal: no prime divides den together with every entry of the
    numerator basis.
    """

    dim: int
    den: int
    num: IntegerLattice

    # -- constructors ------------------------------------------------

    @staticmethod
    def _canonical(dim: int, den: int, num: IntegerLattice) -> "RationalLattice":
        g = den
        for row in num.rows:
            for e in row:
                g = gcd(g, e)
            if g == 1:
                break
        if g > 1:
            num = IntegerLattice(dim, tuple(tuple(e // g for e in row) for row in num.rows))
            den //= g
        return RationalLattice(dim, den, num)

    @staticmethod
    def from_integer(lattice: IntegerLattice) -> "RationalLattice":
        return RationalLattice(lattice.dim, 1, lattice)

    @staticmethod
    def from_scaled_rows(den: int, matrix) -> "RationalLattice":
        """Lattice (1/den) * (matrix) * Z^d for a raw square row matrix."""
        den = _integer_entry(den)
        if den <= 0:
            raise SingularBasis("denominator must be positive")
        num = IntegerLattice.from_rows(matrix)
        return RationalLattice._canonical(num.dim, den, num)

    # -- basic data --------------------------------------------------

    @property
    def covolume(self) -> Fraction:
        return Fraction(self.num.index, self.den ** self.dim)

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(e, self.den) for e in self.num.column(j))

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.dim)]

    def as_integer(self) -> IntegerLattice:
        if self.den != 1:
            raise LatticeError(f"lattice is not integral (denominator {self.den})")
        return self.num

    def is_integral(self) -> bool:
        return self.den == 1

    # -- membership and ordering -------------------------------------

    def contains(self, vector) -> bool:
        """Exact membership of a vector of rationals."""
        if len(vector) != self.dim:
            raise DimensionMismatch(f"vector of length {len(vector)} in dimension {self.dim}")
        scaled = [Fraction(v) * self.den for v in vector]
        return all(e.denominator == 1 for e in scaled) and self.num.contains([e.numerator for e in scaled])

    def is_sublattice(self, other: "RationalLattice") -> bool:
        if self.dim != other.dim:
            raise DimensionMismatch("lattices of different dimension")
        return all(other.contains(c) for c in self.columns())

    # -- lattice algebra ----------------------------------------------

    def sum(self, other) -> "RationalLattice":
        """Smallest lattice containing both summands; either may be integral."""
        if isinstance(other, IntegerLattice):
            other = RationalLattice.from_integer(other)
        if self.dim != other.dim:
            raise DimensionMismatch("lattices of different dimension")
        den = lcm(self.den, other.den)
        cols = [[e * (den // self.den) for e in self.num.column(j)] for j in range(self.dim)]
        cols += [[e * (den // other.den) for e in other.num.column(j)] for j in range(self.dim)]
        num = IntegerLattice.from_columns(cols)
        return RationalLattice._canonical(self.dim, den, num)

    def dual(self) -> "RationalLattice":
        """Inverse-transpose lattice; dual of the dual is the original."""
        # the basis is num/den and num . M = d . I, so its inverse transpose
        # is (den/d) . M^T
        d, adj = _adjugate(self.num.rows)
        dim = self.dim
        return RationalLattice.from_scaled_rows(d, [[self.den * adj[j][i] for j in range(dim)] for i in range(dim)])

    def intersect(self, other) -> "RationalLattice":
        """Largest common sublattice: the dual of the sum of the duals."""
        return self.dual().sum(other.dual()).dual()

    def __str__(self) -> str:
        return f"1/{self.den} {self.num}"


class CosetSystem:
    """Fundamental rectangle and canonical coset representatives for a lattice.

    The rectangle edge for coordinate k is the least n > 0 such that
    n*e_k is congruent mod the lattice to a vector supported on coordinates
    before k.  Back-substitution against the triangular basis makes that
    the diagonal entry rows[k][k], so the rectangle is the diagonal of the
    canonical basis, and the representatives are exactly the integer
    points inside it.
    """

    def __init__(self, lattice: IntegerLattice):
        self.lattice = lattice
        self.rectangle = lattice.diag
        self._reps = None

    @property
    def reps(self) -> tuple[tuple[int, ...], ...]:
        if self._reps is None:
            self._reps = tuple(iter_product(*(range(m) for m in self.rectangle)))
        return self._reps

    def reduce(self, vector) -> tuple[int, ...]:
        """Unique representative of `vector` inside the rectangle."""
        lat = self.lattice
        if len(vector) != lat.dim:
            raise DimensionMismatch(f"vector of length {len(vector)} in dimension {lat.dim}")
        residual = list(vector)
        for i in reversed(range(lat.dim)):
            q = residual[i] // lat.rows[i][i]
            if q:
                for k in range(i + 1):
                    residual[k] -= q * lat.rows[k][i]
        return tuple(residual)

    def __repr__(self) -> str:
        return f"CosetSystem({self.lattice}, rectangle={self.rectangle})"


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for desk-scale inputs."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("0 has no factorization")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_support(q: Fraction) -> frozenset[int]:
    """Primes dividing the reduced denominator of a rational."""
    return frozenset(prime_factors(Fraction(q).denominator))
