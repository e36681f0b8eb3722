"""Clopen value groups: subgroups of Q generated by reciprocals of indices.

Canonical form is a per-prime supremum of denominator exponents, with
infinity recorded symbolically.  For a nested chain the stage indices form
a divisibility tower, so membership of a reduced rational is equivalent to
the per-prime exponent bounds; this makes equality of two symbolic groups
an exact comparison.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .lattice import prime_factors


@record(frozen=True)
class ValueGroup:
    """Subgroup of Q generated by {1/n over the stage indices n}.

    `infinite` lists primes with unbounded denominator exponent; `finite`
    is a sorted tuple of (prime, supremum) pairs for the rest.  `exact`
    marks symbolic groups (rule-backed providers); otherwise the group is
    only known to `depth_checked` stages and comparisons are semi-decisions.
    """

    infinite: frozenset[int]
    finite: tuple[tuple[int, int], ...]
    exact: bool
    depth_checked: int | None

    def exponent(self, p: int) -> int | None:
        """Supremum exponent for prime p; None means unbounded."""
        if p in self.infinite:
            return None
        return dict(self.finite).get(p, 0)

    def contains(self, q) -> bool:
        """Membership of a rational; exact when the group is exact."""
        q = Fraction(q)
        for p, e in prime_factors(q.denominator).items():
            sup = self.exponent(p)
            if sup is not None and e > sup:
                return False
        return True

    def same_group(self, other: "ValueGroup") -> bool | None:
        """Equality of canonical forms; with an inexact side, False when a
        rational lies in only one group for certain (`certain_witness`),
        and None otherwise (the comparison is then only evidence at the
        checked depths)."""
        if self.exact and other.exact:
            return (self.infinite, self.finite) == (other.infinite, other.finite)
        return False if self.certain_witness(other) else None

    def certain_witness(self, other: "ValueGroup"):
        """A rational that lies in only one of the two groups for certain, or
        None.  An inexact group's observed exponents are lower bounds of its
        own, so a rational of its observed group lies in it, but one it lacks
        may lie in it too: the lacking side must be exact."""
        if other.exact and (witness := self.witness_against(other)):
            return witness
        return other.witness_against(self) if self.exact else None

    def witness_against(self, other: "ValueGroup"):
        """A rational in this group but (by canonical form) not in the other."""
        for p in sorted(self.infinite):
            sup = other.exponent(p)
            if sup is not None:
                return Fraction(1, p ** (sup + 1))
        for p, e in self.finite:
            sup = other.exponent(p)
            if sup is not None and sup < e:
                return Fraction(1, p ** (sup + 1))
        return None

    def describe(self) -> str:
        parts = [f"1/{p}^inf" for p in sorted(self.infinite)]
        parts += [f"1/{p}^{e}" for p, e in self.finite if e]
        body = "Z[" + ", ".join(parts) + "]" if parts else "Z"
        if not self.exact:
            body += f" (to depth {self.depth_checked})"
        return body
