"""Degeneracies of the 1:1:2 anisotropic oscillator, three independent ways.

The N-th level carries l = (N+1)/4; its degeneracy is counted (i) by
decomposing the level into irreducible pieces of the compact quadratic
algebra, doubling every k > 1/2 piece for the two equivalent basis choices,
(ii) by the closed formulas in m = N // 4, and (iii) by brute force over
the compositions n1 + n2 + 2*n3 = N, enumerating n3 and counting the
(n1, n2) pairs of each line directly, in O(N) per level.  Dropping the
doubling (respectively, identifying n1 <-> n2) counts partitions instead.
Integer arithmetic throughout; the brute force is the ground-truth oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# one Fraction per label k = twok/2, shared by all the levels of a window
_half = lru_cache(maxsize=8192)(lambda twok: Fraction(twok, 2))


@dataclass(frozen=True, slots=True)
class LevelPart:
    """One irreducible piece of a level: label k, its dimension, multiplicity."""

    k: Fraction
    dim: int
    multiplicity: int


@dataclass
class DegeneracyReport:
    """Per-level decomposition with the three counts of each kind."""

    N: int
    l: Fraction
    parts: tuple[LevelPart, ...]
    degeneracy_reptheory: int
    degeneracy_formula: int
    degeneracy_bruteforce: int
    partitions_reptheory: int
    partitions_formula: int
    partitions_bruteforce: int

    @property
    def consistent(self) -> bool:
        return (self.degeneracy_reptheory == self.degeneracy_formula == self.degeneracy_bruteforce
                and self.partitions_reptheory == self.partitions_formula == self.partitions_bruteforce)


def decompose_level(N: int) -> tuple[LevelPart, ...]:
    """All compact irreducible pieces compatible with l = (N+1)/4.

    k runs over the positive half-integers with 2l - k a non-negative
    integer; each piece has dimension 2l - k + 1 and multiplicity 2 unless
    k = 1/2 (where the two basis choices coincide).
    """
    if N < 0:
        raise ValueError("level index must be >= 0")
    # 2l - k = (N + 1 - 2k)/2 is an integer when 2k has the parity of N + 1,
    # and non-negative up to 2k = N + 1
    return tuple(LevelPart(k=_half(twok), dim=(N + 1 - twok) // 2 + 1,
                           multiplicity=1 if twok == 1 else 2)
                 for twok in range(2 - (N + 1) % 2, N + 2, 2))


def degeneracy_formula(N: int) -> int:
    """Closed form by residue of N mod 4, with m = N // 4."""
    if N < 0:
        raise ValueError("level index must be >= 0")
    m, r = divmod(N, 4)
    if r == 0:
        return (2 * m + 1) ** 2
    if r == 1:
        return (2 * m + 1) * (2 * m + 2)
    if r == 2:
        return 4 * (m + 1) ** 2
    return 2 * (m + 1) * (2 * m + 3)


def partition_formula(N: int) -> int:
    """Closed form for the unordered count: (m+1)(2m+1) or (m+1)(2m+3)."""
    if N < 0:
        raise ValueError("level index must be >= 0")
    m, r = divmod(N, 4)
    if r in (0, 1):
        return (m + 1) * (2 * m + 1)
    return (m + 1) * (2 * m + 3)


def brute_force_count(N: int, ordered: bool) -> int:
    """Count solutions of n1 + n2 + 2*n3 = N over non-negative integers.

    n3 is enumerated; the pairs (n1, n2) on each line n1 + n2 = rest are
    counted directly: rest + 1 of them, or rest // 2 + 1 with n1 <= n2 when
    ``ordered=False`` identifies (n1, n2) with (n2, n1).  This is the oracle
    the formulas and the representation decomposition are tested against.
    """
    if N < 0:
        raise ValueError("level index must be >= 0")
    return sum(rest + 1 if ordered else rest // 2 + 1 for rest in range(N, -1, -2))


def level_report(N: int) -> DegeneracyReport:
    """Assemble all six counts for one level."""
    parts = decompose_level(N)
    return DegeneracyReport(
        N=N,
        l=Fraction(N + 1, 4),
        parts=parts,
        degeneracy_reptheory=sum(p.dim * p.multiplicity for p in parts),
        degeneracy_formula=degeneracy_formula(N),
        degeneracy_bruteforce=brute_force_count(N, ordered=True),
        partitions_reptheory=sum(p.dim for p in parts),
        partitions_formula=partition_formula(N),
        partitions_bruteforce=brute_force_count(N, ordered=False),
    )
