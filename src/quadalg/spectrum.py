"""Degeneracies of the 1:1:2 anisotropic oscillator, three independent ways.

The N-th level carries l = (N+1)/4; its degeneracy is counted (i) by
decomposing the level into irreducible pieces of the compact quadratic
algebra, doubling every k > 1/2 piece for the two equivalent basis choices,
(ii) by the closed formulas in m = N // 4, and (iii) by brute-force
enumeration of the compositions n1 + n2 + 2*n3 = N.  Dropping the doubling
(respectively, identifying n1 <-> n2) counts partitions instead.  Integer
arithmetic throughout; the brute force is the ground-truth oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
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

    def parts_string(self) -> str:
        return ";".join(f"{p.k}:{p.dim}:{p.multiplicity}" for p in self.parts)


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
    return tuple(LevelPart(k=Fraction(twok, 2), dim=(N + 1 - twok) // 2 + 1,
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
    """Enumerate solutions of n1 + n2 + 2*n3 = N over non-negative integers.

    ``ordered=False`` identifies (n1, n2) with (n2, n1).  This is the oracle
    the formulas and the representation decomposition are tested against.
    """
    if N < 0:
        raise ValueError("level index must be >= 0")
    count = 0
    for n3 in range(N // 2 + 1):
        rest = N - 2 * n3
        for n1 in range(rest + 1):
            n2 = rest - n1
            if ordered or n1 <= n2:
                count += 1
    return count


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
