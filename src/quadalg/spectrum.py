"""Degeneracies of the 1:1:2 anisotropic oscillator, three independent ways.

The N-th level carries l = (N+1)/4; its degeneracy is counted (i) by
decomposing the level into irreducible pieces of the compact quadratic
algebra, doubling every k > 1/2 piece for the two equivalent basis choices,
(ii) by the closed formulas in m = N // 4, and (iii) by brute force over
the compositions n1 + n2 + 2*n3 = N, enumerating n3 and counting the
(n1, n2) pairs of each line directly, in O(N) per level.  Dropping the
doubling (respectively, identifying n1 <-> n2) counts partitions instead.
Integer arithmetic throughout; the brute force is the ground-truth oracle.
A level's pieces are described once, as the integer triples (2k, dim,
multiplicity) of :func:`level_parts`: the counts sum them and the CLI
renders them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


@dataclass
class DegeneracyReport:
    """The three degeneracy and the three partition counts of one level."""

    N: int
    l: Fraction
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


def level_parts(N: int) -> Iterator[tuple[int, int, int]]:
    """All compact irreducible pieces compatible with l = (N+1)/4, as (2k, dim, multiplicity).

    k runs over the positive half-integers with 2l - k a non-negative
    integer; each piece has dimension 2l - k + 1 and multiplicity 2 unless
    k = 1/2 (where the two basis choices coincide).
    """
    if N < 0:
        raise ValueError("level index must be >= 0")
    # 2l - k = (N + 1 - 2k)/2 is an integer when 2k has the parity of N + 1,
    # and non-negative up to 2k = N + 1: the dimension falls by one as 2k
    # climbs by two, and only a first piece at 2k = 1 has multiplicity 1
    first = 2 - (N + 1) % 2
    return zip(range(first, N + 2, 2), range((N + 1 - first) // 2 + 1, 0, -1),
               itertools.chain((1 if first == 1 else 2,), itertools.repeat(2)))


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
    return (m + 1) * (2 * m + 1 if r < 2 else 2 * m + 3)


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
    degeneracy = partitions = 0
    for _, dim, multiplicity in level_parts(N):
        degeneracy += dim * multiplicity
        partitions += dim
    return DegeneracyReport(
        N=N,
        l=Fraction(N + 1, 4),
        degeneracy_reptheory=degeneracy,
        degeneracy_formula=degeneracy_formula(N),
        degeneracy_bruteforce=brute_force_count(N, ordered=True),
        partitions_reptheory=partitions,
        partitions_formula=partition_formula(N),
        partitions_bruteforce=brute_force_count(N, ordered=False),
    )
