"""Deformed-oscillator form of the compact algebra, and the fermion check.

Rescaling the compact ladder pair by 1/sqrt(l(l+1) - k(1-k)) turns each
finite representation into a deformed oscillator (N, A, A+) with
[A, A+] = F(N), where F = -p/sq is the compact structure polynomial p
rescaled to F(0) = 1 (sq = -p(0) = l(l+1) - k(1-k)).  The canonical
fermion is the 2-dimensional instance: it coincides with the deformation of
the (k=1, l=1) representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polyalg import RationalPoly
from .reps import AlgebraLabel, Representation, ladder_rep, relation_bands, structure_poly


@dataclass
class DeformedOscillator:
    """Number/lowering/raising triple with its exact commutator polynomial.

    ``number`` is the diagonal of N; ``lowering[n]`` is the entry of A from
    n+1 to n, which is also the entry of A+ from n to n+1.
    """

    label: AlgebraLabel
    number: np.ndarray
    lowering: np.ndarray
    f_poly: RationalPoly
    scale_sq: Fraction
    scale: float


def deform(rep: Representation) -> DeformedOscillator:
    """Rescale a compact representation into deformed-oscillator form.

    F(N) = -p(N) / sq for the structure polynomial p, with sq = -p(0) =
    l(l+1) - k(1-k), which is positive for every valid compact label.
    """
    label = rep.label
    if label.sector != "compact":
        raise ValueError("deformation is defined for compact representations")
    p = structure_poly(label)
    sq = -p(0)
    if sq <= 0:
        raise ValueError(f"non-positive scale l(l+1) - k(1-k) = {sq}")
    scale = float(np.sqrt(float(sq)))
    f_poly = p * (-1 / sq)
    return DeformedOscillator(
        label=label, number=rep.diag, lowering=rep.raising / scale,
        f_poly=f_poly, scale_sq=sq, scale=scale,
    )


def commutator_residuals(osc: DeformedOscillator) -> dict[str, float]:
    """Max-norm residuals of [N,A]+A, [N,A+]-A+ and [A,A+]-F(N)."""
    # A+ raises along the band, so the bands are [N,A+]-A+, [N,A]+A and [A+,A]
    up, down, comm = relation_bands(osc.number, osc.lowering)
    return {
        "n_a": float(np.abs(down).max(initial=0.0)),
        "n_adag": float(np.abs(up).max(initial=0.0)),
        "a_adag": float(np.abs(-comm - osc.f_poly(osc.number)).max(initial=0.0)),
    }


@dataclass
class FermionCheck:
    """Exact verification that the canonical fermion is a quadratic oscillator."""

    n_mat: np.ndarray
    f_mat: np.ndarray
    fdag_mat: np.ndarray
    commutator: np.ndarray
    rhs_poly: RationalPoly
    relations_exact: bool
    nilpotent: bool
    matches_deformed_rep: bool

    @property
    def passed(self) -> bool:
        return self.relations_exact and self.nilpotent and self.matches_deformed_rep


def fermion_check() -> FermionCheck:
    """Build the 2x2 fermion and verify its oscillator form exactly.

    [f, f+] must equal 1 - N/2 - 3 N^2/2 elementwise, f^2 = 0, and the triple
    must coincide with the deformation of the (k=1, l=1) representation.
    """
    n = np.diag([0.0, 1.0])
    f = np.array([[0.0, 1.0], [0.0, 0.0]])
    fdag = f.T.copy()
    comm = f @ fdag - fdag @ f
    rhs_poly = RationalPoly([1, Fraction(-1, 2), Fraction(-3, 2)])
    relations_exact = (
        np.array_equal(comm, np.diag(rhs_poly(np.diag(n))))
        and np.array_equal(n @ f - f @ n, -f)
        and np.array_equal(n @ fdag - fdag @ n, fdag)
    )
    nilpotent = not np.any(f @ f)
    osc = deform(ladder_rep(AlgebraLabel.compact(1, 1)))
    matches = (
        osc.f_poly == rhs_poly
        and np.array_equal(osc.number, np.diag(n))
        and np.array_equal(np.diag(osc.lowering, 1), f)
    )
    return FermionCheck(
        n_mat=n, f_mat=f, fdag_mat=fdag, commutator=comm, rhs_poly=rhs_poly,
        relations_exact=relations_exact, nilpotent=nilpotent,
        matches_deformed_rep=matches,
    )
