"""Ladder representations of the four algebras, built from one table.

Every algebra here is one polynomial: [Q0, Q+-] = +-Q+- and
[Q+, Q-] = c2 Q0^2 + c1 Q0 + c0.  ``ALGEBRAS`` holds, per sector, the
coefficients (c0, c1, c2) as a function of K = k(1-k) and l, the lowest Q0
eigenvalue as a function of the label, and whether the representation is
finite.  ``ladder_rep`` builds every representation from that entry alone:

* compact: finite dimension ``2l - k + 1``;
* noncompact: infinite, stored truncated; the top basis index is flagged
  and excluded from residual norms;
* su2 (spin j, dimension ``2j + 1``) and su11 (positive discrete series k,
  stored truncated): the linear two-mode algebras.

Labels are exact rationals (k and j multiples of 1/2, l of 1/4).  All ladder
matrix elements are square roots of non-negative integers; the exact squared
values are kept on the representation for exact-arithmetic checks.

A representation is its band: the diagonal of ``q0`` and the raising entries
below it.  Checks contract the band in O(d) with the float operations of the
dense products (every other term of a bidiagonal product is an exact zero),
and ``rep_to_dict`` writes the dense JSON from the band.  No dense matrix
is ever built.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import InvalidLabelError
from . import polyalg
from .output import diag_matrix_json
from .polyalg import RationalPoly, as_fraction


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidLabelError(message)


@dataclass(frozen=True)
class AlgebraLabel:
    """Label (k, l, sector) of an irreducible quadratic-algebra representation.

    ``k`` is a positive multiple of 1/2, ``l`` a multiple of 1/4.  The sector
    fixes the integrality constraint: ``2l - k`` a non-negative integer
    (compact, dimension ``2l - k + 1``) or ``k - 2l`` a non-negative integer
    (noncompact, infinite dimensional).
    """

    k: Fraction
    l: Fraction
    sector: str

    def __post_init__(self):
        object.__setattr__(self, "k", as_fraction(self.k))
        object.__setattr__(self, "l", as_fraction(self.l))
        k, l = self.k, self.l
        _require(self.sector in ("compact", "noncompact"),
                 f"sector must be 'compact' or 'noncompact', got {self.sector!r}")
        _require((2 * k).denominator == 1 and k >= Fraction(1, 2),
                 f"k must be a multiple of 1/2 with k >= 1/2, got {k}")
        _require((4 * l).denominator == 1,
                 f"l must be a multiple of 1/4, got {l}")
        if self.sector == "compact":
            step = 2 * l - k
            _require(step.denominator == 1 and step >= 0,
                     f"compact labels need 2l-k a non-negative integer, got 2l-k = {step}")
        else:
            step = k - 2 * l
            _require(step.denominator == 1 and step >= 0,
                     f"noncompact labels need k-2l a non-negative integer, got k-2l = {step}")

    @classmethod
    def compact(cls, k, l) -> "AlgebraLabel":
        return cls(as_fraction(k), as_fraction(l), "compact")

    @classmethod
    def noncompact(cls, k, l) -> "AlgebraLabel":
        return cls(as_fraction(k), as_fraction(l), "noncompact")

    @property
    def kval(self) -> Fraction:
        """Eigenvalue k(1-k) of the commuting element K."""
        return self.k * (1 - self.k)

    @property
    def step(self) -> int:
        """2l-k (compact) or k-2l (noncompact), as a plain integer."""
        if self.sector == "compact":
            return int(2 * self.l - self.k)
        return int(self.k - 2 * self.l)

    @property
    def dim(self) -> int:
        """Dimension 2l-k+1 of the compact representation."""
        _require(self.sector == "compact", "only compact labels have a finite dimension")
        return self.step + 1


@dataclass(frozen=True)
class Su2Label:
    """Spin label j (non-negative multiple of 1/2)."""

    j: Fraction
    sector = "su2"
    l = None  # the structure polynomial takes no second label

    def __post_init__(self):
        object.__setattr__(self, "j", as_fraction(self.j))
        _require((2 * self.j).denominator == 1 and self.j >= 0,
                 f"j must be a non-negative multiple of 1/2, got {self.j}")

    @property
    def kval(self) -> Fraction:
        """Eigenvalue j(j+1) of the quadratic Casimir."""
        return self.j * (self.j + 1)

    @property
    def dim(self) -> int:
        """Dimension 2j+1 of the spin-j representation."""
        return int(2 * self.j) + 1


@dataclass(frozen=True)
class Su11Label:
    """Discrete-series label k (2k a positive integer)."""

    k: Fraction
    sector = "su11"
    l = None  # the structure polynomial takes no second label

    def __post_init__(self):
        object.__setattr__(self, "k", as_fraction(self.k))
        _require((2 * self.k).denominator == 1 and self.k > 0,
                 f"k must be a positive multiple of 1/2, got {self.k}")

    @property
    def kval(self) -> Fraction:
        """Eigenvalue k(1-k) of the quadratic Casimir."""
        return self.k * (1 - self.k)


AnyLabel = Union[AlgebraLabel, Su2Label, Su11Label]


class Algebra(NamedTuple):
    """One sector: [Q+, Q-] = c2 Q0^2 + c1 Q0 + c0 with ``structure(K, l) = (c0, c1, c2)``,
    the Q0 eigenvalue of the lowest state as a function of the label, and
    whether the representation is finite.

    ``structure`` takes exact rationals (K = k(1-k) and l of a label) or
    per-state float arrays (the realized K and l of ``fock3``); the
    two-mode algebras ignore both.
    """

    structure: Callable
    lowest: Callable
    finite: bool


ALGEBRAS = {
    "compact": Algebra(lambda K, l: (K - l * (l + 1), 2 * l - 1, 3),
                       lambda label: label.k - label.l, True),
    "noncompact": Algebra(lambda K, l: (-(K - l * (l - 1)), -(2 * l + 1), -3),
                          lambda label: label.k - label.l, False),
    "su2": Algebra(lambda K, l: (0, 2, 0), lambda label: -label.j, True),
    "su11": Algebra(lambda K, l: (0, -2, 0), lambda label: label.k, False),
}


def structure_poly(label: AnyLabel) -> RationalPoly:
    """Structure polynomial p with [raising, lowering] = p(diagonal)."""
    return RationalPoly(ALGEBRAS[label.sector].structure(label.kval, label.l))


@dataclass
class Representation:
    """Exact band data of a ladder representation, with its float images.

    ``q0_diag[n]`` is the exact diagonal entry and ``qp_sq[n]`` the exact
    (integer) square of the raising entry n -> n+1; ``diag`` and ``raising``
    are their floats (``raising[n] = sqrt(float(qp_sq[n]))``).  The lowering
    entry n+1 -> n equals the raising entry n -> n+1.  For a truncated
    representation ``boundary_index`` marks the top basis index, whose
    raising transition was dropped.
    """

    label: AnyLabel
    dim: int
    qp_sq: tuple[int, ...]
    q0_diag: tuple[Fraction, ...]
    diag: np.ndarray
    raising: np.ndarray
    truncated: bool = False
    boundary_index: Optional[int] = None

    @property
    def interior(self) -> np.ndarray:
        """Boolean mask of basis indices unaffected by truncation."""
        mask = np.ones(self.dim, dtype=bool)
        if self.boundary_index is not None:
            mask[self.boundary_index] = False
        return mask


def ladder_rep(label: AnyLabel, dim: Optional[int] = None) -> Representation:
    """The representation of ``label``; an infinite one truncated to ``dim`` states.

    The diagonal climbs in unit steps from the sector's lowest Q0, and the
    squares follow from the structure polynomial p alone: [Q+, Q-] = p(Q0)
    at level n reads qp_sq[n-1] - qp_sq[n] = p(q0_n), with qp_sq[-1] = 0.
    Each step -p(q0_n) is an integer and quadratic in n, so the steps are
    generated from their forward differences at n = 0 and summed in ints.
    """
    algebra = ALGEBRAS[label.sector]
    if algebra.finite:
        dim = label.dim
    elif dim is None or dim < 1:
        raise InvalidLabelError(f"truncation dimension must be >= 1, got {dim}")
    low = algebra.lowest(label)
    c0, c1, c2 = algebra.structure(label.kval, label.l)
    # -p(low + n) at n = 0 and its first and second forward differences
    s0, d1, d2 = -(c0 + (c1 + c2 * low) * low), -(c1 + c2 * (2 * low + 1)), -2 * c2
    _require(s0.denominator == d1.denominator == 1, f"{label} has non-integer ladder squares")
    steps = itertools.accumulate(itertools.accumulate(
        itertools.repeat(int(d2)), initial=int(d1)), initial=int(s0))
    squares = list(itertools.islice(itertools.accumulate(steps), dim - 1))
    q0_diag = tuple(low + n for n in range(dim))
    return Representation(
        label=label, dim=dim, qp_sq=tuple(squares), q0_diag=q0_diag,
        diag=np.array([float(x) for x in q0_diag]),
        raising=np.array([math.sqrt(s) for s in squares]),
        truncated=not algebra.finite, boundary_index=None if algebra.finite else dim - 1,
    )


def relation_bands(diag: np.ndarray, raising: np.ndarray):
    """Bands of ``[q0,qp] - qp``, ``[q0,qm] + qm`` and ``[qp,qm]`` (all else is zero).

    Entry n of the first sits in column n, of the second in column n+1; the
    third is the diagonal.
    """
    up = (diag[1:] * raising - raising * diag[:-1]) - raising
    down = (diag[:-1] * raising - raising * diag[1:]) + raising
    sq = raising * raising
    return up, down, np.append(0.0, sq) - np.append(sq, 0.0)


# ---------------------------------------------------------------------------
# Casimir evaluation


@dataclass
class CasimirReport:
    """Scalar Casimir value of a representation, with its exact counterpart.

    ``value``/``max_deviation`` come from the float diagonal; ``exact_value``
    evaluates the same antiderivative recipe in rational arithmetic.
    ``reference_value`` is the independent closed form for the label, which
    for the noncompact sector differs from the recipe by more than an overall
    constant; both numbers are always reported.
    """

    value: float
    max_deviation: float
    exact_value: Fraction
    reference_value: Optional[Fraction]
    matches_reference: bool


def casimir_poly(label: AnyLabel) -> RationalPoly:
    return polyalg.discrete_antiderivative(structure_poly(label))


def reference_casimir(label: AnyLabel) -> Fraction:
    """Closed-form Casimir value used as an independent reference per family."""
    if label.sector == "su2":
        return label.j * (label.j + 1)
    if label.sector == "su11":
        return label.k * (1 - label.k)
    k, l = label.k, label.l
    if label.sector == "compact":
        return l ** 3 + (l + 1) * (k * (1 - k) - 1) + 1
    return l * (l - k ** 2)


def casimir_value(rep: Representation) -> CasimirReport:
    """Evaluate the Casimir ``qp@qm + g(q0 - 1)`` of ``rep`` against closed forms.

    It is diagonal, with entry ``raising[n-1]**2 + g(diag[n] - 1)`` at level n.
    """
    g = casimir_poly(rep.label)
    diag = (np.append(0.0, rep.raising * rep.raising) + g(rep.diag - 1.0))[rep.interior]
    value = float(diag.mean()) if diag.size else 0.0
    dev = np.abs(diag - value).max(initial=0.0)
    # exact route: the lowest state is annihilated, so C = g(q0(0) - 1) there
    exact = g(rep.q0_diag[0] - 1)
    ref = reference_casimir(rep.label)
    return CasimirReport(
        value=value, max_deviation=float(dev), exact_value=exact,
        reference_value=ref, matches_reference=(exact == ref),
    )


# ---------------------------------------------------------------------------
# Serialization


def _frac_str(x: Optional[Fraction]) -> Optional[str]:
    return None if x is None else str(x)


def label_fields(rep: Representation) -> dict:
    """Sector, label and dimension, the head of every ``rep``/``casimir`` document."""
    label = rep.label
    head = {"sector": label.sector}
    head.update((f.name, _frac_str(getattr(label, f.name)))
                for f in dataclasses.fields(label) if f.name != "sector")
    head["dim"] = rep.dim
    return head


def rep_to_dict(rep: Representation) -> dict:
    """JSON-ready document with row-major dense matrices as IEEE doubles.

    ``qp`` and ``qm`` are written from the band as pre-rendered JSON; the
    dense matrices are never built.
    """
    doc = label_fields(rep)
    doc["truncated"] = rep.truncated
    doc["q0"] = rep.diag.tolist()
    raising = rep.raising.tolist()
    doc["qp"] = diag_matrix_json(raising, -1)
    doc["qm"] = diag_matrix_json(raising, 1)
    rep_c = casimir_value(rep)
    doc["casimir"] = {
        "value": rep_c.value,
        "max_deviation": rep_c.max_deviation,
        "exact": _frac_str(rep_c.exact_value),
        "reference": _frac_str(rep_c.reference_value),
        "matches_reference": rep_c.matches_reference,
        "convention": polyalg.CASIMIR_CONVENTION,
    }
    return doc
