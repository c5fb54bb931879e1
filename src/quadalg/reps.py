"""Closed-form matrix representations.

Covers the linear two-mode algebras (angular-momentum and positive discrete
series) and the quadratic three-mode algebras in both sectors:

* compact sector: finite dimension ``2l - k + 1``, ladder squares
  ``(n+1)(n+2k)(2l-n-k)``;
* noncompact sector: infinite representation stored truncated, ladder
  squares ``(n+1)(n+2k)(n+k-2l+1)``; the top basis index is flagged and
  excluded from residual norms.

Labels ``(k, l)`` are exact rationals (denominators 2 and 4).  All ladder
matrix elements are square roots of non-negative integers; the exact squared
values are kept on the representation for exact-arithmetic checks.

A representation is its band: the diagonal of ``q0`` and the raising entries
below it.  Checks contract the band in O(d) with the float operations of the
dense products (every other term of a bidiagonal product is an exact zero),
and ``rep_to_dict`` writes the dense JSON from the band.  No dense matrix
is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

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

    def __post_init__(self):
        object.__setattr__(self, "j", as_fraction(self.j))
        _require((2 * self.j).denominator == 1 and self.j >= 0,
                 f"j must be a non-negative multiple of 1/2, got {self.j}")


@dataclass(frozen=True)
class Su11Label:
    """Discrete-series label k (2k a positive integer)."""

    k: Fraction

    def __post_init__(self):
        object.__setattr__(self, "k", as_fraction(self.k))
        _require((2 * self.k).denominator == 1 and self.k > 0,
                 f"k must be a positive multiple of 1/2, got {self.k}")


AnyLabel = Union[AlgebraLabel, Su2Label, Su11Label]


@dataclass
class Representation:
    """Exact band data of a ladder representation, with its float images.

    ``q0_diag[n]`` is the exact diagonal entry and ``qp_sq[n]`` the exact
    rational square of the raising entry n -> n+1; ``diag`` and ``raising``
    are their floats (``raising[n] = sqrt(float(qp_sq[n]))``).  The lowering
    entry n+1 -> n equals the raising entry n -> n+1.  For a truncated
    noncompact representation ``boundary_index`` marks the top basis index,
    whose raising transition was dropped.
    """

    label: AnyLabel
    dim: int
    kval: Optional[Fraction]
    lval: Optional[Fraction]
    qp_sq: tuple[Fraction, ...]
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


def _ladder_rep(label: AnyLabel, dim: int, q0_diag, squares, *, truncated: bool,
                kval=None, lval=None) -> Representation:
    """``squares`` are the exact (positive integer) squares of the raising entries."""
    assert len(squares) == max(dim - 1, 0)
    q0d = tuple(as_fraction(x) for x in q0_diag)
    return Representation(
        label=label, dim=dim, kval=kval, lval=lval,
        qp_sq=tuple(Fraction(s) for s in squares), q0_diag=q0d,
        diag=np.array([float(x) for x in q0d]),
        raising=np.array([math.sqrt(s) for s in squares]),
        truncated=truncated, boundary_index=(dim - 1 if truncated else None),
    )


def compact_rep(label: AlgebraLabel) -> Representation:
    """Finite representation of the compact quadratic algebra."""
    _require(label.sector == "compact", "compact_rep needs a compact label")
    k, l = label.k, label.l
    dim, twok, step, base = label.dim, int(2 * k), label.step, k - l
    squares = [(n + 1) * (n + twok) * (step - n) for n in range(dim - 1)]  # 2l-n-k = step-n
    return _ladder_rep(label, dim, [base + n for n in range(dim)], squares,
                       truncated=False, kval=label.kval, lval=l)


def noncompact_rep(label: AlgebraLabel, dim: int) -> Representation:
    """Truncation of the infinite noncompact representation to ``dim`` states.

    For k > 1/2 the same matrices also arise from the occupation basis with
    the first two modes swapped; see ``fock3.eigenspace_states``, which
    returns both chains.
    """
    _require(label.sector == "noncompact", "noncompact_rep needs a noncompact label")
    if dim < 1:
        raise InvalidLabelError(f"truncation dimension must be >= 1, got {dim}")
    k, l = label.k, label.l
    twok, step, base = int(2 * k), label.step, k - l
    squares = [(n + 1) * (n + twok) * (n + step + 1) for n in range(dim - 1)]  # k-2l = step
    return _ladder_rep(label, dim, [base + n for n in range(dim)], squares,
                       truncated=True, kval=label.kval, lval=l)


def su2_rep(j) -> Representation:
    """Spin-j representation; basis index n = j + m runs upward from m = -j."""
    label = Su2Label(as_fraction(j))
    j = label.j
    twoj = int(2 * j)
    dim = twoj + 1
    squares = [(n + 1) * (twoj - n) for n in range(dim - 1)]
    return _ladder_rep(label, dim, [n - j for n in range(dim)], squares,
                       truncated=False, kval=j * (j + 1), lval=None)


def su11_rep(k, dim: int) -> Representation:
    """Truncated positive discrete-series representation with lowest weight k."""
    label = Su11Label(as_fraction(k))
    k = label.k
    if dim < 1:
        raise InvalidLabelError(f"truncation dimension must be >= 1, got {dim}")
    twok = int(2 * k)
    squares = [(n + 1) * (twok + n) for n in range(dim - 1)]
    return _ladder_rep(label, dim, [k + n for n in range(dim)], squares,
                       truncated=True, kval=k * (1 - k), lval=None)


def two_dim_family(k) -> Representation:
    """The 2-dimensional compact representation attached to each k.

    Distinct k give different Casimir scalars, so the family realises
    infinitely many inequivalent representations of the same dimension.
    """
    k = as_fraction(k)
    label = AlgebraLabel.compact(k, (k + 1) / 2)
    rep = compact_rep(label)
    if not (np.array_equal(rep.diag, [float((k - 1) / 2), float((k + 1) / 2)])
            and np.array_equal(rep.raising, [math.sqrt(float(2 * k))])):
        raise AssertionError("2-dimensional family disagrees with compact_rep")
    return rep


# ---------------------------------------------------------------------------
# Structure polynomials and residuals


def structure_poly(rep: Representation) -> RationalPoly:
    """Structure polynomial p with [raising, lowering] = p(diagonal)."""
    label = rep.label
    if isinstance(label, Su2Label):
        return polyalg.su2_structure()
    if isinstance(label, Su11Label):
        return polyalg.su11_structure()
    if label.sector == "compact":
        return polyalg.compact_structure(label.k, label.l)
    return polyalg.noncompact_structure(label.k, label.l)


def relation_bands(diag: np.ndarray, raising: np.ndarray):
    """Bands of ``[q0,qp] - qp``, ``[q0,qm] + qm`` and ``[qp,qm]`` (all else is zero).

    Entry n of the first sits in column n, of the second in column n+1; the
    third is the diagonal.
    """
    up = (diag[1:] * raising - raising * diag[:-1]) - raising
    down = (diag[:-1] * raising - raising * diag[1:]) + raising
    sq = raising * raising
    return up, down, np.append(0.0, sq) - np.append(sq, 0.0)


def defining_relation_residuals(rep: Representation) -> dict[str, float]:
    """Max-norm residuals of the defining relations, on interior columns."""
    up, down, comm = relation_bands(rep.diag, rep.raising)
    mask = rep.interior
    expected = structure_poly(rep)(rep.diag)
    return {
        "q0_qp": np.abs(up[mask[:-1]]).max(initial=0.0),
        "q0_qm": np.abs(down[mask[1:]]).max(initial=0.0),
        "qp_qm": np.abs((comm - expected)[mask]).max(initial=0.0),
    }


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
    convention_note: str
    interior_dim: int


def casimir_poly(rep: Representation) -> polyalg.CasimirPoly:
    return polyalg.discrete_antiderivative(structure_poly(rep))


def reference_casimir(label: AnyLabel) -> Fraction:
    """Closed-form Casimir value used as an independent reference per family."""
    if isinstance(label, Su2Label):
        return label.j * (label.j + 1)
    if isinstance(label, Su11Label):
        return label.k * (1 - label.k)
    k, l = label.k, label.l
    if label.sector == "compact":
        return l ** 3 + (l + 1) * (k * (1 - k) - 1) + 1
    return l * (l - k ** 2)


def casimir_value(rep: Representation) -> CasimirReport:
    """Evaluate the Casimir ``qp@qm + g(q0 - 1)`` of ``rep`` against closed forms.

    It is diagonal, with entry ``raising[n-1]**2 + g(diag[n] - 1)`` at level n.
    """
    g = casimir_poly(rep)
    mask = rep.interior
    diag = (np.append(0.0, rep.raising * rep.raising) + g(rep.diag - 1.0))[mask]
    value = float(diag.mean()) if diag.size else 0.0
    dev = np.abs(diag - value).max(initial=0.0)
    # exact route: the lowest state is annihilated, so C = g(q0(0) - 1) there
    exact = g(rep.q0_diag[0] - 1)
    ref = reference_casimir(rep.label)
    return CasimirReport(
        value=value, max_deviation=float(dev), exact_value=exact,
        reference_value=ref, matches_reference=(exact == ref),
        convention_note=g.convention_note, interior_dim=int(mask.sum()),
    )


def casimir_scalar_exact(label: AlgebraLabel, check_dim: int = 12) -> Fraction:
    """Exact Casimir scalar from squared ladder entries, verified across levels.

    Computes ``qp_sq[n-1] + g(q0(n) - 1)`` in rational arithmetic for every
    level up to ``check_dim`` (or the full compact dimension) and requires all
    values to coincide.
    """
    rep = compact_rep(label) if label.sector == "compact" else noncompact_rep(label, check_dim)
    g = casimir_poly(rep)
    values = {low_sq + g(x - 1) for low_sq, x in zip((Fraction(0),) + rep.qp_sq, rep.q0_diag)}
    if len(values) != 1:
        raise AssertionError(f"Casimir not scalar in exact arithmetic for {label}")
    return values.pop()


# ---------------------------------------------------------------------------
# Serialization


def _frac_str(x: Optional[Fraction]) -> Optional[str]:
    return None if x is None else str(x)


def label_fields(rep: Representation) -> dict:
    """Sector, label and dimension, the head of every ``rep``/``casimir`` document."""
    label = rep.label
    if isinstance(label, Su2Label):
        head = {"sector": "su2", "j": _frac_str(label.j)}
    elif isinstance(label, Su11Label):
        head = {"sector": "su11", "k": _frac_str(label.k)}
    else:
        head = {"sector": label.sector, "k": _frac_str(label.k), "l": _frac_str(label.l)}
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
        "convention": rep_c.convention_note,
    }
    return doc
