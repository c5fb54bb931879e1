"""Ladder representations of the four algebras, built from one table.

Every algebra here is one polynomial: [Q0, Q+-] = +-Q+- and
[Q+, Q-] = c2 Q0^2 + c1 Q0 + c0.  ``ALGEBRAS`` holds, per sector, the
coefficients (c0, c1, c2) as a function of K and l, the lowest Q0
eigenvalue, whether the representation is finite, and the label: its
options, its integrality rules, K, the step that fixes the dimension and
the closed-form Casimir value.  One ``Label`` class reads that row, and
``ladder_rep`` builds every representation from it alone:

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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import InvalidLabelError
from . import polyalg
from .output import diag_matrix_json
from .polyalg import RationalPoly, as_fraction


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidLabelError(message)


def _whole(x: Fraction, low: int = 0) -> bool:
    """Whether ``x`` is an integer >= ``low``."""
    return x.denominator == 1 and x >= low


class Algebra(NamedTuple):
    """One sector: its label and its polynomial [Q+, Q-] = c2 Q0^2 + c1 Q0 + c0.

    The label takes the options ``names`` and must pass each of ``rules``, a
    (test of the label, message) pair whose message is formatted with the
    label's fields and ``step``.  ``step`` is the rational that the rules make a
    non-negative integer; a finite representation has dimension ``step + 1``.
    ``kval`` is K of the label, ``reference`` its closed-form Casimir value,
    ``lowest`` the Q0 eigenvalue of the lowest state.

    ``structure(K, l) = (c0, c1, c2)`` takes exact rationals (K and l of a
    label) or per-state float arrays (the realized K and l of ``fock3``); the
    two-mode algebras ignore both.
    """

    names: tuple[str, ...]
    step: Callable
    rules: tuple[tuple[Callable, str], ...]
    kval: Callable
    reference: Callable
    structure: Callable
    lowest: Callable
    finite: bool


def _k_one_minus_k(x) -> Fraction:
    return x.k * (1 - x.k)


_K_RULE = (lambda x: _whole(2 * x.k, 1), "k must be a multiple of 1/2 with k >= 1/2, got {k}")
_L_RULE = (lambda x: (4 * x.l).denominator == 1, "l must be a multiple of 1/4, got {l}")

ALGEBRAS = {
    "compact": Algebra(
        names=("k", "l"), step=lambda x: 2 * x.l - x.k,
        rules=(_K_RULE, _L_RULE, (lambda x: _whole(2 * x.l - x.k), "compact labels need "
                                  "2l-k a non-negative integer, got 2l-k = {step}")),
        kval=_k_one_minus_k, reference=lambda x: x.l ** 3 + (x.l + 1) * (x.k * (1 - x.k) - 1) + 1,
        structure=lambda K, l: (K - l * (l + 1), 2 * l - 1, 3),
        lowest=lambda x: x.k - x.l, finite=True),
    "noncompact": Algebra(
        names=("k", "l"), step=lambda x: x.k - 2 * x.l,
        rules=(_K_RULE, _L_RULE, (lambda x: _whole(x.k - 2 * x.l), "noncompact labels need "
                                  "k-2l a non-negative integer, got k-2l = {step}")),
        kval=_k_one_minus_k, reference=lambda x: x.l * (x.l - x.k ** 2),
        structure=lambda K, l: (-(K - l * (l - 1)), -(2 * l + 1), -3),
        lowest=lambda x: x.k - x.l, finite=False),
    "su2": Algebra(
        names=("j",), step=lambda x: 2 * x.j,
        rules=((lambda x: _whole(2 * x.j), "j must be a non-negative multiple of 1/2, got {j}"),),
        kval=lambda x: x.j * (x.j + 1), reference=lambda x: x.j * (x.j + 1),
        structure=lambda K, l: (0, 2, 0), lowest=lambda x: -x.j, finite=True),
    "su11": Algebra(
        names=("k",), step=lambda x: 2 * x.k - 1,
        rules=((lambda x: _whole(2 * x.k, 1), "k must be a positive multiple of 1/2, got {k}"),),
        kval=_k_one_minus_k, reference=lambda x: x.k * (1 - x.k),
        structure=lambda K, l: (0, -2, 0), lowest=lambda x: x.k, finite=False),
}


@dataclass(frozen=True)
class Label:
    """Label of an irreducible representation of the ``ALGEBRAS`` sector ``sector``.

    The sector's row names the fields the label takes (k and l, j, or k), as
    exact rationals, and the rules they must pass; every other field stays
    None.
    """

    sector: str
    k: Optional[Fraction] = None
    l: Optional[Fraction] = None
    j: Optional[Fraction] = None

    def __post_init__(self):
        row = ALGEBRAS.get(self.sector)
        if row is None:
            raise InvalidLabelError(f"sector must be one of {', '.join(map(repr, ALGEBRAS))}, "
                                    f"got {self.sector!r}")
        for name in ("k", "l", "j"):
            if name in row.names:
                object.__setattr__(self, name, as_fraction(getattr(self, name)))
            elif getattr(self, name) is not None:
                raise InvalidLabelError(f"a {self.sector} label takes no {name}")
        for test, message in row.rules:
            if not test(self):
                raise InvalidLabelError(message.format(**vars(self), step=row.step(self)))

    @property
    def kval(self) -> Fraction:
        """K of the label: k(1-k), or j(j+1) for su2."""
        return ALGEBRAS[self.sector].kval(self)

    @property
    def step(self) -> int:
        """The sector's step (2l-k, k-2l, 2j or 2k-1) as a plain integer."""
        return int(ALGEBRAS[self.sector].step(self))

    @property
    def dim(self) -> int:
        """Dimension ``step + 1`` of a finite representation."""
        _require(ALGEBRAS[self.sector].finite,
                 f"{self.sector} labels have no finite dimension")
        return self.step + 1


def structure_poly(label: Label) -> RationalPoly:
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

    label: Label
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


def ladder_squares(label: Label) -> Iterator[int]:
    """The exact squares qp_sq[0], qp_sq[1], ... of the raising entries, lazily.

    The diagonal climbs in unit steps from the sector's lowest Q0, and the
    squares follow from the structure polynomial p alone: [Q+, Q-] = p(Q0)
    at level n reads qp_sq[n-1] - qp_sq[n] = p(q0_n), with qp_sq[-1] = 0.
    Each step -p(q0_n) is an integer and quadratic in n, so the steps are
    generated from their forward differences at n = 0 and summed in ints.
    A finite label's squares stop at its top state; an infinite one's never do.
    """
    algebra = ALGEBRAS[label.sector]
    low = algebra.lowest(label)
    c0, c1, c2 = algebra.structure(label.kval, label.l)
    # -p(low + n) at n = 0 and its first and second forward differences
    s0, d1, d2 = -(c0 + (c1 + c2 * low) * low), -(c1 + c2 * (2 * low + 1)), -2 * c2
    _require(s0.denominator == d1.denominator == 1, f"{label} has non-integer ladder squares")
    steps = itertools.accumulate(itertools.accumulate(
        itertools.repeat(int(d2)), initial=int(d1)), initial=int(s0))
    squares = itertools.accumulate(steps)
    return itertools.islice(squares, label.step) if algebra.finite else squares


def ladder_rep(label: Label, dim: Optional[int] = None) -> Representation:
    """The representation of ``label``; an infinite one truncated to ``dim`` states."""
    algebra = ALGEBRAS[label.sector]
    if algebra.finite:
        dim = label.dim
    elif dim is None or dim < 1:
        raise InvalidLabelError(f"truncation dimension must be >= 1, got {dim}")
    squares = list(itertools.islice(ladder_squares(label), dim - 1))
    low = algebra.lowest(label)
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
    reference_value: Fraction
    matches_reference: bool


def casimir_poly(label: Label) -> RationalPoly:
    return polyalg.discrete_antiderivative(structure_poly(label))


def reference_casimir(label: Label) -> Fraction:
    """Closed-form Casimir value of the label, an independent reference."""
    return ALGEBRAS[label.sector].reference(label)


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


def label_fields(rep: Representation) -> dict:
    """Sector, label and dimension, the head of every ``rep``/``casimir`` document."""
    label = rep.label
    head = {"sector": label.sector}
    head.update((name, str(getattr(label, name))) for name in ALGEBRAS[label.sector].names)
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
        "exact": str(rep_c.exact_value),
        "reference": str(rep_c.reference_value),
        "matches_reference": rep_c.matches_reference,
        "convention": polyalg.CASIMIR_CONVENTION,
    }
    return doc
