"""Generalized hypergeometric series and the three coherent-state families.

The lowering-eigenstate (Barut-Girardello type) family and the two
exponential-orbit (Perelomov type) families are built as coefficient vectors
over the representation bases of :mod:`quadalg.reps`.  Normalisations go
through the matching hypergeometric series: 0F2 for the eigenstates, a
terminating confluent series for the compact orbit states, and a formally
divergent 2F0 for the noncompact orbit states, which is only ever used as an
optimally truncated asymptotic sum with explicit metadata.

Gamma factors are evaluated through the standard log-gamma routine
(`math.lgamma`); every argument occurring here is a positive half-integer
plus a small integer, far inside its accurate range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import SeriesConvergenceError, TruncationError
from .reps import AlgebraLabel

KINDS = ("0F2", "1F1", "2F0")

Number = Union[float, complex]


def _is_nonpos_int(x: float, tol: float = 1e-12) -> bool:
    return x <= tol and abs(x - round(x)) < tol


@dataclass(frozen=True)
class HypergeomSeries:
    """Parameter set of a pFq series with p+q <= 2 as used here."""

    kind: str
    numerator: tuple[float, ...]
    denominator: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        arity = {"0F2": (0, 2), "1F1": (1, 1), "2F0": (2, 0)}[self.kind]
        if (len(self.numerator), len(self.denominator)) != arity:
            raise ValueError(f"{self.kind} takes {arity[0]} numerator and "
                             f"{arity[1]} denominator parameters")
        # a denominator pole is only acceptable if a numerator parameter
        # terminates the series first
        for b in self.denominator:
            if _is_nonpos_int(b) and not any(
                    _is_nonpos_int(a) and a >= b - 1e-12 for a in self.numerator):
                raise ValueError(f"denominator parameter {b} is a non-positive integer (pole)")

    def termination_index(self) -> Optional[int]:
        """Number of non-zero terms if the series terminates, else None."""
        cuts = [1 - int(round(a)) for a in self.numerator if _is_nonpos_int(a)]
        return min(cuts) if cuts else None


@dataclass
class HypergeomResult:
    value: Number
    terms: int
    converged: bool
    smallest_term_index: Optional[int] = None
    error_estimate: Optional[float] = None


def series_0f2(b1: float, b2: float) -> HypergeomSeries:
    return HypergeomSeries("0F2", (), (float(b1), float(b2)))


def series_1f1(a: float, b: float) -> HypergeomSeries:
    return HypergeomSeries("1F1", (float(a),), (float(b),))


def series_2f0(a: float, b: float) -> HypergeomSeries:
    return HypergeomSeries("2F0", (float(a), float(b)), ())


def _sum_convergent(num, den, x, tol, max_terms, stop_at: Optional[int]) -> HypergeomResult:
    term: Number = 1.0
    total: Number = 1.0
    m = 0
    while m < max_terms:
        if stop_at is not None and m + 1 >= stop_at:
            return HypergeomResult(total, m + 1, True)
        ratio = x / (m + 1)
        for a in num:
            ratio *= a + m
        for b in den:
            ratio /= b + m
        term = term * ratio
        total = total + term
        m += 1
        if abs(term) < tol * abs(total):
            return HypergeomResult(total, m + 1, True)
    raise SeriesConvergenceError(
        f"series did not converge within {max_terms} terms (|last term| = {abs(term):.3e})")


def hypergeom(series: HypergeomSeries, x: Number, tol: float = 1e-15,
              max_terms: int = 100000, order: Optional[int] = None) -> HypergeomResult:
    """Evaluate a series of kind 0F2, 1F1 or 2F0 at ``x``.

    0F2 and 1F1 are summed until ``|term| < tol * |partial sum|`` (hard cap
    ``max_terms``); a negative-argument 1F1 is routed through the transform
    M(a,b,x) = e^x M(b-a,b,-x) so the summed series has eventually constant
    sign.  2F0 requires a truncation ``order`` and returns the optimally
    truncated asymptotic sum together with the smallest-term index and its
    magnitude as an error estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(x, complex) and x.imag == 0:
        x = x.real
    if not isinstance(x, complex) and not math.isfinite(x):
        raise ValueError("argument must be finite")

    if series.kind == "2F0":
        if order is None or order < 1:
            raise ValueError("2F0 is divergent; supply a positive truncation order")
        return _sum_2f0(series, x, order)

    stop = series.termination_index()
    if series.kind == "1F1" and not isinstance(x, complex) and x < 0 and stop is None:
        a, b = series.numerator[0], series.denominator[0]
        inner = _sum_convergent((b - a,), (b,), -x, tol, max_terms, None)
        return HypergeomResult(math.exp(x) * inner.value, inner.terms, inner.converged)
    return _sum_convergent(series.numerator, series.denominator, x, tol, max_terms, stop)


def _sum_2f0(series: HypergeomSeries, x: Number, order: int) -> HypergeomResult:
    (a, b), stop = series.numerator, series.termination_index()
    term: Number = 1.0
    total: Number = 1.0
    best = (abs(1.0), 0)
    m = 0
    while m + 1 < order:
        if stop is not None and m + 1 >= stop:
            return HypergeomResult(total, m + 1, True, best[1], 0.0)
        nxt = term * (a + m) * (b + m) * x / (m + 1)
        if abs(nxt) >= best[0]:
            # terms started growing: optimal truncation reached
            return HypergeomResult(total, m + 1, False, best[1], abs(nxt))
        term = nxt
        total = total + term
        m += 1
        best = min(best, (abs(term), m))
    omitted = abs(term * (a + m) * (b + m) * x / (m + 1)) if stop is None else 0.0
    return HypergeomResult(total, m + 1, stop is not None and m + 1 >= stop,
                           best[1], omitted)


# ---------------------------------------------------------------------------
# Coherent states


@dataclass
class CoherentState:
    """Normalised coefficient vector of a coherent state over a rep basis.

    ``provenance`` records which series produced ``norm_constant``.  For the
    noncompact orbit family the norm series diverges for any non-zero
    parameter; the truncated vector is still normalised to one, and
    ``divergence_flag`` marks that the underlying series is asymptotic only.
    """

    family: str
    label: AlgebraLabel
    parameter: complex
    coeffs: np.ndarray
    norm_constant: float
    truncation: int
    divergence_flag: bool
    provenance: dict = field(default_factory=dict)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _bg_choose_dim(label: AlgebraLabel, alpha: complex, tail_rel: float, max_dim: int) -> int:
    asq = abs(alpha) ** 2
    if asq == 0.0:
        return 1
    k = float(label.k)
    s = label.step
    total = 0.0
    t = 1.0
    n = 0
    while n < max_dim:
        total += t
        t *= asq / ((n + 1) * (n + 2 * k) * (n + s + 1))
        n += 1
        ratio = asq / ((n + 1) * (n + 2 * k) * (n + s + 1))
        if ratio < 0.5 and t / (1 - ratio) <= tail_rel * total:
            return n
    raise TruncationError(f"no truncation below {max_dim} reaches tail {tail_rel:g} for |alpha|={abs(alpha):g}")


def _bg_tail_bound(label: AlgebraLabel, alpha: complex, dim: int) -> float:
    """Upper bound on the dropped share of the squared norm past ``dim``."""
    asq = abs(alpha) ** 2
    if asq == 0.0:
        return 0.0
    k = float(label.k)
    s = label.step
    total = 0.0
    t = 1.0
    for n in range(dim):
        total += t
        t *= asq / ((n + 1) * (n + 2 * k) * (n + s + 1))
    ratio = asq / ((dim + 1) * (dim + 2 * k) * (dim + s + 1))
    if ratio >= 1.0:
        return math.inf
    return (t / (1 - ratio)) / total


def bg_state(label: AlgebraLabel, alpha: complex, dim: Optional[int] = None,
             tail_rel: Optional[float] = None, max_dim: int = 4096) -> CoherentState:
    """Eigenstate of the lowering generator with eigenvalue ``alpha``.

    With ``dim=None`` the truncation is chosen so the dropped tail of the
    squared norm is below ``tail_rel`` (default 1e-26, which keeps the
    eigenvalue residual near float noise).  An explicit ``dim`` is checked
    against ``tail_rel`` (default 1e-12) and rejected if too small.
    """
    if label.sector != "noncompact":
        raise ValueError("eigenstates of the lowering generator need a noncompact label")
    alpha = complex(alpha)
    if dim is None:
        dim = _bg_choose_dim(label, alpha, 1e-26 if tail_rel is None else tail_rel, max_dim)
    else:
        bound = _bg_tail_bound(label, alpha, dim)
        if bound > (1e-12 if tail_rel is None else tail_rel):
            raise TruncationError(
                f"truncation {dim} leaves a relative norm tail {bound:.3e} for |alpha|={abs(alpha):g}")

    k = float(label.k)
    s = label.step
    coeffs = np.zeros(dim, dtype=complex)
    c = 1.0 + 0.0j
    for n in range(dim):
        coeffs[n] = c
        c = c * alpha / math.sqrt((n + 1) * (n + 2 * k) * (n + s + 1))
    norm_series = hypergeom(series_0f2(2 * k, s + 1), abs(alpha) ** 2)
    n_const = 1.0 / math.sqrt(norm_series.value)
    coeffs *= n_const
    return CoherentState(
        family="BG", label=label, parameter=alpha, coeffs=coeffs,
        norm_constant=n_const, truncation=dim, divergence_flag=False,
        provenance={"series": "0F2", "parameters": [2 * k, s + 1.0],
                    "argument": abs(alpha) ** 2, "terms": norm_series.terms,
                    "value": norm_series.value},
    )


def perelomov_noncompact(label: AlgebraLabel, beta: complex, dim: int) -> CoherentState:
    """Orbit-type state of the noncompact algebra, truncated at ``dim``.

    The squared-norm series is the (divergent) 2F0 of the label; the
    normalisation uses its partial sum over exactly ``dim`` terms, which
    renormalises the truncated vector to one.  The asymptotic metadata of the
    optimally truncated 2F0 is kept in ``provenance``.
    """
    if label.sector != "noncompact":
        raise ValueError("this family needs a noncompact label")
    if dim < 1:
        raise ValueError("truncation dimension must be >= 1")
    beta = complex(beta)
    k = float(label.k)
    s = label.step
    coeffs = np.zeros(dim, dtype=complex)
    c = 1.0 + 0.0j
    norm_sq = 0.0
    for n in range(dim):
        coeffs[n] = c
        norm_sq += abs(c) ** 2
        c = c * beta * math.sqrt((2 * k + n) * (s + 1 + n) / (n + 1))
    asym = hypergeom(series_2f0(2 * k, s + 1), abs(beta) ** 2, order=dim)
    n_const = 1.0 / math.sqrt(norm_sq)
    coeffs *= n_const
    return CoherentState(
        family="PerelomovNC", label=label, parameter=beta, coeffs=coeffs,
        norm_constant=n_const, truncation=dim, divergence_flag=(beta != 0),
        provenance={"series": "2F0-truncated", "parameters": [2 * k, s + 1.0],
                    "argument": abs(beta) ** 2, "order": dim,
                    "partial_sum": norm_sq,
                    "smallest_term_index": asym.smallest_term_index,
                    "error_estimate": asym.error_estimate},
    )


def compact_norm_sq_formula(label: AlgebraLabel, gamma_abs: float) -> tuple[float, HypergeomResult]:
    """Squared norm of the unnormalised inverse-parameter orbit sum.

    Evaluates |g|^(2(k-2l)) * Gamma(k+2l) * Phi(k-2l, 1-2l-k; |g|^2) /
    Gamma(2k); the confluent series terminates after 2l-k+1 terms.  Verified
    against the explicit finite sum in the tests.
    """
    k, l = float(label.k), float(label.l)
    s = label.step
    phi = hypergeom(series_1f1(-float(s), 1.0 - s - 2 * k), gamma_abs ** 2)
    value = (gamma_abs ** (-2 * s)
             * math.exp(math.lgamma(k + 2 * l) - math.lgamma(2 * k))
             * phi.value)
    return value, phi


def perelomov_compact(label: AlgebraLabel, parameter: complex,
                      form: str = "alpha") -> CoherentState:
    """Finite orbit-type state of the compact algebra.

    ``form='alpha'`` builds the direct finite sum; ``form='gamma'`` builds
    the inverse-parameter variant whose normalisation has the closed
    confluent form (it requires a non-zero parameter).  Both are exactly
    normalised to unit norm.
    """
    if label.sector != "compact":
        raise ValueError("this family needs a compact label")
    if form not in ("alpha", "gamma"):
        raise ValueError(f"form must be 'alpha' or 'gamma', got {form!r}")
    par = complex(parameter)
    k = float(label.k)
    s = label.step
    dim = label.dim
    coeffs = np.zeros(dim, dtype=complex)
    if form == "alpha":
        c = 1.0 + 0.0j
        for n in range(dim):
            coeffs[n] = c
            if n < dim - 1:
                c = c * par * math.sqrt((2 * k + n) * (s - n) / (n + 1))
        with np.errstate(over="ignore"):  # an overflow is left for the non-finite gate
            norm_sq = float(np.sum(np.abs(coeffs) ** 2))
        provenance = {"series": "finite-sum", "terms": dim, "norm_sq": norm_sq}
    else:
        if par == 0:
            raise ValueError("the inverse-parameter form needs a non-zero parameter")
        c = par ** (-s) * math.sqrt(
            math.exp(math.lgamma(s + 2 * k) - math.lgamma(2 * k)))
        for n in range(dim):
            coeffs[n] = c
            if n < dim - 1:
                c = c * par * math.sqrt((s - n) / ((n + 1) * (s + 2 * k - 1 - n)))
        norm_sq, phi = compact_norm_sq_formula(label, abs(par))
        provenance = {"series": "1F1", "parameters": [-float(s), 1.0 - s - 2 * k],
                      "argument": abs(par) ** 2, "terms": phi.terms,
                      "value": phi.value, "norm_sq": norm_sq}
    n_const = 1.0 / math.sqrt(norm_sq)
    coeffs *= n_const
    return CoherentState(
        family="PerelomovC", label=label, parameter=par, coeffs=coeffs,
        norm_constant=n_const, truncation=dim, divergence_flag=False,
        provenance=provenance,
    )


def bg_overlap_series(label: AlgebraLabel, alpha: complex, alpha2: complex,
                      tol: float = 1e-15) -> complex:
    """Overlap of two lowering-eigenstates via the gamma-form series.

    <alpha|alpha2> = 0F2(conj(alpha)*alpha2) / sqrt(0F2(|alpha|^2) *
    0F2(|alpha2|^2)); an independent route to the coefficient dot product.
    """
    k = float(label.k)
    s = label.step
    ser = series_0f2(2 * k, s + 1)
    num = hypergeom(ser, complex(alpha).conjugate() * complex(alpha2), tol=tol).value
    d1 = hypergeom(ser, abs(alpha) ** 2, tol=tol).value
    d2 = hypergeom(ser, abs(alpha2) ** 2, tol=tol).value
    return num / math.sqrt(d1 * d2)
