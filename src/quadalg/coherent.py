"""The three coherent-state families.

The lowering-eigenstate (Barut-Girardello type) family and the two
exponential-orbit (Perelomov type) families are built as coefficient vectors
over the representation bases of :mod:`quadalg.reps`.  Normalisations go
through the matching hypergeometric series of :mod:`quadalg.special`: 0F2
for the eigenstates, a terminating confluent series for the compact orbit
states, and a formally divergent 2F0 for the noncompact orbit states, which
is only ever used as an optimally truncated asymptotic sum with explicit
metadata.

Gamma factors are evaluated through the standard log-gamma routine
(`math.lgamma`); every argument occurring here is a positive half-integer
plus a small integer, far inside its accurate range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

import numpy as np

from .errors import TruncationError
from .reps import Label
from .special import HypergeomResult, hyp0f2, hyp1f1, hyp2f0


@dataclass
class CoherentState:
    """Normalised coefficient vector of a coherent state over a rep basis.

    ``provenance`` records which series produced ``norm_constant``.  For the
    noncompact orbit family the norm series diverges for any non-zero
    parameter; the truncated vector is still normalised to one, and
    ``divergence_flag`` marks that the underlying series is asymptotic only.
    """

    family: str
    label: Label
    parameter: complex
    coeffs: np.ndarray
    norm_constant: float
    truncation: int
    divergence_flag: bool
    provenance: dict = field(default_factory=dict)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _bg_walk(label: Label, asq: float):
    """Partial sums of the eigenstate squared-norm series sum_n t_n at |alpha|^2 = asq.

    Yields (n, ratio, t, total) for n = 0, 1, ...: ``total`` sums the first n
    terms, ``t`` is t_n and ``ratio`` is t_(n+1)/t_n.
    """
    k = float(label.k)
    s = label.step
    n, t, total = 0, 1.0, 0.0
    while True:
        ratio = asq / ((n + 1) * (n + 2 * k) * (n + s + 1))
        yield n, ratio, t, total
        total += t
        t *= ratio
        n += 1


def _bg_choose_dim(label: Label, alpha: complex, tail_rel: float, max_dim: int) -> int:
    asq = abs(alpha) ** 2
    if asq == 0.0:
        return 1
    for n, ratio, t, total in islice(_bg_walk(label, asq), 1, max_dim + 1):
        if ratio < 0.5 and t / (1 - ratio) <= tail_rel * total:
            return n
    raise TruncationError(f"no truncation below {max_dim} reaches tail {tail_rel:g} for |alpha|={abs(alpha):g}")


def _bg_tail_bound(label: Label, alpha: complex, dim: int) -> float:
    """Upper bound on the dropped share of the squared norm past ``dim``."""
    asq = abs(alpha) ** 2
    if asq == 0.0:
        return 0.0
    _, ratio, t, total = next(islice(_bg_walk(label, asq), dim, None))
    return math.inf if ratio >= 1.0 else (t / (1 - ratio)) / total


def bg_state(label: Label, alpha: complex, dim: Optional[int] = None,
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
    norm_series = hyp0f2(2 * k, s + 1, abs(alpha) ** 2)
    n_const = 1.0 / math.sqrt(norm_series.value)
    coeffs *= n_const
    return CoherentState(
        family="BG", label=label, parameter=alpha, coeffs=coeffs,
        norm_constant=n_const, truncation=dim, divergence_flag=False,
        provenance={"series": "0F2", "parameters": [2 * k, s + 1.0],
                    "argument": abs(alpha) ** 2, "terms": norm_series.terms,
                    "value": norm_series.value},
    )


def perelomov_noncompact(label: Label, beta: complex, dim: int) -> CoherentState:
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
    asym = hyp2f0(2 * k, s + 1, abs(beta) ** 2, dim)
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


def compact_norm_sq_formula(label: Label, gamma_abs: float) -> tuple[float, HypergeomResult]:
    """Squared norm of the unnormalised inverse-parameter orbit sum.

    Evaluates |g|^(2(k-2l)) * Gamma(k+2l) * Phi(k-2l, 1-2l-k; |g|^2) /
    Gamma(2k); the confluent series terminates after 2l-k+1 terms.  Verified
    against the explicit finite sum in the tests.
    """
    k, l = float(label.k), float(label.l)
    s = label.step
    phi = hyp1f1(-float(s), 1.0 - s - 2 * k, gamma_abs ** 2)
    value = (gamma_abs ** (-2 * s)
             * math.exp(math.lgamma(k + 2 * l) - math.lgamma(2 * k))
             * phi.value)
    return value, phi


def perelomov_compact(label: Label, parameter: complex,
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
