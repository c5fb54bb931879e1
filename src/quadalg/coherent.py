"""The three coherent-state families.

The lowering-eigenstate (Barut-Girardello type) family and the two
exponential-orbit (Perelomov type) families are built as coefficient vectors
over the representation bases of :mod:`quadalg.reps`, from the exact ladder
squares ``qp_sq[n]`` of :func:`quadalg.reps.ladder_squares` alone.  Every
family is one walk c_(n+1) = c_n * f_n from c_0 = 1:

* eigenstates: f_n = alpha / sqrt(qp_sq[n]);
* orbit states (both sectors): f_n = zeta * sqrt(qp_sq[n] / (n+1)^2);
* the inverse-parameter compact form is the orbit walk at 1/gamma, reversed.

The walk carries a power-of-two exponent beside each coefficient, so no
coefficient or norm overflows or underflows on the way; the norm is one
``math.fsum``.  ``provenance`` names the hypergeometric series the squared
norm equals (0F2, the divergent 2F0 of the noncompact orbit states, a
terminating 2F0 or 1F1 for the compact ones) and reports its log, which
stays finite where the norm constant itself leaves the doubles.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import TruncationError
from .reps import Label, ladder_squares
from .special import HypergeomResult, hyp2f0

LOW, HIGH = 2.0 ** -500, 2.0 ** 500  # the exponent takes over when |c| leaves this range


@dataclass
class CoherentState:
    """Unit-norm coefficient vector of a coherent state over a rep basis.

    ``norm_constant`` is 1/|unnormalised vector|, or None when that is not a
    normal double, and so is ``provenance["argument"]``, |parameter|^2 (0 at
    parameter 0); an ``error_estimate`` past the doubles is None too.
    ``provenance["log_norm_sq"]`` always holds the log of the squared norm.
    For the noncompact orbit family the norm series diverges for any non-zero
    parameter; the truncated vector is still normalised to one, and
    ``divergence_flag`` marks that the series is asymptotic only.
    """

    family: str
    label: Label
    parameter: complex
    coeffs: np.ndarray
    norm_constant: Optional[float]
    truncation: int
    divergence_flag: bool
    provenance: dict = field(default_factory=dict)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _split(z: complex) -> tuple[complex, int]:
    """``(m, e)`` with z = m * 2**e exactly and the larger part of m in [1/2, 1)."""
    e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), e


def _walk(zeta: tuple[complex, int], gains: Iterable[float],
          step=operator.mul) -> Iterator[tuple[complex, int]]:
    """c_0 = 1, c_(n+1) = step(c_n * zeta, gains[n]), each as (m, e) with c = m * 2**e.

    ``zeta`` comes split by :func:`_split`; the exponent absorbs |m| whenever
    it leaves [2^-500, 2^500], so every m stays a normal double.
    """
    zm, ze = zeta
    m, e = 1 + 0j, 0
    yield m, e
    for g in gains:
        m, e = step(m * zm, g), e + ze
        if not LOW <= abs(m) <= HIGH:
            m, shift = _split(m)
            e += shift
        yield m, e


def _unit(walked: list[tuple[complex, int]]) -> tuple[np.ndarray, float, Optional[float]]:
    """The unit vector of walked coefficients, the log of their squared norm and
    the norm constant (None unless a normal double)."""
    mant, exps = map(np.array, zip(*walked))
    top = int((exps + np.frexp(np.abs(mant))[1]).max())  # 2**top / 2 <= max |c_n| < 2**top
    shift = exps - top
    norm = math.sqrt(math.fsum((np.ldexp(mant.real, shift) ** 2).tolist()
                               + (np.ldexp(mant.imag, shift) ** 2).tolist()))  # |c| / 2**top
    coeffs = np.empty(len(walked), dtype=complex)
    coeffs.real, coeffs.imag = np.ldexp(mant.real / norm, shift), np.ldexp(mant.imag / norm, shift)
    const = math.ldexp(1 / norm, -top)
    return coeffs, 2 * (math.log(norm) + top * math.log(2)), (
        const if const >= sys.float_info.min else None)


def _state(family: str, label: Label, parameter: complex, walked, divergent: bool,
           series: str, parameters: list, argument: float, **extra) -> CoherentState:
    coeffs, log_norm_sq, const = _unit(walked)
    if parameter != 0 and not sys.float_info.min <= abs(argument) < math.inf:
        argument = None
    return CoherentState(
        family=family, label=label, parameter=parameter, coeffs=coeffs,
        norm_constant=const, truncation=len(coeffs), divergence_flag=divergent,
        provenance={"series": series, "parameters": parameters, "argument": argument,
                    "terms": len(coeffs), "log_norm_sq": log_norm_sq, **extra},
    )


def _orbit_gains(squares: Iterable[int]) -> Iterator[float]:
    """sqrt(qp_sq[n] / (n+1)^2), the orbit walk's step without its parameter."""
    return (math.sqrt(q / (n + 1) ** 2) for n, q in enumerate(squares))


def bg_state(label: Label, alpha: complex, dim: Optional[int] = None,
             tail_rel: Optional[float] = None, max_dim: int = 4096) -> CoherentState:
    """Eigenstate of the lowering generator with eigenvalue ``alpha``.

    With ``dim=None`` the truncation is chosen so the dropped tail of the
    squared norm is below ``tail_rel`` (default 1e-26, which keeps the
    eigenvalue residual near float noise).  An explicit ``dim`` is checked
    against ``tail_rel`` (default 1e-12) and rejected if too small.  The
    walk reads the tail as it goes: the squared terms t_n shrink by
    r_n = |alpha|^2 / qp_sq[n], so past r_n < 1 the tail from n on is at most
    t_n / (1 - r_n), against the sum before n, which is ``before`` * t_n.
    """
    if label.sector != "noncompact":
        raise ValueError("eigenstates of the lowering generator need a noncompact label")
    if dim is not None and dim < 1:
        raise ValueError("truncation dimension must be >= 1")
    alpha = complex(alpha)
    asq = abs(alpha) ** 2
    tail_rel = (1e-26 if dim is None else 1e-12) if tail_rel is None else tail_rel
    squares, later = itertools.tee(ladder_squares(label))
    walk = _walk(_split(alpha), map(math.sqrt, squares), operator.truediv)
    walked, before = [], 0.0
    for n, (c, q) in enumerate(zip(walk, later)):
        ratio = asq / q
        if n == dim:
            bound = 1 / ((1 - ratio) * before) if ratio < 1 else math.inf
            if bound > tail_rel:
                raise TruncationError(f"truncation {dim} leaves a relative norm tail "
                                      f"{bound:.3e} for |alpha|={abs(alpha):g}")
            break
        if dim is None and n and ratio < 0.5 and 1 / (1 - ratio) <= tail_rel * before:
            break
        if dim is None and n == max_dim:
            raise TruncationError(f"no truncation below {max_dim} reaches tail {tail_rel:g} "
                                  f"for |alpha|={abs(alpha):g}")
        walked.append(c)
        before = (before + 1) / ratio if ratio else math.inf
    k, s = float(label.k), label.step
    return _state("BG", label, alpha, walked, False, "0F2", [2 * k, s + 1.0], asq)


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
    k, s = float(label.k), label.step
    walked = list(_walk(_split(beta), _orbit_gains(itertools.islice(ladder_squares(label),
                                                                    dim - 1))))
    x = abs(beta) * abs(beta)  # inf past the doubles: the first term is then the smallest
    asym = hyp2f0(2 * k, s + 1, x, dim) if x < math.inf else HypergeomResult(1.0, 1, False, 0, x)
    return _state("PerelomovNC", label, beta, walked, beta != 0, "2F0-truncated",
                  [2 * k, s + 1.0], x, order=dim,
                  smallest_term_index=asym.smallest_term_index,
                  error_estimate=asym.error_estimate if asym.error_estimate < math.inf else None)


def perelomov_compact(label: Label, parameter: complex,
                      form: str = "alpha") -> CoherentState:
    """Finite orbit-type state of the compact algebra, normalised to unit norm.

    ``form='alpha'`` walks the finite sum at the parameter; its squared norm
    is the terminating 2F0(2k, -s; -|alpha|^2).  ``form='gamma'`` is the
    inverse-parameter variant (it requires a non-zero parameter): the alpha
    walk at 1/gamma, reversed, with squared norm
    |gamma|^(-2s) (2k)_s 1F1(-s; 1-s-2k; |gamma|^2).  1/gamma is taken as a
    mantissa and an exponent, so it never overflows.
    """
    if label.sector != "compact":
        raise ValueError("this family needs a compact label")
    if form not in ("alpha", "gamma"):
        raise ValueError(f"form must be 'alpha' or 'gamma', got {form!r}")
    par = complex(parameter)
    k, s = float(label.k), label.step
    if form == "alpha":
        walked = list(_walk(_split(par), _orbit_gains(ladder_squares(label))))
        return _state("PerelomovC", label, par, walked, False, "2F0",  # 0.0 - x: never -0
                      [2 * k, -float(s)], 0.0 - abs(par) * abs(par))
    if par == 0:
        raise ValueError("the inverse-parameter form needs a non-zero parameter")
    pm, pe = _split(par)
    im, ie = _split(1 / pm)
    walked = list(_walk((im, ie - pe), _orbit_gains(ladder_squares(label))))[::-1]
    return _state("PerelomovC", label, par, walked, False, "1F1",
                  [-float(s), 1.0 - s - 2 * k], abs(par) * abs(par))
