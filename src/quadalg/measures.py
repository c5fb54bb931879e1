"""Resolution-of-identity verification via radial moment conditions.

The angular integration is done analytically (each diagonal moment picks up
2*pi), so only radial integrals are numerical.  For the noncompact families
the would-be closed-form densities are never evaluated; verification is
restated as the moment conditions they were derived from.  For the compact
family the measure is fully computable and each moment must equal 1, which
is also provable exactly by gamma-ratio cancellation -- giving an
independent symbolic route against which the quadrature is checked.

Quadrature runs adaptively on [0, R] with R chosen so that the asymptotic
tail estimate of the integrand falls below the absolute tolerance; both R
and the count of quadrature nodes (``evals``) are reported.  A check evaluates
M(a; c; -x) once per distinct node, through a memo local to the check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import QuadratureError
from .reps import Label
from .special import confluent_neg, is_nonpos_int

TWO_PI = 2.0 * math.pi
QUAD_LIMIT = 800  # subinterval budget of one adaptive quadrature


# ---------------------------------------------------------------------------
# Moment targets


@dataclass
class MomentTarget:
    """One radial moment condition: label, moment index, positive target value.

    ``ratio_to_first`` is the exact rational value of target(n)/target(0).
    """

    label: Label
    n: int
    value: float
    ratio_to_first: Fraction


def _moment_targets(label: Label, max_n: int, sign: int, scale: float) -> list[MomentTarget]:
    """Targets n = 0..max_n, scale * n! ((2k)_n (s+1)_n)^sign / (2*pi).

    The gamma ratios go through log-gammas; the exact ratio to n = 0 is
    carried from n to n+1 by the one rational factor (n+1) ((2k+n)(s+n+1))^sign.
    """
    if label.sector != "noncompact":
        raise ValueError("moment targets need a noncompact label")
    if max_n < 0:
        raise ValueError("moment index must be >= 0")
    k, s = float(label.k), label.step
    ratio = Fraction(1)
    targets = []
    for n in range(max_n + 1):
        value = math.exp(math.lgamma(n + 1)
                         + sign * math.lgamma(2 * k + n) - sign * math.lgamma(2 * k)
                         + sign * math.lgamma(s + 1 + n) - sign * math.lgamma(s + 1.0))
        targets.append(MomentTarget(label, n, scale * value / TWO_PI, ratio))
        ratio *= (n + 1) * ((2 * label.k + n) * (s + n + 1)) ** sign
    return targets


def bg_moment_targets(label: Label, max_n: int) -> list[MomentTarget]:
    """Moment targets 0..max_n of the lowering-eigenstate measure (1/(2*pi) at n = 0)."""
    return _moment_targets(label, max_n, 1, 1.0)


def perelomov_moment_targets(label: Label, max_n: int) -> list[MomentTarget]:
    """Moment targets 0..max_n of the noncompact orbit-state measure (1/pi at n = 0)."""
    return _moment_targets(label, max_n, -1, 2.0)


# ---------------------------------------------------------------------------
# Quadrature


@dataclass
class QuadratureSpec:
    """Adaptive quadrature on [0, R] with an analytic tail estimate.

    ``r_max=None`` lets each integral choose R so the integrand's asymptotic
    tail beyond R is estimated below ``abs_tol/2``.
    """

    r_max: Optional[float] = None
    abs_tol: float = 1e-9
    rel_tol: float = 1e-8


def _tail_cutoff(a: float, c: float, w: float, abs_tol: float) -> float:
    """R with the estimated tail of x^w * M(a;c;-x) beyond R below abs_tol.

    Uses the true large-x behaviour: x^(-a) times Gamma(c)/Gamma(c-a) in the
    generic case, exponential decay when c-a is a non-positive integer.
    """
    p = c - a
    if is_nonpos_int(p):
        d = int(round(-p))
        coef_sum = term = 1.0
        for m in range(d):
            term *= abs(p + m) / ((c + m) * (m + 1))
            coef_sum += term
        w_eff = w + d
        r = max(2.0 * w_eff + 16.0, 30.0)
        while 2.0 * coef_sum * r ** w_eff * math.exp(-r) > abs_tol:
            r *= 1.25
        return r
    decay = a - w - 1.0
    if decay <= 0:
        raise ValueError("integrand does not decay; divergent parameter regime")
    const = 2.0 * math.exp(math.lgamma(c) - math.lgamma(p))
    r = (const / (decay * abs_tol)) ** (1.0 / decay)
    return max(r, 30.0 + 2.0 * abs(a * (a - c + 1)))


def _integrate_moment(f: Callable[[float], float], r_max: float, epsabs: float,
                      spec: QuadratureSpec) -> tuple[float, int]:
    decades = int(math.ceil(math.log10(max(r_max, 10.0))))
    points = [10.0 ** j for j in range(decades) if 10.0 ** j < r_max]
    if len(points) + 2 > QUAD_LIMIT:
        points = None
    from scipy import integrate  # deferred: it is most of the package's import time

    value, abserr, info = integrate.quad(
        f, 0.0, r_max, epsabs=epsabs, epsrel=spec.rel_tol,
        limit=QUAD_LIMIT, points=points, full_output=True)[:3]
    if abserr > 10.0 * max(2.0 * epsabs, spec.rel_tol * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds the requested tolerance")
    return float(value), int(info["neval"])


# ---------------------------------------------------------------------------
# Closed-form integral check


@dataclass
class KummerIntegralCheck:
    a: float
    b: float
    c: float
    numeric: float
    analytic: float
    abs_error: float
    rel_error: float
    r_max: float
    evals: int


def kummer_integral_analytic(a: float, b: float, c: float) -> float:
    """Closed form Gamma(b)Gamma(c)Gamma(a-b) / (Gamma(a)Gamma(c-b))."""
    if is_nonpos_int(c - b):
        return 0.0
    return (math.gamma(b) * math.gamma(c) * math.gamma(a - b)
            / (math.gamma(a) * math.gamma(c - b)))


def kummer_integral_check(a: float, b: float, c: float,
                          spec: Optional[QuadratureSpec] = None) -> KummerIntegralCheck:
    """Quadrature of int_0^inf r^(b-1) M(a;c;-r) dr against its closed form.

    Requires a - b > 0 (convergence), b > 0 (integrability at zero) and c
    away from the non-positive integers.
    """
    if is_nonpos_int(c):
        raise ValueError(f"c = {c} is a non-positive integer (pole)")
    if b <= 0:
        raise ValueError(f"b must be positive, got {b}")
    if a - b <= 0:
        raise ValueError(f"need a - b > 0 for convergence, got a - b = {a - b}")
    spec = spec or QuadratureSpec()
    f = functools.cache(lambda r: r ** (b - 1.0) * confluent_neg(a, c, r))
    epsabs = 0.5 * spec.abs_tol
    r_max = spec.r_max if spec.r_max is not None else _tail_cutoff(a, c, b - 1.0, epsabs)
    numeric, evals = _integrate_moment(f, r_max, epsabs, spec)
    # small (but resolved) integrals need the absolute target rescaled so the
    # relative tolerance is reachable; values below abs_tol stay as they are
    scaled = 0.25 * spec.rel_tol * abs(numeric)
    if spec.r_max is None and abs(numeric) > spec.abs_tol and 0 < scaled < epsabs:
        r_max = _tail_cutoff(a, c, b - 1.0, scaled)
        numeric, more = _integrate_moment(f, r_max, scaled, spec)
        evals += more
    analytic = kummer_integral_analytic(a, b, c)
    abs_err = abs(numeric - analytic)
    rel_err = abs_err / abs(analytic) if analytic != 0 else abs_err
    return KummerIntegralCheck(a, b, c, numeric, analytic, abs_err, rel_err, r_max, evals)


# ---------------------------------------------------------------------------
# Compact resolution of identity


@dataclass
class MomentCheck:
    n: int
    moment: float
    deviation: float
    r_max: float
    evals: int


@dataclass
class ResolutionReport:
    label: Label
    checks: list[MomentCheck]

    @property
    def max_deviation(self) -> float:
        return max((c.deviation for c in self.checks), default=0.0)

    def to_dicts(self) -> list[dict]:
        k, l = str(self.label.k), str(self.label.l)
        return [
            {"k": k, "l": l, "n": c.n, "moment": c.moment, "deviation": c.deviation,
             "quadrature": {"R": c.r_max, "evals": c.evals}}
            for c in self.checks
        ]


def verify_compact_resolution(label: Label,
                              spec: Optional[QuadratureSpec] = None) -> ResolutionReport:
    """Check every moment of the compact measure against the projector identity.

    For n = 0..2l-k integrates the assembled moment

        Gamma(2l+k-n)/(n! (2l-k-n)!) * Gamma(2l-k+2)/Gamma(2l+k+1)
            * int_0^inf x^n M(2l-k+2; 2l+k+1; -x) dx

    whose exact value is 1, and reports the deviation per moment.
    """
    if label.sector != "compact":
        raise ValueError("the computable measure verification needs a compact label")
    spec = spec or QuadratureSpec()
    k = float(label.k)
    s = label.step
    a = s + 2.0
    c = s + 2.0 * k + 1.0
    m = functools.cache(lambda x: confluent_neg(a, c, x))
    checks = []
    for n in range(s + 1):
        log_pref = (math.lgamma(s + 2 * k - n) - math.lgamma(n + 1.0) - math.lgamma(s - n + 1.0)
                    + math.lgamma(a) - math.lgamma(c))
        pref = math.exp(log_pref)
        r_max = spec.r_max if spec.r_max is not None else _tail_cutoff(
            a, c, float(n), 0.5 * spec.abs_tol / pref)
        moment, evals = _integrate_moment(
            lambda x, _n=n: pref * x ** _n * m(x),
            r_max, 0.5 * spec.abs_tol, spec)
        checks.append(MomentCheck(n=n, moment=moment, deviation=abs(moment - 1.0),
                                  r_max=r_max, evals=evals))
    return ResolutionReport(label=label, checks=checks)
