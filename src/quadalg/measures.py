"""Resolution-of-identity verification via radial moment conditions.

The angular integration is done analytically (each diagonal moment picks up
2*pi), so only radial integrals are numerical.  For the noncompact families
the would-be closed-form densities are never evaluated; verification is
restated as the moment conditions they were derived from, whose exact
ratios to n = 0 the ladder squares carry from n to n+1.  For the compact
family the measure is fully computable and each moment must equal 1, which
is also provable exactly by gamma-ratio cancellation -- giving an
independent symbolic route against which the quadrature is checked.

Quadrature runs on [0, R] with R chosen so that the asymptotic tail estimate
of the integrand falls below the absolute tolerance.  It is an adaptive
Gauss-Kronrod 10/21 rule on the panels [0, 1], [1, 10], [10, 100], ... R; the
first runs in t with x = t^4, which turns the x^(b-1) endpoint of the Kummer
integrand into t^(4b-1).  The panel whose |K21 - G10| is largest is halved
until those estimates sum below the tolerance, or until six halvings have met
rounding (they moved neither the value nor the estimate).  Both R and the
count of nodes evaluated (``evals``, 21 a panel, split panels included) are
reported.  A check evaluates M(a; c; -x) once per distinct node, through a
memo local to it.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import QuadratureError
from .reps import Label, ladder_squares
from .special import confluent_neg, is_nonpos_int

TWO_PI = 2.0 * math.pi
QUAD_LIMIT = 800  # panel budget of one adaptive quadrature

# Gauss-Kronrod 10/21 on [-1, 1], QUADPACK's qk21 to double precision: the Kronrod nodes
# from the outermost in and their weights; the Gauss nodes are XGK[1::2], weighted by WG.
XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
       0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
       0.2943928627014602, 0.14887433898163122, 0.0)
WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
       0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
       0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
      0.29552422471475287)
_NODES = 1.0 + np.array([-x for x in XGK] + list(XGK[-2::-1]))  # a panel's, on [0, 2]
_TWO_PANELS = np.concatenate((_NODES, 2.0 + _NODES))  # its halves', on [0, 2] and [2, 4]
_WK = np.array(WGK + WGK[-2::-1])
_WG = [w for pair in zip((0.0,) * 5, WG) for w in pair]  # G10 weighs every second node
_RULES = np.column_stack((_WK, _WK - np.array(_WG + [0.0] + _WG[::-1])))  # K21, K21 - G10
_EPS50 = 50.0 * sys.float_info.epsilon  # floor of a panel's error estimate, times sum w|f|


# ---------------------------------------------------------------------------
# Moment targets


@dataclass
class MomentTarget:
    """One radial moment condition: label, moment index, positive target value.

    ``ratio_to_first`` is the exact rational value of target(n)/target(0);
    ``value`` is its float times target(0), or None if that is no normal double.
    """

    label: Label
    n: int
    value: Optional[float]
    ratio_to_first: Fraction


def _moment_targets(label: Label, max_n: int, first: float, bg: bool) -> list[MomentTarget]:
    """Targets n = 0..max_n, ``first`` times the exact ratio n! ((2k)_n (s+1)_n)^(+-1).

    The ratio goes from n to n+1 by the ladder square qp_sq[n] =
    (n+1)(2k+n)(s+n+1) for the eigenstates (``bg``), by (n+1)^2 / qp_sq[n]
    for the orbit states.
    """
    if label.sector != "noncompact":
        raise ValueError("moment targets need a noncompact label")
    if max_n < 0:
        raise ValueError("moment index must be >= 0")
    ratio = Fraction(1)
    targets = []
    for n, q in zip(range(max_n + 1), ladder_squares(label)):
        try:
            value = float(ratio) * first
        except OverflowError:
            value = 0.0
        targets.append(MomentTarget(label, n, value if value >= sys.float_info.min else None,
                                    ratio))
        ratio *= q if bg else Fraction((n + 1) ** 2, q)
    return targets


def bg_moment_targets(label: Label, max_n: int) -> list[MomentTarget]:
    """Moment targets 0..max_n of the lowering-eigenstate measure (1/(2*pi) at n = 0)."""
    return _moment_targets(label, max_n, 1 / TWO_PI, True)


def perelomov_moment_targets(label: Label, max_n: int) -> list[MomentTarget]:
    """Moment targets 0..max_n of the noncompact orbit-state measure (1/pi at n = 0)."""
    return _moment_targets(label, max_n, 1 / math.pi, False)


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
    Solved in logs: a tolerance that no finite R reaches gives R = inf.
    """
    log_tol = math.log(abs_tol) if abs_tol > 0 else -math.inf
    p = c - a
    if is_nonpos_int(p):
        d = int(round(-p))
        coef_sum = term = 1.0
        for m in range(d):
            term *= abs(p + m) / ((c + m) * (m + 1))
            coef_sum += term
            if coef_sum == math.inf:  # log_tol would be -inf, which no finite R reaches
                return math.inf
        w_eff = w + d
        log_tol -= math.log(2.0 * coef_sum)
        r = max(2.0 * w_eff + 16.0, 30.0)
        while r < math.inf and w_eff * math.log(r) - r > log_tol:
            r *= 1.25
        return r
    decay = a - w - 1.0
    if decay <= 0:
        raise ValueError("integrand does not decay; divergent parameter regime")
    log_r = (math.log(2.0 / decay) + math.lgamma(c) - math.lgamma(p) - log_tol) / decay
    r = math.exp(log_r) if log_r < math.log(sys.float_info.max) else math.inf
    return max(r, 30.0 + 2.0 * abs(a * (a - c + 1)))


def _memo_confluent(a: float, c: float) -> Callable[[np.ndarray], np.ndarray]:
    """M(a; c; -x) over an array of nodes, each distinct node evaluated once."""
    m = functools.cache(lambda x: confluent_neg(a, c, x))
    return lambda x: np.fromiter(map(m, x.tolist()), float, len(x))


def _integrate_moment(f: Callable[[np.ndarray], np.ndarray], r_max: float, epsabs: float,
                      spec: QuadratureSpec) -> tuple[float, int]:
    """int_0^R f dx and ``evals``, by the rule of the module docstring; ``f`` maps an
    array of nodes to the integrand there, and p1 = min(1, R) scales the first panel."""
    if not r_max < math.inf:
        raise QuadratureError(f"no finite R reaches the tolerance {epsabs:.3e}")
    decades = int(math.ceil(math.log10(max(r_max, 10.0))))
    edges = [0.0] + [10.0 ** j for j in range(decades) if 10.0 ** j < r_max] + [r_max]
    p1, edges[1] = edges[1], 1.0  # the first panel runs in t, on [0, 1]

    def panels(lo: list, hi: list, half: list, u: np.ndarray) -> list:
        # (-error estimate, lo, hi, value) of each panel [lo, hi] in u, from its 21 nodes in u
        n_t = 21 * sum(r <= 1.0 for r in hi)  # the panels in t come first
        x = np.concatenate((p1 * u[:n_t] ** 4, u[n_t:])) if n_t else u
        fx = f(x)
        if n_t:
            fx[:n_t] *= 4.0 * x[:n_t] / u[:n_t]
        fx = fx.reshape(-1, 21)
        sizes = (np.abs(fx) @ _WK).tolist()
        if not math.isfinite(sum(sizes)):
            raise QuadratureError(f"the integrand overflows on [0, R], R = {r_max:.3e}")
        # |K21 - G10|, damped as QUADPACK's estimate once below 1.25e-7 of sum w|f| (a)
        return [(-h * max(abs(d) * min(1.0, 200.0 * math.sqrt(200.0 * abs(d) / (a or 1.0))),
                          _EPS50 * a), l, r, h * k)
                for l, r, h, (k, d), a in zip(lo, hi, half, (fx @ _RULES).tolist(), sizes)]

    with np.errstate(all="ignore"):
        half = [0.5 * (r - l) for l, r in zip(edges, edges[1:])]
        heap = panels(edges[:-1], edges[1:], half,
                      (np.array(edges[:-1])[:, None] + np.array(half)[:, None] * _NODES).ravel())
        heapq.heapify(heap)
        total, error = sum(q[3] for q in heap), -sum(q[0] for q in heap)
        stuck = 0  # halvings that moved neither value nor error: rounding (QUADPACK stops at 6)
        while (error > max(epsabs, spec.rel_tol * abs(total)) and len(heap) < QUAD_LIMIT
               and stuck < 6):
            neg_err, lo, hi, value = heapq.heappop(heap)
            mid, quarter = 0.5 * (lo + hi), 0.25 * (hi - lo)
            halves = panels([lo, mid], [mid, hi], [quarter] * 2, lo + quarter * _TWO_PANELS)
            for part in halves:
                heapq.heappush(heap, part)
            (e1, *_, v1), (e2, *_, v2) = halves
            stuck += e1 + e2 <= 0.99 * neg_err and abs(v1 + v2 - value) <= 1e-5 * abs(v1 + v2)
            total, error = total + v1 + v2 - value, error + neg_err - e1 - e2
    value, error = math.fsum(q[3] for q in heap), -math.fsum(q[0] for q in heap)
    if error > 10.0 * max(2.0 * epsabs, spec.rel_tol * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {error:.3e} exceeds the requested tolerance")
    return value, 21 * (2 * len(heap) - len(edges) + 1)  # each halving adds one panel


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
    m = _memo_confluent(a, c)
    epsabs = 0.5 * spec.abs_tol
    r_max = spec.r_max if spec.r_max is not None else _tail_cutoff(a, c, b - 1.0, epsabs)
    # on [0, p1] the integrand sheds x^(b-1) - p1^(b-1)/b, whose integral there is 0, so
    # x^b rather than x^(b-1) meets the endpoint
    p1 = min(r_max, 1.0)
    f = lambda x: x ** (b - 1.0) * (m(x) - (x < p1)) + (x < p1) * p1 ** (b - 1.0) / b
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
    m = _memo_confluent(a, c)
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
