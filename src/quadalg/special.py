"""Hypergeometric series and the confluent function at negative argument.

The one home of the series arithmetic: :func:`confluent_neg` (M(a; c; -x))
for :mod:`quadalg.measures`, :func:`hyp2f0` for the asymptotic metadata of
:mod:`quadalg.coherent`, :func:`hyp0f2` and :func:`hyp1f1` for the tests, as
closed forms of the coherent-state norms.  0F2 and 1F1 stop below ``TOL``
times the sum.  A 2F0 with a non-positive integer parameter is a polynomial,
summed in full; any other diverges and is summed up to its smallest term
(optimal truncation), with the first omitted term as the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .errors import SeriesConvergenceError

Number = Union[float, complex]

INT_TOL = 1e-9
TOL = 1e-15
MAX_TERMS = 100000


def is_nonpos_int(x: float) -> bool:
    """True when x is within INT_TOL of an integer <= 0 (a pole or a cut-off)."""
    return x <= INT_TOL and abs(x - round(x)) < INT_TOL


def termination_index(numerator) -> Optional[int]:
    """Number of non-zero terms if a numerator parameter terminates the series, else None."""
    stop = None
    for a in numerator:
        if is_nonpos_int(a) and (stop is None or 1 - round(a) < stop):
            stop = 1 - round(a)
    return stop


@dataclass
class HypergeomResult:
    value: Number
    terms: int
    converged: bool
    smallest_term_index: Optional[int] = None
    error_estimate: Optional[float] = None


def _sum_convergent(num, den, x, stop_at: Optional[int]) -> HypergeomResult:
    term = total = 1.0
    m = 0
    while m < MAX_TERMS:
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
        if abs(term) < TOL * abs(total):
            return HypergeomResult(total, m + 1, True)
    raise SeriesConvergenceError(
        f"series did not converge within {MAX_TERMS} terms (|last term| = {abs(term):.3e})")


def _sum_2f0(a: float, b: float, x: Number, order: int, stop: Optional[int], value_only=False):
    """2F0(a, b; x) over at most ``order`` terms, as the fields of a HypergeomResult.

    A polynomial (``stop`` non-zero terms) is summed in full; any other
    series ends before its first term that does not shrink (with
    ``value_only``, also before one that cannot move the sum).
    """
    term = total = best = 1.0
    best_m = m = 0
    last = order if stop is None or stop > order else stop
    while m + 1 < last:
        nxt = term * (a + m) * (b + m) * x / (m + 1)
        if stop is None and (abs(nxt) >= best
                             or value_only and abs(nxt) < 0.25 * math.ulp(total)):
            # terms started growing (optimal truncation), or none left can change the value
            return total, m + 1, False, best_m, abs(nxt)
        term = nxt
        total = total + term
        m += 1
        if abs(term) < best:
            best, best_m = abs(term), m
    if m + 1 == stop:
        return total, m + 1, True, best_m, 0.0
    return total, m + 1, False, best_m, abs(term * (a + m) * (b + m) * x / (m + 1))


def _checked(num, den, x: Number) -> Number:
    """``x``, real if its imaginary part is 0; refuses a non-finite ``x`` and a pole
    in ``den`` that no parameter in ``num`` terminates the series before."""
    for b in den:
        if is_nonpos_int(b) and not any(is_nonpos_int(a) and a >= b - INT_TOL for a in num):
            raise ValueError(f"denominator parameter {b} is a non-positive integer (pole)")
    if isinstance(x, complex) and x.imag == 0:
        x = x.real
    if not isinstance(x, complex) and not math.isfinite(x):
        raise ValueError("argument must be finite")
    return x


def hyp0f2(b1: float, b2: float, x: Number) -> HypergeomResult:
    """0F2(; b1, b2; x)."""
    den = (float(b1), float(b2))
    return _sum_convergent((), den, _checked((), den, x), None)


def hyp1f1(a: float, b: float, x: Number) -> HypergeomResult:
    """1F1(a; b; x); a non-terminating series at negative real argument is
    refused, as :func:`confluent_neg` evaluates it stably."""
    num, den = (float(a),), (float(b),)
    x, stop = _checked(num, den, x), termination_index(num)
    if not isinstance(x, complex) and x < 0 and stop is None:
        raise ValueError("a non-terminating 1F1 at negative argument is confluent_neg(a, b, -x)")
    return _sum_convergent(num, den, x, stop)


def hyp2f0(a: float, b: float, x: Number, order: int) -> HypergeomResult:
    """2F0(a, b; ; x) over at most ``order`` terms: in full if it terminates, else
    optimally truncated, with the smallest-term index and an error estimate."""
    num = (float(a), float(b))
    x = _checked(num, (), x)
    if order < 1:
        raise ValueError("2F0 is divergent; supply a positive truncation order")
    return HypergeomResult(*_sum_2f0(*num, x, order, termination_index(num)))


_ASYMPTOTIC_SWITCH = 80.0


def confluent_neg(a: float, c: float, x: float) -> float:
    """Confluent hypergeometric M(a; c; -x) for x >= 0, stably.

    e^(-x) M(c-a; c; x), a series of eventually constant sign (a polynomial
    when c-a is a non-positive integer), up to x = 80 and for every x in the
    polynomial case; beyond, the algebraic expansion x^(-a) Gamma(c)/Gamma(c-a)
    2F0(a, a-c+1; 1/x) without the exponentially small one of DLMF 13.7,
    wherever that 2F0 terminates or converges to the last bit, and from
    x = 700 on, where e^(-x) M(c-a; c; x) nears underflow.  Within 1e-12
    relative of arbitrary precision for a <= 25, c-a in 0..10.
    A non-terminating 2F0 stops at its first term below ulp(sum)/4, exactly:
    every later term is smaller (the sum ends at the first that does not
    shrink), and below a quarter ulp (below a power of two the spacing
    halves) a float moves a double on neither side.  A 2F0 whose terms start
    growing first (large a - c + 1 at moderate x) is only optimally
    truncated, so M comes from the series instead.
    """
    if x < 0:
        raise ValueError("confluent_neg expects x >= 0")
    p = c - a
    terminating = is_nonpos_int(p)
    if not terminating and x > _ASYMPTOTIC_SWITCH:
        # math.gamma keeps the sign of Gamma(c-a) for negative non-integer c-a
        lead = math.exp(math.lgamma(c) - a * math.log(x)) / math.gamma(p)
        b = a - c + 1
        total, _, exact, _, omitted = _sum_2f0(a, b, 1.0 / x, 501, termination_index((a, b)),
                                               value_only=True)
        if exact or omitted < 0.25 * math.ulp(total) or x >= 700.0:
            return lead * total
    if x >= 745.0:
        return 0.0  # e^(-x) underflows
    term = tot = 1.0
    steps = -round(p) if terminating else 100000
    m = 0
    while m < steps:
        term *= (p + m) * x / ((c + m) * (m + 1))
        tot += term
        if abs(term) < 1e-16 * abs(tot):
            break
        m += 1
    return math.exp(-x) * tot
