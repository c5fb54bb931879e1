"""The confluent function M(a; c; -x) at negative argument, and its 2F0.

:func:`confluent_neg` serves :mod:`quadalg.measures`; past x = 80 it reads
the asymptotic 2F0 of :func:`_sum_2f0`, which sums a polynomial (a
non-positive integer parameter) in full and any other series up to its
smallest term.
"""

from __future__ import annotations

import math
from typing import Optional

INT_TOL = 1e-9


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


def _sum_2f0(a: float, b: float, x: float, order: int, stop: Optional[int]):
    """2F0(a, b; x) over at most ``order`` terms: ``(sum, terms, exact, first omitted |term|)``.

    A polynomial (``stop`` non-zero terms) is summed in full; any other
    series ends before its first term that does not shrink or cannot move
    the sum.
    """
    term = total = 1.0
    m = 0
    last = order if stop is None or stop > order else stop
    while m + 1 < last:
        nxt = term * (a + m) * (b + m) * x / (m + 1)
        if stop is None and (abs(nxt) >= abs(term) or abs(nxt) < 0.25 * math.ulp(total)):
            # terms started growing (optimal truncation), or none left can change the value
            return total, m + 1, False, abs(nxt)
        term = nxt
        total = total + term
        m += 1
    if m + 1 == stop:
        return total, m + 1, True, 0.0
    return total, m + 1, False, abs(term * (a + m) * (b + m) * x / (m + 1))


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
        total, _, exact, omitted = _sum_2f0(a, b, 1.0 / x, 501, termination_index((a, b)))
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
