"""Exact rational polynomials and the Casimir recipe.

A one-generator polynomial deformation is fixed by a structure polynomial
``p`` through ``[raising, lowering] = p(diagonal)``.  Its Casimir element is
``raising @ lowering + g(diagonal - 1)`` where ``g`` is the discrete
antiderivative of ``p``, i.e. ``g(x) - g(x-1) = p(x)``.  The antiderivative
is defined up to an additive constant; everything here pins it down by the
normalisation ``g(-1) = 0`` (``CASIMIR_CONVENTION``).  The structure
polynomials themselves are the rows of ``reps.ALGEBRAS``.

Polynomial arithmetic is exact over :class:`fractions.Fraction`; evaluation
at floats (or elementwise on float arrays) uses the coefficients as floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Rat = Union[int, Fraction]

CASIMIR_CONVENTION = "g(-1) = 0"  # the normalisation that makes ``g`` unique


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class RationalPoly:
    """Polynomial in one variable with exact rational coefficients.

    Coefficients are stored lowest order first; trailing zeros are
    normalised away, so the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat]):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner's rule; exact when ``x`` is rational, float otherwise."""
        if isinstance(x, (int, Fraction)):
            acc, coeffs = Fraction(0), self.coeffs
        else:
            acc, coeffs = 0.0, [float(c) for c in self.coeffs]
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            return RationalPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    def shift(self, h: Rat) -> "RationalPoly":
        """Return the composed polynomial x -> p(x + h), exactly."""
        h = as_fraction(h)
        out = RationalPoly.zero()
        xh = RationalPoly([h, 1])
        power = RationalPoly([1])
        for c in self.coeffs:
            out = out + power * c
            power = power * xh
        return out

    def __repr__(self) -> str:
        if not self.coeffs:
            return "RationalPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "RationalPoly(" + " + ".join(parts) + ")"


def discrete_antiderivative(f: RationalPoly) -> RationalPoly:
    """Return ``g`` with ``g(x) - g(x-1) = f(x)`` identically and ``g(-1) = 0``.

    The x^m coefficient of ``g(x) - g(x-1)``, ``sum_{i>m} b_i C(i, m) (-1)^(i-m+1)``,
    is ``(m+1) b_{m+1}`` plus higher ``b``: solve from the top degree down, then ``b_0``.
    """
    b = [Fraction(0)] * (len(f.coeffs) + 1)
    for m in reversed(range(len(f.coeffs))):
        rest = sum(b[i] * math.comb(i, m) * (-1) ** (i - m) for i in range(m + 2, len(b)))
        b[m + 1] = (f.coeffs[m] + rest) / (m + 1)
    b[0] = sum(c * (-1) ** (i + 1) for i, c in enumerate(b[1:], 1))
    return RationalPoly(b)
