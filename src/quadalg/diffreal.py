"""Single-variable differential realizations over exact rationals.

Each algebra acts on monomial bases z^n / sqrt(N_n) with integer squared
norms N_n; the generators are differential operators of order at most three
with rational polynomial coefficients.  A term c z^j d^i/dz^i maps z^n to
c n!/(n-i)! z^(n-i+j), so a generator's image of a monomial is a few
monomials, and its matrix elements follow in closed form on the band in
O(size), in integers over one common denominator per generator.  They come
out as sign-carrying squared rationals, so the equivalence with the
closed-form matrices can be asserted with no tolerance at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BasisSpanError, InvalidLabelError
from .polyalg import RationalPoly
from .reps import Label

MAX_ORDER = 3
SECTORS = {"su2": "su2", "su11": "su11", "compactQ": "compact", "noncompactQ": "noncompact"}


@dataclass(frozen=True)
class DiffOp:
    """Differential operator sum_i c_i(z) d^i/dz^i with rational c_i."""

    terms: tuple[tuple[int, RationalPoly], ...]

    def __post_init__(self):
        for order, coeff in self.terms:
            if not 0 <= order <= MAX_ORDER:
                raise ValueError(f"derivative order {order} outside 0..{MAX_ORDER}")
            if not isinstance(coeff, RationalPoly):
                raise TypeError("coefficients must be RationalPoly")


@dataclass(frozen=True)
class MonomialBasis:
    """Monomial basis z^n / sqrt(N_n), given by the exact ratios N_(n+1) / N_n.

    ``truncated`` marks bases cut out of an infinite family, for which the
    raising image of the top function is allowed to leave the span.
    """

    label: Label
    norm_ratios: tuple[Fraction, ...]
    size: int
    truncated: bool

    def __post_init__(self):
        if any(r <= 0 for r in self.norm_ratios):
            raise ValueError("norm ratios must be positive")


@dataclass(frozen=True)
class DiffRealization:
    q0: DiffOp
    qp: DiffOp
    qm: DiffOp
    basis: MonomialBasis

    @property
    def generators(self) -> dict[str, DiffOp]:
        return {"q0": self.q0, "qp": self.qp, "qm": self.qm}


def _op(*terms: tuple[int, list]) -> DiffOp:
    return DiffOp(tuple((o, RationalPoly(c)) for o, c in terms))


def build_realization(kind: str, label: Label, size: Optional[int] = None) -> DiffRealization:
    """Generator triple and monomial basis for one of the four families.

    ``kind`` is a key of ``SECTORS`` and ``label`` a :class:`~quadalg.reps.Label`
    of its sector.  ``size`` is required for the infinite families (su11,
    noncompactQ).
    """
    if kind not in SECTORS:
        raise ValueError(f"unknown realization kind {kind!r}")
    if label.sector != SECTORS[kind]:
        raise InvalidLabelError(f"{kind} needs a {SECTORS[kind]} label")
    if kind == "su2":
        j = label.j
        twoj = int(2 * j)
        q0 = _op((1, [0, 1]), (0, [-j]))
        qp = _op((1, [0, 0, -1]), (0, [0, 2 * j]))
        qm = _op((1, [1]))
        # N_n = n! (2j-n)!
        ratios = tuple(Fraction(n + 1, twoj - n) for n in range(twoj))
        return DiffRealization(q0, qp, qm, MonomialBasis(label, ratios, twoj + 1, False))

    if kind == "su11":
        k = label.k
        if size is None or size < 1:
            raise ValueError("su11 basis is infinite; a positive size is required")
        twok = int(2 * k)
        q0 = _op((1, [0, 1]), (0, [k]))
        qp = _op((0, [0, 1]))
        qm = _op((2, [0, 1]), (1, [2 * k]))
        # N_n = n! (n+2k-1)!
        ratios = tuple(Fraction((n + 1) * (n + twok)) for n in range(size - 1))
        return DiffRealization(q0, qp, qm, MonomialBasis(label, ratios, size, True))

    if kind == "compactQ":
        k, l = label.k, label.l
        twok, step = int(2 * k), label.step
        q0 = _op((1, [0, 1]), (0, [k - l]))
        qp = _op((1, [0, 0, -1]), (0, [0, 2 * l - k]))
        qm = _op((2, [0, 1]), (1, [2 * k]))
        # N_n = n! (n+2k-1)! (2l-k-n)!
        ratios = tuple(Fraction((n + 1) * (n + twok), step - n) for n in range(step))
        return DiffRealization(q0, qp, qm, MonomialBasis(label, ratios, label.dim, False))

    if kind == "noncompactQ":
        if size is None or size < 1:
            raise ValueError("noncompactQ basis is infinite; a positive size is required")
        k, l = label.k, label.l
        twok, step = int(2 * k), label.step
        q0 = _op((1, [0, 1]), (0, [k - l]))
        qp = _op((0, [0, 1]))
        qm = _op((3, [0, 0, 1]), (2, [0, 3 * k - 2 * l + 2]),
                 (1, [2 * k * k - 4 * k * l + 2 * k]))
        # N_n = n! (n+2k-1)! (n+k-2l)!
        ratios = tuple(Fraction((n + 1) * (n + twok) * (n + 1 + step)) for n in range(size - 1))
        return DiffRealization(q0, qp, qm, MonomialBasis(label, ratios, size, True))


def _image(terms: list[tuple[int, int, int]], n: int) -> dict[int, int]:
    """Numerators of op(z^n) by power, for op given by its terms (i, j, C) over one
    denominator D: (C/D) z^j d^i/dz^i maps z^n to (C/D) n!/(n-i)! z^(n-i+j)."""
    out: dict[int, int] = {}
    for order, j, c in terms:
        fall = math.perm(n, order)
        if fall:
            power = n - order + j
            out[power] = out.get(power, 0) + c * fall
    return out


def band_elements(real: DiffRealization) -> tuple[dict[str, tuple[Fraction, ...]], bool]:
    """Signed squared matrix elements of each generator on the band, and the off-band verdict.

    Element (m, n) is sign(c) * c^2 * N_m / N_n for the coefficient c of the
    m-th basis function in the image of the n-th; elements of these
    realizations are square roots of rationals, so this representation is
    exact.  In the layout of :class:`~quadalg.reps.Representation`,
    ``q0[n]`` is element (n, n), ``qp[n]`` element (n+1, n) and ``qm[n]``
    element (n, n+1).  The verdict is false if any image has a non-zero
    coefficient off the band.  Raises :class:`BasisSpanError` if an image
    leaves the span, except for the raising overflow out of a truncated
    basis, which is dropped to mirror the matrix truncation.  Each generator
    is scaled to integer coefficients C over one denominator D, so every
    element is built once, as the rational sign(C) C^2 N_m / (D^2 N_n).
    """
    basis, size = real.basis, real.basis.size
    bands: dict[str, tuple[Fraction, ...]] = {}
    clean = True
    nums = [r.numerator for r in basis.norm_ratios]
    dens = [r.denominator for r in basis.norm_ratios]
    # N_m / N_n on each band: 1, N_(n+1)/N_n = ratios[n], N_n/N_(n+1) = 1/ratios[n]
    scales = (([1] * size,) * 2, (nums, dens), (dens, nums))
    for (name, op), offset, (up, down) in zip(real.generators.items(), (0, 1, -1), scales):
        den = math.lcm(*(c.denominator for _, coeff in op.terms for c in coeff.coeffs))
        terms = [(order, j, c.numerator * (den // c.denominator))
                 for order, coeff in op.terms for j, c in enumerate(coeff.coeffs) if c]
        band = [Fraction(0)] * (size - abs(offset))
        for n in range(size):
            for power, c in _image(terms, n).items():
                if c == 0:
                    continue
                if power >= size:
                    if basis.truncated and name == "qp" and n == size - 1 and power == size:
                        continue
                    raise BasisSpanError(
                        f"{name} maps basis function {n} onto z^{power}, outside the span")
                if power != n + offset:
                    clean = False
                else:  # element (power, n) sits at band index min(n, power)
                    i = min(n, power)
                    band[i] = Fraction(c * abs(c) * up[i], den * den * down[i])
        bands[name] = tuple(band)
    return bands, clean
