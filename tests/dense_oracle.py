"""Dense reference for the band formulas of ``reps``, ``defosc``, ``fock3`` and ``diffreal``.

These are the contractions the library performed before a ladder
representation became band data, a Fock realization per-state data and a
differential realization closed-form bands: full d x d matrix products,
Horner's rule over matrices, and symbolic application of differential
operators to whole polynomials.  They are kept here only as a test oracle;
the library formulas must reproduce them bit for bit.  The library builds no
dense matrix: ``rep_matrices`` and ``realized_matrices`` render its band and
per-state data densely for the tests.  ``rising`` is the rising factorial
the moment ratios were once built from, term by term.  The factored ladder
squares of each sector, which ``reps`` once typed per constructor, are the
oracle for the squares ``reps.ladder_rep`` derives from the structure
polynomial; the band residuals, the 2-dimensional family, the exact
Casimir scalar and ``eigenspace_states`` (the Fock chains that carry one
ladder representation) are helpers whose only callers are tests.
``band_elements`` is the Fraction band routine of ``diffreal`` from before
its elements were computed in integers, and ``signed_square`` its helper.
``monomial`` (once ``RationalPoly.monomial``), ``LevelPart``,
``decompose_level`` and ``report_parts`` (once ``DegeneracyReport.parts``)
are helpers whose only callers are tests: a level's pieces of
``spectrum.level_parts`` with their labels k as exact rationals.
``compact_norm_sq_formula`` is the closed 1F1 form of the inverse-parameter
compact coherent state's squared norm, which ``coherent`` once normalised by;
its terminating 1F1 is mpmath's.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Union

import mpmath as mp
import numpy as np
from scipy import sparse

from quadalg import reps, spectrum
from quadalg.diffreal import DiffOp, DiffRealization
from quadalg.fock3 import RealizedOperators
from quadalg.errors import BasisSpanError
from quadalg.polyalg import RationalPoly, as_fraction


def rising(x, n: int) -> Fraction:
    """Rising factorial x(x+1)...(x+n-1) in exact rational arithmetic."""
    x = as_fraction(x)
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def compact_norm_sq_formula(label, gamma_abs: float) -> float:
    """Squared norm of the unnormalised inverse-parameter orbit sum.

    Evaluates |g|^(2(k-2l)) * Gamma(k+2l) * Phi(k-2l, 1-2l-k; |g|^2) /
    Gamma(2k); the confluent series terminates after 2l-k+1 terms.
    """
    k, l = float(label.k), float(label.l)
    s = label.step
    phi = float(mp.hyp1f1(-s, 1 - s - 2 * k, gamma_abs ** 2))
    return (gamma_abs ** (-2 * s)
            * math.exp(math.lgamma(k + 2 * l) - math.lgamma(2 * k))
            * phi)


def rep_ladder_matrices(rep):
    """Dense ``qp``, ``qm`` of a ladder representation, filled entry by entry."""
    qp, qm = np.zeros((rep.dim, rep.dim)), np.zeros((rep.dim, rep.dim))
    for n, x in enumerate(rep.raising):
        qp[n + 1, n] = qm[n, n + 1] = x
    return qp, qm


def rep_matrices(rep):
    """Dense ``q0``, ``qp``, ``qm`` of a ladder representation."""
    qp, qm = rep_ladder_matrices(rep)
    return SimpleNamespace(q0=np.diag(rep.diag), qp=qp, qm=qm)


def eval_matrix(poly, m):
    """Evaluate a RationalPoly on a square matrix by Horner's rule."""
    d = m.shape[0]
    if m.shape != (d, d):
        raise ValueError("matrix argument must be square")
    acc = np.zeros_like(m, dtype=float)
    eye = np.eye(d)
    for c in reversed(poly.coeffs):
        acc = acc @ m + float(c) * eye
    return acc


def casimir_matrix(mats, g):
    """Dense Casimir matrix ``qp @ qm + g(q0 - 1)`` of anything with q0/qp/qm."""
    q0, qp, qm = (np.asarray(m, float) for m in (mats.q0, mats.qp, mats.qm))
    d = q0.shape[0]
    for m in (q0, qp, qm):
        if m.shape != (d, d):
            raise ValueError("representation matrices must be square and of equal dimension")
    return qp @ qm + eval_matrix(g, q0 - np.eye(d))


def casimir_value(rep):
    """(value, max_deviation) of the dense Casimir matrix over interior levels."""
    c = casimir_matrix(rep_matrices(rep), reps.casimir_poly(rep.label))
    mask = rep.interior
    diag = np.diag(c)[mask]
    value = float(diag.mean()) if diag.size else 0.0
    dev = np.abs(c - value * np.eye(rep.dim))[np.ix_(mask, mask)].max(initial=0.0)
    return value, float(dev)


def defining_relation_residuals(rep):
    """Max-norm residuals of the defining relations, on interior columns."""
    m = rep_matrices(rep)
    q0, qp, qm = m.q0, m.qp, m.qm
    mask = rep.interior
    expected = eval_matrix(reps.structure_poly(rep.label), q0)
    return {
        "q0_qp": np.abs((q0 @ qp - qp @ q0) - qp)[:, mask].max(initial=0.0),
        "q0_qm": np.abs((q0 @ qm - qm @ q0) + qm)[:, mask].max(initial=0.0),
        "qp_qm": np.abs((qp @ qm - qm @ qp) - expected)[:, mask].max(initial=0.0),
    }


def commutator_residuals(rep, osc):
    """Residuals of [N,A]+A, [N,A+]-A+ and [A,A+]-F(N) for ``osc = deform(rep)``."""
    m = rep_matrices(rep)
    n, a, ad = m.q0, m.qm / osc.scale, m.qp / osc.scale
    return {
        "n_a": float(np.abs((n @ a - a @ n) + a).max()),
        "n_adag": float(np.abs((n @ ad - ad @ n) - ad).max()),
        "a_adag": float(np.abs((a @ ad - ad @ a) - eval_matrix(osc.f_poly, n)).max()),
    }


def band_relation_residuals(rep):
    """The band form of ``defining_relation_residuals``, from ``reps.relation_bands``."""
    up, down, comm = reps.relation_bands(rep.diag, rep.raising)
    mask = rep.interior
    expected = reps.structure_poly(rep.label)(rep.diag)
    return {
        "q0_qp": np.abs(up[mask[:-1]]).max(initial=0.0),
        "q0_qm": np.abs(down[mask[1:]]).max(initial=0.0),
        "qp_qm": np.abs((comm - expected)[mask]).max(initial=0.0),
    }


# ---------------------------------------------------------------------------
# Ladder representations in closed form, independent of the structure
# polynomials of ``reps.ALGEBRAS``: the factored squares and diagonals of the
# four sectors, and the Casimir scalar checked level by level.


def closed_form_squares(label, dim):
    """Squares of the raising entries n -> n+1 for n < dim - 1, factored."""
    if label.sector == "su2":
        twoj = int(2 * label.j)
        return [(n + 1) * (twoj - n) for n in range(dim - 1)]
    twok = int(2 * label.k)
    if label.sector == "su11":
        return [(n + 1) * (twok + n) for n in range(dim - 1)]
    if label.sector == "compact":  # 2l-n-k = step-n
        return [(n + 1) * (n + twok) * (label.step - n) for n in range(dim - 1)]
    return [(n + 1) * (n + twok) * (n + label.step + 1) for n in range(dim - 1)]  # k-2l = step


def closed_form_diagonal(label, dim):
    """Diagonal of q0: n - j (su2), k + n (su11), k - l + n (three-mode)."""
    if label.sector == "su2":
        return [n - label.j for n in range(dim)]
    if label.sector == "su11":
        return [label.k + n for n in range(dim)]
    return [label.k - label.l + n for n in range(dim)]


def two_dim_family(k):
    """The 2-dimensional compact representation attached to each k.

    Distinct k give different Casimir scalars, so the family realises
    infinitely many inequivalent representations of the same dimension.
    """
    k = as_fraction(k)
    rep = reps.ladder_rep(reps.Label("compact", k, (k + 1) / 2))
    if not (np.array_equal(rep.diag, [float((k - 1) / 2), float((k + 1) / 2)])
            and np.array_equal(rep.raising, [math.sqrt(float(2 * k))])):
        raise AssertionError("2-dimensional family disagrees with ladder_rep")
    return rep


def casimir_scalar_exact(label, check_dim: int = 12) -> Fraction:
    """Exact Casimir scalar from squared ladder entries, verified across levels.

    Computes ``qp_sq[n-1] + g(q0(n) - 1)`` in rational arithmetic for every
    level up to ``check_dim`` (or the full compact dimension) and requires all
    values to coincide.
    """
    rep = reps.ladder_rep(label, check_dim)
    g = reps.casimir_poly(label)
    values = {low_sq + g(x - 1) for low_sq, x in zip((Fraction(0),) + rep.qp_sq, rep.q0_diag)}
    if len(values) != 1:
        raise AssertionError(f"Casimir not scalar in exact arithmetic for {label}")
    return values.pop()


# ---------------------------------------------------------------------------
# Fock realizations: the dense construction and verification that ``fock3``
# performed before a realization became per-state data.  The basis and the
# interior mask are rebuilt here from tuples, independently of ``FockSpace``.

_RAISE_MOVE = {"compact": (1, 1, -1), "noncompact": (1, 1, 1), "su2": (1, -1), "su11": (1, 1)}


def _dense_monomial(monomial, dim):
    target, weight = monomial
    source = np.flatnonzero(target >= 0)
    out = np.zeros((dim, dim))
    out[target[source], source] = weight[source]
    return out


def realized_matrices(ops):
    """Dense q0, qp, qm, kmat, lmat (None for two-mode) from a realization's per-state data."""
    dim = ops.space.dim
    return SimpleNamespace(
        q0=np.diag(ops.q0_diag), qp=_dense_monomial(ops.raising, dim),
        qm=_dense_monomial(ops.lowering, dim), kmat=np.diag(ops.k_diag),
        lmat=None if ops.l_diag is None else np.diag(ops.l_diag))


def fock_basis(cutoffs):
    """Lexicographic occupation tuples and their row index."""
    basis = tuple(itertools.product(*(range(c + 1) for c in cutoffs)))
    return basis, {occ: i for i, occ in enumerate(basis)}


def ladder_matrices(space):
    """Dense per-mode annihilation and creation matrices, over-cutoff images dropped."""
    basis, index = fock_basis(space.cutoffs)
    dim = len(basis)
    lower, raise_ = [], []
    for mode in range(len(space.cutoffs)):
        rows, cols, vals = [], [], []
        for i, occ in enumerate(basis):
            n = occ[mode]
            if n > 0:
                rows.append(index[occ[:mode] + (n - 1,) + occ[mode + 1:]])
                cols.append(i)
                vals.append(np.sqrt(n))
        a = sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).toarray()
        lower.append(a)
        raise_.append(a.T.copy())
    return lower, raise_


def fock_interior_mask(cutoffs, sector, depth=2):
    """States whose orbit under every word of length ``depth`` stays inside the box."""
    basis, _ = fock_basis(cutoffs)
    up = _RAISE_MOVE[sector]
    down = tuple(-d for d in up)
    mask = np.ones(len(basis), dtype=bool)
    for i, occ in enumerate(basis):
        for word in itertools.product((up, down), repeat=depth):
            state = occ
            for move in word:
                state = tuple(n + d for n, d in zip(state, move))
                if any(n < 0 or n > c for n, c in zip(state, cutoffs)):
                    mask[i] = False
                    break
            if not mask[i]:
                break
    return mask


def realize(sector, space):
    """Dense generators q0, qp, qm, kmat, lmat (None for two-mode) of a realization."""
    basis, _ = fock_basis(space.cutoffs)
    diag = lambda fn: np.diag([float(fn(o)) for o in basis])
    if sector in ("compact", "noncompact"):
        (a1, a2, a3), (c1, c2, c3) = ladder_matrices(space)
        grading = lambda o: (o[0] + o[1] - 2 * o[2] + 1) / 4
        l_like = lambda o: (o[0] + o[1] + 2 * o[2] + 1) / 4
        if sector == "compact":
            q0, qp, qm, lmat = diag(grading), c1 @ c2 @ a3, a1 @ a2 @ c3, diag(l_like)
        else:
            q0, qp, qm, lmat = diag(l_like), c1 @ c2 @ c3, a1 @ a2 @ a3, diag(grading)
        kmat = diag(lambda o: (1 - (o[0] - o[1]) ** 2) / 4)
    else:
        (a1, a2), (c1, c2) = ladder_matrices(space)
        lmat = None
        if sector == "su2":
            q0, qp, qm = diag(lambda o: (o[0] - o[1]) / 2), c1 @ a2, a1 @ c2
            kmat = diag(lambda o: (o[0] + o[1]) * (o[0] + o[1] + 2) / 4)
        else:
            q0, qp, qm = diag(lambda o: (o[0] + o[1] + 1) / 2), c1 @ c2, a1 @ a2
            kmat = diag(lambda o: (1 - (o[0] - o[1]) ** 2) / 4)
    return SimpleNamespace(sector=sector, dim=len(basis), q0=q0, qp=qp, qm=qm, kmat=kmat,
                           lmat=lmat, interior_mask=fock_interior_mask(space.cutoffs, sector))


def structure_matrix(ops):
    """Expected [raising, lowering] with the diagonal invariants as matrices."""
    eye = np.eye(ops.dim)
    q0, km, lm = ops.q0, ops.kmat, ops.lmat
    if ops.sector == "compact":
        return 3 * q0 @ q0 + (2 * lm - eye) @ q0 + (km - lm @ (lm + eye))
    if ops.sector == "noncompact":
        return -3 * q0 @ q0 - (2 * lm + eye) @ q0 - (km - lm @ (lm - eye))
    sign = 2.0 if ops.sector == "su2" else -2.0
    return sign * q0


def verify_realization(ops):
    """The ``RealizationReport.to_dict()`` of the dense commutators on interior columns."""
    mask = ops.interior_mask

    def resid(m):
        return float(np.abs(m[:, mask]).max(initial=0.0))

    comm = lambda a, b: a @ b - b @ a
    residuals = {
        "q0_qp": resid(comm(ops.q0, ops.qp) - ops.qp),
        "q0_qm": resid(comm(ops.q0, ops.qm) + ops.qm),
        "qp_qm": resid(comm(ops.qp, ops.qm) - structure_matrix(ops)),
    }
    for name, d in (("k", ops.kmat), ("l", ops.lmat)):
        if d is None:
            continue
        for gname, g in (("q0", ops.q0), ("qp", ops.qp), ("qm", ops.qm)):
            residuals[f"{name}_{gname}"] = resid(comm(d, g))
    if ops.lmat is not None:
        residuals["k_l"] = resid(comm(ops.kmat, ops.lmat))
    n_int = int(mask.sum())
    return {"sector": ops.sector, "dim": ops.dim, "interior_count": n_int,
            "boundary_count": ops.dim - n_int, "residuals": residuals,
            "max_residual": max(residuals.values())}


# ---------------------------------------------------------------------------
# Differential realizations: the symbolic application and the dense tables
# that ``diffreal`` computed before its elements became closed-form bands.
# The squared norms are the factorial products, independent of the ratios
# ``MonomialBasis.norm_ratios``.


def derivative(poly):
    return RationalPoly([i * c for i, c in enumerate(poly.coeffs)][1:])


def apply(op, poly):
    """Exact symbolic application of a ``DiffOp`` to a rational polynomial."""
    out = RationalPoly.zero()
    for order, coeff in op.terms:
        p = poly
        for _ in range(order):
            p = derivative(p)
        out = out + coeff * p
    return out


def monomial(power: int, coeff=1) -> RationalPoly:
    """The polynomial coeff * z^power."""
    return RationalPoly([0] * power + [coeff])


def commutator_apply(a, b, poly):
    return apply(a, apply(b, poly)) - apply(b, apply(a, poly))


def squared_norms(basis):
    """The factorial squared norms N_n of a monomial basis, from its label."""
    label, f = basis.label, math.factorial
    if label.sector == "su2":
        twoj = int(2 * label.j)
        return [Fraction(f(n) * f(twoj - n)) for n in range(basis.size)]
    twok = int(2 * label.k)
    if label.sector == "su11":
        return [Fraction(f(n) * f(n + twok - 1)) for n in range(basis.size)]
    if label.sector == "compact":
        return [Fraction(f(n) * f(n + twok - 1) * f(label.step - n)) for n in range(basis.size)]
    return [Fraction(f(n) * f(n + twok - 1) * f(n + label.step)) for n in range(basis.size)]


def matrix_elements(real):
    """Dense signed squared tables: entry [m][n] is sign(c) c^2 N_m / N_n."""
    basis = real.basis
    size, norms = basis.size, squared_norms(basis)
    tables = {}
    for name, op in real.generators.items():
        table = [[Fraction(0)] * size for _ in range(size)]
        for n in range(size):
            image = apply(op, monomial(n))
            for power, c in enumerate(image.coeffs):
                if c == 0:
                    continue
                if power >= size:
                    if basis.truncated and name == "qp" and n == size - 1 and power == size:
                        continue
                    raise BasisSpanError(
                        f"{name} maps basis function {n} onto z^{power}, outside the span")
                sign = 1 if c > 0 else -1
                table[power][n] = sign * c * c * norms[power] / norms[n]
        tables[name] = table
    return tables


def eigenspace_states(ops: RealizedOperators, k, l) -> list[list[int]]:
    """Ordered chains of basis indices carrying the (k, l) representation.

    Chains are returned lowest weight first; for k > 1/2 there are two (the
    two occupation assignments related by swapping the first two modes), for
    k = 1/2 one.
    """
    k, l = as_fraction(k), as_fraction(l)
    delta = int(2 * k - 1)
    compact = ops.sector == "compact"
    step = 2 * l - k if compact else k - 2 * l
    if step < 0 or step.denominator != 1:
        return []
    # (n, n + delta, n3) for n = 0, 1, ... up to the top state or the edge of the box
    n = np.arange(int(step) + 1 if compact else max(ops.space.cutoffs) + 2)
    n3 = int(step) - n if compact else n + int(step)
    chains = []
    for pair in ((n, n + delta), (n + delta, n))[:2 if delta else 1]:
        rows = ops.space.row(np.stack([*pair, n3], axis=1))
        chain = rows[np.logical_and.accumulate(rows >= 0)].tolist()
        if chain:
            chains.append(chain)
    return chains


# ---------------------------------------------------------------------------
# The band routine of ``diffreal`` in Fraction arithmetic, as it was before
# each generator was scaled to integers over one common denominator: a
# Fraction image per monomial and about six Fraction operations per element.
# Kept verbatim as the oracle of the integer routine.


def signed_square(x: Union[int, Fraction]) -> Fraction:
    """sign(x) * x^2 as an exact rational, for comparisons against tables."""
    x = as_fraction(x)
    return x * x if x >= 0 else -(x * x)


def _image(op: DiffOp, n: int) -> dict[int, Fraction]:
    """Coefficients of op(z^n) by power: c z^j d^i/dz^i maps z^n to c n!/(n-i)! z^(n-i+j)."""
    out: dict[int, Fraction] = {}
    for order, coeff in op.terms:
        fall = math.perm(n, order)
        if fall:
            for j, c in enumerate(coeff.coeffs):
                if c:
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
    basis, which is dropped to mirror the matrix truncation.
    """
    basis = real.basis
    size, ratios = basis.size, basis.norm_ratios
    bands: dict[str, tuple[Fraction, ...]] = {}
    clean = True
    for (name, op), offset in zip(real.generators.items(), (0, 1, -1)):
        band = [Fraction(0)] * (size - abs(offset))
        for n in range(size):
            for power, c in _image(op, n).items():
                if c == 0:
                    continue
                if power >= size:
                    if basis.truncated and name == "qp" and n == size - 1 and power == size:
                        continue
                    raise BasisSpanError(
                        f"{name} maps basis function {n} onto z^{power}, outside the span")
                if power != n + offset:
                    clean = False
                elif offset == 0:
                    band[n] = signed_square(c)
                elif offset == 1:
                    band[n] = signed_square(c) * ratios[n]
                else:
                    band[power] = signed_square(c) / ratios[power]
        bands[name] = tuple(band)
    return bands, clean


# ---------------------------------------------------------------------------
# A spectrum level's pieces with their labels k as exact rationals, as
# ``spectrum`` once built them from the triples of ``level_parts`` on demand.


@dataclass(frozen=True, slots=True)
class LevelPart:
    """One irreducible piece of a level: label k, its dimension, multiplicity."""

    k: Fraction
    dim: int
    multiplicity: int


def decompose_level(N: int) -> tuple[LevelPart, ...]:
    """The pieces of ``spectrum.level_parts`` with their labels k as exact rationals."""
    return tuple(LevelPart(Fraction(twok, 2), dim, mult)
                 for twok, dim, mult in spectrum.level_parts(N))


def report_parts(report: spectrum.DegeneracyReport) -> tuple[LevelPart, ...]:
    """The pieces of a report's level."""
    return decompose_level(report.N)
