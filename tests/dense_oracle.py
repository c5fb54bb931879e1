"""Dense reference for the band formulas of ``reps``, ``defosc``, ``fock3`` and ``diffreal``.

These are the contractions the library performed before a ladder
representation became band data, a Fock realization per-state data and a
differential realization closed-form bands: full d x d matrix products,
Horner's rule over matrices, and symbolic application of differential
operators to whole polynomials.  They are kept here only as a test oracle;
the library formulas must reproduce them bit for bit.
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy import sparse

from quadalg import reps
from quadalg.errors import BasisSpanError
from quadalg.polyalg import CasimirPoly, RationalPoly


def rep_ladder_matrices(rep):
    """Dense ``qp``, ``qm`` of a ladder representation, filled entry by entry."""
    qp, qm = np.zeros((rep.dim, rep.dim)), np.zeros((rep.dim, rep.dim))
    for n, x in enumerate(rep.raising):
        qp[n + 1, n] = qm[n, n + 1] = x
    return qp, qm


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


def casimir_matrix(rep, g):
    """Dense Casimir matrix ``qp @ qm + g(q0 - 1)`` of anything with q0/qp/qm."""
    poly = g.poly if isinstance(g, CasimirPoly) else g
    q0, qp, qm = (np.asarray(m, float) for m in (rep.q0, rep.qp, rep.qm))
    d = q0.shape[0]
    for m in (q0, qp, qm):
        if m.shape != (d, d):
            raise ValueError("representation matrices must be square and of equal dimension")
    return qp @ qm + eval_matrix(poly, q0 - np.eye(d))


def casimir_value(rep):
    """(value, max_deviation) of the dense Casimir matrix over interior levels."""
    c = casimir_matrix(rep, reps.casimir_poly(rep))
    mask = rep.interior
    diag = np.diag(c)[mask]
    value = float(diag.mean()) if diag.size else 0.0
    dev = np.abs(c - value * np.eye(rep.dim))[np.ix_(mask, mask)].max(initial=0.0)
    return value, float(dev)


def defining_relation_residuals(rep):
    """Max-norm residuals of the defining relations, on interior columns."""
    q0, qp, qm = rep.q0, rep.qp, rep.qm
    mask = rep.interior
    expected = eval_matrix(reps.structure_poly(rep), q0)
    return {
        "q0_qp": np.abs((q0 @ qp - qp @ q0) - qp)[:, mask].max(initial=0.0),
        "q0_qm": np.abs((q0 @ qm - qm @ q0) + qm)[:, mask].max(initial=0.0),
        "qp_qm": np.abs((qp @ qm - qm @ qp) - expected)[:, mask].max(initial=0.0),
    }


def commutator_residuals(rep, osc):
    """Residuals of [N,A]+A, [N,A+]-A+ and [A,A+]-F(N) for ``osc = deform(rep)``."""
    n, a, ad = rep.q0, rep.qm / osc.scale, rep.qp / osc.scale
    return {
        "n_a": float(np.abs((n @ a - a @ n) + a).max()),
        "n_adag": float(np.abs((n @ ad - ad @ n) - ad).max()),
        "a_adag": float(np.abs((a @ ad - ad @ a) - eval_matrix(osc.f_poly, n)).max()),
    }


# ---------------------------------------------------------------------------
# Fock realizations: the dense construction and verification that ``fock3``
# performed before a realization became per-state data.  The basis and the
# interior mask are rebuilt here from tuples, independently of ``FockSpace``.

_RAISE_MOVE = {"compact": (1, 1, -1), "noncompact": (1, 1, 1), "su2": (1, -1), "su11": (1, 1)}


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


def commutator_apply(a, b, poly):
    return apply(a, apply(b, poly)) - apply(b, apply(a, poly))


def squared_norms(basis):
    """The factorial squared norms N_n of a monomial basis, from its label."""
    label, f = basis.label, math.factorial
    if isinstance(label, reps.Su2Label):
        twoj = int(2 * label.j)
        return [Fraction(f(n) * f(twoj - n)) for n in range(basis.size)]
    twok = int(2 * label.k)
    if isinstance(label, reps.Su11Label):
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
            image = apply(op, RationalPoly.monomial(n))
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
