"""Dense-matrix reference for the band formulas of ``reps`` and ``defosc``.

These are the contractions the library performed before a ladder
representation became band data: full d x d matrix products and Horner's
rule over matrices.  They are kept here only as a test oracle; the band
formulas must reproduce them bit for bit.
"""

import numpy as np

from quadalg import reps
from quadalg.polyalg import CasimirPoly


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
