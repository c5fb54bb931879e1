"""Truncated multi-mode Fock spaces and bosonic realizations.

Every realized ladder generator is a monomial in the mode ladder operators:
on the occupation basis, one fixed shift of the occupations with one weight
per state.  ``realize`` builds that per-state data from one ``SECTORS``
entry, and every check runs on it in O(states); no dense matrix is built.
The expected [Q+, Q-] is the sector's structure polynomial of
``reps.ALGEBRAS``, evaluated at the realized diagonals.
Truncation policy: any amplitude raised past a mode cutoff is dropped, so
operator products are only trusted on the *interior* states, whose orbits
under short words of the realized ladder operators stay inside the cutoffs.
Boundary states are excluded from every residual norm and counted in the
reports.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from functools import reduce
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .reps import ALGEBRAS


class FockSpace:
    """Occupation-number basis with per-mode cutoffs, ordered lexicographically.

    ``occupations[i]`` is the occupation vector of row i, and ``row`` maps
    occupation vectors back to rows (-1 outside the cutoffs).
    """

    def __init__(self, cutoffs: Sequence[int]):
        cutoffs = tuple(int(c) for c in cutoffs)
        if not cutoffs or any(c < 0 for c in cutoffs):
            raise ValueError(f"cutoffs must be non-negative, got {cutoffs}")
        self.cutoffs = cutoffs
        self.nmodes = len(cutoffs)
        self.shape = tuple(c + 1 for c in cutoffs)
        self.occupations = np.indices(self.shape).reshape(self.nmodes, -1).T
        self.dim = len(self.occupations)

    def row(self, occ) -> np.ndarray:
        """Rows of occupation vectors (modes on the last axis), -1 outside the box."""
        occ = np.asarray(occ)
        inside = ((occ >= 0) & (occ <= self.cutoffs)).all(axis=-1)
        rows = np.ravel_multi_index(tuple(np.moveaxis(occ, -1, 0)), self.shape, mode="clip")
        return np.where(inside, rows, -1)

    def __repr__(self):
        return f"FockSpace(cutoffs={self.cutoffs}, dim={self.dim})"


@dataclass
class RealizedOperators:
    """Generators realized on a truncated Fock space, as per-state data.

    ``q0_diag``, ``k_diag`` and ``l_diag`` are the diagonal generators
    (``l_diag`` is None for the linear two-mode algebras).  ``raising`` and
    ``lowering`` are the ladder monomials as (target row, weight) per source
    row, target -1 where the image leaves the box.  ``interior_mask`` flags
    the basis states whose images under all words of length <= 2 in the
    realized ladder operators stay inside the cutoffs; equalities are only
    exact there.
    """

    space: FockSpace
    sector: str
    q0_diag: np.ndarray
    k_diag: np.ndarray
    l_diag: Optional[np.ndarray]
    raising: tuple[np.ndarray, np.ndarray]
    lowering: tuple[np.ndarray, np.ndarray]
    interior_mask: np.ndarray


class Sector(NamedTuple):
    """The raising monomial's occupation change; q0, k and l (None for the linear
    two-mode algebras) as functions of the occupations n."""

    move: tuple[int, ...]
    q0: Callable
    k: Callable
    l: Optional[Callable]


# diagonals shared between sectors
_grading = lambda n: (n[0] + n[1] - 2 * n[2] + 1) / 4
_l_like = lambda n: (n[0] + n[1] + 2 * n[2] + 1) / 4
_pair_casimir = lambda n: (1 - (n[0] - n[1]) ** 2) / 4

SECTORS = {
    # raising a1†a2†a3
    "compact": Sector((1, 1, -1), _grading, _pair_casimir, _l_like),
    # raising a1†a2†a3†: the grading operator and the l-like invariant swap roles
    "noncompact": Sector((1, 1, 1), _l_like, _pair_casimir, _grading),
    # quantum transfer a1†a2, with the realized quadratic Casimir as k
    "su2": Sector((1, -1), lambda n: (n[0] - n[1]) / 2,
                  lambda n: (n[0] + n[1]) * (n[0] + n[1] + 2) / 4, None),
    # pair creation a1†a2†
    "su11": Sector((1, 1), lambda n: (n[0] + n[1] + 1) / 2, _pair_casimir, None),
}

# length of the ladder words whose orbits must stay inside the box
DEPTH = 2


def interior_mask(space: FockSpace, sector: str) -> np.ndarray:
    """States whose orbit under words of length <= DEPTH stays inside the box.

    Every occupation path generated by words in the raising/lowering
    monomials must keep 0 <= n_i <= cutoff_i at each step.  The constant words
    reach the extremes n_i -+ DEPTH * |move_i|, so the mask is a box.  This is
    deliberately conservative: a path that leaves the box downward would be
    annihilated exactly, but such states are still flagged as boundary, so the
    mask never depends on cancellation arguments.
    """
    reach = DEPTH * np.abs(SECTORS[sector].move)
    occ = space.occupations
    return ((occ >= reach) & (occ <= np.subtract(space.cutoffs, reach))).all(axis=1)


def _monomial(space: FockSpace, move) -> tuple[np.ndarray, np.ndarray]:
    """(target row, weight) of the monomial shifting each mode by ``move``.

    Each mode contributes sqrt(n+1) (create) or sqrt(n) (annihilate), taken
    at the source occupation and multiplied left to right in mode order: the
    float the dense product of ladder matrices gives.
    """
    occ = space.occupations
    factors = [np.sqrt(n + 1.0) if m > 0 else np.sqrt(n) for n, m in zip(occ.T, move)]
    return space.row(occ + move), reduce(operator.mul, factors)


def realize(sector: str, space: FockSpace) -> RealizedOperators:
    """Generators of ``sector`` (a key of ``SECTORS``) realized on ``space``.

    The lowering monomial is the conjugate of the raising one; the space
    needs one mode per entry of the sector's move.
    """
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {', '.join(SECTORS)}, got {sector!r}")
    spec = SECTORS[sector]
    move = np.array(spec.move)
    if space.nmodes != len(move):
        raise ValueError(f"{sector} realization needs a {len(move)}-mode space")
    n = space.occupations.T
    l = None if spec.l is None else spec.l(n)
    return RealizedOperators(space, sector, spec.q0(n), spec.k(n), l,
                             _monomial(space, move), _monomial(space, -move),
                             interior_mask(space, sector))


@dataclass
class RealizationReport:
    """Interior max-norm residuals of the defining and invariance relations."""

    sector: str
    dim: int
    interior_count: int
    boundary_count: int
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "max_residual": self.max_residual}


def expected_commutator(ops: RealizedOperators) -> np.ndarray:
    """Per state, the [raising, lowering] that the sector's structure polynomial
    predicts: (c2 q0 q0 + c1 q0) + c0 with the coefficients of ``ALGEBRAS`` at
    the realized k and l diagonals."""
    c0, c1, c2 = ALGEBRAS[ops.sector].structure(ops.k_diag, ops.l_diag)
    q0 = ops.q0_diag
    return (c2 * q0 * q0 + c1 * q0) + c0


def verify_realization(ops: RealizedOperators) -> RealizationReport:
    """Report interior residuals of every defining relation of the realization.

    Column s of a commutator [D, G] of a diagonal D with a monomial G mapping
    s to t with weight w has the single entry D[t] w - w D[s]; [qp, qm] is
    diagonal.  Each residual is evaluated on these entries with the float
    operations of the dense matrix products, whose other terms are exact zeros.
    """
    s = np.flatnonzero(ops.interior_mask)
    (up, w_up), (down, w_down) = ops.raising, ops.lowering
    t, wp, u, wm = up[s], w_up[s], down[s], w_down[s]

    def resid(v: np.ndarray) -> float:
        return float(np.abs(v).max(initial=0.0))

    def comm(d: np.ndarray, target: np.ndarray, w: np.ndarray) -> np.ndarray:
        return d[target] * w - w * d[s]

    q0 = ops.q0_diag
    residuals = {
        "q0_qp": resid(comm(q0, t, wp) - wp),
        "q0_qm": resid(comm(q0, u, wm) + wm),
        "qp_qm": resid((w_up[u] * wm - w_down[t] * wp) - expected_commutator(ops)[s]),
    }
    for name, d in (("k", ops.k_diag), ("l", ops.l_diag)):
        if d is None:
            continue
        for gname, target, w in (("q0", s, q0[s]), ("qp", t, wp), ("qm", u, wm)):
            residuals[f"{name}_{gname}"] = resid(comm(d, target, w))
    if ops.l_diag is not None:
        residuals["k_l"] = resid(comm(ops.k_diag, s, ops.l_diag[s]))
    return RealizationReport(ops.sector, ops.space.dim, len(s), ops.space.dim - len(s), residuals)
