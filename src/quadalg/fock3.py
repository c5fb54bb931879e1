"""Truncated multi-mode Fock spaces and bosonic realizations.

Every realized ladder generator is a monomial in the mode ladder operators:
on the occupation basis, one fixed shift of the occupations with one weight
per state.  Realizations are stored as that per-state data and checked in
O(states); dense matrices are built only on demand.
Truncation policy: any amplitude raised past a mode cutoff is dropped, so
operator products are only trusted on the *interior* states, whose orbits
under short words of the realized ladder operators stay inside the cutoffs.
Boundary states are excluded from every residual norm and counted in the
reports.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from functools import cached_property, reduce
from typing import Optional, Sequence

import numpy as np

from . import polyalg


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


def _dense_monomial(monomial: tuple[np.ndarray, np.ndarray], dim: int) -> np.ndarray:
    target, weight = monomial
    source = np.flatnonzero(target >= 0)
    out = np.zeros((dim, dim))
    out[target[source], source] = weight[source]
    return out


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

    # dense generators, built on first use
    q0 = cached_property(lambda self: np.diag(self.q0_diag))
    qp = cached_property(lambda self: _dense_monomial(self.raising, self.space.dim))
    qm = cached_property(lambda self: _dense_monomial(self.lowering, self.space.dim))
    kmat = cached_property(lambda self: np.diag(self.k_diag))
    lmat = cached_property(lambda self: None if self.l_diag is None else np.diag(self.l_diag))


# occupation change of the raising monomial, per sector
_RAISE_MOVE = {"compact": (1, 1, -1), "noncompact": (1, 1, 1), "su2": (1, -1), "su11": (1, 1)}

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
    reach = DEPTH * np.abs(_RAISE_MOVE[sector])
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


def _realized(space: FockSpace, sector: str, q0, k, l) -> RealizedOperators:
    move = np.array(_RAISE_MOVE[sector])
    return RealizedOperators(space, sector, q0, k, l, _monomial(space, move),
                             _monomial(space, -move), interior_mask(space, sector))


def realize_compact(space: FockSpace) -> RealizedOperators:
    """Compact-sector generators: raising = a1†a2†a3, lowering its conjugate.

    The diagonal invariants are k-like (the two-mode Casimir) and l-like
    with entries (n1+n2+2n3+1)/4; both are exact quarter-integers.
    """
    if space.nmodes != 3:
        raise ValueError("compact realization needs a three-mode space")
    n1, n2, n3 = space.occupations.T
    return _realized(space, "compact", (n1 + n2 - 2 * n3 + 1) / 4,
                     (1 - (n1 - n2) ** 2) / 4, (n1 + n2 + 2 * n3 + 1) / 4)


def realize_noncompact(space: FockSpace) -> RealizedOperators:
    """Noncompact-sector generators: raising = a1†a2†a3†.

    Relative to the compact realization the roles of the grading operator and
    the l-like invariant swap.
    """
    if space.nmodes != 3:
        raise ValueError("noncompact realization needs a three-mode space")
    n1, n2, n3 = space.occupations.T
    return _realized(space, "noncompact", (n1 + n2 + 2 * n3 + 1) / 4,
                     (1 - (n1 - n2) ** 2) / 4, (n1 + n2 - 2 * n3 + 1) / 4)


def realize_two_mode(kind: str, space: FockSpace) -> RealizedOperators:
    """Two-mode realizations: quantum-transfer (su2) or pair-creation (su11).

    The k-slot carries the realized quadratic Casimir; there is no l-like
    invariant for the linear algebras.
    """
    if space.nmodes != 2:
        raise ValueError("two-mode realization needs a two-mode space")
    if kind not in ("su2", "su11"):
        raise ValueError(f"kind must be 'su2' or 'su11', got {kind!r}")
    n1, n2 = space.occupations.T
    if kind == "su2":
        return _realized(space, kind, (n1 - n2) / 2, (n1 + n2) * (n1 + n2 + 2) / 4, None)
    return _realized(space, kind, (n1 + n2 + 1) / 2, (1 - (n1 - n2) ** 2) / 4, None)


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


def _structure_diag(ops: RealizedOperators) -> np.ndarray:
    """Expected [raising, lowering], diagonal in the diagonal invariants."""
    q0, k, l = ops.q0_diag, ops.k_diag, ops.l_diag
    if ops.sector == "compact":
        return (3 * q0 * q0 + (2 * l - 1) * q0) + (k - l * (l + 1))
    if ops.sector == "noncompact":
        return (-3 * q0 * q0 - (2 * l + 1) * q0) - (k - l * (l - 1))
    sign = 2.0 if ops.sector == "su2" else -2.0
    return sign * q0


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
        "qp_qm": resid((w_up[u] * wm - w_down[t] * wp) - _structure_diag(ops)[s]),
    }
    for name, d in (("k", ops.k_diag), ("l", ops.l_diag)):
        if d is None:
            continue
        for gname, target, w in (("q0", s, q0[s]), ("qp", t, wp), ("qm", u, wm)):
            residuals[f"{name}_{gname}"] = resid(comm(d, target, w))
    if ops.l_diag is not None:
        residuals["k_l"] = resid(comm(ops.k_diag, s, ops.l_diag[s]))
    return RealizationReport(ops.sector, ops.space.dim, len(s), ops.space.dim - len(s), residuals)


def eigenspace_states(ops: RealizedOperators, k, l) -> list[list[int]]:
    """Ordered chains of basis indices carrying the (k, l) representation.

    Chains are returned lowest weight first; for k > 1/2 there are two (the
    two occupation assignments related by swapping the first two modes), for
    k = 1/2 one.
    """
    k, l = polyalg.as_fraction(k), polyalg.as_fraction(l)
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
