"""Bosonic realizations on truncated Fock spaces."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadalg import fock3, reps
from quadalg.fock3 import FockSpace

import dense_oracle
from dense_oracle import eigenspace_states, ladder_matrices, realized_matrices


@pytest.fixture(scope="module")
def space888():
    return FockSpace((8, 8, 8))


@pytest.fixture(scope="module")
def compact888(space888):
    return fock3.realize("compact", space888)


@pytest.fixture(scope="module")
def noncompact888(space888):
    return fock3.realize("noncompact", space888)


def test_space_indexing():
    space = FockSpace((2, 1, 1))
    assert space.dim == 3 * 2 * 2
    basis = [tuple(occ) for occ in space.occupations.tolist()]
    assert basis[0] == (0, 0, 0)
    assert basis[-1] == (2, 1, 1)
    # lexicographic ordering, the oracle's tuple basis, and a bijective row lookup
    assert sorted(basis) == basis
    assert tuple(basis) == dense_oracle.fock_basis(space.cutoffs)[0]
    assert np.array_equal(space.row(space.occupations), np.arange(space.dim))
    assert int(space.row((1, 0, 1))) == basis.index((1, 0, 1))
    # occupations outside the box have no row
    for occ in [(3, 0, 0), (0, 2, 0), (0, 0, -1), (-1, 1, 1)]:
        assert int(space.row(occ)) == -1


def test_ladder_action():
    space = FockSpace((3, 2, 4))
    basis, index = dense_oracle.fock_basis(space.cutoffs)
    lower, raise_ = ladder_matrices(space)
    # annihilating an empty mode gives zero
    for occ in basis:
        if occ[0] == 0:
            assert not np.any(lower[0][:, index[occ]])
    # number operator is diagonal with the occupations
    for mode in range(3):
        num = raise_[mode] @ lower[mode]
        expected = [occ[mode] for occ in basis]
        np.testing.assert_allclose(np.diag(num), expected, rtol=0, atol=1e-14)
        assert np.abs(num - np.diag(np.diag(num))).max() == 0
    # canonical commutator on columns below the cutoff
    for mode in range(3):
        comm = lower[mode] @ raise_[mode] - raise_[mode] @ lower[mode]
        cols = [i for i, occ in enumerate(basis) if occ[mode] < space.cutoffs[mode]]
        assert np.abs((comm - np.eye(space.dim))[:, cols]).max() < 1e-14


def test_creation_is_transpose_of_annihilation():
    space = FockSpace((3, 3))
    lower, raise_ = ladder_matrices(space)
    for a, c in zip(lower, raise_):
        assert np.array_equal(c, a.T)


def test_compact_realization_examples(compact888):
    space = compact888.space
    ops = realized_matrices(compact888)
    i101 = space.row((1, 0, 1))
    assert ops.lmat[i101, i101] == 1.0          # (1 + 0 + 2 + 1)/4
    # raising |0,1,1> -> sqrt(2) |1,2,0>
    col = ops.qp[:, space.row((0, 1, 1))]
    assert col[space.row((1, 2, 0))] == pytest.approx(math.sqrt(2), abs=0)
    assert np.count_nonzero(col) == 1
    # vacuum grading eigenvalue 1/4
    assert ops.q0[0, 0] == 0.25


def test_noncompact_realization_examples(noncompact888):
    space = noncompact888.space
    ops = realized_matrices(noncompact888)
    col = ops.qp[:, space.row((0, 0, 0))]
    assert col[space.row((1, 1, 1))] == 1.0
    assert np.count_nonzero(col) == 1
    for occ in [(0, 0, 0), (2, 1, 3), (5, 0, 1)]:
        i = space.row(occ)
        assert ops.q0[i, i] == (occ[0] + occ[1] + 2 * occ[2] + 1) / 4
    # K eigenvalue 1/4 whenever the first two occupations agree
    for n, m in [(0, 0), (2, 1), (4, 3)]:
        i = space.row((n, n, m))
        assert ops.kmat[i, i] == 0.25


def test_two_mode_realizations():
    space = FockSpace((4, 4))
    su2 = realized_matrices(fock3.realize("su2", space))
    col = su2.qp[:, space.row((0, 1))]
    assert col[space.row((1, 0))] == 1.0 and np.count_nonzero(col) == 1
    su11 = realized_matrices(fock3.realize("su11", space))
    col = su11.qp[:, space.row((0, 0))]
    assert col[space.row((1, 1))] == 1.0 and np.count_nonzero(col) == 1
    for i, occ in enumerate(space.occupations.tolist()):
        assert su11.kmat[i, i] == (1 - (occ[0] - occ[1]) ** 2) / 4
    with pytest.raises(ValueError):
        fock3.realize("su3", space)
    with pytest.raises(ValueError):
        fock3.realize("su2", FockSpace((2, 2, 2)))


def test_lowering_is_exact_transpose(compact888, noncompact888):
    for ops in map(realized_matrices, (compact888, noncompact888)):
        assert np.array_equal(ops.qm, ops.qp.T)


def test_verify_compact_888(compact888):
    report = fock3.verify_realization(compact888)
    assert report.interior_count > 0
    assert report.max_residual <= 1e-12
    assert report.boundary_count == compact888.space.dim - report.interior_count


def test_verify_noncompact_888(noncompact888):
    report = fock3.verify_realization(noncompact888)
    assert report.interior_count > 0
    assert report.max_residual <= 1e-12


def test_verify_two_mode():
    space = FockSpace((10, 10))
    for kind in ("su2", "su11"):
        report = fock3.verify_realization(fock3.realize(kind, space))
        assert report.interior_count > 0
        assert report.max_residual <= 1e-12


def test_empty_interior_is_flagged():
    ops = fock3.realize("compact", FockSpace((1, 1, 1)))
    report = fock3.verify_realization(ops)
    assert report.interior_count == 0
    assert report.boundary_count == ops.space.dim


def test_jacobi_identity_interior():
    ops = fock3.realize("compact", FockSpace((6, 6, 6)))
    mask = ops.interior_mask
    m = realized_matrices(ops)
    gens = {"q0": m.q0, "qp": m.qp, "qm": m.qm, "k": m.kmat, "l": m.lmat}
    comm = lambda a, b: a @ b - b @ a
    names = list(gens)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            for t in range(j + 1, len(names)):
                a, b, c = gens[names[i]], gens[names[j]], gens[names[t]]
                jac = comm(comm(a, b), c) + comm(comm(b, c), a) + comm(comm(c, a), b)
                assert np.abs(jac[:, mask]).max() <= 1e-12, (names[i], names[j], names[t])


def test_block_diagonality(compact888):
    # the diagonal invariants commute with everything on interior columns,
    # so joint eigenspaces are invariant
    report = fock3.verify_realization(compact888)
    for name in ("k_q0", "k_qp", "k_qm", "l_q0", "l_qp", "l_qm", "k_l"):
        assert report.residuals[name] <= 1e-12


@pytest.mark.parametrize("k,l", [(F(1, 2), F(1, 4)), (F(1, 2), F(5, 4)), (1, 1),
                                 (F(3, 2), F(7, 4)), (2, 3)])
def test_compact_matches_closed_form_rep(compact888, k, l):
    ops = realized_matrices(compact888)
    label = reps.AlgebraLabel.compact(k, l)
    rep = dense_oracle.rep_matrices(reps.ladder_rep(label))
    chains = eigenspace_states(compact888, k, l)
    assert len(chains) == (1 if k == F(1, 2) else 2)
    for chain in chains:
        assert len(chain) == label.dim
        sel = np.ix_(chain, chain)
        assert np.abs(ops.qp[sel] - rep.qp).max() <= 1e-12
        assert np.abs(ops.qm[sel] - rep.qm).max() <= 1e-12
        assert np.abs(ops.q0[sel] - rep.q0).max() <= 1e-12
        # and the raising image of the chain stays inside the chain
        for idx, col in enumerate(chain):
            image = np.nonzero(ops.qp[:, col])[0]
            expected = {chain[idx + 1]} if idx + 1 < len(chain) else set()
            assert set(image) == expected


def test_noncompact_matches_closed_form_rep(noncompact888):
    ops = realized_matrices(noncompact888)
    label = reps.AlgebraLabel.noncompact(F(1, 2), F(1, 4))
    chains = eigenspace_states(noncompact888, label.k, label.l)
    assert chains
    chain = chains[0]
    rep = dense_oracle.rep_matrices(reps.ladder_rep(label, len(chain)))
    sel = np.ix_(chain, chain)
    assert np.abs(ops.qp[sel] - rep.qp).max() <= 1e-12
    assert np.abs(ops.q0[sel] - rep.q0).max() <= 1e-12


@st.composite
def realizations(draw):
    """Realizations of all four sectors on small boxes, empty interiors included."""
    sector = draw(st.sampled_from(["compact", "noncompact", "su2", "su11"]))
    if sector in ("compact", "noncompact"):
        cutoffs = draw(st.tuples(*[st.integers(0, 7)] * 3))
    else:
        cutoffs = draw(st.tuples(st.integers(0, 25), st.integers(0, 25)))
    return fock3.realize(sector, FockSpace(cutoffs))


@settings(max_examples=80, deadline=None)
@given(realizations())
@example(fock3.realize("compact", FockSpace((1, 1, 1))))
@example(fock3.realize("noncompact", FockSpace((7, 6, 5))))
@example(fock3.realize("su11", FockSpace((25, 20))))
def test_per_state_formulas_equal_dense_oracle(ops):
    # bit-identical, not approximately equal: the dense products only add exact zeros
    report = fock3.verify_realization(ops)
    assert not {"q0", "qp", "qm", "kmat", "lmat"} & set(vars(ops))  # nothing dense built
    dense = dense_oracle.realize(ops.sector, ops.space)
    assert report.to_dict() == dense_oracle.verify_realization(dense)
    assert np.array_equal(ops.interior_mask, dense.interior_mask)
    # the per-state data, rendered densely, equals the independent COO products
    rendered = realized_matrices(ops)
    for name in ("q0", "qp", "qm", "kmat"):
        assert np.array_equal(getattr(rendered, name), getattr(dense, name)), name
    if dense.lmat is None:
        assert rendered.lmat is None
    else:
        assert np.array_equal(rendered.lmat, dense.lmat)


# The expected [raising, lowering] per state as ``fock3.SECTORS`` typed it, one
# float lambda per sector, before it was read from ``reps.ALGEBRAS``.
OLD_STRUCTURE = {
    "compact": lambda q0, k, l: (3 * q0 * q0 + (2 * l - 1) * q0) + (k - l * (l + 1)),
    "noncompact": lambda q0, k, l: (-3 * q0 * q0 - (2 * l + 1) * q0) - (k - l * (l - 1)),
    "su2": lambda q0, k, l: 2.0 * q0,
    "su11": lambda q0, k, l: -2.0 * q0,
}


@settings(max_examples=80, deadline=None)
@given(realizations())
@example(fock3.realize("su2", FockSpace((25, 25))))
def test_expected_commutator_bits_equal_the_typed_lambdas(ops):
    got = fock3.expected_commutator(ops)
    want = OLD_STRUCTURE[ops.sector](ops.q0_diag, ops.k_diag, ops.l_diag)
    assert list(map(float.hex, got.tolist())) == list(map(float.hex, want.tolist()))


def test_interior_mask_closed_form():
    space = FockSpace((6, 4, 9))
    occ = space.occupations
    expected = ((occ >= fock3.DEPTH) & (occ <= np.array(space.cutoffs) - fock3.DEPTH)).all(axis=1)
    for sector in ("compact", "noncompact"):
        assert np.array_equal(fock3.interior_mask(space, sector), expected)
    assert expected.sum() == 3 * 1 * 6


def test_monomial_targets_leave_box_as_minus_one():
    space = FockSpace((2, 2, 2))
    ops = fock3.realize("noncompact", space)
    target, weight = ops.raising
    top = space.occupations.max(axis=1) == 2
    assert np.all(target[top] == -1) and np.all(target[~top] >= 0)
    # lowering from the vacuum annihilates it
    assert ops.lowering[0][0] == -1
    # weight of |1,0,1> -> |2,1,2> is sqrt(2) * sqrt(1) * sqrt(2)
    i = int(space.row((1, 0, 1)))
    assert target[i] == space.row((2, 1, 2))
    assert weight[i] == (math.sqrt(2) * 1.0) * math.sqrt(2)
