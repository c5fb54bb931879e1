"""Deformed-oscillator mapping and the canonical fermion."""

from fractions import Fraction as F

import numpy as np
import pytest

from quadalg import defosc, reps
from quadalg.defosc import commutator_residuals, deform, fermion_check
from quadalg.polyalg import RationalPoly
from quadalg.reps import AlgebraLabel

from dense_oracle import rep_matrices


def test_deform_k1_l1():
    osc = deform(reps.ladder_rep(AlgebraLabel.compact(1, 1)))
    assert osc.scale_sq == 2
    assert osc.f_poly == RationalPoly([1, F(-1, 2), F(-3, 2)])
    assert max(commutator_residuals(osc).values()) == 0.0


def test_f_at_zero_is_one():
    for twok, step in [(1, 0), (1, 3), (2, 2), (3, 5), (5, 1)]:
        k = F(twok, 2)
        osc = deform(reps.ladder_rep(AlgebraLabel.compact(k, (k + step) / 2)))
        assert osc.f_poly(0) == 1


def test_scale_sq_half_quarter():
    osc = deform(reps.ladder_rep(AlgebraLabel.compact(F(1, 2), F(1, 4))))
    assert osc.scale_sq == F(1, 16)


def test_deform_rejects_noncompact():
    rep = reps.ladder_rep(AlgebraLabel.noncompact(1, F(1, 2)), 5)
    with pytest.raises(ValueError):
        deform(rep)


def test_lowest_vector_annihilated_exactly():
    for twok, step in [(1, 2), (2, 4), (4, 3)]:
        k = F(twok, 2)
        rep = reps.ladder_rep(AlgebraLabel.compact(k, (k + step) / 2))
        osc = deform(rep)
        a_mat = np.diag(osc.lowering, 1)
        assert np.array_equal(a_mat, rep_matrices(rep).qm / osc.scale)
        assert not np.any(a_mat[:, 0])


def test_commutator_contract_grid():
    # [A, A+] = F(N) to 1e-10 for every compact label with 2l-k <= 8
    for twok in range(1, 9):
        for step in range(0, 9):
            k = F(twok, 2)
            osc = deform(reps.ladder_rep(AlgebraLabel.compact(k, (k + step) / 2)))
            assert max(commutator_residuals(osc).values()) <= 1e-10


def test_fermion_check_exact():
    check = fermion_check()
    assert check.passed
    assert np.array_equal(check.commutator, np.diag([1.0, -1.0]))
    assert check.rhs_poly(0) == 1 and check.rhs_poly(1) == -1
    assert not np.any(check.f_mat @ check.f_mat)
    assert check.rhs_poly == RationalPoly([1, F(-1, 2), F(-3, 2)])
