"""Exact checks of the polynomial layer and the Casimir recipe."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadalg import reps
from quadalg.errors import InvalidLabelError
from quadalg.polyalg import (CASIMIR_CONVENTION, Rat, RationalPoly, as_fraction,
                             discrete_antiderivative)

from dense_oracle import casimir_matrix, derivative, eval_matrix, rep_matrices, two_dim_family


# The structure polynomials as the package typed them once per algebra, before
# they became the rows of ``reps.ALGEBRAS``: the reference for ``structure_poly``.


def su2_structure() -> RationalPoly:
    """[raising, lowering] = 2*diagonal."""
    return RationalPoly([0, 2])


def su11_structure() -> RationalPoly:
    """[raising, lowering] = -2*diagonal."""
    return RationalPoly([0, -2])


def compact_structure(k: Rat, l: Rat) -> RationalPoly:
    """3x^2 + (2l-1)x + (k(1-k) - l(l+1)) for the compact three-mode algebra."""
    k, l = as_fraction(k), as_fraction(l)
    kk = k * (1 - k)
    return RationalPoly([kk - l * (l + 1), 2 * l - 1, 3])


def noncompact_structure(k: Rat, l: Rat) -> RationalPoly:
    """-3x^2 - (2l+1)x - (k(1-k) - l(l-1)) for the noncompact three-mode algebra."""
    k, l = as_fraction(k), as_fraction(l)
    kk = k * (1 - k)
    return RationalPoly([-(kk - l * (l - 1)), -(2 * l + 1), -3])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(-60, 60), st.integers(0, 40))
def test_structure_poly_equals_the_typed_polynomials(twok, fourl, twoj):
    k, l = F(twok, 2), F(fourl, 4)
    assert reps.structure_poly(reps.Su2Label(F(twoj, 2))) == su2_structure()
    assert reps.structure_poly(reps.Su11Label(k)) == su11_structure()
    for sector, typed in (("compact", compact_structure), ("noncompact", noncompact_structure)):
        try:
            label = reps.AlgebraLabel(k, l, sector)
        except InvalidLabelError:
            continue
        assert reps.structure_poly(label) == typed(k, l)


def test_normalization_strips_trailing_zeros():
    p = RationalPoly([1, 2, 0, 0])
    assert p.coeffs == (F(1), F(2))
    assert RationalPoly([0, 0]).degree == -1


def test_shift_and_derivative():
    p = RationalPoly([0, 0, 1])           # x^2
    assert p.shift(1) == RationalPoly([1, 2, 1])
    assert derivative(p) == RationalPoly([0, 2])
    assert p(F(3, 2)) == F(9, 4)


def test_antiderivative_of_2x():
    g = discrete_antiderivative(RationalPoly([0, 2]))
    assert g == RationalPoly([0, 1, 1])        # x^2 + x
    assert g(F(-1)) == 0
    assert CASIMIR_CONVENTION == "g(-1) = 0"


def test_antiderivative_of_zero():
    g = discrete_antiderivative(RationalPoly([]))
    assert g == RationalPoly([])


def test_antiderivative_compact_structure_closed_form():
    # for the compact structure polynomial the antiderivative must be
    # (x+1)^3 + (l-2)(x+1)^2 + (K - l^2 - 2l + 1)(x+1) with K = k(1-k)
    for k, l in [(F(1), F(1)), (F(1, 2), F(5, 4)), (F(3, 2), F(9, 4)), (F(2), F(3))]:
        kk = k * (1 - k)
        g = discrete_antiderivative(compact_structure(k, l))
        u = RationalPoly([1, 1])  # x + 1
        expected = u * u * u + (l - 2) * (u * u) + (kk - l * l - 2 * l + 1) * u
        assert g == expected


def test_antiderivative_su11():
    # -2x integrates to -(x^2 + x), matching raising@lowering - d(d-1) form
    g = discrete_antiderivative(su11_structure())
    assert g == RationalPoly([0, -1, -1])


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=0, max_size=9), st.lists(rationals, min_size=20, max_size=20))
def test_antiderivative_property(coeffs, xs):
    f = RationalPoly(coeffs)
    g = discrete_antiderivative(f)
    # symbolic identity and 20 random rational sample points, both exact
    assert g - g.shift(-1) == f
    for x in xs:
        assert g(x) - g(x - 1) == f(x)
    assert g(F(-1)) == 0


def test_casimir_matrix_su2_half():
    rep = reps.ladder_rep(reps.Su2Label(F(1, 2)))
    g = discrete_antiderivative(su2_structure())
    c = casimir_matrix(rep_matrices(rep), g)
    assert np.array_equal(c, 0.75 * np.eye(2))
    rc = reps.casimir_value(rep)
    assert rc.value == 0.75 and rc.max_deviation == 0.0


def test_casimir_matrix_compact_11_is_zero():
    rep = reps.ladder_rep(reps.AlgebraLabel.compact(1, 1))
    g = discrete_antiderivative(compact_structure(F(1), F(1)))
    c = casimir_matrix(rep_matrices(rep), g)
    assert np.abs(c).max() < 1e-12
    rc = reps.casimir_value(rep)
    assert abs(rc.value) < 1e-12 and rc.max_deviation < 1e-12
    # closed form l^3 + (l+1)[k(1-k)-1] + 1 = 1 + 2*(0-1) + 1 = 0
    assert reps.reference_casimir(rep.label) == 0


def test_casimir_matrix_two_dim_family_k1():
    rep = two_dim_family(1)
    c = casimir_matrix(rep_matrices(rep), reps.casimir_poly(rep.label))
    assert np.abs(c).max() < 1e-12
    rc = reps.casimir_value(rep)
    assert abs(rc.value) < 1e-12 and rc.max_deviation < 1e-12
    assert F(-3 - 5 + 11 - 3, 8) == 0


def test_casimir_matrix_rejects_mismatched_shapes():
    # the dense oracle must not broadcast matrices of different sizes
    rep = reps.ladder_rep(reps.Su2Label(1))
    m = rep_matrices(rep)

    class Broken:
        q0 = m.q0
        qp = m.qp[:2, :2]
        qm = m.qm

    with pytest.raises(ValueError):
        casimir_matrix(Broken(), reps.casimir_poly(rep.label))


@pytest.mark.parametrize("rep", [
    reps.ladder_rep(reps.Su2Label(F(3, 2))),
    reps.ladder_rep(reps.Su11Label(F(1, 2)), 8),
    reps.ladder_rep(reps.AlgebraLabel.compact(F(3, 2), F(9, 4))),
    reps.ladder_rep(reps.AlgebraLabel.noncompact(F(3, 2), F(1, 4)), 9),
])
def test_both_casimir_forms_agree(rep):
    # lowering@raising + g(q0) must equal raising@lowering + g(q0 - 1)
    g = reps.casimir_poly(rep.label)
    d = rep.dim
    m = rep_matrices(rep)
    lhs = m.qm @ m.qp + eval_matrix(g, m.q0)
    rhs = m.qp @ m.qm + eval_matrix(g, m.q0 - np.eye(d))
    mask = rep.interior
    assert np.abs((lhs - rhs)[np.ix_(mask, mask)]).max() < 1e-10
