"""Differential realizations: exact symbolic checks against the matrices."""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadalg import diffreal, reps
from quadalg.diffreal import DiffOp, DiffRealization, band_elements, build_realization
from quadalg.errors import BasisSpanError, InvalidLabelError
from quadalg.polyalg import RationalPoly
from quadalg.reps import Label

import dense_oracle as oracle
from dense_oracle import apply, commutator_apply, rising, signed_square


def _poly(*coeffs):
    return RationalPoly(coeffs)


def test_apply_basics():
    z_ddz = DiffOp(((1, _poly(0, 1)),))
    assert apply(z_ddz, _poly(0, 0, 0, 1)) == _poly(0, 0, 0, 3)     # z d/dz z^3 = 3z^3
    d2 = DiffOp(((2, _poly(1)),))
    assert apply(d2, _poly(0, 1)) == RationalPoly([])               # d^2/dz^2 z = 0


def test_su2_highest_weight_annihilation():
    real = build_realization("su2", Label("su2", j=1))
    # raising operator is -z^2 d/dz + 2z; it kills z^2
    assert apply(real.qp, _poly(0, 0, 1)) == RationalPoly([])
    assert real.qp.terms[0] == (1, _poly(0, 0, -1))
    assert real.qp.terms[1] == (0, _poly(0, 2))


def test_compactQ_q0_operator():
    real = build_realization("compactQ", Label("compact", 1, 1))
    # z d/dz + (k - l) with k = l = 1
    assert real.q0.terms == ((1, _poly(0, 1)), (0, RationalPoly([])))
    assert apply(real.q0, _poly(0, 1)) == _poly(0, 1)


def test_noncompactQ_lowering_operator():
    real = build_realization("noncompactQ", Label("noncompact", F(1, 2), F(1, 4)), size=4)
    # z^2 d^3 + 3 z d^2 + 1 d for this label
    assert real.qm.terms == ((3, _poly(0, 0, 1)), (2, _poly(0, 3)), (1, _poly(1)))


def test_order_cap():
    with pytest.raises(ValueError):
        DiffOp(((4, _poly(1)),))


def test_matrix_elements_compact_11():
    real = build_realization("compactQ", Label("compact", 1, 1))
    bands, _ = band_elements(real)
    assert bands["qp"][0] == 2                # squared element (1, 0) of sqrt(2)
    assert bands["q0"][0] == 0
    assert bands["q0"][1] == 1
    assert bands["qm"][0] == 2


def test_matrix_elements_su11_half():
    real = build_realization("su11", Label("su11", k=F(1, 2)), size=4)
    bands, _ = band_elements(real)
    assert bands["qm"][0] == 1                # element (0, 1)
    assert bands["qm"][1] == 4                # element (1, 2)


def test_span_error_on_wrong_pairing():
    good = build_realization("su2", Label("su2", j=1))
    wrong_basis = build_realization("su2", Label("su2", j=2)).basis
    with pytest.raises(BasisSpanError):
        band_elements(DiffRealization(good.q0, good.qp, good.qm, wrong_basis))
    with pytest.raises(BasisSpanError):
        oracle.matrix_elements(DiffRealization(good.q0, good.qp, good.qm, wrong_basis))


@pytest.mark.parametrize("k", [0, F(1, 3), F(-1, 2), F(1, 4)])
def test_su11_rejects_k_not_a_positive_half_integer(k):
    with pytest.raises(InvalidLabelError):
        build_realization("su11", Label("su11", k=k), size=4)


@pytest.mark.parametrize("kind, label", [
    ("su2", Label("su11", k=1)),
    ("su11", Label("su2", j=1)),
    ("compactQ", Label("noncompact", F(1, 2), F(1, 4))),
    ("noncompactQ", Label("compact", 1, 1)),
])
def test_label_of_another_sector_is_refused(kind, label):
    with pytest.raises(InvalidLabelError, match=f"^{kind} needs a {diffreal.SECTORS[kind]} label$"):
        build_realization(kind, label, size=4)


def _compact_labels(max_dim):
    for twok in range(1, 7):
        for step in range(0, max_dim):
            k = F(twok, 2)
            yield Label("compact", k, (k + step) / 2)


def _noncompact_labels():
    for twok in range(1, 7):
        for step in range(0, 4):
            k = F(twok, 2)
            yield Label("noncompact", k, (k - step) / 2)


def test_exact_equivalence_with_matrices_compact():
    for label in _compact_labels(10):
        real = build_realization("compactQ", label)
        rep = reps.ladder_rep(label)
        bands, _ = band_elements(real)
        for n in range(rep.dim):
            assert bands["q0"][n] == signed_square(rep.q0_diag[n])
        for n in range(rep.dim - 1):
            assert bands["qp"][n] == rep.qp_sq[n]
            assert bands["qm"][n] == rep.qp_sq[n]


def test_exact_equivalence_with_matrices_noncompact():
    for label in _noncompact_labels():
        real = build_realization("noncompactQ", label, size=10)
        rep = reps.ladder_rep(label, 10)
        bands, _ = band_elements(real)
        for n in range(9):
            assert bands["qp"][n] == rep.qp_sq[n]
            assert bands["qm"][n] == rep.qp_sq[n]
        for n in range(10):
            assert bands["q0"][n] == signed_square(rep.q0_diag[n])


def test_exact_equivalence_su2_su11():
    for twoj in range(0, 8):
        j = F(twoj, 2)
        label = Label("su2", j=j)
        real = build_realization("su2", label)
        rep = reps.ladder_rep(label)
        bands, _ = band_elements(real)
        for n in range(rep.dim - 1):
            assert bands["qp"][n] == rep.qp_sq[n]
        for n in range(rep.dim):
            assert bands["q0"][n] == signed_square(rep.q0_diag[n])
    for twok in range(1, 7):
        k = F(twok, 2)
        label = Label("su11", k=k)
        real = build_realization("su11", label, size=9)
        rep = reps.ladder_rep(label, 9)
        bands, _ = band_elements(real)
        for n in range(8):
            assert bands["qp"][n] == rep.qp_sq[n]


def test_boundary_annihilation_exact():
    for label in _compact_labels(6):
        real = build_realization("compactQ", label)
        top = oracle.monomial(label.dim - 1)
        assert apply(real.qp, top) == RationalPoly([])
        assert apply(real.qm, oracle.monomial(0)) == RationalPoly([])


def _apply_poly_of_op(p: RationalPoly, op: DiffOp, target: RationalPoly) -> RationalPoly:
    out = RationalPoly.zero()
    power = target
    for c in p.coeffs:
        out = out + c * power
        power = apply(op, power)
    return out


def test_commutator_reproduces_structure_poly():
    # applied symbolically to each basis monomial: [qp, qm] = f(q0), exactly
    cases = [("compactQ", Label("compact", F(3, 2), F(11, 4)), None),
             ("compactQ", Label("compact", 1, 3), None),
             ("noncompactQ", Label("noncompact", F(1, 2), F(1, 4)), 6),
             ("noncompactQ", Label("noncompact", 2, F(1, 2)), 6),
             ("su2", Label("su2", j=F(5, 2)), None),
             ("su11", Label("su11", k=F(3, 2)), 6)]
    for kind, label, size in cases:
        real = build_realization(kind, label, size)
        f = reps.structure_poly(real.basis.label)
        for n in range(min(real.basis.size, 6)):
            mono = oracle.monomial(n)
            lhs = commutator_apply(real.qp, real.qm, mono)
            rhs = _apply_poly_of_op(f, real.q0, mono)
            assert lhs == rhs, (kind, label, n)


def _eigenfunction_poly(label: Label, alpha: F, order: int) -> RationalPoly:
    """Truncated series sum_n alpha^n z^n / (n! (2k)_n (k-2l+1)_n), exact."""
    k = label.k
    s = label.step
    coeffs = [alpha ** n / (F(1) * _fact(n) * rising(2 * k, n) * rising(s + 1, n))
              for n in range(order + 1)]
    return RationalPoly(coeffs)


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


@pytest.mark.parametrize("label", [Label("noncompact", F(1, 2), F(1, 4)),
                                   Label("noncompact", F(3, 2), F(1, 4)),
                                   Label("noncompact", 2, 1)])
def test_lowering_eigenfunction_series(label):
    # the truncated eigenfunction series of the lowering operator reproduces
    # itself one order lower: qm Psi_M = alpha * Psi_(M-1), exactly
    real = build_realization("noncompactQ", label, size=12)
    alpha = F(3, 7)
    lhs = apply(real.qm, _eigenfunction_poly(label, alpha, 9))
    rhs = alpha * _eigenfunction_poly(label, alpha, 8)
    assert lhs == rhs


@st.composite
def _realizations(draw):
    """A realization of any kind, with a random label and a basis of 1..32 functions."""
    kind = draw(st.sampled_from(["su2", "su11", "compactQ", "noncompactQ"]))
    size = draw(st.integers(1, 32))
    k = F(draw(st.integers(1, 8)), 2)
    if kind == "su2":
        return build_realization(kind, Label("su2", j=F(size - 1, 2)))
    if kind == "su11":
        return build_realization(kind, Label("su11", k=k), size)
    if kind == "compactQ":
        return build_realization(kind, Label("compact", k, (k + size - 1) / 2))
    step = draw(st.integers(0, 8))
    return build_realization(kind, Label("noncompact", k, (k - step) / 2), size)


@settings(max_examples=60, deadline=None)
@given(_realizations())
def test_band_elements_match_dense_oracle(real):
    size = real.basis.size
    tables = oracle.matrix_elements(real)
    bands, clean = band_elements(real)
    assert clean
    for name, offset in (("q0", 0), ("qp", 1), ("qm", -1)):
        band = [tables[name][n + offset][n] for n in range(size) if 0 <= n + offset < size]
        assert bands[name] == tuple(band), name
        assert all(tables[name][m][n] == 0
                   for m in range(size) for n in range(size) if m != n + offset), name
    norms = oracle.squared_norms(real.basis)
    assert real.basis.norm_ratios == tuple(norms[n + 1] / norms[n] for n in range(size - 1))


@st.composite
def _any_realizations(draw):
    """A realization of any kind at a basis of 1..150 functions; in about half of them
    one generator carries an extra random term, which may leave the band or the span."""
    kind = draw(st.sampled_from(["su2", "su11", "compactQ", "noncompactQ"]))
    size = draw(st.integers(1, 150))
    k = F(draw(st.integers(1, 12)), 2)
    if kind == "su2":
        real = build_realization(kind, Label("su2", j=F(size - 1, 2)))
    elif kind == "su11":
        real = build_realization(kind, Label("su11", k=k), size)
    elif kind == "compactQ":
        real = build_realization(kind, Label("compact", k, (k + size - 1) / 2))
    else:
        step = draw(st.integers(0, 12))
        real = build_realization(kind, Label("noncompact", k, (k - step) / 2), size)
    if draw(st.booleans()):
        name = draw(st.sampled_from(["q0", "qp", "qm"]))
        coeffs = draw(st.lists(st.fractions(-5, 5, max_denominator=12), min_size=1, max_size=3))
        term = (draw(st.integers(0, diffreal.MAX_ORDER)), RationalPoly(coeffs))
        real = dataclasses.replace(real, **{name: DiffOp(getattr(real, name).terms + (term,))})
    return real


def _bands_or_span_error(routine, real):
    try:
        return routine(real)
    except BasisSpanError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(_any_realizations())
def test_integer_band_elements_equal_the_fraction_routine(real):
    # the same bands, the same off-band verdict, or the same span error
    assert (_bands_or_span_error(band_elements, real)
            == _bands_or_span_error(oracle.band_elements, real))
