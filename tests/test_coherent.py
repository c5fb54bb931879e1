"""Hypergeometric series and coherent-state families."""

import json
import math
import sys
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

from quadalg import reps
from quadalg.cli import main
from quadalg.coherent import bg_state, perelomov_compact, perelomov_noncompact
from quadalg.errors import SeriesConvergenceError, TruncationError
from quadalg.reps import Label
from quadalg import special
from quadalg.special import confluent_neg, hyp0f2, hyp1f1, hyp2f0

from dense_oracle import compact_norm_sq_formula, rep_matrices

mp.mp.dps = 40


def test_series_validation():
    with pytest.raises(ValueError):
        hyp1f1(1.0, 0.0, 0.5)                         # pole, no termination
    with pytest.raises(ValueError):
        hyp0f2(1.0, -2.0, 0.5)
    hyp1f1(-2.0, -3.0, 0.5)                           # terminates before the pole


def test_hypergeom_trivial_values():
    assert hyp0f2(1, 1, 0.0).value == 1.0
    for a, b in [(1.0, 2.0), (0.5, 3.5), (7.0, 0.25)]:
        assert hyp1f1(a, b, 0.0).value == 1.0


def test_hypergeom_1f1_exponential_identity():
    # 1F1(1;2;x) = (e^x - 1)/x
    res = hyp1f1(1, 2, 1.0)
    assert res.converged
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-14)
    assert confluent_neg(1.0, 2.0, 3.0) == pytest.approx((math.exp(-3) - 1) / -3, rel=1e-13)


def test_hypergeom_refuses_negative_nonterminating_1f1():
    with pytest.raises(ValueError, match="confluent_neg"):
        hyp1f1(1, 2, -3.0)
    # a terminating 1F1 is a polynomial and is summed at any argument
    assert hyp1f1(-2, 1, -1.0).value == pytest.approx(1 + 2 + 0.5, rel=1e-15)


@pytest.mark.parametrize("b1,b2", [(1.0, 1.0), (2.0, 0.5), (3.0, 4.0), (1.5, 2.5)])
@pytest.mark.parametrize("x", [0.1, 1.0, 9.0, 25.0])
def test_0f2_against_mpmath(b1, b2, x):
    got = hyp0f2(b1, b2, x)
    ref = float(mp.hyper([], [b1, b2], x))
    assert got.converged
    assert got.value == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("a,b", [(0.5, 1.5), (2.0, 5.0), (3.5, 1.25), (6.0, 2.0)])
@pytest.mark.parametrize("x", [2.5, -2.5, 20.0, -20.0, -60.0])
def test_1f1_against_mpmath(a, b, x):
    got = hyp1f1(a, b, x).value if x > 0 else confluent_neg(a, b, -x)
    ref = float(mp.hyp1f1(a, b, x))
    assert got == pytest.approx(ref, rel=1e-12)


def test_terminating_1f1_is_polynomial():
    # first parameter a non-positive integer: exactly s+1 terms
    for s in range(0, 7):
        for twok in (1, 2, 3, 5):
            res = hyp1f1(-float(s), 1.0 - s - twok, 0.9)
            assert res.converged
            assert res.terms == s + 1


def test_series_cap_raises(monkeypatch):
    monkeypatch.setattr(special, "MAX_TERMS", 4)
    with pytest.raises(SeriesConvergenceError):
        hyp0f2(1, 1, 30.0)


def test_2f0_requires_order():
    with pytest.raises(ValueError):
        hyp2f0(1, 1, 0.5, 0)


def test_2f0_terminating_polynomial():
    # (-2)_m terminates after 3 terms: 1 - 2x + 2x^2... wait: check signs below
    res = hyp2f0(-2, 1, 0.25, 10)
    expected = 1 - 2 * 0.25 + 2 * 0.25 ** 2
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-15)


def test_2f0_terminating_sums_every_term():
    # the terms of 2F0(-5, 22; 1/81) grow after the first, but the series is a
    # six-term polynomial and its optimal truncation is the full sum
    term = exact = F(1)
    for m in range(5):
        term *= F(-5 + m) * (22 + m) / (81 * (m + 1))
        exact += term
    res = hyp2f0(-5, 22, 1 / 81, 500)
    assert res.converged and res.terms == 6
    assert res.value == pytest.approx(float(exact), rel=1e-14)


def test_2f0_optimal_truncation_metadata():
    res = hyp2f0(1, 1, 0.09, 40)
    assert not res.converged
    assert res.smallest_term_index is not None and res.smallest_term_index >= 1
    assert res.error_estimate is not None and res.error_estimate > 0
    # smallest-term index matches an independent scan of the term magnitudes
    terms = [1.0]
    for m in range(40):
        terms.append(terms[-1] * (1 + m) * (1 + m) * 0.09 / (m + 1))
    import numpy as _np
    assert res.smallest_term_index == int(_np.argmin(terms[:res.terms]))


def test_2f0_alternating_direction_matches_borel_value():
    # on the alternating side the asymptotic sum has a well-defined value
    # reachable through the confluent function of the second kind
    for y in (0.09, 0.05):
        res = hyp2f0(1, 1, -y, 60)
        ref = float(mp.hyperu(1, 1, 1 / y)) / y
        assert abs(res.value - ref) <= res.error_estimate


def test_bg_state_alpha_zero():
    label = Label("noncompact", F(1, 2), F(1, 4))
    state = bg_state(label, 0.0)
    assert state.truncation == 1
    assert state.coeffs[0] == 1.0
    assert state.norm == pytest.approx(1.0, abs=1e-15)


def test_bg_state_cube_factorial_coefficients():
    label = Label("noncompact", F(1, 2), F(1, 4))
    state = bg_state(label, 1.0)
    f = float(mp.hyper([], [1, 1], 1.0))
    assert state.norm_constant == pytest.approx(f ** -0.5, rel=1e-13)
    for n in range(6):
        expected = state.norm_constant / math.factorial(n) ** 1.5
        assert state.coeffs[n].real == pytest.approx(expected, rel=1e-12)
    assert state.norm == pytest.approx(1.0, abs=1e-12)
    assert not state.divergence_flag


@pytest.mark.parametrize("k,l", [(F(1, 2), F(1, 4)), (1, F(1, 2)), (F(3, 2), F(1, 4))])
@pytest.mark.parametrize("alpha", [0.5, 1 + 1j, 3.0])
def test_bg_eigen_residual(k, l, alpha):
    label = Label("noncompact", k, l)
    state = bg_state(label, alpha)
    rep = reps.ladder_rep(label, state.truncation)
    resid = np.linalg.norm(rep_matrices(rep).qm @ state.coeffs - alpha * state.coeffs) / abs(alpha)
    assert resid <= 1e-8


def test_bg_residual_decreases_with_dim():
    label = Label("noncompact", F(1, 2), F(1, 4))
    alpha = 2.0
    resids = []
    for dim in range(6, 26, 2):
        state = bg_state(label, alpha, dim=dim, tail_rel=1.0)
        qm = rep_matrices(reps.ladder_rep(label, dim)).qm
        resids.append(np.linalg.norm(qm @ state.coeffs - alpha * state.coeffs) / alpha)
    above_noise = [r for r in resids if r > 1e-13]
    assert all(a > b for a, b in zip(above_noise, above_noise[1:]))
    assert resids[-1] < 1e-10


def test_bg_truncation_guard():
    label = Label("noncompact", F(1, 2), F(1, 4))
    with pytest.raises(TruncationError):
        bg_state(label, 3.0, dim=4)


def bg_overlap_series(label: Label, alpha: complex, alpha2: complex) -> complex:
    """Overlap of two lowering-eigenstates via the gamma-form series.

    <alpha|alpha2> = 0F2(conj(alpha)*alpha2) / sqrt(0F2(|alpha|^2) *
    0F2(|alpha2|^2)); an independent route to the coefficient dot product.
    """
    k = float(label.k)
    s = label.step
    num = hyp0f2(2 * k, s + 1, complex(alpha).conjugate() * complex(alpha2)).value
    d1 = hyp0f2(2 * k, s + 1, abs(alpha) ** 2).value
    d2 = hyp0f2(2 * k, s + 1, abs(alpha2) ** 2).value
    return num / math.sqrt(d1 * d2)


def test_bg_overlap_two_routes():
    label = Label("noncompact", 1, F(1, 2))
    for a1, a2 in [(0.5, 1.5), (1 + 1j, 0.5 - 0.25j), (2.0, 2.0)]:
        s1 = bg_state(label, a1)
        s2 = bg_state(label, a2)
        dim = max(s1.truncation, s2.truncation)
        c1 = np.pad(s1.coeffs, (0, dim - s1.truncation))
        c2 = np.pad(s2.coeffs, (0, dim - s2.truncation))
        direct = np.vdot(c1, c2)
        series = bg_overlap_series(label, a1, a2)
        assert direct == pytest.approx(series, rel=1e-9, abs=1e-12)


def test_perelomov_noncompact_basics():
    label = Label("noncompact", F(1, 2), F(1, 4))
    zero = perelomov_noncompact(label, 0.0, 6)
    assert zero.coeffs[0] == 1.0 and not np.any(zero.coeffs[1:])
    assert not zero.divergence_flag

    beta = 0.3
    state = perelomov_noncompact(label, beta, 10)
    assert state.divergence_flag
    assert state.norm == pytest.approx(1.0, abs=1e-12)
    # coefficient growth ratio beta * sqrt(n+1) for this label
    for n in range(8):
        ratio = state.coeffs[n + 1] / state.coeffs[n]
        assert ratio == pytest.approx(beta * math.sqrt(n + 1), rel=1e-12)
    assert state.provenance["series"] == "2F0-truncated"
    assert state.provenance["order"] == 10


def test_perelomov_compact_single_state():
    label = Label("compact", F(1, 2), F(1, 4))
    for alpha in (0.0, 2.5, 1 - 2j):
        state = perelomov_compact(label, alpha)
        assert state.truncation == 1
        assert abs(state.coeffs[0]) == pytest.approx(1.0, abs=1e-15)


def test_perelomov_compact_ratio_k1_l1():
    label = Label("compact", 1, 1)
    alpha = 0.7
    state = perelomov_compact(label, alpha)
    assert state.truncation == 2
    assert state.coeffs[1] / state.coeffs[0] == pytest.approx(math.sqrt(2) * alpha, rel=1e-14)


def _compact_labels():
    for twok in range(1, 7):
        for step in range(0, 7):
            k = F(twok, 2)
            yield Label("compact", k, (k + step) / 2)


def test_perelomov_compact_gamma_norm_formula():
    # closed confluent form of the squared norm against the explicit sum
    for label in _compact_labels():
        s = label.step
        k = float(label.k)
        for gamma in (0.6, 1.0, 2.3):
            formula, phi = compact_norm_sq_formula(label, gamma)
            assert phi.terms == s + 1              # terminating polynomial
            direct = 0.0
            c = gamma ** (-s) * math.sqrt(
                math.exp(math.lgamma(s + 2 * k) - math.lgamma(2 * k)))
            for n in range(s + 1):
                direct += c * c
                if n < s:
                    c = c * gamma * math.sqrt((s - n) / ((n + 1) * (s + 2 * k - 1 - n)))
            assert formula == pytest.approx(direct, rel=1e-10)


def test_perelomov_compact_unit_norm():
    for label in _compact_labels():
        for form, par in (("alpha", 0.8), ("alpha", 1.7 + 0.4j),
                          ("gamma", 0.9), ("gamma", 1.25 - 1j)):
            state = perelomov_compact(label, par, form=form)
            assert abs(state.norm - 1.0) <= 1e-12, (label, form, par)


def test_perelomov_compact_gamma_rejects_zero():
    with pytest.raises(ValueError):
        perelomov_compact(Label("compact", 1, 1), 0.0, form="gamma")


def test_gamma_and_alpha_forms_are_reversals():
    # with gamma = 1/alpha the two coefficient vectors agree up to reversal
    # and a global phase/modulus
    label = Label("compact", F(3, 2), F(9, 4))
    alpha = 0.8
    sa = perelomov_compact(label, alpha, form="alpha")
    sg = perelomov_compact(label, 1 / alpha, form="gamma")
    np.testing.assert_allclose(np.abs(sg.coeffs), np.abs(sa.coeffs[::-1]), rtol=1e-12)


def test_coefficients_csv(capsys):
    label = Label("noncompact", F(1, 2), F(1, 4))
    state = bg_state(label, 0.5j, dim=6)
    code = main(["coherent", "--family=bg", "--k=1/2", "--l=1/4", "--param=0.5j", "--dim=6",
                 "--format=csv"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert lines[0] == "n,re,im,abs2"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[3]) == pytest.approx(abs(state.coeffs[0]) ** 2)


# ---------------------------------------------------------------------------
# The walk against the closed forms it replaced, at 50 digits


def _closed_form(family: str, label: Label, z: complex, dim: int):
    """Unnormalised coefficients and squared norm from the closed forms the library
    once normalised by: 0F2 for the eigenstates, the 2F0 partial sum for the
    noncompact orbit states, the terminating 2F0 (alpha form) and the 1F1 formula
    of ``compact_norm_sq_formula`` (gamma form) for the compact ones."""
    k, s = mp.mpf(label.k.numerator) / label.k.denominator, label.step
    z = mp.mpc(z)
    if family == "bg":
        c = [z ** n / mp.sqrt(mp.factorial(n) * mp.rf(2 * k, n) * mp.rf(s + 1, n))
             for n in range(dim)]
        return c, mp.hyper([], [2 * k, s + 1], abs(z) ** 2)
    if family == "nc":
        c = [z ** n * mp.sqrt(mp.rf(2 * k, n) * mp.rf(s + 1, n) / mp.factorial(n))
             for n in range(dim)]
        return c, mp.fsum(mp.rf(2 * k, n) * mp.rf(s + 1, n) * abs(z) ** (2 * n) / mp.factorial(n)
                          for n in range(dim))
    binom = [mp.binomial(s, n) for n in range(s + 1)]
    if family == "alpha":
        c = [z ** n * mp.sqrt(mp.rf(2 * k, n) * binom[n]) for n in range(s + 1)]
        return c, mp.hyp2f0(2 * k, -s, -abs(z) ** 2)
    c = [z ** (n - s) * mp.sqrt(mp.rf(2 * k, s - n) * binom[n]) for n in range(s + 1)]
    x = abs(z) ** 2
    return c, x ** (-s) * mp.rf(2 * k, s) * mp.hyp1f1(-s, 1 - s - 2 * k, x)


def _build(family, label, z, dim):
    if family == "bg":
        return bg_state(label, z)
    if family == "nc":
        return perelomov_noncompact(label, z, dim)
    return perelomov_compact(label, z, form=family)


WALK_GRID = [
    ("bg", Label("noncompact", F(1, 2), F(1, 4)), z, None) for z in (0.3, 2 - 1j, 40j, 300)
] + [
    ("bg", Label("noncompact", F(5, 2), F(-3, 4)), z, None) for z in (1 + 1j, 25)
] + [
    ("nc", Label("noncompact", k, l), z, d)
    for k, l in ((F(1, 2), F(1, 4)), (F(3, 2), F(-1, 4)))
    for z, d in ((0.4 + 0.2j, 24), (0.05j, 300), (0.9, 600))
] + [
    (form, Label("compact", k, l), z, None)
    for form in ("alpha", "gamma")
    for k, l in ((F(1, 2), F(9, 4)), (F(3, 2), F(17, 4)), (1, F(202, 4)), (F(1, 2), F(801, 4)))
    for z in (0.3 - 0.5j, 2 + 1j, 1e-5)
]


@pytest.mark.parametrize("family, label, z, dim", WALK_GRID)
def test_walk_matches_closed_forms(family, label, z, dim):
    with mp.workdps(50):
        state = _build(family, label, z, dim)
        c, norm_sq = _closed_form(family, label, z, state.truncation)
        if family == "gamma" and label.step < 20:  # the float formula the library once used
            assert compact_norm_sq_formula(label, abs(z))[0] == pytest.approx(float(norm_sq),
                                                                              rel=1e-12)
        log_norm_sq = mp.log(norm_sq)
        const = 1 / mp.sqrt(norm_sq)
        # the eigenstate's truncation drops a tail below 1e-26 of the 0F2
        log_err = abs(state.provenance["log_norm_sq"] - log_norm_sq)
        assert log_err <= 1e-13 * max(1, abs(log_norm_sq))
        if const >= sys.float_info.min:
            assert state.norm_constant == pytest.approx(float(const), rel=1e-13)
        else:
            assert state.norm_constant is None
        worst = max(abs(mp.mpc(got) - want * const) for got, want in zip(state.coeffs, c))
        assert worst <= 1e-13
    assert state.provenance["terms"] == state.truncation == len(c)


PROBES = {
    # argv: norm_constant (None where it is no normal double) and log_norm_sq, from mpmath
    "--family=bg --k=1/2 --l=1/4 --param=1e4": "bg",
    "--family=perelomov-c --k=1/2 --l=401/4 --param=0.5 --gamma-form": "gamma",
    "--family=perelomov-nc --k=1/2 --l=1/4 --param=0.9 --dim=4000": "nc",
    "--family=perelomov-nc --k=1/2 --l=1/4 --param=0.5 --dim=400": "nc",
    "--family=perelomov-c --k=1/2 --l=801/4 --param=0.5": "alpha",
    "--family=perelomov-c --k=3/2 --l=7/4 --param=1e-300 --gamma-form": "gamma",
}


@pytest.mark.parametrize("argv", list(PROBES))
def test_norms_past_the_doubles(capsys, argv):
    # each of these once exited 3 (an overflow, a non-finite norm or a ZeroDivisionError)
    opts = dict(a[2:].split("=") for a in argv.split() if "=" in a)
    label = Label("compact" if opts["family"] == "perelomov-c" else "noncompact",
                  F(opts["k"]), F(opts["l"]))
    code = main(["coherent", *argv.split()])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    with mp.workdps(50):
        norm_sq = _closed_form(PROBES[argv], label, float(opts["param"]), doc["dim"])[1]
        const = 1 / mp.sqrt(norm_sq)
        log_norm_sq = mp.log(norm_sq)
    assert doc["provenance"]["log_norm_sq"] == pytest.approx(float(log_norm_sq), rel=1e-12)
    if const >= sys.float_info.min:
        assert doc["norm_constant"] == pytest.approx(float(const), rel=1e-12)
    else:
        assert doc["norm_constant"] is None
    assert doc["unit_norm_error"] <= 1e-12
