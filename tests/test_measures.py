"""Moment targets, the stable confluent evaluator, and measure verification."""

import json
import math
import sys
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from quadalg import measures
from quadalg.coherent import bg_state, perelomov_noncompact
from quadalg.measures import (
    QuadratureSpec,
    bg_moment_targets,
    kummer_integral_analytic,
    kummer_integral_check,
    perelomov_moment_targets,
    verify_compact_resolution,
)
from quadalg.reps import Label
from quadalg.special import _sum_2f0, confluent_neg, is_nonpos_int, termination_index

from dense_oracle import rising

mp.mp.dps = 40

TWO_PI = 2 * math.pi


def test_rising_factorial():
    assert rising(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
    assert rising(5, 0) == 1


def test_bg_moment_examples():
    lab = Label("noncompact", F(1, 2), F(1, 4))
    assert bg_moment_targets(lab, 0)[-1].value == pytest.approx(1 / TWO_PI, rel=1e-15)
    # at this label both gamma ratios collapse to n!
    assert bg_moment_targets(lab, 1)[-1].value == pytest.approx(1 / TWO_PI, rel=1e-14)
    lab2 = Label("noncompact", 1, F(1, 2))
    # 2! * Gamma(4)/Gamma(2) * Gamma(3)/Gamma(1) over 2*pi
    assert bg_moment_targets(lab2, 2)[-1].value == pytest.approx(2 * 6 * 2 / TWO_PI, rel=1e-13)


def test_bg_moment_ratio_identity_exact():
    for lab in [Label("noncompact", F(1, 2), F(1, 4)),
                Label("noncompact", F(3, 2), F(1, 4)),
                Label("noncompact", 3, F(1, 2))]:
        for n in range(21):
            t = bg_moment_targets(lab, n)[-1]
            expected = (F(math.factorial(n))
                        * rising(2 * lab.k, n) * rising(lab.step + 1, n))
            assert t.ratio_to_first == expected
            assert t.value / bg_moment_targets(lab, 0)[-1].value == pytest.approx(
                float(expected), rel=1e-11)


def test_perelomov_moment_ratio_identity_exact():
    for lab in [Label("noncompact", F(1, 2), F(1, 4)),
                Label("noncompact", F(5, 2), F(3, 4)),
                Label("noncompact", 3, F(1, 2))]:
        for t in perelomov_moment_targets(lab, 30):
            n = t.n
            assert t.ratio_to_first == (F(math.factorial(n))
                                        / (rising(2 * lab.k, n) * rising(lab.step + 1, n)))


def test_bg_moment_matches_coefficient_growth():
    # target(n)/target(0) is the reciprocal squared coefficient at unit parameter
    lab = Label("noncompact", F(1, 2), F(1, 4))
    state = bg_state(lab, 1.0)
    for n in range(8):
        ratio = abs(state.coeffs[0] / state.coeffs[n]) ** 2
        assert ratio == pytest.approx(float(bg_moment_targets(lab, n)[-1].ratio_to_first), rel=1e-11)


def test_perelomov_moment_matches_coefficient_growth():
    # target(n)/target(0) is the reciprocal squared coefficient at unit parameter,
    # |c_n / c_0|^2 = (2k)_n (s+1)_n / n!
    for lab in [Label("noncompact", F(1, 2), F(1, 4)),
                Label("noncompact", F(3, 2), F(3, 4)),
                Label("noncompact", F(5, 2), F(1, 4))]:
        state = perelomov_noncompact(lab, 1.0, 16)
        first = perelomov_moment_targets(lab, 0)[-1].value
        for n in range(12):
            t = perelomov_moment_targets(lab, n)[-1]
            assert abs(state.coeffs[0] / state.coeffs[n]) ** 2 == pytest.approx(
                float(t.ratio_to_first), rel=1e-11)
            assert t.value / first == pytest.approx(float(t.ratio_to_first), rel=1e-11)


def test_perelomov_moment_examples():
    lab = Label("noncompact", F(1, 2), F(1, 4))
    assert perelomov_moment_targets(lab, 0)[-1].value == pytest.approx(1 / math.pi, rel=1e-15)
    assert perelomov_moment_targets(lab, 1)[-1].value == pytest.approx(1 / math.pi, rel=1e-14)
    for lab in [Label("noncompact", F(3, 2), F(3, 4)), Label("noncompact", 2, 1)]:
        values = [perelomov_moment_targets(lab, n)[-1].value for n in range(8)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_moment_targets_are_positive():
    lab = Label("noncompact", 2, F(1, 2))
    for n in range(12):
        assert bg_moment_targets(lab, n)[-1].value > 0
        assert perelomov_moment_targets(lab, n)[-1].value > 0


@pytest.mark.parametrize("a,c", [(2.0, 3.0), (5.0, 5.5), (10.0, 17.0), (4.0, 4.0),
                                 (3.0, 1.5), (6.0, 2.25)])
@pytest.mark.parametrize("x", [0.0, 0.7, 19.0, 79.0, 81.0, 300.0, 1e6, 1e11])
def test_confluent_neg_against_mpmath(a, c, x):
    got = confluent_neg(a, c, x)
    ref = float(mp.hyp1f1(a, c, -x))
    if ref == 0.0:
        assert got == pytest.approx(0.0, abs=1e-300)
    else:
        assert got == pytest.approx(ref, rel=5e-13)


@pytest.mark.parametrize("a", range(1, 26))
def test_confluent_neg_integer_grid_against_mpmath(a):
    # c - a = 0 is a polynomial; 1..10 make the asymptotic 2F0(a, a-c+1; 1/x) terminate
    worst = 0.0
    for c in range(a, a + 11):
        for x in (0, 0.7, 5, 19, 40, 79, 80, 80.5, 81, 85, 90, 100, 150, 300, 1000):
            got = confluent_neg(float(a), float(c), float(x))
            ref = mp.hyp1f1(a, c, -x)
            if float(ref) == 0.0:   # e^(-1000) underflows
                assert got == 0.0
                continue
            worst = max(worst, float(abs((got - ref) / ref)))
    assert worst <= 1e-12


# The evaluator as it was before its asymptotic 2F0 stopped at the first term
# that cannot move the sum: the reference for the exactness test below.
_REF_ASYMPTOTIC_SWITCH = 80.0


def _ref_sum_2f0(a, b, x, order, stop):
    term = total = best = 1.0
    best_m = m = 0
    last = order if stop is None or stop > order else stop
    while m + 1 < last:
        nxt = term * (a + m) * (b + m) * x / (m + 1)
        if stop is None and abs(nxt) >= best:
            # terms started growing: optimal truncation reached
            return total, m + 1, False, best_m, abs(nxt)
        term = nxt
        total = total + term
        m += 1
        if abs(term) < best:
            best, best_m = abs(term), m
    if m + 1 == stop:
        return total, m + 1, True, best_m, 0.0
    return total, m + 1, False, best_m, abs(term * (a + m) * (b + m) * x / (m + 1))


def _ref_confluent_neg(a, c, x):
    if x < 0:
        raise ValueError("confluent_neg expects x >= 0")
    p = c - a
    terminating = is_nonpos_int(p)
    if not terminating and x > _REF_ASYMPTOTIC_SWITCH:
        # math.gamma keeps the sign of Gamma(c-a) for negative non-integer c-a
        lead = math.exp(math.lgamma(c) - a * math.log(x)) / math.gamma(p)
        b = a - c + 1
        return lead * _ref_sum_2f0(a, b, 1.0 / x, 501, termination_index((a, b)))[0]
    if x >= 745.0:
        return 0.0  # e^(-x) underflows
    term = tot = 1.0
    steps = -round(p) if terminating else 100000
    m = 0
    while m < steps:
        term *= (p + m) * x / ((c + m) * (m + 1))
        tot += term
        if abs(term) < 1e-16 * abs(tot):
            break
        m += 1
    return math.exp(-x) * tot


def _asymptotic_2f0_settles(a, c, x):
    """Whether the 2F0 of the x > 80 branch terminates or reaches a term below ulp(sum)/4."""
    b = a - c + 1
    total, _, exact, _, omitted = _sum_2f0(a, b, 1.0 / x, 501, termination_index((a, b)),
                                           value_only=True)
    return exact or omitted < 0.25 * math.ulp(total)


@settings(max_examples=1500, deadline=None)
@given(a=st.floats(0.5, 25.0, exclude_min=True), c=st.floats(0.5, 30.0, exclude_min=True),
       x=st.floats(0.0, 1e6) | st.floats(80.0, 2000.0))
@example(a=7.5, c=3.2, x=164.2)       # kummer --a 7.5 --b 2.5 --c 3.2: non-integer c - a < 0
@example(a=4.0, c=9.0, x=81.0)        # c - a = 5: the 2F0 terminates
def test_confluent_neg_bits_equal_the_full_asymptotic_sum(a, c, x):
    # where the old 2F0 only reached its optimal truncation (its terms grew first) below
    # x = 700, the series answers instead: see the mpmath property below
    if (x <= _REF_ASYMPTOTIC_SWITCH or x >= 700.0 or is_nonpos_int(c - a)
            or _asymptotic_2f0_settles(a, c, x)):
        assert confluent_neg(a, c, x).hex() == _ref_confluent_neg(a, c, x).hex()


def _abs_term_sum(a, c, x):
    """e^(-x) times the sum of the |terms| of M(c-a; c; x): the scale of the series' rounding."""
    p, term, total = c - a, 1.0, 1.0
    for m in range(100000):
        term *= abs((p + m) * x / ((c + m) * (m + 1)))
        total += term
        if term < 1e-17 * total:
            break
    return math.exp(-x) * total


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(a=st.floats(0.5, 25.0, exclude_min=True), c=st.floats(0.5, 30.0, exclude_min=True),
       x=st.floats(80.0, 700.0, exclude_min=True))
@example(a=22.0, c=17.7, x=81.0)      # the optimally truncated 2F0 was off by 0.83 here
@example(a=8.919283741933771, c=0.744110656039257, x=80.1)  # and by 0.69 here (kummer)
def test_confluent_neg_series_fallback_against_mpmath(a, c, x):
    assume(not is_nonpos_int(c - a) and not _asymptotic_2f0_settles(a, c, x))
    ref = mp.hyp1f1(a, c, -x)
    rel = float(abs((confluent_neg(a, c, x) - ref) / ref))
    # the series loses what its cancelling terms cost, and next to an integer c - a the
    # rounding of c - a moves the part of the sum that vanishes at that integer
    p = c - a
    cond = _abs_term_sum(a, c, x) / abs(float(ref)) * max(1.0, abs(p) / abs(p - round(p)))
    assert rel <= 1e-12 * cond


def _count_confluent_calls(monkeypatch) -> list:
    nodes = []

    def counted(a, c, x):
        nodes.append(x)
        return confluent_neg(a, c, x)

    monkeypatch.setattr(measures, "confluent_neg", counted)
    return nodes


def test_resolution_evaluates_m_once_per_node(monkeypatch):
    nodes = _count_confluent_calls(monkeypatch)
    report = verify_compact_resolution(Label("compact", 2, 7))
    assert len(nodes) == len(set(nodes))
    # the moments share their nodes, and evals still counts every node of each
    assert len(nodes) < sum(ch.evals for ch in report.checks)


def test_kummer_evaluates_m_once_per_node_across_both_passes(monkeypatch):
    nodes = _count_confluent_calls(monkeypatch)
    res = kummer_integral_check(7.5, 2.5, 3.2)   # small integral: rescaled second pass
    assert len(nodes) == len(set(nodes)) < res.evals


def test_confluent_neg_terminating_branch():
    # c - a a non-positive integer: e^(-x) times a polynomial
    assert confluent_neg(3.0, 3.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    got = confluent_neg(3.0, 2.0, 1.5)
    ref = float(mp.hyp1f1(3, 2, -1.5))
    assert got == pytest.approx(ref, rel=1e-13)


def test_kummer_integral_examples():
    res = kummer_integral_check(3.0, 1.0, 4.0)
    assert res.analytic == pytest.approx(1.5, rel=1e-15)
    assert res.rel_error <= 1e-8

    res2 = kummer_integral_check(2.0, 1.0, 2.0)
    assert res2.analytic == pytest.approx(1.0, rel=1e-15)   # integrand is e^(-r)
    assert res2.rel_error <= 1e-9


def test_kummer_integral_rejects_divergent():
    with pytest.raises(ValueError):
        kummer_integral_check(1.0, 1.0, 3.0)     # b >= a
    with pytest.raises(ValueError):
        kummer_integral_check(2.0, 3.0, 3.0)     # b > a
    with pytest.raises(ValueError):
        kummer_integral_check(3.0, -1.0, 4.0)    # b <= 0
    with pytest.raises(ValueError):
        kummer_integral_check(3.0, 1.0, -2.0)    # pole in c


def test_kummer_integral_grid():
    triples = [(3.0, 1.0, 4.0), (2.0, 1.0, 2.0), (4.5, 2.0, 3.5), (5.0, 1.5, 2.5),
               (6.0, 3.0, 8.0), (7.5, 4.0, 7.5), (3.25, 2.0, 1.75), (9.0, 5.5, 12.0)]
    for a, b, c in triples:
        res = kummer_integral_check(a, b, c)
        ref = float(mp.gamma(b) * mp.gamma(c) * mp.gamma(a - b) / (mp.gamma(a) * mp.gamma(c - b)))
        assert res.analytic == pytest.approx(ref, rel=1e-13)
        assert res.rel_error <= 1e-8, (a, b, c, res.rel_error)


def compact_moment_closed_form(label, n):
    """Exact value of the n-th assembled compact moment (always 1).

    The closed-form integral gives, with a = s+2 and c = s+2k+1,

        Gamma(a)/Gamma(c) * int_0^inf x^n M(a;c;-x) dx
            = Gamma(n+1) Gamma(a-n-1) / Gamma(c-n-1)
            = n! (s-n)! / (s+2k-n-1)!

    and the projector weight is its exact reciprocal.  Every gamma argument
    is an integer here, so the whole check lives inside the rationals.
    """
    s = label.step
    twok = int(2 * label.k)
    if not 0 <= n <= s:
        raise ValueError(f"moment index must lie in 0..{s}")
    fac = math.factorial
    weight = F(fac(s + twok - n - 1), fac(n) * fac(s - n))
    closed_integral = F(fac(n) * fac(s - n), fac(s + twok - n - 1))
    return weight * closed_integral


def test_compact_moment_closed_form_is_one():
    for twok in range(1, 9):
        for step in range(0, 9):
            k = F(twok, 2)
            label = Label("compact", k, (k + step) / 2)
            for n in range(step + 1):
                assert compact_moment_closed_form(label, n) == 1


def test_verify_compact_resolution_examples():
    rep11 = verify_compact_resolution(Label("compact", 1, 1))
    assert [c.n for c in rep11.checks] == [0, 1]
    for c in rep11.checks:
        assert c.moment == pytest.approx(1.0, abs=1e-8)
        assert c.evals > 0 and c.r_max > 0

    single = verify_compact_resolution(Label("compact", F(1, 2), F(1, 4)))
    assert len(single.checks) == 1
    assert single.checks[0].moment == pytest.approx(1.0, abs=1e-9)


def test_verify_compact_resolution_subgrid():
    for twok in (1, 3, 6):
        for step in (0, 2, 5):
            k = F(twok, 2)
            label = Label("compact", k, (k + step) / 2)
            report = verify_compact_resolution(label)
            assert report.max_deviation <= 1e-6, (label, report.max_deviation)


def test_resolution_report_schema():
    label = Label("compact", F(3, 2), F(5, 4))
    report = verify_compact_resolution(label)
    docs = report.to_dicts()
    assert docs[0].keys() == {"k", "l", "n", "moment", "deviation", "quadrature"}
    assert docs[0]["k"] == "3/2" and docs[0]["l"] == "5/4"
    assert docs[0]["quadrature"].keys() == {"R", "evals"}


def test_explicit_r_max_is_used():
    label = Label("compact", F(1, 2), F(1, 4))
    report = verify_compact_resolution(label, QuadratureSpec(r_max=60.0))
    assert all(c.r_max == 60.0 for c in report.checks)
    assert report.max_deviation <= 1e-6


def test_quadrature_budget_failure_raises(monkeypatch):
    from quadalg import measures
    from quadalg.errors import QuadratureError

    monkeypatch.setattr(measures, "QUAD_LIMIT", 1)
    label = Label("compact", 4, 6)
    with pytest.raises(QuadratureError):
        verify_compact_resolution(label, QuadratureSpec(abs_tol=1e-13))


def test_moment_label_validation():
    compact = Label("compact", 1, 1)
    with pytest.raises(ValueError):
        bg_moment_targets(compact, 0)
    with pytest.raises(ValueError):
        verify_compact_resolution(Label("noncompact", 1, F(1, 2)))


def test_gauss_kronrod_constants():
    # on [-1, 1]: K21 integrates x^d exactly up to degree 31, G10 up to degree 19 (and no further)
    kronrod = [(x, w) for x, w in zip(measures.XGK, measures.WGK)]
    kronrod += [(-x, w) for x, w in kronrod[:-1]]
    gauss = [(x, w) for x, w in zip(measures.XGK[1::2], measures.WG)]
    gauss += [(-x, w) for x, w in gauss]
    assert (len(kronrod), len(gauss)) == (21, 10)
    for rule, degree in ((kronrod, 31), (gauss, 19)):
        for d in range(degree + 2):
            err = abs(math.fsum(w * x ** d for x, w in rule) - (2 / (d + 1) if d % 2 == 0 else 0))
            assert (err <= 1e-15) == (d <= degree), (degree, d, err)


def _scipy_quad(f, r_max):
    """An independent adaptive quadrature (QUADPACK's QAGP) on the same decade breakpoints."""
    from scipy import integrate

    points = [10.0 ** j for j in range(int(math.ceil(math.log10(max(r_max, 10.0)))))
              if 10.0 ** j < r_max]
    return integrate.quad(f, 0.0, r_max, points=points, epsabs=0.0, epsrel=1e-13, limit=800)[0]


def _kummer_ref(a, b, c, r_max):
    """int_0^R x^(b-1) M(a; c; -x) dx = R^b/b 2F2(b, a; b+1, c; -R)."""
    r = mp.mpf(r_max)
    return r ** b / b * mp.hyp2f2(b, a, b + 1, c, -r)


def _moment_ref(twok, s, n, r_max):
    """The n-th assembled compact moment over [0, R], through
    int_0^R x^n M(a; c; -x) dx = R^(n+1)/(n+1) 2F2(n+1, a; n+2, c; -R)."""
    a, c, r = s + 2, s + twok + 1, mp.mpf(r_max)
    pref = (mp.gamma(c - 1 - n) / (mp.factorial(n) * mp.factorial(s - n))
            * mp.gamma(a) / mp.gamma(c))
    return pref, pref * r ** (n + 1) / (n + 1) * mp.hyp2f2(n + 1, a, n + 2, c, -r)


# at the default rel_tol of 1e-8 the grids below stop inside that tolerance but up to 5e-13
# off, so they ask for 1e-11
TIGHT = QuadratureSpec(rel_tol=1e-11)


@pytest.mark.parametrize("b", [0.5, 0.6, 0.9, 2.5])
def test_kummer_quadrature_against_mpmath_and_scipy(b):
    for a, c in ((6.0, 5.5), (3.5, 2.0), (7.5, 3.2), (4.0, 9.0)):
        res = kummer_integral_check(a, b, c, TIGHT)
        ref = _kummer_ref(a, b, c, res.r_max)
        assert abs(res.numeric - ref) <= 1e-13 * abs(ref), (a, b, c)
        oracle = _scipy_quad(lambda x: x ** (b - 1) * confluent_neg(a, c, x), res.r_max)
        assert res.numeric == pytest.approx(oracle, rel=1e-13, abs=0), (a, b, c)


@pytest.mark.parametrize("twok", [1, 4, 7])
def test_resolution_quadrature_against_mpmath_and_scipy(twok):
    k = F(twok, 2)
    for s in range(15):  # every moment n <= s
        for ch in verify_compact_resolution(Label("compact", k, (k + s) / 2), TIGHT).checks:
            pref, ref = _moment_ref(twok, s, ch.n, ch.r_max)
            assert abs(ch.moment - ref) <= 1e-13 * ref, (s, ch.n)
            oracle = _scipy_quad(lambda x: x ** ch.n * confluent_neg(s + 2, s + twok + 1, x),
                                 ch.r_max)
            assert ch.moment == pytest.approx(float(pref) * oracle, rel=1e-13, abs=0), (s, ch.n)


@pytest.mark.parametrize("a, b, c", [(20.724052334575838, 16.00842055353031, 14.0),
                                     (12.75548609209537, 6.878175253485904, 1.0)])
def test_kummer_where_rounding_bounds_the_quadrature(a, b, c):
    # the integrand cancels about a millionfold, so |K21 - G10| stops shrinking above the
    # tolerance; the rule ends on rounding, well inside its budget, and still passes --tol 1e-6
    res = kummer_integral_check(a, b, c)
    assert res.rel_error <= 1e-6 and res.evals < 21 * measures.QUAD_LIMIT / 10


@pytest.mark.parametrize("argv", [
    "--check=kummer --a=3 --b=1 --c=2", "--check=kummer --a=7.5 --b=2.5 --c=3.2",
    "--check=kummer --a=6 --b=0.6 --c=5.5", "--check=resolution --k=2 --l=7",
    "--check=resolution --k=1/2 --l=27/4", "--k=1/2 --l=9/4",
])
def test_golden_measure_values_against_mpmath(capsys, argv):
    # at the default tolerances, each printed integral is within 1e-13 of int_0^R
    from quadalg.cli import main

    assert main(["measure", *argv.split()]) == 0
    rows = json.loads(capsys.readouterr().out)
    for row in rows if isinstance(rows, list) else [rows]:
        r_max = row["quadrature"]["R"]
        if "numeric" in row:
            got, ref = row["numeric"], _kummer_ref(row["a"], row["b"], row["c"], r_max)
        else:
            k, l = F(row["k"]), F(row["l"])
            got, ref = row["moment"], _moment_ref(int(2 * k), int(2 * l - k), row["n"], r_max)[1]
        assert abs(got - ref) <= 1e-13 * abs(ref), row


def test_kummer_analytic_pole_in_denominator_is_zero():
    # c - b a non-positive integer sends the closed form to zero;
    # e.g. integrand (1-r)e^(-r) integrates to zero
    assert kummer_integral_analytic(2.0, 1.0, 1.0) == 0.0
    val, err = __import__("scipy.integrate", fromlist=["quad"]).quad(
        lambda r: (1 - r) * math.exp(-r), 0, 60)
    assert val == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("argv, nulls", [
    (("--check=bg-moments", "--k=1/2", "--l=1/4", "--max-n=72"), 1),  # (72!)^3 overflows
    (("--check=bg-moments", "--k=5/2", "--l=3/4", "--max-n=60"), 0),
    (("--check=perelomov-moments", "--k=1/2", "--l=1/4", "--max-n=200"), 30),  # 1/171! ...
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_moment_value_is_the_rounded_ratio_or_null(capsys, argv, nulls, fmt):
    # value = float(ratio_to_first) * target(0) bit for bit, and null (an empty CSV cell)
    # where that is no normal double: never 0, a subnormal or an overflow
    from quadalg.cli import main

    assert main(["measure", *argv, f"--format={fmt}"]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        rows = [(r["value"], r["ratio_to_first"]) for r in json.loads(out)]
    else:
        rows = [(float(v) if v else None, r) for _, v, r in
                (line.split(",") for line in out.splitlines()[1:])]
    first = 1 / TWO_PI if "bg" in argv[0] else 1 / math.pi
    for value, ratio in rows:
        try:
            want = float(F(ratio)) * first
        except OverflowError:
            want = 0.0
        assert value == (want if want >= sys.float_info.min else None)
    assert [value for value, _ in rows].count(None) == nulls
