"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s or in
the captured output) before asserting, so the suite doubles as a checklist.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from quadalg import coherent, defosc, diffreal, fock3, measures, reps, spectrum
from quadalg.reps import Label

from dense_oracle import (band_relation_residuals, casimir_scalar_exact, eigenspace_states,
                          realized_matrices, rep_matrices, signed_square, two_dim_family)


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _random_labels(rng, count):
    labels = []
    while len(labels) < count:
        if len(labels) % 2 == 0:
            twok = int(rng.integers(1, 11))
            step = int(rng.integers(0, 20))          # compact dim <= 20
            k = F(twok, 2)
            labels.append((Label("compact", k, (k + step) / 2), None))
        else:
            twok = int(rng.integers(1, 9))
            step = int(rng.integers(0, 9))
            dim = int(rng.integers(2, 61))           # truncation <= 60
            k = F(twok, 2)
            labels.append((Label("noncompact", k, (k - step) / 2), dim))
    return labels


def test_criterion_1_defining_relations():
    rng = np.random.default_rng(20240803)
    start = time.monotonic()
    worst = 0.0
    for label, dim in _random_labels(rng, 50):
        rep = reps.ladder_rep(label, dim)
        worst = max(worst, max(band_relation_residuals(rep).values()))
    elapsed = time.monotonic() - start
    _report(1, "defining-relation residuals <= 1e-10 on 50 random labels",
            worst <= 1e-10 and elapsed < 10.0,
            f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_casimir_scalarity_and_value():
    worst_dev = 0.0
    worst_val = 0.0
    for twok in range(1, 11):                        # k <= 5
        for step in range(0, 11):                    # 2l-k <= 10
            k = F(twok, 2)
            label = Label("compact", k, (k + step) / 2)
            rc = reps.casimir_value(reps.ladder_rep(label))
            worst_dev = max(worst_dev, rc.max_deviation)
            worst_val = max(worst_val, abs(rc.value - float(rc.reference_value)))
    family_exact = all(
        casimir_scalar_exact(two_dim_family(F(t, 2)).label)
        == (-3 * F(t, 2) ** 3 - 5 * F(t, 2) ** 2 + 11 * F(t, 2) - 3) / 8
        for t in range(1, 11))
    _report(2, "compact Casimir scalar (1e-10), closed form (1e-9), 2-dim family exact",
            worst_dev <= 1e-10 and worst_val <= 1e-9 and family_exact,
            f"dev {worst_dev:.2e}, value err {worst_val:.2e}")


def test_criterion_3_realization_equivalence():
    space = fock3.FockSpace((8, 8, 8))
    compact = fock3.realize("compact", space)
    noncompact = fock3.realize("noncompact", space)
    compact_ops, noncompact_ops = realized_matrices(compact), realized_matrices(noncompact)
    compact_labels = [(F(1, 2), F(1, 4)), (F(1, 2), F(5, 4)), (F(1, 2), F(9, 4)),
                      (1, 1), (1, 2), (F(3, 2), F(7, 4)), (F(3, 2), F(11, 4)), (2, 3)]
    worst = 0.0
    n_checked = 0
    for k, l in compact_labels:
        rep = reps.ladder_rep(Label("compact", k, l))
        m = rep_matrices(rep)
        for chain in eigenspace_states(compact, k, l):
            assert len(chain) == rep.dim
            sel = np.ix_(chain, chain)
            for realized, closed in ((compact_ops.qp, m.qp), (compact_ops.qm, m.qm),
                                     (compact_ops.q0, m.q0)):
                worst = max(worst, float(np.abs(realized[sel] - closed).max()))
        n_checked += 1
    for k, l in [(F(1, 2), F(1, 4)), (1, F(1, 2))]:
        chain = eigenspace_states(noncompact, k, l)[0]
        rep = rep_matrices(reps.ladder_rep(Label("noncompact", k, l), len(chain)))
        sel = np.ix_(chain, chain)
        worst = max(worst, float(np.abs(noncompact_ops.qp[sel] - rep.qp).max()),
                    float(np.abs(noncompact_ops.q0[sel] - rep.q0).max()))
        n_checked += 1

    exact_ok = True
    for twok in range(1, 9):
        for step in range(0, 10):                    # dims <= 10
            k = F(twok, 2)
            label = Label("compact", k, (k + step) / 2)
            bands, _ = diffreal.band_elements(diffreal.build_realization("compactQ", label))
            rep = reps.ladder_rep(label)
            exact_ok &= all(bands["qp"][n] == rep.qp_sq[n]
                            for n in range(rep.dim - 1))
            exact_ok &= all(bands["q0"][n] == signed_square(rep.q0_diag[n])
                            for n in range(rep.dim))
    _report(3, "fock/matrix equivalence (1e-12, 10 labels) and exact symbolic elements",
            n_checked == 10 and worst <= 1e-12 and exact_ok,
            f"worst {worst:.2e} over {n_checked} labels")


def test_criterion_4_degeneracy_theorem():
    start = time.monotonic()
    ok = True
    for n in range(0, 201):
        rep = spectrum.level_report(n)
        ok &= rep.consistent
    elapsed = time.monotonic() - start
    spot = [spectrum.degeneracy_formula(n) for n in range(8)]
    ok &= spot == [1, 2, 4, 6, 9, 12, 16, 20]
    _report(4, "degeneracy and partition counts agree three ways for N <= 200",
            ok and elapsed < 5.0, f"{elapsed:.2f}s, spot {spot}")


def test_criterion_5_coherent_states():
    worst_resid = 0.0
    for k, l in [(F(1, 2), F(1, 4)), (1, F(1, 2)), (F(3, 2), F(1, 4))]:
        label = Label("noncompact", k, l)
        for alpha in (0.5, 1 + 1j, 3.0):
            state = coherent.bg_state(label, alpha)
            rep = reps.ladder_rep(label, state.truncation)
            resid = float(np.linalg.norm(rep_matrices(rep).qm @ state.coeffs - alpha * state.coeffs)
                          / abs(alpha))
            worst_resid = max(worst_resid, resid)

    worst_norm = 0.0
    worst_formula = 0.0
    for twok in range(1, 7):
        for step in range(0, 7):
            k = F(twok, 2)
            label = Label("compact", k, (k + step) / 2)
            for par in (0.8, 1.6 + 0.5j):
                st_a = coherent.perelomov_compact(label, par, form="alpha")
                st_g = coherent.perelomov_compact(label, par, form="gamma")
                worst_norm = max(worst_norm, abs(st_a.norm - 1), abs(st_g.norm - 1))
            for gamma in (0.7, 1.9):
                formula, _ = coherent.compact_norm_sq_formula(label, gamma)
                s = label.step
                kf = float(k)
                direct = 0.0
                c = gamma ** (-s) * math.sqrt(
                    math.exp(math.lgamma(s + 2 * kf) - math.lgamma(2 * kf)))
                for n in range(s + 1):
                    direct += c * c
                    if n < s:
                        c = c * gamma * math.sqrt((s - n) / ((n + 1) * (s + 2 * kf - 1 - n)))
                worst_formula = max(worst_formula, abs(formula / direct - 1.0))
    _report(5, "eigenstate residuals <= 1e-8; compact orbit norms and closed form",
            worst_resid <= 1e-8 and worst_norm <= 1e-12 and worst_formula <= 1e-10,
            f"residual {worst_resid:.2e}, norm {worst_norm:.2e}, formula {worst_formula:.2e}")


def test_criterion_6_measure_verification():
    worst = 0.0
    for twok in range(1, 9):                          # k <= 4
        for step in range(0, 9):                      # 2l-k <= 8
            k = F(twok, 2)
            label = Label("compact", k, (k + step) / 2)
            report = measures.verify_compact_resolution(label)
            worst = max(worst, report.max_deviation)

    triples = [(3.0, 1.0, 4.0), (2.0, 1.0, 2.0), (4.0, 2.0, 6.0), (5.0, 1.0, 3.0),
               (5.5, 2.5, 4.0), (6.0, 3.0, 9.0), (7.0, 2.0, 2.5), (8.0, 4.0, 11.0),
               (3.5, 1.5, 5.0), (9.0, 3.0, 7.0), (4.25, 2.0, 3.25), (10.0, 5.0, 14.0),
               (6.5, 1.0, 1.5), (2.75, 1.25, 4.5), (12.0, 6.0, 13.0), (5.0, 3.5, 8.5),
               (7.25, 3.0, 10.0), (3.0, 2.0, 2.0), (11.0, 4.5, 6.0), (9.5, 2.5, 12.5)]
    worst_kummer = 0.0
    for a, b, c in triples:
        res = measures.kummer_integral_check(a, b, c)
        worst_kummer = max(worst_kummer, res.rel_error)
    _report(6, "compact resolution moments 1 +- 1e-6; closed-form integral to 1e-8",
            worst <= 1e-6 and worst_kummer <= 1e-8 and len(triples) == 20,
            f"moment dev {worst:.2e}, integral rel {worst_kummer:.2e}")


def test_criterion_7_deformed_oscillator():
    fermion = defosc.fermion_check()
    worst = 0.0
    for twok in range(1, 9):
        for step in range(0, 9):                      # 2l-k <= 8
            k = F(twok, 2)
            osc = defosc.deform(reps.ladder_rep(Label("compact", k, (k + step) / 2)))
            worst = max(worst, max(defosc.commutator_residuals(osc).values()))
    _report(7, "fermion check exact; oscillator commutator contract <= 1e-10",
            fermion.passed and worst <= 1e-10, f"worst {worst:.2e}")
