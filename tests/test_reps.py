"""Closed-form representation matrices: examples, invariants, serialization."""

import argparse
import json
import math
import re
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadalg import cli, defosc, reps
from quadalg.errors import InvalidLabelError
from quadalg.output import json_dumps
from quadalg.reps import Label

import dense_oracle


@pytest.mark.parametrize("args, kwargs, message", [
    (("compact", F(1, 3), 1), {}, "k must be a multiple of 1/2 with k >= 1/2, got 1/3"),
    (("compact", 1, F(1, 3)), {}, "l must be a multiple of 1/4, got 1/3"),
    (("compact", 1, F(1, 4)), {},
     "compact labels need 2l-k a non-negative integer, got 2l-k = -1/2"),
    (("compact", 2, F(5, 4)), {},
     "compact labels need 2l-k a non-negative integer, got 2l-k = 1/2"),
    (("noncompact", F(1, 2), F(3, 4)), {},
     "noncompact labels need k-2l a non-negative integer, got k-2l = -1"),
    (("su2",), {"j": F(1, 3)}, "j must be a non-negative multiple of 1/2, got 1/3"),
    (("su2",), {"j": -1}, "j must be a non-negative multiple of 1/2, got -1"),
    (("su2", 1), {"j": 1}, "a su2 label takes no k"),
    (("su11",), {"k": 0}, "k must be a positive multiple of 1/2, got 0"),
    (("su11",), {"k": F(1, 3)}, "k must be a positive multiple of 1/2, got 1/3"),
    (("bogus", 1, 1), {},
     "sector must be one of 'compact', 'noncompact', 'su2', 'su11', got 'bogus'"),
])
def test_label_validation(args, kwargs, message):
    Label("compact", F(1, 2), F(5, 4))
    Label("noncompact", F(3, 2), F(1, 4))
    Label("su2", j=0)
    Label("su11", k=F(1, 2))
    with pytest.raises(InvalidLabelError) as err:
        Label(*args, **kwargs)
    assert str(err.value) == message


def test_a_new_row_needs_no_other_edit(monkeypatch):
    """A sector is its ``ALGEBRAS`` row: a copy of the su2 row under a new name
    is a full sector for the label, the ladder, the Casimir, the JSON head and
    the CLI label options."""
    monkeypatch.setitem(reps.ALGEBRAS, "spin", reps.ALGEBRAS["su2"])
    label = cli._label(argparse.Namespace(j=F(3, 2)), "spin")
    assert label == Label("spin", j=F(3, 2)) and label.dim == 4
    rep, twin = reps.ladder_rep(label), reps.ladder_rep(Label("su2", j=F(3, 2)))
    assert (rep.qp_sq, rep.q0_diag) == (twin.qp_sq, twin.q0_diag)
    report = reps.casimir_value(rep)
    assert report.exact_value == report.reference_value == F(15, 4)
    assert reps.label_fields(rep) == {"sector": "spin", "j": "3/2", "dim": 4}
    with pytest.raises(InvalidLabelError, match="^j must be a non-negative multiple of 1/2"):
        cli._label(argparse.Namespace(j=F(1, 3)), "spin")
    with pytest.raises(InvalidLabelError, match="^--j is required for a spin label$"):
        cli._label(argparse.Namespace(j=None), "spin")


def test_readme_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    printed = capsys.readouterr().out.splitlines()
    assert scope["rep"].dim == 3
    assert printed[0] == str(reps.casimir_value(scope["rep"]).reference_value)
    assert len(printed) == 2


def test_compact_k1_l1():
    rep = reps.ladder_rep(Label("compact", 1, 1))
    m = dense_oracle.rep_matrices(rep)
    assert rep.dim == 2
    assert np.array_equal(np.diag(m.q0), [0.0, 1.0])
    assert m.qp[1, 0] == math.sqrt(2)
    assert rep.qp_sq == (F(2),)
    assert rep.label.kval == 0 and rep.label.l == 1


def test_compact_one_dimensional():
    rep = reps.ladder_rep(Label("compact", F(1, 2), F(1, 4)))
    m = dense_oracle.rep_matrices(rep)
    assert rep.dim == 1
    assert np.array_equal(np.diag(m.q0), [0.25])
    assert not np.any(m.qp) and not np.any(m.qm)


def test_compact_half_fivequarter_subdiagonal():
    rep = reps.ladder_rep(Label("compact", F(1, 2), F(5, 4)))
    assert rep.dim == 3
    assert rep.qp_sq == (F(2), F(4))
    qp = dense_oracle.rep_matrices(rep).qp
    np.testing.assert_allclose([qp[1, 0], qp[2, 1]], [math.sqrt(2), 2.0], rtol=0, atol=0)


def test_noncompact_half_quarter():
    rep = reps.ladder_rep(Label("noncompact", F(1, 2), F(1, 4)), 4)
    # ladder squares (n+1)^3, diagonal n + 1/4
    assert rep.qp_sq == (F(1), F(8), F(27))
    m = dense_oracle.rep_matrices(rep)
    assert np.array_equal(np.diag(m.q0), [0.25, 1.25, 2.25, 3.25])
    assert rep.truncated and rep.boundary_index == 3
    comm = m.qp @ m.qm - m.qm @ m.qp
    for n in range(3):
        assert comm[n, n] == pytest.approx(-(3 * n * n + 3 * n + 1), abs=1e-12)


def test_su2_reps():
    half = reps.ladder_rep(Label("su2", j=F(1, 2)))
    assert half.dim == 2 and dense_oracle.rep_matrices(half).qp[1, 0] == 1.0
    zero = reps.ladder_rep(Label("su2", j=0))
    m = dense_oracle.rep_matrices(zero)
    assert zero.dim == 1 and not np.any(m.qp) and not np.any(m.q0)
    with pytest.raises(InvalidLabelError):
        reps.ladder_rep(Label("su2", j=F(1, 3)))


def test_su11_rep():
    rep = reps.ladder_rep(Label("su11", k=F(1, 2)), 3)
    assert rep.qp_sq == (F(1), F(4))
    m = dense_oracle.rep_matrices(rep)
    np.testing.assert_allclose([m.qp[1, 0], m.qp[2, 1]], [1.0, 2.0], rtol=0, atol=0)
    assert np.array_equal(np.diag(m.q0), [0.5, 1.5, 2.5])


def test_two_dim_family():
    rep = dense_oracle.two_dim_family(F(1, 2))
    m = dense_oracle.rep_matrices(rep)
    assert np.array_equal(np.diag(m.q0), [-0.25, 0.75])
    assert m.qp[1, 0] == 1.0
    rep2 = dense_oracle.two_dim_family(2)
    assert dense_oracle.rep_matrices(rep2).qp[1, 0] == 2.0
    assert dense_oracle.casimir_scalar_exact(rep2.label) == F(-25, 8)
    # elementwise identity with the compact constructor, any k
    for twok in range(1, 8):
        fam = dense_oracle.two_dim_family(F(twok, 2))
        direct = dense_oracle.rep_matrices(reps.ladder_rep(fam.label))
        fam = dense_oracle.rep_matrices(fam)
        assert np.array_equal(fam.qp, direct.qp)
        assert np.array_equal(fam.q0, direct.q0)


def test_two_dim_family_casimir_closed_form():
    # exact rational match with (-3k^3 - 5k^2 + 11k - 3)/8 for 2k = 1..10
    for twok in range(1, 11):
        k = F(twok, 2)
        expected = (-3 * k ** 3 - 5 * k ** 2 + 11 * k - 3) / 8
        assert dense_oracle.casimir_scalar_exact(dense_oracle.two_dim_family(k).label) == expected


def test_two_dim_family_inequivalence():
    values = [dense_oracle.casimir_scalar_exact(dense_oracle.two_dim_family(F(t, 2)).label)
              for t in range(1, 11)]
    assert len(set(values)) == len(values)


def test_casimir_compact_values():
    rep = reps.ladder_rep(Label("compact", 1, 1))
    rc = reps.casimir_value(rep)
    assert rc.exact_value == 0 and rc.reference_value == 0
    assert abs(rc.value) < 1e-12 and rc.max_deviation < 1e-12
    assert rc.matches_reference

    rep1 = reps.ladder_rep(Label("compact", F(1, 2), F(1, 4)))
    rc1 = reps.casimir_value(rep1)
    closed = F(1, 64) + F(5, 4) * (F(1, 4) - 1) + 1
    assert rc1.reference_value == closed == F(5, 64)
    assert rc1.exact_value == closed
    assert rc1.value == pytest.approx(float(closed), abs=1e-14)


def test_casimir_noncompact_reports_both_values():
    rep = reps.ladder_rep(Label("noncompact", F(1, 2), F(1, 4)), 8)
    rc = reps.casimir_value(rep)
    # antiderivative convention gives -1/64; the reference closed form l(l-k^2)
    # gives 0; they disagree and both must be visible
    assert rc.exact_value == F(-1, 64)
    assert rc.reference_value == 0
    assert not rc.matches_reference
    assert rc.value == pytest.approx(-1 / 64, abs=1e-12)
    assert rc.max_deviation < 1e-10


def _compact_labels(max_step=10, max_twok=10):
    for twok in range(1, max_twok + 1):
        for step in range(0, max_step + 1):
            k = F(twok, 2)
            yield Label("compact", k, (k + step) / 2)


def test_exact_squared_entries_compact():
    for label in _compact_labels(max_step=9, max_twok=6):
        rep = reps.ladder_rep(label)
        k, l = label.k, label.l
        qp = dense_oracle.rep_matrices(rep).qp
        for n, sq in enumerate(rep.qp_sq):
            assert sq == (n + 1) * (n + 2 * k) * (2 * l - n - k)
            assert qp[n + 1, n] == math.sqrt(float(sq))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(reps.ALGEBRAS)), st.integers(1, 40),
       st.integers(0, 60) | st.integers(0, 10 ** 20), st.integers(1, 64))
@example("noncompact", 1, 50000000000000001, 4)  # |q0| > 2^53: q0 = 25000000000000000.75 + n
def test_ladder_rep_equals_the_factored_closed_forms(sector, twok, step, d):
    k = F(twok, 2)
    if sector == "su2":
        label = Label("su2", j=F(d - 1, 2))
    elif sector == "su11":
        label = Label("su11", k=k)
    elif sector == "compact":
        label = Label("compact", k, (k + d - 1) / 2)
    else:
        label = Label("noncompact", k, (k - step) / 2)
    rep = reps.ladder_rep(label, d)
    assert rep.dim == d
    assert rep.qp_sq == tuple(dense_oracle.closed_form_squares(label, d))
    assert rep.q0_diag == tuple(dense_oracle.closed_form_diagonal(label, d))
    assert rep.diag.tolist() == [float(x) for x in rep.q0_diag]
    assert rep.raising.tolist() == [math.sqrt(s) for s in rep.qp_sq]
    assert rep.truncated is not reps.ALGEBRAS[sector].finite


def test_defining_relations_grid():
    for label in _compact_labels(max_step=8, max_twok=6):
        resid = dense_oracle.band_relation_residuals(reps.ladder_rep(label))
        assert max(resid.values()) < 1e-12
    for twok in range(1, 7):
        for step in range(0, 5):
            k = F(twok, 2)
            label = Label("noncompact", k, (k - step) / 2)
            resid = dense_oracle.band_relation_residuals(reps.ladder_rep(label, 24))
            assert max(resid.values()) < 1e-10


def test_casimir_scalar_on_grid():
    for label in _compact_labels(max_step=6, max_twok=5):
        rc = reps.casimir_value(reps.ladder_rep(label))
        assert rc.max_deviation < 1e-10
        assert rc.matches_reference  # compact closed form equals the recipe


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10))
def test_compact_label_roundtrip(twok, step):
    k = F(twok, 2)
    label = Label("compact", k, (k + step) / 2)
    assert label.dim == step + 1
    rep = reps.ladder_rep(label)
    assert rep.dim == step + 1
    # lowering is exactly the transpose of raising
    m = dense_oracle.rep_matrices(rep)
    assert np.array_equal(m.qm, m.qp.T)


def test_serialization_schema():
    rep = reps.ladder_rep(Label("noncompact", F(1, 2), F(1, 4)), 3)
    # qp/qm are pre-rendered JSON, so the schema is read from the written document
    doc = json.loads(json_dumps(reps.rep_to_dict(rep)))
    assert list(doc)[:3] == ["sector", "k", "l"]
    assert doc["sector"] == "noncompact" and doc["k"] == "1/2" and doc["l"] == "1/4"
    assert doc["dim"] == 3
    assert doc["q0"] == [0.25, 1.25, 2.25]
    assert doc["qp"][1][0] == 1.0
    assert doc["casimir"]["exact"] == "-1/64"
    assert doc["casimir"]["reference"] == "0"
    assert doc["casimir"]["matches_reference"] is False

    doc2 = reps.rep_to_dict(reps.ladder_rep(Label("su2", j=1)))
    assert doc2["sector"] == "su2" and doc2["j"] == "1"


@st.composite
def ladder_reps(draw):
    """Representations of all four sectors; d = 1 and 2 are drawn often."""
    d = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 48)))
    sector = draw(st.sampled_from(["compact", "noncompact", "su2", "su11"]))
    k = F(draw(st.integers(1, 12)), 2)
    if sector == "compact":
        return reps.ladder_rep(Label("compact", k, (k + d - 1) / 2))
    if sector == "noncompact":
        step = draw(st.integers(0, 12))
        return reps.ladder_rep(Label("noncompact", k, (k - step) / 2), d)
    if sector == "su2":
        return reps.ladder_rep(Label("su2", j=F(d - 1, 2)))
    return reps.ladder_rep(Label("su11", k=k), d)


@settings(max_examples=150, deadline=None)
@given(ladder_reps())
@example(reps.ladder_rep(Label("compact", F(1, 2), F(1, 4))))
@example(reps.ladder_rep(Label("noncompact", F(1, 2), F(1, 4)), 1))
@example(reps.ladder_rep(Label("noncompact", F(3, 2), F(-1, 4)), 2))
def test_band_formulas_equal_dense_oracle(rep):
    # bit-identical, not approximately equal: the dense products only add exact zeros
    rc = reps.casimir_value(rep)
    assert (rc.value, rc.max_deviation) == dense_oracle.casimir_value(rep)
    assert dense_oracle.band_relation_residuals(rep) == dense_oracle.defining_relation_residuals(rep)
    if rep.label.sector == "compact":
        osc = defosc.deform(rep)
        assert defosc.commutator_residuals(osc) == dense_oracle.commutator_residuals(rep, osc)


@settings(max_examples=150, deadline=None)
@given(ladder_reps())
@example(reps.ladder_rep(Label("compact", F(1, 2), F(1, 4))))
@example(reps.ladder_rep(Label("su2", j=F(1, 2))))
def test_band_json_equals_dense_oracle(rep):
    # the oracle's dense matrices, serialized element by element
    qp, qm = dense_oracle.rep_ladder_matrices(rep)
    want = reps.rep_to_dict(rep)
    want["qp"], want["qm"] = qp.tolist(), qm.tolist()
    assert json_dumps(reps.rep_to_dict(rep)) == json_dumps(want)
