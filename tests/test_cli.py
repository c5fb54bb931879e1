"""Command-line behaviour: output schemas, determinism, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import quadalg
from quadalg import coherent, diffreal, fock3, reps
from quadalg.cli import COMMANDS, main
from quadalg.diffreal import DiffOp
from quadalg.polyalg import RationalPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rep_compact_json(capsys):
    code, out, _ = run(capsys, "rep", "--sector", "compact", "--k", "1", "--l", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["sector"] == "compact"
    assert doc["dim"] == 2
    assert doc["casimir"]["exact"] == "0"
    assert doc["qp"][1][0] == pytest.approx(2 ** 0.5)


@pytest.mark.parametrize("argv, message", [
    (("rep", "--sector", "compact", "--k", "1/3", "--l", "1"),
     "k must be a multiple of 1/2 with k >= 1/2, got 1/3"),
    (("rep", "--sector", "compact", "--k", "1", "--l", "1/3"),
     "l must be a multiple of 1/4, got 1/3"),
    (("rep", "--sector", "compact", "--k", "1", "--l", "1/4"),
     "compact labels need 2l-k a non-negative integer, got 2l-k = -1/2"),
    (("deform", "--k", "2", "--l", "5/4"),
     "compact labels need 2l-k a non-negative integer, got 2l-k = 1/2"),
    (("casimir", "--sector", "noncompact", "--k", "1/2", "--l", "3/4"),
     "noncompact labels need k-2l a non-negative integer, got k-2l = -1"),
    (("rep", "--sector", "su2", "--j", "1/3"), "j must be a non-negative multiple of 1/2, got 1/3"),
    (("casimir", "--sector", "su11", "--k", "0"), "k must be a positive multiple of 1/2, got 0"),
    (("diffcheck", "--kind", "su2"), "--j is required for a su2 label"),
    (("rep", "--sector", "compact", "--k", "1"), "--k and --l are required for a compact label"),
])
def test_rep_invalid_label_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_rep_su2(capsys):
    code, out, _ = run(capsys, "rep", "--sector", "su2", "--j", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["sector"] == "su2" and doc["dim"] == 2
    assert doc["qp"][1][0] == 1.0


def test_rep_csv(capsys):
    code, out, _ = run(capsys, "rep", "--sector", "compact", "--k", "1/2", "--l", "5/4",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,q0,raise_to_next"
    assert len(lines) == 4


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "rep", "--sector", "compact", "--k", "1", "--l", "1",
               "--bogus")[0] == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_malformed_fraction_exits_2(capsys):
    assert run(capsys, "rep", "--sector", "compact", "--k", "one", "--l", "1")[0] == 2


def test_byte_determinism(capsys):
    args = ("casimir", "--sector", "noncompact", "--k", "1/2", "--l", "1/4", "--dim", "6")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args_m = ("measure", "--check", "resolution", "--k", "1", "--l", "1")
    _, m1, _ = run(capsys, *args_m)
    _, m2, _ = run(capsys, *args_m)
    assert m1 == m2


def test_casimir_noncompact_reports_both(capsys):
    code, out, _ = run(capsys, "casimir", "--sector", "noncompact",
                       "--k", "1/2", "--l", "1/4", "--dim", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == "-1/64"
    assert doc["reference"] == "0"
    assert doc["matches_reference"] is False
    assert doc["convention"] == "g(-1) = 0"


def test_spectrum_csv_spot_values(capsys):
    code, out, _ = run(capsys, "spectrum", "--from", "0", "--to", "7", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    degeneracies = [int(line.split(",")[1]) for line in lines[1:]]
    assert degeneracies == [1, 2, 4, 6, 9, 12, 16, 20]


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--from", "4", "--to", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc[0]["degeneracy"] == {"reptheory": 9, "formula": 9, "bruteforce": 9}
    assert doc[0]["parts"][0] == {"k": "1/2", "dim": 3, "multiplicity": 1}


def test_verify_compact(capsys):
    code, out, _ = run(capsys, "verify", "--sector", "compact", "--cutoffs", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["max_residual"] <= 1e-12
    assert doc["interior_count"] > 0


def test_verify_tolerance_breach_exits_3(capsys):
    code, out, _ = run(capsys, "verify", "--sector", "compact", "--cutoffs", "6",
                       "--tol", "0")
    assert code == 3
    assert json.loads(out)["passed"] is False


def test_verify_empty_interior_warns(capsys):
    code, out, err = run(capsys, "verify", "--sector", "compact", "--cutoffs", "1,1,1")
    assert code == 3
    assert "interior" in err


def test_diffcheck(capsys):
    code, out, _ = run(capsys, "diffcheck", "--kind", "compactQ", "--k", "1", "--l", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    code2, out2, _ = run(capsys, "diffcheck", "--kind", "noncompactQ",
                         "--k", "1/2", "--l", "1/4", "--size", "7")
    assert code2 == 0 and json.loads(out2)["equal"] is True


# diffcheck options whose basis has ``size`` functions, per kind
DIFFCHECK_AT_SIZE = {
    "su2": lambda size: (f"--j={size - 1}/2",),
    "su11": lambda size: ("--k=1/2", f"--size={size}"),
    "compactQ": lambda size: ("--k=1/2", f"--l={2 * size - 1}/4"),
    "noncompactQ": lambda size: ("--k=1/2", "--l=1/4", f"--size={size}"),
}


@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("size", [8, 120, 4096])
@pytest.mark.parametrize("kind", list(DIFFCHECK_AT_SIZE))
def test_diffcheck_detects_a_moved_square(capsys, monkeypatch, kind, size, shift):
    # one squared raising entry of the matrices, in the middle of the band, moved by shift
    def moved(*args, build=reps.ladder_rep):
        rep = build(*args)
        squares = list(rep.qp_sq)
        squares[len(squares) // 2] += shift
        return dataclasses.replace(rep, qp_sq=tuple(squares))

    monkeypatch.setattr(reps, "ladder_rep", moved)
    code, out, _ = run(capsys, "diffcheck", f"--kind={kind}", *DIFFCHECK_AT_SIZE[kind](size))
    doc = json.loads(out)
    assert doc["size"] == size and doc["off_diagonal_clean"] is True
    assert doc["agree"] == {"q0": True, "qp": shift == 0, "qm": shift == 0}
    assert doc["equal"] is (shift == 0) and code == (0 if shift == 0 else 3)


# a term of each generator whose degree shift is not the generator's own
WRONG_SHIFT = {"q0": (1, [1]), "qp": (0, [1]), "qm": (1, [0, 1])}  # d/dz, 1, z d/dz


@pytest.mark.parametrize("generator", list(WRONG_SHIFT))
def test_diffcheck_detects_a_wrong_degree_shift(capsys, monkeypatch, generator):
    build = diffreal.build_realization

    def skewed(*args):
        real = build(*args)
        order, coeffs = WRONG_SHIFT[generator]
        terms = getattr(real, generator).terms + ((order, RationalPoly(coeffs)),)
        return dataclasses.replace(real, **{generator: DiffOp(terms)})

    monkeypatch.setattr(diffreal, "build_realization", skewed)
    code, out, _ = run(capsys, "diffcheck", "--kind=compactQ", "--k=1", "--l=3")
    doc = json.loads(out)
    assert code == 3 and doc["equal"] is False and doc["off_diagonal_clean"] is False
    assert all(doc["agree"].values())


def test_coherent_bg_json_and_csv(capsys):
    code, out, _ = run(capsys, "coherent", "--family", "bg", "--k", "1/2", "--l", "1/4",
                       "--param", "1+1j")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "BG"
    assert doc["eigen_residual"] <= 1e-8
    assert doc["unit_norm_error"] <= 1e-10
    assert doc["divergence_flag"] is False

    code2, out2, _ = run(capsys, "coherent", "--family", "bg", "--k", "1/2", "--l", "1/4",
                         "--param", "0.5", "--format", "csv")
    assert code2 == 0
    assert out2.startswith("n,re,im,abs2\n")


def test_coherent_truncation_error_exits_3(capsys):
    code, _, err = run(capsys, "coherent", "--family", "bg", "--k", "1/2", "--l", "1/4",
                       "--param", "3", "--dim", "4")
    assert code == 3
    assert "tail" in err


def test_coherent_perelomov_families(capsys):
    code, out, _ = run(capsys, "coherent", "--family", "perelomov-nc",
                       "--k", "1/2", "--l", "1/4", "--param", "0.4", "--dim", "10")
    assert code == 0
    assert json.loads(out)["divergence_flag"] is True

    code2, out2, _ = run(capsys, "coherent", "--family", "perelomov-c",
                         "--k", "1", "--l", "1", "--param", "0.7", "--gamma-form")
    assert code2 == 0
    doc = json.loads(out2)
    assert doc["unit_norm_error"] <= 1e-12


def test_measure_resolution(capsys):
    code, out, _ = run(capsys, "measure", "--check", "resolution", "--k", "1", "--l", "1")
    assert code == 0
    docs = json.loads(out)
    assert [d["n"] for d in docs] == [0, 1]
    for d in docs:
        assert abs(d["moment"] - 1) <= 1e-6
        assert set(d["quadrature"]) == {"R", "evals"}


def test_measure_resolution_breach_exits_3(capsys):
    code, out, _ = run(capsys, "measure", "--check", "resolution", "--k", "1", "--l", "1",
                       "--r-max", "0.5")
    assert code == 3
    docs = json.loads(out)
    assert all(d["quadrature"]["R"] == 0.5 for d in docs)


def test_measure_resolution_at_large_a(capsys):
    # a = 22, c = 28: past x = 80 the integrand is the terminating 2F0(22, -5; 1/x)
    code, out, _ = run(capsys, "measure", "--check", "resolution", "--k", "7/2", "--l", "47/4")
    assert code == 0
    docs = json.loads(out)
    assert [d["n"] for d in docs] == list(range(21))
    assert max(d["deviation"] for d in docs) <= 1e-9


def test_measure_kummer(capsys):
    code, out, _ = run(capsys, "measure", "--check", "kummer",
                       "--a", "3", "--b", "1", "--c", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["analytic"] == 1.5
    assert doc["rel_error"] <= 1e-8


def test_measure_kummer_where_the_asymptotic_2f0_grows_first(capsys):
    # a(a-c+1)/x > 1 at the first nodes past x = 80: M(a; c; -x) comes from the series
    code, out, _ = run(capsys, "measure", "--check=kummer", "--a=8.919283741933771",
                       "--b=3.9247335914814125", "--c=0.744110656039257")
    assert code == 0
    assert json.loads(out)["rel_error"] <= 1e-6


def test_measure_kummer_invalid_exits_2(capsys):
    code, _, err = run(capsys, "measure", "--check", "kummer",
                       "--a", "1", "--b", "2", "--c", "4")
    assert code == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("option, names", [("--abs-tol=1e-300", "R = "),
                                           ("--r-max=1e300", "R = 1.000e+300")])
def test_extreme_tolerance_or_radius_is_a_quadrature_verdict(capsys, option, names):
    # both once ended in a bare OverflowError, from the tail cutoff and from the integrand
    code, out, err = run(capsys, "measure", "--k=2", "--l=7", option)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and names in err and "OverflowError" not in err


def test_no_request_imports_scipy():
    # the quadrature is the package's own; scipy alone took about 50 MB of a request's RSS
    script = """if True:
        import contextlib, io, sys
        import quadalg.cli
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["measure", "--k=2", "--l=7"],
                         ["measure", "--check=kummer", "--a=6", "--b=0.6", "--c=5.5"],
                         ["measure", "--check=bg-moments", "--k=1/2", "--l=1/4"]):
                assert quadalg.cli.main(argv) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """
    src = os.path.dirname(os.path.dirname(quadalg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_measure_moments(capsys):
    code, out, _ = run(capsys, "measure", "--check", "bg-moments",
                       "--k", "1/2", "--l", "1/4", "--max-n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,value,ratio_to_first"
    assert len(lines) == 5


def test_deform(capsys):
    code, out, _ = run(capsys, "deform", "--k", "1", "--l", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["scale_sq"] == "2"
    assert doc["f_poly_coeffs"] == ["1", "-1/2", "-3/2"]
    assert doc["passed"] is True

    code2, out2, _ = run(capsys, "deform", "--fermion")
    assert code2 == 0
    assert json.loads(out2)["passed"] is True


def test_max_dim_cap(capsys, monkeypatch):
    monkeypatch.setenv("QUADALG_MAX_DIM", "8")
    code, _, err = run(capsys, "rep", "--sector", "noncompact",
                       "--k", "1/2", "--l", "1/4", "--dim", "100")
    assert code == 2
    assert "QUADALG_MAX_DIM" in err


def test_max_dim_cap_applies_to_verify(capsys, monkeypatch):
    # 9^3 = 729 Fock states: rejected before the Fock space is built
    monkeypatch.setenv("QUADALG_MAX_DIM", "100")

    def no_allocation(*args, **kwargs):
        raise AssertionError("FockSpace built despite the dimension cap")

    monkeypatch.setattr(fock3, "FockSpace", no_allocation)
    code, out, err = run(capsys, "verify", "--sector", "compact", "--cutoffs", "8")
    assert code == 2 and out == ""
    assert "729" in err and "QUADALG_MAX_DIM" in err


BG = ("coherent", "--family=bg", "--k=1/2", "--l=1/4")
KUMMER = ("measure", "--check=kummer", "--a=3", "--b=1", "--c=4")
NON_FINITE = [pytest.param((*BG, f"--param={p}"), id=p) for p in ["nan", "inf", "-inf+1j", "1+nanj"]]
NON_FINITE += [
    pytest.param(("verify", "--sector=compact", "--cutoffs=6", f"--tol={x}"), id=f"verify-tol-{x}")
    for x in ["nan", "inf"]
] + [
    pytest.param(("deform", "--k=1", "--l=1", "--tol=nan"), id="deform-tol-nan"),
    pytest.param((*KUMMER, "--tol=-inf"), id="measure-tol--inf"),
    pytest.param((*KUMMER, "--abs-tol=nan"), id="abs-tol-nan"),
    pytest.param((*KUMMER, "--rel-tol=inf"), id="rel-tol-inf"),
    pytest.param(("measure", "--k=1", "--l=1", "--r-max=nan"), id="r-max-nan"),
    pytest.param(("measure", "--check=kummer", "--a=nan", "--b=1", "--c=4"), id="a-nan"),
    pytest.param(("measure", "--check=kummer", "--a=3", "--b=inf", "--c=4"), id="b-inf"),
    pytest.param(("measure", "--check=kummer", "--a=3", "--b=1", "--c=1e400"), id="c-1e400"),
]


@pytest.mark.parametrize("argv", NON_FINITE)
def test_non_finite_param_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "finite" in err and "Traceback" not in err


# tolerances and --tol thresholds must be >= 0, --abs-tol and --r-max > 0
RESOLUTION = ("measure", "--k=2", "--l=7")
OUT_OF_RANGE = [
    pytest.param(("measure", "--k", "2", "--l", "7", "--abs-tol", "-1"), id="abs-tol--1"),
    pytest.param((*KUMMER, "--abs-tol=-1"), id="kummer-abs-tol--1"),
    pytest.param((*KUMMER, "--rel-tol=-1"), id="kummer-rel-tol--1"),
    pytest.param((*RESOLUTION, "--abs-tol=0"), id="abs-tol-0"),
    pytest.param((*KUMMER, "--abs-tol=-0.0"), id="abs-tol--0.0"),
    pytest.param(("verify", "--sector=compact", "--cutoffs=6", "--tol=-1"), id="verify-tol--1"),
    pytest.param(("deform", "--k=1", "--l=1", "--tol", "-1e-300"), id="deform-tol--1e-300"),
    pytest.param((*RESOLUTION, "--tol=-1"), id="measure-tol--1"),
    pytest.param((*RESOLUTION, "--r-max", "-5"), id="r-max--5"),
    pytest.param((*KUMMER, "--r-max=0"), id="r-max-0"),
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE)
def test_out_of_range_tolerance_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "0, got" in err and "Traceback" not in err


def test_zero_rel_tol_keeps_the_absolute_target(capsys):
    # a relative tolerance of 0 must not rescale the absolute target to 0
    code, out, err = run(capsys, *KUMMER, "--rel-tol=0")
    assert code == 0 and err == ""
    assert json.loads(out)["rel_error"] <= 1e-6


# every site that used to replace an explicit 0 by its default size, or ignore it
ZERO_SIZE = {
    "rep-noncompact": ("rep", "--sector=noncompact", "--k=1/2", "--l=1/4", "--dim=0"),
    "casimir-su11": ("casimir", "--sector=su11", "--k=1/2", "--dim=0"),
    "diffcheck-su11": ("diffcheck", "--kind=su11", "--k=1/2", "--size=0"),
    "diffcheck-noncompactQ": ("diffcheck", "--kind=noncompactQ", "--k=1/2", "--l=1/4", "--size=0"),
    "perelomov-nc": ("coherent", "--family=perelomov-nc", "--k=1/2", "--l=1/4", "--param=0.5",
                     "--dim=0"),
    "bg": (*BG, "--param=0.5", "--dim=0"),
    "perelomov-c": ("coherent", "--family=perelomov-c", "--k=1/2", "--l=9/4", "--param=0.3",
                    "--dim=0"),
}
# a finite label's error names the dimension it fixes
ZERO_SIZE_ERROR = {"perelomov-c": "--dim 0 differs from the dimension 5 "}


@pytest.mark.parametrize("name", list(ZERO_SIZE))
def test_explicit_zero_dim_exits_2(capsys, name):
    code, out, err = run(capsys, *ZERO_SIZE[name])
    assert code == 2 and out == ""
    assert ZERO_SIZE_ERROR.get(name, "dimension must be >= 1") in err


def test_negative_max_n_exits_2(capsys):
    code, out, err = run(capsys, "measure", "--check=bg-moments", "--k=1/2", "--l=1/4",
                         "--max-n=-1")
    assert code == 2 and out == ""
    assert "non-negative" in err
    code, out, _ = run(capsys, "measure", "--check=bg-moments", "--k=1/2", "--l=1/4",
                       "--max-n=0")
    assert code == 0 and len(json.loads(out)) == 1


def test_arithmetic_error_exits_3(capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(coherent, "perelomov_noncompact", overflow)
    code, out, err = run(capsys, "coherent", "--family", "perelomov-nc", "--k", "1/2",
                         "--l", "1/4", "--param", "0.9", "--dim", "40")
    assert code == 3 and out == ""
    assert err.startswith("error: OverflowError") and err.count("\n") == 1
    assert "Traceback" not in err


NAN_PROBE = ("coherent", "--family=perelomov-c", "--k=1/2", "--l=9/4", "--param=0.5")


@pytest.mark.parametrize("fmt, path", [("json", "norm_constant"), ("csv", "[0].re")])
def test_non_finite_output_exits_3(capsys, monkeypatch, fmt, path):
    def nan_state(label, parameter, form="alpha"):
        return coherent.CoherentState(
            family="PerelomovC", label=label, parameter=complex(parameter),
            coeffs=np.full(label.dim, math.nan, dtype=complex), norm_constant=math.nan,
            truncation=label.dim, divergence_flag=False)

    monkeypatch.setattr(coherent, "perelomov_compact", nan_state)
    code, out, err = run(capsys, *NAN_PROBE, f"--format={fmt}")
    assert code == 3 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and errors[0].endswith(f"at {path}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("--family=perelomov-c", "--k=1/2", "--l=501/4", "--param=0.5"),
    ("--family=perelomov-c", "--k=1/2", "--l=751/4", "--param=0.5"),
    ("--family=perelomov-c", "--k=1/2", "--l=801/4", "--param=0.5"),
    ("--family=perelomov-nc", "--k=1/2", "--l=1/4", "--param=0.9", "--dim=4000"),
])
def test_norm_past_the_doubles_exits_0(capsys, argv):
    # these norms once overflowed (exit 3); the log of the squared norm stays finite
    code, out, err = run(capsys, "coherent", *argv)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["norm_constant"] is None or doc["norm_constant"] >= sys.float_info.min
    assert math.isfinite(doc["provenance"]["log_norm_sq"]) and doc["unit_norm_error"] < 1e-12


# argparse reads a negative value given as its own token as an option
NEGATIVE_TOKENS = {
    "casimir-l": (("casimir", "--sector", "noncompact", "--k", "3/2", "--l", "-1/4", "--dim", "8"),
                  ("casimir", "--sector=noncompact", "--k=3/2", "--l=-1/4", "--dim=8")),
    "coherent-param": (("coherent", "--family=perelomov-c", "--k=1", "--l=3/2", "--param",
                        "-0.1+0.3j"),
                       ("coherent", "--family=perelomov-c", "--k=1", "--l=3/2",
                        "--param=-0.1+0.3j")),
}


@pytest.mark.parametrize("apart, joined", list(NEGATIVE_TOKENS.values()), ids=list(NEGATIVE_TOKENS))
def test_negative_value_as_separate_token(capsys, apart, joined):
    want = run(capsys, *joined)
    assert want[0] == 0
    assert run(capsys, *apart) == want


# every option of the command table that takes no value, and the options its command needs
FLAGS = [(command, flag) for command, (_, _, options) in COMMANDS.items()
         for flag, kwargs in options if kwargs.get("action") == "store_true"]
NEEDS = {"coherent": ("--family=perelomov-c", "--k=1", "--l=3/2", "--param=0.3"), "deform": ()}


@pytest.mark.parametrize("command, flag", FLAGS, ids=[flag for _, flag in FLAGS])
def test_flag_does_not_take_a_negative_value(capsys, command, flag):
    code, out, err = run(capsys, command, *NEEDS[command], flag, "-1")
    assert code == 2 and out == ""
    assert "unrecognized arguments: -1" in err


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


MISSING_LABEL = [
    ("measure",),
    ("measure", "--check=bg-moments"),
    ("deform",),
    ("deform", "--k=1/2"),
    ("diffcheck", "--kind=compactQ"),
    ("diffcheck", "--kind=noncompactQ", "--k=1/2"),
]


@pytest.mark.parametrize("argv", MISSING_LABEL, ids=" ".join)
def test_missing_label_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# every site where a label, not a size option, fixes the dimension
LABEL_SIZED = {
    "rep-su2": ("rep", "--sector=su2", "--j=20"),
    "casimir-su2": ("casimir", "--sector=su2", "--j=20"),
    "diffcheck-su2": ("diffcheck", "--kind=su2", "--j=20"),
    "diffcheck-compactQ": ("diffcheck", "--kind=compactQ", "--k=1/2", "--l=41/4"),
    "perelomov-c": ("coherent", "--family=perelomov-c", "--k=1/2", "--l=41/4", "--param=0.3"),
    "measure-resolution": ("measure", "--k=1/2", "--l=41/4"),
    "spectrum-to": ("spectrum", "--from=0", "--to=8"),
    "measure-max-n": ("measure", "--check=bg-moments", "--k=1/2", "--l=1/4", "--max-n=8"),
}


@pytest.mark.parametrize("argv", list(LABEL_SIZED.values()), ids=list(LABEL_SIZED))
def test_max_dim_cap_applies_to_label_dimensions(capsys, monkeypatch, argv):
    monkeypatch.setenv("QUADALG_MAX_DIM", "8")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "QUADALG_MAX_DIM" in err


# a size option on a label that fixes the dimension: (argv, the label's dimension)
FINITE_SIZED = {
    "rep-compact": (("rep", "--sector=compact", "--k=1", "--l=1", "--dim=5"), 2),
    "casimir-compact": (("casimir", "--sector=compact", "--k=1/2", "--l=9/4", "--dim=4"), 5),
    "rep-su2": (("rep", "--sector=su2", "--j=3/2", "--dim=3"), 4),
    "casimir-su2": (("casimir", "--sector=su2", "--j=0", "--dim=16"), 1),
    "diffcheck-compactQ": (("diffcheck", "--kind=compactQ", "--k=1", "--l=1", "--size=5"), 2),
    "diffcheck-su2": (("diffcheck", "--kind=su2", "--j=7/2", "--size=0"), 8),
    "coherent-perelomov-c": (("coherent", "--family=perelomov-c", "--k=1/2", "--l=9/4",
                              "--param=0.3", "--dim=50"), 5),
}


@pytest.mark.parametrize("argv, dim", list(FINITE_SIZED.values()), ids=list(FINITE_SIZED))
def test_size_option_other_than_the_label_dimension_exits_2(capsys, argv, dim):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"dimension {dim} " in err
    # the same option repeating the label's dimension is accepted
    option = argv[-1].split("=")[0]
    code, out, _ = run(capsys, *argv[:-1], f"{option}={dim}")
    assert code == 0 and out == run(capsys, *argv[:-1])[1]


# valid and invalid labels; sizes stay small (dims <= 40, cutoffs <= 3, levels <= 10,
# --max-n <= 8) so that every generated request finishes in milliseconds
LABELS = ["0", "1/4", "1/2", "1/3", "3/4", "1", "3/2", "9/4", "5/2", "41/4", "-1/4"]


def _opt(name, values):
    """``--name=value`` or ``--name value`` for a drawn value, or nothing."""
    joined = st.sampled_from(values).map(lambda v: (f"--{name}={v}",))
    apart = st.sampled_from(values).map(lambda v: (f"--{name}", str(v)))
    return st.one_of(st.just(()), joined, apart)


def _argv(command, *options):
    """``command`` followed by the drawn options, ``--format`` among them."""
    options += (_opt("format", ["json", "csv"]),)
    return st.tuples(*options).map(lambda opts: [command, *(o for opt in opts for o in opt)])


SECTOR = ["compact", "noncompact", "su2", "su11"]
LABEL_OPTS = (_opt("k", LABELS), _opt("l", LABELS), _opt("j", LABELS))
ARGV = st.one_of(
    _argv("rep", _opt("sector", SECTOR), *LABEL_OPTS, _opt("dim", [0, 1, 5, 40])),
    _argv("casimir", _opt("sector", SECTOR), *LABEL_OPTS, _opt("dim", [0, 1, 5, 40])),
    _argv("verify", _opt("sector", SECTOR), _opt("cutoffs", ["1", "3", "2,3", "1,2,3"])),
    _argv("diffcheck", _opt("kind", ["su2", "su11", "compactQ", "noncompactQ"]), *LABEL_OPTS,
          _opt("size", [0, 1, 5, 40])),
    _argv("coherent", _opt("family", ["bg", "perelomov-nc", "perelomov-c"]),
          _opt("k", LABELS), _opt("l", LABELS), _opt("param", ["0", "0.3", "0.5+0.5j", "3"]),
          _opt("dim", [0, 1, 8, 40]), st.sampled_from([(), ("--gamma-form",)])),
    _argv("measure", _opt("check", ["resolution", "kummer", "bg-moments", "perelomov-moments"]),
          _opt("k", LABELS), _opt("l", LABELS), _opt("a", [1, 3]), _opt("b", [1, 2]),
          _opt("c", [2, 4]), _opt("max-n", [0, 3, 8]), _opt("tol", [0, 1e-6])),
    _argv("spectrum", _opt("from", [-1, 0, 3, 10]), _opt("to", [0, 5, 10])),
    _argv("deform", _opt("k", LABELS), _opt("l", LABELS), _opt("tol", [0, 1e-10]),
          st.sampled_from([(), ("--fermion",)])),
)


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_generated_argv_never_tracebacks(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
