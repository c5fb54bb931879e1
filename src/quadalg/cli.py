"""Command-line front end.

All subcommands write machine-readable output to stdout (JSON by default,
CSV with ``--format csv``) and diagnostics to stderr.  Each subcommand
handler returns one result ``(doc, (header, rows), code)``: the JSON
document, the CSV table and the exit code.  :func:`main` renders the part
``--format`` asks for and is the only writer of stdout; handlers defer work
that only the other format needs.  Exit codes: 0 on success, 2 on
validation errors (including unknown flags, missing or malformed labels and
non-finite parameters), 3 on numerical-tolerance failures, on arithmetic
errors such as overflow and on a non-finite value in the output (stdout
stays empty).  k and l are parsed as exact fractions ("3/2"), never as
floats; a negative value may follow its option as a separate token
(``--l -1/4``).  Output is byte-deterministic for fixed inputs: ordering
is fixed and floats are printed with 17 significant digits.

The environment variable QUADALG_MAX_DIM (default 4096) caps every
dimension a label or option fixes: truncation dimensions, the dimension of
compact and su2 representations, the number of Fock states of ``verify``,
the levels 0..--to of ``spectrum`` and the moments 0..--max-n of
``measure``.  A request past the cap exits 2 before anything is built.
"""

from __future__ import annotations

import argparse
import cmath
import io
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import coherent, defosc, diffreal, fock3, measures, reps, spectrum
from .errors import InvalidLabelError, NumericalToleranceError
from .output import json_dumps, write_csv

DEFAULT_MAX_DIM = 4096
SECTORS = ("compact", "noncompact", "su2", "su11")
DIFF_SECTORS = {"su2": "su2", "su11": "su11", "compactQ": "compact", "noncompactQ": "noncompact"}


def _max_dim() -> int:
    raw = os.environ.get("QUADALG_MAX_DIM", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_DIM
    except ValueError:
        raise InvalidLabelError(f"QUADALG_MAX_DIM must be an integer, got {raw!r}")


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected an exact fraction like '3/2', got {text!r}")


def _complex(text: str) -> complex:
    try:
        z = complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a complex number like '1+2j', got {text!r}")
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected a finite complex number, got {text!r}")
    return z


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number like '1e-8', got {text!r}")
    return x


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _cutoffs(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected cutoffs like '8' or '8,8,8', got {text!r}")
    if not parts or any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError("cutoffs must be positive")
    return parts


def _check_dim(dim: int, what: str = "dimension") -> int:
    cap = _max_dim()
    if dim > cap:
        raise InvalidLabelError(f"{what} {dim} exceeds QUADALG_MAX_DIM = {cap}")
    if dim < 1:
        raise InvalidLabelError(f"{what} must be >= 1")
    return dim


def _label(args, sector: str) -> reps.AlgebraLabel:
    """The label of ``--k``/``--l`` in ``sector``; a compact one must fit the cap."""
    if args.k is None or args.l is None:
        raise InvalidLabelError(f"--k and --l are required for a {sector} label")
    label = reps.AlgebraLabel(args.k, args.l, sector)
    if sector == "compact":
        _check_dim(label.dim)
    return label


def _build_rep(args, sector: str, dim: int | None, default_dim: int) -> reps.Representation:
    """The representation the label options fix, truncated to ``dim`` if infinite."""
    if sector == "su2":
        if args.j is None:
            raise InvalidLabelError("--j is required for sector su2")
        _check_dim(int(2 * reps.Su2Label(args.j).j) + 1)
        return reps.su2_rep(args.j)
    if sector == "su11":
        if args.k is None:
            raise InvalidLabelError("--k is required for sector su11")
        return reps.su11_rep(args.k, _check_dim(default_dim if dim is None else dim))
    label = _label(args, sector)
    if sector == "compact":
        return reps.compact_rep(label)
    return reps.noncompact_rep(label, _check_dim(default_dim if dim is None else dim))


def _fields(doc: dict, code: int):
    """A flat document whose CSV form is one (field, value) row per key."""
    return doc, (("field", "value"), doc.items()), code


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (JSON document, (CSV header, CSV rows), exit code)


def _cmd_rep(args):
    rep = _build_rep(args, args.sector, args.dim, 8 if args.sector == "su11" else 16)
    doc = reps.rep_to_dict(rep) if args.format == "json" else None
    rows = zip(range(rep.dim), rep.diag.tolist(), rep.raising.tolist() + [0.0])
    return doc, (("n", "q0", "raise_to_next"), rows), 0


def _cmd_casimir(args):
    rep = _build_rep(args, args.sector, args.dim, 8 if args.sector == "su11" else 16)
    report = reps.casimir_value(rep)
    doc = reps.label_fields(rep)
    doc["structure_coeffs"] = [str(c) for c in reps.structure_poly(rep).coeffs]
    doc["casimir_poly_coeffs"] = [str(c) for c in reps.casimir_poly(rep).poly.coeffs]
    doc["convention"] = report.convention_note
    doc["value"] = report.value
    doc["max_deviation"] = report.max_deviation
    doc["exact"] = str(report.exact_value)
    doc["reference"] = str(report.reference_value)
    doc["matches_reference"] = report.matches_reference
    return _fields(doc, 0)


def _cmd_verify(args):
    cuts = args.cutoffs
    modes = 2 if args.sector in ("su2", "su11") else 3
    if len(cuts) == 1:
        cuts = cuts * modes
    if len(cuts) != modes:
        raise InvalidLabelError(f"sector {args.sector} needs {modes} cutoffs, got {len(cuts)}")
    _check_dim(math.prod(c + 1 for c in cuts))
    space = fock3.FockSpace(cuts)
    if args.sector == "compact":
        ops = fock3.realize_compact(space)
    elif args.sector == "noncompact":
        ops = fock3.realize_noncompact(space)
    else:
        ops = fock3.realize_two_mode(args.sector, space)
    report = fock3.verify_realization(ops)
    doc = report.to_dict()
    doc["tol"] = args.tol
    doc["passed"] = report.max_residual <= args.tol and report.interior_count > 0
    if report.interior_count == 0:
        print("warning: no interior states at these cutoffs", file=sys.stderr)
    rows = sorted(report.residuals.items())
    return doc, (("relation", "residual"), rows), 0 if doc["passed"] else 3


def _cmd_diffcheck(args):
    rep = _build_rep(args, DIFF_SECTORS[args.kind], args.size, 8)
    real = diffreal.build_realization(args.kind, rep.label, rep.dim if rep.truncated else None)
    bands, off_diag_clean = diffreal.band_elements(real)
    agree = {
        "q0": bands["q0"] == tuple(diffreal.signed_square(x) for x in rep.q0_diag),
        "qp": bands["qp"] == rep.qp_sq,
        "qm": bands["qm"] == rep.qp_sq,
    }
    doc = {
        "kind": args.kind,
        "size": rep.dim,
        "agree": agree,
        "off_diagonal_clean": off_diag_clean,
        "equal": all(agree.values()) and off_diag_clean,
    }
    rows = [(g, "agree", str(agree[g]).lower()) for g in ("q0", "qp", "qm")]
    rows.append(("all", "equal", str(doc["equal"]).lower()))
    return doc, (("generator", "check", "result"), rows), 0 if doc["equal"] else 3


def _cmd_coherent(args):
    label = _label(args, "compact" if args.family == "perelomov-c" else "noncompact")
    extra = {}
    if args.family == "bg":
        dim = None if args.dim is None else _check_dim(args.dim)
        state = coherent.bg_state(label, args.param, dim=dim, max_dim=_max_dim())
        rep = reps.noncompact_rep(label, state.truncation)
        # |qm c - param c|, relative to |param| unless it is 0; (qm c)[n] = raising[n] c[n+1]
        lowered = np.append(rep.raising * state.coeffs[1:], 0.0)
        resid = np.linalg.norm(lowered - args.param * state.coeffs) / (abs(args.param) or 1.0)
        extra["eigen_residual"] = float(resid)
    elif args.family == "perelomov-nc":
        state = coherent.perelomov_noncompact(label, args.param,
                                              _check_dim(16 if args.dim is None else args.dim))
    else:
        state = coherent.perelomov_compact(label, args.param,
                                           form="gamma" if args.gamma_form else "alpha")
    doc = {
        "family": state.family,
        "k": str(label.k),
        "l": str(label.l),
        "parameter": state.parameter,
        "dim": state.truncation,
        "norm_constant": state.norm_constant,
        "unit_norm_error": abs(state.norm - 1.0),
        "divergence_flag": state.divergence_flag,
    }
    doc.update(extra)
    doc["provenance"] = state.provenance
    rows = ((n, c.real, c.imag, abs(c) ** 2) for n, c in enumerate(state.coeffs))
    return doc, (("n", "re", "im", "abs2"), rows), 0


def _cmd_measure(args):
    spec = measures.QuadratureSpec(r_max=args.r_max, abs_tol=args.abs_tol,
                                   rel_tol=args.rel_tol)
    if args.check == "kummer":
        if args.a is None or args.b is None or args.c is None:
            raise InvalidLabelError("--a, --b and --c are required for the kummer check")
        res = measures.kummer_integral_check(args.a, args.b, args.c, spec)
        doc = {
            "a": res.a, "b": res.b, "c": res.c,
            "numeric": res.numeric, "analytic": res.analytic,
            "abs_error": res.abs_error, "rel_error": res.rel_error,
            "quadrature": {"R": res.r_max, "evals": res.evals},
        }
        rows = [(res.a, res.b, res.c, res.numeric, res.analytic, res.rel_error)]
        return (doc, (("a", "b", "c", "numeric", "analytic", "rel_error"), rows),
                0 if res.rel_error <= args.tol else 3)
    if args.check in ("bg-moments", "perelomov-moments"):
        _check_dim(args.max_n + 1, "moment count")
        label = _label(args, "noncompact")
        fn = (measures.bg_moment_target if args.check == "bg-moments"
              else measures.perelomov_moment_target)
        targets = [fn(label, n) for n in range(args.max_n + 1)]
        doc = ({"k": str(label.k), "l": str(label.l), "n": t.n, "value": t.value,
                "ratio_to_first": str(t.ratio_to_first)} for t in targets)
        rows = ((t.n, t.value, t.ratio_to_first) for t in targets)
        return doc, (("n", "value", "ratio_to_first"), rows), 0
    label = _label(args, "compact")
    report = measures.verify_compact_resolution(label, spec)
    rows = ((label.k, label.l, c.n, c.moment, c.deviation, c.r_max, c.evals)
            for c in report.checks)
    return (report.to_dicts(), (("k", "l", "n", "moment", "deviation", "R", "evals"), rows),
            0 if report.max_deviation <= args.tol else 3)


def _cmd_spectrum(args):
    if args.to < args.from_ or args.from_ < 0:
        raise InvalidLabelError("need 0 <= --from <= --to")
    _check_dim(args.to + 1, "level count")
    reports = [spectrum.level_report(n) for n in range(args.from_, args.to + 1)]
    doc = (
        {
            "N": r.N, "l": str(r.l),
            "degeneracy": {"reptheory": r.degeneracy_reptheory,
                           "formula": r.degeneracy_formula,
                           "bruteforce": r.degeneracy_bruteforce},
            "partitions": {"reptheory": r.partitions_reptheory,
                           "formula": r.partitions_formula,
                           "bruteforce": r.partitions_bruteforce},
            "parts": [{"k": str(p.k), "dim": p.dim, "multiplicity": p.multiplicity}
                      for p in r.parts],
            "consistent": r.consistent,
        }
        for r in reports
    )
    rows = ((r.N, r.degeneracy_formula, r.partitions_formula, r.parts_string())
            for r in reports)
    code = 0 if all(r.consistent for r in reports) else 3
    return doc, (("N", "degeneracy", "partitions", "parts"), rows), code


def _cmd_deform(args):
    if args.fermion:
        check = defosc.fermion_check()
        return _fields({
            "fermion": True,
            "relations_exact": check.relations_exact,
            "nilpotent": check.nilpotent,
            "matches_deformed_rep": check.matches_deformed_rep,
            "passed": check.passed,
            "rhs_poly_coeffs": [str(c) for c in check.rhs_poly.coeffs],
        }, 0 if check.passed else 3)
    label = _label(args, "compact")
    osc = defosc.deform(reps.compact_rep(label))
    residuals = defosc.commutator_residuals(osc)
    passed = max(residuals.values()) <= args.tol
    return _fields({
        "k": str(label.k), "l": str(label.l), "dim": label.dim,
        "scale_sq": str(osc.scale_sq), "scale": osc.scale,
        "f_poly_coeffs": [str(c) for c in osc.f_poly.coeffs],
        "residuals": residuals,
        "tol": args.tol,
        "passed": passed,
    }, 0 if passed else 3)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadalg",
        description="Quadratic algebras from three bosonic modes: representations, "
                    "coherent states, measures, and oscillator degeneracies.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = []

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        commands.append(p)
        return p

    for name, func, help in (("rep", _cmd_rep, "build a representation and print it"),
                             ("casimir", _cmd_casimir,
                              "structure/Casimir polynomials and scalar value")):
        p = command(name, func, help)
        p.add_argument("--sector", choices=SECTORS, required=True)
        p.add_argument("--k", type=_frac)
        p.add_argument("--l", type=_frac)
        p.add_argument("--j", type=_frac)
        p.add_argument("--dim", type=int)

    p = command("verify", _cmd_verify, "verify a bosonic realization on a truncated Fock space")
    p.add_argument("--sector", choices=SECTORS, required=True)
    p.add_argument("--cutoffs", type=_cutoffs, default=(8,),
                   help="per-mode cutoffs, e.g. '8' or '8,8,8'")
    p.add_argument("--tol", type=_finite_float, default=1e-10)

    p = command("diffcheck", _cmd_diffcheck, "differential realization vs matrix representation")
    p.add_argument("--kind", choices=tuple(DIFF_SECTORS), required=True)
    p.add_argument("--k", type=_frac)
    p.add_argument("--l", type=_frac)
    p.add_argument("--j", type=_frac)
    p.add_argument("--size", type=int)

    p = command("coherent", _cmd_coherent, "coherent-state coefficients and normalization")
    p.add_argument("--family", choices=("bg", "perelomov-nc", "perelomov-c"), required=True)
    p.add_argument("--k", type=_frac, required=True)
    p.add_argument("--l", type=_frac, required=True)
    p.add_argument("--param", type=_complex, required=True,
                   help="state parameter, e.g. '0.5' or '1+1j'")
    p.add_argument("--dim", type=int)
    p.add_argument("--gamma-form", action="store_true",
                   help="use the inverse-parameter form of the compact family")

    p = command("measure", _cmd_measure, "moment targets and resolution-of-identity checks")
    p.add_argument("--check", choices=("resolution", "kummer", "bg-moments", "perelomov-moments"),
                   default="resolution")
    p.add_argument("--k", type=_frac)
    p.add_argument("--l", type=_frac)
    p.add_argument("--a", type=_finite_float)
    p.add_argument("--b", type=_finite_float)
    p.add_argument("--c", type=_finite_float)
    p.add_argument("--max-n", type=_count, default=5)
    p.add_argument("--abs-tol", type=_finite_float, default=1e-9)
    p.add_argument("--rel-tol", type=_finite_float, default=1e-8)
    p.add_argument("--r-max", type=_finite_float)
    p.add_argument("--tol", type=_finite_float, default=1e-6,
                   help="acceptance threshold on deviations (exit 3 beyond)")

    p = command("spectrum", _cmd_spectrum, "level degeneracies and partition counts")
    p.add_argument("--from", dest="from_", type=int, required=True)
    p.add_argument("--to", type=int, required=True)

    p = command("deform", _cmd_deform, "deformed-oscillator form of a compact representation")
    p.add_argument("--k", type=_frac)
    p.add_argument("--l", type=_frac)
    p.add_argument("--fermion", action="store_true", help="run the canonical fermion check")
    p.add_argument("--tol", type=_finite_float, default=1e-10)

    for p in commands:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


FLAGS = ("--gamma-form", "--fermion", "--help")


def _is_number(text: str) -> bool:
    for parse in (Fraction, complex):
        try:
            parse(text)
            return True
        except (ValueError, ZeroDivisionError):
            pass
    return False


def _join_negative_values(argv: list[str]) -> list[str]:
    """``--opt -1/4`` as ``--opt=-1/4``: argparse would read the value as an option."""
    out = []
    for token in argv:
        if (out and token.startswith("-") and _is_number(token)
                and out[-1].startswith("--") and "=" not in out[-1]
                and out[-1] not in ("--", *FLAGS)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc, (header, rows), code = args.func(args)
        if args.format == "json":
            text = json_dumps(doc) + "\n"
        else:
            buf = io.StringIO()
            write_csv(buf, header, rows)
            text = buf.getvalue()
    except (InvalidLabelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
