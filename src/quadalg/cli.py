"""Command-line front end.

All subcommands write machine-readable output to stdout (JSON by default,
CSV with ``--format csv``) and diagnostics to stderr.  Each subcommand
handler returns one result ``(doc, (header, rows), code)``: the JSON
document, the CSV table and the exit code.  :func:`main` renders the part
``--format`` asks for and is the only writer of stdout; handlers defer work
that only the other format needs.  Exit codes: 0 on success, 2 on
validation errors (unknown flags, missing or malformed labels, non-finite
parameters, a --tol or --rel-tol < 0, an --abs-tol or --r-max <= 0), 3 on
numerical-tolerance failures, on arithmetic errors such as overflow and on
a non-finite value in the output (stdout stays empty).  k and l are parsed
as exact fractions ("3/2"), never as floats; a negative value may follow
its option as a separate token (``--l -1/4``).  Output is byte-deterministic
for fixed inputs: ordering is fixed and floats are printed with 17
significant digits.

The environment variable QUADALG_MAX_DIM (default 4096) caps every
dimension a label or option fixes: truncation dimensions, the dimension of
compact and su2 representations, the number of Fock states of ``verify``,
the levels 0..--to of ``spectrum`` and the moments 0..--max-n of
``measure``.  A request past the cap exits 2 before anything is built, and
so does a size option other than the dimension a label fixes: ``--dim`` of
``rep``, ``casimir`` and ``coherent`` or ``--size`` of ``diffcheck`` on a
compact or su2 label.
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

from . import coherent, defosc, diffreal, fock3, measures, polyalg, reps, spectrum
from .errors import InvalidLabelError, NumericalToleranceError
from .output import JSONFragment, json_dumps, write_csv

DEFAULT_MAX_DIM = 4096
REP_DIM = {"su11": 8}  # the default truncation of an infinite ``rep``/``casimir`` label
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


def _nonneg_float(text: str, strict: bool = False) -> float:
    x = _finite_float(text)
    if x < 0 or strict and x == 0:
        raise argparse.ArgumentTypeError(f"expected a number {'>' if strict else '>='} 0, "
                                         f"got {text!r}")
    return x


def _positive_float(text: str) -> float:
    return _nonneg_float(text, strict=True)


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


def _fraction_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a positive ``den``, with no Fraction built."""
    g = math.gcd(num, den)
    return f"{num // g}" if g == den else f"{num // g}/{den // g}"


def _check_dim(dim: int, what: str = "dimension") -> int:
    cap = _max_dim()
    if dim > cap:
        raise InvalidLabelError(f"{what} {dim} exceeds QUADALG_MAX_DIM = {cap}")
    if dim < 1:
        raise InvalidLabelError(f"{what} must be >= 1")
    return dim


def _label(args, sector: str) -> reps.Label:
    """The label the options fix in ``sector``; a finite representation must fit the cap."""
    names = reps.ALGEBRAS[sector].names
    values = {name: getattr(args, name) for name in names}
    if None in values.values():
        flags = " and ".join(f"--{name}" for name in names)
        raise InvalidLabelError(f"{flags} {'is' if len(names) == 1 else 'are'} required "
                                f"for a {sector} label")
    label = reps.Label(sector, **values)
    if reps.ALGEBRAS[sector].finite:
        _check_dim(label.dim)
    return label


def _sized_label(args, sector: str, option: str, default: int | None) -> tuple:
    """The label the options fix and its dimension: a finite label's own, which ``--option``
    may only repeat, else ``--option`` or ``default`` under the cap (None if both are)."""
    label, dim = _label(args, sector), getattr(args, option)
    if reps.ALGEBRAS[sector].finite:
        if dim is not None and dim != label.dim:
            raise InvalidLabelError(f"--{option} {dim} differs from the dimension {label.dim} "
                                    f"that the {sector} label fixes")
        return label, label.dim
    dim = default if dim is None else dim
    return label, None if dim is None else _check_dim(dim)


def _fields(doc: dict, code: int):
    """A flat document whose CSV form is one (field, value) row per key."""
    return doc, (("field", "value"), doc.items()), code


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (JSON document, (CSV header, CSV rows), exit code)


def _cmd_rep(args):
    rep = reps.ladder_rep(*_sized_label(args, args.sector, "dim", REP_DIM.get(args.sector, 16)))
    doc = reps.rep_to_dict(rep) if args.format == "json" else None
    rows = zip(range(rep.dim), rep.diag.tolist(), rep.raising.tolist() + [0.0])
    return doc, (("n", "q0", "raise_to_next"), rows), 0


def _cmd_casimir(args):
    rep = reps.ladder_rep(*_sized_label(args, args.sector, "dim", REP_DIM.get(args.sector, 16)))
    report = reps.casimir_value(rep)
    doc = reps.label_fields(rep)
    doc["structure_coeffs"] = [str(c) for c in reps.structure_poly(rep.label).coeffs]
    doc["casimir_poly_coeffs"] = [str(c) for c in reps.casimir_poly(rep.label).coeffs]
    doc["convention"] = polyalg.CASIMIR_CONVENTION
    doc["value"] = report.value
    doc["max_deviation"] = report.max_deviation
    doc["exact"] = str(report.exact_value)
    doc["reference"] = str(report.reference_value)
    doc["matches_reference"] = report.matches_reference
    return _fields(doc, 0)


def _cmd_verify(args):
    cuts = args.cutoffs
    modes = len(fock3.SECTORS[args.sector].move)
    if len(cuts) == 1:
        cuts = cuts * modes
    if len(cuts) != modes:
        raise InvalidLabelError(f"sector {args.sector} needs {modes} cutoffs, got {len(cuts)}")
    _check_dim(math.prod(c + 1 for c in cuts))
    report = fock3.verify_realization(fock3.realize(args.sector, fock3.FockSpace(cuts)))
    doc = report.to_dict()
    doc["tol"] = args.tol
    doc["passed"] = report.max_residual <= args.tol and report.interior_count > 0
    if report.interior_count == 0:
        print("warning: no interior states at these cutoffs", file=sys.stderr)
    rows = sorted(report.residuals.items())
    return doc, (("relation", "residual"), rows), 0 if doc["passed"] else 3


def _cmd_diffcheck(args):
    rep = reps.ladder_rep(*_sized_label(args, DIFF_SECTORS[args.kind], "size", 8))
    real = diffreal.build_realization(args.kind, rep.label, rep.dim if rep.truncated else None)
    bands, off_diag_clean = diffreal.band_elements(real)
    # sign(x) x^2 of a reduced p/q is the reduced p|p|/q^2
    agree = {
        "q0": [(x.numerator, x.denominator) for x in bands["q0"]]
        == [(x.numerator * abs(x.numerator), x.denominator ** 2) for x in rep.q0_diag],
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
    label, dim = _sized_label(args, "compact" if args.family == "perelomov-c" else "noncompact",
                              "dim", 16 if args.family == "perelomov-nc" else None)
    extra = {}
    if args.family == "bg":
        state = coherent.bg_state(label, args.param, dim=dim, max_dim=_max_dim())
        rep = reps.ladder_rep(label, state.truncation)
        # |qm c - param c|, relative to |param| unless it is 0; (qm c)[n] = raising[n] c[n+1]
        lowered = np.append(rep.raising * state.coeffs[1:], 0.0)
        resid = np.linalg.norm(lowered - args.param * state.coeffs) / (abs(args.param) or 1.0)
        extra["eigen_residual"] = float(resid)
    elif args.family == "perelomov-nc":
        state = coherent.perelomov_noncompact(label, args.param, dim)
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
        fn = (measures.bg_moment_targets if args.check == "bg-moments"
              else measures.perelomov_moment_targets)
        targets = fn(label, args.max_n)
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
    # the text of every label k = 2k/2 the window's pieces can carry
    k_text = [_fraction_text(twok, 2) for twok in range(args.to + 2)]
    doc = (
        {
            "N": r.N, "l": _fraction_text(r.N + 1, 4),
            "degeneracy": {"reptheory": r.degeneracy_reptheory,
                           "formula": r.degeneracy_formula,
                           "bruteforce": r.degeneracy_bruteforce},
            "partitions": {"reptheory": r.partitions_reptheory,
                           "formula": r.partitions_formula,
                           "bruteforce": r.partitions_bruteforce},
            "parts": JSONFragment("[" + ", ".join([
                f'{{"k": "{k_text[twok]}", "dim": {dim}, "multiplicity": {mult}}}'
                for twok, dim, mult in spectrum.level_parts(r.N)]) + "]"),
            "consistent": r.consistent,
        }
        for r in reports
    )
    rows = ((r.N, r.degeneracy_formula, r.partitions_formula, ";".join(
        [f"{k_text[twok]}:{dim}:{mult}" for twok, dim, mult in spectrum.level_parts(r.N)]))
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
    osc = defosc.deform(reps.ladder_rep(label))
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
# The command table: each subcommand's handler, help and options in ``--help`` order,
# each option with its ``add_argument`` keywords; every subcommand also takes ``--format``.

K, L, J = ((f"--{name}", {"type": _frac}) for name in "klj")  # the label options
SECTOR = ("--sector", {"choices": tuple(reps.ALGEBRAS), "required": True})
LADDER = (SECTOR, K, L, J, ("--dim", {"type": int}))
TOL = ("--tol", {"type": _nonneg_float, "default": 1e-10})
FORMAT = ("--format", {"choices": ("json", "csv"), "default": "json"})

COMMANDS = {
    "rep": (_cmd_rep, "build a representation and print it", LADDER),
    "casimir": (_cmd_casimir, "structure/Casimir polynomials and scalar value", LADDER),
    "verify": (_cmd_verify, "verify a bosonic realization on a truncated Fock space", (
        SECTOR,
        ("--cutoffs", {"type": _cutoffs, "default": (8,),
                       "help": "per-mode cutoffs, e.g. '8' or '8,8,8'"}),
        TOL)),
    "diffcheck": (_cmd_diffcheck, "differential realization vs matrix representation", (
        ("--kind", {"choices": tuple(DIFF_SECTORS), "required": True}),
        K, L, J,
        ("--size", {"type": int}))),
    "coherent": (_cmd_coherent, "coherent-state coefficients and normalization", (
        ("--family", {"choices": ("bg", "perelomov-nc", "perelomov-c"), "required": True}),
        *((flag, {**kwargs, "required": True}) for flag, kwargs in (K, L)),
        ("--param", {"type": _complex, "required": True,
                     "help": "state parameter, e.g. '0.5' or '1+1j'"}),
        ("--dim", {"type": int}),
        ("--gamma-form", {"action": "store_true",
                          "help": "use the inverse-parameter form of the compact family"}))),
    "measure": (_cmd_measure, "moment targets and resolution-of-identity checks", (
        ("--check", {"choices": ("resolution", "kummer", "bg-moments", "perelomov-moments"),
                     "default": "resolution"}),
        K, L,
        *((f"--{name}", {"type": _finite_float}) for name in "abc"),
        ("--max-n", {"type": _count, "default": 5}),
        ("--abs-tol", {"type": _positive_float, "default": 1e-9}),
        ("--rel-tol", {"type": _nonneg_float, "default": 1e-8}),
        ("--r-max", {"type": _positive_float}),
        ("--tol", {"type": _nonneg_float, "default": 1e-6,
                   "help": "acceptance threshold on deviations (exit 3 beyond)"}))),
    "spectrum": (_cmd_spectrum, "level degeneracies and partition counts", (
        ("--from", {"dest": "from_", "type": int, "required": True}),
        ("--to", {"type": int, "required": True}))),
    "deform": (_cmd_deform, "deformed-oscillator form of a compact representation", (
        K, L,
        ("--fermion", {"action": "store_true", "help": "run the canonical fermion check"}),
        TOL)),
}

# ``--`` and the options that take no value: a number after one of them is not its value
NO_VALUE = {"--", "--help"} | {flag for _, _, options in COMMANDS.values()
                               for flag, kwargs in options if kwargs.get("action") == "store_true"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadalg",
        description="Quadratic algebras from three bosonic modes: representations, "
                    "coherent states, measures, and oscillator degeneracies.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag, kwargs in (*options, FORMAT):
            p.add_argument(flag, **kwargs)
    return parser


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
                and out[-1] not in NO_VALUE):
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
