"""Output checks for every request the benchmark sends.

Each check re-derives the expected answer from the closed forms of the
paper (ladder squares, the Casimir antiderivative, level counts, moment
ratios, coherent-state norms in log space) without calling quadalg, and
returns ``(ok, reason, float_err)``.  ``float_err`` is the largest float
error the output reports against an exact counterpart, or 0.0 when the
output carries none.  Checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

# Residual tolerances the CLI applies by default; a correct output meets them.
VERIFY_TOL = 1e-10
DEFORM_TOL = 1e-10
MEASURE_TOL = 1e-6
# Coherent-state norms are float recurrences over at most a few thousand
# terms, so a correct norm constant agrees with the log-space sum to ~1e-13.
NORM_RTOL = 1e-9
MOMENT_RTOL = 1e-10


class CheckFailed(Exception):
    pass


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


# ---------------------------------------------------------------------------
# Closed forms


def ladder_data(p: dict) -> tuple[list, list]:
    """Exact diagonal entries and raising-entry squares of a ladder rep."""
    d, sector = p["dim"], p["sector"]
    if sector == "su2":
        j = p["j"]
        return [n - j for n in range(d)], [(n + 1) * (2 * j - n) for n in range(d - 1)]
    k = p["k"]
    if sector == "su11":
        return [k + n for n in range(d)], [(n + 1) * (2 * k + n) for n in range(d - 1)]
    l = p["l"]
    if sector == "compact":
        sq = [(n + 1) * (n + 2 * k) * (2 * l - n - k) for n in range(d - 1)]
    else:
        sq = [(n + 1) * (n + 2 * k) * (n + k - 2 * l + 1) for n in range(d - 1)]
    return [k - l + n for n in range(d)], sq


def structure_coeffs(p: dict) -> list:
    """[c0, c1, c2] of the structure polynomial, lowest order first."""
    sector = p["sector"]
    if sector == "su2":
        return [Fraction(0), Fraction(2), Fraction(0)]
    if sector == "su11":
        return [Fraction(0), Fraction(-2), Fraction(0)]
    k, l = p["k"], p["l"]
    kk = k * (1 - k)
    if sector == "compact":
        return [kk - l * (l + 1), 2 * l - 1, Fraction(3)]
    return [-(kk - l * (l - 1)), -(2 * l + 1), Fraction(-3)]


def antiderivative(c: list, x: Fraction) -> Fraction:
    """g(x) with g(x) - g(x-1) = c0 + c1 x + c2 x^2 and g(-1) = 0."""
    return (c[2] * x * (x + 1) * (2 * x + 1) / 6 + c[1] * x * (x + 1) / 2
            + c[0] * (x + 1))


def reference_casimir(p: dict) -> Fraction:
    sector = p["sector"]
    if sector == "su2":
        return p["j"] * (p["j"] + 1)
    k = p["k"]
    if sector == "su11":
        return k * (1 - k)
    l = p["l"]
    if sector == "compact":
        return l ** 3 + (l + 1) * (k * (1 - k) - 1) + 1
    return l * (l - k ** 2)


def _poly_strings(coeffs: list) -> list:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return [str(c) for c in cs]


def level_counts(N: int) -> tuple[int, int]:
    """Ordered and unordered solutions of n1 + n2 + 2 n3 = N, as O(N) sums."""
    ordered = sum(N - 2 * n3 + 1 for n3 in range(N // 2 + 1))
    unordered = sum((N - 2 * n3) // 2 + 1 for n3 in range(N // 2 + 1))
    return ordered, unordered


def _logsumexp(xs: list) -> float:
    top = max(xs)
    return top + math.log(math.fsum(math.exp(x - top) for x in xs))


def coherent_log_norm_sq(p: dict, dim: int) -> float:
    """log of the squared norm of the unnormalised coefficient vector."""
    k, s = float(p["k"]), _step(p)
    r2 = abs(p["param"]) ** 2
    lg = math.lgamma
    fam = p["family"]
    if fam == "bg":
        if r2 == 0.0:
            return 0.0
        terms, n = [], 0
        while True:
            t = (n * math.log(r2) - lg(n + 1) - (lg(2 * k + n) - lg(2 * k))
                 - (lg(s + 1 + n) - lg(s + 1)))
            terms.append(t)
            if n > 8 and t < max(terms) - 60.0:
                return _logsumexp(terms)
            n += 1
    logr2 = math.log(r2) if r2 > 0 else -math.inf
    if fam == "perelomov-nc":
        terms = [(n * logr2 if n else 0.0) + lg(2 * k + n) - lg(2 * k)
                 + lg(s + 1 + n) - lg(s + 1) - lg(n + 1) for n in range(dim)]
        return _logsumexp(terms)
    base = lambda n: (lg(s + 1) - lg(s - n + 1) - lg(n + 1))
    if not p["gamma"]:
        terms = [(n * logr2 if n else 0.0) + lg(2 * k + n) - lg(2 * k) + base(n)
                 for n in range(dim)]
    else:
        c0 = -s * logr2 + lg(s + 2 * k) - lg(2 * k)
        terms = [c0 + (n * logr2 if n else 0.0) + base(n) - (lg(s + 2 * k) - lg(s + 2 * k - n))
                 for n in range(dim)]
    return _logsumexp(terms)


def _step(p: dict) -> int:
    k, l = p["k"], p["l"]
    if p["family"] == "perelomov-c":
        return int(2 * l - k)
    return int(k - 2 * l)


# ---------------------------------------------------------------------------
# Checks per request kind


def _check_casimir_block(doc: dict, p: dict) -> float:
    c = structure_coeffs(p)
    q0, sq = ladder_data(p)
    exact = antiderivative(c, q0[0] - 1)
    if sq:
        _require(sq[0] + antiderivative(c, q0[1] - 1) == exact, "oracle: Casimir not scalar")
    ref = reference_casimir(p)
    _require(doc["exact"] == str(exact), f"exact {doc['exact']} != {exact}")
    _require(doc["reference"] == str(ref), f"reference {doc['reference']} != {ref}")
    _require(doc["matches_reference"] is (exact == ref), "matches_reference wrong")
    value, dev = doc["value"], doc["max_deviation"]
    _require(math.isfinite(value) and math.isfinite(dev), "non-finite Casimir value")
    return max(abs(value - float(exact)), dev)


def _matrix(text: str, key: str, end_key: str, d: int) -> np.ndarray:
    """Parse one dense matrix field of a rep document without json.loads."""
    i = text.index(f'"{key}": ') + len(key) + 4
    j = text.index(f', "{end_key}": ', i)
    values = np.fromstring(text[i:j].replace("[", " ").replace("]", " "), sep=",")
    _require(values.size == d * d, f"{key} has {values.size} entries, expected {d * d}")
    return values.reshape(d, d)


def check_rep_json(p, out):
    d = p["dim"]
    q0, sq = ladder_data(p)
    i_qp, i_cas = out.index('"qp": '), out.index('"casimir": ')
    head = json.loads(out[:i_qp] + out[i_cas:])
    _require(head["dim"] == d, "dim")
    _require(head["truncated"] is (p["sector"] in ("noncompact", "su11")), "truncated flag")
    _require(head["q0"] == [float(x) for x in q0], "q0 diagonal")
    qp = _matrix(out, "qp", "qm", d)
    want = np.zeros((d, d))
    want[np.arange(1, d), np.arange(d - 1)] = [math.sqrt(float(s)) for s in sq]
    _require(np.array_equal(qp, want), "qp entries")
    qm = _matrix(out, "qm", "casimir", d)
    _require(np.array_equal(qm, want.T), "qm is not the transpose of qp")
    return _check_casimir_block(head["casimir"], p)


def check_rep_csv(p, out):
    q0, sq = ladder_data(p)
    lines = out.splitlines()
    _require(lines[0] == "n,q0,raise_to_next" and len(lines) == p["dim"] + 1, "csv shape")
    raises = [math.sqrt(float(s)) for s in sq] + [0.0]
    for n, line in enumerate(lines[1:]):
        a, b, c = line.split(",")
        _require(int(a) == n and float(b) == float(q0[n]) and float(c) == raises[n],
                 f"csv row {n}")
    return 0.0


def check_casimir(p, out):
    doc = json.loads(out)
    _require(doc["dim"] == p["dim"], "dim")
    _require(doc["structure_coeffs"] == _poly_strings(structure_coeffs(p)), "structure_coeffs")
    return _check_casimir_block(doc, p)


def check_deform(p, out):
    doc = json.loads(out)
    k, l = p["k"], p["l"]
    sq = l * (l + 1) - k * (1 - k)
    _require(doc["dim"] == p["dim"], "dim")
    _require(doc["scale_sq"] == str(sq), "scale_sq")
    _require(doc["f_poly_coeffs"] == _poly_strings([Fraction(1), -(2 * l - 1) / sq, -3 / sq]),
             "f_poly_coeffs")
    worst = max(doc["residuals"].values())
    _require(doc["passed"] is True and worst <= DEFORM_TOL, f"residual {worst:.3g}")
    return worst


VERIFY_KEYS = {
    3: {"q0_qp", "q0_qm", "qp_qm", "k_q0", "k_qp", "k_qm", "l_q0", "l_qp", "l_qm", "k_l"},
    2: {"q0_qp", "q0_qm", "qp_qm", "k_q0", "k_qp", "k_qm"},
}


def check_verify(p, out):
    doc = json.loads(out)
    cuts = p["cutoffs"]
    dim = math.prod(c + 1 for c in cuts)
    # every realized generator moves each mode by one quantum, so a state is
    # interior iff 2 <= n_i <= cutoff_i - 2 in every mode
    interior = math.prod(max(c - 3, 0) for c in cuts)
    _require(doc["sector"] == p["sector"] and doc["dim"] == dim, "sector/dim")
    _require(doc["interior_count"] == interior, f"interior {doc['interior_count']} != {interior}")
    _require(doc["boundary_count"] == dim - interior, "boundary_count")
    _require(set(doc["residuals"]) == VERIFY_KEYS[len(cuts)], "residual keys")
    worst = doc["max_residual"]
    _require(worst == max(doc["residuals"].values()), "max_residual")
    _require(doc["passed"] is True and worst <= VERIFY_TOL, f"residual {worst:.3g}")
    return worst


def check_diffcheck_json(p, out):
    doc = json.loads(out)
    _require(doc["kind"] == p["kind"] and doc["size"] == p["size"], "kind/size")
    _require(doc["agree"] == {"q0": True, "qp": True, "qm": True}, "agree")
    _require(doc["off_diagonal_clean"] is True and doc["equal"] is True, "not equal")
    return 0.0


def check_diffcheck_csv(p, out):
    want = ["generator,check,result", "q0,agree,true", "qp,agree,true", "qm,agree,true",
            "all,equal,true"]
    _require(out.splitlines() == want, "diffcheck csv")
    return 0.0


def _check_level(N: int, deg: int, parts: int, pieces: list) -> None:
    want_deg, want_parts = level_counts(N)
    _require(deg == want_deg and parts == want_parts, f"level {N} counts")
    _require(sum(d * m for d, m in pieces) == want_deg and sum(d for d, _ in pieces) == want_parts,
             f"level {N} decomposition")


def check_spectrum_json(p, out):
    doc = json.loads(out)
    _require([r["N"] for r in doc] == list(range(p["from"], p["to"] + 1)), "levels")
    for r in doc:
        N = r["N"]
        _require(r["l"] == str(Fraction(N + 1, 4)) and r["consistent"] is True, f"level {N}")
        degs, parts = set(r["degeneracy"].values()), set(r["partitions"].values())
        _require(len(degs) == 1 and len(parts) == 1, f"level {N} counts disagree")
        _check_level(N, degs.pop(), parts.pop(),
                     [(x["dim"], x["multiplicity"]) for x in r["parts"]])
    return 0.0


def check_spectrum_csv(p, out):
    lines = out.splitlines()
    _require(lines[0] == "N,degeneracy,partitions,parts", "header")
    _require(len(lines) == p["to"] - p["from"] + 2, "row count")
    for N, line in zip(range(p["from"], p["to"] + 1), lines[1:]):
        n, deg, parts, pieces = line.split(",")
        _require(int(n) == N, "level order")
        _check_level(N, int(deg), int(parts),
                     [(int(x.split(":")[1]), int(x.split(":")[2])) for x in pieces.split(";")])
    return 0.0


def _moment_ratio(p: dict, n: int) -> Fraction:
    k, s = p["k"], int(p["k"] - 2 * p["l"])
    rise = lambda x, m: math.prod((x + i for i in range(m)), start=Fraction(1))
    core = rise(2 * k, n) * rise(s + 1, n)
    if p["check"] == "bg-moments":
        return math.factorial(n) * core
    return math.factorial(n) / core


def _check_moments(p, rows):
    first = 1 / (2 * math.pi) if p["check"] == "bg-moments" else 1 / math.pi
    _require([n for n, _, _ in rows] == list(range(p["max_n"] + 1)), "moment indices")
    worst = 0.0
    for n, value, ratio in rows:
        exact = _moment_ratio(p, n)
        _require(ratio == str(exact), f"ratio_to_first at n={n}")
        want = float(exact) * first
        err = abs(value - want) / want
        _require(err <= MOMENT_RTOL, f"moment value at n={n}: rel err {err:.3g}")
        worst = max(worst, err)
    return worst


def check_moments_json(p, out):
    doc = json.loads(out)
    _require(all(r["k"] == str(p["k"]) and r["l"] == str(p["l"]) for r in doc), "labels")
    return _check_moments(p, [(r["n"], r["value"], r["ratio_to_first"]) for r in doc])


def check_moments_csv(p, out):
    lines = out.splitlines()
    _require(lines[0] == "n,value,ratio_to_first", "header")
    rows = [line.split(",") for line in lines[1:]]
    return _check_moments(p, [(int(n), float(v), r) for n, v, r in rows])


FAMILY_NAMES = {"bg": "BG", "perelomov-nc": "PerelomovNC", "perelomov-c": "PerelomovC"}


def check_coherent(p, out):
    doc = json.loads(out)
    z = p["param"]
    _require(doc["family"] == FAMILY_NAMES[p["family"]], "family")
    _require(doc["k"] == str(p["k"]) and doc["l"] == str(p["l"]), "labels")
    _require(doc["parameter"] == {"re": z.real, "im": z.imag}, "parameter echo")
    dim = doc["dim"]
    if p["family"] == "perelomov-nc":
        _require(dim == p["dim"], "dim")
    elif p["family"] == "perelomov-c":
        _require(dim == int(2 * p["l"] - p["k"]) + 1, "dim")
    nc = doc["norm_constant"]
    _require(isinstance(nc, float) and math.isfinite(nc) and nc > 0, f"norm_constant {nc}")
    want = math.exp(-0.5 * coherent_log_norm_sq(p, dim))
    _require(abs(nc - want) <= NORM_RTOL * want, f"norm_constant {nc!r} != {want!r}")
    errs = [doc["unit_norm_error"]] + ([doc["eigen_residual"]] if p["family"] == "bg" else [])
    _require(all(math.isfinite(e) and e <= NORM_RTOL for e in errs), f"residuals {errs}")
    return max(errs)


def check_resolution(p, out):
    doc = json.loads(out)
    s = int(2 * p["l"] - p["k"])
    _require([r["n"] for r in doc] == list(range(s + 1)), "moment indices")
    worst = 0.0
    for r in doc:
        dev = abs(r["moment"] - 1.0)
        _require(r["deviation"] == dev and dev <= MEASURE_TOL, f"moment {r['n']} deviation {dev:.3g}")
        worst = max(worst, dev)
    return worst


def check_kummer(p, out):
    doc = json.loads(out)
    a, b, c = p["a"], p["b"], p["c"]
    _require((doc["a"], doc["b"], doc["c"]) == (a, b, c), "parameter echo")
    want = math.gamma(b) * math.gamma(c) * math.gamma(a - b) / (math.gamma(a) * math.gamma(c - b))
    _require(abs(doc["analytic"] - want) <= 1e-12 * abs(want), "analytic value")
    err = abs(doc["numeric"] - want) / abs(want)
    _require(err <= MEASURE_TOL and doc["rel_error"] <= MEASURE_TOL, f"rel error {err:.3g}")
    return max(err, doc["rel_error"])


def check_rejected(p, out):
    _require(out == "", "stdout on a rejected input")
    return 0.0


CHECKS = {
    "rep_json": check_rep_json, "rep_csv": check_rep_csv, "casimir": check_casimir,
    "deform": check_deform, "verify": check_verify,
    "diffcheck_json": check_diffcheck_json, "diffcheck_csv": check_diffcheck_csv,
    "spectrum_json": check_spectrum_json, "spectrum_csv": check_spectrum_csv,
    "moments_json": check_moments_json, "moments_csv": check_moments_csv,
    "coherent": check_coherent, "resolution": check_resolution, "kummer": check_kummer,
    "rejected": check_rejected,
}


def check(req, code, out: str, exc) -> tuple[bool, str, float]:
    """Judge one request: exit code first, then the output oracle."""
    if exc is not None:
        return False, f"traceback: {type(exc).__name__}: {exc}", 0.0
    if code != req.expect_exit:
        return False, f"exit {code}, expected {req.expect_exit}", 0.0
    try:
        return True, "", CHECKS[req.check](req.params, out)
    except CheckFailed as e:
        return False, f"wrong output: {e}", 0.0
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return False, f"unreadable output: {type(e).__name__}: {e}", 0.0
