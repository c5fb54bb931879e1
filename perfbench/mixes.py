"""Seeded request mixes for the quadalg benchmark.

A workload is a sequence of *decks*.  A deck holds one request per
(template, grid size) pair, so every deck has the same shape and nearly the
same cost; the seed picks the jitter of each size, the labels and
parameters, and the order of the deck.  Deck ``i`` of a run depends only on
(workload, seed, i), so decks can be built lazily and reproduced exactly.
The program only ever sees the argv.

Every numeric option is passed as ``--opt=value``: argparse reads a negative
value such as ``--l -1/4`` or ``--param -0.1+0.3j`` as an option and exits 2
(a CLI defect recorded by the ``defects`` probe set below).

The timed mixes stay inside the parameter ranges where the seed program
answers correctly: a benchmark workload must not fail.  The inputs the seed
gets wrong are kept in :data:`DEFECT_PROBES`, run beside the ``series``
workload and reported separately, so they stay measured.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("ladder", "fock", "exact", "series")

# Sizes sit on a log-spaced grid that includes both ends of each range, and
# the seed moves each one by up to JITTER_OCTAVES (clamped to the range).
# Every deck thus spans the whole range with the same shape; the few largest
# requests dominate a deck's cost, and keeping them near the top of the
# range keeps the cost of a deck, and the latency percentiles, steady from
# seed to seed.
JITTER_OCTAVES = 0.1


@dataclass
class Request:
    """One CLI invocation plus the parameters its oracle needs."""

    argv: list
    check: str
    params: dict = field(default_factory=dict)
    expect_exit: int = 0


def _grid(rng: random.Random, lo: float, hi: float, m: int) -> list:
    """m sizes spread log-uniformly over [lo, hi], one per grid point."""
    out = []
    for i in range(m):
        x = math.log2(lo) + i * (math.log2(hi) - math.log2(lo)) / (m - 1)
        x += rng.uniform(-JITTER_OCTAVES, JITTER_OCTAVES)
        out.append(min(hi, max(lo, 2.0 ** x)))
    return out


def _f(x: Fraction) -> str:
    return str(Fraction(x))


def _half(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A random multiple of 1/2 in [lo/2, hi/2]."""
    return Fraction(rng.randint(lo, hi), 2)


def _complex_text(z: complex) -> str:
    return repr(complex(z)).strip("()")


# ---------------------------------------------------------------------------
# ladder: dense closed-form representations, O(d^3) contractions, dense JSON

LADDER_SECTORS = ("compact", "noncompact", "su2", "su11")


def _ladder_args(rng: random.Random, sector: str, d: int) -> tuple[list, dict]:
    if sector == "su2":
        j = Fraction(d - 1, 2)
        return ["--sector=su2", f"--j={_f(j)}"], {"sector": sector, "j": j, "dim": d}
    k = _half(rng, 1, 8)
    if sector == "su11":
        return (["--sector=su11", f"--k={_f(k)}", f"--dim={d}"],
                {"sector": sector, "k": k, "dim": d})
    if sector == "compact":
        l = (d - 1 + k) / 2  # dimension 2l - k + 1 = d
        return (["--sector=compact", f"--k={_f(k)}", f"--l={_f(l)}"],
                {"sector": sector, "k": k, "l": l, "dim": d})
    l = (k - rng.randint(0, 8)) / 2  # k - 2l a non-negative integer
    return (["--sector=noncompact", f"--k={_f(k)}", f"--l={_f(l)}", f"--dim={d}"],
            {"sector": sector, "k": k, "l": l, "dim": d})


def ladder_deck(rng: random.Random) -> list:
    deck = []
    for sector in LADDER_SECTORS:
        for fmt in ("json", "csv"):
            for d in _grid(rng, 16, 512, 5):
                args, params = _ladder_args(rng, sector, round(d))
                deck.append(Request(["rep", *args, f"--format={fmt}"], f"rep_{fmt}", params))
        for d in _grid(rng, 16, 1024, 5):
            args, params = _ladder_args(rng, sector, round(d))
            deck.append(Request(["casimir", *args], "casimir", params))
    for d in _grid(rng, 16, 1024, 5):
        k = _half(rng, 1, 8)
        l = (round(d) - 1 + k) / 2
        deck.append(Request(["deform", f"--k={_f(k)}", f"--l={_f(l)}"], "deform",
                            {"k": k, "l": l, "dim": round(d)}))
    return deck


# ---------------------------------------------------------------------------
# fock: dense truncated Fock-space realizations and their commutators


def _nearest_cutoffs(rng: random.Random, target: float, modes: int, lo: int, hi: int) -> tuple:
    """Cutoffs in [lo, hi] whose state count is among the 4 nearest to target."""
    cands = sorted(itertools.product(range(lo, hi + 1), repeat=modes),
                   key=lambda c: abs(math.log(math.prod(x + 1 for x in c) / target)))
    return rng.choice(cands[:4])


def fock_deck(rng: random.Random) -> list:
    deck = []
    for sector in ("compact", "noncompact", "su2", "su11"):
        # ten sizes per sector, and tops small enough for three decks in a
        # 20 s run, keep a run above 100 requests, so p90 has ten samples
        # beyond it
        if sector in ("compact", "noncompact"):
            targets, modes, hi = _grid(rng, 216, 640, 10), 3, 10
        else:
            targets, modes, hi = _grid(rng, 64, 900, 10), 2, 40
        for t in targets:
            cuts = _nearest_cutoffs(rng, t, modes, 5, hi)
            deck.append(Request(
                ["verify", f"--sector={sector}", "--cutoffs=" + ",".join(map(str, cuts))],
                "verify", {"sector": sector, "cutoffs": cuts}))
    return deck


# ---------------------------------------------------------------------------
# exact: Fraction arithmetic (differential realizations, level counting)


def exact_deck(rng: random.Random) -> list:
    deck = []
    for kind in ("su2", "su11", "compactQ", "noncompactQ"):
        for i, size in enumerate(_grid(rng, 8, 120, 6)):
            size = round(size)
            k = _half(rng, 1, 6)
            if kind == "su2":
                args, params = [f"--j={_f(Fraction(size - 1, 2))}"], {}
            elif kind == "su11":
                args, params = [f"--k={_f(k)}", f"--size={size}"], {}
            elif kind == "compactQ":
                l = (size - 1 + k) / 2
                args, params = [f"--k={_f(k)}", f"--l={_f(l)}"], {}
            else:
                l = (k - rng.randint(0, 6)) / 2
                args, params = [f"--k={_f(k)}", f"--l={_f(l)}", f"--size={size}"], {}
            fmt = ("json", "csv")[i % 2]
            params.update(kind=kind, size=size)
            deck.append(Request(["diffcheck", f"--kind={kind}", *args, f"--format={fmt}"],
                                f"diffcheck_{fmt}", params))
    for start in _grid(rng, 1, 401, 4):
        for i, width in enumerate(_grid(rng, 5, 60, 4)):
            lo = round(start) - 1
            hi = lo + round(width) - 1
            fmt = ("json", "csv")[i % 2]
            deck.append(Request(["spectrum", f"--from={lo}", f"--to={hi}", f"--format={fmt}"],
                                f"spectrum_{fmt}", {"from": lo, "to": hi}))
    for i, max_n in enumerate(_grid(rng, 5, 40, 4)):
        k = _half(rng, 1, 8)
        l = (k - rng.randint(0, 8)) / 2
        fmt = ("json", "csv")[i % 2]
        deck.append(Request(
            ["measure", "--check=bg-moments", f"--k={_f(k)}", f"--l={_f(l)}",
             f"--max-n={round(max_n)}", f"--format={fmt}"],
            f"moments_{fmt}", {"check": "bg-moments", "k": k, "l": l, "max_n": round(max_n)}))
    return deck


# ---------------------------------------------------------------------------
# series: coherent states (special-function series) and quadrature measures


def _polar(rng: random.Random, r: float) -> complex:
    return cmath.rect(r, rng.uniform(-math.pi, math.pi))


def series_deck(rng: random.Random) -> list:
    deck = []
    for r in _grid(rng, 0.05, 200.0, 6):
        k = _half(rng, 1, 5)
        l = (k - rng.randint(0, 6)) / 2
        z = _polar(rng, r)
        deck.append(Request(
            ["coherent", "--family=bg", f"--k={_f(k)}", f"--l={_f(l)}",
             f"--param={_complex_text(z)}"],
            "coherent", {"family": "bg", "k": k, "l": l, "param": z}))
    for dim in _grid(rng, 16, 160, 6):
        k = _half(rng, 1, 3)
        l = (k - rng.randint(0, 4)) / 2
        z = _polar(rng, rng.uniform(0.05, 0.6))
        deck.append(Request(
            ["coherent", "--family=perelomov-nc", f"--k={_f(k)}", f"--l={_f(l)}",
             f"--param={_complex_text(z)}", f"--dim={round(dim)}"],
            "coherent", {"family": "perelomov-nc", "k": k, "l": l, "param": z,
                         "dim": round(dim)}))
    for gamma, (lo, hi) in ((False, (2, 120)), (True, (2, 40))):
        for s in _grid(rng, lo, hi, 4):
            k = _half(rng, 1, 5)
            l = (round(s) + k) / 2
            z = _polar(rng, rng.uniform(0.3, 0.9) if not gamma else 2.0 ** rng.uniform(-1.5, 1.5))
            argv = ["coherent", "--family=perelomov-c", f"--k={_f(k)}", f"--l={_f(l)}",
                    f"--param={_complex_text(z)}"]
            if gamma:
                argv.append("--gamma-form")
            deck.append(Request(argv, "coherent", {"family": "perelomov-c", "k": k, "l": l,
                                                   "param": z, "gamma": gamma}))
    for s in _grid(rng, 1, 14, 6):
        k = _half(rng, 1, 4)
        l = (round(s) + k) / 2
        deck.append(Request(
            ["measure", "--check=resolution", f"--k={_f(k)}", f"--l={_f(l)}"],
            "resolution", {"k": k, "l": l}))
    for _ in range(4):
        b = rng.uniform(0.5, 4.0)
        a = b + rng.uniform(0.5, 5.0)
        c = rng.uniform(0.5, 6.0)
        deck.append(Request(
            ["measure", "--check=kummer", f"--a={a!r}", f"--b={b!r}", f"--c={c!r}"],
            "kummer", {"a": a, "b": b, "c": c}))
    return deck


DECKS = {"ladder": ladder_deck, "fock": fock_deck, "exact": exact_deck, "series": series_deck}


def deck(workload: str, seed: int, index: int) -> list:
    """Deck ``index`` of a workload, in seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    requests = DECKS[workload](rng)
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# Known defects of the seed program (see ROADMAP item 4).  Each is a valid
# input expecting exit 0 with a correct output, except the non-finite
# parameter, which is invalid and expects exit 2.

DEFECT_PROBES = [
    Request(["coherent", "--family=perelomov-nc", "--k=1/2", "--l=1/4", "--param=0.9",
             "--dim=4000"], "coherent",
            {"family": "perelomov-nc", "k": Fraction(1, 2), "l": Fraction(1, 4),
             "param": 0.9 + 0j, "dim": 4000}),
    Request(["coherent", "--family=perelomov-nc", "--k=1/2", "--l=1/4", "--param=0.5",
             "--dim=400"], "coherent",
            {"family": "perelomov-nc", "k": Fraction(1, 2), "l": Fraction(1, 4),
             "param": 0.5 + 0j, "dim": 400}),
    Request(["coherent", "--family=perelomov-c", "--k=1/2", "--l=801/4", "--param=0.5"],
            "coherent", {"family": "perelomov-c", "k": Fraction(1, 2), "l": Fraction(801, 4),
                         "param": 0.5 + 0j, "gamma": False}),
    Request(["coherent", "--family=perelomov-c", "--k=1/2", "--l=401/4", "--param=0.5",
             "--gamma-form"], "coherent",
            {"family": "perelomov-c", "k": Fraction(1, 2), "l": Fraction(401, 4),
             "param": 0.5 + 0j, "gamma": True}),
    Request(["coherent", "--family=bg", "--k=1/2", "--l=1/4", "--param=1e4"], "coherent",
            {"family": "bg", "k": Fraction(1, 2), "l": Fraction(1, 4), "param": 1e4 + 0j}),
    Request(["measure", "--check=resolution", "--k=1/2", "--l=1601/4"], "resolution",
            {"k": Fraction(1, 2), "l": Fraction(1601, 4)}),
    Request(["measure", "--check=resolution", "--k=7/2", "--l=47/4"], "resolution",
            {"k": Fraction(7, 2), "l": Fraction(47, 4)}),
    Request(["coherent", "--family=perelomov-c", "--k=1", "--l=3/2", "--param",
             "-0.1+0.3j"], "coherent",
            {"family": "perelomov-c", "k": Fraction(1), "l": Fraction(3, 2),
             "param": -0.1 + 0.3j, "gamma": False}),
    Request(["casimir", "--sector", "noncompact", "--k", "3/2", "--l", "-1/4", "--dim", "8"],
            "casimir", {"sector": "noncompact", "k": Fraction(3, 2), "l": Fraction(-1, 4),
                        "dim": 8}),
    Request(["coherent", "--family=bg", "--k=1/2", "--l=1/4", "--param=nan"], "rejected",
            expect_exit=2),
    # value(n)/value(0) disagrees with ratio_to_first by (n!)^2 for n >= 2
    Request(["measure", "--check=perelomov-moments", "--k=1/2", "--l=1/4", "--max-n=3"],
            "moments_json", {"check": "perelomov-moments", "k": Fraction(1, 2),
                             "l": Fraction(1, 4), "max_n": 3}),
]


def _tiny(argv: list, oracle: str, /, **params) -> Request:
    return Request(argv, oracle, params)


# Small requests that touch each code path once before timing starts.
WARMUP = {
    "ladder": [
        _tiny(["rep", "--sector=su11", "--k=1", "--dim=4"], "rep_json",
              sector="su11", k=Fraction(1), dim=4),
        _tiny(["casimir", "--sector=compact", "--k=1/2", "--l=7/4"], "casimir",
              sector="compact", k=Fraction(1, 2), l=Fraction(7, 4), dim=4),
        _tiny(["deform", "--k=1", "--l=1"], "deform", k=Fraction(1), l=Fraction(1), dim=2),
    ],
    "fock": [
        _tiny(["verify", "--sector=compact", "--cutoffs=5"], "verify",
              sector="compact", cutoffs=(5, 5, 5)),
        _tiny(["verify", "--sector=su2", "--cutoffs=5"], "verify", sector="su2", cutoffs=(5, 5)),
    ],
    "exact": [
        _tiny(["diffcheck", "--kind=su11", "--k=1", "--size=6"], "diffcheck_json",
              kind="su11", size=6),
        _tiny(["spectrum", "--from=0", "--to=4"], "spectrum_json", **{"from": 0, "to": 4}),
        _tiny(["measure", "--check=bg-moments", "--k=1/2", "--l=1/4", "--max-n=3"],
              "moments_json", check="bg-moments", k=Fraction(1, 2), l=Fraction(1, 4), max_n=3),
    ],
    "series": [
        _tiny(["coherent", "--family=bg", "--k=1/2", "--l=1/4", "--param=1+1j"], "coherent",
              family="bg", k=Fraction(1, 2), l=Fraction(1, 4), param=1 + 1j),
        _tiny(["measure", "--check=resolution", "--k=1", "--l=1"], "resolution",
              k=Fraction(1), l=Fraction(1)),
        _tiny(["measure", "--check=kummer", "--a=3", "--b=1", "--c=4"], "kummer",
              a=3.0, b=1.0, c=4.0),
    ],
}


# Fixed requests, the same for every seed, run once per run outside the timed
# loop.  float_err_max is taken over them, so it compares the same inputs
# across seeds and commits: a float field that drifts away from its exact
# value shows as a larger float_err_max.
ANCHORS = {
    "ladder": [
        _tiny(["casimir", "--sector=noncompact", "--k=1/2", "--l=1/4", "--dim=512"], "casimir",
              sector="noncompact", k=Fraction(1, 2), l=Fraction(1, 4), dim=512),
        _tiny(["casimir", "--sector=compact", "--k=1/2", "--l=1023/4"], "casimir",
              sector="compact", k=Fraction(1, 2), l=Fraction(1023, 4), dim=512),
        _tiny(["casimir", "--sector=su2", "--j=511/2"], "casimir",
              sector="su2", j=Fraction(511, 2), dim=512),
        _tiny(["casimir", "--sector=su11", "--k=1", "--dim=512"], "casimir",
              sector="su11", k=Fraction(1), dim=512),
        _tiny(["deform", "--k=1/2", "--l=1023/4"], "deform",
              k=Fraction(1, 2), l=Fraction(1023, 4), dim=512),
        _tiny(["rep", "--sector=noncompact", "--k=3/2", "--l=-1/4", "--dim=256"], "rep_json",
              sector="noncompact", k=Fraction(3, 2), l=Fraction(-1, 4), dim=256),
    ],
    "fock": [
        _tiny(["verify", "--sector=compact", "--cutoffs=7,7,7"], "verify",
              sector="compact", cutoffs=(7, 7, 7)),
        _tiny(["verify", "--sector=noncompact", "--cutoffs=7,8,6"], "verify",
              sector="noncompact", cutoffs=(7, 8, 6)),
        _tiny(["verify", "--sector=su2", "--cutoffs=24,24"], "verify",
              sector="su2", cutoffs=(24, 24)),
        _tiny(["verify", "--sector=su11", "--cutoffs=24,20"], "verify",
              sector="su11", cutoffs=(24, 20)),
    ],
    "exact": [
        _tiny(["measure", "--check=bg-moments", "--k=1/2", "--l=1/4", "--max-n=40"],
              "moments_json", check="bg-moments", k=Fraction(1, 2), l=Fraction(1, 4), max_n=40),
        _tiny(["measure", "--check=bg-moments", "--k=4", "--l=-2", "--max-n=40"],
              "moments_json", check="bg-moments", k=Fraction(4), l=Fraction(-2), max_n=40),
        _tiny(["measure", "--check=bg-moments", "--k=5/2", "--l=3/4", "--max-n=30"],
              "moments_json", check="bg-moments", k=Fraction(5, 2), l=Fraction(3, 4), max_n=30),
    ],
    "series": [
        _tiny(["coherent", "--family=bg", "--k=1/2", "--l=1/4", "--param=60+80j"], "coherent",
              family="bg", k=Fraction(1, 2), l=Fraction(1, 4), param=60 + 80j),
        _tiny(["coherent", "--family=perelomov-nc", "--k=1", "--l=0", "--param=0.5j",
               "--dim=150"], "coherent",
              family="perelomov-nc", k=Fraction(1), l=Fraction(0), param=0.5j, dim=150),
        _tiny(["coherent", "--family=perelomov-c", "--k=1/2", "--l=201/4", "--param=0.8"],
              "coherent", family="perelomov-c", k=Fraction(1, 2), l=Fraction(201, 4),
              param=0.8 + 0j, gamma=False),
        _tiny(["coherent", "--family=perelomov-c", "--k=3/2", "--l=73/4", "--param=0.5+0.5j",
               "--gamma-form"], "coherent", family="perelomov-c", k=Fraction(3, 2),
              l=Fraction(73, 4), param=0.5 + 0.5j, gamma=True),
        _tiny(["measure", "--check=resolution", "--k=1/2", "--l=27/4"], "resolution",
              k=Fraction(1, 2), l=Fraction(27, 4)),
        _tiny(["measure", "--check=resolution", "--k=2", "--l=7"], "resolution",
              k=Fraction(2), l=Fraction(7)),
        _tiny(["measure", "--check=kummer", "--a=7.5", "--b=2.5", "--c=3.2"], "kummer",
              a=7.5, b=2.5, c=3.2),
        _tiny(["measure", "--check=kummer", "--a=6", "--b=0.6", "--c=5.5"], "kummer",
              a=6.0, b=0.6, c=5.5),
    ],
}
