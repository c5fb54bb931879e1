"""One benchmark process: set up, run one workload's decks, report as JSON.

Started by ``run.py``; prints ``ready`` once quadalg, numpy and scipy are
imported and the first deck is generated (the end of set-up), then, unless
``--probe``, runs the workload as a closed loop (one request at a time,
in-process through ``quadalg.cli.main``) and prints one JSON line.

With ``--trace 1`` each deck runs twice back to back, untraced and then
traced, so the tracing overhead is measured on identical requests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import mixes
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import quadalg.cli  # imports numpy and scipy
    if not Path(quadalg.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"quadalg imported from {quadalg.cli.__file__}, not from {src}")
    return quadalg.cli


def machine_info() -> dict:
    import ctypes
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and "/" in line}
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def call(cli, req) -> tuple[float, bool, str, float]:
    """Send one request and check its output: (wall_s, ok, why, float_err)."""
    out, err = io.StringIO(), io.StringIO()
    exc = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(req.argv)
        except Exception as e:  # a traceback: the request failed, the run goes on
            exc = e
        wall = time.perf_counter() - t0
    ok, why, ferr = oracles.check(req, code, out.getvalue(), exc)
    return wall, ok, why, ferr


def quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of all order statistics: unlike the nearest rank it
    does not jump between the clusters that a deck's request sizes form.
    """
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    cdf = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def latency_summary(records: list) -> dict:
    """p50/p90 over every attempted request; failures rank above completions.

    A failed request gets the slowest measured time of the run, so it sorts
    at the top without inventing a number.  When fewer than 10 samples lie
    beyond p90, the highest percentile that has 10 beyond it is reported.
    """
    n = len(records)
    worst = max(r["wall_s"] for r in records)
    values = [r["wall_s"] if r["ok"] else worst for r in records]
    out = {"samples": n}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        q_eff = min(q, max(0.0, 1.0 - 10.0 / n))
        out[name] = {"ms": quantile(values, q_eff) * 1e3, "q": q_eff}
    return out


def run(args) -> dict:
    cli = _import_program()
    first = mixes.deck(args.workload, args.seed, 0)
    print("ready", flush=True)
    if args.probe:
        return {}

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    for req in mixes.WARMUP[args.workload]:
        call(cli, req)  # first-call costs (lazy imports, BLAS start-up), not measured
    anchors = [(req, *call(cli, req)[1:]) for req in mixes.ANCHORS[args.workload]]

    records, untraced_s, untraced_ok = [], 0.0, 0
    timed_s = 0.0
    i = 0
    while True:
        deck = first if i == 0 else mixes.deck(args.workload, args.seed, i)
        gc.collect()
        if tracer:
            for req in deck:
                wall, ok, _, _ = call(cli, req)
                untraced_s += wall
                untraced_ok += ok
            tracer.install()
        for req in deck:
            before = dict(tracer.counts) if tracer else None
            if tracer:
                tracer.request = len(records)
            wall, ok, why, ferr = call(cli, req)
            rec = {"deck": i, "argv": req.argv, "wall_s": wall, "ok": ok, "why": why,
                   "float_err": ferr}
            if tracer:
                rec["counts"] = tracing.request_counts(before, tracer.counts)
            records.append(rec)
            timed_s += wall
        if tracer:
            tracer.uninstall()
        i += 1
        # stop on the deck boundary nearest to --seconds
        if timed_s + untraced_s >= args.seconds - 0.5 * (timed_s + untraced_s) / i:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = sum(r["ok"] for r in records)
    attempted = len(records) + len(anchors)
    failed = attempted - correct - sum(ok for _, ok, _, _ in anchors)
    lat = latency_summary(records)
    result = {
        "attempted": attempted,
        "failed": failed,
        "decks": i,
        "deck_size": len(first),
        "timed_s": timed_s,
        "ops_per_s": correct / timed_s,
        "latency": lat,
        "peak_rss_mb": rss_mb,
        "float_err_max": max(ferr for _, _, _, ferr in anchors),
        "float_err_max_timed": max(r["float_err"] for r in records),
        "correct_frac": 1.0 - failed / attempted,
        "failures": [f"{' '.join(r['argv'])}: {r['why']}" for r in records if not r["ok"]][:20]
                    + [f"anchor {' '.join(req.argv)}: {why}" for req, ok, why, _ in anchors if not ok],
        "info": machine_info(),
    }
    if args.workload == "series":
        result["defects"] = [
            {"argv": req.argv, "ok": ok, "why": why}
            for req in mixes.DEFECT_PROBES
            for _, ok, why, _ in [call(cli, req)]
        ]
    if tracer:
        result["per_layer"] = tracing.per_layer_metrics(tracer, i)
        result["untraced_ops_per_s"] = untraced_ok / untraced_s
        result["trace_overhead"] = timed_s / untraced_s - 1.0
        result["spans"] = len(tracer.spans)
        _write_trace(args, tracer)
    _write_records(args, records)
    return result


def _out_path(args, suffix: str) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    return out / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.{suffix}"


def _write_records(args, records) -> None:
    with open(_out_path(args, "requests.jsonl"), "w") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")


def _write_trace(args, tracer) -> None:
    with open(_out_path(args, "spans.jsonl"), "w") as f:
        for name, layer, start, end, parent, request, err in tracer.spans:
            f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                "parent": parent, "request": request, "error": err}) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="set up, print ready, exit")
    args = ap.parse_args()
    result = run(args)
    if not args.probe:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
