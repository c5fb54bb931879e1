"""quadalg benchmark: one workload, one seed, timed end to end.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; quadalg is imported from ``src/``
(nothing is installed).  The command starts a few set-up probes and then one
worker process for the workload (see ``worker.py``), prints a readable
report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Per-request records, spans and the full report go
to ``perfbench/out/``.  Exits non-zero, printing no result, when the program
cannot be found or run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no bytecode in the checkout

from mixes import WORKLOADS  # noqa: E402

# Fresh processes timed from spawn to "ready"; the worker's own set-up is one
# more sample.  The median of the three is setup_s.
SETUP_PROBES = 2
# A run ends on a deck boundary near --seconds (at most 60 s) and a deck takes
# under 10 s on a 2-core x86-64 machine, so a worker still running after this
# long is hung and is killed.
WORKER_TIMEOUT_S = 170
BLAS_THREADS = "1"


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no bytecode in the checkout
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, probe: bool) -> tuple[float, subprocess.Popen]:
    """Start a worker; return its set-up time (spawn to "ready") and the process."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return setup, proc


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref
    return ref


def end_to_end(res: dict, setup_s: float) -> dict:
    lat = res["latency"]
    return {
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "latency_p50_ms": (lat["p50"]["ms"], "ms"),
        "latency_p90_ms": (lat["p90"]["ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
        "correct_frac": (res["correct_frac"], "ratio"),
        "float_err_max": (res["float_err_max"], "abs"),
    }


def per_layer(res: dict) -> dict:
    m = dict(res["per_layer"])
    m["bench.traced_ops_per_s"] = (res["ops_per_s"], "1/s")
    m["bench.untraced_ops_per_s"] = (res["untraced_ops_per_s"], "1/s")
    m["bench.trace_overhead"] = (res["trace_overhead"], "ratio")
    m["bench.spans_per_deck"] = (res["spans"] / res["decks"], "count/deck")
    defects = res.get("defects", [])
    m["defects.attempted"] = (len(defects), "count")
    m["defects.failed"] = (sum(not d["ok"] for d in defects), "count")
    return m


def report(args, res: dict, setup: list, metrics: dict) -> None:
    info = res["info"]
    lat = res["latency"]
    print(f"quadalg benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print(f"  machine: nproc={info['nproc']} cpus_allowed={info['cpus_allowed']} "
          f"python={info['python']} numpy={info['numpy']} scipy={info['scipy']} "
          f"blas={info['blas']} blas_threads={info['blas_threads']}")
    print(f"  commit: {res['commit']}")
    print(f"  closed loop, 1 client, in-process cli.main; {res['decks']} decks x "
          f"{res['deck_size']} requests = {res['attempted']} attempted, {res['failed']} failed, "
          f"{res['timed_s']:.2f} s timed")
    for name in ("p50", "p90"):
        q = lat[name]["q"]
        note = "" if abs(q - float(name[1:]) / 100) < 1e-12 else \
            f" (only {lat['samples']} samples: reporting p{100 * q:.1f}, the highest with 10 beyond)"
        print(f"  latency {name}: {lat[name]['ms']:.3f} ms over {lat['samples']} samples{note}")
    print(f"  setup samples (s): {', '.join(f'{s:.3f}' for s in setup)}")
    print(f"  float_err_max is over the fixed anchor requests; over the timed requests it is "
          f"{res['float_err_max_timed']:.3g}")
    for f in res["failures"]:
        print(f"  FAILED {f}")
    for d in res.get("defects", []):
        status = "ok" if d["ok"] else f"FAILS ({d['why'][:100]})"
        print(f"  known-defect probe: {' '.join(d['argv'])}: {status}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "quadalg" / "cli.py").is_file():
        print(f"error: no quadalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setup = []
        for _ in range(SETUP_PROBES):
            t, proc = spawn(args, probe=True)
            finish(proc, 60)
            setup.append(t)
        t, proc = spawn(args, probe=False)
        setup.append(t)
        out = finish(proc, WORKER_TIMEOUT_S)
        res = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    res["commit"] = git_commit()
    setup_s = statistics.median(setup)
    metrics = per_layer(res) if args.trace else end_to_end(res, setup_s)
    report(args, res, setup, metrics)
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "setup_samples_s": setup, "result": res,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
