"""fracseries benchmark driver.

    python3 bench/run.py --workload delay-sweep --seed 1 --seconds 20 --trace 0

Runs the workload again and again, each time in a fresh interpreter
(bench/worker.py) and one at a time, until --seconds have passed, so every
run starts with the cold caches a command-line user gets.  Prints one line
per metric (median over the runs, the highest percentile with at least ten
samples beyond it, sample count, unit) and, as the last line, one JSON
object whose values are those medians:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are in reference-speed seconds (see bench/worker.py); the raw
wall-clock total is printed alongside.  --trace 0 reports the end_to_end
metrics of BENCHMARK.json, --trace 1 the per_layer ones, from runs with the
layer wrappers of bench/spans.py installed; untraced runs are interleaved
to measure the tracing overhead, and the spans of the last traced run go to
.fracbench/.  Every output is checked against references the benchmark
computes itself; the exit code is 1 if any check fails and 2 if the program
or the benchmark's own files are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPANS_DIR = ROOT / ".fracbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_RUNS_PER_RUN = 2  # extra set-up-only runs before each workload run
TIME_LIMIT_S = 150.0    # the driver must end well inside 180 s whatever --seconds says


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, *extra]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def high_percentile(samples: list[float], better: str):
    """(p, value) for the highest of p99..p50 with >= 10 samples worse than it.

    For a metric where higher is better the tail is the low end, so p99
    there means the value 99% of the runs beat.
    """
    xs = sorted(samples, reverse=better == "higher")
    n = len(xs)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1]
    return None


def end_to_end(runs: list[dict], setup_samples: list[float]) -> dict[str, list[float]]:
    return {
        "setup_s": setup_samples + [r["setup_s"] for r in runs],
        "solve_s": [r["stage_s"]["solve"] for r in runs],
        "residual_s": [r["stage_s"]["residual"] for r in runs],
        "table_s": [r["stage_s"]["table"] for r in runs],
        "eval_points_per_s": [r["points"] / r["eval_s"] for r in runs],
        "run_s": [r["run_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "result_monomials": [r["result_monomials"] for r in runs],
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, list[float]]:
    out = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    for name in ("size.exp_terms", "size.monomials_max"):
        out[name] = [r[name] for r in traced]
    ratio = (statistics.median(r["run_s"] for r in traced)
             / statistics.median(r["run_s"] for r in plain))
    out["trace.overhead_ratio"] = [ratio]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fracseries benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=sorted(workloads.SIZES),
                    help="input sizes; 'tiny' is for bench/selftest.py")
    ap.add_argument("--inject", default="none", choices=("none", "coeff", "cell"),
                    help="corrupt one output on purpose (self-test of the checks)")
    args = ap.parse_args(argv)

    missing = [p for p in ["BENCHMARK.json", "src/fracseries/__init__.py",
                           *workloads.PROBLEM_FILES.values()] if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    start = time.perf_counter()
    setup_samples, plain, traced = [], [], []
    try:
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            for old in SPANS_DIR.glob("*.spans"):  # keep only the latest traced run
                old.unlink()
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            done = plain and (traced or not args.trace)
            if done and (elapsed >= args.seconds or elapsed + 1.5 * last > TIME_LIMIT_S):
                break
            if not args.trace:
                for _ in range(SETUP_RUNS_PER_RUN):
                    setup_samples.append(
                        run_worker(args, ["--setup-only"], TIME_LIMIT_S)["setup_s"])
            extra = ["--inject", args.inject]
            use_trace = args.trace and len(traced) < len(plain)
            if use_trace:
                # each traced run overwrites the file: the last one's spans are kept
                extra += ["--trace", "--run-id", f"{args.workload}-seed{args.seed}-{len(traced)}",
                          "--spans", str(SPANS_DIR / f"{args.workload}-seed{args.seed}.spans")]
            t0 = time.perf_counter()
            result = run_worker(args, extra, TIME_LIMIT_S + 20 - elapsed)
            last = time.perf_counter() - t0
            (traced if use_trace else plain).append(result)
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failures: dict[str, int] = {}
    for r in runs:
        for cls, n in r["failures"].items():
            failures[cls] = failures.get(cls, 0) + n
    failed = sum(failures.values())
    samples = per_layer(traced, plain) if args.trace else end_to_end(plain, setup_samples)
    samples["ok_rate"] = [(attempted - failed) / attempted]
    problems = [m for r in runs for m in r["unexpected"] + r["check_messages"]]
    correct = not problems and all(r["checks_failed"] == 0 for r in runs)

    print(f"workload {args.workload}  seed {args.seed}  runs {len(plain)} plain"
          f" + {len(traced)} traced  in {time.perf_counter() - start:.1f} s")
    print(f"operations: {attempted} attempted, {failed} failed"
          f" (error_rate {failed / attempted:.4g}) {failures or ''}")
    print(f"checks: {sum(r['checks'] for r in runs)} made, "
          f"{sum(r['checks_failed'] for r in runs)} failed")
    for msg in problems[:10]:
        print(f"  FAIL {msg}")
    metrics = {}
    print(f"host: raw (wall-clock) run_s median {statistics.median(r['raw_run_s'] for r in runs):.4g} s")
    print(f"  {'metric':<28} {'median':<14} {'high pct':<18} {'runs':<6} unit")
    for m in wanted:
        values = samples[m["name"]]
        value = statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        high = high_percentile(values, m["better"])
        tail = f"p{high[0]} {high[1]:.6g}" if high else "p- (n < 20)"
        print(f"  {m['name']:<28} {value:<14.6g} {tail:<18} n={len(values):<4} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
