"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 bench/selftest.py

Checks that
* every metric of BENCHMARK.json is printed, with its unit, for every
  workload with and without tracing;
* a coefficient corrupted with SeriesSolution.replace_coeff, and a
  perturbed table cell, each make the run exit non-zero with correct=false;
* two runs with the same seed give identical exact counts.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

EXACT = ("result_monomials", "series.mul_pairs", "scalar.arith_calls", "ok_rate")


def bench(workload: str, trace: int, seed: int = 7, inject: str = "none"):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny", "--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    return proc.returncode, json.loads(last)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            errors.append(message)

    counts = {}
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench(workload, trace)
            expect(code == 0 and out.get("correct") is True, f"{workload} trace={trace} passes")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in out.get("metrics", {}).items()}
            expect(got == want, f"{workload} trace={trace} prints every {kind} metric and unit")
            expect(isinstance(out.get("attempted"), int) and out["attempted"] >= 1
                   and isinstance(out.get("failed"), int), f"{workload} counts operations")
            for name in EXACT:
                if name in out.get("metrics", {}):
                    counts[(workload, name)] = out["metrics"][name]["value"]
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            _, out = bench(workload, trace)
            for name in EXACT:
                if name in out.get("metrics", {}):
                    expect(out["metrics"][name]["value"] == counts[(workload, name)],
                           f"{workload} {name} repeats exactly for one seed")
    for workload, inject in (("delay-sweep", "coeff"), ("wave-params", "coeff"),
                             ("dense-grid", "coeff"), ("dense-grid", "cell")):
        code, out = bench(workload, 0, inject=inject)
        expect(code != 0 and out.get("correct") is False,
               f"{workload}: injected {inject} fault is caught (exit {code})")
    print(f"{len(errors)} failed" if errors else "self-test passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
