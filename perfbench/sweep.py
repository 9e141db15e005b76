"""Runs the benchmark on every workload in BENCHMARK.json with seeds 1-10.

    python3 perfbench/sweep.py

For every workload and end-to-end metric it prints the median, the quartiles
and the spread: the distance between the quartiles as a share of the median,
which is what ``bound`` in BENCHMARK.json is compared with. The summary is
also written to ``perfbench/results/sweep.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(1, 11))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(ROOT, *spec["command"][1:]),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", file=sys.stderr)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        summary[workload] = {
            "seeds": SEEDS,
            "wall_s": summarize([r["wall_s"] for r in runs]),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }
        print(f"\n{workload}  (run wall median {summary[workload]['wall_s']['median']:.1f} s)")
        for name, s in metrics.items():
            print(f"  {name:26s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f}  bound {bounds[name]}")
    os.makedirs(os.path.join(ROOT, "perfbench", "results"), exist_ok=True)
    out = os.path.join(ROOT, "perfbench", "results", "sweep.json")
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
