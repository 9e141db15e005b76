"""Benchmark of mtunmix: one workload, one seed, one run.

    python3 perfbench/run.py --workload many-bands --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``. The full record of the run (every metric, the problems the
checks found and the environment) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")
WORK = os.path.join(ROOT, "perfbench", "work")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mtunmix", "__init__.py")):
        print(f"no mtunmix sources under {SRC}", file=sys.stderr)
        return 2
    # every workload runs BLAS on one thread so that timings stay steady; the
    # variables must be set before numpy is first imported, and the mtunmix
    # commands of cli-mc inherit them
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [SRC, ROOT]

    import mtunmix

    if os.path.dirname(os.path.abspath(mtunmix.__file__)) != os.path.join(SRC, "mtunmix"):
        print(f"mtunmix imported from {mtunmix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import climc, library
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if args.workload == "cli-mc":
            out = climc.run(args.seed, args.seconds, work_dir, bool(args.trace))
        else:
            out = library.run(args.workload, args.seed, args.seconds, work_dir, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    # a layer the workload never calls (hseq and cli outside cli-mc) reads 0
    measured = out["trace"]["layers"] if args.trace else out["metrics"]
    measured = {m["name"]: measured.get(m["name"], 0.0) for m in declared}
    result = {
        # operations whose checks failed are counted in "failed"; "correct"
        # speaks of the checks on the run as a whole
        "correct": not out["run_problems"] and out["attempted"] > out["failed"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in declared
        },
    }
    record = dict(out, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  traced=bool(args.trace), environment=environment(), result=result)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for problem in (out["run_problems"] + out["problems"])[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
