"""Library workloads: unmix and baseline sequences in worker processes.

Each worker owns every ``workers``-th sequence of the run's inputs. A round is
one sequence: the *unmix* operation (VCA, FCLS init, ``run_kalman_em``, the
same steps as ``mtunmix unmix --vca``) and then the *baseline* operation (FCLS
of every frame against the VCA endmembers), and then the *probe*
operations, one per frame of the workload's oracle probe (see
``workloads``). A worker unmixes each of its sequences once and then cycles
over them again until the run's time is up. The outputs of every round are
checked after the round, outside the timing.

Set-up time is sampled through the run: before every SETUP_EVERY-th round of
an untraced run, the worker times a fresh interpreter that imports mtunmix
and generates the run's inputs, while it waits for it. On a VM shared with
other tenants, samples taken at one moment read alike and the next moment's
may read 25% apart; spread over the run they average that out.

In a traced run every round is done twice back to back, traced and untraced,
in alternating order; the per-sequence difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from mtunmix import fcls, hseq, pipeline, vca

from . import checks, tracing
from .workloads import EM_ITERS, LAMBDA, WORKLOADS, make_inputs, make_probe

ACCURACY = ("nrmse_a", "nrmse_a_fcls", "nrmse_m", "sam_m")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_EVERY = 3
#: imports the package in a fresh interpreter and generates the run's inputs
SETUP_PROBE = (
    "import sys; sys.path[:0] = [{src!r}, {root!r}]; "
    "from perfbench.workloads import make_inputs; make_inputs({name!r}, {seed!r})"
)
#: runs ``worker`` on the JSON arguments in argv[1], writes its record to argv[2]
WORKER = (
    "import sys; sys.path[:0] = [{src!r}, {root!r}]; "
    "from perfbench import library; library.worker_main(sys.argv[1], sys.argv[2])"
)


def time_setup(name: str, seed: int) -> float:
    code = SETUP_PROBE.format(src=os.path.join(ROOT, "src"), root=ROOT, name=name, seed=seed)
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, capture_output=True)
    return time.monotonic() - t0


def unmix(seq: hseq.HsiSequence, P: int, vca_seed: int):
    M0 = np.maximum(vca.vca_extract(seq.frames[0], P, seed=vca_seed), 0.0)
    A0 = fcls.fcls_refine_frame(seq.frames[0], M0, None, 0.0)
    config = pipeline.PipelineConfig(
        init=pipeline.default_init(seq.L, seq.N, P, A0), K_max=EM_ITERS, lam=LAMBDA
    )
    return M0, A0, pipeline.run_kalman_em(seq, hseq.GlmmModel(M0=M0), config)


def baseline(seq: hseq.HsiSequence, M0):
    return [fcls.fcls_refine_frame(Y, M0, None, 0.0) for Y in seq.frames]


def probe_inputs(name: str):
    """The oracle probe's sequence and its VCA endmembers, made once per process."""
    item = make_probe(name)
    M0 = np.maximum(vca.vca_extract(item.frames[0], WORKLOADS[name].P, seed=item.vca_seed), 0.0)
    return item, M0


def run_probe(probe) -> list[list[str]]:
    """One operation per probe frame: FCLS against the probe's endmembers,
    every column checked against the oracle. Returns each frame's problems."""
    item, M0 = probe
    out = []
    for t, Y in enumerate(item.frames):
        try:
            found = checks.oracle_problems(fcls.fcls_refine_frame(Y, M0, None, 0.0), M0, Y)
        except Exception as exc:  # an operation that raises counts as failed
            found = [f"{type(exc).__name__}: {exc}"]
        out.append([f"probe frame {t}: {p}" for p in found])
    return out


def check_outputs(item, M0, A0, result, maps) -> tuple[dict, list[str], dict]:
    """Accuracy of one round's outputs, the problems that fail it, and how
    far its FCLS outputs are from the oracle.

    ``maps`` are the baseline's abundances, or None to check the unmix only.
    Columns off the oracle are counted here, not failed: on these seeded
    scenes ``fcls_solve`` stops short of the minimizer on some frames and not
    others, and a failure that comes and goes with the seed would make the
    failed share differ from run to run. The probe fails on that fault in
    every run instead.
    """
    frames, truth = item.frames, item.truth
    ends, abunds = result.endmembers, result.abundances.maps
    solves = [("init", A0, M0, frames[0], 0.0, None)]
    for t, Y in enumerate(frames):
        solves.append((f"refinement frame {t}", abunds[t], ends[t], Y, LAMBDA, result.theta_final.A))
        if maps is not None:
            solves.append((f"baseline frame {t}", maps[t], M0, Y, 0.0, None))
    problems, oracle = [], {"misses": 0, "gap": 0.0}
    for label, A, M, Y, lam, A_ref in solves:
        found, misses, gap = checks.fcls_check(A, M, Y, lam, A_ref)
        problems += [f"{label}: {p}" for p in found]
        oracle["misses"] += misses
        oracle["gap"] = max(oracle["gap"], gap)
    problems += checks.em_problems(
        result.diagnostics["loglik"], result.theta_final.sigma_r2, truth
    )
    acc = checks.scores(truth, ends, abunds)
    problems += checks.compare_with_package(truth, ends, abunds, acc)
    if maps is not None:
        fixed = [M0] * len(maps)
        base = checks.scores(truth, fixed, maps)
        problems += checks.compare_with_package(truth, fixed, maps, base)
        acc["nrmse_a_fcls"] = base["nrmse_a"]
    return acc, problems, oracle


@contextlib.contextmanager
def installed(tracer, targets):
    inst = tracing.install(tracer, targets) if tracer is not None else None
    try:
        yield
    finally:
        if inst is not None:
            inst.remove()


def timed_round(item, P: int, tracer=None):
    """(unmix seconds, baseline seconds, outputs) of one sequence."""
    seq = hseq.HsiSequence(frames=item.frames)
    t0 = time.monotonic()
    if tracer is None:
        M0, A0, result = unmix(seq, P, item.vca_seed)
        t1 = time.monotonic()
        maps = baseline(seq, M0)
    else:
        M0, A0, result = tracer.call("bench.unmix", unmix, (seq, P, item.vca_seed), {}, op="unmix")
        t1 = time.monotonic()
        maps = tracer.call("bench.baseline", baseline, (seq, M0), {}, op="baseline")
    t2 = time.monotonic()
    return t1 - t0, t2 - t1, (M0, A0, result, maps)


def traced_pair(item, P: int, tracer, traced_first: bool, rec: dict):
    """One traced and one untraced round of the same sequence."""
    timed = {}
    for use_tracer in (traced_first, not traced_first):
        if use_tracer:
            n_before = len(tracer.spans)
            with installed(tracer, tracing.LIBRARY_TARGETS):
                timed[True] = timed_round(item, P, tracer)
            rec["self_sum"] += sum(tracing.self_times(tracer.spans[n_before:]).values())
        else:
            timed[False] = timed_round(item, P)
    tu, tb, outputs = timed[True]
    rec["traced_wall"] += tu + tb
    rec["overhead"].append(tu + tb - sum(timed[False][:2]))
    return tu, tb, outputs


def worker(name: str, seed: int, share: list[int], seconds: float, spans_path, first_id: int):
    """Runs in a worker process; returns plain data for the parent to merge.

    ``spans_path`` is None for an untraced run.
    """
    w = WORKLOADS[name]
    tracer = tracing.Tracer("setup", first_id) if spans_path else None
    with installed(tracer, tracing.LIBRARY_TARGETS):
        items = make_inputs(name, seed, share)
    probe = probe_inputs(name)
    rec = {
        "unmix_s": [], "baseline_s": [], "accuracy": [], "problems": [], "attempted": 0,
        "failed": 0, "traced_wall": 0.0, "self_sum": 0.0, "overhead": [],
        "generated": len(items), "oracle_misses": 0, "oracle_gap": 0.0, "setup_s": [],
        "setup_problems": [],
    }
    deadline = time.monotonic() + seconds
    i = 0
    while i < len(items) or time.monotonic() < deadline:
        item = items[i % len(items)]
        if tracer is None and i % SETUP_EVERY == 0:
            try:
                rec["setup_s"].append(time_setup(name, seed))
            except (OSError, subprocess.CalledProcessError) as exc:
                rec["setup_problems"].append(f"set-up: {type(exc).__name__}: {exc}")
        rec["attempted"] += 2 + w.T
        try:
            if tracer is None:
                tu, tb, outputs = timed_round(item, w.P)
            else:
                tu, tb, outputs = traced_pair(item, w.P, tracer, i % 2 == 0, rec)
            acc, problems, oracle = check_outputs(item, *outputs)
        except Exception as exc:  # an operation that raises counts as failed
            acc, problems, oracle = None, [f"{type(exc).__name__}: {exc}"], None
        if oracle is not None:
            rec["oracle_misses"] += oracle["misses"]
            rec["oracle_gap"] = max(rec["oracle_gap"], oracle["gap"])
        if problems:
            rec["failed"] += 2
            rec["problems"] += [f"sequence {item.index}: {p}" for p in problems]
        else:
            rec["unmix_s"].append(tu)
            rec["baseline_s"].append(tb)
            if i < len(items):
                rec["accuracy"].append(acc)
        for found in run_probe(probe):
            rec["failed"] += bool(found)
            rec["problems"] += [p for p in found if p not in rec["problems"]]
        i += 1
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(spans_path)
    return rec


def worker_main(args_json: str, out_path: str) -> None:
    rec = worker(*json.loads(args_json))
    with open(out_path, "w") as fh:
        json.dump(rec, fh)


def run_workers(args_lists, work_dir) -> list[dict]:
    """Runs ``worker`` on each argument list in its own process and returns
    their records. Every worker is waited for on every way out; a worker
    still running after an error is killed with its process group."""
    code = WORKER.format(src=os.path.join(ROOT, "src"), root=ROOT)
    outs = [os.path.join(work_dir, f"worker-{k}.json") for k in range(len(args_lists))]
    procs = []
    try:
        for args, out in zip(args_lists, outs):
            procs.append(subprocess.Popen([sys.executable, "-c", code, json.dumps(args), out],
                                          cwd=ROOT, start_new_session=True))
        codes = [p.wait() for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    if any(codes):
        raise RuntimeError(f"worker processes exited {codes}")
    recs = []
    for out in outs:
        with open(out) as fh:
            recs.append(json.load(fh))
    return recs


def layer_metrics(spans, counters, sequences: int, generated: int) -> dict[str, float]:
    """Per-sequence figures of every layer from the spans of a traced run."""
    def total(name, ops=None):
        return sum(
            s.end - s.start for s in spans if s.name == name and (ops is None or s.op in ops)
        )

    def count(name):
        return sum(1 for s in spans if s.name == name)

    selfs = tracing.self_times(spans)
    solves = count("fcls.solve")
    calls = count("kronops.cho_factor_jittered")
    orders = [s.value for s in spans if s.name == "kronops.cholesky"]
    per = 1.0 / max(sequences, 1)
    return {
        "fcls.init_s": total("fcls.frame", ("unmix",)) * per,
        "fcls.refine_s": total("fcls.refine") * per,
        "fcls.baseline_s": total("fcls.frame", ("baseline", "fcls")) * per,
        "fcls.solves": solves * per,
        "fcls.solve_ms": 1000.0 * total("fcls.solve") / max(solves, 1),
        "fcls.cap_hits": counters.get("fcls.cap_hits", 0) * per,
        "kalman.filter_s": total("kalman.run_filter") * per,
        "kalman.smooth_s": total("kalman.rts_smooth") * per,
        "kalman.passes": count("kalman.run_filter") * per,
        "em.stats_s": total("em.accumulate_stats") * per,
        "em.mstep_s": total("em.mstep") * per,
        "em.iterations": count("em.em_iterate") * per,
        "pipeline.self_s": per
        * sum(selfs[s.sid] for s in spans if s.name == "pipeline.run_kalman_em"),
        "kronops.cholesky_calls": calls * per,
        "kronops.cholesky_retries": (len(orders) - calls) * per,
        "kronops.cholesky_gflop": sum(n**3 / 3.0 for n in orders) / 1e9 * per,
        "vca.extract_s": total("vca.vca_extract") * per,
        "synth.generate_s": total("synth.generate") / max(generated, 1),
    }


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed by layer, the part of a span name before the dot."""
    selfs = tracing.self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + selfs[s.sid]
    return out


def run(name: str, seed: int, seconds: float, work_dir, traced: bool) -> dict:
    w = WORKLOADS[name]
    workers = min(2, len(os.sched_getaffinity(0)))
    paths = [
        os.path.join(work_dir, f"spans-{k}.json") if traced else None for k in range(workers)
    ]
    recs = run_workers(
        [
            [name, seed, list(range(k, w.sequences, workers)), seconds, paths[k],
             (k + 1) * tracing.ID_RANGE]
            for k in range(workers)
        ],
        work_dir,
    )

    merged = {key: [x for r in recs for x in r[key]] for key in
              ("unmix_s", "baseline_s", "accuracy", "problems", "overhead", "setup_s",
               "setup_problems")}
    run_problems = merged["setup_problems"]

    def median(values):  # NaN when every round failed
        return statistics.median(values) if values else float("nan")

    out = {
        "attempted": sum(r["attempted"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "problems": merged["problems"],
        "run_problems": run_problems,
        "workers": workers,
        "rounds": len(merged["unmix_s"]),
        "samples": {k: merged[k] for k in ("setup_s", "unmix_s", "baseline_s", "accuracy")},
        "fcls_oracle": {
            "tolerance": checks.ORACLE_TOL,
            "columns_off": sum(r["oracle_misses"] for r in recs),
            "largest_gap": max(r["oracle_gap"] for r in recs),
        },
        "metrics": {
            "setup_s": median(merged["setup_s"]),
            "unmix_s": median(merged["unmix_s"]),
            "baseline_s": median(merged["baseline_s"]),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in recs),
        },
    }
    for key in ACCURACY:
        values = [a[key] for a in merged["accuracy"]]
        out["metrics"][key] = statistics.fmean(values) if values else float("nan")
    if not out["metrics"]["nrmse_a"] < out["metrics"]["nrmse_a_fcls"]:
        run_problems.append("proposed nrmse_a is not below the FCLS baseline's")
    if traced:
        spans, counters = [], {}
        for path in paths:
            s, c = tracing.load_spans(path)
            spans += s
            for k, v in c.items():
                counters[k] = counters.get(k, 0) + v
        traced_seqs = len(merged["overhead"])
        layers = layer_metrics(spans, counters, traced_seqs, sum(r["generated"] for r in recs))
        layers["trace.overhead_s"] = median(merged["overhead"])
        # every round of a traced run is done twice, so each round's checks
        # cover one traced sequence
        layers["fcls.oracle_misses"] = out["fcls_oracle"]["columns_off"] / max(out["rounds"], 1)
        wall = sum(r["traced_wall"] for r in recs)
        self_sum = sum(r["self_sum"] for r in recs)
        slack = abs(layers["trace.overhead_s"]) * traced_seqs
        if not abs(self_sum - wall) <= slack:
            run_problems.append(f"self times sum to {self_sum:.6f} s, traced wall is {wall:.6f} s")
        out["trace"] = {
            "layers": layers,
            "self_s_by_layer": layer_self_times(spans),
            "self_sum_s": self_sum,
            "traced_wall_s": wall,
            "spans": len(spans),
        }
    return out
