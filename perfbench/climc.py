"""The ``cli-mc`` workload: the ``mtunmix`` command as users run it.

A round is the command sequence a user runs: ``mtunmix generate --m0 LIBRARY
--mc R`` writes the inputs, ``mtunmix unmix --vca --mc R`` unmixes every
replica, then ``mtunmix fcls`` and ``mtunmix eval`` of one replica, in
turn, run side by side; then come the oracle probe's operations (see
``library.run_probe``), in this process. The median wall time of
``generate`` is ``setup_s``; taking it in every round spreads its samples
over the run.

The commands inherit BLAS pinned to one thread, so the ``--mc`` pool runs
two threads on two cores. Under the default BLAS threading it would run
2 threads x 2 BLAS threads on a 2-core VM, and one ``unmix --mc 2`` then read
anywhere from 0.97 to 1.69 s per replica from one command to the next
(0.47 to 0.65 s pinned); run medians of that spread 0.2 to 0.3 across
seeds, beyond any bound the benchmark can hold.

The replicas are the same in every run (generator seed GENERATE_SEED); the
run's seed reaches ``unmix --seed``, which seeds the VCA draws. A run holds
only R sequences, and accuracy measured on R freshly drawn scenes would
spread across seeds far beyond any useful bound; start-up, I/O and the
thread pool, which this workload is for, do not depend on the data.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

from mtunmix import hseq

from . import checks, library, tracing
from .workloads import EM_ITERS, LAMBDA, SNR_DB, WORKLOADS

W = WORKLOADS["cli-mc"]
R = W.sequences
GENERATE_SEED = 0
ROUND_COMMANDS = 4
CONCURRENT = 2
COMMAND_TIMEOUT = 120  # seconds; a command that takes longer counts as failed
#: CLI outputs against the same pipeline run in this process. FCLS stops at a
#: KKT residual of 1e-7, so a different order of sums moves its outputs by
#: about 1e-8; the oracle's tolerance applies.
MATCH_TOL = checks.ORACLE_TOL
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAN = float("nan")


def read_raw(path, rows: int, cols: int) -> np.ndarray:
    """A matrix in the HSEQ raw layout: little-endian float64, column-major."""
    return np.fromfile(path, dtype="<f8").reshape((rows, cols), order="F")


def read_series(directory, prefix: str, rows: int, cols: int) -> list[np.ndarray]:
    return [
        read_raw(os.path.join(directory, f"{prefix}_{t:04d}.f64"), rows, cols)
        for t in range(W.T)
    ]


class Commands:
    """Runs ``mtunmix`` subcommands and records one span per command."""

    def __init__(self, work_dir: str, tracer):
        self.work_dir = work_dir
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.tracer = tracer
        self.children: list[tuple[str, int]] = []  # (spans file, command span id)
        self._issued = itertools.count(1)

    def run(self, args: list[str]) -> dict:
        tracer = self.tracer
        n = next(self._issued)
        if tracer is None:
            argv = [sys.executable, "-m", "mtunmix.cli", *args]
        else:
            spans = os.path.join(self.work_dir, f"cli-spans-{n}.json")
            first_id = (n + 16) * tracing.ID_RANGE
            argv = [sys.executable, os.path.join(ROOT, "perfbench", "cli_entry.py"),
                    spans, str(first_id), *args]
        start = time.monotonic()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT)
            code, stderr = proc.returncode, proc.stderr[-2000:]
        except subprocess.TimeoutExpired:
            code, stderr = None, f"killed after {COMMAND_TIMEOUT} s"
        end = time.monotonic()
        if tracer is not None and code is not None:
            sid = tracer.record(f"cli.{args[0]}", args[0], None, start, end)
            self.children.append((spans, sid))
        return {"args": args, "code": code, "stderr": stderr, "wall": end - start}

    def run_all(self, arg_lists) -> list[dict]:
        with ThreadPoolExecutor(max_workers=CONCURRENT) as pool:
            futures = [pool.submit(self.run, a) for a in arg_lists]
            return [f.result() for f in futures]


def generate_args(library_path: str, out: str) -> list[str]:
    return ["generate", "--L", str(W.L), "--N", str(W.N), "--T", str(W.T), "--P", str(W.P),
            "--snr-db", str(SNR_DB), "--m0", library_path, "--seed", str(GENERATE_SEED),
            "--mc", str(R), "--out", out]


def write_raw(path: str, X: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(np.asarray(X, dtype="<f8").tobytes(order="F"))


def load_replica(gen: str, i: int):
    rep = os.path.join(gen, f"rep_{i:04d}")
    truth_dir = os.path.join(rep, "truth")
    truth = SimpleNamespace(
        abundances=read_series(truth_dir, "abund", W.P, W.N),
        endmembers=read_series(truth_dir, "endm", W.L, W.P),
        clean_frames=read_series(truth_dir, "frame", W.L, W.N),
        noisy_frames=read_series(rep, "frame", W.L, W.N),
    )
    return SimpleNamespace(index=i, frames=tuple(truth.noisy_frames), truth=truth)


def library_reference(item, vca_seed: int) -> tuple[dict, list[str], dict]:
    """The pipeline run in this process on the same replica, its problems,
    and how far its FCLS outputs are from the oracle."""
    seq = hseq.HsiSequence(frames=item.frames)
    M0, A0, result = library.unmix(seq, W.P, vca_seed)
    acc, problems, oracle = library.check_outputs(item, M0, A0, result, None)
    ref = {"abund": result.abundances.maps, "endm": result.endmembers, "scores": acc}
    return ref, [f"library run: {p}" for p in problems], oracle


def check_unmix(item, unmix_dir: str, ref: dict) -> list[str]:
    """Problems with one replica's ``unmix`` outputs."""
    with open(os.path.join(unmix_dir, "diagnostics.json")) as fh:
        diag = json.load(fh)
    problems = checks.em_problems(diag["loglik"], diag["sigma_r2"][-1], item.truth)
    outputs = {
        "abund": read_series(unmix_dir, "abund", W.P, W.N),
        "endm": read_series(unmix_dir, "endm", W.L, W.P),
    }
    for key, cli_out in outputs.items():
        gap = max(float(np.max(np.abs(a - b))) for a, b in zip(cli_out, ref[key]))
        if not gap <= MATCH_TOL:
            problems.append(f"unmix {key} differs from the library run by {gap:.3e}")
    return problems


def check_fcls_eval(item, unmix_dir: str, fcls_dir: str, eval_path: str, ref: dict):
    """Accuracy from one replica's ``fcls`` and ``eval`` outputs, the problems
    found, and how far the ``fcls`` outputs are from the oracle."""
    truth = item.truth
    problems = []
    m0 = read_raw(os.path.join(fcls_dir, "m0.f64"), W.L, W.P)
    fcls_maps = read_series(fcls_dir, "abund", W.P, W.N)
    oracle = {"misses": 0, "gap": 0.0}
    for t, Y in enumerate(item.frames):
        found, misses, gap = checks.fcls_check(fcls_maps[t], m0, Y)
        problems += [f"fcls frame {t}: {p}" for p in found]
        oracle["misses"] += misses
        oracle["gap"] = max(oracle["gap"], gap)
    with open(eval_path) as fh:
        evaluated = json.load(fh)
    endm = read_series(unmix_dir, "endm", W.L, W.P)
    own = checks.scores(truth, endm, read_series(unmix_dir, "abund", W.P, W.N))
    for key in ("nrmse_a", "nrmse_m", "sam_m"):
        if not abs(evaluated[key] - own[key]) <= checks.SCORE_TOL * max(1.0, abs(own[key])):
            problems.append(f"eval {key} {evaluated[key]!r} vs benchmark {own[key]!r}")
        if not abs(evaluated[key] - ref["scores"][key]) <= MATCH_TOL:
            problems.append(
                f"eval {key} {evaluated[key]!r} vs library run {ref['scores'][key]!r}"
            )
    acc = {key: evaluated[key] for key in ("nrmse_a", "nrmse_m", "sam_m")}
    acc["nrmse_a_fcls"] = checks.scores(truth, [m0] * W.T, fcls_maps)["nrmse_a"]
    return acc, problems, oracle


def do_round(cmds: Commands, library_path: str, unmix_seed: int, k: int, i: int):
    """``generate --mc R``, ``unmix --mc R`` over every replica, then ``fcls``
    and ``eval`` of replica i. Stops after a failed ``generate``."""
    out_dir = os.path.join(cmds.work_dir, f"round-{k}")
    gen = os.path.join(out_dir, "gen")
    unmix_out = os.path.join(out_dir, "unmix")
    rep = f"rep_{i:04d}"
    generate = cmds.run(generate_args(library_path, gen))
    if generate["code"] != 0:
        return out_dir, [generate]
    unmix = cmds.run(
        ["unmix", "--input", gen, "--vca", "--p", str(W.P), "--iters", str(EM_ITERS),
         "--lambda", repr(LAMBDA), "--seed", str(unmix_seed), "--mc", str(R), "--out", unmix_out]
    )
    fcls, evaluated = cmds.run_all([
        ["fcls", "--input", os.path.join(gen, rep), "--m0", os.path.join(unmix_out, rep, "m0.f64"),
         "--out", os.path.join(out_dir, "fcls")],
        ["eval", "--est", os.path.join(unmix_out, rep), "--truth", os.path.join(gen, rep, "truth"),
         "--out", os.path.join(out_dir, "eval.json")],
    ])
    return out_dir, [generate, unmix, fcls, evaluated]


def same_replicas(items, gen: str) -> list[str]:
    """``generate`` with the same seed must write the same replicas every round."""
    problems = []
    for item in items:
        again = load_replica(gen, item.index).truth
        for key, first in vars(item.truth).items():
            if not all(np.array_equal(a, b) for a, b in zip(first, getattr(again, key))):
                problems.append(f"replica {item.index}: generate wrote other {key}")
    return problems


def run(seed: int, seconds: float, work_dir: str, traced: bool) -> dict:
    unmix_seed = 1000 * seed  # replica i draws VCA with unmix_seed + i
    tracer = tracing.Tracer("bench") if traced else None
    cmds = Commands(work_dir, tracer)
    problems, run_problems = [], []
    library_path = os.path.join(work_dir, "library.f64")
    write_raw(library_path, W.library())
    probe = library.probe_inputs(W.name)
    items = refs = None  # from the first round whose generate succeeds
    oracle = {"tolerance": checks.ORACLE_TOL, "columns_off": 0, "largest_gap": 0.0,
              "library_run_columns_off": 0}

    setup_s, unmix_s, baseline_s, accuracy = [], [], [], {}
    attempted = failed = 0
    round_walls: dict[bool, list[float]] = {True: [], False: []}
    deadline = time.monotonic() + seconds
    k = 0
    # every replica gets its fcls and eval once (traced runs: a traced and an
    # untraced round each); a round takes seconds, so start one only if it
    # should end in time
    min_rounds = 2 * R if traced else R
    while k < min_rounds or (
        time.monotonic() + statistics.median(round_walls[True] + round_walls[False]) <= deadline
    ):
        use_tracer = traced and k % 2 == 0
        i = (k // 2 if traced else k) % R
        cmds.tracer = tracer if use_tracer else None
        t0 = time.monotonic()
        out_dir, results = do_round(cmds, library_path, unmix_seed, k, i)
        round_walls[use_tracer].append(time.monotonic() - t0)
        attempted += ROUND_COMMANDS + W.T
        for found in library.run_probe(probe):
            failed += bool(found)
            problems += [p for p in found if p not in problems]
        bad = [r for r in results if r["code"] != 0]
        # commands left unrun after a failed generate fail with it
        failed += len(bad) + ROUND_COMMANDS - len(results)
        problems += [f"{r['args'][0]} exited {r['code']}: {r['stderr']}" for r in bad]
        k += 1
        if bad:
            continue
        gen = os.path.join(out_dir, "gen")
        round_problems = []
        if items is None:
            items = [load_replica(gen, j) for j in range(R)]
            refs = []
            for item in items:
                ref, ref_problems, ref_oracle = library_reference(item, unmix_seed + item.index)
                refs.append(ref)
                run_problems += ref_problems
                oracle["library_run_columns_off"] += ref_oracle["misses"]
                oracle["largest_gap"] = max(oracle["largest_gap"], ref_oracle["gap"])
        else:
            round_problems += same_replicas(items, gen)
        unmix_dir = os.path.join(out_dir, "unmix")
        for item, ref in zip(items, refs):
            rep_dir = os.path.join(unmix_dir, f"rep_{item.index:04d}")
            round_problems += [
                f"replica {item.index}: {p}" for p in check_unmix(item, rep_dir, ref)
            ]
        acc, found, rep_oracle = check_fcls_eval(
            items[i], os.path.join(unmix_dir, f"rep_{i:04d}"), os.path.join(out_dir, "fcls"),
            os.path.join(out_dir, "eval.json"), refs[i],
        )
        round_problems += [f"replica {i}: {p}" for p in found]
        oracle["columns_off"] += rep_oracle["misses"]
        oracle["largest_gap"] = max(oracle["largest_gap"], rep_oracle["gap"])
        if round_problems:
            failed += 1
            problems += [f"round {k - 1}: {p}" for p in round_problems]
            continue
        accuracy.setdefault(i, acc)
        setup_s.append(results[0]["wall"])
        unmix_s.append(results[1]["wall"] / R)
        baseline_s.append(results[2]["wall"])
    accuracy = list(accuracy.values())

    def median(values):  # NaN when every round failed
        return statistics.median(values) if values else NAN

    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "run_problems": run_problems,
        "rounds": k,
        "fcls_oracle": oracle,
        "samples": {"setup_s": setup_s, "unmix_s": unmix_s, "baseline_s": baseline_s,
                    "accuracy": accuracy},
        "metrics": {
            "setup_s": median(setup_s),
            "unmix_s": median(unmix_s),
            "baseline_s": median(baseline_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        },
    }
    for key in library.ACCURACY:
        out["metrics"][key] = statistics.fmean(a[key] for a in accuracy) if accuracy else NAN
    if not out["metrics"]["nrmse_a"] < out["metrics"]["nrmse_a_fcls"]:
        run_problems.append("proposed nrmse_a is not below the FCLS baseline's")
    if traced:
        out["trace"] = trace_summary(tracer, cmds, round_walls)
        out["trace"]["layers"]["fcls.oracle_misses"] = oracle["columns_off"] / k
        run_problems += out["trace"].pop("problems")
    return out


def trace_summary(tracer, cmds: Commands, round_walls) -> dict:
    """Per-replica layer figures from the spans of every traced command.

    A round runs ``generate`` and ``unmix`` over all R replicas but ``fcls``
    and ``eval`` on one, so each command's share is divided by the replicas
    it covered.
    """
    spans = list(tracer.spans)
    by_sid = {s.sid: s for s in spans}
    counters: dict[str, dict] = {}
    startups = []
    for path, parent_sid in cmds.children:
        command = by_sid[parent_sid].op
        child_spans, child_counters = tracing.load_spans(path)
        for key, value in child_counters.items():
            counters.setdefault(command, {})
            counters[command][key] = counters[command].get(key, 0) + value
        for s in child_spans:
            if s.name == "cli.main":
                startups.append(s.start - by_sid[parent_sid].start)
                s = tracing.Span(**dict(s.__dict__, parent=parent_sid))
            spans.append(s)
    rounds = len(round_walls[True])
    covered = {"generate": R * rounds, "unmix": R * rounds, "fcls": rounds, "eval": rounds}
    parts = [
        library.layer_metrics([s for s in spans if s.op == op], counters.get(op, {}), n, 0)
        for op, n in covered.items()
    ]
    layers = {key: sum(part[key] for part in parts) for key in parts[0]}
    solves = [s for s in spans if s.name == "fcls.solve" and s.op in covered]
    layers["fcls.solve_ms"] = 1000.0 * sum(s.end - s.start for s in solves) / max(len(solves), 1)
    generated = [s for s in spans if s.name == "synth.generate"]
    layers["synth.generate_s"] = sum(s.end - s.start for s in generated) / max(len(generated), 1)

    def per_replica(names, value):
        return sum(value(s) / covered[s.op] for s in spans if s.name in names and s.op in covered)

    layers["hseq.read_s"] = per_replica({"hseq.read"}, lambda s: s.end - s.start)
    layers["hseq.write_s"] = per_replica({"hseq.write"}, lambda s: s.end - s.start)
    layers["hseq.bytes_written"] = per_replica({"hseq.write", "hseq.write_matrix"}, lambda s: s.value)
    layers["cli.startup_s"] = statistics.median(startups) if startups else NAN
    layers["trace.overhead_s"] = (
        statistics.median(round_walls[True]) - statistics.median(round_walls[False])
    ) / R
    # each command's process runs its spans on one thread, except the --mc
    # pool of unmix, whose worker threads have no parent span; below a
    # command span the self times must add up to the command's wall time
    problems = []
    slack = max(abs(layers["trace.overhead_s"]), 1e-6)
    for _, sid in cmds.children:
        gap = tracing.subtree_self_sum(spans, sid) - (by_sid[sid].end - by_sid[sid].start)
        if not abs(gap) <= slack:
            problems.append(f"self times under {by_sid[sid].name} miss its wall time by {gap:.6f} s")
    return {"layers": layers, "self_s_by_layer": library.layer_self_times(spans),
            "spans": len(spans), "problems": problems}
