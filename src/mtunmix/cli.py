"""Command-line front end: generate, unmix, fcls, vca, eval.

Conventions: machine-readable JSON goes to stdout, human-readable messages to
stderr. Exit codes: 0 success, 2 bad flags or validation failure, 3 I/O
failure, 4 numerical abort (NaN during estimation, or a covariance that
stays indefinite after the jitter retry), 5 rank deficiency in endmember
extraction. Every command is deterministic given its flags; seeds
default to 0 rather than being time-derived.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import (
    FactorizationError,
    NumericalAbortError,
    RankDeficiencyError,
    SequenceFormatError,
)
from .fcls import fcls_refine_frame
from .hseq import (
    GlmmModel,
    is_json_int,
    read_hseq,
    read_manifest,
    read_matrix,
    read_result_dir,
    write_hseq,
    write_matrix,
    write_result_dir,
)
from .kronops import one_blas_thread
from .metrics import align_endmember_sequences, apply_permutation, nrmse, sam
from .pipeline import (
    DEFAULT_EM_ITERS,
    DEFAULT_LAMBDA,
    PipelineConfig,
    check_run_settings,
    default_init,
    run_kalman_em,
    vca_extract,
)
from .synth import SynthConfig, empirical_snr_db, generate, synthetic_endmembers

REPLICA_DIR_FMT = "rep_{:04d}"
M0_SEED_OFFSET = 1000003  # decorrelates auto-generated spectra from the scene draw


def _json(payload, indent: int | None = None) -> str:
    """Strict JSON: a non-finite float raises rather than being written as
    the ``Infinity`` or ``NaN`` that JSON parsers reject."""
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)


def _emit(payload: dict) -> None:
    print(_json(payload))


def _finite_or_null(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _run_replicas(fn, jobs: list[tuple]) -> list:
    """``fn(*job)`` for every job on a thread pool of at most one thread per
    CPU the process may use (its affinity mask where the platform has one),
    with NumPy's BLAS on one thread (:func:`mtunmix.kronops.one_blas_thread`);
    the results in job order, the first exception re-raised."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = max(1, min(len(jobs), cpus))
    with one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        return [f.result() for f in futures]


def _check_seed(seed: int) -> None:
    """Refuse a negative ``--seed``, which NumPy's generators reject."""
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def _fan_out(args, run_one, *inputs: Path) -> int:
    """Print the summary of ``run_one(seed, *inputs, out)`` with ``--seed``
    and ``--out``, or under ``--mc R`` the summaries of R replicas, replica
    i with seed ``seed + i`` and the ``rep_<i>`` subdirectory of each input
    and of the output; either way through :func:`_run_replicas`, so BLAS
    runs on one thread. Every input replica is checked for before any
    replica runs."""
    if args.mc < 1:
        raise ValueError(f"--mc must be >= 1, got {args.mc}")
    _check_seed(args.seed)
    dirs = [*inputs, Path(args.out)]
    if args.mc == 1:
        _emit(_run_replicas(run_one, [(args.seed, *dirs)])[0])
        return 0
    jobs = [(args.seed + i, *(d / REPLICA_DIR_FMT.format(i) for d in dirs)) for i in range(args.mc)]
    absent = [replica for job in jobs for replica in job[1:-1] if not replica.is_dir()]
    if absent:
        raise SequenceFormatError(f"missing replica directory {absent[0]}")
    _emit({"replicas": _run_replicas(run_one, jobs)})
    return 0


# ---------------------------------------------------------------- generate


def _synth_config(args) -> SynthConfig:
    """``SynthConfig``'s defaults, overridden by the flags given, then by the
    ``--config`` file; the seed is ``--seed``."""
    fields = dataclasses.fields(SynthConfig)
    names = {f.name for f in fields} - {"rng_seed"}
    settings = {k: v for k, v in vars(args).items() if k in names and v is not None}
    if args.config is not None:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(loaded) - names)
        if "rng_seed" in unknown:
            raise ValueError(f"config file {args.config} sets rng_seed; give the seed with --seed")
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        settings.update(loaded)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    missing = [name for name in required if name not in settings]
    if missing:
        raise ValueError(f"missing required dimensions: {', '.join(missing)}")
    return SynthConfig(**settings, rng_seed=args.seed)


def _generate_one(config: SynthConfig, M0: np.ndarray | None, seed: int, out: Path) -> dict:
    config = dataclasses.replace(config, rng_seed=seed)
    if M0 is None:
        M0 = synthetic_endmembers(config.L, config.P, seed=seed + M0_SEED_OFFSET)
    seq, truth = generate(config, M0)
    write_hseq(seq, out, seed=seed, P=config.P)
    write_result_dir(
        out / "truth",
        L=config.L,
        N=config.N,
        T=config.T,
        P=config.P,
        abundances=truth.abundances,
        endmembers=truth.endmembers,
        psis=truth.psis,
        frames=truth.clean_frames,
        seed=seed,
    )
    write_matrix(out / "truth" / "m0.f64", M0)
    echo = dataclasses.asdict(config)
    echo.update(dirichlet_alpha=list(config.alpha), snr_db=_finite_or_null(config.snr_db))
    (out / "config.json").write_text(_json(echo, indent=2))
    snr = empirical_snr_db(truth.clean_frames, truth.noisy_frames)
    return {
        "out": str(out),
        "L": config.L,
        "N": config.N,
        "T": config.T,
        "P": config.P,
        "seed": seed,
        "empirical_snr_db": _finite_or_null(snr),
    }


def cmd_generate(args) -> int:
    config = _synth_config(args)
    M0 = _load_m0(args, config.L, config.P) if args.m0 is not None else None
    return _fan_out(args, functools.partial(_generate_one, config, M0))


# ------------------------------------------------------------------- unmix


def _load_m0(args, L: int, P_hint: int | None):
    """Reference endmembers from a raw matrix file, sidecar-aware."""
    path = Path(args.m0)
    sidecar = Path(str(path) + ".json")
    if sidecar.is_file():
        meta = json.loads(sidecar.read_text())
        file_L = meta.get("L") if isinstance(meta, dict) else None
        if not is_json_int(file_L):
            raise ValueError(f"endmember sidecar {sidecar} has no integer L")
        if file_L != L:
            raise ValueError(f"endmember sidecar {sidecar} declares L={file_L}, expected L={L}")
    M0 = read_matrix(path, L)
    if not np.all(np.isfinite(M0)):
        raise ValueError(f"endmember file {path} holds non-finite entries")
    if P_hint is not None and M0.shape[1] != P_hint:
        raise ValueError(f"endmember file has P={M0.shape[1]}, expected P={P_hint}")
    return M0


def _unmix_one(args, seed: int, input_dir: Path, out: Path) -> dict:
    manifest = read_manifest(input_dir)
    seq = read_hseq(input_dir, manifest)
    if args.m0 is not None:
        # an explicit endmember file defines P; --p is only a cross-check
        M0 = _load_m0(args, seq.L, args.p)
    else:
        P = args.p if args.p is not None else manifest.P
        if P is None:
            raise ValueError("--vca needs --p (or a P entry in the input manifest)")
        M0 = np.maximum(vca_extract(seq.frames[0], P, seed=seed), 0.0)
    model = GlmmModel(M0=M0)
    A0 = fcls_refine_frame(seq.frames[0], M0, None, 0.0)
    config = PipelineConfig(
        init=default_init(seq.L, seq.N, model.P, A0),
        K_max=args.iters,
        lam=args.lam,
        clamp_psi_nonneg=args.clamp_psi,
    )
    result = run_kalman_em(seq, model, config)
    write_result_dir(
        out,
        L=seq.L,
        N=seq.N,
        T=seq.T,
        P=model.P,
        abundances=result.abundances.maps,
        endmembers=result.endmembers,
        psis=result.psis,
        seed=seed,
    )
    write_matrix(out / "m0.f64", M0)
    # a point-mass state's surrogate is +inf, which strict JSON writes as null
    q_values = [_finite_or_null(q) for q in result.diagnostics["q_value"]]
    diagnostics = dict(result.diagnostics, q_value=q_values)
    (out / "diagnostics.json").write_text(_json(diagnostics, indent=2))
    return {
        "out": str(out),
        "T": seq.T,
        "P": model.P,
        "seed": seed,
        "iters": args.iters,
        "lambda": args.lam,
        "loglik_final": result.diagnostics["loglik"][-1],
        "sigma_r2_final": result.theta_final.sigma_r2,
    }


def cmd_unmix(args) -> int:
    check_run_settings(args.iters, args.lam, names={"K_max": "--iters", "lam": "--lambda"})
    if args.m0 is None and not args.vca:
        raise ValueError("either --m0 or --vca is required")
    return _fan_out(args, functools.partial(_unmix_one, args), Path(args.input))


# -------------------------------------------------------------------- fcls


def cmd_fcls(args) -> int:
    seq = read_hseq(args.input)
    M0 = _load_m0(args, seq.L, None)
    maps = [fcls_refine_frame(frame, M0, None, 0.0) for frame in seq.frames]
    out = Path(args.out)
    write_result_dir(
        out,
        L=seq.L,
        N=seq.N,
        T=seq.T,
        P=M0.shape[1],
        abundances=maps,
        endmembers=[M0] * seq.T,
    )
    write_matrix(out / "m0.f64", M0)
    _emit({"out": str(out), "T": seq.T, "P": M0.shape[1]})
    return 0


# --------------------------------------------------------------------- vca


def cmd_vca(args) -> int:
    _check_seed(args.seed)
    seq = read_hseq(args.input)
    M0 = vca_extract(seq.frames[0], args.p, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_matrix(out, M0)
    Path(str(out) + ".json").write_text(_json({"L": seq.L, "P": args.p, "seed": args.seed}))
    _emit({"out": str(out), "L": seq.L, "P": args.p, "seed": args.seed})
    return 0


# -------------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    est = read_result_dir(args.est)
    truth = read_result_dir(args.truth)
    for key in ("abundances", "endmembers"):
        if key not in est:
            raise ValueError(f"estimate directory lacks {key}")
        if key not in truth:
            raise ValueError(f"truth directory lacks {key}")
    if "frames" not in truth:
        raise ValueError("truth directory lacks frames for the reconstruction error")
    if est["manifest"].T != truth["manifest"].T:
        raise ValueError(
            f"frame counts differ: estimate T={est['manifest'].T}, truth T={truth['manifest'].T}"
        )
    perm = align_endmember_sequences(truth["endmembers"], est["endmembers"])
    est_m, est_a = apply_permutation(
        perm, endmembers=est["endmembers"], abundances=est["abundances"]
    )
    recon = [M @ A for M, A in zip(est_m, est_a)]
    metrics = {
        "nrmse_a": nrmse(truth["abundances"], est_a),
        "nrmse_m": nrmse(truth["endmembers"], est_m),
        "sam_m": sam(truth["endmembers"], est_m),
        "nrmse_y": nrmse(truth["frames"], recon),
    }
    metrics.update({f"{k}_x100": 100.0 * v for k, v in list(metrics.items())})
    Path(args.out).write_text(_json(metrics, indent=2))
    _emit(metrics)
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtunmix",
        description="Multitemporal hyperspectral unmixing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic benchmark sequence")
    gen.add_argument("--config", help="JSON file of generator settings")
    gen.add_argument("--L", type=int, help="band count")
    gen.add_argument("--N", type=int, help="pixel count")
    gen.add_argument("--T", type=int, help="frame count")
    gen.add_argument("--P", type=int, help="endmember count")
    # each dest is the SynthConfig field the flag sets, whose default applies
    gen.add_argument("--snr-db", type=float, dest="snr_db")
    gen.add_argument("--f-scale", type=float, dest="F_scale")
    gen.add_argument("--q-var", type=float, dest="q_var")
    gen.add_argument("--jitter-std", type=float, dest="abundance_jitter_std")
    gen.add_argument("--m0", help="raw endmember file to mix with (default: synthetic)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mc", type=int, default=1, help="independent replicas")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    unm = sub.add_parser("unmix", help="run the full estimation pipeline")
    unm.add_argument("--input", required=True, help="HSEQ directory")
    unm.add_argument("--m0", help="raw reference endmember file")
    unm.add_argument("--vca", action="store_true", help="extract endmembers from frame 1")
    unm.add_argument("--p", type=int, help="endmember count for --vca")
    unm.add_argument("--iters", type=int, default=DEFAULT_EM_ITERS)
    unm.add_argument("--lambda", type=float, default=DEFAULT_LAMBDA, dest="lam")
    unm.add_argument("--clamp-psi", action="store_true", dest="clamp_psi")
    unm.add_argument("--seed", type=int, default=0)
    unm.add_argument("--mc", type=int, default=1, help="replica subdirectories to process")
    unm.add_argument("--out", required=True)
    unm.set_defaults(func=cmd_unmix)

    fc = sub.add_parser("fcls", help="per-frame constrained least squares baseline")
    fc.add_argument("--input", required=True)
    fc.add_argument("--m0", required=True)
    fc.add_argument("--out", required=True)
    fc.set_defaults(func=cmd_fcls)

    vc = sub.add_parser("vca", help="extract endmembers from the first frame")
    vc.add_argument("--input", required=True)
    vc.add_argument("--p", type=int, required=True)
    vc.add_argument("--seed", type=int, default=0)
    vc.add_argument("--out", required=True)
    vc.set_defaults(func=cmd_vca)

    ev = sub.add_parser("eval", help="score an estimate directory against truth")
    ev.add_argument("--est", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed usage already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NumericalAbortError, FactorizationError) as exc:
        code, message = 4, f"numerical abort: {exc}"
    except RankDeficiencyError as exc:
        code, message = 5, f"rank deficiency: {exc}"
    except (SequenceFormatError, OSError) as exc:
        code, message = 3, f"i/o failure: {exc}"
    except ValueError as exc:  # json.JSONDecodeError included
        code, message = 2, f"invalid arguments: {exc}"
    print(message, file=sys.stderr)  # one line on stderr, no traceback
    return code


if __name__ == "__main__":
    sys.exit(main())
