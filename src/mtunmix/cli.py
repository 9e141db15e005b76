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
    read_hseq,
    read_manifest,
    read_matrix,
    read_result_dir,
    write_hseq,
    write_matrix,
    write_result_dir,
)
from .metrics import align_endmember_sequences, apply_permutation, nrmse, sam
from .pipeline import (
    DEFAULT_EM_ITERS,
    DEFAULT_LAMBDA,
    PipelineConfig,
    default_init,
    run_kalman_em,
    vca_extract,
)
from .synth import SynthConfig, empirical_snr_db, generate, synthetic_endmembers

REPLICA_DIR_FMT = "rep_{:04d}"
M0_SEED_OFFSET = 1000003  # decorrelates auto-generated spectra from the scene draw


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_replicas(fn, jobs: list[tuple]) -> list:
    """``fn(*job)`` for every job on a thread pool of at most one thread per
    CPU the process may use; the results in job order, the first exception
    re-raised."""
    workers = max(1, min(len(jobs), _usable_cpus()))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        return [f.result() for f in futures]


# ---------------------------------------------------------------- generate


def _synth_config_from_args(args, seed: int) -> SynthConfig:
    settings = {
        "L": args.L,
        "N": args.N,
        "T": args.T,
        "P": args.P,
        "snr_db": args.snr_db,
        "F_scale": args.f_scale,
        "q_var": args.q_var,
        "abundance_jitter_std": args.jitter_std,
        "dirichlet_alpha": None,
        "rng_seed": seed,
    }
    if args.config is not None:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(loaded) - set(settings)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(loaded)
        settings["rng_seed"] = seed
    missing = [k for k in ("L", "N", "T", "P") if settings[k] is None]
    if missing:
        raise ValueError(f"missing required dimensions: {', '.join(missing)}")
    return SynthConfig(**settings)


def _generate_one(args, seed: int, out: Path) -> dict:
    config = _synth_config_from_args(args, seed)
    if args.m0 is not None:
        M0 = _load_m0(args, config.L, config.P)
    else:
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
    echo = {k: getattr(config, k) for k in (
        "L", "N", "T", "P", "F_scale", "q_var", "snr_db", "abundance_jitter_std", "rng_seed"
    )}
    echo["dirichlet_alpha"] = list(config.alpha)
    (out / "config.json").write_text(json.dumps(echo, indent=2, sort_keys=True))
    return {
        "out": str(out),
        "L": config.L,
        "N": config.N,
        "T": config.T,
        "P": config.P,
        "seed": seed,
        "empirical_snr_db": empirical_snr_db(truth.clean_frames, truth.noisy_frames),
    }


def cmd_generate(args) -> int:
    out = Path(args.out)
    if args.mc <= 1:
        _emit(_generate_one(args, args.seed, out))
        return 0
    jobs = [(args, args.seed + i, out / REPLICA_DIR_FMT.format(i)) for i in range(args.mc)]
    _emit({"replicas": _run_replicas(_generate_one, jobs)})
    return 0


# ------------------------------------------------------------------- unmix


def _load_m0(args, L: int, P_hint: int | None):
    """Reference endmembers from a raw matrix file, sidecar-aware."""
    path = Path(args.m0)
    sidecar = Path(str(path) + ".json")
    if sidecar.is_file():
        meta = json.loads(sidecar.read_text())
        file_L = meta.get("L") if isinstance(meta, dict) else None
        if not isinstance(file_L, int) or isinstance(file_L, bool):
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
    (out / "diagnostics.json").write_text(
        json.dumps(result.diagnostics, indent=2, sort_keys=True)
    )
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
    if args.iters < 1:
        raise ValueError("--iters must be >= 1")
    if not 0 <= args.lam < math.inf:
        raise ValueError("--lambda must be finite and nonnegative")
    if args.m0 is None and not args.vca:
        raise ValueError("either --m0 or --vca is required")
    input_dir = Path(args.input)
    out = Path(args.out)
    if args.mc <= 1:
        _emit(_unmix_one(args, args.seed, input_dir, out))
        return 0
    jobs = []
    for i in range(args.mc):
        rep = REPLICA_DIR_FMT.format(i)
        if not (input_dir / rep).is_dir():
            raise SequenceFormatError(f"missing replica directory {input_dir / rep}")
        jobs.append((args, args.seed + i, input_dir / rep, out / rep))
    _emit({"replicas": _run_replicas(_unmix_one, jobs)})
    return 0


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
    seq = read_hseq(args.input)
    M0 = vca_extract(seq.frames[0], args.p, seed=args.seed)
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    write_matrix(out, M0)
    Path(str(out) + ".json").write_text(
        json.dumps({"L": seq.L, "P": args.p, "seed": args.seed}, sort_keys=True)
    )
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
    Path(args.out).write_text(json.dumps(metrics, indent=2, sort_keys=True))
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
    gen.add_argument("--snr-db", type=float, default=30.0, dest="snr_db")
    gen.add_argument("--f-scale", type=float, default=0.9, dest="f_scale")
    gen.add_argument("--q-var", type=float, default=0.01, dest="q_var")
    gen.add_argument("--jitter-std", type=float, default=3e-3, dest="jitter_std")
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
        _note(f"numerical abort: {exc}")
        return 4
    except RankDeficiencyError as exc:
        _note(f"rank deficiency: {exc}")
        return 5
    except (SequenceFormatError, OSError) as exc:
        _note(f"i/o failure: {exc}")
        return 3
    except (ValueError, json.JSONDecodeError) as exc:
        _note(f"invalid arguments: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
