"""End-to-end unmixing: init, EM loop, endmember reconstruction, refinement.

The driver alternates filter/smoother passes with closed-form parameter
updates for a fixed number of iterations, reconstructs per-frame endmembers
from the smoothed scaling factors (L x P, kept in the result) as
``M_t = M0 * Psi_t``, and finally re-solves each frame's abundances under
simplex constraints with a pull toward the learned average abundances. It
draws no random numbers, so it takes no seed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .em import EmParams, check_finite, em_iterate
from .errors import FactorizationError, NumericalAbortError
from .fcls import fcls_refine_frame
from .hseq import AbundanceSequence, GlmmModel, HsiSequence, devectorize_frame, vectorize_frame
from .kalman import Belief, ModelMatrices, rts_smooth, run_filter
from .vca import vca_extract

__all__ = ["PipelineConfig", "UnmixResult", "default_init", "run_kalman_em", "vca_extract"]

DEFAULT_EM_ITERS = 5
DEFAULT_LAMBDA = 1e-8


def check_run_settings(K_max: int, lam: float, names: dict[str, str] | None = None) -> None:
    """Raise ValueError unless ``K_max`` >= 1 and ``lam`` is finite and
    nonnegative. The message calls a setting by its field name, or by the
    name ``names`` gives that field (a command-line flag, say)."""
    names = names or {}
    if K_max < 1:
        raise ValueError(f"{names.get('K_max', 'K_max')} must be >= 1, got {K_max}")
    if not 0 <= lam < np.inf:
        raise ValueError(f"{names.get('lam', 'lambda')} must be finite and nonnegative, got {lam}")


@dataclass(frozen=True)
class PipelineConfig:
    """Run settings: iteration count, refinement weight, initial parameters;
    see :func:`check_run_settings`."""

    init: EmParams
    K_max: int = DEFAULT_EM_ITERS
    lam: float = DEFAULT_LAMBDA
    clamp_psi_nonneg: bool = False

    def __post_init__(self):
        check_run_settings(self.K_max, self.lam)


@dataclass(frozen=True)
class UnmixResult:
    """Per-frame abundances and endmembers, the smoothed scaling factors
    (L x P per frame, before any clamping) and the fitted parameters."""

    abundances: AbundanceSequence
    endmembers: tuple[np.ndarray, ...]
    psis: tuple[np.ndarray, ...]
    theta_final: EmParams
    diagnostics: dict = field(repr=False, default_factory=dict)


def default_init(L: int, N: int, P: int, A0: np.ndarray) -> EmParams:
    """Standard initialization: psi00 all-ones, Q = 0.1 I, sigma_r = 0.01, P00 = I.

    P00 and Q are (L, P, P) band stacks of P x P blocks, the layout the first
    EM iteration filters in (:mod:`mtunmix.em`), so a run keeps no dense
    PL x PL identity; ``kronops.dense_form`` gives the matrices.
    sigma_r = 0.01 is a standard deviation, so the stored variance is 1e-4;
    misreading it as a variance would change the initial gain magnitudes.
    """
    A0 = np.asarray(A0, dtype=float)
    if A0.shape != (P, N):
        raise ValueError(f"A0 shape {A0.shape}, expected {(P, N)}")
    identity = np.tile(np.eye(P), (L, 1, 1))
    return EmParams(
        A=A0.copy(),
        P00=identity,
        Q=0.1 * identity,
        sigma_r2=0.01**2,
        psi00=np.ones(P * L),
    )


@contextmanager
def _em_iteration(iteration: int):
    """Name the EM iteration in a factorization or non-finite-state failure
    raised inside."""
    try:
        yield
    except (FactorizationError, NumericalAbortError) as exc:
        raise type(exc)(f"{exc} at EM iteration {iteration}", iteration=iteration) from exc


def run_kalman_em(seq: HsiSequence, model: GlmmModel, config: PipelineConfig) -> UnmixResult:
    """Full unmixing run over one sequence.

    Executes ``K_max`` EM iterations, then one last filter + smoother pass
    under the final parameters to obtain the smoothed scaling factors and
    the reconstructed endmembers; per-frame abundances come from the
    regularized constrained refinement. Deterministic for fixed inputs.
    """
    if seq.L != model.L:
        raise ValueError(f"sequence has L={seq.L} bands, model has L={model.L}")
    ys = [vectorize_frame(f) for f in seq.frames]
    theta = config.init
    if theta.A.shape != (model.P, seq.N):
        raise ValueError(f"initial A shape {theta.A.shape}, expected {(model.P, seq.N)}")

    logliks, q_values, sigmas = [], [], []
    # an overflow or NaN here is reported once, by check_finite (exit 4),
    # not as numpy warnings on the way there
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, config.K_max + 1):
            with _em_iteration(k):
                theta, loglik, _, q_value = em_iterate(ys, model.m0, theta)
            logliks.append(loglik)
            q_values.append(float(q_value))
            sigmas.append(float(theta.sigma_r2))

        mm = ModelMatrices(A=theta.A, m0=model.m0, Q=theta.Q, sigma_r2=theta.sigma_r2)
        with _em_iteration(config.K_max + 1):
            traj = run_filter(ys, mm, Belief(mean=theta.psi00, cov=theta.P00))
            means = rts_smooth(traj)
            check_finite(traj.loglik, *means)
    logliks.append(traj.loglik)

    psis = tuple(devectorize_frame(psi, model.L, model.P) for psi in means[1:])
    clamped = 0
    endmembers = []
    for psi in psis:
        if config.clamp_psi_nonneg:
            clamped += int(np.sum(psi < 0))
            psi = np.maximum(psi, 0.0)
        endmembers.append(model.M0 * psi)

    maps = tuple(
        fcls_refine_frame(seq.frames[t], endmembers[t], theta.A, config.lam)
        for t in range(seq.T)
    )

    diagnostics = {
        "loglik": logliks,
        "q_value": q_values,
        "sigma_r2": sigmas,
        "clamped_entries": clamped,
        "K_max": config.K_max,
        "lambda": config.lam,
    }
    return UnmixResult(
        abundances=AbundanceSequence(maps=maps),
        endmembers=tuple(endmembers),
        psis=psis,
        theta_final=theta,
        diagnostics=diagnostics,
    )
