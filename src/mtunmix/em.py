"""EM parameter learning on top of the smoother: statistics, surrogate, M-steps.

One EM iteration runs the filter and the smoothed-mean pass under the current
parameters, then one backward pass of the smoothed-covariance recursion whose
every step is reduced to the sufficient statistics as it comes (Shumway &
Stoffer 1982): the increment moment D in one PL x PL array, which adds each
step's smoothed increment covariance V_t, and the same-band entries the block
traces read. That pass writes into the trajectory's own arrays (see
:func:`mtunmix.kalman.smoothed_covariances`), and a dense D is the first V it
yields, so the E-step holds the trajectory's 2T matrices plus two. It then
applies closed-form maximizers for the initial belief, the process noise, the
observation noise variance, and the average abundance matrix. Before the new
parameters are built, one finiteness check covers them, the log-likelihood
and the smoothed means.

The surrogate at the new parameters, which the iteration also returns, comes
from the M-step identities and the Cholesky factors of the new P00 and Q, with
no inverse; :func:`q_function` is the reference evaluation.

:class:`EmParams` holds P00 and Q dense or as (L, P, P) band stacks, as
``default_init`` returns them, both in one layout, and an iteration filters
and smooths in that layout (see :mod:`mtunmix.kalman`). Only the rank-T
outer products of the smoothed mean increments in D are not zero between
bands, so D, S_0 and the M-steps stay dense, and the iterations after a
first on stacks run dense.

The abundance update exploits the Kronecker structure of the observation
matrix: only the L x L block traces of the scaled second-moment matrices
enter the normal equations, so the solve is P x P instead of PL x PL. The
observation/state cross moment enters only through its N x P block traces,
contracted frame by frame, so the dense NL x PL matrix is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbortError
from .kalman import (
    Belief,
    ModelMatrices,
    Trajectory,
    rts_smooth,
    run_filter,
    smoothed_covariances,
)
from .kronops import (
    add_bands,
    band_blocks,
    check_layout,
    cho_factor_jittered,
    cho_logdet,
    cho_solve,
    dense_form,
    factor_inverse,
    psd_floor,
)

#: Lower bound applied to the observation-noise variance update.
SIGMA_R2_FLOOR = 1e-12


@dataclass(frozen=True)
class EmParams:
    """Latent parameter set: average abundances, initial belief, noise terms.

    P00 and Q are both dense PL x PL matrices or both (L, P, P) band stacks
    (:mod:`mtunmix.kronops`), and :func:`em_iterate` filters in that layout;
    a mixed pair raises ValueError. The M-steps return them dense.
    """

    A: np.ndarray
    P00: np.ndarray
    Q: np.ndarray
    sigma_r2: float
    psi00: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.ascontiguousarray(self.A, dtype=float))
        object.__setattr__(self, "P00", np.ascontiguousarray(self.P00, dtype=float))
        object.__setattr__(self, "Q", np.ascontiguousarray(self.Q, dtype=float))
        object.__setattr__(self, "psi00", np.ascontiguousarray(self.psi00, dtype=float).reshape(-1))
        d, P = self.psi00.size, self.A.shape[0]
        check_layout(self.P00, d, "P00", P)
        check_layout(self.Q, d, "Q", P)
        if self.P00.ndim != self.Q.ndim:
            raise ValueError(
                f"P00 shape {self.P00.shape} and Q shape {self.Q.shape}: "
                "both dense or both band stacks"
            )
        if not self.sigma_r2 > 0:
            raise ValueError("sigma_r2 must be positive")


@dataclass(frozen=True)
class SufficientStats:
    """Smoothed-trajectory statistics consumed by the M-steps.

    ``increment_second_moment``  D = sum_t E[(psi_t - psi_{t-1})(psi_t - psi_{t-1}).T]
                                 = sum_t V_t + delta_t delta_t.T,
                                 V_t = S_t + S_{t-1} - X_t - X_t.T,  X_t = Cov(psi_t, psi_{t-1}),
                                 delta_t = psi_t^s - psi_{t-1}^s             (t = 1..T)
    ``obs_energy``               sum_t y_t.T y_t
    ``gram_block_trace``         P x P block traces of diag(m0) S1 diag(m0), with
                                 S1 = sum_t S_t + psi_t^s psi_t^s.T the state second moment
    ``cross_block_trace``        N x P streaming contraction sum_t Y_t.T (M0 * Psi_t^s)
    """

    T: int
    L: int
    N: int
    increment_second_moment: np.ndarray
    obs_energy: float
    gram_block_trace: np.ndarray
    cross_block_trace: np.ndarray


def accumulate_stats(
    traj: Trajectory, means: list[np.ndarray], ys: list[np.ndarray], model: ModelMatrices
) -> tuple[SufficientStats, Belief]:
    """Reduce a trajectory filtered under ``model`` and its smoothed means
    (t = 0..T, from :func:`rts_smooth`) to the M-step statistics and the
    smoothed t = 0 belief (mean and covariance S_0).

    The smoothed covariances come from :func:`smoothed_covariances`, which
    spends the trajectory, and are reduced as each backward step yields them:
    the increment covariance V_t added into D, and the same-band entries
    S_t[(p, l), (q, l)] (the only ones the block traces of
    diag(m0) S1 diag(m0) read) into an L x P x P array; S1 itself is never
    formed. On a dense trajectory D is the first V, which the pass writes
    into that step's spent precision and never reuses; on band stacks D is a
    new dense array. D and S_0 are dense in both layouts, and they are the
    only PL x PL arrays of the trajectory's pass that outlive it.
    """
    T, L, N, P, m0_mat = traj.T, model.L, model.N, model.P, model.m0_mat

    D = np.zeros((P * L, P * L)) if model.Q.ndim == 3 else None
    band = np.zeros((L, P, P))
    for S_t, S_prev, V in smoothed_covariances(traj, model.Q):
        if D is None:
            D = V  # dense: the first V, which the pass never reuses
        else:
            add_bands(D, V)
        band += band_blocks(S_t, L)
        S_0 = S_prev
    # the smoothed mean increments' outer products in one product, which
    # NumPy forms as a symmetric rank-T update: D stays exactly symmetric
    deltas = np.diff(np.stack(means), axis=0)
    D += deltas.T @ deltas

    obs_energy = 0.0
    cross_bt = np.zeros((N, P))
    gram_bt = np.einsum("lij,li,lj->ij", band, m0_mat, m0_mat)
    for t in range(1, T + 1):
        y = np.asarray(ys[t - 1], dtype=float).reshape(-1)
        obs_energy += float(y @ y)
        scaled = m0_mat * means[t].reshape((L, P), order="F")
        cross_bt += y.reshape((L, N), order="F").T @ scaled
        gram_bt += scaled.T @ scaled

    stats = SufficientStats(
        T=T,
        L=L,
        N=N,
        increment_second_moment=D,
        obs_energy=obs_energy,
        gram_block_trace=gram_bt,
        cross_block_trace=cross_bt,
    )
    return stats, Belief(mean=means[0], cov=dense_form(S_0))


def _obs_residual_trace(stats: SufficientStats, A: np.ndarray) -> float:
    """tr(S5 - 2 B S3.T + B S1 B.T) through the block-trace contractions."""
    fit = float(np.sum(A * stats.cross_block_trace.T))
    gram = float(np.einsum("ij,ji->", A @ A.T, stats.gram_block_trace))
    return stats.obs_energy - 2.0 * fit + gram


def q_function(theta: EmParams, stats: SufficientStats, smoothed0: Belief) -> float:
    """Expected complete-data log-likelihood surrogate (constant dropped).

    Evaluates, with B = kron(A.T, I_L) diag(m0) folded into the observation
    terms and R = sigma_r2 * I:

        -1/2 ( tr(P00^-1 [P_0^s + d d.T]) + log|P00|
             + tr(Q^-1 D) + T log|Q|
             + tr_resid / sigma_r2 + T N L log sigma_r2 )

    where d = psi_0^s - psi00 and D = ``stats.increment_second_moment``. Each
    trace tr(X^-1 S) with X symmetric is the inner product of X^-1 and S, X^-1
    from X's factor; the rank-one part of the first is d.T P00^-1 d. P00 and
    Q may be band stacks, read as their dense forms.
    """
    d = smoothed0.mean - theta.psi00
    c_p00 = cho_factor_jittered(dense_form(theta.P00))
    p00_inv = factor_inverse(c_p00)
    term0 = float(np.vdot(p00_inv, smoothed0.cov) + d @ p00_inv @ d) + cho_logdet(c_p00)
    del c_p00, p00_inv

    c_q = cho_factor_jittered(dense_form(theta.Q))
    term_q = float(np.vdot(factor_inverse(c_q), stats.increment_second_moment))
    term_q += stats.T * cho_logdet(c_q)

    term_r = _obs_residual_trace(stats, theta.A) / theta.sigma_r2 + (
        stats.T * stats.N * stats.L * np.log(theta.sigma_r2)
    )
    return -0.5 * (term0 + term_q + term_r)


def m_step_p00(
    smoothed0: Belief, psi00_old: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """P00* = P_0^s + (psi_0^s - psi00)(psi_0^s - psi00).T, floored to the PSD
    cone, and its plain Cholesky factor, None where it has none
    (:func:`mtunmix.kronops.psd_floor`, as for Q)."""
    d = smoothed0.mean - np.asarray(psi00_old, dtype=float).reshape(-1)
    P00 = np.outer(d, d)
    P00 += smoothed0.cov
    return psd_floor(P00)


def m_step_psi00(smoothed0: Belief) -> np.ndarray:
    """psi00* = psi_0^s."""
    return smoothed0.mean.copy()


def m_step_q(stats: SufficientStats) -> tuple[np.ndarray, np.ndarray | None]:
    """Q* = D / T, floored to the PSD cone, and its plain Cholesky factor,
    None where it has none (:func:`mtunmix.kronops.psd_floor`).

    The 1/T factor makes this the exact maximizer of the surrogate's Q block;
    tiny negative eigenvalues from smoother round-off are clipped at zero.
    """
    return psd_floor(stats.increment_second_moment / stats.T)


def m_step_sigma(stats: SufficientStats, A: np.ndarray) -> float:
    """sigma_r2* = tr(S5 - 2 B S3.T + B S1 B.T) / (T L N), floored at 1e-12.

    The traces contract through the block-trace statistics:
    tr(B S1 B.T) = tr(A A.T @ gram_block_trace) and
    tr(B S3.T) = sum_{n,p} A[p,n] cross_block_trace[n,p].
    """
    value = _obs_residual_trace(stats, np.asarray(A, dtype=float))
    return max(value / (stats.T * stats.L * stats.N), SIGMA_R2_FLOOR)


def m_step_abundance(stats: SufficientStats) -> np.ndarray:
    """Closed-form unconstrained minimizer of the abundance block.

    A* = (Tb + Tb.T)^-1 (2 U.T) with Tb, U the block traces of the scaled
    second/cross moments; identical to the solution obtained from any exact
    Kronecker expansion of those matrices. Simplex constraints are deferred
    to the later per-frame refinement.
    """
    Tb = stats.gram_block_trace
    rhs = 2.0 * stats.cross_block_trace.T
    return cho_solve(cho_factor_jittered(Tb + Tb.T), rhs)


def check_finite(*arrays) -> None:
    """Raise :class:`NumericalAbortError` if any entry of ``arrays`` is NaN or
    infinite; the caller names the EM iteration."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericalAbortError("non-finite state encountered")


def _updated_surrogate(
    theta: EmParams,
    stats: SufficientStats,
    psi00_old: np.ndarray,
    c_p00: np.ndarray,
    c_q: np.ndarray,
) -> float:
    """:func:`q_function` at the M-step's own parameters, from the factors of
    their P00 and Q alone.

    There psi00 = psi_0^s, P00 = P_0^s + e e.T with e = psi_0^s - psi00_old,
    Q = D / T and sigma_r2 = tr_resid / (T N L), so the traces reduce to

        tr(P00^-1 [P_0^s + d d.T]) = PL - e.T P00^-1 e   (d = 0),
        tr(Q^-1 D) = T PL,   tr_resid / sigma_r2 = T N L,

    and no inverse is formed. The identities need P00 and Q unclipped and
    sigma_r2 above its floor.
    """
    PL, TNL = theta.psi00.size, stats.T * stats.N * stats.L
    e = theta.psi00 - psi00_old
    term0 = PL - float(e @ cho_solve(c_p00, e)) + cho_logdet(c_p00)
    term_q = stats.T * PL + stats.T * cho_logdet(c_q)
    term_r = TNL + TNL * np.log(theta.sigma_r2)
    return -0.5 * (term0 + term_q + term_r)


def em_iterate(
    ys: list[np.ndarray], m0: np.ndarray, theta: EmParams
) -> tuple[EmParams, float, list[np.ndarray], float]:
    """One full EM iteration; returns the updated parameters, the marginal
    log-likelihood and the smoothed means (t = 0..T) under the *input*
    parameters, and the surrogate value at the updated parameters.

    Order of the closed-form updates: initial covariance (which uses the old
    initial mean), initial mean, process noise, abundances, then observation
    variance with the *new* abundances so the (A, sigma_r2) block is maximized
    jointly. A non-finite log-likelihood, smoothed mean or updated parameter
    raises :class:`NumericalAbortError` before the new parameters are built.
    The pass runs in the layout of P00 and Q, band stacks or dense; it
    writes into neither.

    The surrogate comes from :func:`_updated_surrogate`, or from
    :func:`q_function` where a floor binds: P00 or Q clipped or without a
    plain factor, or sigma_r2 at ``SIGMA_R2_FLOOR``.
    Where the new P00 or Q is exactly zero, a point-mass state, it is
    ``math.inf``: log|P00| or log|Q| is -inf there, and the second moment it
    weighs is zero too (P_0^s + e e.T, or D, which has no positive
    eigenvalue), so its trace term vanishes.
    """
    model = ModelMatrices(A=theta.A, m0=m0, Q=theta.Q, sigma_r2=theta.sigma_r2)
    traj = run_filter(ys, model, Belief(mean=theta.psi00, cov=theta.P00))
    means = rts_smooth(traj)
    stats, smoothed0 = accumulate_stats(traj, means, ys, model)
    loglik = traj.loglik
    del traj, model  # the filtered covariances are not alive beside the M-steps

    P00_new, c_p00 = m_step_p00(smoothed0, theta.psi00)
    psi00_new = m_step_psi00(smoothed0)
    Q_new, c_q = m_step_q(stats)
    A_new = m_step_abundance(stats)
    sigma_new = m_step_sigma(stats, A_new)

    check_finite(loglik, *means, A_new, P00_new, Q_new, sigma_new, psi00_new)
    theta_new = EmParams(A=A_new, P00=P00_new, Q=Q_new, sigma_r2=sigma_new, psi00=psi00_new)
    if not (np.any(P00_new) and np.any(Q_new)):
        q_value = math.inf
    elif c_p00 is None or c_q is None or sigma_new <= SIGMA_R2_FLOOR:
        q_value = q_function(theta_new, stats, smoothed0)
    else:
        q_value = _updated_surrogate(theta_new, stats, theta.psi00, c_p00, c_q)
    return theta_new, loglik, means, q_value
