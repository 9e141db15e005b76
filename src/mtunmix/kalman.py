"""Kalman filter and RTS smoother for the scaling-factor model.

State model: random walk ``psi_t = psi_{t-1} + q_t`` with ``q_t ~ N(0, Q)``.
Observation model: ``y_t = B psi_t + r_t`` with ``B = kron(A.T, I_L) diag(m0)``
and ``r_t ~ N(0, sigma_r2 * I_NL)``.

The update step never forms the NL x NL innovation covariance ``S_t``: gains
and likelihood terms go through the Woodbury identity

    B.T S_t^-1 = s2i B.T - s2i^2 B.T B (P^-1 + s2i B.T B)^-1 B.T,   s2i = 1/sigma_r2

using only PL x PL factorizations, and ``B.T B = diag(m0) (A A.T (x) I_L) diag(m0)``
is assembled analytically. The posterior covariance ``P - P B.T S^-1 B P``
is formed as ``C^-1`` with ``C = P^-1 + s2i B.T B``, and both inverses come
from their Cholesky factors (LAPACK ``potri``), exactly symmetric. A singular
or nearly singular P takes the same formulas through its PSD square root H,
with ``C^-1 = H (I + s2i H B.T B H)^-1 H``; no explicit gain is formed on
either path.

The update also returns the inverse of the predicted covariance it forms on
the way, and the filter keeps it per frame, so the smoother's gains
``G_t = P_{t|t} P_{t+1|t}^-1`` need no factorization of their own.

A :class:`Trajectory` is the filter's output, never changed after it: per
frame the filtered belief and that inverse, about 2T + 1 PL x PL matrices,
and the log-likelihood. :func:`rts_smooth` returns the smoothed means, two
matrix-vector products per step. :func:`smoothed_covariances` yields each
smoothed covariance and lag-one cross covariance as the backward pass
reaches it, for the EM statistics to reduce at once; none is stored.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FactorizationError
from .kronops import (
    cho_factor,
    cho_factor_jittered,
    cho_inverse,
    cho_logdet,
    cho_solve,
    symmetrize,
)

_LOG_2PI = math.log(2.0 * math.pi)

#: Largest 1-norm condition number of the predicted covariance that ``update``
#: inverts. The Woodbury form's error grows like cond * eps, so past about
#: 1/sqrt(eps) the square-root path runs instead, and the precision it returns
#: treats eigenvalues below largest / MAX_PRED_COND as zero.
MAX_PRED_COND = 1e8


@dataclass(frozen=True)
class ModelMatrices:
    """Observation/noise matrices for one parameter setting.

    ``B`` is defined by construction from the average abundances ``A`` (P x N)
    and the vectorized reference endmembers ``m0`` (length LP); the dense
    NL x PL matrix is never formed. ``Q`` is stored symmetrized, so the
    predictions built from it stay exactly symmetric.
    """

    A: np.ndarray
    m0: np.ndarray
    Q: np.ndarray
    sigma_r2: float

    def __post_init__(self):
        A = np.ascontiguousarray(self.A, dtype=float)
        m0 = np.ascontiguousarray(self.m0, dtype=float).reshape(-1)
        if m0.size % A.shape[0] != 0:
            raise ValueError(f"m0 length {m0.size} not divisible by P={A.shape[0]}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "m0", m0)
        Q = np.asarray(self.Q, dtype=float)
        if Q.shape != (m0.size, m0.size):
            raise ValueError(f"Q shape {Q.shape} vs state dim {m0.size}")
        object.__setattr__(self, "Q", symmetrize(Q))
        if not self.sigma_r2 > 0:
            raise ValueError("sigma_r2 must be positive")

    @property
    def P(self) -> int:
        return self.A.shape[0]

    @property
    def N(self) -> int:
        return self.A.shape[1]

    @property
    def L(self) -> int:
        return self.m0.size // self.P

    @property
    def obs_dim(self) -> int:
        return self.L * self.N

    @cached_property
    def m0_mat(self) -> np.ndarray:
        """m0 as the L x P matrix M0 it column-stacks."""
        return self.m0.reshape((self.L, self.P), order="F")

    @cached_property
    def btb(self) -> np.ndarray:
        """B.T @ B = diag(m0) (A A.T (x) I_L) diag(m0), assembled directly."""
        G = np.kron(self.A @ self.A.T, np.eye(self.L))
        return symmetrize(G * self.m0[:, None] * self.m0[None, :])

    def apply_B(self, psi: np.ndarray) -> np.ndarray:
        """B @ psi as vec((M0 * Psi) @ A) without forming B."""
        scaled = self.m0_mat * psi.reshape((self.L, self.P), order="F")
        return (scaled @ self.A).reshape(-1, order="F")

    def apply_Bt(self, v: np.ndarray) -> np.ndarray:
        """B.T @ v = diag(m0) vec(V @ A.T) without forming B."""
        V = v.reshape((self.L, self.N), order="F")
        return (self.m0_mat * (V @ self.A.T)).reshape(-1, order="F")


@dataclass(frozen=True)
class Belief:
    """Gaussian state belief (mean psi, covariance P)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.ascontiguousarray(self.mean, dtype=float).reshape(-1))
        object.__setattr__(self, "cov", np.ascontiguousarray(self.cov, dtype=float))
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise ValueError(f"cov shape {self.cov.shape} vs mean length {self.mean.size}")


@dataclass(frozen=True)
class Trajectory:
    """Filter output over a window t = 1..T plus the initial belief.

    ``beliefs[t]`` is the filtered belief of frame t, with the symmetrized
    initial belief at t = 0. ``pred_precisions[i]`` is the inverse of the
    predicted covariance P_{i+1|i} that the update formed (a pseudo-inverse if
    that covariance is singular or nearly so); the predicted belief itself is
    the prediction of the belief before it under the process noise Q.
    ``loglik`` is the marginal log-likelihood, the sum of the frames'
    innovation log-densities in frame order.
    """

    beliefs: tuple[Belief, ...]
    pred_precisions: tuple[np.ndarray, ...]
    loglik: float

    @property
    def T(self) -> int:
        return len(self.pred_precisions)


def predict(prior: Belief, Q: np.ndarray) -> Belief:
    """Prediction step of the random-walk state: mean kept, covariance grown by Q.

    The sum is exactly symmetric when both terms are, as they are in the filter
    and smoother: ``ModelMatrices`` symmetrizes Q, ``run_filter`` the initial
    covariance, and every posterior covariance comes out exactly symmetric.
    """
    return Belief(mean=prior.mean, cov=prior.cov + Q)


def update(
    pred: Belief, y: np.ndarray, model: ModelMatrices
) -> tuple[Belief, float, np.ndarray]:
    """Measurement update; returns (posterior, loglik increment, P^-1).

    The gain is applied through the Woodbury identity: with C = P^-1 + s2i B.T B
    and s2i = 1/sigma_r2, the posterior covariance P - P B.T S^-1 B P collapses
    to C^-1 and the posterior mean to psi + s2i C^-1 B.T v, so the step costs
    only PL x PL factorizations. The likelihood increment log N(v_t; 0, S_t)
    uses the matrix determinant lemma log|S| = NL log sigma_r2 + log|P| + log|C|.

    If P has no Cholesky factor (it is singular: an exactly known state), or
    its condition number exceeds ``MAX_PRED_COND`` (a nearly known state), the
    step falls back to the PSD square root P = H H with H symmetric:

        C^-1 -> H Chat^-1 H,   Chat = I + s2i H B.T B H,
        log|S| -> NL log sigma_r2 + log|Chat|

    which equals C^-1 for positive-definite P (Woodbury) and stays valid for
    merely positive-semidefinite P (continuous at the boundary). Both paths
    then form the mean from C^-1 B.T v in one place.

    The returned P^-1 is the inverse the Woodbury form needs anyway, or, on the
    fallback path, the pseudo-inverse of P from the same eigendecomposition.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != model.obs_dim:
        raise ValueError(f"observation length {y.size}, expected {model.obs_dim}")
    s2 = model.sigma_r2
    s2i = 1.0 / s2
    BtB = model.btb
    d = pred.mean.size
    v = y - model.apply_B(pred.mean)
    bv = model.apply_Bt(v)

    try:
        cP = cho_factor(pred.cov)
        pred_precision = cho_inverse(cP)
        cond = np.linalg.norm(pred.cov, 1) * np.linalg.norm(pred_precision, 1)
        if not cond <= MAX_PRED_COND:
            raise FactorizationError(f"predicted covariance has condition number {cond:.1e}")
        # exactly symmetric: both terms are
        c_inner = cho_factor_jittered(pred_precision + s2i * BtB)
        logdet_S = model.obs_dim * math.log(s2) + cho_logdet(cP) + cho_logdet(c_inner)
        mid_bv = cho_solve(c_inner, bv)
        cov = cho_inverse(c_inner)
    except FactorizationError:
        w, V = np.linalg.eigh(symmetrize(pred.cov))
        H = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
        c_chat = cho_factor_jittered(symmetrize(np.eye(d) + s2i * (H @ BtB @ H)))
        logdet_S = model.obs_dim * math.log(s2) + cho_logdet(c_chat)
        mid_bv = H @ cho_solve(c_chat, H @ bv)
        cov = symmetrize(H @ cho_inverse(c_chat) @ H)
        keep = w > w[-1] / MAX_PRED_COND
        pred_precision = (V[:, keep] / w[keep]) @ V[:, keep].T

    mean = pred.mean + s2i * mid_bv
    maha = s2i * float(v @ v) - s2i**2 * float(bv @ mid_bv)
    loglik = -0.5 * (model.obs_dim * _LOG_2PI + logdet_S + maha)
    return Belief(mean=mean, cov=cov), loglik, pred_precision


def run_filter(ys: list[np.ndarray], model: ModelMatrices, init: Belief) -> Trajectory:
    """Forward pass over the window; beliefs indexed t = 0..T, init at t = 0."""
    beliefs = [Belief(mean=init.mean, cov=symmetrize(init.cov))]
    precisions, terms = [], []
    for y in ys:
        post, ll, precision = update(predict(beliefs[-1], model.Q), y, model)
        beliefs.append(post)
        precisions.append(precision)
        terms.append(ll)
    return Trajectory(
        beliefs=tuple(beliefs), pred_precisions=tuple(precisions), loglik=float(sum(terms))
    )


def rts_smooth(traj: Trajectory) -> list[np.ndarray]:
    """Backward pass for the smoothed means psi_t^s, t = 0..T.

        psi_t^s = psi_{t|t} + P_{t|t} (P_{t+1|t}^-1 (psi_{t+1}^s - psi_{t|t}))

    The random walk predicts psi_{t+1|t} = psi_{t|t}, and P_{t+1|t}^-1 is the
    inverse the filter's update stored, so a step is two matrix-vector
    products and nothing is factored. The last smoothed mean is the last
    filtered mean, the same array.
    """
    means = [b.mean for b in traj.beliefs]
    for t in range(traj.T - 1, -1, -1):
        filt = traj.beliefs[t]
        means[t] = filt.mean + filt.cov @ (traj.pred_precisions[t] @ (means[t + 1] - filt.mean))
    return means


def smoothed_covariances(
    traj: Trajectory, Q: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Backward covariance recursion under process noise ``Q`` (the filter's):
    yields (S_{t+1}, S_t, X_{t+1}) for t = T-1, ..., 0, one step at a time.

    S_t is the smoothed covariance of psi_t and X_{t+1} = Cov(psi_{t+1}, psi_t)
    under the smoothed posterior:

        G_t = P_{t|t} P_{t+1|t}^-1,
        S_t = P_{t|t} + G_t (S_{t+1} - P_{t+1|t}) G_t^T,
        X_{t+1} = S_{t+1} G_t^T,

    starting from S_T = P_{T|T}. The recursion subtracts the predicted
    covariance explicitly rather than using G_t P_{t+1|t} = P_{t|t}, which
    holds only as far as the stored inverse is exact. Only the step's own
    matrices are alive, so a consumer that reduces each step and keeps none
    of them holds no per-frame covariance. The first S_{t+1} yielded is the
    trajectory's own P_{T|T}: read what is yielded, do not write into it.
    """
    S_next = traj.beliefs[-1].cov
    for t in range(traj.T - 1, -1, -1):
        filt = traj.beliefs[t]
        G = filt.cov @ traj.pred_precisions[t]
        S = G @ (S_next - predict(filt, Q).cov) @ G.T
        S += filt.cov
        S = symmetrize(S)
        X = S_next @ G.T
        del G
        yield S_next, S, X
        S_next = S
