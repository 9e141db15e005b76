"""Kalman filter and RTS smoother for the scaling-factor model.

State model: random walk ``psi_t = psi_{t-1} + q_t`` with ``q_t ~ N(0, Q)``.
Observation model: ``y_t = B psi_t + r_t`` with ``B = kron(A.T, I_L) diag(m0)``
and ``r_t ~ N(0, sigma_r2 * I_NL)``.

The update step never forms the NL x NL innovation covariance ``S_t``: gains
and likelihood terms go through the Woodbury identity

    B.T S_t^-1 = s2i B.T - s2i^2 B.T B (P^-1 + s2i B.T B)^-1 B.T,   s2i = 1/sigma_r2

using only PL x PL factorizations, and ``B.T B = diag(m0) (A A.T (x) I_L) diag(m0)``
is assembled analytically from its L blocks of size P x P: it couples only
the P entries of one band. The posterior covariance ``P - P B.T S^-1 B P``
is formed as ``C^-1`` with ``C = P^-1 + s2i B.T B``, and both inverses come
from their Cholesky factors (``kronops.factor_inverse``), exactly symmetric.
A singular or nearly singular P takes the same formulas through its PSD
square root H, with ``C^-1 = H (I + s2i H B.T B H)^-1 H``; no explicit gain
is formed on either path.

The update also returns the inverse of the predicted covariance it forms on
the way, and the filter keeps it per frame, so the smoother's gains
``G_t = P_{t|t} P_{t+1|t}^-1`` need no factorization of their own.

A :class:`Trajectory` is the filter's output: per frame the filtered belief
and that inverse, 2T + 1 PL x PL matrices of which the trajectory owns all
but the initial covariance, and the log-likelihood. :func:`rts_smooth`
returns the smoothed means, two matrix-vector products per step.
:func:`smoothed_covariances` then spends the trajectory, as a textbook RTS
pass does: it yields each smoothed covariance S_t and the covariance V_{t+1}
of the smoothed increment psi_{t+1} - psi_t as the backward pass reaches
them, three PL x PL products per step, and writes them into the arrays the
trajectory owns, S_t over P_{t|t} and V_{t+1} over the spent precision of
that step, so the pass allocates two matrices whatever T is. A spent
trajectory takes no second pass of either kind.

Covariances take the model's Q's layout (:mod:`mtunmix.kronops`): dense, or
(L, P, P) band stacks when Q and the initial covariance are stacks, as
:class:`mtunmix.em.EmParams` holds them where ``default_init`` returns them.
B.T B is then a stack too, so the filter and smoother run as L independent
P x P problems through the same lines, at O(T L P^3) in place of O(T (PL)^3).
Means are PL vectors in both layouts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FactorizationError
from .kronops import (
    add_bands,
    check_layout,
    cho_factor_jittered,
    cho_logdet,
    cho_solve,
    dense_form,
    factor,
    factor_inverse,
    matvec,
    symmetric,
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
    NL x PL matrix is never formed. ``Q``, dense or a band stack, sets the
    layout of the covariances; it is stored symmetrized (as it is where it is
    exactly symmetric already), so the predictions built from it stay exactly
    symmetric.
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
        check_layout(Q, m0.size, "Q", A.shape[0])
        object.__setattr__(self, "Q", symmetric(Q))
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
    def btb_blocks(self) -> np.ndarray:
        """The (L, P, P) band blocks of B.T @ B = diag(m0) (A A.T (x) I_L) diag(m0):
        band l's block is diag(M0[l]) A A.T diag(M0[l]), and B.T B is zero
        between bands."""
        M0 = self.m0_mat
        return symmetrize((self.A @ self.A.T) * M0[:, :, None] * M0[:, None, :])

    @cached_property
    def btb(self) -> np.ndarray:
        """B.T @ B in Q's layout: the band blocks, or their dense form."""
        return self.btb_blocks if self.Q.ndim == 3 else dense_form(self.btb_blocks)

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
    """Gaussian state belief (mean psi, covariance P, dense or a band stack)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.ascontiguousarray(self.mean, dtype=float).reshape(-1))
        object.__setattr__(self, "cov", np.ascontiguousarray(self.cov, dtype=float))
        check_layout(self.cov, self.mean.size, "cov")


def _norm1(X: np.ndarray) -> float:
    """1-norm of a matrix, or of the block-diagonal matrix of a stack (its
    largest block's)."""
    return np.abs(X).sum(axis=-2).max()


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

    The trajectory owns the filtered covariances of frames 1..T and the
    precisions, 2T PL x PL matrices, and :func:`smoothed_covariances`
    overwrites them; the initial covariance is the caller's and is only read.
    ``spent`` is set when that pass starts, and a spent trajectory's
    covariances and precisions no longer hold the filter's values; its
    means and ``loglik`` do.
    """

    beliefs: tuple[Belief, ...]
    pred_precisions: tuple[np.ndarray, ...]
    loglik: float
    spent: bool = field(default=False, init=False)

    @property
    def T(self) -> int:
        return len(self.pred_precisions)

    def check_unspent(self) -> None:
        """Raise ValueError if the covariance pass has started on this trajectory."""
        if self.spent:
            raise ValueError("trajectory already spent by a smoothed-covariance pass")


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
    only PL x PL factorizations. C is a copy of P^-1 with s2i B.T B added at
    its band entries, the only ones where B.T B is not zero. The likelihood
    increment log N(v_t; 0, S_t) uses the matrix determinant lemma
    log|S| = NL log sigma_r2 + log|P| + log|C|.

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

    On a band stack both decisions are those of the dense matrix: the
    condition number is the product of the largest blocks' 1-norms, and the
    pseudo-inverse cuts eigenvalues against the largest of all blocks.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != model.obs_dim:
        raise ValueError(f"observation length {y.size}, expected {model.obs_dim}")
    s2 = model.sigma_r2
    s2i = 1.0 / s2
    v = y - model.apply_B(pred.mean)
    bv = model.apply_Bt(v)

    try:
        cP = factor(pred.cov)
        logdet_P = cho_logdet(cP)
        pred_precision = factor_inverse(cP)
        del cP  # not alive beside the inner matrix and its factor
        cond = _norm1(pred.cov) * _norm1(pred_precision)
        if not cond <= MAX_PRED_COND:
            raise FactorizationError(f"predicted covariance has condition number {cond:.1e}")
        # P^-1 + s2i B.T B, added only where B.T B is not zero; exactly
        # symmetric, as both terms are
        inner = pred_precision.copy()
        add_bands(inner, s2i * model.btb_blocks)
        c_inner = cho_factor_jittered(inner)
        del inner
        logdet_S = model.obs_dim * math.log(s2) + logdet_P + cho_logdet(c_inner)
        mid = cho_solve(c_inner, bv)
        cov = factor_inverse(c_inner)
    except FactorizationError:
        w, V = np.linalg.eigh(symmetrize(pred.cov))
        H = (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ V.mT
        c_chat = cho_factor_jittered(
            symmetrize(np.eye(w.shape[-1]) + s2i * (H @ model.btb @ H))
        )
        logdet_S = model.obs_dim * math.log(s2) + cho_logdet(c_chat)
        mid = matvec(H, cho_solve(c_chat, matvec(H, bv)))
        cov = symmetrize(H @ factor_inverse(c_chat) @ H)
        keep = (w > w.max() / MAX_PRED_COND)[..., None, :]
        pred_precision = np.divide(V, w[..., None, :], out=np.zeros_like(V), where=keep) @ V.mT

    mean = pred.mean + s2i * mid
    maha = s2i * float(v @ v) - s2i**2 * float(bv @ mid)
    loglik = -0.5 * (model.obs_dim * _LOG_2PI + logdet_S + maha)
    return Belief(mean=mean, cov=cov), loglik, pred_precision


def run_filter(ys: list[np.ndarray], model: ModelMatrices, init: Belief) -> Trajectory:
    """Forward pass over the window; beliefs indexed t = 0..T, init at t = 0,
    whose covariance is in the layout of the model's Q."""
    if init.cov.shape != model.Q.shape:
        raise ValueError(f"initial covariance shape {init.cov.shape} vs Q shape {model.Q.shape}")
    beliefs = [Belief(mean=init.mean, cov=symmetric(init.cov))]
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
    filtered mean, the same array. Raises ValueError on a spent trajectory,
    whose covariances and precisions the covariance pass has overwritten.
    """
    traj.check_unspent()
    means = [b.mean for b in traj.beliefs]
    for t in range(traj.T - 1, -1, -1):
        filt = traj.beliefs[t]
        step = matvec(traj.pred_precisions[t], means[t + 1] - filt.mean)
        means[t] = filt.mean + matvec(filt.cov, step)
    return means


def smoothed_covariances(
    traj: Trajectory, Q: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Backward covariance recursion under process noise ``Q`` (the filter's):
    yields (S_{t+1}, S_t, V_{t+1}) for t = T-1, ..., 0, one step at a time,
    and spends the trajectory.

    S_t is the smoothed covariance of psi_t and V_{t+1} that of the increment
    psi_{t+1} - psi_t under the smoothed posterior. With
    W = S_{t+1} - P_{t+1|t}, three products make a step:

        G_t = P_{t|t} P_{t+1|t}^-1,   Z = G_t W,
        S_t = P_{t|t} + Z G_t^T,
        V_{t+1} = S_{t+1} + S_t - U - U^T,   U = Z + P_{t|t},

    starting from S_T = P_{T|T}. U.T is the lag-one covariance
    Cov(psi_{t+1}, psi_t) = S_{t+1} G_t^T, rewritten with
    G_t P_{t+1|t} = P_{t|t}, so it costs no fourth product; V_{t+1} is the
    smoothed disturbance variance of the disturbance smoother (Durbin &
    Koopman, Time Series Analysis by State Space Methods, 2nd ed., 4.5), and
    it is exactly symmetric. The S_t recursion itself subtracts the predicted
    covariance explicitly rather than using that identity, which holds only
    as far as the stored inverse is exact.

    The pass works in place. Once G_t is formed, the step's predicted
    precision is spent and holds W and then V_{t+1}; S_t overwrites P_{t|t}
    for t >= 1, and S_0 goes into the Z buffer, as P_{0|0} is the caller's
    initial covariance. G and Z, allocated once, are the pass's only
    matrices, so what is yielded stays valid after the pass: read it, do not
    write into it. The first S_{t+1} yielded is P_{T|T} itself.

    The trajectory is marked spent when this is called; calling it or
    :func:`rts_smooth` on a spent trajectory raises ValueError.
    """
    traj.check_unspent()
    object.__setattr__(traj, "spent", True)
    return _backward_pass(traj, Q)


def _backward_pass(traj: Trajectory, Q: np.ndarray):
    S_next = traj.beliefs[-1].cov
    G, Z = np.empty_like(Q), np.empty_like(Q)
    for t in range(traj.T - 1, -1, -1):
        P_t, W = traj.beliefs[t].cov, traj.pred_precisions[t]
        np.matmul(P_t, W, out=G)  # the precision's last read: W is free from here
        np.add(P_t, Q, out=W)  # P_{t+1|t}, as predict forms it
        np.subtract(S_next, W, out=W)
        np.matmul(G, W, out=Z)
        np.matmul(Z, G.mT, out=W)
        W += P_t
        Z += P_t
        np.add(Z, Z.mT, out=G)
        S = P_t if t else Z
        np.add(W, W.mT, out=S)  # symmetrize(W), in place
        S /= 2.0
        np.add(S_next, S, out=W)
        W -= G
        yield S_next, S, W
        S_next = S
