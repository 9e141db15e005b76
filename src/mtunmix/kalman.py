"""Kalman filter and RTS smoother for the scaling factors psi_t (the state).

State model: the random walk ``psi_t = psi_{t-1} + q_t``, q_t ~ N(0, Q).
Observation model: ``y_t = B psi_t + r_t``, r_t ~ N(0, sigma_r2 I_NL), with
``B = kron(A.T, I_L) diag(m0)``. B is never formed: B.T B has L band blocks of
size P x P, and the update works in PL x PL matrices through the Woodbury
identity.

:func:`run_filter` returns a :class:`Trajectory`: the filtered beliefs for
t = 0..T, the inverses of the predicted covariances, and the log-likelihood.
:func:`rts_smooth` returns the smoothed means. :func:`smoothed_covariances`
yields the smoothed and increment covariances one backward step at a time; it
overwrites the trajectory's covariances and precisions and marks it spent, and
a spent trajectory takes neither pass again (ValueError).

Covariances are dense or (L, P, P) band stacks, in the layout of the model's Q
(:mod:`mtunmix.kronops`); on stacks the filter and smoother run as L
independent P x P problems through the same lines. Means are PL vectors in both
layouts. No other function writes into its arguments, and a failed
factorization raises :class:`~mtunmix.errors.FactorizationError`.
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
    """The model at one parameter setting: average abundances ``A`` (P x N),
    vectorized reference endmembers ``m0`` (length PL), process noise ``Q`` and
    observation-noise variance ``sigma_r2``.

    ``Q``, dense or a band stack, sets the layout of the covariances, and is
    stored as ``kronops.symmetric(Q)``. ValueError where the shapes disagree or
    sigma_r2 is not positive.
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
        """NL, the length of an observation vector."""
        return self.L * self.N

    @cached_property
    def m0_mat(self) -> np.ndarray:
        """m0 as the L x P matrix M0 it column-stacks."""
        return self.m0.reshape((self.L, self.P), order="F")

    @cached_property
    def btb_blocks(self) -> np.ndarray:
        """The (L, P, P) band blocks of B.T B = diag(m0) (A A.T (x) I_L)
        diag(m0): block l is diag(M0[l]) A A.T diag(M0[l]), and B.T B is zero
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
    """Filter output over frames t = 1..T plus the initial belief.

    ``beliefs[t]`` is the filtered belief of frame t, and ``beliefs[0]`` the
    initial belief with its covariance symmetrized. ``pred_precisions[t]`` is
    the inverse of the predicted covariance P_{t+1|t} (a pseudo-inverse where
    that is singular or nearly so). ``loglik`` is the marginal log-likelihood,
    the sum of the frames' innovation log-densities in frame order.

    The trajectory owns the filtered covariances of frames 1..T and the
    precisions; the initial covariance is the caller's.
    :func:`smoothed_covariances` overwrites what the trajectory owns and sets
    ``spent``, after which only the means and ``loglik`` hold the filter's
    values.
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
    """The random-walk prediction: mean kept, covariance prior.cov + Q, exactly
    symmetric where both terms are."""
    return Belief(mean=prior.mean, cov=prior.cov + Q)


def update(
    pred: Belief, y: np.ndarray, model: ModelMatrices
) -> tuple[Belief, float, np.ndarray]:
    """Measurement update; returns (posterior, loglik increment, P^-1) for the
    predicted belief (psi, P) and the observation y.

    With v = y - B psi, s2i = 1/sigma_r2 and C = P^-1 + s2i B.T B, the Woodbury
    identity reduces the posterior covariance P - P B.T S^-1 B P to C^-1 and
    the mean to psi + s2i C^-1 B.T v, where S = B P B.T + sigma_r2 I is the
    innovation covariance. The likelihood increment log N(v; 0, S) takes
    v.T S^-1 v from Woodbury and log|S| = NL log sigma_r2 + log|P| + log|C|
    from the matrix determinant lemma.

    Where P has no Cholesky factor, or its 1-norm condition number exceeds
    ``MAX_PRED_COND``, the step uses the PSD square root P = H H instead:

        C^-1 -> H Chat^-1 H,   Chat = I + s2i H B.T B H,
        log|S| -> NL log sigma_r2 + log|Chat|,

    equal to the Woodbury form for positive-definite P and valid for
    semidefinite P; the returned P^-1 is then the pseudo-inverse that treats
    eigenvalues below largest / ``MAX_PRED_COND`` as zero. On a band stack both
    decisions are those of its dense matrix.
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
    """Forward pass over the frames ``ys`` from the belief ``init`` at t = 0,
    whose covariance must be in the layout of the model's Q."""
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
    """The smoothed means psi_t^s for t = 0..T, by the backward pass

        psi_t^s = psi_{t|t} + P_{t|t} P_{t+1|t}^-1 (psi_{t+1}^s - psi_{t|t})

    (Rauch, Tung & Striebel, AIAA J. 3(8), 1965), from the precisions the
    filter stored; psi_T^s is the last filtered mean, the same array.
    ValueError on a spent trajectory.
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
    """Backward covariance recursion under the filter's process noise ``Q``:
    yields (S_{t+1}, S_t, V_{t+1}) for t = T-1, ..., 0 and spends the
    trajectory.

    S_t is the smoothed covariance of psi_t and V_{t+1} that of the increment
    psi_{t+1} - psi_t. From S_T = P_{T|T}, with W = S_{t+1} - P_{t+1|t}:

        G_t = P_{t|t} P_{t+1|t}^-1,   Z = G_t W,
        S_t = P_{t|t} + Z G_t^T,
        V_{t+1} = S_{t+1} + S_t - U - U^T,   U = Z + P_{t|t},

    where U^T = S_{t+1} G_t^T is the lag-one covariance Cov(psi_{t+1}, psi_t),
    since G_t P_{t+1|t} = P_{t|t}. V_{t+1} is the smoothed disturbance variance
    (Durbin & Koopman, Time Series Analysis by State Space Methods, 2nd ed.,
    section 4.5); S_t and V_{t+1} are exactly symmetric.

    The pass overwrites the trajectory's covariances P_{t|t} (t >= 1) and its
    precisions; the caller's initial covariance is only read. What it yields is
    not written again by the pass: read it, do not write into it. ValueError on
    a spent trajectory.
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
