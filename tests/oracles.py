"""Reference implementations that the tests compare the library against.

None of this runs in the unmixing pipeline: the dense observation matrix, the
dense observation/state cross moment, the marginal log-likelihood of one
filter pass, the RTS smoother that stores every smoothed covariance and gain,
the EM statistics summed densely from it, the joint Gaussian posterior of all
states by dense conditioning, the textbook Woodbury gain factor, the block
traces of a state or cross moment, the nearest-Kronecker-product (Van Loan)
expansion, the EM surrogate with its traces taken as traces of solves, and
one vector's simplex projection with the KKT residual of one
simplex-constrained least-squares problem built on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from mtunmix.em import EmParams, SufficientStats, _obs_residual_trace
from mtunmix.kalman import Belief, ModelMatrices, Trajectory, predict, run_filter


def symmetrize(X: np.ndarray) -> np.ndarray:
    """(X + X.T) / 2."""
    return (X + X.T) / 2.0


def spd_solve(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """M^-1 B for symmetric positive-definite M, by SciPy's Cholesky solve."""
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(M, lower=True), B)


def spd_logdet(M: np.ndarray) -> float:
    """log|M| for symmetric positive-definite M, from SciPy's Cholesky factor."""
    c, _ = scipy.linalg.cho_factor(M, lower=True)
    return 2.0 * float(np.sum(np.log(np.diag(c))))


def dense_B(model: ModelMatrices) -> np.ndarray:
    """Dense NL x PL observation matrix kron(A.T, I_L) @ diag(m0)."""
    return np.kron(model.A.T, np.eye(model.L)) * model.m0[None, :]


def obs_state_outer(means: list[np.ndarray], ys: list[np.ndarray]) -> np.ndarray:
    """Dense NL x PL cross moment sum_t y_t psi_t^s.T from the smoothed means t = 0..T."""
    return sum(np.outer(y, psi) for y, psi in zip(ys, means[1:]))


def full_rts_smooth(traj: Trajectory, Q: np.ndarray) -> tuple[list[Belief], list[np.ndarray]]:
    """RTS smoother that keeps every smoothed belief and gain.

    Returns the smoothed beliefs for t = 0..T and the gains G_0..G_{T-1}:

        G_t = P_{t|t} P_{t+1|t}^-1,
        psi_t^s = psi_{t|t} + G_t (psi_{t+1}^s - psi_{t+1|t}),
        P_t^s = P_{t|t} + G_t (P_{t+1}^s - P_{t+1|t}) G_t^T,

    with P_{t+1|t}^-1 the inverse the filter stored and Q its process noise.
    """
    T = traj.T
    beliefs = traj.beliefs
    smoothed: list[Belief] = [None] * (T + 1)  # type: ignore[list-item]
    gains: list[np.ndarray] = [None] * T  # type: ignore[list-item]
    smoothed[T] = beliefs[T]
    for t in range(T - 1, -1, -1):
        filt, nxt = beliefs[t], smoothed[t + 1]
        pred_next = predict(filt, Q)
        G = filt.cov @ traj.pred_precisions[t]
        mean = filt.mean + G @ (nxt.mean - pred_next.mean)
        cov = symmetrize(filt.cov + G @ (nxt.cov - pred_next.cov) @ G.T)
        smoothed[t], gains[t] = Belief(mean=mean, cov=cov), G
    return smoothed, gains


def literal_stats_oracle(traj: Trajectory, ys: list[np.ndarray], model: ModelMatrices) -> dict:
    """The EM statistic sums transcribed densely from :func:`full_rts_smooth`.

    ``S1``/``S2`` are the state second moments at t and t-1, ``S4`` the lag-one
    cross moment, ``D`` = S1 - S4 - S4.T + S2, ``S3`` the dense observation/state
    cross moment, ``s5`` the observation energy, ``Tb``/``U`` their block traces
    and ``smoothed0`` the smoothed t = 0 belief, for a trajectory filtered
    under ``model``.
    """
    beliefs, gains = full_rts_smooth(traj, model.Q)
    m0, L, N, P = model.m0, model.L, model.N, model.P
    PL = m0.size
    S1 = np.zeros((PL, PL))
    S2 = np.zeros((PL, PL))
    S4 = np.zeros((PL, PL))
    S3 = np.zeros((N * L, PL))
    s5 = 0.0
    for t in range(1, len(beliefs)):
        cur, prev = beliefs[t], beliefs[t - 1]
        S1 += cur.cov + np.outer(cur.mean, cur.mean)
        S2 += prev.cov + np.outer(prev.mean, prev.mean)
        S4 += cur.cov @ gains[t - 1].T + np.outer(cur.mean, prev.mean)
        S3 += np.outer(ys[t - 1], cur.mean)
        s5 += float(ys[t - 1] @ ys[t - 1])
    D0 = np.diag(m0)
    return {
        "S1": S1,
        "S2": S2,
        "S3": S3,
        "S4": S4,
        "D": S1 - S4 - S4.T + S2,
        "s5": s5,
        "Tb": block_trace_gram(D0 @ S1 @ D0, L, P),
        "U": block_trace_cross(S3 @ D0, L),
        "smoothed0": beliefs[0],
    }


def joint_posterior(
    ys: list[np.ndarray], model: ModelMatrices, init: Belief
) -> tuple[np.ndarray, np.ndarray]:
    """Exact joint posterior of the stacked states x_0..x_T by dense conditioning.

    Conditions the prior Cov(x_s, x_t) = P00 + min(s, t) Q on the stacked
    observations, whose covariance carries sigma_r2 I and so is positive
    definite however singular P00 and Q are.
    """
    d, T = model.m0.size, len(ys)
    B = dense_B(model)
    prior = np.zeros(((T + 1) * d, (T + 1) * d))
    for s in range(T + 1):
        for t in range(T + 1):
            prior[s * d : (s + 1) * d, t * d : (t + 1) * d] = init.cov + min(s, t) * model.Q
    H = np.zeros((T * model.obs_dim, (T + 1) * d))
    for t in range(1, T + 1):
        H[(t - 1) * model.obs_dim : t * model.obs_dim, t * d : (t + 1) * d] = B
    mean0 = np.tile(init.mean, T + 1)
    S = H @ prior @ H.T + model.sigma_r2 * np.eye(T * model.obs_dim)
    K = np.linalg.solve(S, H @ prior).T
    mean = mean0 + K @ (np.concatenate(ys) - H @ mean0)
    return mean, prior - K @ H @ prior


def marginal_loglik(ys: list[np.ndarray], model: ModelMatrices, init: Belief) -> float:
    """Marginal log-likelihood of the window via the prediction-error decomposition."""
    return run_filter(ys, model, init).loglik


def kron_product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Standard Kronecker product: block (i, j) equals X[i, j] * Y."""
    return np.kron(np.asarray(X, dtype=float), np.asarray(Y, dtype=float))


@dataclass(frozen=True)
class KronTerms:
    """A sum-of-Kronecker-products representation sum_k left_k (x) right_k."""

    left_factors: tuple[np.ndarray, ...]
    right_factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.left_factors) != len(self.right_factors) or not self.left_factors:
            raise ValueError("need K >= 1 left/right factor pairs of equal count")
        lshape = self.left_factors[0].shape
        rshape = self.right_factors[0].shape
        for C in self.left_factors:
            if C.shape != lshape:
                raise ValueError("left factors must share one shape")
        for D in self.right_factors:
            if D.shape != rshape:
                raise ValueError("right factors must share one shape")

    @property
    def K(self) -> int:
        return len(self.left_factors)

    def reconstruct(self) -> np.ndarray:
        out = kron_product(self.left_factors[0], self.right_factors[0])
        for C, D in zip(self.left_factors[1:], self.right_factors[1:]):
            out += kron_product(C, D)
        return out


def _vanloan_rearrange(S: np.ndarray, p: int, q: int) -> np.ndarray:
    # Row (i*n + j) of the output is block (i, j) of S raveled row-major, so a
    # Kronecker product C (x) D rearranges to the rank-1 outer vec(C) vec(D)^T.
    m, n = S.shape[0] // p, S.shape[1] // q
    return S.reshape(m, p, n, q).transpose(0, 2, 1, 3).reshape(m * n, p * q)


def nkp_decompose(S: np.ndarray, block_rows: int, block_cols: int, K: int) -> KronTerms:
    """Leading K terms of the nearest-Kronecker-product expansion of S.

    Uses the SVD of the Van Loan rearrangement of S into an (m*n) x (p*q)
    matrix, where S is (m*p) x (n*q) with p = ``block_rows``, q =
    ``block_cols``. The Frobenius reconstruction error of the truncated sum
    equals the root-sum-square of the discarded singular values.
    """
    S = np.asarray(S, dtype=float)
    p, q = int(block_rows), int(block_cols)
    if S.shape[0] % p != 0 or S.shape[1] % q != 0:
        raise ValueError(f"shape {S.shape} not divisible into {p} x {q} blocks")
    m, n = S.shape[0] // p, S.shape[1] // q
    if not 1 <= K <= min(m * n, p * q):
        raise ValueError(f"K={K} outside [1, {min(m * n, p * q)}]")
    R = _vanloan_rearrange(S, p, q)
    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    lefts, rights = [], []
    for k in range(K):
        scale = np.sqrt(s[k])
        lefts.append((scale * U[:, k]).reshape(m, n))
        rights.append((scale * Vt[k, :]).reshape(p, q))
    return KronTerms(left_factors=tuple(lefts), right_factors=tuple(rights))


def block_trace_gram(Sigma_tilde: np.ndarray, L: int, P: int) -> np.ndarray:
    """P x P matrix of traces of the L x L blocks of a PL x PL matrix.

    For any exact expansion sum_k C_k (x) D_k of the input this equals
    sum_k tr(D_k) C_k, so tr((A A.T (x) I_L) X) == tr(A A.T @ block_trace_gram(X)).
    """
    X = np.asarray(Sigma_tilde, dtype=float)
    if X.shape != (P * L, P * L):
        raise ValueError(f"expected {(P * L, P * L)}, got {X.shape}")
    return np.einsum("iljl->ij", X.reshape(P, L, P, L))


def block_trace_cross(Sigma_tilde: np.ndarray, L: int) -> np.ndarray:
    """N x P matrix of traces of the L x L blocks of an NL x PL matrix."""
    X = np.asarray(Sigma_tilde, dtype=float)
    if X.shape[0] % L != 0 or X.shape[1] % L != 0:
        raise ValueError(f"shape {X.shape} not divisible into {L} x {L} blocks")
    N, P = X.shape[0] // L, X.shape[1] // L
    return np.einsum("nlpl->np", X.reshape(N, L, P, L))


def woodbury_gain_factor(B: np.ndarray, P_pred: np.ndarray, sigma_r2: float) -> np.ndarray:
    """B.T @ inv(B @ P_pred @ B.T + sigma_r2 * I) without forming the NL x NL matrix.

    Computed as ``s2i * B.T - s2i**2 * B.T B (inv(P_pred) + s2i * B.T B)^-1 B.T``
    with ``s2i = 1 / sigma_r2``; only PL x PL matrices are inverted.
    """
    if sigma_r2 <= 0:
        raise ValueError("sigma_r2 must be positive")
    B = np.asarray(B, dtype=float)
    Bt = B.T
    BtB = Bt @ B
    P_inv = symmetrize(spd_solve(P_pred, np.eye(P_pred.shape[0])))
    inner = symmetrize(P_inv + BtB / sigma_r2)
    mid = spd_solve(inner, Bt)
    return Bt / sigma_r2 - (BtB @ mid) / sigma_r2**2


def q_function_trace_form(theta: EmParams, stats: SufficientStats, smoothed0: Belief) -> float:
    """``em.q_function`` with tr(P00^-1 S0) and tr(Q^-1 D) as traces of SciPy
    Cholesky solves."""
    d = smoothed0.mean - theta.psi00
    S0 = smoothed0.cov + np.outer(d, d)
    term0 = float(np.trace(spd_solve(theta.P00, S0))) + spd_logdet(theta.P00)
    D = stats.increment_second_moment
    term_q = float(np.trace(spd_solve(theta.Q, D))) + stats.T * spd_logdet(theta.Q)
    term_r = _obs_residual_trace(stats, theta.A) / theta.sigma_r2 + (
        stats.T * stats.N * stats.L * np.log(theta.sigma_r2)
    )
    return -0.5 * (term0 + term_q + term_r)


def project_simplex_vector(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of one vector onto {x >= 0, sum(x) = 1} by sort
    and threshold."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, v.size + 1) > 0)[0][-1]
    return np.maximum(v + (1.0 - css[rho]) / (rho + 1.0), 0.0)


def projected_gradient_norm(M, y, a, lam=0.0, a_ref=None) -> float:
    """KKT residual of min ||y - M a||^2 + lam ||a - a_ref||^2 over the simplex
    at a: the norm of the unit-step projected-gradient mapping."""
    g = (M.T @ M) @ a - M.T @ y
    if lam > 0:
        g = g + lam * (a - a_ref)
    return float(np.linalg.norm(a - project_simplex_vector(a - g)))
