"""Reference implementations that the tests compare the library against.

None of this runs in the unmixing pipeline: the dense observation matrix, the
dense observation/state cross moment, the marginal log-likelihood as a sum of
filter terms, the textbook Woodbury gain factor, the N x P block traces of a
cross moment, the nearest-Kronecker-product (Van Loan) expansion, and the EM
surrogate with its traces taken as traces of solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mtunmix.em import EmParams, SufficientStats, _obs_residual_trace
from mtunmix.kalman import Belief, ModelMatrices, Trajectory, run_filter
from mtunmix.kronops import cho_factor_jittered, cho_logdet, cho_solve, spd_solve, symmetrize


def dense_B(model: ModelMatrices) -> np.ndarray:
    """Dense NL x PL observation matrix kron(A.T, I_L) @ diag(m0)."""
    return np.kron(model.A.T, np.eye(model.L)) * model.m0[None, :]


def obs_state_outer(traj: Trajectory, ys: list[np.ndarray]) -> np.ndarray:
    """Dense NL x PL cross moment sum_t y_t psi_t^s.T of a smoothed trajectory."""
    return sum(np.outer(y, sm.mean) for y, sm in zip(ys, traj.smoothed))


def marginal_loglik(ys: list[np.ndarray], model: ModelMatrices, init: Belief) -> float:
    """Marginal log-likelihood of the window via the prediction-error decomposition."""
    return float(sum(run_filter(ys, model, init).loglik_terms))


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
    """``em.q_function`` with tr(P00^-1 S0) and tr(Q^-1 D) as np.trace(cho_solve(c, S))."""
    d = smoothed0.mean - theta.psi00
    S0 = smoothed0.cov + np.outer(d, d)
    c_p00 = cho_factor_jittered(theta.P00)
    term0 = float(np.trace(cho_solve(c_p00, S0))) + cho_logdet(c_p00)
    c_q = cho_factor_jittered(theta.Q)
    D = stats.increment_second_moment
    term_q = float(np.trace(cho_solve(c_q, D))) + stats.T * cho_logdet(c_q)
    term_r = _obs_residual_trace(stats, theta.A) / theta.sigma_r2 + (
        stats.T * stats.N * stats.L * np.log(theta.sigma_r2)
    )
    return -0.5 * (term0 + term_q + term_r)
