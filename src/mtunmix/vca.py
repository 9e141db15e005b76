"""Vertex component analysis (Nascimento & Bioucas-Dias, IEEE TGRS 43(4), 2005)
for pure-pixel endmember extraction.

The pixels are projected onto a P-dimensional subspace chosen by an SNR
estimate; then, P times, the pixel with the largest projection onto a random
direction orthogonal to the endmembers found so far is taken. The result is P
observed pixel spectra.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficiencyError


def _estimate_snr_db(Y: np.ndarray, y_mean: np.ndarray, x_proj: np.ndarray) -> float:
    L, N = Y.shape
    P = x_proj.shape[0]
    p_y = float(np.sum(Y**2)) / N
    p_x = float(np.sum(x_proj**2)) / N + float(np.sum(y_mean**2))
    denom = p_y - p_x
    if denom <= 0:
        return np.inf
    num = p_x - (P / L) * p_y
    if num <= 0:
        return -np.inf
    return float(10.0 * np.log10(num / denom))


def vca_extract(Y: np.ndarray, P: int, seed: int = 0) -> np.ndarray:
    """P endmember spectra (L x P columns) picked from the pixels of an L x N
    frame; deterministic given ``seed``. ValueError unless 1 <= P <= min(L, N);
    :class:`RankDeficiencyError` when the frame's numerical rank is below P."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("frame must be 2-D (bands x pixels)")
    L, N = Y.shape
    if not 1 <= P <= min(L, N):
        raise ValueError(f"P={P} outside [1, min(L={L}, N={N})]")
    rank = int(np.linalg.matrix_rank(Y))
    if rank < P:
        raise RankDeficiencyError(
            f"frame has numerical rank {rank}, need at least {P}",
            achieved_rank=rank,
            required_rank=P,
        )

    rng = np.random.default_rng(seed)
    y_mean = Y.mean(axis=1, keepdims=True)
    Y0 = Y - y_mean

    if P == 1:
        # degenerate case: strongest pixel along the first principal direction
        u1 = np.linalg.svd(Y0, full_matrices=False)[0][:, :1]
        scores = (u1.T @ Y0).ravel()
        return Y[:, [int(np.argmax(np.abs(scores)))]].copy()

    Ud_full = np.linalg.svd(Y0 @ Y0.T / N)[0]
    x_proj = Ud_full[:, :P].T @ Y0
    snr = _estimate_snr_db(Y, y_mean, x_proj)

    if snr < 15.0 + 10.0 * np.log10(P):
        # low SNR: PCA to P-1 dims plus a constant coordinate
        x = x_proj[: P - 1, :]
        c = float(np.sqrt(np.max(np.sum(x**2, axis=0))))
        y_sel = np.vstack([x, c * np.ones((1, N))])
    else:
        # high SNR: P-dim subspace of the raw data, projective normalization
        Ud = np.linalg.svd(Y @ Y.T / N)[0][:, :P]
        x = Ud.T @ Y
        u = x.mean(axis=1, keepdims=True)
        denom = np.sum(x * u, axis=0)
        denom = np.where(np.abs(denom) < 1e-12, 1e-12, denom)
        y_sel = x / denom

    E = np.zeros((P, P))
    E[-1, 0] = 1.0
    indices = np.zeros(P, dtype=int)
    for i in range(P):
        w = rng.random((P, 1))
        f = w - E @ np.linalg.pinv(E) @ w
        f = f / np.linalg.norm(f)
        scores = (f.T @ y_sel).ravel()
        indices[i] = int(np.argmax(np.abs(scores)))
        E[:, i] = y_sel[:, indices[i]]
    return Y[:, indices].copy()
