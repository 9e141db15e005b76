"""Evaluation metrics and permutation alignment for endmember estimates.

Alignment solves the linear assignment problem exactly, in O(P^3), by the
Hungarian method (Kuhn, Naval Res. Logist. Q. 2, 1955; Munkres, J. SIAM 5,
1957) in its shortest-augmenting-path form with row and column potentials.
"""

from __future__ import annotations

import numpy as np


def _paired_frames(truth, estimate) -> list[tuple[np.ndarray, np.ndarray]]:
    """(truth, estimate) frame pairs as float arrays; raises unless the two
    sequences are equally long and equal in shape frame by frame."""
    truth = [np.asarray(x, dtype=float) for x in truth]
    estimate = [np.asarray(x, dtype=float) for x in estimate]
    if len(truth) != len(estimate):
        raise ValueError(f"sequence lengths differ: {len(truth)} vs {len(estimate)}")
    for t, (X, Xe) in enumerate(zip(truth, estimate)):
        if X.shape != Xe.shape:
            raise ValueError(f"shape mismatch at frame {t}: {X.shape} vs {Xe.shape}")
    return list(zip(truth, estimate))


def nrmse(truth, estimate) -> float:
    """Time-averaged normalized Frobenius error between two array sequences.

    (1/T) sum_t sqrt(||X_t - X_t*||_F^2 / ||X_t||_F^2); truth frames must be
    nonzero.
    """
    pairs = _paired_frames(truth, estimate)
    total = 0.0
    for t, (X, Xe) in enumerate(pairs):
        denom = float(np.sum(X**2))
        if denom == 0.0:
            raise ValueError(f"zero-norm truth frame {t}")
        total += np.sqrt(float(np.sum((X - Xe) ** 2)) / denom)
    return total / len(pairs)


def _angles(truth_cols: np.ndarray, est_cols: np.ndarray) -> np.ndarray:
    """Column-wise arccos of the normalized inner product.

    Evaluated in the half-angle form 2 atan2(||u - v||, ||u + v||) on unit
    vectors, which keeps the result in [0, pi] without clipping and returns
    exactly 0 for identical columns (arccos near 1 amplifies rounding noise
    to ~1e-8).
    """
    tn = np.linalg.norm(truth_cols, axis=0)
    en = np.linalg.norm(est_cols, axis=0)
    if np.any(tn == 0) or np.any(en == 0):
        raise ValueError("zero column in spectral-angle computation")
    u = truth_cols / tn
    v = est_cols / en
    return 2.0 * np.arctan2(
        np.linalg.norm(u - v, axis=0), np.linalg.norm(u + v, axis=0)
    )


def sam(truth, estimate) -> float:
    """Average spectral angle: (1/T) sum_t sum_k angle(m_{k,t}, m*_{k,t}), radians."""
    pairs = _paired_frames(truth, estimate)
    return sum(float(np.sum(_angles(X, Xe))) for X, Xe in pairs) / len(pairs)


def _best_permutation(cost: np.ndarray) -> tuple[int, ...]:
    """The permutation ``perm`` minimizing sum_k cost[k, perm[k]].

    Rows are added one at a time. Each is matched along the shortest path of
    reduced costs cost[r, j] - u[r] - v[j] to a free column, found Dijkstra
    style, and the potentials u, v are moved by the path lengths so reduced
    costs stay nonnegative and zero on matched pairs. Column P is the root of
    each search.
    """
    P = cost.shape[0]
    row_of = np.full(P + 1, -1)
    u, v = np.zeros(P), np.zeros(P + 1)
    for i in range(P):
        j, row_of[P] = P, i
        dist, prev = np.full(P, np.inf), np.full(P, P)
        done = np.zeros(P + 1, dtype=bool)
        while row_of[j] != -1:
            done[j] = True
            r, free = row_of[j], ~done[:P]
            reduced = cost[r] - u[r] - v[:P]
            closer = free & (reduced < dist)
            dist[closer], prev[closer] = reduced[closer], j
            nearest = int(np.argmin(np.where(free, dist, np.inf)))
            delta = dist[nearest]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[free] -= delta
            j = nearest
        while j != P:
            row_of[j] = row_of[prev[j]]
            j = prev[j]
    return tuple(np.argsort(row_of[:P]).tolist())


def align_endmember_sequences(truth_seq, est_seq) -> tuple[int, ...]:
    """Permutation ``perm`` minimizing the spectral angle summed over all
    frames, so that ``est[:, perm]`` matches ``truth`` column for column;
    ValueError where an angle is not finite."""
    pairs = _paired_frames(truth_seq, est_seq)
    P = pairs[0][0].shape[1]
    cost = np.zeros((P, P))
    for X, Xe in pairs:
        for j in range(P):
            cost[:, j] += _angles(X, np.tile(Xe[:, j : j + 1], (1, P)))
    if not np.all(np.isfinite(cost)):
        raise ValueError("non-finite spectral angle between endmember sequences")
    return _best_permutation(cost)


def apply_permutation(perm, endmembers, abundances):
    """Reorder estimate columns/rows so material k lines up with truth's k;
    returns the reordered (endmembers, abundances)."""
    perm = list(perm)
    return (
        [np.asarray(M)[:, perm] for M in endmembers],
        [np.asarray(A)[perm, :] for A in abundances],
    )
