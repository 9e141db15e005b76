"""Simplex-constrained least squares: plain FCLS and the regularized variant.

For every column y of a frame, solve

    min_a  ||y - M a||^2 + lambda ||a - a_ref||^2
    s.t.   a >= 0,  1.T a = 1,

that is, with G = M.T M + lambda I and b = M.T y + lambda a_ref, minimize
a.T G a - 2 b.T a over the simplex. The primal active-set method solves it
exactly, to rounding, for every P: the FCLS of Heinz & Chang (IEEE TGRS 39(3),
2001) in the form of Lawson & Hanson's NNLS (1974), with the sum-to-one row in
the KKT system. From its best vertex, each column solves
[[G_S, 1], [1.T, 0]] [z_S; mu] = [b_S; 1] on its support S; where some z_i <= 0
it steps toward z until an entry reaches zero and drops it, and otherwise the
index with the most negative dual (G z - b)_i + mu joins S.

:func:`fcls_refine_frame` is the one solver and :func:`fcls_solve` its
one-column form. A column's result is bit-identical alone or in a frame.
Invalid input raises ValueError; a column still unsolved after
``ITERATIONS_PER_MATERIAL * P`` steps stops at its last feasible point, with a
RuntimeWarning.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

#: each column may take at most this many active-set steps per material
ITERATIONS_PER_MATERIAL = 10
#: a dual joins the support below -DUAL_TOL * (max |G_ij| + max |b_i|)
DUAL_TOL = 1e-13


def project_simplex(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of every column of V (P x N) onto the simplex
    {x >= 0, sum(x) = 1}, by sort and threshold. Each column's threshold
    reads that column only, so it projects alike alone or in a frame."""
    P, N = V.shape
    U = -np.sort(-V, axis=0)
    css = np.cumsum(U, axis=0)
    j = np.arange(1.0, P + 1.0)[:, None]
    last = P - 1 - np.argmax((U + (1.0 - css) / j > 0)[::-1], axis=0)
    tau = (1.0 - css[last, np.arange(N)]) / (last + 1.0)
    return np.maximum(V + tau, 0.0)


def _apply(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """W @ X over the last two axes (broadcast over leading ones). The terms
    are summed elementwise in a fixed tree, the upper half folded onto the
    lower until one is left, so a column's value depends on that column only."""
    T = W[..., :, :, None] * X[..., None, :, :]
    k = T.shape[-2]
    while k > 1:
        h = k // 2
        T[..., :h, :] += T[..., k - h : k, :]
        k -= h
    return T[..., 0, :]


def _solve_supports(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the stack of KKT systems, each on its own (one LAPACK gesv per
    matrix); a singular matrix gives a NaN row instead of an exception."""
    try:
        return np.linalg.solve(K, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # some support is singular: find which
        if len(K) == 1:
            return np.full(rhs.shape, np.nan)
        return np.vstack([_solve_supports(K[i : i + 1], rhs[i : i + 1]) for i in range(len(K))])


def _active_set(G: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact simplex-constrained minimizer of a.T G a - 2 b.T a for every
    column b of B. The loop keeps one row per column: X[n] is column n's
    point and S[n] its support, with the always-present sum row last."""
    P, N = B.shape
    rows = np.arange(N)
    vertex = np.argmin(np.diag(G)[:, None] - 2.0 * B, axis=0)
    X = np.zeros((N, P))
    X[rows, vertex] = 1.0
    S = np.zeros((N, P + 1), dtype=bool)
    S[rows, vertex] = S[:, P] = True
    rhs = np.hstack([B.T, np.ones((N, 1))])
    kkt = np.ones((P + 1, P + 1))
    kkt[:P, :P], kkt[P, P] = G, 0.0
    eye = np.eye(P + 1)
    tol = DUAL_TOL * (np.max(np.abs(G)) + np.max(np.abs(B), axis=0))
    # a vertex is its own support solution, with mu = b_k - G_kk
    act, s, z, mu = rows, S, X.copy(), B[vertex, rows] - G[vertex, vertex]
    blocked, free = np.zeros(N, dtype=bool), np.ones(N, dtype=bool)
    for _ in range(ITERATIONS_PER_MATERIAL * P):
        if blocked.any():
            # the support solution leaves the simplex: step toward it until
            # the first entry reaches zero, and drop that index
            c, x, z_b = act[blocked], X[act[blocked]], z[blocked]
            neg = s[blocked, :P] & (z_b <= 0.0)
            ratio = np.where(neg, x, np.inf)
            np.divide(ratio, x - z_b, out=ratio, where=neg & (x > z_b))
            leave = ratio.argmin(axis=1)
            step = ratio[np.arange(c.size), leave, None]
            X[c] = np.maximum(x + step * (z_b - x), 0.0)
            X[c, leave] = S[c, leave] = 0
        # the support solution is feasible: the most negative dual joins
        c, z_f = act[free], z[free]
        w = _apply(G, z_f.T).T - B.T[c] + mu[free, None]
        w[s[free, :P]] = np.inf
        join = w.argmin(axis=1)
        adds = w[np.arange(c.size), join] < -tol[c]
        X[c] = z_f
        S[c[adds], join[adds]] = True
        act = np.concatenate([act[blocked], c[adds]])
        if not act.size:
            break
        s = S[act]
        K = np.where(s[:, :, None] & s[:, None, :], kkt, eye)
        sol = _solve_supports(K, np.where(s, rhs[act], 0.0))
        z, mu = sol[:, :P], sol[:, P]
        # a support turns singular only through rounding, when the joining
        # index's dual is zero in exact arithmetic: that column stops there
        ok = ~np.isnan(mu)
        blocked = (s[:, :P] & (z <= 0.0)).any(axis=1) & ok
        free = ok & ~blocked
    else:
        warnings.warn(
            f"fcls hit the iteration cap ({ITERATIONS_PER_MATERIAL} x {P} active-set "
            f"steps) on {act.size} of {N} columns",
            RuntimeWarning,
            stacklevel=3,
        )
    return X.T.copy()


def fcls_solve(
    M: np.ndarray, y: np.ndarray, lam: float = 0.0, a_ref: np.ndarray | None = None
) -> np.ndarray:
    """One pixel's solve: :func:`fcls_refine_frame` on a one-column frame."""
    A_ref = None if a_ref is None else np.reshape(a_ref, (-1, 1))
    return fcls_refine_frame(np.reshape(y, (-1, 1)), M, A_ref, lam)[:, 0]


def fcls_refine_frame(
    Y: np.ndarray, M: np.ndarray, A_ref: np.ndarray | None, lam: float
) -> np.ndarray:
    """The simplex-constrained solution (P x N) of every column of the frame
    ``Y`` against the design ``M``: plain FCLS with ``lam`` = 0, and with
    ``lam`` > 0 pulled toward the matching column of ``A_ref``, which is then
    required. ValueError on mismatched shapes, non-finite entries, a negative
    or infinite ``lam`` or an all-zero design."""
    Y = np.asarray(Y, dtype=float)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"design must be a matrix, got shape {M.shape}")
    if Y.ndim != 2:
        raise ValueError(f"frame must be a matrix, got shape {Y.shape}")
    if not 0 <= lam < math.inf:
        raise ValueError("lambda must be finite and nonnegative")
    if Y.shape[0] != M.shape[0]:
        raise ValueError(f"band mismatch: frame has {Y.shape[0]}, design has {M.shape[0]}")
    P, N = M.shape[1], Y.shape[1]
    if lam > 0:
        if A_ref is None:
            raise ValueError("lam > 0 requires reference abundances")
        A_ref = np.asarray(A_ref, dtype=float)
        if A_ref.shape != (P, N):
            raise ValueError(f"reference shape {A_ref.shape}, expected {(P, N)}")
    # the solver's stopping tests are comparisons, which NaN would defeat
    for name, X in (("design", M), ("frame", Y), ("reference", A_ref if lam > 0 else 0.0)):
        if not np.all(np.isfinite(X)):
            raise ValueError(f"{name} must be finite")
    G = M.T @ M + lam * np.eye(P)
    B = _apply(M.T, Y) + (lam * A_ref if lam > 0 else 0.0)
    if not np.any(G):
        raise ValueError("design matrix must be nonzero")
    return _active_set(G, B)
