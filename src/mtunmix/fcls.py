"""Simplex-constrained least squares: plain FCLS and the regularized variant.

Solves, for every column y of a frame,

    min_a  ||y - M a||^2 + lambda ||a - a_ref||^2
    s.t.   a >= 0,  1.T a = 1

With G = M.T M + lambda I and b = M.T y + lambda a_ref this is the QP
min a.T G a - 2 b.T a over the simplex. The solver works on a whole frame at
once. For P <= ENUMERATION_MAX_P it is exact: the minimizer is the best
nonnegative solution of the equality-constrained problem on some support, so
each of the 2^P - 1 supports gets one KKT inverse, applied to every column,
and each column keeps its feasible candidate with the lowest objective (the
active-set view of FCLS, Heinz & Chang 2001). Single-vertex supports always
solve, so every column has a candidate. For larger P, where enumeration grows
too costly, an accelerated projected-gradient method runs on all columns at
once, through the column-wise projection :func:`project_simplex`, and stops
each column on its own.

:func:`fcls_refine_frame` is the one solver; :func:`fcls_solve` calls it on a
one-column frame. Every product that involves the columns is summed term by
term in a fixed order, never by a BLAS call whose blocking depends on the
column count, so a column's result is bit-identical whether it is solved alone
or in a frame.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

#: largest P solved by support enumeration; above it, projected gradient.
#: Measured on random 60-band designs with one BLAS thread: enumeration is
#: the faster of the two up to P = 12 at both 50 and 400 columns per frame;
#: from P = 13 (400 columns) or P = 15 (50 columns) it is the slower.
ENUMERATION_MAX_P = 12
MAX_ITERS = 2000
KKT_STOP = 1e-8  # margin under the 1e-7 projected-gradient norm guaranteed
#: the enumeration takes the columns in blocks whose candidate stacks
#: (supports x support size x columns) hold at most about this many entries
BLOCK_ENTRIES = 1 << 20


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
    """W @ X over the last two axes (broadcast over leading ones), summed
    term by term so that each column's value does not depend on the others."""
    out = W[..., :, 0, None] * X[..., None, 0, :]
    for j in range(1, W.shape[-1]):
        out = out + W[..., :, j, None] * X[..., None, j, :]
    return out


def _sum_rows(X: np.ndarray) -> np.ndarray:
    """Sum over axis -2 in a fixed order (numpy's own sum turns pairwise when
    the summed axis is contiguous, as it is for a single column)."""
    out = X[..., 0, :]
    for i in range(1, X.shape[-2]):
        out = out + X[..., i, :]
    return out


def _objectives(G: np.ndarray, B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """x.T G x - 2 b.T x of every column, over the last two axes."""
    return _sum_rows(X * (_apply(G, X) - 2.0 * B))


def _kkt_residual(G: np.ndarray, B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Unit-step projected-gradient norm of every column."""
    D = X - project_simplex(X - (_apply(G, X) - B))
    return np.sqrt(_sum_rows(D * D))


def _support_systems(G: np.ndarray) -> list:
    """For each support size r = 2..P: the supports (count x r), their blocks
    G_S and the inverses of their (r+1) x (r+1) KKT matrices
    [[G_S, 1], [1.T, 0]]. Supports with a singular KKT matrix are left out."""
    P = G.shape[0]
    systems = []
    for r in range(2, P + 1):
        supports = np.array(list(itertools.combinations(range(P), r)), dtype=np.intp)
        G_S = G[supports[:, :, None], supports[:, None, :]]
        K = np.zeros((len(supports), r + 1, r + 1))
        K[:, :r, :r] = G_S
        K[:, :r, r] = 1.0
        K[:, r, :r] = 1.0
        try:
            inv = np.linalg.inv(K)
        except np.linalg.LinAlgError:  # some support is singular: find which
            inv = np.full_like(K, np.nan)
            for s in range(len(K)):
                try:
                    inv[s] = np.linalg.inv(K[s])
                except np.linalg.LinAlgError:
                    pass
        ok = np.all(np.isfinite(inv), axis=(1, 2))
        if ok.any():
            systems.append((supports[ok], G_S[ok], inv[ok]))
    return systems


def _enumerate_supports(G: np.ndarray, B: np.ndarray, systems: list) -> np.ndarray:
    """Exact simplex-constrained minimizer of every column of B."""
    P, N = B.shape
    cols = np.arange(N)
    # single vertices: a = e_i, objective G_ii - 2 b_i
    vertex_obj = np.diag(G)[:, None] - 2.0 * B
    pick = np.argmin(vertex_obj, axis=0)
    best_obj = vertex_obj[pick, cols]
    best = np.zeros((P, N))
    best[pick, cols] = 1.0
    for supports, G_S, inv in systems:
        r = supports.shape[1]
        B_S = B[supports]
        X = _apply(inv[:, :r, :r], B_S) + inv[:, :r, r, None]
        # put sum(x) back on 1 to rounding, so that a poorly conditioned
        # support cannot bring a point off the simplex into the comparison
        X = X + (1.0 - _sum_rows(X))[:, None, :] / r
        obj = _objectives(G_S, B_S, X)
        obj[~np.all(X >= 0.0, axis=1)] = np.inf
        s = np.argmin(obj, axis=0)
        take = obj[s, cols] < best_obj
        s, c = s[take], cols[take]
        best_obj[c] = obj[s, c]
        best[:, c] = 0.0
        best[supports[s], c[:, None]] = X[s, :, c]
    return best


def _accelerated_gradient(G: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Accelerated projected gradient (FISTA) on every column at once.

    Step 1 / lambda_max(G). A column stops once its unit-step projected-
    gradient norm is within KKT_STOP, or once a plain gradient step (no
    momentum) leaves it where it was or returns it to the previous iterate:
    then floating point cannot move it. Any other stall is a momentum cycle
    and restarts momentum. Momentum also restarts whenever a step would
    increase the objective, so each column's objective is non-increasing.
    """
    P, N = B.shape
    step = 1.0 / float(np.linalg.eigvalsh(G)[-1])
    X = np.full((P, N), 1.0 / P)
    F = _objectives(G, B, X)
    X_prev, Z, t = X.copy(), X.copy(), np.ones(N)
    act = np.arange(N)
    for _ in range(MAX_ITERS):
        x, z, b, f = X[:, act], Z[:, act], B[:, act], F[act]
        plain = np.all(z == x, axis=0)
        x_new = project_simplex(z - step * (_apply(G, z) - b))
        f_new = _objectives(G, b, x_new)
        up = f_new > f
        if up.any():
            x_new[:, up] = project_simplex(x[:, up] - step * (_apply(G, x[:, up]) - b[:, up]))
            f_new[up] = _objectives(G, b[:, up], x_new[:, up])
            plain |= up
        stalled = np.all(x_new == x, axis=0) | np.all(x_new == X_prev[:, act], axis=0)
        kkt = _kkt_residual(G, b, x_new)
        done = (kkt <= KKT_STOP) | (stalled & plain)
        t_act = np.where(up | stalled, 1.0, t[act])
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_act * t_act))
        z_new = x_new + ((t_act - 1.0) / t_next) * (x_new - x)
        X_prev[:, act], X[:, act], Z[:, act] = x, x_new, z_new
        F[act], t[act] = f_new, t_next
        act = act[~done]
        if not act.size:
            return X
    kkt = _kkt_residual(G, B, X)
    warnings.warn(
        f"fcls hit the {MAX_ITERS}-iteration cap on {act.size} of {N} columns "
        f"(largest projected-gradient norm {float(np.max(kkt[act])):.3e})",
        RuntimeWarning,
        stacklevel=3,
    )
    return X


def fcls_solve(
    M: np.ndarray, y: np.ndarray, lam: float = 0.0, a_ref: np.ndarray | None = None
) -> np.ndarray:
    """One pixel's solve: :func:`fcls_refine_frame` on a one-column frame."""
    A_ref = None if a_ref is None else np.reshape(a_ref, (-1, 1))
    return fcls_refine_frame(np.reshape(y, (-1, 1)), M, A_ref, lam)[:, 0]


def fcls_refine_frame(
    Y: np.ndarray, M: np.ndarray, A_ref: np.ndarray | None, lam: float
) -> np.ndarray:
    """Column-wise constrained solve of one frame against a fixed design.

    With lam = 0 this is the per-pixel FCLS of Y against M; with lam > 0 each
    column is pulled toward the corresponding column of ``A_ref``, which is
    then required. Each column of the result is bit-identical to
    :func:`fcls_solve` on that column.
    """
    Y = np.asarray(Y, dtype=float)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"design must be a matrix, got shape {M.shape}")
    if not 0 <= lam < math.inf:
        raise ValueError("lambda must be finite and nonnegative")
    if Y.shape[0] != M.shape[0]:
        raise ValueError(f"band mismatch: frame has {Y.shape[0]}, design has {M.shape[0]}")
    P, N = M.shape[1], Y.shape[1]
    G = M.T @ M
    B = _apply(M.T, Y)
    if lam > 0:
        if A_ref is None:
            raise ValueError("lam > 0 requires reference abundances")
        A_ref = np.asarray(A_ref, dtype=float)
        if A_ref.shape != (P, N):
            raise ValueError(f"reference shape {A_ref.shape}, expected {(P, N)}")
        G = G + lam * np.eye(P)
        B = B + lam * A_ref
    if not np.any(G):
        raise ValueError("design matrix must be nonzero")
    if P > ENUMERATION_MAX_P:
        return _accelerated_gradient(G, B)
    systems = _support_systems(G)
    width = max(1, BLOCK_ENTRIES // max(math.comb(P, r) * r for r in range(1, P + 1)))
    return np.hstack(
        [_enumerate_supports(G, B[:, lo : lo + width], systems) for lo in range(0, N, width)]
    )
