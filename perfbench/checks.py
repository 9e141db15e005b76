"""Correctness checks built apart from the program.

Nothing here calls the code under test except ``compare_with_package``,
which exists to confirm that the benchmark's own scores and the package's
``mtunmix.metrics`` agree.
"""

from __future__ import annotations

import itertools

import numpy as np

ORACLE_TOL = 1e-6  # |FCLS - oracle|, the bound acceptance criterion 6 uses
FEAS_TOL = 1e-9  # negativity and |sum - 1| of every abundance column
ASCENT_TOL = -1e-9  # smallest allowed EM log-likelihood step
SCORE_TOL = 1e-12  # own scores against mtunmix.metrics
#: sigma_r2 / realized noise variance must lie in [1/f, f]
NOISE_FACTOR = 2.0


def simplex_ls_oracle(M, Y, lam=0.0, A_ref=None):
    """Exact per-column minimizer of ||y - M a||^2 + lam ||a - a_ref||^2 over
    the probability simplex, by enumerating the 2^P - 1 supports.

    On each support S the equality-constrained problem is one KKT solve,
    batched over all columns. Among the candidates that are nonnegative the
    one with the lowest objective is the optimum, because the optimum's own
    support yields it. Single-vertex supports always solve, so every column
    has a candidate.
    """
    M = np.asarray(M, dtype=float)
    Y = np.asarray(Y, dtype=float)
    P, N = M.shape[1], Y.shape[1]
    G = M.T @ M
    B = M.T @ Y
    if lam > 0:
        G = G + lam * np.eye(P)
        B = B + lam * np.asarray(A_ref, dtype=float)
    best = np.full((P, N), np.nan)
    best_obj = np.full(N, np.inf)
    for r in range(1, P + 1):
        for support in itertools.combinations(range(P), r):
            S = list(support)
            kkt = np.zeros((r + 1, r + 1))
            kkt[:r, :r] = G[np.ix_(S, S)]
            kkt[:r, r] = 1.0
            kkt[r, :r] = 1.0
            rhs = np.vstack([B[S, :], np.ones((1, N))])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            cand = np.zeros((P, N))
            cand[S, :] = sol[:r, :]
            obj = np.einsum("pn,pq,qn->n", cand, G, cand) - 2.0 * np.sum(B * cand, axis=0)
            take = np.all(sol[:r, :] >= 0.0, axis=0) & (obj < best_obj)
            best[:, take] = cand[:, take]
            best_obj[take] = obj[take]
    return best


def fcls_check(A, M, Y, lam=0.0, A_ref=None) -> tuple[list[str], int, float]:
    """Check one FCLS output (P x N) against the oracle.

    Returns the problems found (columns off the simplex), the number of
    columns farther than ORACLE_TOL from the exact minimizer, and the largest
    such distance. Which of the two counts as a failure is the caller's
    choice: see :func:`oracle_problems`.
    """
    A = np.asarray(A, dtype=float)
    problems = []
    infeas = max(float(np.max(-A)), float(np.max(np.abs(A.sum(axis=0) - 1.0))))
    if not infeas <= FEAS_TOL:
        problems.append(f"leaves the simplex by {infeas:.3e}")
    gaps = np.max(np.abs(A - simplex_ls_oracle(M, Y, lam, A_ref)), axis=0)
    return problems, int(np.sum(~(gaps <= ORACLE_TOL))), float(np.max(gaps))


def oracle_problems(A, M, Y, lam=0.0, A_ref=None) -> list[str]:
    """The full check: off the simplex, or any column off the oracle, fails."""
    problems, misses, gap = fcls_check(A, M, Y, lam, A_ref)
    if misses:
        problems.append(
            f"{misses} of {np.shape(A)[1]} columns farther than {ORACLE_TOL:g} from the "
            f"oracle, by up to {gap:.3e}"
        )
    return problems


def spectral_angles(U, V) -> np.ndarray:
    """Column-wise angle between U and V, as atan2(|u| |v_perp|, u.v)."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    uu = np.sum(U * U, axis=0)
    uv = np.sum(U * V, axis=0)
    perp = V - U * (uv / uu)
    return np.arctan2(np.sqrt(uu) * np.linalg.norm(perp, axis=0), uv)


def best_alignment(truth_seq, est_seq) -> tuple[int, ...]:
    """Brute force over all permutations: the one whose columns of the
    estimate, summed over frames, have the least total spectral angle."""
    P = truth_seq[0].shape[1]
    cost = np.zeros((P, P))
    for X, Xe in zip(truth_seq, est_seq):
        for k in range(P):
            for j in range(P):
                cost[k, j] += spectral_angles(X[:, [k]], Xe[:, [j]])[0]
    perms = np.array(list(itertools.permutations(range(P))))
    totals = cost[np.arange(P), perms].sum(axis=1)
    return tuple(int(j) for j in perms[int(np.argmin(totals))])


def nrmse(truth_seq, est_seq) -> float:
    return float(
        np.mean(
            [np.linalg.norm(X - Xe) / np.linalg.norm(X) for X, Xe in zip(truth_seq, est_seq)]
        )
    )


def mean_sam(truth_seq, est_seq) -> float:
    return float(np.mean([np.sum(spectral_angles(X, Xe)) for X, Xe in zip(truth_seq, est_seq)]))


def scores(truth, endmembers, abundances) -> dict[str, float]:
    """nrmse_a, nrmse_m and sam_m of one estimate after the benchmark's alignment."""
    perm = list(best_alignment(truth.endmembers, endmembers))
    em = [np.asarray(M)[:, perm] for M in endmembers]
    ab = [np.asarray(A)[perm, :] for A in abundances]
    return {
        "nrmse_a": nrmse(truth.abundances, ab),
        "nrmse_m": nrmse(truth.endmembers, em),
        "sam_m": mean_sam(truth.endmembers, em),
    }


def compare_with_package(truth, endmembers, abundances, own: dict) -> list[str]:
    """Differences beyond SCORE_TOL between ``own`` and ``mtunmix.metrics``."""
    from mtunmix import metrics

    perm = metrics.align_endmember_sequences(truth.endmembers, endmembers)
    em, ab = metrics.apply_permutation(perm, endmembers=endmembers, abundances=abundances)
    package = {
        "nrmse_a": metrics.nrmse(truth.abundances, ab),
        "nrmse_m": metrics.nrmse(truth.endmembers, em),
        "sam_m": metrics.sam(truth.endmembers, em),
    }
    return [
        f"{k}: benchmark {own[k]!r} vs mtunmix.metrics {v!r}"
        for k, v in package.items()
        if not abs(own[k] - v) <= SCORE_TOL * max(1.0, abs(v))
    ]


def realized_noise_variance(clean_frames, noisy_frames) -> float:
    sq = sum(float(np.sum((n - c) ** 2)) for c, n in zip(clean_frames, noisy_frames))
    return sq / sum(c.size for c in clean_frames)


def em_problems(loglik, sigma_r2: float, truth) -> list[str]:
    out = []
    steps = np.diff(np.asarray(loglik, dtype=float))
    if steps.size and not float(steps.min()) >= ASCENT_TOL:
        out.append(f"EM log-likelihood fell by {-float(steps.min()):.3e}")
    ratio = sigma_r2 / realized_noise_variance(truth.clean_frames, truth.noisy_frames)
    if not 1.0 / NOISE_FACTOR <= ratio <= NOISE_FACTOR:
        out.append(f"sigma_r2 is {ratio:.3f} times the realized noise variance")
    return out
