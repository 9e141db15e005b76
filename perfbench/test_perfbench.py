"""Tests of the benchmark's own oracle, scores and self-time arithmetic."""

import numpy as np
import pytest

from perfbench import checks, tracing


def problem_with_solution(rng, L, P, support, lam=0.0):
    """Random design M and target y whose simplex minimizer is known.

    The target is M a* plus a residual in the range of M chosen so that the
    gradient M.T (M a* - y) is zero on the support of a* and positive off it:
    the KKT conditions hold with multiplier 0, and M has full column rank,
    so a* is the unique minimizer.
    """
    M = rng.uniform(0.05, 1.0, size=(L, P))
    a = np.zeros(P)
    a[support] = rng.dirichlet(np.ones(len(support)))
    g = np.zeros(P)
    off = [p for p in range(P) if p not in support]
    g[off] = rng.uniform(0.1, 1.0, size=len(off))
    r = -M @ np.linalg.solve(M.T @ M, g)
    return M, M @ a + r, a


@pytest.mark.parametrize("P", [3, 6])
@pytest.mark.parametrize("kind", ["vertex", "edge", "interior"])
def test_oracle_finds_known_minimizer(P, kind):
    rng = np.random.default_rng(7 * P + len(kind))
    size = {"vertex": 1, "edge": 2, "interior": P}[kind]
    cols = []
    truth = []
    for _ in range(20):
        support = sorted(rng.choice(P, size=size, replace=False).tolist())
        M, y, a = problem_with_solution(rng, 12, P, support)
        found = checks.simplex_ls_oracle(M, y[:, None])[:, 0]
        cols.append(found)
        truth.append(a)
    assert np.max(np.abs(np.array(cols) - np.array(truth))) <= 1e-10


def test_oracle_is_never_beaten_by_a_feasible_point():
    rng = np.random.default_rng(3)
    M = rng.uniform(0.05, 1.0, size=(10, 4))
    Y = rng.uniform(0.0, 1.0, size=(10, 30))
    A_ref = rng.dirichlet(np.ones(4), size=30).T
    lam = 0.3
    best = checks.simplex_ls_oracle(M, Y, lam, A_ref)

    def objective(A):
        return np.sum((Y - M @ A) ** 2, axis=0) + lam * np.sum((A - A_ref) ** 2, axis=0)

    assert np.allclose(best.sum(axis=0), 1.0) and best.min() >= 0.0
    for _ in range(200):
        trial = rng.dirichlet(np.ones(4), size=30).T
        assert np.all(objective(best) <= objective(trial) + 1e-12)


def test_fcls_check_counts_columns_off_the_oracle():
    rng = np.random.default_rng(11)
    M, y, a = problem_with_solution(rng, 12, 3, [0, 2])
    Y = np.column_stack([y, y])
    A = np.column_stack([a, a])
    assert checks.fcls_check(A, M, Y)[:2] == ([], 0)
    A[:, 1] = [0.0, 0.0, 1.0]
    problems, misses, gap = checks.fcls_check(A, M, Y)
    assert problems == [] and misses == 1 and gap > 1e-3
    A[:, 1] = [0.5, 0.6, 0.0]
    assert checks.fcls_check(A, M, Y)[0]


def test_oracle_problems_fail_any_column_off_the_oracle():
    rng = np.random.default_rng(13)
    M, y, a = problem_with_solution(rng, 12, 3, [1])
    Y = np.column_stack([y, y, y])
    A = np.column_stack([a, a, a])
    assert checks.oracle_problems(A, M, Y) == []
    A[:, 2] = [0.01, 0.99, 0.0]
    assert len(checks.oracle_problems(A, M, Y)) == 1


def test_scores_match_mtunmix_metrics_under_a_permutation():
    rng = np.random.default_rng(5)
    truth = type("Truth", (), {})()
    truth.endmembers = [rng.uniform(0.1, 1.0, size=(20, 4)) for _ in range(3)]
    truth.abundances = [rng.dirichlet(np.ones(4), size=9).T for _ in range(3)]
    perm = [2, 0, 3, 1]
    est_m = [M[:, perm] + 0.01 * rng.standard_normal(M.shape) for M in truth.endmembers]
    est_a = [A[perm, :] + 0.01 * rng.standard_normal(A.shape) for A in truth.abundances]
    own = checks.scores(truth, est_m, est_a)
    assert checks.best_alignment(truth.endmembers, est_m) == (1, 3, 0, 2)
    assert checks.compare_with_package(truth, est_m, est_a, own) == []


def test_spectral_angle_of_orthogonal_and_equal_columns():
    U = np.array([[1.0, 2.0], [0.0, 1.0]])
    V = np.array([[0.0, 4.0], [3.0, 2.0]])
    assert np.allclose(checks.spectral_angles(U, V), [np.pi / 2, 0.0], atol=1e-15)


def span(sid, parent, start, end, name="x.f"):
    return tracing.Span(sid, name, "op", parent, start, end)


def test_covered_merges_overlapping_intervals():
    assert tracing.covered([(1, 3), (2, 5), (7, 8), (7.5, 7.6)]) == pytest.approx(5.0)
    assert tracing.covered([]) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 3.0),
        span(2, 0, 2.0, 5.0),  # overlaps its sibling, as threads can
        span(3, 2, 2.5, 3.5),
        span(4, 0, 9.0, 12.0),  # sticks out of its parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_times_of_nested_calls_sum_to_the_root():
    tracer = tracing.Tracer(default_op="setup")

    def leaf():
        return sum(range(1000))

    def middle():
        return tracer.call("m.leaf", leaf, (), {}) + tracer.call("m.leaf", leaf, (), {})

    tracer.call("root.op", lambda: tracer.call("m.mid", middle, (), {}), (), {}, op="unmix")
    root = next(s for s in tracer.spans if s.name == "root.op")
    assert {s.op for s in tracer.spans} == {"unmix"}
    assert tracing.subtree_self_sum(tracer.spans, root.sid) == pytest.approx(
        root.end - root.start, abs=1e-12
    )


def test_install_wraps_and_restores_module_attributes():
    import mtunmix.em

    original = mtunmix.em.run_filter
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, tracing.LIBRARY_TARGETS)
    assert mtunmix.em.run_filter is not original
    assert mtunmix.em.run_filter.__wrapped__ is original
    inst.remove()
    assert mtunmix.em.run_filter is original
