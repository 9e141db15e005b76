"""EM statistics, surrogate, and M-steps against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtunmix import em
from mtunmix.em import (
    EmParams,
    SufficientStats,
    accumulate_stats,
    em_iterate,
    m_step_abundance,
    m_step_p00,
    m_step_psi00,
    m_step_q,
    m_step_sigma,
    q_function,
)
from mtunmix.kalman import (
    Belief,
    ModelMatrices,
    Trajectory,
    rts_smooth,
    run_filter,
    smoothed_covariances,
)
from mtunmix.kronops import band_blocks, dense_form, psd_floor, symmetrize
from mtunmix.pipeline import default_init
from oracles import (
    block_trace_cross,
    block_trace_gram,
    dense_B,
    full_rts_smooth,
    joint_posterior,
    literal_stats_oracle,
    marginal_loglik,
    nkp_decompose,
    obs_state_outer,
    q_function_trace_form,
)


def random_spd(rng, n, scale=1.0):
    X = rng.standard_normal((n, n))
    return scale * (X @ X.T + n * np.eye(n))


def random_instance(rng, L, N, P, T):
    A = rng.standard_normal((P, N))
    m0 = rng.uniform(0.2, 1.0, L * P)
    model = ModelMatrices(
        A=A, m0=m0, Q=random_spd(rng, P * L, 0.1 / (P * L)), sigma_r2=float(rng.uniform(0.1, 1))
    )
    init = Belief(mean=rng.standard_normal(P * L), cov=random_spd(rng, P * L, 1.0 / (P * L)))
    ys = [rng.standard_normal(N * L) for _ in range(T)]
    return model, init, ys


def filtered_instance(rng, L, N, P, T):
    model, init, ys = random_instance(rng, L, N, P, T)
    traj = run_filter(ys, model, init)
    return model, init, ys, traj


def q_transcription_oracle(theta, stats_dense, smoothed0, B, T, NL):
    """Term-by-term dense re-implementation of the surrogate."""
    d = smoothed0.mean - theta.psi00
    S0 = smoothed0.cov + np.outer(d, d)
    term0 = np.trace(np.linalg.solve(theta.P00, S0)) + np.linalg.slogdet(theta.P00)[1]
    D = stats_dense["D"]
    term_q = np.trace(np.linalg.solve(theta.Q, D)) + T * np.linalg.slogdet(theta.Q)[1]
    resid = (
        stats_dense["s5"]
        - 2.0 * np.trace(B @ stats_dense["S3"].T)
        + np.trace(B @ stats_dense["S1"] @ B.T)
    )
    term_r = resid / theta.sigma_r2 + T * NL * np.log(theta.sigma_r2)
    return -0.5 * (term0 + term_q + term_r)


def abundance_cost(stats, A):
    """The quadratic the abundance M-step minimizes."""
    Tb = stats.gram_block_trace
    U = stats.cross_block_trace
    return float(np.einsum("ij,ji->", A @ A.T, Tb)) - 2.0 * float(np.sum(A * U.T))


def gradient_descent_abundance_oracle(stats, A0, tol=1e-10, max_iter=200000):
    """Plain gradient descent on the abundance cost down to tiny gradient norm."""
    Tb = stats.gram_block_trace
    U = stats.cross_block_trace
    H = Tb + Tb.T
    step = 1.0 / np.linalg.norm(H, 2)
    A = A0.copy()
    for _ in range(max_iter):
        grad = H @ A - 2.0 * U.T
        if np.linalg.norm(grad) <= tol:
            break
        A = A - step * grad
    return A


def make_stats_from_scaled_moments(S1_tilde, S3_tilde, T, L, N, P, obs_energy=0.0):
    """Stats container with prescribed scaled moments (for fixed-point tests)."""
    return SufficientStats(
        T=T,
        L=L,
        N=N,
        increment_second_moment=np.zeros((P * L, P * L)),
        obs_energy=obs_energy,
        gram_block_trace=block_trace_gram(S1_tilde, L, P),
        cross_block_trace=block_trace_cross(S3_tilde, L),
    )


class TestAccumulateStats:
    def test_single_frame_trivial(self):
        PL = 4
        model = ModelMatrices(A=np.zeros((2, 2)), m0=np.ones(PL), Q=np.eye(PL), sigma_r2=1.0)
        traj_like = run_filter(
            [np.zeros(4)], model, Belief(mean=np.zeros(PL), cov=np.zeros((PL, PL)))
        )
        # zero observation matrix + zero init: smoothed state is 0 with cov Q,
        # the initial state stays exactly known, so D = Q and S1 = Q
        means = rts_smooth(traj_like)
        stats, smoothed0 = accumulate_stats(traj_like, means, [np.zeros(4)], model)
        np.testing.assert_allclose(stats.increment_second_moment, np.eye(PL), rtol=1e-12)
        np.testing.assert_allclose(stats.gram_block_trace, 2.0 * np.eye(2), rtol=1e-12)
        np.testing.assert_array_equal(smoothed0.cov, np.zeros((PL, PL)))
        np.testing.assert_allclose(stats.cross_block_trace, 0.0, atol=1e-15)
        assert stats.obs_energy == 0.0

    def test_matches_literal_sum_oracle(self):
        rng = np.random.default_rng(0)
        L, N, P, T = 3, 2, 2, 5
        for _ in range(10):
            model, init, ys, traj = filtered_instance(rng, L, N, P, T)
            oracle = literal_stats_oracle(traj, ys, model)
            stats, smoothed0 = accumulate_stats(traj, rts_smooth(traj), ys, model)
            D = oracle["D"]
            np.testing.assert_allclose(
                stats.increment_second_moment, D, rtol=0, atol=1e-12 * np.abs(D).max()
            )
            ref0 = oracle["smoothed0"]
            np.testing.assert_allclose(
                smoothed0.mean, ref0.mean, rtol=0, atol=1e-12 * np.abs(ref0.mean).max()
            )
            np.testing.assert_allclose(
                smoothed0.cov, ref0.cov, rtol=0, atol=1e-12 * np.abs(ref0.cov).max()
            )
            np.testing.assert_allclose(stats.obs_energy, oracle["s5"], rtol=1e-12)
            np.testing.assert_allclose(stats.gram_block_trace, oracle["Tb"], rtol=1e-10)
            np.testing.assert_allclose(stats.cross_block_trace, oracle["U"], rtol=1e-10)

    def test_zero_observations(self):
        rng = np.random.default_rng(1)
        L, N, P, T = 3, 2, 2, 4
        model, init, _ = random_instance(rng, L, N, P, T)
        ys = [np.zeros(N * L) for _ in range(T)]
        traj = run_filter(ys, model, init)
        stats, _ = accumulate_stats(traj, rts_smooth(traj), ys, model)
        assert stats.obs_energy == 0.0
        np.testing.assert_array_equal(stats.cross_block_trace, np.zeros((N, P)))


#: Largest error of the streamed S_t, X_t and D against the dense joint
#: posterior, relative to the largest entry of that posterior's covariance
#: (or of D, for D). The worst of the 302 cases below measured 6.2e-10.
JOINT_POSTERIOR_TOL = 2e-9


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 4),
    N=st.integers(1, 3),
    P=st.integers(1, 3),
    T=st.integers(1, 5),
    log_scale=st.floats(-8.0, 2.0),
    rank0=st.integers(0, 12),
    rank_q=st.integers(0, 12),
)
@example(seed=0, L=3, N=2, P=2, T=4, log_scale=0.0, rank0=12, rank_q=12)
@example(seed=1, L=3, N=2, P=2, T=4, log_scale=0.0, rank0=0, rank_q=0)
def test_streamed_statistics_match_joint_posterior(seed, L, N, P, T, log_scale, rank0, rank_q):
    # P00 = scale X X.T and Q = scale Z Z.T of any rank 0..PL: full rank takes
    # update's Woodbury path, singular the square-root path. P00 and Q share
    # one scale; scales further apart than MAX_PRED_COND are where update's
    # pseudo-inverse cuts eigenvalues off, which this test does not measure.
    d = P * L
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    X0 = rng.standard_normal((d, min(rank0, d)))
    Z = rng.standard_normal((d, min(rank_q, d)))
    model = ModelMatrices(
        A=rng.standard_normal((P, N)),
        m0=rng.uniform(0.2, 1.0, d),
        Q=scale * (Z @ Z.T),
        sigma_r2=float(rng.uniform(0.05, 1.0)),
    )
    init = Belief(mean=rng.standard_normal(d), cov=scale * (X0 @ X0.T))
    ys = [rng.standard_normal(N * L) for _ in range(T)]
    traj = run_filter(ys, model, init)
    stats, smoothed0 = accumulate_stats(traj, rts_smooth(traj), ys, model)

    mean, cov = joint_posterior(ys, model, init)

    def block(s, t):
        return cov[s * d : (s + 1) * d, t * d : (t + 1) * d]

    tol = JOINT_POSTERIOR_TOL * max(np.abs(cov).max(), 1e-300)
    D = np.zeros((d, d))
    steps = smoothed_covariances(run_filter(ys, model, init), model.Q)  # traj is spent
    for t, (S_t, S_prev, V) in zip(range(T, 0, -1), steps):
        increment = block(t, t) + block(t - 1, t - 1) - block(t, t - 1) - block(t - 1, t)
        np.testing.assert_allclose(S_t, block(t, t), rtol=0, atol=tol)
        np.testing.assert_allclose(S_prev, block(t - 1, t - 1), rtol=0, atol=tol)
        np.testing.assert_allclose(V, increment, rtol=0, atol=tol)
        delta = mean[t * d : (t + 1) * d] - mean[(t - 1) * d : t * d]
        D += increment
        D += np.outer(delta, delta)
    np.testing.assert_allclose(smoothed0.cov, block(0, 0), rtol=0, atol=tol)
    np.testing.assert_allclose(
        stats.increment_second_moment,
        D,
        rtol=0,
        atol=JOINT_POSTERIOR_TOL * max(np.abs(cov).max(), np.abs(D).max(), 1e-300),
    )


def degenerate_instance(rng, L, N, P, T, known=False):
    """A random instance; ``known`` sets P00 = Q = 0 (an exactly known state)."""
    model, init, ys = random_instance(rng, L, N, P, T)
    if known:
        zero = np.zeros((P * L, P * L))
        model = ModelMatrices(A=model.A, m0=model.m0, Q=zero, sigma_r2=model.sigma_r2)
        init = Belief(mean=init.mean, cov=zero)
    return model, init, ys, run_filter(ys, model, init)


class TestStreamedStatsDegenerate:
    """The streamed statistics against the dense reference at edge shapes."""

    def assert_matches_dense(self, model, ys, traj):
        ref = literal_stats_oracle(traj, ys, model)
        stats, smoothed0 = accumulate_stats(traj, rts_smooth(traj), ys, model)

        def close(actual, expected):
            atol = 1e-12 * max(np.abs(expected).max(), 1e-300)
            np.testing.assert_allclose(actual, expected, rtol=0, atol=atol)

        close(stats.increment_second_moment, ref["D"])
        close(stats.gram_block_trace, ref["Tb"])
        close(stats.cross_block_trace, ref["U"])
        close(stats.obs_energy, ref["s5"])
        close(smoothed0.mean, ref["smoothed0"].mean)
        close(smoothed0.cov, ref["smoothed0"].cov)
        return stats, smoothed0

    def test_single_frame(self):
        # T = 1: only the initial backward step runs
        rng = np.random.default_rng(30)
        for _ in range(5):
            model, init, ys, traj = degenerate_instance(rng, L=3, N=2, P=2, T=1)
            assert len(list(smoothed_covariances(run_filter(ys, model, init), model.Q))) == 1
            self.assert_matches_dense(model, ys, traj)

    def test_one_material(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            model, _, ys, traj = degenerate_instance(rng, L=4, N=3, P=1, T=4)
            self.assert_matches_dense(model, ys, traj)

    def test_one_pixel(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            model, _, ys, traj = degenerate_instance(rng, L=4, N=1, P=3, T=4)
            self.assert_matches_dense(model, ys, traj)

    def test_exactly_known_state(self):
        # P00 = Q = 0: every update takes the square-root path, the smoothed
        # covariances and D vanish and the state stays at the initial mean
        rng = np.random.default_rng(33)
        L, N, P, T = 3, 2, 2, 4
        model, _, ys, traj = degenerate_instance(rng, L, N, P, T, known=True)
        stats, smoothed0 = self.assert_matches_dense(model, ys, traj)
        np.testing.assert_array_equal(stats.increment_second_moment, np.zeros((P * L, P * L)))
        np.testing.assert_array_equal(smoothed0.cov, np.zeros((P * L, P * L)))


def test_em_iterate_peak_memory():
    # One EM iteration keeps the filter's output until the statistics are
    # reduced: the 2T PL x PL matrices the trajectory owns (the filtered
    # covariances of frames 1..T and the predicted precisions; the initial
    # covariance is the given P00 itself). The covariance pass writes S_t and
    # V_{t+1} into those arrays, and D is the first V, so on top of them come
    # only the pass's G and Z buffers, Z ending as S_0, whatever T is; the
    # filter's last update holds as many (the predicted covariance, its
    # inverse, the inner matrix and its factor). 2T + 2.33 to 2T + 2.42
    # measured at T = 2, 3, 5, 8, the fraction being vectors and band arrays.
    # A pass that allocated each S_t, a D of its own, or a copy of P00 or Q
    # fails this bound.
    L, N, P, T = 60, 8, 3, 5
    rng = np.random.default_rng(34)
    model, init, ys = random_instance(rng, L, N, P, T)
    theta = EmParams(A=model.A, P00=init.cov, Q=model.Q, sigma_r2=model.sigma_r2, psi00=init.mean)
    em_iterate(ys, model.m0, theta)  # imports and first-call caches outside the count
    matrix_bytes = 8 * (P * L) ** 2
    tracemalloc.start()
    try:
        em_iterate(ys, model.m0, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / matrix_bytes <= 2 * T + 3


class TestCallerArrays:
    """The covariance pass works in the trajectory's own arrays: the caller's
    P00, Q and initial covariance keep every bit, dense or as band stacks."""

    def instance(self, stacks, L=4, N=3, P=2, T=4):
        rng = np.random.default_rng(35)
        d = P * L
        if stacks:  # exactly symmetric, so the filter reads them in place
            P00 = symmetrize(random_band_stack(rng, L, P, 1.0 / P))
            Q = symmetrize(random_band_stack(rng, L, P, 0.1 / P))
        else:
            P00, Q = random_spd(rng, d, 1.0 / d), random_spd(rng, d, 0.1 / d)
        theta = EmParams(
            A=rng.standard_normal((P, N)), P00=P00, Q=Q,
            sigma_r2=float(rng.uniform(0.05, 1.0)), psi00=rng.standard_normal(d),
        )
        ys = [rng.standard_normal(N * L) for _ in range(T)]
        return ys, rng.uniform(0.2, 1.0, d), theta

    @pytest.mark.parametrize("stacks", [False, True])
    def test_filter_and_covariance_pass(self, stacks):
        ys, m0, theta = self.instance(stacks)
        before = theta.P00.tobytes(), theta.Q.tobytes()
        model = ModelMatrices(A=theta.A, m0=m0, Q=theta.Q, sigma_r2=theta.sigma_r2)
        traj = run_filter(ys, model, Belief(mean=theta.psi00, cov=theta.P00))
        assert traj.beliefs[0].cov is theta.P00 and model.Q is theta.Q
        accumulate_stats(traj, rts_smooth(traj), ys, model)
        assert (theta.P00.tobytes(), theta.Q.tobytes()) == before

    @pytest.mark.parametrize("stacks", [False, True])
    def test_em_iterate(self, stacks):
        ys, m0, theta = self.instance(stacks)
        before = theta.P00.tobytes(), theta.Q.tobytes()
        for _ in range(2):
            em_iterate(ys, m0, theta)
            assert (theta.P00.tobytes(), theta.Q.tobytes()) == before


class TestQFunction:
    def test_all_identity_degenerate_zero(self):
        PL, L, N, P, T = 4, 2, 3, 2, 3
        stats = SufficientStats(
            T=T,
            L=L,
            N=N,
            increment_second_moment=np.zeros((PL, PL)),
            obs_energy=0.0,
            gram_block_trace=np.zeros((P, P)),
            cross_block_trace=np.zeros((N, P)),
        )
        theta = EmParams(
            A=np.zeros((P, N)), P00=np.eye(PL), Q=np.eye(PL), sigma_r2=1.0, psi00=np.ones(PL)
        )
        smoothed0 = Belief(mean=np.ones(PL), cov=np.zeros((PL, PL)))
        assert q_function(theta, stats, smoothed0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_transcription_oracle(self):
        rng = np.random.default_rng(2)
        L, N, P, T = 3, 2, 2, 4
        for _ in range(10):
            model, init, ys, traj = filtered_instance(rng, L, N, P, T)
            dense = literal_stats_oracle(traj, ys, model)
            stats, smoothed0 = accumulate_stats(traj, rts_smooth(traj), ys, model)
            theta = EmParams(
                A=rng.standard_normal((P, N)),
                P00=random_spd(rng, P * L),
                Q=random_spd(rng, P * L),
                sigma_r2=float(rng.uniform(0.2, 2)),
                psi00=rng.standard_normal(P * L),
            )
            B = np.kron(theta.A.T, np.eye(L)) @ np.diag(model.m0)
            expected = q_transcription_oracle(theta, dense, dense["smoothed0"], B, T, N * L)
            np.testing.assert_allclose(q_function(theta, stats, smoothed0), expected, rtol=1e-10)

    def test_matches_trace_form_random_spd(self):
        rng = np.random.default_rng(21)
        L, N, P, T = 4, 3, 2, 4
        for _ in range(10):
            model, init, ys, traj = filtered_instance(rng, L, N, P, T)
            stats, smoothed0 = accumulate_stats(traj, rts_smooth(traj), ys, model)
            theta = EmParams(
                A=rng.standard_normal((P, N)),
                P00=random_spd(rng, P * L),
                Q=random_spd(rng, P * L, 0.01),
                sigma_r2=float(rng.uniform(0.2, 2)),
                psi00=rng.standard_normal(P * L),
            )
            np.testing.assert_allclose(
                q_function(theta, stats, smoothed0),
                q_function_trace_form(theta, stats, smoothed0),
                rtol=1e-12,
            )

    def test_matches_trace_form_after_m_step(self):
        # the parameters em_iterate evaluates the surrogate at: P00 and Q from
        # the M-steps on the same smoothed statistics
        rng = np.random.default_rng(22)
        L, N, P, T = 5, 4, 3, 3
        for _ in range(5):
            model, init, ys = random_instance(rng, L, N, P, T)
            theta = EmParams(
                A=model.A, P00=init.cov, Q=model.Q, sigma_r2=model.sigma_r2, psi00=init.mean
            )
            theta_new, _, means, q_new = em_iterate(ys, model.m0, theta)
            stats, smoothed0 = accumulate_stats(run_filter(ys, model, init), means, ys, model)
            np.testing.assert_allclose(
                q_new, q_function_trace_form(theta_new, stats, smoothed0), rtol=1e-12
            )

    def test_em_iterate_falls_back_where_the_floor_clips(self):
        # Q = 0: the state is constant, D is round-off of both signs and
        # psd_floor clips it, so the M-step identities do not hold; the
        # surrogate em_iterate returns is q_function's, bit for bit
        rng = np.random.default_rng(0)
        L, N, P, T = 3, 2, 2, 4
        model, init, ys = random_instance(rng, L, N, P, T)
        zero = np.zeros((P * L, P * L))
        known = ModelMatrices(A=model.A, m0=model.m0, Q=zero, sigma_r2=model.sigma_r2)
        theta = EmParams(A=model.A, P00=init.cov, Q=zero, sigma_r2=model.sigma_r2, psi00=init.mean)
        theta_new, _, means, q_new = em_iterate(ys, model.m0, theta)
        stats, smoothed0 = accumulate_stats(run_filter(ys, known, init), means, ys, known)
        assert np.linalg.eigvalsh(stats.increment_second_moment).min() < 0
        assert m_step_q(stats)[1] is None
        assert q_new == q_function(theta_new, stats, smoothed0)

    def test_band_stacks_read_as_their_dense_forms(self):
        rng = np.random.default_rng(23)
        L, N, P, T = 4, 3, 2, 3
        model, init, ys, traj = filtered_instance(rng, L, N, P, T)
        stats, smoothed0 = accumulate_stats(traj, rts_smooth(traj), ys, model)
        stacks = default_init(L, N, P, model.A)
        dense = EmParams(
            A=stacks.A, P00=dense_form(stacks.P00), Q=dense_form(stacks.Q),
            sigma_r2=stacks.sigma_r2, psi00=stacks.psi00,
        )
        assert q_function(stacks, stats, smoothed0) == q_function(dense, stats, smoothed0)

    def test_m_step_improves_surrogate(self):
        rng = np.random.default_rng(3)
        L, N, P, T = 3, 2, 2, 5
        for _ in range(10):
            model, init, ys = random_instance(rng, L, N, P, T)
            theta = EmParams(
                A=model.A, P00=init.cov, Q=model.Q, sigma_r2=model.sigma_r2, psi00=init.mean
            )
            traj = run_filter(ys, model, init)
            stats, smoothed0 = accumulate_stats(traj, rts_smooth(traj), ys, model)
            q_old = q_function(theta, stats, smoothed0)
            theta_new, _, _, q_new = em_iterate(ys, model.m0, theta)
            assert q_new >= q_old - 1e-9


class TestMStepClosedForms:
    def test_p00_no_shift(self):
        rng = np.random.default_rng(4)
        cov = random_spd(rng, 4)
        mean = rng.standard_normal(4)
        np.testing.assert_array_equal(m_step_p00(Belief(mean=mean, cov=cov), mean)[0], cov)

    def test_p00_pure_rank_one(self):
        e1 = np.zeros(3)
        e1[0] = 1.0
        out, factor = m_step_p00(Belief(mean=e1, cov=np.zeros((3, 3))), np.zeros(3))
        np.testing.assert_array_equal(out, np.outer(e1, e1))
        assert factor is None  # rank one: no plain Cholesky factor

    def test_p00_floored_like_q(self):
        # an S_0 + d d.T that rounding leaves indefinite is floored to the PSD
        # cone, by the same psd_floor as Q
        rng = np.random.default_rng(7)
        V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        cov = (V * np.array([-1e-12, 0.5, 1.0, 2.0])) @ V.T
        mean = rng.standard_normal(4)
        out, factor = m_step_p00(Belief(mean=mean, cov=cov), mean)
        floored, floored_factor = psd_floor(cov)
        assert np.array_equal(out, floored) and factor is floored_factor is None
        assert np.linalg.eigvalsh(out).min() >= -1e-15

    def test_p00_rank_one_update(self):
        rng = np.random.default_rng(5)
        cov = random_spd(rng, 4)
        mean = rng.standard_normal(4)
        old = rng.standard_normal(4)
        d = mean - old
        np.testing.assert_allclose(
            m_step_p00(Belief(mean=mean, cov=cov), old)[0], cov + np.outer(d, d), rtol=1e-12
        )

    def test_psi00_identity_assignment(self):
        rng = np.random.default_rng(6)
        mean = rng.standard_normal(5)
        out = m_step_psi00(Belief(mean=mean, cov=np.eye(5)))
        np.testing.assert_array_equal(out, mean)
        np.testing.assert_array_equal(m_step_psi00(Belief(mean=np.zeros(3), cov=np.eye(3))), np.zeros(3))

    def test_q_constant_states_zero(self):
        # P00 = Q = 0: the state is known exactly and constant, so the
        # increments have zero mean and zero covariance
        rng = np.random.default_rng(19)
        PL, T, L, N, P = 4, 3, 2, 2, 2
        psi = np.arange(1.0, PL + 1)
        model = ModelMatrices(
            A=rng.standard_normal((P, N)), m0=np.ones(PL), Q=np.zeros((PL, PL)), sigma_r2=0.5
        )
        ys = [rng.standard_normal(N * L) for _ in range(T)]
        traj = run_filter(ys, model, Belief(mean=psi, cov=np.zeros((PL, PL))))
        stats, _ = accumulate_stats(traj, rts_smooth(traj), ys, model)
        np.testing.assert_allclose(m_step_q(stats)[0], np.zeros((PL, PL)), atol=1e-12)

    def test_q_single_transition_reduces_to_one_term(self):
        rng = np.random.default_rng(20)
        L, N, P = 3, 2, 2
        model, init, ys, traj = filtered_instance(rng, L, N, P, T=1)
        (pr, sm), (G,) = full_rts_smooth(traj, model.Q)
        stats, _ = accumulate_stats(traj, rts_smooth(traj), ys, model)
        cross = sm.cov @ G.T + np.outer(sm.mean, pr.mean)
        expected = (
            sm.cov + np.outer(sm.mean, sm.mean)
            - cross - cross.T
            + pr.cov + np.outer(pr.mean, pr.mean)
        )
        np.testing.assert_allclose(m_step_q(stats)[0], expected, rtol=1e-10, atol=1e-12)

    def test_q_matches_joint_posterior_oracle(self):
        rng = np.random.default_rng(7)
        L, N, P, T = 3, 2, 2, 4
        for _ in range(5):
            model, init, ys, traj = filtered_instance(rng, L, N, P, T)
            stats, _ = accumulate_stats(traj, rts_smooth(traj), ys, model)
            mean, cov = joint_posterior(ys, model, init)
            d = model.m0.size
            expected = np.zeros((d, d))
            for t in range(1, T + 1):
                i, j = t * d, (t - 1) * d
                mu_d = mean[i : i + d] - mean[j : j + d]
                cov_d = (
                    cov[i : i + d, i : i + d]
                    + cov[j : j + d, j : j + d]
                    - cov[i : i + d, j : j + d]
                    - cov[j : j + d, i : i + d]
                )
                expected += cov_d + np.outer(mu_d, mu_d)
            np.testing.assert_allclose(m_step_q(stats)[0], expected / T, rtol=1e-8, atol=1e-10)

    def test_sigma_noiseless_exact_fit(self):
        # y_t = B psi_t exactly, smoothed states equal truth with zero covariance
        rng = np.random.default_rng(8)
        L, N, P, T = 3, 2, 2, 5
        A = rng.standard_normal((P, N))
        m0 = rng.uniform(0.2, 1, L * P)
        model = ModelMatrices(A=A, m0=m0, Q=np.eye(P * L), sigma_r2=1.0)
        psis = [rng.standard_normal(P * L) for _ in range(T + 1)]
        ys = [dense_B(model) @ psi for psi in psis[1:]]
        def zero():  # the covariance pass writes into the trajectory's own arrays
            return np.zeros((P * L, P * L))

        traj = Trajectory(
            beliefs=tuple(Belief(mean=p, cov=zero()) for p in psis),
            pred_precisions=tuple(zero() for _ in range(T)),
            loglik=0.0,
        )
        stats, _ = accumulate_stats(traj, psis, ys, model)
        assert m_step_sigma(stats, A) <= 1e-10

    def test_sigma_zero_everything(self):
        PL, L, N, P, T = 4, 2, 3, 2, 3
        stats = SufficientStats(
            T=T,
            L=L,
            N=N,
            increment_second_moment=np.zeros((PL, PL)),
            obs_energy=0.0,
            gram_block_trace=np.zeros((P, P)),
            cross_block_trace=np.zeros((N, P)),
        )
        assert m_step_sigma(stats, np.zeros((P, N))) == pytest.approx(0.0, abs=1e-12)

    def test_sigma_matches_dense_trace(self):
        rng = np.random.default_rng(9)
        L, N, P, T = 3, 2, 2, 4
        for _ in range(10):
            model, init, ys, traj = filtered_instance(rng, L, N, P, T)
            means = rts_smooth(traj)
            S1 = literal_stats_oracle(traj, ys, model)["S1"]
            stats, _ = accumulate_stats(traj, means, ys, model)
            A = rng.standard_normal((P, N))
            B = np.kron(A.T, np.eye(L)) @ np.diag(model.m0)
            S3 = obs_state_outer(means, ys)
            dense = (
                stats.obs_energy - 2 * np.trace(B @ S3.T) + np.trace(B @ S1 @ B.T)
            ) / (T * L * N)
            np.testing.assert_allclose(m_step_sigma(stats, A), dense, rtol=1e-10)


class TestAbundanceMStep:
    def test_constructed_fixed_point(self):
        # scaled moments I and kron(A0.T, I) make A0 the exact solution
        rng = np.random.default_rng(10)
        L, N, P, T = 4, 3, 2, 1
        A0 = rng.standard_normal((P, N))
        stats = make_stats_from_scaled_moments(
            np.eye(P * L), np.kron(A0.T, np.eye(L)), T, L, N, P
        )
        np.testing.assert_allclose(m_step_abundance(stats), A0, rtol=1e-10, atol=1e-12)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(11)
        L, N, P, T = 3, 3, 2, 5
        for _ in range(5):
            model, init, ys, traj = filtered_instance(rng, L, N, P, T)
            stats, _ = accumulate_stats(traj, rts_smooth(traj), ys, model)
            A_hat = m_step_abundance(stats)
            A_gd = gradient_descent_abundance_oracle(stats, np.zeros((P, N)))
            np.testing.assert_allclose(A_hat, A_gd, rtol=1e-6, atol=1e-9)

    def test_finite_difference_stationarity(self):
        rng = np.random.default_rng(12)
        L, N, P, T = 3, 2, 2, 4
        model, init, ys, traj = filtered_instance(rng, L, N, P, T)
        stats, _ = accumulate_stats(traj, rts_smooth(traj), ys, model)
        A_hat = m_step_abundance(stats)
        scale = np.linalg.norm(stats.gram_block_trace + stats.gram_block_trace.T, 2)
        h = 1e-6
        grad = np.zeros_like(A_hat)
        for i in range(P):
            for j in range(N):
                Ap, Am = A_hat.copy(), A_hat.copy()
                Ap[i, j] += h
                Am[i, j] -= h
                grad[i, j] = (abundance_cost(stats, Ap) - abundance_cost(stats, Am)) / (2 * h)
        assert np.linalg.norm(grad) <= 1e-6 * scale

    def test_blocktrace_route_equals_full_nkp_route(self):
        rng = np.random.default_rng(13)
        L, N, P, T = 3, 2, 2, 4
        model, init, ys, traj = filtered_instance(rng, L, N, P, T)
        means = rts_smooth(traj)
        D0 = np.diag(model.m0)
        S1t = D0 @ literal_stats_oracle(traj, ys, model)["S1"] @ D0
        stats, _ = accumulate_stats(traj, means, ys, model)
        S3t = obs_state_outer(means, ys) @ D0
        terms1 = nkp_decompose(S1t, L, L, K=min(P * P, L * L))
        terms3 = nkp_decompose(S3t, L, L, K=min(N * P, L * L))
        lhs = sum(np.trace(D) * (C + C.T) for C, D in zip(terms1.left_factors, terms1.right_factors))
        rhs = 2.0 * sum(
            np.trace(D.T) * C.T for C, D in zip(terms3.left_factors, terms3.right_factors)
        )
        A_nkp = np.linalg.solve(lhs, rhs)
        np.testing.assert_allclose(m_step_abundance(stats), A_nkp, rtol=1e-9, atol=1e-12)


class TestEmIterate:
    def test_loglik_ascent(self):
        rng = np.random.default_rng(14)
        L, N, P, T = 3, 2, 2, 5
        for _ in range(10):
            model, init, ys = random_instance(rng, L, N, P, T)
            theta = EmParams(
                A=model.A, P00=init.cov, Q=model.Q, sigma_r2=model.sigma_r2, psi00=init.mean
            )
            lls = []
            for _k in range(4):
                theta, loglik, _, _ = em_iterate(ys, model.m0, theta)
                lls.append(loglik)
            mm = ModelMatrices(A=theta.A, m0=model.m0, Q=theta.Q, sigma_r2=theta.sigma_r2)
            lls.append(marginal_loglik(ys, mm, Belief(mean=theta.psi00, cov=theta.P00)))
            for prev, cur in zip(lls, lls[1:]):
                assert cur >= prev - 1e-9

    def test_generative_self_consistency(self):
        # data drawn exactly from theta*: one iteration from truth stays close
        rng = np.random.default_rng(15)
        L, N, P, T = 3, 4, 2, 400
        A_true = rng.dirichlet(np.ones(P), size=N).T
        m0 = rng.uniform(0.3, 1.0, L * P)
        Q_true = 0.02 * np.eye(P * L)
        s2_true = 0.01
        psi = np.ones(P * L)
        model = ModelMatrices(A=A_true, m0=m0, Q=Q_true, sigma_r2=s2_true)
        ys = []
        for _ in range(T):
            psi = psi + rng.multivariate_normal(np.zeros(P * L), Q_true)
            ys.append(model.apply_B(psi) + np.sqrt(s2_true) * rng.standard_normal(N * L))
        theta = EmParams(
            A=A_true, P00=0.01 * np.eye(P * L), Q=Q_true, sigma_r2=s2_true, psi00=np.ones(P * L)
        )
        theta_new, _, _, _ = em_iterate(ys, m0, theta)
        assert np.linalg.norm(theta_new.Q - Q_true) <= 0.35 * np.linalg.norm(Q_true)
        assert abs(theta_new.sigma_r2 - s2_true) <= 0.25 * s2_true
        assert np.linalg.norm(theta_new.A - A_true) <= 0.1 * np.linalg.norm(A_true)

    def test_abundance_recovery_noiseless(self):
        # controlled inverse problem: noiseless data from a near-static scene
        # (tiny process noise, initial state pinned at ones). The state prior
        # then resolves the mixing ambiguity A -> G A that the data term alone
        # cannot see, and A-only EM iterations recover the generating A.
        rng = np.random.default_rng(16)
        L, N, P, T = 4, 6, 2, 20
        A_true = rng.dirichlet(np.ones(P), size=N).T
        m0 = rng.uniform(0.3, 1.0, L * P)
        q_var = 1e-6
        Q_true = q_var * np.eye(P * L)
        gen = ModelMatrices(A=A_true, m0=m0, Q=Q_true, sigma_r2=1.0)
        psi = np.ones(P * L)
        ys = []
        for _ in range(T):
            psi = psi + np.sqrt(q_var) * rng.standard_normal(P * L)
            ys.append(gen.apply_B(psi))
        D = rng.standard_normal((P, N))
        A = A_true + 0.10 * np.linalg.norm(A_true) / np.linalg.norm(D) * D
        for _ in range(5):
            mm = ModelMatrices(A=A, m0=m0, Q=Q_true, sigma_r2=1e-4)
            traj = run_filter(ys, mm, Belief(mean=np.ones(P * L), cov=1e-6 * np.eye(P * L)))
            stats, _ = accumulate_stats(traj, rts_smooth(traj), ys, mm)
            A = m_step_abundance(stats)
        nrmse_a = np.linalg.norm(A - A_true) / np.linalg.norm(A_true)
        assert nrmse_a <= 0.02

    def test_exactly_known_state_has_infinite_surrogate(self):
        # P00 = Q = 0: the state stays at the initial mean, the M-steps give
        # P00 = Q = 0 again, and the surrogate of that point mass is +inf
        rng = np.random.default_rng(33)
        L, N, P, T = 3, 2, 2, 4
        model, init, ys = random_instance(rng, L, N, P, T)
        zero = np.zeros((P * L, P * L))
        theta = EmParams(A=model.A, P00=zero, Q=zero, sigma_r2=model.sigma_r2, psi00=init.mean)
        for _ in range(2):
            theta, loglik, means, q_value = em_iterate(ys, model.m0, theta)
            assert q_value == math.inf
            assert np.isfinite(loglik)
            np.testing.assert_array_equal(theta.P00, zero)
            np.testing.assert_array_equal(theta.Q, zero)
            for mean in means:
                np.testing.assert_array_equal(mean, init.mean)

    def test_m_step_outputs_keep_invariants(self):
        rng = np.random.default_rng(17)
        L, N, P, T = 3, 2, 2, 5
        model, init, ys = random_instance(rng, L, N, P, T)
        theta = EmParams(
            A=model.A, P00=init.cov, Q=model.Q, sigma_r2=model.sigma_r2, psi00=init.mean
        )
        theta_new, _, _, _ = em_iterate(ys, model.m0, theta)
        assert theta_new.sigma_r2 > 0
        for M in (theta_new.P00, theta_new.Q):
            np.testing.assert_allclose(M, M.T, rtol=0, atol=1e-12)
            assert np.linalg.eigvalsh(M)[0] >= -1e-9 * max(np.trace(M), 1e-300)


#: Largest difference between a pass on band stacks and the dense pass on the
#: same matrices, relative to the largest entry of the dense result.
BAND_PASS_TOL = 1e-10


def random_band_stack(rng, L, P, scale):
    X = rng.standard_normal((L, P, P))
    return scale * (X @ X.mT + P * np.eye(P))


def e_step(ys, model, init):
    """One E-step pass: log-likelihood, smoothed means, copies of the band
    blocks of every backward step's (S_{t+1}, S_t, V_{t+1}), the statistics
    and S_0. The steps come from a second filter pass, as the statistics
    spend the first."""
    L = model.L
    traj = run_filter(ys, model, init)
    means = rts_smooth(traj)
    steps = [
        tuple(band_blocks(M, L).copy() for M in step)
        for step in smoothed_covariances(run_filter(ys, model, init), model.Q)
    ]
    stats, smoothed0 = accumulate_stats(traj, means, ys, model)
    return traj.loglik, means, steps, stats, smoothed0


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 6),
    N=st.integers(1, 4),
    P=st.integers(1, 4),
    T=st.integers(1, 5),
    default=st.booleans(),
)
@example(seed=0, L=5, N=3, P=1, T=3, default=True)
@example(seed=1, L=5, N=1, P=3, T=3, default=True)
@example(seed=2, L=1, N=2, P=3, T=2, default=False)
def test_band_stack_pass_matches_dense_pass(seed, L, N, P, T, default):
    # P00 and Q zero between bands: default_init's I and 0.1 I, or random
    # positive-definite blocks; the same pass on stacks and on dense arrays
    rng = np.random.default_rng(seed)
    d = P * L
    if default:
        theta = default_init(L, N, P, rng.dirichlet(np.ones(P), size=N).T)
        P00, Q = band_blocks(theta.P00, L), band_blocks(theta.Q, L)
        sigma_r2, psi00 = theta.sigma_r2, theta.psi00
    else:
        P00 = random_band_stack(rng, L, P, 1.0 / P)
        Q = random_band_stack(rng, L, P, 0.1 / P)
        sigma_r2, psi00 = float(rng.uniform(0.05, 1.0)), rng.standard_normal(d)
    A = rng.standard_normal((P, N))
    m0 = rng.uniform(0.2, 1.0, d)
    ys = [rng.standard_normal(N * L) for _ in range(T)]

    def run(P00, Q):
        model = ModelMatrices(A=A, m0=m0, Q=Q, sigma_r2=sigma_r2)
        return e_step(ys, model, Belief(mean=psi00, cov=P00))

    ll_s, means_s, steps_s, stats_s, s0_s = run(P00, Q)
    ll_d, means_d, steps_d, stats_d, s0_d = run(dense_form(P00), dense_form(Q))

    def close(actual, expected):
        atol = BAND_PASS_TOL * max(np.abs(expected).max(), 1e-300)
        np.testing.assert_allclose(actual, expected, rtol=0, atol=atol)

    assert stats_s.increment_second_moment.shape == s0_s.cov.shape == (d, d)
    close(ll_s, ll_d)
    for m_s, m_d in zip(means_s, means_d, strict=True):
        close(m_s, m_d)
    for step_s, step_d in zip(steps_s, steps_d, strict=True):
        for M_s, M_d in zip(step_s, step_d):
            close(M_s, M_d)
    close(stats_s.increment_second_moment, stats_d.increment_second_moment)
    close(s0_s.cov, s0_d.cov)
    close(s0_s.mean, s0_d.mean)
    close(stats_s.gram_block_trace, stats_d.gram_block_trace)
    close(stats_s.cross_block_trace, stats_d.cross_block_trace)


@pytest.mark.parametrize(
    "shape", [(1,), (8,), (8, 4), (4, 8), (9, 9), (4, 2, 3), (5, 2, 2), (8, 2, 2), (4, 2, 2, 1)]
)
def test_covariance_shapes_checked_alike(shape):
    # a state of L * P = 4 * 2 entries: Belief, ModelMatrices and EmParams
    # share one shape rule, and each refuses a covariance of any other shape
    L, P = 4, 2
    bad, A = np.zeros(shape), np.ones((P, 3))
    with pytest.raises(ValueError, match="cov shape"):
        Belief(mean=np.zeros(L * P), cov=bad)
    with pytest.raises(ValueError, match="Q shape"):
        ModelMatrices(A=A, m0=np.ones(L * P), Q=bad, sigma_r2=1.0)
    for name in ("P00", "Q"):
        covariances = {"P00": np.eye(L * P), "Q": np.eye(L * P), name: bad}
        with pytest.raises(ValueError, match=f"{name} shape"):
            EmParams(A=A, **covariances, sigma_r2=1.0, psi00=np.zeros(L * P))
    for good in (np.eye(L * P), np.zeros((L, P, P))):
        Belief(mean=np.zeros(L * P), cov=good)
        ModelMatrices(A=A, m0=np.ones(L * P), Q=good, sigma_r2=1.0)
        EmParams(A=A, P00=good, Q=good, sigma_r2=1.0, psi00=np.zeros(L * P))


class TestBandPass:
    """em_iterate's choice of layout and the iteration it returns."""

    def record_layouts(self, monkeypatch):
        real, shapes = em.run_filter, []

        def recording(ys, model, init):
            shapes.append(init.cov.shape)
            return real(ys, model, init)

        monkeypatch.setattr(em, "run_filter", recording)
        return shapes

    def instance(self, L=6, N=4, P=3, T=4, seed=50):
        rng = np.random.default_rng(seed)
        _, _, ys = random_instance(rng, L, N, P, T)
        theta = default_init(L, N, P, rng.dirichlet(np.ones(P), size=N).T)
        return ys, rng.uniform(0.2, 1.0, L * P), theta

    def test_default_init_runs_on_stacks_then_dense(self, monkeypatch):
        shapes = self.record_layouts(monkeypatch)
        ys, m0, theta = self.instance()
        for _ in range(3):
            theta, _, _, _ = em_iterate(ys, m0, theta)
        assert shapes == [(6, 3, 3), (18, 18), (18, 18)]
        assert theta.Q.shape == theta.P00.shape == (18, 18)

    def dense_twin(self, theta, **changes):
        fields = dict(theta.__dict__, P00=dense_form(theta.P00), Q=dense_form(theta.Q))
        return EmParams(**(fields | changes))

    def test_dense_pair_runs_dense_and_mixed_pair_refused(self, monkeypatch):
        # the layout is the one EmParams holds, even for dense matrices zero
        # between bands; a stack beside a dense matrix is refused
        shapes = self.record_layouts(monkeypatch)
        ys, m0, theta = self.instance()
        em_iterate(ys, m0, self.dense_twin(theta))
        assert shapes == [(18, 18)]
        for mixed in ({"P00": theta.P00}, {"Q": theta.Q}):
            with pytest.raises(ValueError, match="both dense or both band stacks"):
                self.dense_twin(theta, **mixed)

    def test_stack_iteration_matches_dense_iteration(self):
        ys, m0, theta = self.instance()
        on_stacks = em_iterate(ys, m0, theta)
        dense = em_iterate(ys, m0, self.dense_twin(theta))
        for a, b in zip(on_stacks[0].__dict__.values(), dense[0].__dict__.values()):
            np.testing.assert_allclose(a, b, rtol=0, atol=BAND_PASS_TOL * np.abs(b).max())
        np.testing.assert_allclose(on_stacks[1], dense[1], rtol=BAND_PASS_TOL)
        for a, b in zip(on_stacks[2], dense[2], strict=True):
            np.testing.assert_allclose(a, b, rtol=0, atol=BAND_PASS_TOL * np.abs(b).max())
        np.testing.assert_allclose(on_stacks[3], dense[3], rtol=BAND_PASS_TOL)
