"""Filter/smoother against dense textbook, batch-MAP, and joint-Gaussian oracles."""


import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mtunmix import kronops
from mtunmix.kalman import (
    Belief,
    ModelMatrices,
    predict,
    rts_smooth,
    run_filter,
    smoothed_covariances,
    update,
)
from mtunmix.kronops import band_blocks, dense_form, symmetrize
from oracles import dense_B, full_rts_smooth, marginal_loglik


def random_spd(rng, n, scale=1.0):
    X = rng.standard_normal((n, n))
    return scale * (X @ X.T + n * np.eye(n))


def random_model(rng, L, N, P, q_scale=1.0, sigma_r2=None):
    A = rng.standard_normal((P, N))
    m0 = rng.uniform(0.2, 1.0, size=L * P)
    Q = random_spd(rng, P * L, scale=q_scale / (P * L))
    s2 = float(rng.uniform(0.05, 1.0)) if sigma_r2 is None else sigma_r2
    return ModelMatrices(A=A, m0=m0, Q=Q, sigma_r2=s2)


def dense_update_oracle(mean, cov, y, B, sigma_r2):
    """Textbook update with the innovation covariance S formed explicitly.

    S enters only through its Cholesky factor, and the posterior covariance
    takes the Joseph form (I - K B) P (I - K B).T + sigma_r2 K K.T, a sum of
    two PSD terms, not the cancellation P - K S K.T.
    """
    NL = B.shape[0]
    v = y - B @ mean
    S = B @ cov @ B.T + sigma_r2 * np.eye(NL)
    cS = scipy.linalg.cho_factor(S, lower=True)
    K = scipy.linalg.cho_solve(cS, B @ cov).T
    mean_post = mean + K @ v
    IKB = np.eye(mean.size) - K @ B
    cov_post = IKB @ cov @ IKB.T + sigma_r2 * (K @ K.T)
    logdet = 2.0 * np.sum(np.log(np.diag(cS[0])))
    ll = -0.5 * (NL * np.log(2 * np.pi) + logdet + v @ scipy.linalg.cho_solve(cS, v))
    return mean_post, cov_post, float(ll)


def batch_map_oracle(ys, model, init):
    """Joint normal-equations solve for all states x_0..x_T at once."""
    d = model.m0.size
    T = len(ys)
    B = dense_B(model)
    P0inv = np.linalg.inv(init.cov)
    Qinv = np.linalg.inv(model.Q)
    Rinv_scale = 1.0 / model.sigma_r2
    n = (T + 1) * d
    H = np.zeros((n, n))
    g = np.zeros(n)
    H[:d, :d] += P0inv
    g[:d] += P0inv @ init.mean
    for t in range(1, T + 1):
        i, j = t * d, (t - 1) * d
        H[i : i + d, i : i + d] += Qinv + Rinv_scale * (B.T @ B)
        H[j : j + d, j : j + d] += Qinv
        H[i : i + d, j : j + d] -= Qinv
        H[j : j + d, i : i + d] -= Qinv
        g[i : i + d] += Rinv_scale * (B.T @ ys[t - 1])
    x = np.linalg.solve(H, g)
    return [x[t * d : (t + 1) * d] for t in range(T + 1)]


def joint_gaussian_loglik_oracle(ys, model, init):
    """Log-density of the stacked observations under the exact joint Gaussian."""
    T = len(ys)
    B = dense_B(model)
    NL = model.obs_dim
    mean = np.concatenate([B @ init.mean] * T)
    cov = np.zeros((T * NL, T * NL))
    for t in range(T):
        for s in range(T):
            Pts = init.cov + min(t + 1, s + 1) * model.Q
            block = B @ Pts @ B.T
            if t == s:
                block = block + model.sigma_r2 * np.eye(NL)
            cov[t * NL : (t + 1) * NL, s * NL : (s + 1) * NL] = block
    resid = np.concatenate(ys) - mean
    sign, logdet = np.linalg.slogdet(cov)
    quad = resid @ np.linalg.solve(cov, resid)
    return float(-0.5 * (T * NL * np.log(2 * np.pi) + logdet + quad))


def min_eig_ratio(cov):
    return np.linalg.eigvalsh(cov)[0] / max(np.trace(cov), 1e-300)


class TestPredict:
    def test_zero_noise_keeps_belief(self):
        rng = np.random.default_rng(0)
        prior = Belief(mean=rng.standard_normal(4), cov=random_spd(rng, 4))
        pred = predict(prior, np.zeros((4, 4)))
        np.testing.assert_array_equal(pred.mean, prior.mean)
        np.testing.assert_allclose(pred.cov, prior.cov, rtol=1e-15)

    def test_identity_plus_identity(self):
        prior = Belief(mean=np.zeros(3), cov=np.eye(3))
        np.testing.assert_array_equal(predict(prior, np.eye(3)).cov, 2 * np.eye(3))

    def test_random_spd_sum(self):
        rng = np.random.default_rng(1)
        cov = random_spd(rng, 5)
        Q = random_spd(rng, 5)
        prior = Belief(mean=rng.standard_normal(5), cov=cov)
        np.testing.assert_allclose(predict(prior, Q).cov, cov + Q, rtol=1e-14)

    def test_adds_without_symmetrizing(self):
        # the symmetric inputs are the caller's job: ModelMatrices and run_filter
        rng = np.random.default_rng(16)
        cov = rng.standard_normal((4, 4))
        Q = rng.standard_normal((4, 4))
        pred = predict(Belief(mean=np.zeros(4), cov=cov), Q)
        assert np.array_equal(pred.cov, cov + Q)

    def test_filter_symmetrizes_q_and_initial_covariance_once(self):
        rng = np.random.default_rng(17)
        L, N, P, T = 3, 2, 2, 3
        d = P * L
        model = random_model(rng, L, N, P)
        skew = 1e-6 * rng.standard_normal((d, d))
        lopsided = ModelMatrices(A=model.A, m0=model.m0, Q=model.Q + skew, sigma_r2=model.sigma_r2)
        assert np.array_equal(lopsided.Q, symmetrize(model.Q + skew))
        cov0 = random_spd(rng, d)
        init = Belief(mean=np.ones(d), cov=cov0 + skew)
        ys = [rng.standard_normal(N * L) for _ in range(T)]
        traj = run_filter(ys, lopsided, init)
        assert np.array_equal(traj.beliefs[0].cov, symmetrize(cov0 + skew))
        smoothed = [S for _, S, _ in smoothed_covariances(traj, lopsided.Q)]
        covs = [b.cov for b in traj.beliefs[1:]] + smoothed
        for cov in covs:
            assert np.array_equal(cov, cov.T)


class TestUpdate:
    def test_zero_observation_matrix(self):
        rng = np.random.default_rng(2)
        L, N, P = 3, 2, 2
        model = ModelMatrices(
            A=np.zeros((P, N)), m0=rng.uniform(0.2, 1, L * P), Q=np.eye(P * L), sigma_r2=0.5
        )
        pred = Belief(mean=rng.standard_normal(P * L), cov=random_spd(rng, P * L))
        y = rng.standard_normal(N * L)
        post, _, _ = update(pred, y, model)
        np.testing.assert_allclose(post.mean, pred.mean, rtol=1e-12)
        np.testing.assert_allclose(post.cov, pred.cov, rtol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        L, N, P = 4, 3, 2
        for _ in range(25):
            model = random_model(rng, L, N, P)
            pred = Belief(mean=rng.standard_normal(P * L), cov=random_spd(rng, P * L))
            y = rng.standard_normal(N * L)
            post, ll, _ = update(pred, y, model)
            mean_o, cov_o, ll_o = dense_update_oracle(
                pred.mean, pred.cov, y, dense_B(model), model.sigma_r2
            )
            np.testing.assert_allclose(post.mean, mean_o, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(post.cov, cov_o, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(ll, ll_o, rtol=1e-8)

    def test_huge_noise_keeps_prior(self):
        rng = np.random.default_rng(4)
        L, N, P = 4, 3, 2
        model = random_model(rng, L, N, P, sigma_r2=1e12)
        pred = Belief(mean=rng.standard_normal(P * L), cov=random_spd(rng, P * L))
        y = rng.standard_normal(N * L)
        post, _, _ = update(pred, y, model)
        np.testing.assert_allclose(post.mean, pred.mean, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(post.cov, pred.cov, rtol=1e-6)

    def test_posterior_cov_psd(self):
        rng = np.random.default_rng(5)
        L, N, P = 3, 4, 2
        for _ in range(20):
            model = random_model(rng, L, N, P)
            pred = Belief(mean=rng.standard_normal(P * L), cov=random_spd(rng, P * L))
            post, _, _ = update(pred, rng.standard_normal(N * L), model)
            np.testing.assert_allclose(post.cov, post.cov.T, rtol=0, atol=1e-14)
            assert min_eig_ratio(post.cov) >= -1e-9

    def test_singular_prediction_goes_straight_to_square_root_path(self, monkeypatch):
        # a zero 3x3 block: the plain Cholesky fails and no jittered factor is
        # tried; the one factorization after it is the square-root path's
        rng = np.random.default_rng(18)
        L, N, P = 3, 2, 2
        model = random_model(rng, L, N, P)
        cov = np.zeros((6, 6))
        cov[:3, :3] = random_spd(rng, 3)
        pred = Belief(mean=rng.standard_normal(6), cov=cov)
        y = rng.standard_normal(N * L)
        outcomes = []

        def recording(real, failed):
            # the factorization of either route: LAPACK's info, or NumPy's error
            def call(a):
                try:
                    out = real(a)
                except np.linalg.LinAlgError:
                    outcomes.append("fail")
                    raise
                outcomes.append("fail" if failed(out) else "ok")
                return out

            return call

        monkeypatch.setattr(kronops, "dpotrf", recording(kronops.dpotrf, lambda info: info > 0))
        monkeypatch.setattr(np.linalg, "cholesky", recording(np.linalg.cholesky, lambda c: False))
        post, ll, _ = update(pred, y, model)
        assert outcomes == ["fail", "ok"]
        mean_o, cov_o, ll_o = dense_update_oracle(
            pred.mean, cov, y, dense_B(model), model.sigma_r2
        )
        np.testing.assert_allclose(post.mean, mean_o, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(post.cov, cov_o, rtol=0, atol=1e-10)
        np.testing.assert_allclose(ll, ll_o, rtol=1e-8)

    def test_singular_predicted_covariance(self):
        # exactly known state: posterior stays put, gain is zero
        rng = np.random.default_rng(6)
        L, N, P = 3, 2, 2
        model = random_model(rng, L, N, P)
        pred = Belief(mean=rng.standard_normal(P * L), cov=np.zeros((P * L, P * L)))
        y = rng.standard_normal(N * L)
        post, ll, _ = update(pred, y, model)
        v = y - model.apply_B(pred.mean)
        np.testing.assert_allclose(post.mean, pred.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, np.zeros((P * L, P * L)), atol=1e-12)
        # loglik equals the density of the innovation under N(0, sigma_r2 I)
        NL = N * L
        expected = -0.5 * (
            NL * np.log(2 * np.pi) + NL * np.log(model.sigma_r2) + v @ v / model.sigma_r2
        )
        np.testing.assert_allclose(ll, expected, rtol=1e-10)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 4),
    N=st.integers(1, 4),
    P=st.integers(1, 3),
    log_scale=st.floats(-3.0, 3.0),
    data=st.data(),
)
def test_update_matches_dense_update_for_low_rank_prediction(seed, L, N, P, log_scale, data):
    # P_pred = X X.T of any rank 0..PL: singular and nearly singular
    # predicted covariances take the square-root path
    d = P * L
    rank = data.draw(st.integers(0, d), label="rank")
    rng = np.random.default_rng(seed)
    model = random_model(rng, L, N, P)
    X = 10.0**log_scale * rng.standard_normal((d, rank))
    cov = X @ X.T
    pred = Belief(mean=rng.standard_normal(d), cov=cov)
    y = rng.standard_normal(N * L)
    post, ll, precision = update(pred, y, model)
    mean_o, cov_o, ll_o = dense_update_oracle(pred.mean, cov, y, dense_B(model), model.sigma_r2)
    scale = max(np.abs(cov).max(), 1e-300)
    np.testing.assert_allclose(post.mean, mean_o, rtol=1e-7, atol=1e-7 * np.abs(mean_o).max())
    np.testing.assert_allclose(post.cov, cov_o, rtol=0, atol=1e-7 * scale)
    np.testing.assert_allclose(ll, ll_o, rtol=1e-8)
    np.testing.assert_allclose(cov @ precision @ cov, cov, rtol=0, atol=1e-7 * scale)


class TestSmoother:
    def test_single_frame_smoothed_equals_filtered(self):
        rng = np.random.default_rng(7)
        L, N, P = 3, 2, 2
        model = random_model(rng, L, N, P)
        init = Belief(mean=np.ones(P * L), cov=np.eye(P * L))
        traj = run_filter([rng.standard_normal(N * L)], model, init)
        assert rts_smooth(traj)[1] is traj.beliefs[1].mean
        ((S_1, _, _),) = smoothed_covariances(traj, model.Q)
        assert S_1 is traj.beliefs[1].cov

    def test_last_smoothed_is_last_filtered_exactly(self):
        rng = np.random.default_rng(8)
        L, N, P, T = 3, 2, 2, 5
        model = random_model(rng, L, N, P)
        init = Belief(mean=np.ones(P * L), cov=np.eye(P * L))
        ys = [rng.standard_normal(N * L) for _ in range(T)]
        traj = run_filter(ys, model, init)
        np.testing.assert_array_equal(rts_smooth(traj)[-1], traj.beliefs[-1].mean)
        S_T, _, _ = next(smoothed_covariances(traj, model.Q))
        np.testing.assert_array_equal(S_T, traj.beliefs[-1].cov)

    def test_huge_process_noise_decouples_frames(self):
        # well-conditioned observation so the filtered covariance stays O(1)
        # and the smoother gain vanishes against Q = 1e6 I
        rng = np.random.default_rng(9)
        L, N, P, T = 3, 2, 2, 4
        A = np.eye(P) + 0.1 * rng.standard_normal((P, N))
        m0 = rng.uniform(0.5, 1, L * P)
        model = ModelMatrices(A=A, m0=m0, Q=1e6 * np.eye(P * L), sigma_r2=0.5)
        init = Belief(mean=np.ones(P * L), cov=np.eye(P * L))
        ys = [rng.standard_normal(N * L) for _ in range(T)]
        traj = run_filter(ys, model, init)
        for psi, filt in zip(rts_smooth(traj)[1:], traj.beliefs[1:]):
            np.testing.assert_allclose(psi, filt.mean, rtol=1e-4, atol=1e-4)

    def test_exactly_known_state_stays_put(self):
        # P00 = 0 and Q = 0: every predicted covariance is zero, so the
        # smoother must keep the initial mean with zero covariance
        rng = np.random.default_rng(14)
        L, N, P, T = 3, 2, 2, 4
        d = P * L
        model = random_model(rng, L, N, P)
        model = ModelMatrices(A=model.A, m0=model.m0, Q=np.zeros((d, d)), sigma_r2=0.3)
        init = Belief(mean=rng.standard_normal(d), cov=np.zeros((d, d)))
        ys = [rng.standard_normal(N * L) for _ in range(T)]
        traj = run_filter(ys, model, init)
        for psi in rts_smooth(traj):
            np.testing.assert_allclose(psi, init.mean, rtol=0, atol=1e-12)
        for step in smoothed_covariances(traj, model.Q):
            for M in step:
                np.testing.assert_allclose(M, np.zeros((d, d)), rtol=0, atol=1e-12)

    def test_smoother_factors_nothing(self, monkeypatch):
        # the gains come from the inverses the filter's updates stored
        rng = np.random.default_rng(15)
        L, N, P, T = 3, 2, 2, 4
        model = random_model(rng, L, N, P)
        init = Belief(mean=np.ones(P * L), cov=np.eye(P * L))
        traj = run_filter([rng.standard_normal(N * L) for _ in range(T)], model, init)

        def forbidden(*args):
            raise AssertionError("the smoother factored a matrix")

        for name in ("dpotrf", "dpotrs", "dtrtri", "dlauum"):
            monkeypatch.setattr(kronops, name, forbidden)
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        rts_smooth(traj)
        assert len(list(smoothed_covariances(traj, model.Q))) == T

    def test_spent_trajectory_takes_no_second_pass(self):
        # the covariance pass overwrites the filtered covariances and
        # precisions, so neither pass may read the trajectory after it starts
        rng = np.random.default_rng(22)
        L, N, P, T = 3, 2, 2, 4
        model = random_model(rng, L, N, P)
        init = Belief(mean=np.ones(P * L), cov=np.eye(P * L))
        traj = run_filter([rng.standard_normal(N * L) for _ in range(T)], model, init)
        rts_smooth(traj)
        assert not traj.spent
        steps = smoothed_covariances(traj, model.Q)
        assert traj.spent
        next(steps)
        for _ in range(2):
            with pytest.raises(ValueError, match="spent"):
                smoothed_covariances(traj, model.Q)
            with pytest.raises(ValueError, match="spent"):
                rts_smooth(traj)
            list(steps)  # and once the pass has ended

    def test_smoothed_means_equal_batch_map(self):
        rng = np.random.default_rng(10)
        L, N, P, T = 3, 2, 2, 6
        for _ in range(10):
            model = random_model(rng, L, N, P)
            init = Belief(mean=rng.standard_normal(P * L), cov=random_spd(rng, P * L))
            ys = [rng.standard_normal(N * L) for _ in range(T)]
            means = rts_smooth(run_filter(ys, model, init))
            states = batch_map_oracle(ys, model, init)
            for t in range(T + 1):
                np.testing.assert_allclose(means[t], states[t], rtol=1e-6, atol=1e-9)

    def test_smoothed_covs_valid(self):
        rng = np.random.default_rng(11)
        L, N, P, T = 3, 2, 2, 5
        model = random_model(rng, L, N, P)
        init = Belief(mean=np.ones(P * L), cov=np.eye(P * L))
        ys = [rng.standard_normal(N * L) for _ in range(T)]
        traj = run_filter(ys, model, init)
        for _, S, _ in smoothed_covariances(traj, model.Q):
            np.testing.assert_allclose(S, S.T, rtol=0, atol=1e-12)
            assert min_eig_ratio(S) >= -1e-9

    def test_streamed_recursion_equals_stored_smoother(self):
        # the same recursion as the smoother that keeps every belief and gain
        rng = np.random.default_rng(19)
        L, N, P, T = 3, 2, 2, 5
        model = random_model(rng, L, N, P)
        init = Belief(mean=rng.standard_normal(P * L), cov=random_spd(rng, P * L))
        ys = [rng.standard_normal(N * L) for _ in range(T)]
        traj = run_filter(ys, model, init)
        beliefs, gains = full_rts_smooth(traj, model.Q)
        means = rts_smooth(traj)
        for t, b in enumerate(beliefs):
            np.testing.assert_allclose(means[t], b.mean, rtol=0, atol=1e-13 * np.abs(b.mean).max())
        steps = smoothed_covariances(traj, model.Q)
        for t, (S_next, S, V) in zip(range(T - 1, -1, -1), steps):
            np.testing.assert_array_equal(S_next, beliefs[t + 1].cov)
            np.testing.assert_array_equal(S, beliefs[t].cov)
            X = beliefs[t + 1].cov @ gains[t].T
            increment = beliefs[t + 1].cov + beliefs[t].cov - X - X.T
            np.testing.assert_array_equal(V, V.T)
            np.testing.assert_allclose(V, increment, rtol=0, atol=1e-13 * np.abs(increment).max())


class TestMarginalLoglik:
    def test_perfect_fit_unit_noise_closed_form(self):
        # one frame, B = I (N L == P L), zero prior covariance and process
        # noise, prior mean equal to the observation: only the 2*pi term stays
        L, N, P = 3, 2, 2
        PL = P * L
        A = np.vstack([np.eye(N), np.zeros((P - N, N))]) if P > N else np.eye(P)[:, :N]
        # build an exact identity observation via A = I and m0 = 1
        A = np.eye(P)
        m0 = np.ones(P * L)
        model = ModelMatrices(A=A, m0=m0, Q=np.zeros((PL, PL)), sigma_r2=1.0)
        y = np.arange(1.0, PL + 1.0)
        init = Belief(mean=y.copy(), cov=np.zeros((PL, PL)))
        ll = marginal_loglik([y], model, init)
        np.testing.assert_allclose(ll, -0.5 * PL * np.log(2 * np.pi), rtol=1e-12)

    def test_matches_joint_gaussian_oracle(self):
        rng = np.random.default_rng(12)
        L, N, P, T = 3, 2, 2, 4
        for _ in range(10):
            model = random_model(rng, L, N, P)
            init = Belief(mean=rng.standard_normal(P * L), cov=random_spd(rng, P * L))
            ys = [rng.standard_normal(N * L) for _ in range(T)]
            ll = marginal_loglik(ys, model, init)
            oracle = joint_gaussian_loglik_oracle(ys, model, init)
            np.testing.assert_allclose(ll, oracle, rtol=1e-8)

    def test_noise_scan_monotonicity(self):
        # scalar-ish instance: far-off data favors larger noise, perfect fit
        # favors smaller noise
        L, N, P = 1, 2, 2
        A = np.eye(2)
        m0 = np.ones(2)
        init = Belief(mean=np.zeros(2), cov=np.zeros((2, 2)))

        def ll(y, s2):
            model = ModelMatrices(A=A, m0=m0, Q=np.zeros((2, 2)), sigma_r2=s2)
            return marginal_loglik([y], model, init)

        bad_fit = np.array([5.0, -4.0])
        good_fit = np.zeros(2)
        s2_grid = [0.5, 1.0, 2.0, 4.0]
        bad = [ll(bad_fit, s2) for s2 in s2_grid]
        good = [ll(good_fit, s2) for s2 in s2_grid]
        assert all(b2 > b1 for b1, b2 in zip(bad, bad[1:]))
        assert all(g2 < g1 for g1, g2 in zip(good, good[1:]))


class TestModelMatrices:
    def test_dense_b_matches_structure(self):
        rng = np.random.default_rng(13)
        L, N, P = 4, 3, 2
        model = random_model(rng, L, N, P)
        B = np.kron(model.A.T, np.eye(L)) @ np.diag(model.m0)
        np.testing.assert_allclose(dense_B(model), B, rtol=1e-14)
        np.testing.assert_allclose(model.btb, B.T @ B, rtol=1e-12)
        psi = rng.standard_normal(P * L)
        v = rng.standard_normal(N * L)
        np.testing.assert_allclose(model.apply_B(psi), B @ psi, rtol=1e-12)
        np.testing.assert_allclose(model.apply_Bt(v), B.T @ v, rtol=1e-12)


class TestBandLayout:
    def test_gram_blocks_scatter_to_the_dense_gram(self):
        rng = np.random.default_rng(20)
        L, N, P = 5, 3, 3
        model = random_model(rng, L, N, P)
        banded = ModelMatrices(
            A=model.A, m0=model.m0, Q=band_blocks(model.Q, L), sigma_r2=model.sigma_r2
        )
        assert banded.btb.shape == (L, P, P)
        assert np.array_equal(dense_form(banded.btb), model.btb)
        B = dense_B(model)
        np.testing.assert_allclose(model.btb, B.T @ B, rtol=0, atol=1e-14 * np.abs(B).max() ** 2)

    def test_stack_shapes_checked(self):
        L, P = 4, 2
        for shape in [(L, P, P + 1), (L + 1, P, P), (L * P, P, P)]:
            with pytest.raises(ValueError, match="cov shape"):
                Belief(mean=np.zeros(L * P), cov=np.zeros(shape))
        with pytest.raises(ValueError, match="Q shape"):
            ModelMatrices(A=np.ones((P, 3)), m0=np.ones(L * P), Q=np.zeros((P, L, L)), sigma_r2=1.0)
        model = ModelMatrices(
            A=np.ones((P, 3)), m0=np.ones(L * P), Q=np.zeros((L, P, P)), sigma_r2=1.0
        )
        init = Belief(mean=np.zeros(L * P), cov=np.eye(L * P))
        with pytest.raises(ValueError, match="initial covariance shape"):
            run_filter([np.zeros(3 * L)], model, init)

    def test_square_root_path_on_a_stack_matches_dense(self):
        # one singular block fails the stack's factor, so every block takes
        # the square-root path, as the dense matrix does
        rng = np.random.default_rng(21)
        L, N, P = 4, 3, 2
        model = random_model(rng, L, N, P)
        X = rng.standard_normal((L, P, P))
        cov = X @ X.mT
        cov[1] = 0.0
        y = rng.standard_normal(N * L)
        mean = rng.standard_normal(P * L)
        dense = update(Belief(mean=mean, cov=dense_form(cov)), y, model)
        Q = band_blocks(model.Q, L)
        banded = ModelMatrices(A=model.A, m0=model.m0, Q=Q, sigma_r2=model.sigma_r2)
        stack = update(Belief(mean=mean, cov=cov), y, banded)
        np.testing.assert_allclose(stack[0].mean, dense[0].mean, rtol=1e-12)
        np.testing.assert_allclose(dense_form(stack[0].cov), dense[0].cov, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stack[1], dense[1], rtol=1e-12)
        np.testing.assert_allclose(dense_form(stack[2]), dense[2], rtol=0, atol=1e-10)
