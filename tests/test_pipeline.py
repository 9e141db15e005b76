"""End-to-end driver: recovery on controlled scenes, diagnostics, determinism."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtunmix.em import EmParams, check_finite
from mtunmix import em, pipeline
from mtunmix.errors import FactorizationError, NumericalAbortError
from mtunmix.fcls import fcls_refine_frame
from mtunmix.hseq import GlmmModel, HsiSequence, devectorize_frame
from mtunmix.kronops import dense_form
from mtunmix.metrics import nrmse
from mtunmix.pipeline import PipelineConfig, _em_iteration, default_init, run_kalman_em
from mtunmix.synth import SynthConfig, generate, synthetic_endmembers


def identity_scene(L=10, N=8, P=3, T=4, seed=0):
    cfg = SynthConfig(
        L=L, N=N, T=T, P=P, F_scale=1.0, q_var=0.0, snr_db=np.inf,
        abundance_jitter_std=0.0, rng_seed=seed,
    )
    M0 = synthetic_endmembers(L, P, seed=seed)
    seq, truth = generate(cfg, M0)
    return seq, truth, GlmmModel(M0=M0)


class TestDefaultInit:
    def test_benchmark_values(self):
        A0 = np.full((3, 50), 1.0 / 3.0)
        theta = default_init(173, 50, 3, A0)
        assert theta.psi00.shape == (519,)
        np.testing.assert_array_equal(theta.psi00, 1.0)
        np.testing.assert_array_equal(np.diag(dense_form(theta.Q)), 0.1)
        np.testing.assert_array_equal(dense_form(theta.P00), np.eye(519))
        assert theta.sigma_r2 == pytest.approx(1e-4)
        np.testing.assert_array_equal(theta.A, A0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="A0 shape"):
            default_init(10, 5, 3, np.ones((3, 4)))


class TestRunKalmanEm:
    def test_minimal_single_frame(self):
        seq, truth, model = identity_scene(T=1)
        config = PipelineConfig(
            init=default_init(seq.L, seq.N, model.P, truth.abundances[0]), K_max=1
        )
        result = run_kalman_em(seq, model, config)
        assert result.abundances.T == 1
        assert len(result.endmembers) == 1
        # reconstruction uses the smoothed state verbatim
        assert result.psis[0].shape == (seq.L, model.P)
        np.testing.assert_array_equal(result.endmembers[0], model.M0 * result.psis[0])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_identity_variability_recovery(self, seed):
        # noiseless static scene with psi == 1: endmembers and abundances
        # must come back almost exactly. The noise-variance init reflects the
        # noiseless data (a large init leaks state covariance into the
        # abundance normal equations and freezes a small bias there).
        seq, truth, model = identity_scene(L=12, N=10, P=3, T=4, seed=seed)
        d = model.P * seq.L
        init = EmParams(
            A=truth.abundances[0].copy(),
            P00=np.eye(d),
            Q=0.1 * np.eye(d),
            sigma_r2=1e-8,
            psi00=np.ones(d),
        )
        result = run_kalman_em(seq, model, PipelineConfig(init=init, K_max=5))
        for t in range(seq.T):
            rel = np.linalg.norm(result.endmembers[t] - model.M0) / np.linalg.norm(model.M0)
            assert rel <= 1e-3
        assert nrmse(truth.abundances, result.abundances.maps) <= 1e-3

    def test_all_ones_state_reconstructs_reference_exactly(self):
        model = GlmmModel(M0=synthetic_endmembers(7, 2, seed=2))
        psi = np.ones(14)
        recon = model.M0 * devectorize_frame(psi, 7, 2)
        np.testing.assert_array_equal(recon, model.M0)

    def test_loglik_nondecreasing_in_diagnostics(self):
        cfg = SynthConfig(L=10, N=8, T=5, P=2, rng_seed=3)
        M0 = synthetic_endmembers(10, 2, seed=3)
        seq, truth = generate(cfg, M0)
        model = GlmmModel(M0=M0)
        config = PipelineConfig(
            init=default_init(seq.L, seq.N, 2, truth.abundances[0]), K_max=5
        )
        result = run_kalman_em(seq, model, config)
        lls = result.diagnostics["loglik"]
        assert len(lls) == 6  # K_max iterations plus the final pass
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-9

    def test_output_abundances_always_feasible(self):
        cfg = SynthConfig(L=9, N=7, T=4, P=3, rng_seed=4)
        M0 = synthetic_endmembers(9, 3, seed=4)
        seq, truth = generate(cfg, M0)
        config = PipelineConfig(
            init=default_init(seq.L, seq.N, 3, truth.abundances[0]), K_max=3
        )
        result = run_kalman_em(seq, GlmmModel(M0=M0), config)
        for A in result.abundances.maps:
            assert np.max(np.abs(A.sum(axis=0) - 1.0)) <= 1e-9 and A.min() >= -1e-9

    def test_determinism_bit_identical(self):
        cfg = SynthConfig(L=8, N=6, T=3, P=2, rng_seed=5)
        M0 = synthetic_endmembers(8, 2, seed=5)
        seq, truth = generate(cfg, M0)
        config = PipelineConfig(init=default_init(seq.L, seq.N, 2, truth.abundances[0]))
        r1 = run_kalman_em(seq, GlmmModel(M0=M0), config)
        r2 = run_kalman_em(seq, GlmmModel(M0=M0), config)
        for a, b in zip(r1.abundances.maps, r2.abundances.maps):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(r1.endmembers, r2.endmembers):
            assert a.tobytes() == b.tobytes()
        assert r1.diagnostics == r2.diagnostics

    def test_clamp_counts_negative_states(self):
        cfg = SynthConfig(L=8, N=6, T=3, P=2, rng_seed=6, q_var=0.5, snr_db=10.0)
        M0 = synthetic_endmembers(8, 2, seed=6)
        seq, truth = generate(cfg, M0)
        config = PipelineConfig(
            init=default_init(seq.L, seq.N, 2, truth.abundances[0]),
            K_max=2,
            clamp_psi_nonneg=True,
        )
        result = run_kalman_em(seq, GlmmModel(M0=M0), config)
        plain = run_kalman_em(
            seq, GlmmModel(M0=M0), dataclasses.replace(config, clamp_psi_nonneg=False)
        )
        negative = sum(int(np.sum(psi < 0)) for psi in result.psis)
        assert negative == 14
        assert result.diagnostics["clamped_entries"] == negative
        assert plain.diagnostics["clamped_entries"] == 0
        # the clamp acts on the endmembers only: the smoothed states are untouched
        for psi, psi_plain in zip(result.psis, plain.psis):
            assert psi.tobytes() == psi_plain.tobytes()
        for M, psi in zip(result.endmembers, result.psis):
            assert M.tobytes() == (M0 * np.maximum(psi, 0.0)).tobytes()

    def test_k_max_validated(self):
        with pytest.raises(ValueError, match="K_max"):
            PipelineConfig(init=default_init(4, 3, 2, np.full((2, 3), 0.5)), K_max=0)

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_lambda_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite and nonnegative"):
            PipelineConfig(init=default_init(4, 3, 2, np.full((2, 3), 0.5)), lam=lam)

    def test_band_count_mismatch_rejected(self):
        seq, truth, model = identity_scene(L=10)
        other = GlmmModel(M0=synthetic_endmembers(11, 3, seed=9))
        config = PipelineConfig(init=default_init(10, seq.N, 3, truth.abundances[0]))
        with pytest.raises(ValueError, match="L="):
            run_kalman_em(seq, other, config)


def test_run_kalman_em_peak_memory():
    # A run from default_init at the many-bands benchmark size peaks at one
    # EM iteration's 2T + 2 PL x PL matrices (tests/test_em.py::
    # test_em_iterate_peak_memory) plus the dense P00 and Q of the previous
    # iteration's parameters, which the M-steps' results and factors stay
    # under; default_init's band stacks pin no dense matrix for the run.
    # 2T + 4.15 measured at T = 3 (4.19 at T = 2, 4.18 at T = 5).
    L, N, P, T = 137, 12, 3, 3
    M0 = synthetic_endmembers(L, P, seed=0)
    seq, truth = generate(SynthConfig(L=L, N=N, T=T, P=P, snr_db=30.0, rng_seed=5), M0)
    model = GlmmModel(M0=M0)
    matrix_bytes = 8 * (P * L) ** 2
    tracemalloc.start()
    try:
        config = PipelineConfig(init=default_init(L, N, P, truth.abundances[0]))
        run_kalman_em(seq, model, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / matrix_bytes <= 2 * T + 5


class TestDegenerateShapes:
    """One pixel, or one material and so 1 x 1 band blocks: the first pass
    runs on band stacks and the others dense, with finite results."""

    def check_run(self, monkeypatch, L, N, T, P, seed):
        real, shapes = em.run_filter, []

        def recording(ys, model, init):
            shapes.append(init.cov.shape)
            return real(ys, model, init)

        monkeypatch.setattr(em, "run_filter", recording)
        M0 = synthetic_endmembers(L, P, seed=seed)
        seq, truth = generate(SynthConfig(L=L, N=N, T=T, P=P, rng_seed=seed), M0)
        config = PipelineConfig(init=default_init(L, N, P, truth.abundances[0]), K_max=3)
        result = run_kalman_em(seq, GlmmModel(M0=M0), config)
        assert shapes == [(L, P, P)] + [(P * L, P * L)] * 2
        for arrays in (result.abundances.maps, result.endmembers, result.psis):
            assert len(arrays) == T and all(np.all(np.isfinite(a)) for a in arrays)
        assert np.all(np.isfinite(result.diagnostics["loglik"]))
        for A in result.abundances.maps:
            assert A.shape == (P, N) and np.max(np.abs(A.sum(axis=0) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("P", [2, 3])
    def test_one_pixel(self, monkeypatch, P):
        self.check_run(monkeypatch, L=7, N=1, T=3, P=P, seed=11)

    @pytest.mark.parametrize("N", [1, 5])
    def test_one_material_em_passes(self, monkeypatch, N):
        self.check_run(monkeypatch, L=7, N=N, T=3, P=1, seed=12)


class TestFiniteGuard:
    def test_nan_aborts_with_iteration_index(self):
        seq, truth, model = identity_scene()
        config = PipelineConfig(init=default_init(seq.L, seq.N, 3, truth.abundances[0]))
        result = run_kalman_em(seq, model, config)
        theta = result.theta_final
        bad = EmParams(
            A=np.full_like(theta.A, np.nan),
            P00=theta.P00,
            Q=theta.Q,
            sigma_r2=theta.sigma_r2,
            psi00=theta.psi00,
        )
        with pytest.raises(NumericalAbortError, match="iteration 3") as err:
            with _em_iteration(3):
                check_finite(bad.A, bad.P00, bad.Q, bad.sigma_r2, bad.psi00)
        assert err.value.iteration == 3

    def test_non_finite_final_pass_names_its_iteration(self, monkeypatch):
        # the pass after the K_max EM iterations is checked as iteration K_max + 1
        seq, truth, model = identity_scene()
        config = PipelineConfig(init=default_init(seq.L, seq.N, 3, truth.abundances[0]), K_max=2)
        real = pipeline.run_filter

        def overflowing(*args):
            return dataclasses.replace(real(*args), loglik=np.inf)

        monkeypatch.setattr(pipeline, "run_filter", overflowing)
        with pytest.raises(NumericalAbortError, match="at EM iteration 3") as err:
            run_kalman_em(seq, model, config)
        assert err.value.iteration == 3

    def test_factorization_failure_names_em_iteration(self, monkeypatch):
        seq, truth, model = identity_scene()
        config = PipelineConfig(init=default_init(seq.L, seq.N, 3, truth.abundances[0]))
        real, calls = pipeline.em_iterate, []

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise FactorizationError("matrix of size 30 not positive definite")
            return real(*args)

        monkeypatch.setattr(pipeline, "em_iterate", failing)
        with pytest.raises(FactorizationError, match="at EM iteration 2") as err:
            run_kalman_em(seq, model, config)
        assert err.value.iteration == 2


def unmix_from_m0(frames, M0, K_max=3):
    """run_kalman_em from frame 0's FCLS abundances under M0, as ``unmix --m0``
    starts it. The first iteration runs on band stacks, the others dense."""
    seq = HsiSequence(frames=tuple(frames))
    A0 = fcls_refine_frame(seq.frames[0], M0, None, 0.0)
    config = PipelineConfig(init=default_init(seq.L, seq.N, M0.shape[1], A0), K_max=K_max)
    return run_kalman_em(seq, GlmmModel(M0=M0), config)


def relative_gap(got, want):
    """The largest ||got_t - want_t|| / ||want_t|| over the frames."""
    return max(float(np.linalg.norm(g - w) / np.linalg.norm(w)) for g, w in zip(got, want))


@st.composite
def scenes(draw):
    """A noisy scene of 1-4 materials, more bands than materials, 1-8 pixels
    and 1-4 frames, and the endmembers it was mixed from."""
    P = draw(st.integers(1, 4))
    L, N, T = draw(st.integers(P + 2, 12)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    M0 = synthetic_endmembers(L, P, seed=seed)
    seq, _ = generate(SynthConfig(L=L, N=N, T=T, P=P, rng_seed=seed), M0)
    return seq.frames, M0


#: Relative gaps allowed between a relabelled run and the relabelled base
#: run: abundances and scaling factors, and the final log-likelihood. Over
#: 1,000 drawn scenes per relabelling the largest were 2.2e-13 (abundances),
#: 3.0e-12 (scaling factors) and 3.2e-13 (log-likelihood).
RELABEL_RTOL, LOGLIK_RTOL = 1e-10, 1e-11


class TestRelabelling:
    """Permuting the pixels, the materials or the bands of the input permutes
    the answer the same way, to rounding."""

    def check(self, base, run, abund, psi):
        maps = [abund(A) for A in base.abundances.maps]
        assert relative_gap(run.abundances.maps, maps) <= RELABEL_RTOL
        assert relative_gap(run.psis, [psi(X) for X in base.psis]) <= RELABEL_RTOL
        loglik = base.diagnostics["loglik"][-1]
        assert abs(run.diagnostics["loglik"][-1] - loglik) <= LOGLIK_RTOL * abs(loglik)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(scene=scenes(), data=st.data())
    def test_pixels(self, scene, data):
        frames, M0 = scene
        perm = data.draw(st.permutations(range(frames[0].shape[1])))
        run = unmix_from_m0([Y[:, perm] for Y in frames], M0)
        self.check(unmix_from_m0(frames, M0), run, lambda A: A[:, perm], lambda X: X)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(scene=scenes(), data=st.data())
    def test_materials(self, scene, data):
        frames, M0 = scene
        perm = data.draw(st.permutations(range(M0.shape[1])))
        run = unmix_from_m0(frames, M0[:, perm])
        self.check(unmix_from_m0(frames, M0), run, lambda A: A[perm], lambda X: X[:, perm])

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(scene=scenes(), data=st.data())
    def test_bands(self, scene, data):
        frames, M0 = scene
        perm = data.draw(st.permutations(range(M0.shape[0])))
        run = unmix_from_m0([Y[perm] for Y in frames], M0[perm])
        self.check(unmix_from_m0(frames, M0), run, lambda A: A, lambda X: X[perm])
