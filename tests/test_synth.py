"""Generator fidelity and evaluation metrics."""

import numpy as np
import pytest

from mtunmix.metrics import (
    EXHAUSTIVE_ALIGN_LIMIT,
    align_endmember_sequences,
    apply_permutation,
    nrmse,
    sam,
)
from mtunmix.synth import SynthConfig, empirical_snr_db, generate, synthetic_endmembers


class TestGenerate:
    def test_degenerate_static_scene(self):
        cfg = SynthConfig(
            L=8, N=5, T=4, P=3, F_scale=1.0, q_var=0.0, snr_db=np.inf,
            abundance_jitter_std=0.0, rng_seed=0,
        )
        M0 = synthetic_endmembers(8, 3, seed=0)
        seq, truth = generate(cfg, M0)
        base = truth.abundances[0]
        for t in range(4):
            np.testing.assert_allclose(seq.frames[t], M0 @ base, rtol=1e-12)
            np.testing.assert_allclose(truth.endmembers[t], M0, rtol=1e-12)
            np.testing.assert_allclose(truth.psis[t], 1.0, rtol=1e-12)

    def test_snr_within_half_db(self):
        M0 = synthetic_endmembers(173, 3, seed=1)
        for seed in range(5):
            cfg = SynthConfig(L=173, N=50, T=10, P=3, rng_seed=seed)
            _, truth = generate(cfg, M0)
            snr = empirical_snr_db(truth.clean_frames, truth.noisy_frames)
            assert abs(snr - 30.0) <= 0.5

    def test_abundance_temporal_std_near_default(self):
        M0 = synthetic_endmembers(173, 3, seed=2)
        stds = []
        for seed in range(5):
            cfg = SynthConfig(L=173, N=50, T=10, P=3, rng_seed=seed)
            _, truth = generate(cfg, M0)
            A = np.stack(truth.abundances)  # T x P x N
            stds.append(float(np.mean(np.std(A, axis=0))))
        avg = np.mean(stds)
        assert 1.5e-3 <= avg <= 4.5e-3

    def test_truth_abundances_feasible(self):
        cfg = SynthConfig(L=12, N=9, T=5, P=3, rng_seed=3)
        _, truth = generate(cfg, synthetic_endmembers(12, 3, seed=3))
        for A in truth.abundances:
            np.testing.assert_allclose(A.sum(axis=0), 1.0, atol=1e-9)
            assert A.min() >= 0.0

    def test_determinism(self):
        cfg = SynthConfig(L=10, N=6, T=3, P=2, rng_seed=7)
        M0 = synthetic_endmembers(10, 2, seed=7)
        seq1, truth1 = generate(cfg, M0)
        seq2, truth2 = generate(cfg, M0)
        for a, b in zip(seq1.frames, seq2.frames):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(truth1.psis, truth2.psis):
            assert a.tobytes() == b.tobytes()

    def test_state_recursion_matches_config(self):
        cfg = SynthConfig(L=6, N=4, T=3, P=2, F_scale=0.9, q_var=0.0, rng_seed=1)
        _, truth = generate(cfg, synthetic_endmembers(6, 2, seed=1))
        np.testing.assert_allclose(truth.psis[0], 0.9, rtol=1e-12)
        np.testing.assert_allclose(truth.psis[2], 0.9**3, rtol=1e-12)

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            SynthConfig(L=4, N=3, T=2, P=2, snr_db=float("nan"))

    def test_minus_infinite_snr_rejected(self):
        with pytest.raises(ValueError, match="-inf"):
            SynthConfig(L=4, N=3, T=2, P=2, snr_db=-np.inf)

    def test_psis_are_band_by_material(self):
        cfg = SynthConfig(L=5, N=3, T=2, P=2, rng_seed=6)
        M0 = synthetic_endmembers(5, 2, seed=6)
        _, truth = generate(cfg, M0)
        for psi, M in zip(truth.psis, truth.endmembers):
            assert psi.shape == (5, 2)
            np.testing.assert_array_equal(M, M0 * psi)

    def test_numpy_scalars_accepted(self):
        cfg = SynthConfig(
            L=np.int64(4), N=np.int32(3), T=2, P=2, snr_db=np.float64(20.0),
            dirichlet_alpha=np.array([1.0, 2.0]),
        )
        assert cfg.dirichlet_alpha == (1.0, 2.0)


class TestMetrics:
    def test_nrmse_identities(self):
        rng = np.random.default_rng(0)
        X = [rng.standard_normal((4, 3)) for _ in range(3)]
        assert nrmse(X, X) == pytest.approx(0.0, abs=1e-12)
        assert nrmse(X, [np.zeros_like(x) for x in X]) == pytest.approx(1.0, abs=1e-12)

    def test_nrmse_literal_formula(self):
        rng = np.random.default_rng(1)
        X = [rng.standard_normal((4, 3)) for _ in range(4)]
        Y = [rng.standard_normal((4, 3)) for _ in range(4)]
        expected = np.mean(
            [np.linalg.norm(x - y) / np.linalg.norm(x) for x, y in zip(X, Y)]
        )
        np.testing.assert_allclose(nrmse(X, Y), expected, rtol=1e-12)

    def test_nrmse_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            nrmse([np.zeros((2, 2))], [np.ones((2, 2))])

    def test_sam_identities(self):
        rng = np.random.default_rng(2)
        M = [np.abs(rng.standard_normal((5, 3))) + 0.1 for _ in range(2)]
        assert sam(M, M) == pytest.approx(0.0, abs=1e-12)
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert sam([e1], [e2]) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_sam_literal_formula(self):
        rng = np.random.default_rng(3)
        M = [np.abs(rng.standard_normal((6, 3))) + 0.1 for _ in range(3)]
        Me = [np.abs(rng.standard_normal((6, 3))) + 0.1 for _ in range(3)]
        total = 0.0
        for X, Xe in zip(M, Me):
            for k in range(3):
                cosv = (X[:, k] @ Xe[:, k]) / (
                    np.linalg.norm(X[:, k]) * np.linalg.norm(Xe[:, k])
                )
                total += np.arccos(np.clip(cosv, -1, 1))
        np.testing.assert_allclose(sam(M, Me), total / 3, rtol=1e-12)

    def test_sam_scale_invariant(self):
        rng = np.random.default_rng(4)
        M = [np.abs(rng.standard_normal((6, 2))) + 0.1]
        scaled = [M[0] * np.array([2.0, 0.5])]
        assert sam(M, scaled) == pytest.approx(0.0, abs=1e-7)


class TestAlignment:
    def test_identity_permutation(self):
        M = synthetic_endmembers(20, 4, seed=0)
        assert align_endmember_sequences([M], [M]) == (0, 1, 2, 3)

    def test_inverse_swap(self):
        M = synthetic_endmembers(20, 3, seed=1)
        swapped = M[:, [2, 0, 1]]
        perm = align_endmember_sequences([M], [swapped])
        np.testing.assert_allclose(swapped[:, perm], M, rtol=1e-12)

    def test_planted_permutation_with_noise(self):
        rng = np.random.default_rng(5)
        M = synthetic_endmembers(30, 4, seed=2)
        planted = rng.permutation(4)
        noisy = M[:, planted] * (1 + 0.02 * rng.standard_normal((30, 4)))
        perm = align_endmember_sequences([M], [np.abs(noisy)])
        np.testing.assert_array_equal(np.array(planted)[list(perm)], np.arange(4))

    def test_sequence_alignment_and_apply(self):
        rng = np.random.default_rng(6)
        Ms = [synthetic_endmembers(15, 3, seed=s) for s in range(4)]
        As = [rng.dirichlet(np.ones(3), size=6).T for _ in range(4)]
        perm_true = [2, 0, 1]
        Ms_est = [M[:, perm_true] for M in Ms]
        As_est = [A[perm_true, :] for A in As]
        perm = align_endmember_sequences(Ms, Ms_est)
        fixed_m, fixed_a = apply_permutation(perm, endmembers=Ms_est, abundances=As_est)
        for M, Mf, A, Af in zip(Ms, fixed_m, As, fixed_a):
            np.testing.assert_allclose(Mf, M, rtol=1e-12)
            np.testing.assert_allclose(Af, A, rtol=1e-12)

    def test_aligned_score_is_minimal(self):
        import itertools

        rng = np.random.default_rng(7)
        M = synthetic_endmembers(25, 3, seed=3)
        est = np.abs(M[:, [1, 2, 0]] * (1 + 0.05 * rng.standard_normal((25, 3))))
        perm = align_endmember_sequences([M], [est])
        best = sam([M], [est[:, perm]])
        for other in itertools.permutations(range(3)):
            assert best <= sam([M], [est[:, list(other)]]) + 1e-12

    def test_shape_mismatch_in_any_frame_rejected(self):
        M = synthetic_endmembers(10, 3, seed=5)
        with pytest.raises(ValueError, match=r"frame 1: \(10, 3\) vs \(10, 2\)"):
            align_endmember_sequences([M, M], [M, M[:, :2]])

    def test_planted_permutation_past_exhaustive_limit(self):
        # P = 10 takes the Hungarian branch
        rng = np.random.default_rng(8)
        P = 10
        assert P > EXHAUSTIVE_ALIGN_LIMIT
        M = synthetic_endmembers(60, P, seed=4)
        planted = rng.permutation(P)
        noisy = M[:, planted] * (1 + 0.02 * rng.standard_normal((60, P)))
        perm = align_endmember_sequences([M], [np.abs(noisy)])
        np.testing.assert_array_equal(planted[list(perm)], np.arange(P))

    def test_hungarian_total_equals_exhaustive_optimum(self):
        import itertools

        rng = np.random.default_rng(9)
        P = 9
        assert P > EXHAUSTIVE_ALIGN_LIMIT
        M = np.abs(rng.standard_normal((40, P))) + 0.1
        est = np.abs(rng.standard_normal((40, P))) + 0.1
        perm = align_endmember_sequences([M], [est])
        assert sorted(perm) == list(range(P))
        unit_m = M / np.linalg.norm(M, axis=0)
        unit_e = est / np.linalg.norm(est, axis=0)
        cost = np.arccos(np.clip(unit_m.T @ unit_e, -1.0, 1.0))
        every = np.array(list(itertools.permutations(range(P))))
        best = cost[np.arange(P), every].sum(axis=1).min()
        np.testing.assert_allclose(cost[np.arange(P), list(perm)].sum(), best, rtol=1e-12)
