"""Endmember extraction: pure-pixel recovery and degenerate cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtunmix.errors import RankDeficiencyError
from mtunmix.synth import SynthConfig, generate, synthetic_endmembers
from mtunmix.vca import vca_extract


def columns_match_up_to_permutation(found, expected, atol=1e-8):
    """Each expected column appears exactly once among the found columns."""
    P = expected.shape[1]
    used = set()
    for k in range(P):
        hits = [
            j
            for j in range(P)
            if j not in used and np.allclose(found[:, j], expected[:, k], atol=atol)
        ]
        if not hits:
            return False
        used.add(hits[0])
    return True


class TestPurePixelRecovery:
    def test_recovers_planted_pure_pixels(self):
        rng = np.random.default_rng(0)
        L, P, N = 30, 3, 60
        M = synthetic_endmembers(L, P, seed=1)
        # interior mixtures plus one pure pixel per material
        A = rng.dirichlet(np.ones(P) * 5.0, size=N - P).T
        A = np.hstack([A, np.eye(P)])
        perm = rng.permutation(N)
        Y = (M @ A)[:, perm]
        found = vca_extract(Y, P, seed=3)
        assert columns_match_up_to_permutation(found, M)

    def test_all_columns_when_n_equals_p(self):
        rng = np.random.default_rng(1)
        L, P = 12, 3
        Y = rng.uniform(0.1, 1.0, size=(L, P))
        found = vca_extract(Y, P, seed=0)
        assert columns_match_up_to_permutation(found, Y, atol=1e-10)

    def test_single_endmember_strongest_pixel(self):
        rng = np.random.default_rng(2)
        L, N = 10, 20
        Y = rng.uniform(0.1, 0.5, size=(L, N))
        Y[:, 7] += 3.0  # dominant outlier pixel
        found = vca_extract(Y, 1, seed=0)
        np.testing.assert_array_equal(found[:, 0], Y[:, 7])

    def test_noisy_recovery_close(self):
        rng = np.random.default_rng(3)
        L, P, N = 40, 3, 200
        M = synthetic_endmembers(L, P, seed=2)
        A = rng.dirichlet(np.ones(P) * 0.7, size=N - P).T
        A = np.hstack([A, np.eye(P)])
        Y = M @ A + 0.002 * rng.standard_normal((L, N - P + P))
        found = vca_extract(Y, P, seed=1)
        # every true endmember is close to some found column
        for k in range(P):
            dists = np.linalg.norm(found - M[:, k : k + 1], axis=0)
            assert dists.min() <= 0.05 * np.linalg.norm(M[:, k])


class TestContracts:
    def test_determinism(self):
        rng = np.random.default_rng(4)
        Y = rng.uniform(0.05, 1.0, size=(25, 40))
        a = vca_extract(Y, 3, seed=11)
        b = vca_extract(Y, 3, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_direction_draws(self):
        rng = np.random.default_rng(5)
        Y = rng.uniform(0.05, 1.0, size=(25, 40))
        a = vca_extract(Y, 3, seed=1)
        b = vca_extract(Y, 3, seed=2)
        # random directions differ; results may coincide but shapes must hold
        assert a.shape == b.shape == (25, 3)

    def test_rank_deficiency_names_rank(self):
        rank1 = np.outer(np.linspace(0.1, 1.0, 15), np.ones(10))
        with pytest.raises(RankDeficiencyError, match="rank 1") as err:
            vca_extract(rank1, 3)
        assert err.value.achieved_rank == 1
        assert err.value.required_rank == 3

    def test_p_bounds_validated(self):
        with pytest.raises(ValueError):
            vca_extract(np.ones((4, 6)), 0)
        with pytest.raises(ValueError):
            vca_extract(np.ones((4, 6)), 5)


@st.composite
def pure_pixel_scenes(draw):
    """A noise-free frame of 2-4 materials whose pixels are Dirichlet mixtures
    plus one pure pixel per material, in drawn order; its P and seed."""
    P = draw(st.integers(2, 4))
    L, N = draw(st.integers(P + 2, 30)), draw(st.integers(P, 40))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    A = rng.dirichlet(np.ones(P), size=N).T
    A[:, :P] = np.eye(P)
    return (synthetic_endmembers(L, P, seed=seed) @ A)[:, rng.permutation(N)], P, seed


def column_set(X):
    return sorted(column.tobytes() for column in X.T)


class TestRelabelling:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        size=st.tuples(st.integers(1, 4), st.integers(0, 25), st.integers(0, 36)),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_pixel_permutation_gives_the_same_endmembers(self, size, seed, data):
        # a noisy generated frame: VCA returns pixels, and picks the same ones
        P, extra_bands, extra_pixels = size
        config = SynthConfig(L=P + 2 + extra_bands, N=P + extra_pixels, T=1, P=P, rng_seed=seed)
        seq, _ = generate(config, synthetic_endmembers(config.L, P, seed=seed))
        Y = seq.frames[0]
        perm = data.draw(st.permutations(range(config.N)))
        found = vca_extract(Y[:, perm], P, seed=seed)
        assert found.tobytes() == vca_extract(Y, P, seed=seed).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scene=pure_pixel_scenes(), data=st.data())
    def test_band_permutation_permutes_the_endmembers(self, scene, data):
        # the same pure pixels with their bands permuted, maybe in another
        # column order: VCA draws its directions as coordinates in an SVD
        # basis whose signs a band permutation can flip (so on a noisy frame
        # with no pure pixel, other pixels may win)
        Y, P, seed = scene
        perm = data.draw(st.permutations(range(Y.shape[0])))
        found = vca_extract(Y[perm], P, seed=seed)[np.argsort(perm)]
        assert column_set(found) == column_set(vca_extract(Y, P, seed=seed))
