"""Block traces, factor inverses and PSD flooring in both covariance layouts,
plus the Kronecker, NKP and Woodbury test oracles. The dense tests run on
both routes a dense matrix can take: NumPy's bundled OpenBLAS through ctypes,
and ``numpy.linalg`` with that binding off, as where NumPy bundles none."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from mtunmix import kronops
from mtunmix.errors import FactorizationError
from mtunmix.kronops import (
    add_bands,
    band_blocks,
    cho_factor_jittered,
    cho_logdet,
    cho_solve,
    dense_form,
    factor,
    factor_inverse,
    matvec,
    psd_floor,
    symmetric,
    symmetrize,
)
from oracles import (
    block_trace_cross,
    block_trace_gram,
    kron_product,
    nkp_decompose,
    woodbury_gain_factor,
)


def kron_oracle(X, Y):
    """Direct double-loop Kronecker product."""
    p, q = X.shape
    r, s = Y.shape
    out = np.zeros((p * r, q * s))
    for i in range(p):
        for j in range(q):
            for k in range(r):
                for m in range(s):
                    out[i * r + k, j * s + m] = X[i, j] * Y[k, m]
    return out


def random_spd(rng, n, scale=1.0):
    X = rng.standard_normal((n, n))
    return scale * (X @ X.T + n * np.eye(n))


class TestKronProduct:
    def test_identity(self):
        np.testing.assert_array_equal(kron_product(np.eye(2), np.eye(3)), np.eye(6))

    def test_scalar_case(self):
        Y = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(kron_product(np.array([[2.0]]), Y), 2.0 * Y)

    def test_against_index_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((2, 3))
        Y = rng.standard_normal((3, 2))
        np.testing.assert_allclose(kron_product(X, Y), kron_oracle(X, Y), rtol=1e-13)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = rng.standard_normal((3, 4))
            W = rng.standard_normal((4, 2))
            Y = rng.standard_normal((2, 3))
            Z = rng.standard_normal((3, 5))
            lhs = kron_product(X, Y) @ kron_product(W, Z)
            rhs = kron_product(X @ W, Y @ Z)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_trace_factorization(self):
        # tr((X (x) I)(C (x) D)) == tr(X C) tr(D)
        rng = np.random.default_rng(2)
        for _ in range(10):
            X = rng.standard_normal((3, 3))
            C = rng.standard_normal((3, 3))
            D = rng.standard_normal((4, 4))
            lhs = np.trace(kron_product(X, np.eye(4)) @ kron_product(C, D))
            rhs = np.trace(X @ C) * np.trace(D)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestNkpDecompose:
    def test_exact_kron_rank_one(self):
        rng = np.random.default_rng(3)
        C = rng.standard_normal((3, 3))
        D = rng.standard_normal((4, 4))
        S = kron_product(C, D)
        terms = nkp_decompose(S, 4, 4, K=1)
        err = np.linalg.norm(S - terms.reconstruct())
        assert err <= 1e-12 * np.linalg.norm(S)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(4)
        S = rng.standard_normal((3 * 4, 3 * 4))
        K = min(3 * 3, 4 * 4)
        terms = nkp_decompose(S, 4, 4, K=K)
        err = np.linalg.norm(S - terms.reconstruct())
        assert err <= 1e-10 * np.linalg.norm(S)

    def test_rank_one_error_matches_tail_spectrum(self):
        rng = np.random.default_rng(5)
        S = rng.standard_normal((2 * 3, 2 * 3))
        m = n = 2
        p = q = 3
        # oracle: SVD of the rearrangement computed independently
        R = np.zeros((m * n, p * q))
        for i in range(m):
            for j in range(n):
                R[i * n + j, :] = S[i * p : (i + 1) * p, j * q : (j + 1) * q].ravel()
        svals = np.linalg.svd(R, compute_uv=False)
        expected = np.sqrt(np.sum(svals[1:] ** 2))
        terms = nkp_decompose(S, p, q, K=1)
        err = np.linalg.norm(S - terms.reconstruct())
        np.testing.assert_allclose(err, expected, rtol=1e-10)

    def test_rejects_indivisible_dimensions(self):
        with pytest.raises(ValueError, match="divisible"):
            nkp_decompose(np.ones((5, 6)), 2, 2, K=1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="K="):
            nkp_decompose(np.ones((4, 4)), 2, 2, K=5)


class TestBlockTraces:
    def test_gram_identity_blocks(self):
        L, P = 4, 3
        np.testing.assert_array_equal(block_trace_gram(np.eye(P * L), L, P), L * np.eye(P))

    def test_gram_single_kron_term(self):
        rng = np.random.default_rng(6)
        C = rng.standard_normal((3, 3))
        D = rng.standard_normal((5, 5))
        np.testing.assert_allclose(
            block_trace_gram(kron_product(C, D), 5, 3), np.trace(D) * C, rtol=1e-12
        )

    def test_gram_contract_matches_dense_kron(self):
        rng = np.random.default_rng(7)
        L, P, N = 4, 3, 5
        for _ in range(10):
            S = rng.standard_normal((P * L, P * L))
            S = S + S.T
            A = rng.standard_normal((P, N))
            dense = np.trace(kron_product(A @ A.T, np.eye(L)) @ S)
            fast = np.trace(A @ A.T @ block_trace_gram(S, L, P))
            np.testing.assert_allclose(fast, dense, rtol=1e-10)

    def test_gram_equals_full_nkp_sum(self):
        # fast path vs. the explicit decomposition route, full rank
        rng = np.random.default_rng(8)
        L, P = 3, 4
        S = rng.standard_normal((P * L, P * L))
        terms = nkp_decompose(S, L, L, K=min(P * P, L * L))
        summed = sum(np.trace(D) * C for C, D in zip(terms.left_factors, terms.right_factors))
        np.testing.assert_allclose(block_trace_gram(S, L, P), summed, rtol=0, atol=1e-9)

    def test_cross_single_kron_term(self):
        rng = np.random.default_rng(9)
        C = rng.standard_normal((5, 3))  # N x P
        D = rng.standard_normal((4, 4))  # L x L
        np.testing.assert_allclose(
            block_trace_cross(kron_product(C, D), 4), np.trace(D) * C, rtol=1e-12
        )

    def test_cross_contract_matches_dense_kron(self):
        rng = np.random.default_rng(10)
        L, P, N = 3, 2, 4
        for _ in range(10):
            S = rng.standard_normal((N * L, P * L))
            A = rng.standard_normal((P, N))
            dense = np.trace(kron_product(A.T, np.eye(L)) @ S.T)
            U = block_trace_cross(S, L)
            fast = float(np.sum(A * U.T))
            np.testing.assert_allclose(fast, dense, rtol=1e-10)

    def test_cross_zero(self):
        np.testing.assert_array_equal(block_trace_cross(np.zeros((6, 4)), 2), np.zeros((3, 2)))


class TestWoodburyGainFactor:
    def test_zero_observation_matrix(self):
        rng = np.random.default_rng(11)
        P_pred = random_spd(rng, 4)
        W = woodbury_gain_factor(np.zeros((6, 4)), P_pred, 0.5)
        np.testing.assert_array_equal(W, np.zeros((4, 6)))

    def test_matches_dense_inverse_small(self):
        rng = np.random.default_rng(12)
        L, N, P = 3, 2, 2
        for _ in range(20):
            B = rng.standard_normal((N * L, P * L))
            P_pred = random_spd(rng, P * L)
            s2 = float(rng.uniform(0.1, 2.0))
            W = woodbury_gain_factor(B, P_pred, s2)
            dense = B.T @ np.linalg.inv(B @ P_pred @ B.T + s2 * np.eye(N * L))
            np.testing.assert_allclose(W, dense, rtol=1e-8, atol=1e-10)

    def test_small_prior_covariance_limit(self):
        rng = np.random.default_rng(13)
        B = rng.standard_normal((6, 4))
        P_pred = 1e-6 * np.eye(4)
        s2 = 0.3
        W = woodbury_gain_factor(B, P_pred, s2)
        dense = B.T @ np.linalg.inv(B @ P_pred @ B.T + s2 * np.eye(6))
        np.testing.assert_allclose(W, dense, rtol=1e-8, atol=1e-12)


def eigh_clip_oracle(X):
    """psd_floor as an eigendecomposition with every negative eigenvalue set to 0."""
    w, V = np.linalg.eigh(symmetrize(X))
    return symmetrize((V * np.clip(w, 0.0, None)) @ V.T)


#: Orders on both sides of the size at which factor_inverse splits, and odd
#: splits below the top level
INVERSE_SIZES = [
    1, 7, 60, kronops.INVERSE_LEAF, kronops.INVERSE_LEAF + 1, 2 * kronops.INVERSE_LEAF + 1, 411, 519,
]


class TestMirrorLower:
    """The in-place blocked triangle copy behind every inverse."""

    B = kronops.MIRROR_BLOCK

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1, 411])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bits_of_the_masked_select(self, n, order):
        X = np.array(np.random.default_rng(n).standard_normal((n, n)), order=order)
        expected = np.where(np.tri(n, dtype=bool), X, X.T)
        out = kronops._mirror_lower(X)
        assert out is X
        assert np.array_equal(out, expected)

    def test_stack(self):
        X = np.random.default_rng(3).standard_normal((5, self.B + 2, self.B + 2))
        expected = np.where(np.tri(self.B + 2, dtype=bool), X, X.mT)
        assert np.array_equal(kronops._mirror_lower(X), expected)

    def test_dense_inverse_is_c_ordered(self):
        # the same memory order as before the copy went in place, so the
        # products that read an inverse see the same layout
        rng = np.random.default_rng(4)
        for n in (5, 2 * kronops.INVERSE_LEAF + 1):
            assert factor_inverse(factor(random_spd(rng, n))).flags.c_contiguous


class TestChoInverse:
    """factor_inverse of a dense factor (LAPACK trtri up to INVERSE_LEAF,
    recursive blocks with BLAS trmm above it, then LAPACK lauum; on the
    ``numpy.linalg`` route, column panels of PANEL columns)."""

    @pytest.mark.parametrize("n", INVERSE_SIZES)
    def test_matches_dense_inverse(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            S = random_spd(rng, n)
            X = factor_inverse(factor(S))
            ref = np.linalg.inv(S)
            assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_matches_dense_inverse_condition_1e8(self):
        # ill-conditioned through its scaling, so its inverse is well determined
        # and two inverse routines can agree to 1e-12
        rng = np.random.default_rng(15)
        n = 30
        d = np.logspace(0, 4, n)
        S = random_spd(rng, n) * d[:, None] * d[None, :]
        assert 1e7 < np.linalg.cond(S) < 1e9
        X = factor_inverse(factor(S))
        ref = np.linalg.inv(S)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_residual_with_spread_eigenvalues(self):
        # cond 1e8 from the spectrum: any computed inverse is off by about
        # cond * eps, so bound the residual instead
        rng = np.random.default_rng(16)
        eps = np.finfo(float).eps
        for n in (40, 411, 519):
            V, _ = np.linalg.qr(rng.standard_normal((n, n)))
            S = symmetrize((V * np.logspace(0, 8, n)) @ V.T)
            X = factor_inverse(factor(S))
            assert np.linalg.norm(X @ S - np.eye(n)) <= 10 * n * eps * np.linalg.cond(S), n

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(17)
        for n in INVERSE_SIZES:
            X = factor_inverse(factor(random_spd(rng, n)))
            assert np.array_equal(X, X.T), n

    def test_factor_left_unchanged(self):
        rng = np.random.default_rng(18)
        for n in INVERSE_SIZES:
            c = factor(random_spd(rng, n))
            before = c.copy()
            factor_inverse(c)
            assert np.array_equal(c, before), n

    @pytest.mark.parametrize("n", [7, 2 * kronops.INVERSE_LEAF + 1, 411])
    def test_reads_only_below_the_diagonal(self, n):
        # potrf leaves its input's upper triangle in the factor, so no block
        # of the split may read above the diagonal
        rng = np.random.default_rng(19)
        c = factor(random_spd(rng, n))
        poisoned = np.where(np.tri(n, dtype=bool), c, np.nan)
        assert np.array_equal(factor_inverse(poisoned), factor_inverse(c))

    @pytest.mark.parametrize("n", [7, 2 * kronops.INVERSE_LEAF + 1])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_zero_pivot_raises(self, n, where):
        rng = np.random.default_rng(20)
        c = factor(random_spd(rng, n))
        k = 0 if where == "first" else n - 1
        c[k, k] = 0.0
        with pytest.raises(FactorizationError):
            factor_inverse(c)

    @pytest.mark.parametrize("n", [2 * kronops.INVERSE_LEAF + 1, 411])
    def test_holds_one_copy_of_the_factor(self, n):
        # LAPACK inverts one copy in place, and the numpy.linalg route's
        # panels hold one panel each besides their copy; np.linalg.inv of
        # the triangle, then a separate R.T R, holds 2.0 and fails
        c = factor(random_spd(np.random.default_rng(29), n))
        factor_inverse(c)  # first-call caches outside the count
        tracemalloc.start()
        try:
            factor_inverse(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * n * n

    def test_read_only_or_single_precision_factor_taken(self):
        # either is copied to a writeable float64 matrix before LAPACK sees it
        c = factor(random_spd(np.random.default_rng(26), 2 * kronops.INVERSE_LEAF + 1))
        for layout in (c, np.ascontiguousarray(c), np.asfortranarray(c)):
            read_only = layout.copy(order="K")
            read_only.flags.writeable = False
            assert np.array_equal(factor_inverse(read_only), factor_inverse(c))
        single = c.astype(np.float32)
        assert np.array_equal(factor_inverse(single), factor_inverse(single.astype(np.float64)))

    def test_empty_factor_has_empty_inverse_without_lapack(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("factor_inverse called LAPACK or BLAS on a 0 x 0 factor")

        for name in ("dtrtri", "dlauum", "dtrmm"):
            monkeypatch.setattr(kronops, name, forbidden)
        inv = factor_inverse(np.zeros((0, 0)))
        assert inv.shape == (0, 0) and inv.dtype == float


class TestChoFactor:
    """factor, cho_factor_jittered and cho_solve on a dense matrix."""

    SINGULAR = np.diag([1.0, 2.0, 0.0])

    def count_attempts(self, monkeypatch):
        """Record the matrix of every factorization, on either route."""
        attempts = []

        def counting(real):
            def call(M):
                attempts.append(M.copy())
                return real(M)

            return call

        monkeypatch.setattr(kronops, "dpotrf", counting(kronops.dpotrf))
        monkeypatch.setattr(np.linalg, "cholesky", counting(np.linalg.cholesky))
        return attempts

    def test_plain_factor_makes_one_attempt(self, monkeypatch):
        attempts = self.count_attempts(monkeypatch)
        with pytest.raises(FactorizationError):
            factor(self.SINGULAR)
        assert len(attempts) == 1
        c = factor(np.diag([4.0, 9.0]))
        np.testing.assert_array_equal(np.diag(c), [2.0, 3.0])

    def test_jittered_factor_retries_with_jitter(self, monkeypatch):
        attempts = self.count_attempts(monkeypatch)
        c = cho_factor_jittered(self.SINGULAR)
        assert len(attempts) == 2
        assert attempts[1][2, 2] == pytest.approx(1e-10)
        assert c[2, 2] == pytest.approx(1e-5)
        with pytest.raises(FactorizationError, match="after jitter retry"):
            cho_factor_jittered(np.diag([1.0, -1.0]))

    def test_factor_and_solve_bit_identical_to_scipy_linalg(self):
        # bit for bit on the OpenBLAS route, which calls the routines SciPy
        # calls; on the numpy.linalg route NumPy's LAPACK need not be
        # SciPy's, its factor has a zero upper triangle, and a solve is two
        # LU solves, so there the two agree to rounding
        bitwise = kronops._openblas is not None
        rng = np.random.default_rng(21)
        for n in (1, 6, 40):
            S = random_spd(rng, n)
            c = factor(S)
            c_ref, _ = scipy.linalg.cho_factor(S, lower=True, check_finite=False)
            if bitwise:
                assert np.array_equal(c, c_ref)
            else:
                np.testing.assert_allclose(np.tril(c), np.tril(c_ref), rtol=1e-14, atol=1e-14)
            for B in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                ref = scipy.linalg.cho_solve((c_ref, True), B, check_finite=False)
                if bitwise:
                    assert np.array_equal(cho_solve(c, B), ref)
                else:
                    np.testing.assert_allclose(cho_solve(c, B), ref, rtol=1e-12, atol=1e-15)

    def test_solve_takes_a_read_only_or_single_precision_factor(self):
        rng = np.random.default_rng(27)
        c = factor(random_spd(rng, 9))
        B = rng.standard_normal((9, 2))
        for layout in (c, np.ascontiguousarray(c), np.asfortranarray(c)):
            read_only = layout.copy(order="K")
            read_only.flags.writeable = False
            assert np.array_equal(cho_solve(read_only, B), cho_solve(c, B))
        single = c.astype(np.float32)
        assert np.array_equal(cho_solve(single, B), cho_solve(single.astype(np.float64), B))

    def test_solve_reads_only_below_the_diagonal(self):
        rng = np.random.default_rng(25)
        c = factor(random_spd(rng, 9))
        poisoned = np.asfortranarray(np.where(np.tri(9, dtype=bool), c, np.nan))
        for B in (rng.standard_normal(9), rng.standard_normal((9, 2))):
            assert np.array_equal(cho_solve(poisoned, B), cho_solve(c, B))

    @pytest.mark.parametrize("n", [kronops.PANEL + 1, 2 * kronops.PANEL, 411])
    def test_solve_across_panels_matches_dense_solve(self, n):
        # the numpy.linalg route substitutes by panels of PANEL rows, whose
        # off-diagonal products must also read only below the diagonal
        rng = np.random.default_rng(28)
        S = random_spd(rng, n)
        c = factor(S)
        poisoned = np.where(np.tri(n, dtype=bool), c, np.nan)
        for B in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            X = cho_solve(c, B)
            assert X.shape == B.shape
            np.testing.assert_allclose(X, np.linalg.solve(S, B), rtol=1e-12, atol=1e-14)
            assert np.array_equal(cho_solve(poisoned, B), X)

    @pytest.mark.parametrize("n", [5, 90, 411])
    def test_factor_same_bits_in_either_memory_order(self, n):
        # a C-ordered matrix goes to potrf as its transpose, which equals it
        # only because it is exactly symmetric
        S = symmetrize(random_spd(np.random.default_rng(22), n))
        assert S.flags.c_contiguous
        assert np.array_equal(factor(S), factor(np.asfortranarray(S)))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 3), (1, 2, 2, 2)])
    def test_non_square_input_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            factor(np.ones(shape))
        with pytest.raises(ValueError, match="square"):
            factor_inverse(np.ones(shape))

    @pytest.mark.parametrize("shape", [(2,), (2, 1), (3, 3, 1)])
    def test_mismatched_right_hand_side_rejected(self, shape):
        c = factor(np.diag([4.0, 9.0, 1.0]))
        with pytest.raises(ValueError, match="right-hand side"):
            cho_solve(c, np.ones(shape))


class TestPsdHelpers:
    def test_floor_clips_negative_eigenvalues(self):
        X = np.diag([1.0, -0.5])
        floored, c = psd_floor(X)
        np.testing.assert_allclose(floored, np.diag([1.0, 0.0]), atol=1e-14)
        assert c is None

    def test_floor_keeps_psd_input(self):
        rng = np.random.default_rng(14)
        S = random_spd(rng, 5)
        np.testing.assert_allclose(psd_floor(S)[0], S, rtol=1e-12)

    def test_floor_positive_definite_skips_eigh(self, monkeypatch):
        rng = np.random.default_rng(19)
        X = random_spd(rng, 8) + 1e-9 * rng.standard_normal((8, 8))

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on a positive-definite input")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        out, c = psd_floor(X)
        assert np.array_equal(out, symmetrize(X))
        assert np.array_equal(c, factor(symmetrize(X)))  # the test's factor, returned

    def test_floor_indefinite_matches_eigh_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            X = (V * np.array([-2.0, -1e-9, 0.5, 1.0, 2.0, 3.0])) @ V.T
            X = X + 1e-12 * rng.standard_normal((6, 6))
            np.testing.assert_allclose(psd_floor(X)[0], eigh_clip_oracle(X), rtol=0, atol=1e-13)

    def test_floor_exact_zero_eigenvalue_takes_eigh_path(self, monkeypatch):
        # PSD but singular: the Cholesky fails, eigh finds no negative eigenvalue
        X = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(X, lower=True)
        calls = []
        real_eigh = np.linalg.eigh

        def spy(A):
            calls.append(A)
            return real_eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        out, c = psd_floor(X)
        assert len(calls) == 1
        assert real_eigh(X)[0][0] >= 0.0
        assert np.array_equal(out, symmetrize(X))
        assert c is None


    def test_symmetric_copies_only_an_asymmetric_matrix(self):
        rng = np.random.default_rng(23)
        for S in (symmetrize(random_spd(rng, 6)), random_band_stack(rng, 4, 3)):
            assert symmetric(S) is S
            X = S.copy()
            X[..., 0, 1] += 1e-3
            assert np.array_equal(symmetric(X), symmetrize(X))


@pytest.mark.skipif(kronops._openblas is None, reason="NumPy bundles no OpenBLAS with the symbols")
class TestOpenBlas:
    """The ctypes helpers: a block of a Fortran-ordered array in place, and
    layouts and shapes LAPACK would misread rejected."""

    def test_block_of_fortran_array_inverted_in_place(self):
        rng = np.random.default_rng(24)
        c = factor(random_spd(rng, 9))
        root = np.asfortranarray(rng.standard_normal((12, 12)))
        root[2:11, 1:10] = c
        block = root[2:11, 1:10]
        outside = root.copy()
        assert kronops.dtrtri(block) == 0
        np.testing.assert_allclose(np.tril(block) @ np.tril(c), np.eye(9), atol=1e-12)
        outside[2:11, 1:10] = root[2:11, 1:10]
        assert np.array_equal(root, outside)  # nothing written outside the block
        # a C-ordered copy of the factor is refused, neither copied nor written
        c_rows = np.ascontiguousarray(c)
        with pytest.raises(ValueError, match="contiguous columns"):
            kronops.dtrtri(c_rows)
        assert np.array_equal(c_rows, c)
        read_only = np.asfortranarray(c)
        read_only.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            kronops.dtrtri(read_only)

    def test_operand_only_read_may_be_read_only(self):
        rng = np.random.default_rng(28)
        c = factor(random_spd(rng, 5))
        read_only = c.copy(order="F")
        read_only.flags.writeable = False
        b = np.asfortranarray(rng.standard_normal((5, 2)))
        results = []
        for a in (c, read_only):
            x, y = b.copy(order="F"), b.copy(order="F")
            assert kronops.dpotrs(a, x) == 0
            kronops.dtrmm(1.0, a, y)
            results.append((x, y))
        assert all(np.array_equal(u, v) for u, v in zip(*results))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="not square"):
            kronops.dpotrf(np.ones((2, 3), order="F"))
        with pytest.raises(ValueError, match="order 3"):
            kronops.dpotrs(np.eye(3, order="F"), np.ones((4, 1)))
        with pytest.raises(ValueError, match="order 3"):
            kronops.dtrmm(1.0, np.eye(3, order="F"), np.ones((4, 3), order="F"))
        b = np.ones((4, 3), order="F")
        kronops.dtrmm(2.0, np.eye(3, order="F"), b, side=1)
        assert np.array_equal(b, np.full((4, 3), 2.0))


def random_band_stack(rng, L, P, scale=1.0):
    X = rng.standard_normal((L, P, P))
    return scale * (X @ X.mT + P * np.eye(P))


class TestBandLayout:
    """A band stack through the covariance layer against its dense form
    through LAPACK."""

    L, P = 5, 3

    def test_blocks_and_dense_form_invert_each_other(self):
        rng = np.random.default_rng(40)
        S = random_band_stack(rng, self.L, self.P)
        dense = dense_form(S)
        for l in range(self.L):
            idx = np.arange(self.P) * self.L + l
            np.testing.assert_array_equal(dense[np.ix_(idx, idx)], S[l])
        assert np.count_nonzero(dense) == S.size
        assert np.array_equal(band_blocks(dense, self.L), S)
        assert band_blocks(S, self.L) is S and dense_form(dense) is dense

    def test_add_bands_into_either_layout(self):
        # a stack goes into a dense matrix's band entries, bit for bit as
        # adding its dense form; into a stack, and a dense matrix into a
        # dense one, it is the plain in-place sum
        rng = np.random.default_rng(41)
        S, X = random_band_stack(rng, self.L, self.P), random_band_stack(rng, self.L, self.P)
        dense = rng.standard_normal((self.L * self.P,) * 2)
        expected = dense + dense_form(S)
        add_bands(dense, S)
        assert np.array_equal(dense, expected)
        expected = X + S
        add_bands(X, S)
        assert np.array_equal(X, expected)
        expected = dense + dense_form(S)
        add_bands(dense, dense_form(S))
        assert np.array_equal(dense, expected)

    def test_factor_inverse_solve_logdet_match_dense(self):
        rng = np.random.default_rng(42)
        S = random_band_stack(rng, self.L, self.P)
        c = factor(S)
        c_dense = factor(dense_form(S))
        np.testing.assert_allclose(dense_form(c), np.tril(c_dense), rtol=0, atol=1e-13)
        inv = factor_inverse(c)
        assert np.array_equal(inv, inv.mT)
        ref = factor_inverse(c_dense)
        np.testing.assert_allclose(dense_form(inv), ref, rtol=0, atol=1e-13 * np.abs(ref).max())
        np.testing.assert_allclose(cho_logdet(c), cho_logdet(c_dense), rtol=1e-13)
        b = rng.standard_normal((self.P * self.L))
        np.testing.assert_allclose(cho_solve(c, b), cho_solve(c_dense, b), rtol=1e-12)

    @pytest.mark.parametrize("L, P", [(5, 3), (1, 4), (6, 1), (1, 1)])
    def test_vector_forms_match_dense(self, L, P):
        # a state vector through a stack: to rounding as through its dense
        # form, and bit for bit as the stack's own (L, P, 1) band columns
        rng = np.random.default_rng(44 + 10 * L + P)
        S = random_band_stack(rng, L, P)
        dense = dense_form(S)
        x = rng.standard_normal(P * L)
        columns = x.reshape(P, L).T[..., None]

        def as_vector(X):
            return X[..., 0].T.reshape(-1)

        y = matvec(S, x)
        assert y.shape == (P * L,) and np.array_equal(y, as_vector(S @ columns))
        np.testing.assert_allclose(y, dense @ x, rtol=1e-13, atol=1e-13 * np.abs(y).max())
        assert np.array_equal(matvec(dense, x), dense @ x)
        c = factor(S)
        z = cho_solve(c, x)
        assert z.shape == (P * L,) and np.array_equal(z, as_vector(cho_solve(c, columns)))
        np.testing.assert_allclose(z, cho_solve(factor(dense), x), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(14,), (15, 1), (5, 2, 1)])
    def test_mismatched_right_hand_side_on_a_stack_rejected(self, shape):
        c = factor(random_band_stack(np.random.default_rng(45), self.L, self.P))
        with pytest.raises(ValueError, match="right-hand side"):
            cho_solve(c, np.ones(shape))

    def test_one_indefinite_block_fails_the_stack(self):
        S = np.tile(np.eye(self.P), (self.L, 1, 1))
        S[3, 1, 1] = -1.0
        with pytest.raises(FactorizationError):
            factor(S)
        with pytest.raises(FactorizationError, match="after jitter retry"):
            cho_factor_jittered(S)

    def test_jitter_retry_on_a_singular_block(self):
        S = np.tile(np.eye(self.P), (self.L, 1, 1))
        S[2, 0, 0] = 0.0
        c = cho_factor_jittered(S)
        jitter = 1e-10 * (self.L * self.P - 1) / (self.L * self.P)
        assert c[2, 0, 0] == pytest.approx(np.sqrt(jitter))
        np.testing.assert_allclose(c[0], np.sqrt(1.0 + jitter) * np.eye(self.P), rtol=1e-15)

    def test_psd_floor_matches_dense(self):
        rng = np.random.default_rng(43)
        V, _ = np.linalg.qr(rng.standard_normal((self.L, self.P, self.P)))
        S = (V * np.array([-1.0, 0.5, 2.0])) @ V.mT
        floored = psd_floor(S)[0]
        np.testing.assert_allclose(
            dense_form(floored), psd_floor(dense_form(S))[0], rtol=0, atol=1e-13
        )
        assert np.linalg.eigvalsh(floored).min() >= -1e-14
        S_pd = random_band_stack(rng, self.L, self.P)
        assert np.array_equal(psd_floor(S_pd)[0], symmetrize(S_pd))


class NumpyLinalgRoute:
    """Runs the tests of the class it is mixed into with the OpenBLAS binding
    off, so dense matrices take ``numpy.linalg`` as where NumPy bundles no
    OpenBLAS (its Accelerate and MKL builds)."""

    @pytest.fixture(autouse=True)
    def numpy_linalg_route(self, monkeypatch):
        monkeypatch.setattr(kronops, "_openblas", None)


class TestChoInverseNumpyLinalg(NumpyLinalgRoute, TestChoInverse):
    pass


class TestChoFactorNumpyLinalg(NumpyLinalgRoute, TestChoFactor):
    pass


class TestPsdHelpersNumpyLinalg(NumpyLinalgRoute, TestPsdHelpers):
    pass


class TestBandLayoutNumpyLinalg(NumpyLinalgRoute, TestBandLayout):
    pass
