"""Simplex projection and constrained least squares against exhaustive oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtunmix import fcls
from mtunmix.fcls import fcls_refine_frame, fcls_solve, project_simplex
from oracles import active_set_oracle, project_simplex_vector, projected_gradient_norm


def objective(M, y, a, lam=0.0, a_ref=None):
    r = y - M @ a
    return float(r @ r) + (lam * float((a - a_ref) @ (a - a_ref)) if lam > 0 else 0.0)


def projection_oracle(v):
    """Simplex projection via the exhaustive active-set QP (G = I, b = v)."""
    return active_set_oracle(np.eye(v.size), v)


def well_posed_design(rng, L, P, min_sv=0.3):
    """Random Gaussian design, rejection-sampled to a bounded condition number
    so the constrained optimum is unique and sharply located."""
    while True:
        M = rng.standard_normal((L, P))
        if np.linalg.svd(M, compute_uv=False)[-1] >= min_sv:
            return M


class TestProjectSimplex:
    def test_already_feasible(self):
        out = project_simplex(np.array([[0.3], [0.7]]))
        np.testing.assert_allclose(out, [[0.3], [0.7]], rtol=1e-15)

    def test_vertex(self):
        out = project_simplex(np.array([[2.0], [0.0]]))
        np.testing.assert_allclose(out, [[1.0], [0.0]], atol=1e-15)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        V = rng.uniform(-2, 2, size=(50, 5)).T
        out = project_simplex(V)
        for n in range(50):
            np.testing.assert_allclose(out[:, n], projection_oracle(V[:, n]), atol=1e-8)
        assert np.max(np.abs(out.sum(axis=0) - 1.0)) <= 1e-12
        assert out.min() >= 0.0

    def test_deterministic_on_ties(self):
        v = np.array([[0.5], [0.5], [-1.0]])
        a = project_simplex(v)
        b = project_simplex(v.copy())
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a, [[0.5], [0.5], [0.0]], atol=1e-15)

    def test_columns_bit_identical_to_one_vector_projection(self):
        # ties (repeated entries) included
        rng = np.random.default_rng(19)
        V = rng.uniform(-2, 2, size=(4, 40))
        V[1, ::2] = V[0, ::2]
        V[:, 5] = 0.25
        out = project_simplex(V)
        for n in range(V.shape[1]):
            np.testing.assert_array_equal(out[:, n], project_simplex_vector(V[:, n]))


class TestFclsSolve:
    def test_identity_design_feasible_optimum(self):
        out = fcls_solve(np.eye(2), np.array([0.3, 0.7]))
        np.testing.assert_allclose(out, [0.3, 0.7], atol=1e-9)

    def test_identity_design_reduces_to_projection(self):
        out = fcls_solve(np.eye(2), np.array([1.4, -0.2]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-9)

    def test_two_material_golden_section_oracle(self):
        rng = np.random.default_rng(1)
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        for _ in range(20):
            M = rng.standard_normal((4, 2))
            y = rng.standard_normal(4)

            def f(a1):
                a = np.array([a1, 1.0 - a1])
                r = y - M @ a
                return r @ r

            lo, hi = 0.0, 1.0
            c, d = hi - phi * (hi - lo), lo + phi * (hi - lo)
            for _ in range(200):
                if f(c) < f(d):
                    hi, d = d, c
                    c = hi - phi * (hi - lo)
                else:
                    lo, c = c, d
                    d = lo + phi * (hi - lo)
            a_oracle = np.array([(lo + hi) / 2, 1 - (lo + hi) / 2])
            out = fcls_solve(M, y)
            np.testing.assert_allclose(out, a_oracle, atol=1e-6)

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            P = int(rng.integers(2, 4))
            L = int(rng.integers(P + 1, 8))
            M = well_posed_design(rng, L, P)
            y = rng.standard_normal(L)
            out = fcls_solve(M, y)
            oracle = active_set_oracle(M, y)
            np.testing.assert_allclose(out, oracle, atol=1e-6)

    def test_kkt_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            P = int(rng.integers(2, 4))
            M = well_posed_design(rng, 5, P)
            y = rng.standard_normal(5)
            out = fcls_solve(M, y)
            assert projected_gradient_norm(M, y, out) <= 1e-7

    def test_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            M = rng.standard_normal((6, 3))
            y = rng.standard_normal(6)
            out = fcls_solve(M, y)
            assert abs(out.sum() - 1.0) <= 1e-9
            assert out.min() >= -1e-12

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        a1 = fcls_solve(M, y)
        a2 = fcls_solve(7.3 * M, 7.3 * y)
        np.testing.assert_allclose(a1, a2, atol=1e-8)

    def test_huge_regularizer_returns_reference(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((4, 3))
        y = rng.standard_normal(4)
        a_ref = np.array([0.2, 0.5, 0.3])
        out = fcls_solve(M, y, 1e12, a_ref)
        np.testing.assert_allclose(out, a_ref, atol=1e-9)

    def test_regularized_matches_active_set_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            M = well_posed_design(rng, 5, 3)
            y = rng.standard_normal(5)
            a_ref = rng.dirichlet(np.ones(3))
            lam = float(rng.uniform(0.01, 10))
            out = fcls_solve(M, y, lam, a_ref)
            oracle = active_set_oracle(M, y, lam=lam, a_ref=a_ref)
            np.testing.assert_allclose(out, oracle, atol=1e-6)

    def test_zero_design_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            fcls_solve(np.zeros((3, 2)), np.ones(3))


class TestFrameSolve:
    def test_lambda_zero_is_per_pixel_fcls(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((4, 5))
        M = rng.standard_normal((4, 3))
        frame = fcls_refine_frame(Y, M, None, 0.0)
        for n in range(5):
            col = fcls_solve(M, Y[:, n])
            np.testing.assert_array_equal(frame[:, n], col)

    def test_pixel_independence_bit_identical(self):
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((4, 6))
        M = rng.standard_normal((4, 2))
        A_ref = project_simplex(rng.standard_normal((2, 6)))
        frame = fcls_refine_frame(Y, M, A_ref, 0.5)
        for n in range(6):
            col = fcls_solve(M, Y[:, n], 0.5, A_ref[:, n])
            np.testing.assert_array_equal(frame[:, n], col)

    def test_huge_lambda_returns_feasible_reference(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((4, 5))
        M = rng.standard_normal((4, 3))
        A_ref = project_simplex(rng.standard_normal((3, 5)))
        frame = fcls_refine_frame(Y, M, A_ref, 1e12)
        np.testing.assert_allclose(frame, A_ref, atol=1e-9)

    def test_columns_kkt(self):
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((5, 4))
        M = rng.standard_normal((5, 3))
        A_ref = project_simplex(rng.standard_normal((3, 4)))
        frame = fcls_refine_frame(Y, M, A_ref, 0.1)
        for n in range(4):
            assert projected_gradient_norm(M, Y[:, n], frame[:, n], 0.1, A_ref[:, n]) <= 1e-7

    def test_negative_lambda_rejected(self):
        rng = np.random.default_rng(20)
        Y, M = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        A_ref = project_simplex(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError, match="nonnegative"):
            fcls_refine_frame(Y, M, A_ref, -5.0)
        with pytest.raises(ValueError, match="nonnegative"):
            fcls_solve(M, Y[:, 0], -5.0, A_ref[:, 0])

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        rng = np.random.default_rng(22)
        Y, M = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        A_ref = project_simplex(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fcls_refine_frame(Y, M, A_ref, lam)

    def test_positive_lambda_needs_a_reference(self):
        rng = np.random.default_rng(21)
        M, y = rng.standard_normal((4, 2)), rng.standard_normal(4)
        with pytest.raises(ValueError, match="reference"):
            fcls_solve(M, y, 0.5)

    def test_design_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            fcls_refine_frame(np.ones((3, 2)), np.ones(3), None, 0.0)

    @pytest.mark.parametrize("K", [1, 2, 7, 173])
    def test_apply_is_matmul_per_column(self, K):
        # a fixed summation tree: rounding-level agreement with BLAS, and each
        # column bit-identical to the product with that column alone
        rng = np.random.default_rng(K)
        W, X = rng.standard_normal((3, K)), rng.standard_normal((K, 9))
        out = fcls._apply(W, X)
        bound = 4 * K * np.finfo(float).eps * (np.abs(W) @ np.abs(X))
        assert np.all(np.abs(out - W @ X) <= bound)
        for n in range(9):
            np.testing.assert_array_equal(out[:, n], fcls._apply(W, X[:, n : n + 1])[:, 0])
        np.testing.assert_array_equal(out, fcls._apply(np.asfortranarray(W), np.asfortranarray(X)))

    def test_single_column_frame(self):
        rng = np.random.default_rng(12)
        M = well_posed_design(rng, 6, 3)
        y = rng.standard_normal((6, 1))
        frame = fcls_refine_frame(y, M, None, 0.0)
        assert frame.shape == (3, 1)
        np.testing.assert_allclose(frame[:, 0], active_set_oracle(M, y[:, 0]), atol=1e-9)


# a projected-gradient solver with a stall test that counts any bitwise
# fixed point or 2-cycle as converged stopped at the vertex e2 on this
# problem, 2.5e-3 from the minimizer (0, 0.99746, 0.00254)
STALL_M = np.array([
    [0.5807800169766768, 0.5668327413091219, 1.2791146580038322],
    [0.8951879195744101, 0.5286638273919173, 0.23162153472823688],
    [0.9077109260063496, 2.715339401294851, 0.6655614156828586],
    [0.71512953790003, 1.0736433447310327, 0.4521890298742729],
    [1.329336359709089, 1.8795630078154344, 1.1963676229499327],
])
STALL_Y = np.array(
    [0.6473193676205643, 0.5284723648822144, 2.7490271884128226,
     1.0737788433519309, 1.8413668722679157]
)


class TestDegenerateInputs:
    def test_momentum_stall_problem_reaches_the_minimizer(self):
        out = fcls_solve(STALL_M, STALL_Y)
        np.testing.assert_allclose(out, active_set_oracle(STALL_M, STALL_Y), atol=1e-9)

    def test_single_material_is_the_vertex(self):
        rng = np.random.default_rng(13)
        Y, M = rng.standard_normal((4, 5)), rng.standard_normal((4, 1))
        frame = fcls_refine_frame(Y, M, None, 0.0)
        np.testing.assert_array_equal(frame, np.ones((1, 5)))

    def test_identical_endmembers(self):
        # every support holding both copies has a singular KKT matrix; the
        # minimizer is not unique, but its objective and the copies' total are
        rng = np.random.default_rng(14)
        base = well_posed_design(rng, 7, 3)
        M = base[:, [0, 1, 2, 1]]
        Y = rng.standard_normal((7, 6))
        frame = fcls_refine_frame(Y, M, None, 0.0)
        assert frame.min() >= 0.0
        np.testing.assert_allclose(frame.sum(axis=0), 1.0, atol=1e-12)
        for n in range(6):
            oracle = active_set_oracle(M, Y[:, n])
            assert objective(M, Y[:, n], frame[:, n]) <= objective(M, Y[:, n], oracle) + 1e-10
            folded = frame[[0, 1, 2], n] + np.array([0.0, frame[3, n], 0.0])
            np.testing.assert_allclose(folded, active_set_oracle(base, Y[:, n]), atol=1e-8)

    def test_all_zero_frame(self):
        rng = np.random.default_rng(15)
        M = well_posed_design(rng, 6, 4)
        frame = fcls_refine_frame(np.zeros((6, 3)), M, None, 0.0)
        oracle = active_set_oracle(M, np.zeros(6))
        for n in range(3):
            np.testing.assert_allclose(frame[:, n], oracle, atol=1e-9)

    def test_zero_design_rejected_in_a_frame(self):
        with pytest.raises(ValueError, match="nonzero"):
            fcls_refine_frame(np.ones((3, 4)), np.zeros((3, 2)), None, 0.0)

    def test_one_dimensional_frame_rejected(self):
        with pytest.raises(ValueError, match="frame must be a matrix"):
            fcls_refine_frame(np.ones(3), np.ones((3, 2)), None, 0.0)

    @pytest.mark.parametrize("where", ["design", "frame", "reference"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, where, value):
        rng = np.random.default_rng(23)
        inputs = {
            "frame": rng.standard_normal((4, 3)),
            "design": rng.standard_normal((4, 2)),
            "reference": project_simplex(rng.standard_normal((2, 3))),
        }
        inputs[where][1, 1] = value
        with pytest.raises(ValueError, match=f"{where} must be finite"):
            fcls_refine_frame(inputs["frame"], inputs["design"], inputs["reference"], 0.5)

    def test_iteration_cap_warns(self, monkeypatch):
        # with no steps allowed the column stays at its best vertex
        monkeypatch.setattr(fcls, "ITERATIONS_PER_MATERIAL", 0)
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            out = fcls_solve(STALL_M, STALL_Y)
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])

    def test_singular_support_solves_to_nan(self):
        singular = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        out = fcls._solve_supports(np.array([np.eye(3), singular]), np.ones((2, 3)))
        np.testing.assert_array_equal(out[0], 1.0)
        assert np.isnan(out[1]).all()

    def test_singular_support_leaves_its_column_in_place(self, monkeypatch):
        rng = np.random.default_rng(24)
        M = well_posed_design(rng, 6, 4)
        Y = rng.standard_normal((6, 5))
        expected = fcls_refine_frame(Y, M, None, 0.0)
        real, calls = fcls._solve_supports, []

        def first_system_singular(K, rhs):
            out = real(K, rhs)
            if not calls:
                calls.append(None)
                out[0] = np.nan
            return out

        monkeypatch.setattr(fcls, "_solve_supports", first_system_singular)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frame = fcls_refine_frame(Y, M, None, 0.0)
        assert calls
        # the first column to take a step is the first whose vertex is not optimal
        first = np.flatnonzero(np.sum(expected == 1.0, axis=0) == 0)[0]
        vertex = np.argmin(np.diag(M.T @ M) - 2.0 * (M.T @ Y[:, first]))
        np.testing.assert_array_equal(frame[:, first], np.eye(4)[vertex])
        others = np.arange(5) != first
        np.testing.assert_array_equal(frame[:, others], expected[:, others])


class TestLargeP:
    """P where enumerating supports (2^P of them) is out of reach."""

    def problem(self, seed, P, N):
        rng = np.random.default_rng(seed)
        M = well_posed_design(rng, 2 * P, P)
        A_ref = rng.dirichlet(np.ones(P), size=N).T
        A = rng.dirichlet(np.full(P, 0.3), size=N).T
        Y = M @ A + 0.3 * rng.standard_normal((2 * P, N))
        return M, Y, A_ref

    @pytest.mark.parametrize("P", [13, 16, 24])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_kkt_and_feasibility(self, P, lam):
        M, Y, A_ref = self.problem(P, P, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frame = fcls_refine_frame(Y, M, A_ref, lam)
        for n in range(20):
            assert projected_gradient_norm(M, Y[:, n], frame[:, n], lam, A_ref[:, n]) <= 1e-9
        assert np.max(np.abs(frame.sum(axis=0) - 1.0)) <= 1e-12 and frame.min() >= 0.0

    def test_regularized_matches_active_set_oracle(self):
        M, Y, A_ref = self.problem(16, 13, 3)
        frame = fcls_refine_frame(Y, M, A_ref, 0.5)
        for n in range(3):
            oracle = active_set_oracle(M, Y[:, n], lam=0.5, a_ref=A_ref[:, n])
            np.testing.assert_allclose(frame[:, n], oracle, atol=1e-6)
            assert abs(frame[:, n].sum() - 1.0) <= 1e-9 and frame[:, n].min() >= 0.0

    def test_columns_bit_identical_to_single_solves(self):
        M, Y, A_ref = self.problem(17, 13, 5)
        frame = fcls_refine_frame(Y, M, A_ref, 0.2)
        for n in range(5):
            col = fcls_solve(M, Y[:, n], 0.2, A_ref[:, n])
            np.testing.assert_array_equal(frame[:, n], col)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    P=st.integers(1, 8),
    extra_bands=st.integers(0, 5),
    N=st.integers(1, 8),
    lam=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
)
def test_frame_solver_matches_oracle(seed, P, extra_bands, N, lam):
    rng = np.random.default_rng(seed)
    M = well_posed_design(rng, P + extra_bands, P)
    Y = rng.standard_normal((M.shape[0], N))
    A_ref = rng.dirichlet(np.ones(P), size=N).T
    frame = fcls_refine_frame(Y, M, A_ref, lam)
    for n in range(N):
        oracle = active_set_oracle(M, Y[:, n], lam=lam, a_ref=A_ref[:, n])
        assert np.max(np.abs(frame[:, n] - oracle)) <= 1e-6
        assert projected_gradient_norm(M, Y[:, n], frame[:, n], lam, A_ref[:, n]) <= 1e-7
        assert max(abs(frame[:, n].sum() - 1.0), -frame[:, n].min()) <= 1e-9
