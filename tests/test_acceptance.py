"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to watch the
per-criterion lines stream).
"""

import sys
import time

import numpy as np
import pytest

from mtunmix import cli
from mtunmix.cli import main as cli_main
from mtunmix.em import EmParams, accumulate_stats, em_iterate, m_step_abundance
from mtunmix.fcls import fcls_refine_frame, fcls_solve
from mtunmix.hseq import GlmmModel
from mtunmix.kalman import Belief, ModelMatrices, rts_smooth, run_filter, update
from mtunmix.metrics import align_endmember_sequences, apply_permutation, nrmse, sam
from mtunmix.pipeline import PipelineConfig, default_init, run_kalman_em
from mtunmix.synth import SynthConfig, empirical_snr_db, generate, synthetic_endmembers
from mtunmix.vca import vca_extract
from oracles import (
    active_set_oracle,
    dense_B,
    literal_stats_oracle,
    marginal_loglik,
    nkp_decompose,
    obs_state_outer,
    projected_gradient_norm,
)


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}", file=sys.stderr, flush=True)
    assert ok, f"criterion {num} failed: {description}{suffix}"


def random_spd(rng, n, scale=1.0):
    X = rng.standard_normal((n, n))
    return scale * (X @ X.T + n * np.eye(n))


def random_model(rng, L, N, P):
    return ModelMatrices(
        A=rng.standard_normal((P, N)),
        m0=rng.uniform(0.2, 1.0, L * P),
        Q=random_spd(rng, P * L, 0.2 / (P * L)),
        sigma_r2=float(rng.uniform(0.1, 1.0)),
    )


def rel_err(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(np.linalg.norm(b), 1e-300)


def test_criterion_1_woodbury_equivalence():
    rng = np.random.default_rng(101)
    L, N, P = 4, 3, 2
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        model = random_model(rng, L, N, P)
        pred = Belief(mean=rng.standard_normal(P * L), cov=random_spd(rng, P * L))
        y = rng.standard_normal(N * L)
        post, _, _ = update(pred, y, model)
        B = dense_B(model)
        S = B @ pred.cov @ B.T + model.sigma_r2 * np.eye(N * L)
        K = pred.cov @ B.T @ np.linalg.inv(S)
        mean_ref = pred.mean + K @ (y - B @ pred.mean)
        cov_ref = pred.cov - K @ S @ K.T
        worst = max(worst, rel_err(post.mean, mean_ref), rel_err(post.cov, cov_ref))
    elapsed = time.perf_counter() - start
    report(
        1,
        "Woodbury update equals dense textbook update",
        worst <= 1e-8 and elapsed < 5.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_smoother_equals_batch_map():
    rng = np.random.default_rng(102)
    L, N, P, T = 3, 2, 2, 6
    d = P * L
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        model = random_model(rng, L, N, P)
        init = Belief(mean=rng.standard_normal(d), cov=random_spd(rng, d))
        ys = [rng.standard_normal(N * L) for _ in range(T)]
        means = rts_smooth(run_filter(ys, model, init))
        B = dense_B(model)
        H = np.zeros(((T + 1) * d, (T + 1) * d))
        g = np.zeros((T + 1) * d)
        H[:d, :d] += np.linalg.inv(init.cov)
        g[:d] += np.linalg.solve(init.cov, init.mean)
        Qinv = np.linalg.inv(model.Q)
        for t in range(1, T + 1):
            i, j = t * d, (t - 1) * d
            H[i : i + d, i : i + d] += Qinv + (B.T @ B) / model.sigma_r2
            H[j : j + d, j : j + d] += Qinv
            H[i : i + d, j : j + d] -= Qinv
            H[j : j + d, i : i + d] -= Qinv
            g[i : i + d] += (B.T @ ys[t - 1]) / model.sigma_r2
        x = np.linalg.solve(H, g)
        worst = max(worst, rel_err(means[0], x[:d]))
        for t in range(T):
            worst = max(worst, rel_err(means[t + 1], x[(t + 1) * d : (t + 2) * d]))
    elapsed = time.perf_counter() - start
    report(
        2,
        "RTS smoothed means equal the batch MAP solve",
        worst <= 1e-6 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_em_ascent():
    rng = np.random.default_rng(103)
    L, N, P, T = 5, 4, 2, 8
    start = time.perf_counter()
    worst_drop = 0.0
    for _ in range(50):
        model = random_model(rng, L, N, P)
        init = Belief(mean=rng.standard_normal(P * L), cov=random_spd(rng, P * L, 1.0 / (P * L)))
        ys = [rng.standard_normal(N * L) for _ in range(T)]
        theta = EmParams(
            A=model.A, P00=init.cov, Q=model.Q, sigma_r2=model.sigma_r2, psi00=init.mean
        )
        lls = []
        for _k in range(5):
            theta, loglik, _, _ = em_iterate(ys, model.m0, theta)
            lls.append(loglik)
        mm = ModelMatrices(A=theta.A, m0=model.m0, Q=theta.Q, sigma_r2=theta.sigma_r2)
        lls.append(marginal_loglik(ys, mm, Belief(mean=theta.psi00, cov=theta.P00)))
        for prev, cur in zip(lls, lls[1:]):
            worst_drop = max(worst_drop, prev - cur)
    elapsed = time.perf_counter() - start
    report(
        3,
        "marginal log-likelihood non-decreasing over 5 EM iterations",
        worst_drop <= 1e-9 and elapsed < 30.0,
        f"worst drop {worst_drop:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_abundance_m_step_optimality():
    rng = np.random.default_rng(104)
    L, N, P, T = 3, 3, 2, 5
    worst_gd = worst_grad = worst_nkp = 0.0
    for _ in range(20):
        model = random_model(rng, L, N, P)
        init = Belief(mean=rng.standard_normal(P * L), cov=random_spd(rng, P * L, 1.0 / (P * L)))
        ys = [rng.standard_normal(N * L) for _ in range(T)]
        traj = run_filter(ys, model, init)
        means = rts_smooth(traj)
        S1 = literal_stats_oracle(traj, ys, model)["S1"]  # before the pass spends traj
        stats, _ = accumulate_stats(traj, means, ys, model)
        A_hat = m_step_abundance(stats)

        Tb = stats.gram_block_trace
        U = stats.cross_block_trace
        Hm = Tb + Tb.T
        step = 1.0 / np.linalg.norm(Hm, 2)
        A_gd = np.zeros((P, N))
        for _i in range(200000):
            grad = Hm @ A_gd - 2.0 * U.T
            if np.linalg.norm(grad) <= 1e-10:
                break
            A_gd -= step * grad
        worst_gd = max(worst_gd, rel_err(A_hat, A_gd))

        def cost(A):
            return float(np.einsum("ij,ji->", A @ A.T, Tb)) - 2.0 * float(np.sum(A * U.T))

        h = 1e-6
        grad_fd = np.zeros_like(A_hat)
        for i in range(P):
            for j in range(N):
                Ap, Am = A_hat.copy(), A_hat.copy()
                Ap[i, j] += h
                Am[i, j] -= h
                grad_fd[i, j] = (cost(Ap) - cost(Am)) / (2 * h)
        worst_grad = max(worst_grad, np.linalg.norm(grad_fd) / np.linalg.norm(Hm, 2))

        D0 = np.diag(model.m0)
        S1t = D0 @ S1 @ D0
        S3t = obs_state_outer(means, ys) @ D0
        t1 = nkp_decompose(S1t, L, L, K=min(P * P, L * L))
        t3 = nkp_decompose(S3t, L, L, K=min(N * P, L * L))
        lhs = sum(np.trace(D) * (C + C.T) for C, D in zip(t1.left_factors, t1.right_factors))
        rhs = 2.0 * sum(np.trace(D.T) * C.T for C, D in zip(t3.left_factors, t3.right_factors))
        worst_nkp = max(worst_nkp, rel_err(A_hat, np.linalg.solve(lhs, rhs)))
    report(
        4,
        "abundance M-step matches numerical minimizer, stationarity, and NKP route",
        worst_gd <= 1e-6 and worst_grad <= 1e-6 and worst_nkp <= 1e-9,
        f"gd {worst_gd:.2e}, fd-grad {worst_grad:.2e}, nkp {worst_nkp:.2e}",
    )


def test_criterion_5_nkp_decomposition():
    rng = np.random.default_rng(105)
    worst_full = worst_tail = 0.0
    for _ in range(20):
        m = n = int(rng.integers(2, 4))
        p = q = int(rng.integers(2, 5))
        S = rng.standard_normal((m * p, n * q))
        full = nkp_decompose(S, p, q, K=min(m * n, p * q))
        worst_full = max(
            worst_full, np.linalg.norm(S - full.reconstruct()) / np.linalg.norm(S)
        )
        R = S.reshape(m, p, n, q).transpose(0, 2, 1, 3).reshape(m * n, p * q)
        svals = np.linalg.svd(R, compute_uv=False)
        tail = np.sqrt(np.sum(svals[1:] ** 2))
        rank1 = nkp_decompose(S, p, q, K=1)
        err = np.linalg.norm(S - rank1.reconstruct())
        worst_tail = max(worst_tail, abs(err - tail) / max(tail, 1e-300))
    report(
        5,
        "NKP full-rank reconstruction and rank-1 tail error",
        worst_full <= 1e-10 and worst_tail <= 1e-10,
        f"full {worst_full:.2e}, tail {worst_tail:.2e}",
    )


def test_criterion_6_fcls_correctness():
    rng = np.random.default_rng(106)
    worst_kkt = worst_agree = worst_feas = 0.0
    for _ in range(200):
        P = int(rng.integers(2, 4))
        L = int(rng.integers(P + 1, 9))
        while True:
            M = rng.standard_normal((L, P))
            if np.linalg.svd(M, compute_uv=False)[-1] >= 0.3:
                break
        y = rng.standard_normal(L)
        a = fcls_solve(M, y)
        worst_kkt = max(worst_kkt, projected_gradient_norm(M, y, a))
        worst_agree = max(
            worst_agree, float(np.max(np.abs(a - active_set_oracle(M, y))))
        )
        worst_feas = max(worst_feas, abs(a.sum() - 1.0), max(0.0, -a.min()))
    report(
        6,
        "FCLS KKT residual, oracle agreement, and feasibility on 200 problems",
        worst_kkt <= 1e-7 and worst_agree <= 1e-6 and worst_feas <= 1e-9,
        f"kkt {worst_kkt:.2e}, agree {worst_agree:.2e}, feas {worst_feas:.2e}",
    )


def _benchmark_replica(i):
    """One benchmark replica: generator, both estimators, aligned scores."""
    L, N, T, P = 173, 50, 10, 3
    M0_true = synthetic_endmembers(L, P, seed=9000 + i)
    cfg = SynthConfig(L=L, N=N, T=T, P=P, rng_seed=100 + i)  # 30 dB, F=0.9, q_var=0.01
    seq, truth = generate(cfg, M0_true)

    M0_hat = np.maximum(vca_extract(seq.frames[0], P, seed=200 + i), 0.0)
    A0 = fcls_refine_frame(seq.frames[0], M0_hat, None, 0.0)
    config = PipelineConfig(init=default_init(L, N, P, A0), K_max=5, lam=1e-8)
    result = run_kalman_em(seq, GlmmModel(M0=M0_hat), config)

    fcls_maps = [fcls_refine_frame(f, M0_hat, None, 0.0) for f in seq.frames]

    perm_p = align_endmember_sequences(truth.endmembers, result.endmembers)
    em_p, ab_p = apply_permutation(
        perm_p, endmembers=result.endmembers, abundances=result.abundances.maps
    )
    fixed = [M0_hat] * T
    perm_f = align_endmember_sequences(truth.endmembers, fixed)
    em_f, ab_f = apply_permutation(perm_f, endmembers=fixed, abundances=fcls_maps)

    lls = result.diagnostics["loglik"]
    return {
        "nrmse_a_prop": nrmse(truth.abundances, ab_p),
        "nrmse_a_fcls": nrmse(truth.abundances, ab_f),
        "nrmse_m_prop": nrmse(truth.endmembers, em_p),
        "nrmse_m_fixed": nrmse(truth.endmembers, em_f),
        "sam_prop": sam(truth.endmembers, em_p),
        "sam_fixed": sam(truth.endmembers, em_f),
        "min_ascent": min(b - a for a, b in zip(lls, lls[1:])),
    }


def test_criterion_7_benchmark_ordering():
    start = time.perf_counter()
    replicas = 25
    # the command line's replica pool: one thread per CPU, BLAS on one thread
    rows = cli._run_replicas(_benchmark_replica, [(i,) for i in range(replicas)])
    elapsed = time.perf_counter() - start

    mean = {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}
    ratio_a = mean["nrmse_a_prop"] / mean["nrmse_a_fcls"]
    ratio_m = mean["nrmse_m_prop"] / mean["nrmse_m_fixed"]
    worst_ascent = min(r["min_ascent"] for r in rows)
    ok = (
        ratio_a <= 0.8
        and ratio_m <= 0.9
        and mean["sam_prop"] < mean["sam_fixed"]
        and worst_ascent >= -1e-9
        and elapsed < 900.0
    )
    report(
        7,
        "benchmark ordering over 25 Monte-Carlo replicas",
        ok,
        f"NRMSE_A {mean['nrmse_a_prop']:.4f}/{mean['nrmse_a_fcls']:.4f}={ratio_a:.3f}, "
        f"NRMSE_M {mean['nrmse_m_prop']:.4f}/{mean['nrmse_m_fixed']:.4f}={ratio_m:.3f}, "
        f"SAM {mean['sam_prop']:.4f} vs {mean['sam_fixed']:.4f}, {elapsed:.0f}s",
    )


def test_criterion_8_generator_fidelity():
    M0 = synthetic_endmembers(173, 3, seed=777)
    snr_devs, stds = [], []
    for seed in range(20):
        cfg = SynthConfig(L=173, N=50, T=10, P=3, rng_seed=seed)
        _, truth = generate(cfg, M0)
        snr_devs.append(abs(empirical_snr_db(truth.clean_frames, truth.noisy_frames) - 30.0))
        stds.append(float(np.mean(np.std(np.stack(truth.abundances), axis=0))))
    worst_snr = max(snr_devs)
    mean_std = float(np.mean(stds))
    report(
        8,
        "generator SNR within 0.5 dB and abundance temporal std in band",
        worst_snr <= 0.5 and 1.5e-3 <= mean_std <= 4.5e-3,
        f"max |SNR-30| {worst_snr:.3f} dB, mean temporal std {mean_std:.2e}",
    )


def test_criterion_9_metric_identities():
    rng = np.random.default_rng(109)
    X = [rng.standard_normal((5, 4)) for _ in range(3)]
    M = [np.abs(rng.standard_normal((6, 3))) + 0.1 for _ in range(2)]
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    checks = [
        abs(nrmse(X, X)),
        abs(nrmse(X, [np.zeros_like(x) for x in X]) - 1.0),
        abs(sam(M, M)),
        abs(sam([e1], [e2]) - np.pi / 2),
    ]
    report(
        9,
        "metric identities (nrmse 0/1, sam 0/pi/2)",
        max(checks) <= 1e-12,
        f"max deviation {max(checks):.2e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    data = tmp_path / "data"
    code = cli_main(
        ["generate", "--L", "20", "--N", "12", "--T", "4", "--P", "3",
         "--seed", "3", "--out", str(data)]
    )
    assert code == 0
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli_main(
            ["unmix", "--input", str(data), "--vca", "--iters", "3",
             "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    names1 = sorted(p.name for p in outs[0].iterdir())
    names2 = sorted(p.name for p in outs[1].iterdir())
    identical = names1 == names2 and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names1
    )
    report(
        10,
        "repeated unmix runs produce byte-identical output directories",
        identical,
        f"{len(names1)} files compared",
    )
