"""Command-line interface: flows, exit codes, stdout/stderr discipline."""

import dataclasses
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from mtunmix import cli, em
from mtunmix.cli import main
from mtunmix.errors import FactorizationError
from mtunmix.fcls import fcls_solve, project_simplex
from mtunmix.hseq import (
    HsiSequence,
    read_hseq,
    read_matrix,
    read_result_dir,
    write_hseq,
    write_matrix,
)
from mtunmix.kalman import Belief
from mtunmix.synth import SynthConfig, generate, synthetic_endmembers


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_out(out):
    return json.loads(out.strip().splitlines()[-1])


def strict_json(text):
    """``text`` parsed as a strict parser does, rejecting NaN and Infinity."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def tree_bytes(root):
    """{relative path: contents} of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def scaled_scene(tmp_path, scale):
    """The L=20, N=6, T=3, P=2 scene of seed 1 with its frames times ``scale``,
    and the file of the endmembers it was mixed from."""
    M0 = synthetic_endmembers(20, 2, seed=3)
    seq, _ = generate(SynthConfig(L=20, N=6, T=3, P=2, rng_seed=1), M0)
    data = tmp_path / "data"
    write_hseq(HsiSequence(frames=tuple(scale * f for f in seq.frames)), data, seed=1, P=2)
    write_matrix(tmp_path / "m0.f64", M0)
    return data, tmp_path / "m0.f64"


@pytest.fixture()
def small_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    code, stdout, _ = run_cli(
        capsys,
        "generate", "--L", "20", "--N", "12", "--T", "4", "--P", "3",
        "--snr-db", "30", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    return out, json_out(stdout)


class TestGenerate:
    def test_writes_sequence_and_truth(self, small_dataset):
        out, summary = small_dataset
        assert summary["L"] == 20 and summary["T"] == 4
        assert abs(summary["empirical_snr_db"] - 30.0) <= 0.8
        assert (out / "manifest.json").is_file()
        assert len(list(out.glob("frame_*.f64"))) == 4
        truth = read_result_dir(out / "truth")
        assert len(truth["abundances"]) == 4
        assert len(truth["frames"]) == 4
        assert (out / "config.json").is_file()

    def test_benchmark_dimensions(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code, stdout, _ = run_cli(
            capsys,
            "generate", "--L", "173", "--N", "50", "--T", "10", "--P", "3",
            "--snr-db", "30", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        files = list(out.glob("frame_*.f64"))
        assert len(files) == 10
        assert all(f.stat().st_size == 69200 for f in files)

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--L", "8", "--N", "4", "--T", "2", "--P", "2")
        assert code == 2
        assert "usage" in err.lower()

    def test_unwritable_path_exit_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        target = blocker / "sub" / "out"
        code, _, err = run_cli(
            capsys,
            "generate", "--L", "8", "--N", "4", "--T", "2", "--P", "2",
            "--seed", "0", "--out", str(target),
        )
        assert code == 3
        assert "blocker" in err

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 10, "N": 6, "T": 3, "P": 2, "snr_db": 25.0}))
        out = tmp_path / "cfgdata"
        code, stdout, _ = run_cli(
            capsys, "generate", "--config", str(cfg), "--seed", "3", "--out", str(out)
        )
        assert code == 0
        assert json_out(stdout)["L"] == 10
        assert abs(json_out(stdout)["empirical_snr_db"] - 25.0) <= 1.0

    @pytest.mark.parametrize(
        "key, value",
        [
            ("L", "10"),
            ("L", 10.5),
            ("L", True),
            ("snr_db", "x"),
            ("dirichlet_alpha", 5),
            ("dirichlet_alpha", [{}, 1]),
            # JSON true and false, though Python's bool is a numbers.Real
            ("F_scale", True),
            ("snr_db", False),
            ("q_var", True),
            ("abundance_jitter_std", False),
        ],
    )
    def test_config_value_of_wrong_type_exit_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 10, "N": 6, "T": 3, "P": 2, key: value}))
        code, _, err = run_cli(
            capsys, "generate", "--config", str(cfg), "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert key in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("content", ["5", "null", "[{}]", '"L"'])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, _, err = run_cli(
            capsys, "generate", "--config", str(cfg), "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert f"config file {cfg} must hold a JSON object" in err
        assert "Traceback" not in err

    def test_minus_infinite_snr_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "generate", "--L", "8", "--N", "4", "--T", "2", "--P", "2", "--snr-db=-inf",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "snr_db" in err
        assert not (tmp_path / "x").exists()

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 10, "N": 6, "T": 3, "P": 2, "bogus": 1}))
        code, _, err = run_cli(
            capsys, "generate", "--config", str(cfg), "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert "bogus" in err

    def test_config_values_win_over_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 10, "N": 6, "T": 3, "P": 2, "snr_db": 25.0}))
        out = tmp_path / "x"
        code, _, _ = run_cli(
            capsys, "generate", "--config", str(cfg), "--L", "12", "--snr-db", "40",
            "--q-var", "0.2", "--out", str(out),
        )
        assert code == 0
        echo = json.loads((out / "config.json").read_text())
        # the file's L and snr_db, the flag's q_var, SynthConfig's F_scale
        assert (echo["L"], echo["snr_db"], echo["q_var"], echo["F_scale"]) == (10, 25.0, 0.2, 0.9)

    def test_config_echo_without_its_seed_reproduces_the_run(self, tmp_path, capsys):
        first = tmp_path / "first"
        code, _, _ = run_cli(
            capsys, "generate", "--L", "10", "--N", "6", "--T", "2", "--P", "2",
            "--q-var", "0.05", "--seed", "7", "--out", str(first),
        )
        assert code == 0
        # the echo records rng_seed, which only --seed sets
        echo_path = first / "config.json"
        out = tmp_path / "x"
        code, stdout, err = run_cli(
            capsys, "generate", "--config", str(echo_path), "--out", str(out)
        )
        assert code == 2
        assert err.splitlines() == [
            f"invalid arguments: config file {echo_path} sets rng_seed; give the seed with --seed"
        ]
        assert stdout == "" and not out.exists()
        echo = json.loads(echo_path.read_text())
        assert echo.pop("rng_seed") == 7
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(echo))
        again = tmp_path / "again"
        code, _, _ = run_cli(
            capsys, "generate", "--config", str(cfg), "--seed", "7", "--out", str(again)
        )
        assert code == 0
        assert tree_bytes(again) == tree_bytes(first)

    def test_noise_free_outputs_are_strict_json(self, tmp_path, capsys):
        out = tmp_path / "clean"
        code, stdout, _ = run_cli(
            capsys,
            "generate", "--L", "8", "--N", "4", "--T", "2", "--P", "2", "--snr-db", "inf",
            "--out", str(out),
        )
        assert code == 0
        assert strict_json(stdout)["empirical_snr_db"] is None
        assert strict_json((out / "config.json").read_text())["snr_db"] is None

    def test_custom_endmember_file(self, tmp_path, capsys):
        M0 = synthetic_endmembers(14, 2, seed=3)
        m0_path = tmp_path / "custom.f64"
        write_matrix(m0_path, M0)
        out = tmp_path / "custom_data"
        code, stdout, _ = run_cli(
            capsys,
            "generate", "--L", "14", "--N", "5", "--T", "2", "--P", "2",
            "--m0", str(m0_path), "--snr-db", "100", "--q-var", "0",
            "--f-scale", "1", "--jitter-std", "0", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        truth = read_result_dir(out / "truth")
        np.testing.assert_allclose(truth["endmembers"][0], M0, rtol=1e-12)

    def test_m0_sidecar_band_count_checked(self, tmp_path, capsys):
        # 90 floats that would read as 45 x 2 spectra without the sidecar check
        m0_path = tmp_path / "m0.f64"
        write_matrix(m0_path, synthetic_endmembers(30, 3, seed=0))
        sidecar = tmp_path / "m0.f64.json"
        sidecar.write_text(json.dumps({"L": 30, "P": 3, "seed": 0}))
        out = tmp_path / "x"
        code, _, err = run_cli(
            capsys,
            "generate", "--L", "45", "--N", "5", "--T", "2", "--P", "2",
            "--m0", str(m0_path), "--out", str(out),
        )
        assert code == 2
        assert str(sidecar) in err and "30" in err and "45" in err
        assert "Traceback" not in err and not out.exists()

    def test_mc_replicas(self, tmp_path, capsys):
        out = tmp_path / "mc"
        code, stdout, _ = run_cli(
            capsys,
            "generate", "--L", "10", "--N", "6", "--T", "2", "--P", "2",
            "--seed", "5", "--mc", "3", "--out", str(out),
        )
        assert code == 0
        summary = json_out(stdout)
        assert [r["seed"] for r in summary["replicas"]] == [5, 6, 7]
        for i in range(3):
            assert (out / f"rep_{i:04d}" / "manifest.json").is_file()


class TestUnmix:
    def test_end_to_end_with_vca(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        out = tmp_path / "est"
        code, stdout, _ = run_cli(
            capsys,
            "unmix", "--input", str(data), "--vca", "--iters", "3",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        est = read_result_dir(out)
        assert len(est["abundances"]) == 4
        for A in est["abundances"]:
            np.testing.assert_allclose(A.sum(axis=0), 1.0, atol=1e-9)
            assert A.min() >= -1e-12
        diags = json.loads((out / "diagnostics.json").read_text())
        assert len(diags["loglik"]) == 4

    def test_zero_iters_rejected(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        code, _, err = run_cli(
            capsys,
            "unmix", "--input", str(data), "--vca", "--iters", "0",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "--iters" in err

    def test_m0_with_wrong_band_count_names_both(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        m0_path = tmp_path / "m0.f64"
        write_matrix(m0_path, synthetic_endmembers(16, 3, seed=0))
        m0_path.with_suffix(".f64.json").write_text(json.dumps({"L": 16, "P": 3, "seed": 0}))
        code, _, err = run_cli(
            capsys,
            "unmix", "--input", str(data), "--m0", str(m0_path),
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "16" in err and "20" in err

    def test_m0_sidecar_without_band_count_exit_2(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        m0_path = tmp_path / "m0.f64"
        write_matrix(m0_path, synthetic_endmembers(20, 3, seed=0))
        sidecar = tmp_path / "m0.f64.json"
        sidecar.write_text(json.dumps({"P": 3}))
        code, _, err = run_cli(
            capsys,
            "unmix", "--input", str(data), "--m0", str(m0_path),
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert str(sidecar) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["unmix", "fcls", "vca", "eval"])
    @pytest.mark.parametrize("key", ["L", "N", "P"])
    def test_manifest_dimension_below_one_exit_3(
        self, small_dataset, tmp_path, capsys, key, command
    ):
        data, _ = small_dataset
        for frame in data.glob("frame_*.f64"):
            frame.write_bytes(b"")  # the size of a frame with no bands or no pixels
        mpath = data / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest[key] = 0
        mpath.write_text(json.dumps(manifest))
        m0 = ["--m0", str(data / "truth" / "m0.f64")]
        argv = {
            "unmix": ["unmix", "--input", str(data), *m0],
            "fcls": ["fcls", "--input", str(data), *m0],
            "vca": ["unmix", "--input", str(data), "--vca"],
            "eval": ["eval", "--est", str(data), "--truth", str(data / "truth")],
        }[command]
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x"))
        assert code == 3
        assert f"{mpath} declares {key}=0" in err

    @pytest.mark.parametrize("value", [2.9, True, "3"])
    @pytest.mark.parametrize("key", ["L", "N", "T", "P", "seed"])
    def test_manifest_entry_not_an_integer_exit_3(
        self, small_dataset, tmp_path, capsys, key, value
    ):
        data, _ = small_dataset
        mpath = data / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest[key] = value
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "x"
        code, stdout, err = run_cli(
            capsys, "unmix", "--input", str(data), "--vca", "--out", str(out)
        )
        assert code == 3
        assert err.splitlines() == [
            f"i/o failure: {mpath} declares {key}={value!r}, not an integer"
        ]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command", ["generate", "unmix", "fcls"])
    def test_non_finite_m0_exit_2(self, small_dataset, tmp_path, capsys, command):
        data, _ = small_dataset
        M0 = synthetic_endmembers(20, 3, seed=9)
        M0[4, 1] = np.nan
        m0_path = tmp_path / "bad.f64"
        m0_path.write_bytes(M0.astype("<f8").tobytes(order="F"))  # write_matrix refuses NaN
        out = tmp_path / "x"
        if command == "generate":
            args = ["--L", "20", "--N", "4", "--T", "2", "--P", "3"]
        else:
            args = ["--input", str(data)]
        code, stdout, err = run_cli(
            capsys, command, *args, "--m0", str(m0_path), "--out", str(out)
        )
        assert code == 2
        assert err.splitlines() == [
            f"invalid arguments: endmember file {m0_path} holds non-finite entries"
        ]
        assert stdout == "" and not (out.exists() and any(out.rglob("*")))

    def test_factorization_failure_exit_4(self, small_dataset, tmp_path, capsys, monkeypatch):
        data, _ = small_dataset

        def failing(*args, **kwargs):
            raise FactorizationError("matrix of size 60 not positive definite at EM iteration 3")

        monkeypatch.setattr(cli, "run_kalman_em", failing)
        code, stdout, err = run_cli(
            capsys,
            "unmix", "--input", str(data), "--vca", "--out", str(tmp_path / "x"),
        )
        assert code == 4
        assert "EM iteration 3" in err and "Traceback" not in err
        assert stdout == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_exit_2(self, small_dataset, tmp_path, capsys, value):
        data, _ = small_dataset
        code, stdout, err = run_cli(
            capsys,
            "unmix", "--input", str(data), "--vca", "--lambda", value,
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "--lambda must be finite" in err and stdout == ""

    @pytest.mark.parametrize("scale", [1e80, 1e100])
    def test_overflowing_frames_exit_4(self, tmp_path, capsys, scale):
        # the log-likelihood overflows, or sigma_r2 turns NaN, in iteration 2
        data, m0 = scaled_scene(tmp_path, scale)
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(
                capsys, "unmix", "--input", str(data), "--m0", str(m0), "--out", str(out)
            )
        assert code == 4
        assert err.splitlines() == [
            "numerical abort: non-finite state encountered at EM iteration 2"
        ]
        assert caught == [] and stdout == ""
        assert not (out / "manifest.json").exists()

    def test_all_zero_frames_with_m0_exit_0(self, tmp_path, capsys):
        # no signal at all: the noise variance sits at its floor in every
        # iteration, and the abundances, endmembers and scaling factors
        # written stay finite
        data, m0 = scaled_scene(tmp_path, 0.0)
        out = tmp_path / "x"
        code, stdout, err = run_cli(
            capsys, "unmix", "--input", str(data), "--m0", str(m0), "--out", str(out)
        )
        assert code == 0 and err == ""
        assert json_out(stdout)["sigma_r2_final"] == em.SIGMA_R2_FLOOR
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert diagnostics["sigma_r2"] == [em.SIGMA_R2_FLOOR] * diagnostics["K_max"]
        est = read_result_dir(out)
        for key in ("abundances", "endmembers", "psis"):
            assert len(est[key]) == 3 and all(np.all(np.isfinite(X)) for X in est[key])

    def test_all_zero_frames_with_vca_exit_5(self, tmp_path, capsys):
        data, _ = scaled_scene(tmp_path, 0.0)
        out = tmp_path / "x"
        code, stdout, err = run_cli(
            capsys, "unmix", "--input", str(data), "--vca", "--out", str(out)
        )
        assert code == 5
        assert "numerical rank 0" in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_filtered_mean_exit_4(self, tmp_path, capsys, monkeypatch, value):
        # one entry of one filtered mean, in the second iteration's filter pass
        data, m0 = scaled_scene(tmp_path, 1.0)
        real, calls = em.run_filter, []

        def poisoned(ys, model, init):
            traj = real(ys, model, init)
            calls.append(None)
            if len(calls) < 2:
                return traj
            mean = traj.beliefs[2].mean.copy()
            mean[0] = value
            bad = Belief(mean=mean, cov=traj.beliefs[2].cov)
            return dataclasses.replace(traj, beliefs=traj.beliefs[:2] + (bad,) + traj.beliefs[3:])

        monkeypatch.setattr(em, "run_filter", poisoned)
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(
                capsys, "unmix", "--input", str(data), "--m0", str(m0), "--out", str(out)
            )
        assert code == 4
        assert err.splitlines() == [
            "numerical abort: non-finite state encountered at EM iteration 2"
        ]
        assert caught == [] and stdout == ""
        assert not (out / "manifest.json").exists()

    def test_clamp_psi_count_in_diagnostics(self, tmp_path, capsys):
        # the scene of the pipeline's clamp test, which has negative scaling factors
        M0 = synthetic_endmembers(8, 2, seed=6)
        seq, _ = generate(SynthConfig(L=8, N=6, T=3, P=2, rng_seed=6, q_var=0.5, snr_db=10.0), M0)
        data, m0_path = tmp_path / "data", tmp_path / "m0.f64"
        write_hseq(seq, data, P=2)
        write_matrix(m0_path, M0)
        runs = {}
        for name, flags in (("clamped", ["--clamp-psi"]), ("plain", [])):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys, "unmix", "--input", str(data), "--m0", str(m0_path), "--iters", "2",
                *flags, "--out", str(out),
            )
            assert code == 0
            diags = json.loads((out / "diagnostics.json").read_text())
            runs[name] = (diags["clamped_entries"], read_result_dir(out))
        (count, clamped), (plain_count, plain) = runs["clamped"], runs["plain"]
        assert count == sum(int(np.sum(psi < 0)) for psi in clamped["psis"]) > 0
        assert plain_count == 0
        for psi, psi_plain, M in zip(clamped["psis"], plain["psis"], clamped["endmembers"]):
            assert psi.tobytes() == psi_plain.tobytes()
            assert M.tobytes() == (M0 * np.maximum(psi, 0.0)).tobytes()

    def test_requires_m0_or_vca(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        code, _, err = run_cli(
            capsys, "unmix", "--input", str(data), "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert "--m0" in err or "--vca" in err

    def test_deterministic_output_bytes(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                "unmix", "--input", str(data), "--vca", "--iters", "2",
                "--seed", "7", "--out", str(out),
            )
            assert code == 0
            outs.append(out)
        files1 = sorted(p.name for p in outs[0].iterdir())
        files2 = sorted(p.name for p in outs[1].iterdir())
        assert files1 == files2
        for name in files1:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_explicit_p_overrides_manifest(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        out = tmp_path / "p2"
        code, stdout, _ = run_cli(
            capsys,
            "unmix", "--input", str(data), "--vca", "--p", "2", "--iters", "1",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert json_out(stdout)["P"] == 2
        est = read_result_dir(out)
        assert est["abundances"][0].shape == (2, 12)

    def test_vca_without_p_parses_the_manifest_once(self, small_dataset, tmp_path, capsys,
                                                    monkeypatch):
        data, _ = small_dataset
        real, reads = Path.read_text, []

        def counting(path, *args, **kwargs):
            if path.name == "manifest.json":
                reads.append(path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        code, _, _ = run_cli(
            capsys, "unmix", "--input", str(data), "--vca", "--iters", "1",
            "--out", str(tmp_path / "x"),
        )
        assert code == 0
        assert reads == [data / "manifest.json"]

    def generated(self, tmp_path, capsys, N, P):
        data = tmp_path / "data"
        code, _, _ = run_cli(
            capsys, "generate", "--L", "9", "--N", str(N), "--T", "3", "--P", str(P),
            "--seed", "2", "--out", str(data),
        )
        assert code == 0
        return data, data / "truth" / "m0.f64"

    def test_pixel_permuted_input_permutes_the_estimate(self, small_dataset, tmp_path, capsys):
        # to rounding: over 20 permutations the largest gaps, relative to the
        # largest entry, were 5.1e-15 (abundances), 2.9e-14 (scaling factors)
        # and 1.2e-14 (log-likelihoods)
        data, _ = small_dataset
        m0 = data / "truth" / "m0.f64"
        seq = read_hseq(data)
        perm = np.random.default_rng(7).permutation(seq.N)
        write_hseq(HsiSequence(frames=tuple(Y[:, perm] for Y in seq.frames)), tmp_path / "perm")
        est = {}
        for name in ("data", "perm"):
            out = tmp_path / f"est_{name}"
            code, _, _ = run_cli(
                capsys, "unmix", "--input", str(tmp_path / name), "--m0", str(m0),
                "--out", str(out),
            )
            assert code == 0
            est[name] = read_result_dir(out)
            est[name]["loglik"] = json.loads((out / "diagnostics.json").read_text())["loglik"]
        base, permuted = est["data"], est["perm"]
        for key, relabel in (("abundances", lambda A: A[:, perm]), ("psis", lambda X: X)):
            for got, want in zip(permuted[key], base[key]):
                atol = 1e-10 * np.abs(want).max()
                np.testing.assert_allclose(got, relabel(want), rtol=0, atol=atol)
        np.testing.assert_allclose(permuted["loglik"], base["loglik"], rtol=1e-11)

    def test_one_pixel(self, tmp_path, capsys):
        data, m0 = self.generated(tmp_path, capsys, N=1, P=3)
        out = tmp_path / "x"
        code, stdout, err = run_cli(
            capsys, "unmix", "--input", str(data), "--m0", str(m0), "--iters", "3",
            "--out", str(out),
        )
        assert code == 0 and err == ""
        assert np.isfinite(json_out(stdout)["loglik_final"])
        est = read_result_dir(out)
        for key in ("abundances", "endmembers"):
            assert all(np.all(np.isfinite(a)) for a in est[key])
        assert est["abundances"][0].shape == (3, 1)

    def test_one_material_end_to_end(self, tmp_path, capsys):
        # also at one pixel, where VCA can take no other P
        for N in (8, 1):
            root = tmp_path / f"N{N}"
            data, m0 = self.generated(root, capsys, N=N, P=1)
            runs = {
                "m0": ["unmix", "--input", str(data), "--m0", str(m0), "--iters", "3"],
                "vca": ["unmix", "--input", str(data), "--vca", "--p", "1", "--iters", "3"],
                "fcls": ["fcls", "--input", str(data), "--m0", str(m0)],
            }
            for name, argv in runs.items():
                out = root / name
                code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
                assert code == 0 and err == "", (N, name)
                assert json_out(stdout)["P"] == 1
                est = read_result_dir(out)
                for key in ("abundances", "endmembers"):
                    assert all(np.all(np.isfinite(a)) for a in est[key]), (N, name, key)
                for A in est["abundances"]:
                    np.testing.assert_allclose(A, np.ones((1, N)), rtol=0, atol=1e-9)
                code, stdout, _ = run_cli(
                    capsys, "eval", "--est", str(out), "--truth", str(data / "truth"),
                    "--out", str(root / f"{name}.json"),
                )
                assert code == 0
                assert all(np.isfinite(v) for v in json_out(stdout).values())

    def test_mc_replicas(self, tmp_path, capsys):
        gen = tmp_path / "gdata"
        code, _, _ = run_cli(
            capsys,
            "generate", "--L", "10", "--N", "6", "--T", "2", "--P", "2",
            "--seed", "4", "--mc", "2", "--out", str(gen),
        )
        assert code == 0
        out = tmp_path / "umc"
        code, stdout, _ = run_cli(
            capsys,
            "unmix", "--input", str(gen), "--vca", "--iters", "2",
            "--seed", "4", "--mc", "2", "--out", str(out),
        )
        assert code == 0
        assert [r["seed"] for r in json_out(stdout)["replicas"]] == [4, 5]
        # each replica's files are byte for byte those of a single run with its seed
        for i, seed in enumerate([4, 5]):
            rep = f"rep_{i:04d}"
            single = tmp_path / f"single_{i}"
            code, _, _ = run_cli(
                capsys,
                "unmix", "--input", str(gen / rep), "--vca", "--iters", "2",
                "--seed", str(seed), "--out", str(single),
            )
            assert code == 0
            files = tree_bytes(out / rep)
            assert {"manifest.json", "diagnostics.json", "abund_0001.f64"} <= files.keys()
            assert files == tree_bytes(single)


class TestRerunIntoUsedOut:
    """A command whose ``--out`` an earlier run wrote leaves none of that
    run's frame, abundance, endmember or scaling-factor series."""

    SERIES = ("frame_", "abund_", "endm_", "psi_")

    def generate(self, capsys, out, T):
        code, _, _ = run_cli(
            capsys,
            "generate", "--L", "20", "--N", "12", "--T", str(T), "--P", "3",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0

    def unmix(self, capsys, data, out):
        code, _, _ = run_cli(
            capsys, "unmix", "--input", str(data), "--vca", "--iters", "1", "--out", str(out)
        )
        assert code == 0

    def series(self, root):
        files = tree_bytes(root)
        return {name: data for name, data in files.items() if name.startswith(self.SERIES)}

    def test_unmix_of_a_shorter_sequence(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        short = tmp_path / "short"
        self.generate(capsys, short, T=2)
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        self.unmix(capsys, data, used)
        assert "psi_0003.f64" in tree_bytes(used)
        self.unmix(capsys, short, used)
        self.unmix(capsys, short, fresh)
        assert tree_bytes(used) == tree_bytes(fresh)
        assert len(read_result_dir(used)["psis"]) == 2

    def test_generate_of_a_shorter_sequence(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        fresh = tmp_path / "fresh"
        self.generate(capsys, data, T=2)
        self.generate(capsys, fresh, T=2)
        assert tree_bytes(data) == tree_bytes(fresh)
        assert "truth/frame_0002.f64" not in tree_bytes(data)

    def test_fcls_into_an_unmix_directory(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        self.unmix(capsys, data, used)
        m0 = ["--m0", str(data / "truth" / "m0.f64")]
        for out in (used, fresh):
            code, _, _ = run_cli(capsys, "fcls", "--input", str(data), *m0, "--out", str(out))
            assert code == 0
        assert "psis" not in read_result_dir(used)
        assert self.series(used) == self.series(fresh)


class TestReplicaFanOut:
    @pytest.mark.parametrize("mc", ["0", "-2"])
    @pytest.mark.parametrize("command", ["generate", "unmix"])
    def test_replica_count_below_one_exit_2(self, small_dataset, tmp_path, capsys, command, mc):
        data, _ = small_dataset
        argv = {
            "generate": ["generate", "--L", "8", "--N", "4", "--T", "2", "--P", "2"],
            "unmix": ["unmix", "--input", str(data), "--vca"],
        }[command]
        out = tmp_path / "x"
        code, stdout, err = run_cli(capsys, *argv, "--mc", mc, "--out", str(out))
        assert code == 2
        assert err.splitlines() == [f"invalid arguments: --mc must be >= 1, got {mc}"]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [("generate", []), ("generate", ["--mc", "2"]), ("unmix", []), ("unmix", ["--mc", "2"]),
         ("vca", [])],
    )
    def test_negative_seed_exit_2(self, small_dataset, tmp_path, capsys, command, extra):
        # checked before anything runs: the two-replica unmix has no replica inputs
        data, _ = small_dataset
        argv = {
            "generate": ["generate", "--L", "8", "--N", "4", "--T", "2", "--P", "2"],
            "unmix": ["unmix", "--input", str(data), "--vca"],
            "vca": ["vca", "--input", str(data), "--p", "2"],
        }[command]
        seed = "-3" if command == "unmix" else "-1"
        out = tmp_path / "x"
        code, stdout, err = run_cli(capsys, *argv, *extra, "--seed", seed, "--out", str(out))
        assert code == 2
        assert err.splitlines() == [f"invalid arguments: --seed must be >= 0, got {seed}"]
        assert stdout == "" and not out.exists()

    def test_missing_input_replica_exit_3_before_any_runs(self, tmp_path, capsys):
        gen = tmp_path / "gdata"
        code, _, _ = run_cli(
            capsys,
            "generate", "--L", "10", "--N", "6", "--T", "2", "--P", "2",
            "--mc", "2", "--out", str(gen),
        )
        assert code == 0
        out = tmp_path / "umc"
        code, stdout, err = run_cli(
            capsys, "unmix", "--input", str(gen), "--vca", "--mc", "3", "--out", str(out)
        )
        assert code == 3
        assert err.splitlines() == [
            f"i/o failure: missing replica directory {gen / 'rep_0002'}"
        ]
        assert stdout == "" and not out.exists()

    def generated_replicas(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        code, _, _ = run_cli(
            capsys,
            "generate", "--L", "20", "--N", "6", "--T", "3", "--P", "2",
            "--mc", "2", "--seed", "1", "--out", str(gen),
        )
        assert code == 0
        return gen

    def test_malformed_input_replica_exit_3_before_any_runs(self, tmp_path, capsys):
        gen = self.generated_replicas(tmp_path, capsys)
        manifest = gen / "rep_0001" / "manifest.json"
        declared = json.loads(manifest.read_text())
        manifest.write_text(json.dumps(dict(declared, L=2.9)))
        out = tmp_path / "um"
        code, stdout, err = run_cli(
            capsys, "unmix", "--input", str(gen), "--vca", "--p", "2", "--mc", "2",
            "--out", str(out),
        )
        assert code == 3
        assert err.splitlines() == [f"i/o failure: {manifest} declares L=2.9, not an integer"]
        assert stdout == "" and not out.exists()

    def test_each_replica_manifest_parsed_once(self, tmp_path, capsys, monkeypatch):
        gen = self.generated_replicas(tmp_path, capsys)
        real, reads = Path.read_text, []

        def counting(path, *args, **kwargs):
            if path.name == "manifest.json":
                reads.append(path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        code, _, _ = run_cli(
            capsys, "unmix", "--input", str(gen), "--vca", "--iters", "1", "--mc", "2",
            "--out", str(tmp_path / "um"),
        )
        assert code == 0
        assert sorted(reads) == [gen / f"rep_000{i}" / "manifest.json" for i in range(2)]


class TestReplicaPool:
    def record_pool_size(self, monkeypatch):
        sizes = []

        class Recording(cli.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
        return sizes

    def test_sized_by_the_affinity_mask(self, monkeypatch):
        sizes = self.record_pool_size(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert cli._run_replicas(pow, [(2, k) for k in range(5)]) == [1, 2, 4, 8, 16]
        assert cli._run_replicas(pow, [(3, 2)]) == [9]
        assert sizes == [2, 1]

    def test_cpu_count_without_affinity(self, monkeypatch):
        sizes = self.record_pool_size(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        cli._run_replicas(pow, [(2, k) for k in range(5)])
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        cli._run_replicas(pow, [(2, k) for k in range(5)])
        assert sizes == [3, 1]


class TestFcls:
    def test_feasible_and_matches_library(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        m0_path = tmp_path / "m0.f64"
        M0 = synthetic_endmembers(20, 3, seed=9)
        write_matrix(m0_path, M0)
        out = tmp_path / "fcls"
        code, _, _ = run_cli(
            capsys, "fcls", "--input", str(data), "--m0", str(m0_path), "--out", str(out)
        )
        assert code == 0
        est = read_result_dir(out)
        frame0 = read_matrix(data / "frame_0000.f64", 20, 12)
        for n in range(12):
            expected = fcls_solve(M0, frame0[:, n])
            np.testing.assert_array_equal(est["abundances"][0][:, n], expected)
        for M in est["endmembers"]:
            np.testing.assert_array_equal(M, M0)

    def test_identity_design_reproduces_projection(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        frames = (rng.standard_normal((3, 5)),)
        write_hseq(HsiSequence(frames=frames), tmp_path / "iddata", P=3)
        m0_path = tmp_path / "eye.f64"
        write_matrix(m0_path, np.eye(3))
        out = tmp_path / "idout"
        code, _, _ = run_cli(
            capsys, "fcls", "--input", str(tmp_path / "iddata"), "--m0", str(m0_path),
            "--out", str(out),
        )
        assert code == 0
        est = read_result_dir(out)
        np.testing.assert_allclose(est["abundances"][0], project_simplex(frames[0]), atol=1e-8)


class TestVca:
    def test_recovers_pure_pixels(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        M = synthetic_endmembers(15, 3, seed=1)
        A = np.hstack([rng.dirichlet(np.ones(3) * 4, size=30).T, np.eye(3)])
        Y = M @ A[:, rng.permutation(33)]
        write_hseq(HsiSequence(frames=(Y,)), tmp_path / "pure", P=3)
        out = tmp_path / "m0.f64"
        code, stdout, _ = run_cli(
            capsys, "vca", "--input", str(tmp_path / "pure"), "--p", "3",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        found = read_matrix(out, 15, 3)
        for k in range(3):
            dists = np.linalg.norm(found - M[:, k : k + 1], axis=0)
            assert dists.min() <= 1e-8
        sidecar = json.loads((tmp_path / "m0.f64.json").read_text())
        assert sidecar["L"] == 15 and sidecar["P"] == 3

    def test_determinism(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        paths = [tmp_path / "a.f64", tmp_path / "b.f64"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "vca", "--input", str(data), "--p", "3", "--seed", "6",
                "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_noisy_pick_feeds_unmix_m0(self, tmp_path, capsys):
        # at 5 dB VCA picks a spectrum with negative entries; `vca` clamps
        # them as `unmix --vca` does, so its file is a valid --m0 for the
        # same estimate
        data, m0 = tmp_path / "data", tmp_path / "m0.f64"
        steps = [
            ["generate", "--L", "30", "--N", "16", "--T", "3", "--P", "3", "--snr-db", "5",
             "--seed", "3", "--out", str(data)],
            ["vca", "--input", str(data), "--p", "3", "--seed", "2", "--out", str(m0)],
            ["unmix", "--input", str(data), "--m0", str(m0), "--seed", "2",
             "--out", str(tmp_path / "from_file")],
            ["unmix", "--input", str(data), "--vca", "--seed", "2",
             "--out", str(tmp_path / "from_vca")],
        ]
        for argv in steps:
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)
        frame0 = read_matrix(data / "frame_0000.f64", 30, 16)
        assert cli.vca_extract(frame0, 3, seed=2).min() < 0.0
        assert read_matrix(m0, 30, 3).min() >= 0.0
        from_file = tree_bytes(tmp_path / "from_file")
        assert len(from_file) > 10 and from_file == tree_bytes(tmp_path / "from_vca")

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_frame_outside_the_directory_exit_3(self, small_dataset, tmp_path, capsys, where):
        # a frame-sized file elsewhere must not be read as frame 0
        data, _ = small_dataset
        secret = tmp_path / "elsewhere" / "secret.f64"
        secret.parent.mkdir()
        secret.write_bytes((data / "frame_0000.f64").read_bytes())
        name = "../elsewhere/secret.f64" if where == "parent" else str(secret)
        data = data.rename(tmp_path / "data2")  # a sibling of elsewhere
        mpath = data / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["frames"][0] = name
        mpath.write_text(json.dumps(manifest))
        code, stdout, err = run_cli(
            capsys, "vca", "--input", str(data), "--p", "3", "--out", str(tmp_path / "m.f64")
        )
        assert code == 3
        assert f"lists frame {name!r}, not a plain file name" in err
        assert stdout == "" and not (tmp_path / "m.f64").exists()

    def test_rank_deficiency_exit_5(self, tmp_path, capsys):
        flat = np.outer(np.linspace(0.1, 1, 12), np.ones(9))
        write_hseq(HsiSequence(frames=(flat,)), tmp_path / "flat")
        code, _, err = run_cli(
            capsys, "vca", "--input", str(tmp_path / "flat"), "--p", "3",
            "--out", str(tmp_path / "m.f64"),
        )
        assert code == 5
        assert "rank" in err


class TestEval:
    def test_truth_against_itself_is_zero(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        out = tmp_path / "metrics.json"
        code, stdout, _ = run_cli(
            capsys, "eval", "--est", str(data / "truth"), "--truth", str(data / "truth"),
            "--out", str(out),
        )
        assert code == 0
        metrics = json.loads(out.read_text())
        for key in ("nrmse_a", "nrmse_m", "sam_m", "nrmse_y"):
            assert metrics[key] == pytest.approx(0.0, abs=1e-12)
            assert metrics[f"{key}_x100"] == pytest.approx(0.0, abs=1e-10)

    def test_zero_estimate_gives_unit_abundance_error(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        truth = read_result_dir(data / "truth")
        from mtunmix.hseq import write_result_dir

        est_dir = tmp_path / "zero_est"
        write_result_dir(
            est_dir, L=20, N=12, T=4, P=3,
            abundances=[np.zeros((3, 12))] * 4,
            endmembers=truth["endmembers"],
        )
        out = tmp_path / "m.json"
        code, stdout, _ = run_cli(
            capsys, "eval", "--est", str(est_dir), "--truth", str(data / "truth"),
            "--out", str(out),
        )
        assert code == 0
        assert json_out(stdout)["nrmse_a"] == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch_exit_2(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        other = tmp_path / "other"
        code, _, _ = run_cli(
            capsys,
            "generate", "--L", "20", "--N", "12", "--T", "3", "--P", "3",
            "--seed", "9", "--out", str(other),
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "eval", "--est", str(other / "truth"), "--truth", str(data / "truth"),
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "T=3" in err and "T=4" in err

    @pytest.mark.parametrize("est_p, truth_p", [(3, 2), (2, 3)])
    def test_material_count_mismatch_names_both_shapes(
        self, tmp_path, capsys, est_p, truth_p
    ):
        dirs = {}
        for P in (2, 3):
            dirs[P] = tmp_path / f"p{P}"
            code, _, _ = run_cli(
                capsys,
                "generate", "--L", "20", "--N", "12", "--T", "2", "--P", str(P),
                "--seed", "4", "--out", str(dirs[P]),
            )
            assert code == 0
        out = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "eval", "--est", str(dirs[est_p] / "truth"),
            "--truth", str(dirs[truth_p] / "truth"), "--out", str(out),
        )
        assert code == 2
        assert "(20, 2)" in err and "(20, 3)" in err
        assert "Traceback" not in err and not out.exists()

    def test_stdout_is_pure_json(self, small_dataset, tmp_path, capsys):
        data, _ = small_dataset
        code, stdout, _ = run_cli(
            capsys, "eval", "--est", str(data / "truth"), "--truth", str(data / "truth"),
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 0
        json.loads(stdout)  # a single JSON document, nothing else


class TestParser:
    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--bogus", "1")
        assert code == 2

    def test_unknown_command_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2
