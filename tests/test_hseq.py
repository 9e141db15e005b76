"""Array types, vectorization convention, and HSEQ round-trips."""

import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtunmix import hseq
from mtunmix.errors import SequenceFormatError
from mtunmix.hseq import (
    GlmmModel,
    HsiSequence,
    devectorize_frame,
    read_hseq,
    read_manifest,
    read_matrix,
    series_file_name,
    vectorize_frame,
    write_hseq,
    write_matrix,
    write_result_dir,
)


class TestVectorize:
    def test_column_stacking_definition(self):
        Y = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(vectorize_frame(Y), [1.0, 2.0, 3.0, 4.0])

    def test_single_row(self):
        Y = np.array([[5.0, 6.0, 7.0]])
        np.testing.assert_array_equal(vectorize_frame(Y), [5.0, 6.0, 7.0])

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            L, N = rng.integers(1, 9, size=2)
            Y = rng.standard_normal((L, N))
            np.testing.assert_array_equal(devectorize_frame(vectorize_frame(Y), L, N), Y)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        X, Y = rng.standard_normal((2, 4, 3))
        a, b = rng.standard_normal(2)
        np.testing.assert_allclose(
            vectorize_frame(a * X + b * Y),
            a * vectorize_frame(X) + b * vectorize_frame(Y),
            rtol=1e-12,
        )

    def test_hadamard_diag_identity(self):
        # vec(M * Psi) == diag(vec(M)) @ vec(Psi), the identity that makes the
        # vectorized observation model consistent with column stacking
        rng = np.random.default_rng(2)
        M, Psi = rng.standard_normal((2, 5, 4))
        lhs = vectorize_frame(M * Psi)
        rhs = np.diag(vectorize_frame(M)) @ vectorize_frame(Psi)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_vec_of_product_is_kron(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 3))
        A = rng.standard_normal((3, 5))
        lhs = vectorize_frame(X @ A)
        rhs = np.kron(A.T, np.eye(4)) @ vectorize_frame(X)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestSequenceIO:
    def test_single_element_file_bytes(self, tmp_path):
        seq = HsiSequence(frames=(np.array([[0.5]]),))
        write_hseq(seq, tmp_path / "d")
        raw = (tmp_path / "d" / series_file_name("frames", 0)).read_bytes()
        assert raw == struct.pack("<d", 0.5)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        frames = tuple(rng.standard_normal((7, 5)) for _ in range(3))
        write_hseq(HsiSequence(frames=frames), tmp_path / "seq")
        back = read_hseq(tmp_path / "seq")
        for orig, loaded in zip(frames, back.frames):
            assert orig.tobytes() == loaded.tobytes()

    def test_benchmark_scale_file_sizes(self, tmp_path):
        rng = np.random.default_rng(5)
        frames = tuple(rng.random((173, 50)) for _ in range(10))
        write_hseq(HsiSequence(frames=frames), tmp_path / "seq")
        files = sorted((tmp_path / "seq").glob("frame_*.f64"))
        assert len(files) == 10
        assert all(f.stat().st_size == 69200 for f in files)

    def test_byte_offset_layout(self, tmp_path):
        # element (l, n) at byte offset 8 * (n * L + l)
        L, N = 3, 2
        Y = np.arange(L * N, dtype=float).reshape(L, N)
        write_hseq(HsiSequence(frames=(Y,)), tmp_path / "seq")
        raw = (tmp_path / "seq" / series_file_name("frames", 0)).read_bytes()
        for n in range(N):
            for l in range(L):
                (value,) = struct.unpack_from("<d", raw, 8 * (n * L + l))
                assert value == Y[l, n]

    def test_missing_frame_error_names_frame(self, tmp_path):
        rng = np.random.default_rng(6)
        frames = tuple(rng.random((4, 3)) for _ in range(3))
        write_hseq(HsiSequence(frames=frames), tmp_path / "seq")
        (tmp_path / "seq" / series_file_name("frames", 2)).unlink()
        with pytest.raises(SequenceFormatError, match="frame_0002"):
            read_hseq(tmp_path / "seq")

    def test_manifest_frame_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(7)
        write_hseq(HsiSequence(frames=(rng.random((4, 3)),) * 2), tmp_path / "seq")
        mpath = tmp_path / "seq" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["T"] = 3
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SequenceFormatError, match="T=3"):
            read_hseq(tmp_path / "seq")

    def test_truncated_frame_reports_byte_counts(self, tmp_path):
        rng = np.random.default_rng(8)
        write_hseq(HsiSequence(frames=(rng.random((4, 3)),)), tmp_path / "seq")
        fpath = tmp_path / "seq" / series_file_name("frames", 0)
        fpath.write_bytes(fpath.read_bytes()[:-8])
        with pytest.raises(SequenceFormatError, match="88.*expected 96"):
            read_hseq(tmp_path / "seq")

    def test_nonfinite_rejected_with_index(self, tmp_path):
        frame = np.ones((3, 2))
        frame[2, 1] = np.nan
        with pytest.raises(ValueError, match="band 2, pixel 1"):
            HsiSequence(frames=(frame,))

    def test_matrix_roundtrip_with_inferred_cols(self, tmp_path):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((6, 4))
        write_matrix(tmp_path / "m.f64", X)
        np.testing.assert_array_equal(read_matrix(tmp_path / "m.f64", 6), X)

    @pytest.mark.parametrize(
        "key, value", [("dtype", "float32"), ("byte_order", "big"), ("layout", "row-major")]
    )
    def test_unsupported_format_tag_rejected(self, tmp_path, key, value):
        rng = np.random.default_rng(10)
        write_hseq(HsiSequence(frames=(rng.random((2, 2)),)), tmp_path / "seq")
        mpath = tmp_path / "seq" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest[key] = value
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SequenceFormatError, match=f"{key} '{value}'"):
            read_hseq(tmp_path / "seq")

    # int() would read 2.9 as 2 bands, true as 1 and "3" as 3
    @pytest.mark.parametrize("value", [0, -2, float("inf"), 2.9, True, "3"])
    def test_band_count_below_one_or_infinite_rejected(self, tmp_path, value):
        write_hseq(HsiSequence(frames=(np.ones((2, 2)),)), tmp_path / "seq")
        mpath = tmp_path / "seq" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["L"] = value
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SequenceFormatError, match=re.escape(str(mpath))):
            read_manifest(tmp_path / "seq")


    @pytest.mark.parametrize("name", ["../secret.f64", "/secret.f64", "sub/f.f64", "..", "."])
    def test_frame_entry_not_a_plain_file_name_rejected(self, tmp_path, name):
        write_hseq(HsiSequence(frames=(np.ones((2, 2)),)), tmp_path / "seq")
        mpath = tmp_path / "seq" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["frames"] = [name]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SequenceFormatError, match="not a plain file name"):
            read_manifest(tmp_path / "seq")

    def test_rewrite_removes_the_earlier_series(self, tmp_path):
        out = tmp_path / "est"
        four = [np.ones((2, 2))] * 4
        write_result_dir(
            out, L=2, N=2, T=4, P=2, abundances=four, endmembers=four, psis=four, frames=four
        )
        (out / "notes.txt").write_text("kept")
        write_result_dir(out, L=2, N=2, T=2, P=2, abundances=four[:2])
        assert sorted(p.name for p in out.iterdir()) == [
            "abund_0000.f64", "abund_0001.f64", "manifest.json", "notes.txt",
        ]

    def test_series_file_names(self, tmp_path):
        names = [series_file_name(key, 12) for key in hseq.SERIES]
        assert names == ["frame_0012.f64", "abund_0012.f64", "endm_0012.f64", "psi_0012.f64"]
        with pytest.raises(TypeError, match="unknown series"):
            write_result_dir(tmp_path / "est", L=2, N=2, T=1, P=2, abundance=[np.ones((2, 2))])
        assert not (tmp_path / "est").exists()

    def test_failed_result_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "est"
        A = [np.full((2, 3), 0.5)] * 2
        M = [np.ones((4, 2))] * 2
        write_result_dir(out, L=4, N=3, T=2, P=2, abundances=A, endmembers=M)
        assert (out / "manifest.json").is_file()
        real = hseq.write_matrix
        written = []

        def failing(path, X):
            if len(written) == 2:
                raise OSError("disk full")
            written.append(path)
            real(path, X)

        monkeypatch.setattr(hseq, "write_matrix", failing)
        with pytest.raises(OSError, match="disk full"):
            write_result_dir(out, L=4, N=3, T=2, P=2, abundances=A, endmembers=M)
        assert not (out / "manifest.json").exists()

    def test_failed_sequence_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        out = tmp_path / "seq"
        seq = HsiSequence(frames=tuple(rng.random((4, 3)) for _ in range(3)))
        write_hseq(seq, out)
        assert (out / "manifest.json").is_file()
        real = hseq.write_matrix
        written = []

        def failing(path, X):
            if len(written) == 1:
                raise OSError("disk full")
            written.append(path)
            real(path, X)

        monkeypatch.setattr(hseq, "write_matrix", failing)
        with pytest.raises(OSError, match="disk full"):
            write_hseq(seq, out)
        assert not (out / "manifest.json").exists()


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    X=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9), elements=FINITE),
    order=st.sampled_from(["C", "F"]),
)
def test_matrix_roundtrip_property(X, order):
    # any finite values (signed zeros and subnormals included), either memory order
    X = np.asarray(X, order=order)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.f64"
        write_matrix(path, X)
        assert path.stat().st_size == 8 * X.size
        for back in (read_matrix(path, X.shape[0], X.shape[1]), read_matrix(path, X.shape[0])):
            assert back.shape == X.shape
            assert back.tobytes() == X.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    T=st.integers(1, 4),
    seed=st.none() | st.integers(0, 2**31 - 1),
    P=st.none() | st.integers(2, 5),
    data=st.data(),
)
def test_hseq_roundtrip_property(shape, T, seed, P, data):
    frames = tuple(
        data.draw(hnp.arrays(np.float64, shape, elements=FINITE), label=f"frame {t}")
        for t in range(T)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq"
        write_hseq(HsiSequence(frames=frames), path, seed=seed, P=P)
        back = read_hseq(path)
        manifest = read_manifest(path)
    assert back.T == T
    for orig, loaded in zip(frames, back.frames):
        assert loaded.shape == orig.shape
        assert loaded.tobytes() == orig.tobytes()
    assert (manifest.L, manifest.N, manifest.T) == (shape[0], shape[1], T)
    assert (manifest.seed, manifest.P) == (seed, P)


class TestDomainTypes:
    def test_glmm_model_vectorization_exact(self):
        rng = np.random.default_rng(11)
        M0 = rng.random((5, 3))
        model = GlmmModel(M0=M0)
        np.testing.assert_array_equal(model.m0, vectorize_frame(M0))
        assert model.P == 3 and model.L == 5

    def test_glmm_model_rejects_negative(self):
        M0 = np.ones((4, 2))
        M0[1, 1] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            GlmmModel(M0=M0)

    def test_glmm_model_needs_one_material(self):
        with pytest.raises(ValueError, match="P >= 1"):
            GlmmModel(M0=np.ones((4, 0)))
        model = GlmmModel(M0=np.ones((4, 1)))
        assert model.P == 1 and np.array_equal(model.m0, np.ones(4))

    def test_sequence_shape_consistency(self):
        with pytest.raises(ValueError, match="frame 1"):
            HsiSequence(frames=(np.ones((3, 2)), np.ones((3, 3))))
