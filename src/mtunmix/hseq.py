"""Array types, the vectorization convention, and the HSEQ on-disk format.

An HSEQ directory holds a sequence as::

    manifest.json          dimensions, frame files, format tags
    frame_0000.f64         one raw file per frame, zero-based, 4 digits
    frame_0001.f64
    ...

Every raw file holds little-endian float64, column-major: element (l, n) of an
L x N matrix sits at byte offset ``8 * (n * L + l)``. Result directories use
the same layout for their per-frame series (:data:`SERIES`) and for matrix
files such as ``m0.f64`` (L x P).

Vectorization stacks columns: :func:`vectorize_frame` maps element (l, n) to
index ``n * L + l``, so ``vec(M * Psi) == diag(vec(M)) @ vec(Psi)`` and
``vec(X @ A) == kron(A.T, I_L) @ vec(X)``.

The types are immutable, and a directory has one writer at a time. A missing,
malformed or inconsistent file raises
:class:`~mtunmix.errors.SequenceFormatError`, and a bad array ValueError.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SequenceFormatError

#: The format of every binary file, as each manifest records it; no other is read.
FORMAT_TAGS = {"dtype": "float64", "byte_order": "little", "layout": "column-major"}
MANIFEST_NAME = "manifest.json"

_DTYPE = np.dtype("<f8")


def is_json_int(value) -> bool:
    """True for an integer that is not a bool, the one check every JSON
    integer read by the package passes: ``2.9``, ``true`` and ``"3"`` fail."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def vectorize_frame(Y: np.ndarray) -> np.ndarray:
    """Column-stack an L x N matrix into a length-LN vector."""
    return np.asarray(Y, dtype=float).reshape(-1, order="F")


def devectorize_frame(y: np.ndarray, L: int, N: int) -> np.ndarray:
    """Exact inverse of :func:`vectorize_frame` for an L x N matrix."""
    y = np.asarray(y, dtype=float)
    if y.size != L * N:
        raise ValueError(f"cannot reshape length-{y.size} vector into {L}x{N}")
    return y.reshape((L, N), order="F")


@dataclass(frozen=True)
class HsiSequence:
    """An observed image sequence: T frames of L bands by N pixels."""

    frames: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.frames) < 1:
            raise ValueError("a sequence needs at least one frame")
        frames = tuple(np.ascontiguousarray(f, dtype=float) for f in self.frames)
        shape = frames[0].shape
        if len(shape) != 2:
            raise ValueError(f"frames must be 2-D, got shape {shape}")
        for t, f in enumerate(frames):
            if f.shape != shape:
                raise ValueError(f"frame {t} has shape {f.shape}, expected {shape}")
            if not np.all(np.isfinite(f)):
                l, n = np.argwhere(~np.isfinite(f))[0]
                raise ValueError(f"non-finite entry at frame {t}, band {l}, pixel {n}")
        object.__setattr__(self, "frames", frames)

    @property
    def L(self) -> int:
        return self.frames[0].shape[0]

    @property
    def N(self) -> int:
        return self.frames[0].shape[1]

    @property
    def T(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class GlmmModel:
    """Reference endmember signatures M0 (L x P) and their vectorization m0."""

    M0: np.ndarray
    m0: np.ndarray = field(init=False)

    def __post_init__(self):
        M0 = np.ascontiguousarray(self.M0, dtype=float)
        if M0.ndim != 2 or M0.shape[1] < 1:
            raise ValueError("M0 must be L x P with P >= 1")
        if not np.all(np.isfinite(M0)):
            raise ValueError("M0 contains non-finite entries")
        if np.any(M0 < 0):
            raise ValueError("M0 entries must be nonnegative")
        object.__setattr__(self, "M0", M0)
        object.__setattr__(self, "m0", vectorize_frame(M0))

    @property
    def L(self) -> int:
        return self.M0.shape[0]

    @property
    def P(self) -> int:
        return self.M0.shape[1]


@dataclass(frozen=True)
class AbundanceSequence:
    """T abundance maps, each P x N; columns ideally on the probability simplex."""

    maps: tuple[np.ndarray, ...]

    def __post_init__(self):
        maps = tuple(np.ascontiguousarray(m, dtype=float) for m in self.maps)
        if len(maps) < 1:
            raise ValueError("empty abundance sequence")
        shape = maps[0].shape
        for t, m in enumerate(maps):
            if m.shape != shape:
                raise ValueError(f"map {t} has shape {m.shape}, expected {shape}")
        object.__setattr__(self, "maps", maps)

    @property
    def P(self) -> int:
        return self.maps[0].shape[0]

    @property
    def N(self) -> int:
        return self.maps[0].shape[1]

    @property
    def T(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class Manifest:
    """Sidecar metadata for an HSEQ directory, as :func:`read_manifest` checks it."""

    L: int
    N: int
    T: int
    P: int | None = None
    frame_files: tuple[str, ...] = ()
    seed: int | None = None

    def to_dict(self) -> dict:
        """The manifest as written: dimensions, format tags, frame files, and P
        and seed where set."""
        d = {
            "L": self.L,
            "N": self.N,
            "T": self.T,
            **FORMAT_TAGS,
            "frames": list(self.frame_files),
        }
        if self.P is not None:
            d["P"] = self.P
        if self.seed is not None:
            d["seed"] = self.seed
        return d


def write_matrix(path: Path | str, X: np.ndarray) -> None:
    """Write a 2-D array as raw little-endian float64, column-major."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"non-finite entry at ({i}, {j}) in {path}")
    Path(path).write_bytes(np.asfortranarray(X, dtype=_DTYPE).tobytes(order="F"))


def read_matrix(path: Path | str, rows: int, cols: int | None = None) -> np.ndarray:
    """Read a raw matrix file written by :func:`write_matrix`.

    When ``cols`` is omitted it is inferred from the file size.
    """
    path = Path(path)
    if not path.is_file():
        raise SequenceFormatError(f"missing matrix file {path}")
    raw = path.read_bytes()
    if cols is None:
        if len(raw) % (8 * rows) != 0:
            raise SequenceFormatError(
                f"{path} holds {len(raw)} bytes, not a multiple of {8 * rows} (rows={rows})"
            )
        cols = len(raw) // (8 * rows)
    expected = 8 * rows * cols
    if len(raw) != expected:
        raise SequenceFormatError(f"{path} holds {len(raw)} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype=_DTYPE).astype(float)
    return flat.reshape((rows, cols), order="F")


def write_hseq(
    seq: HsiSequence, path: Path | str, seed: int | None = None, P: int | None = None
) -> None:
    """Write a sequence to an HSEQ directory through :func:`write_result_dir`,
    as a result directory that holds frames only."""
    write_result_dir(path, L=seq.L, N=seq.N, T=seq.T, P=P, frames=seq.frames, seed=seed)


def read_manifest(path: Path | str) -> Manifest:
    """Parse a directory's manifest and check it: the format tags, integers L, N,
    T and any P of at least 1, any integer seed, and a frame file per frame,
    each a plain file name in the directory."""
    root = Path(path)
    mpath = root / MANIFEST_NAME
    if not mpath.is_file():
        raise SequenceFormatError(f"no {MANIFEST_NAME} in {root}")
    try:
        d = json.loads(mpath.read_text())
        frame_files = tuple(str(f) for f in d.get("frames", []))
    except json.JSONDecodeError as exc:
        raise SequenceFormatError(f"unparseable manifest {mpath}: {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise SequenceFormatError(f"malformed manifest {mpath}: {exc}") from exc
    for key, tag in FORMAT_TAGS.items():
        if d.get(key) != tag:
            raise SequenceFormatError(f"{mpath}: unsupported {key} {d.get(key)!r}, not {tag!r}")
    ints = {name: d.get(name) for name in ("L", "N", "T", "P", "seed")}
    for name, value in ints.items():
        if value is None and name in ("P", "seed"):
            continue
        if not is_json_int(value):
            raise SequenceFormatError(f"{mpath} declares {name}={value!r}, not an integer")
        if name != "seed" and value < 1:
            raise SequenceFormatError(f"{mpath} declares {name}={value}, below 1")
    for name in frame_files:
        # a path would reach outside the directory
        if name in ("", ".", "..") or Path(name).name != name:
            raise SequenceFormatError(f"{mpath} lists frame {name!r}, not a plain file name")
    manifest = Manifest(**ints, frame_files=frame_files)
    if manifest.frame_files and manifest.T != len(manifest.frame_files):
        raise SequenceFormatError(
            f"manifest declares T={manifest.T} but lists {len(manifest.frame_files)} frame files"
        )
    return manifest


def read_hseq(path: Path | str, manifest: Manifest | None = None) -> HsiSequence:
    """Read an HSEQ directory, failing loudly on any size mismatch. A
    ``manifest`` already read from the directory is not parsed again."""
    root = Path(path)
    if manifest is None:
        manifest = read_manifest(root)
    if not manifest.frame_files:
        raise SequenceFormatError(f"manifest in {root} lists no frame files")
    frames = []
    for t, name in enumerate(manifest.frame_files):
        fpath = root / name
        if not fpath.is_file():
            raise SequenceFormatError(f"missing frame file {name} (frame {t}) in {root}")
        frames.append(read_matrix(fpath, manifest.L, manifest.N))
    return HsiSequence(frames=tuple(frames))


#: The per-frame series of a result directory: by the keyword that
#: :func:`write_result_dir` takes and :func:`read_result_dir` returns, the
#: file name prefix and the manifest dimensions of each matrix. Frames are
#: L x N, abundances P x N, endmembers and scaling factors (the devectorized
#: state) L x P.
SERIES = {
    "frames": ("frame", "L", "N"),
    "abundances": ("abund", "P", "N"),
    "endmembers": ("endm", "L", "P"),
    "psis": ("psi", "L", "P"),
}


def series_file_name(key: str, t: int) -> str:
    """The file of frame ``t`` of the series ``key`` of :data:`SERIES`."""
    return f"{SERIES[key][0]}_{t:04d}.f64"


def write_result_dir(
    path: Path | str, L: int, N: int, T: int, P: int | None, seed: int | None = None, **series
) -> None:
    """Write an estimate/truth directory in the shared raw-matrix layout.

    ``series`` maps keys of :data:`SERIES` to T matrices each; every series
    is optional, and a manifest records dimensions and whichever frame files
    exist. Any earlier manifest and series files are removed first, so a
    rerun leaves none of an earlier run's frames; the manifest is written
    last, so a directory whose writing failed part way has none.
    """
    unknown = sorted(set(series) - set(SERIES))
    if unknown:
        raise TypeError(f"unknown series {unknown}")
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SequenceFormatError(f"cannot create directory {root}: {exc}") from exc
    (root / MANIFEST_NAME).unlink(missing_ok=True)
    for prefix, _, _ in SERIES.values():
        for old in root.glob(f"{prefix}_[0-9]*.f64"):
            old.unlink()
    for key, matrices in series.items():
        if matrices is not None:
            for t in range(T):
                write_matrix(root / series_file_name(key, t), matrices[t])
    frame_names: tuple[str, ...] = ()
    if series.get("frames") is not None:
        frame_names = tuple(series_file_name("frames", t) for t in range(T))
    manifest = Manifest(L=L, N=N, T=T, P=P, frame_files=frame_names, seed=seed)
    (root / MANIFEST_NAME).write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))


def read_result_dir(path: Path | str) -> dict:
    """Load a result directory: ``"manifest"`` and each series of
    :data:`SERIES` it holds (frames as its manifest lists them);
    SequenceFormatError if the manifest lacks P."""
    root = Path(path)
    manifest = read_manifest(root)
    if manifest.P is None:
        raise SequenceFormatError(f"manifest in {root} lacks the endmember count P")
    out: dict = {"manifest": manifest}
    for key, (_, rows, cols) in SERIES.items():
        if key == "frames":  # the files the manifest lists
            names = manifest.frame_files
        elif (root / series_file_name(key, 0)).is_file():
            names = tuple(series_file_name(key, t) for t in range(manifest.T))
        else:
            continue
        if names:
            shape = getattr(manifest, rows), getattr(manifest, cols)
            out[key] = [read_matrix(root / name, *shape) for name in names]
    return out
