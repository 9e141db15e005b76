"""Synthetic multitemporal benchmark generator.

Scenes follow the multiplicative-variability mixing model: per-pixel base
abundances drawn from a Dirichlet, small Gaussian temporal jitter re-projected
onto the simplex, band-wise endmember scaling factors evolving as a scalar-AR
random walk from all-ones, and white Gaussian noise scaled to a target SNR
over the whole sequence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fcls import project_simplex
from .hseq import HsiSequence, devectorize_frame, is_json_int

N_BUMPS = 4  # Gaussian bumps per synthetic spectrum


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; defaults match the benchmark protocol."""

    L: int
    N: int
    T: int
    P: int
    dirichlet_alpha: tuple[float, ...] | None = None
    F_scale: float = 0.9
    q_var: float = 0.01
    snr_db: float = 30.0
    abundance_jitter_std: float = 3e-3
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("L", "N", "T", "P"):
            value = getattr(self, name)
            if not is_json_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("snr_db", "F_scale", "q_var", "abundance_jitter_std"):
            value = getattr(self, name)
            # bool is a numbers.Real, but JSON true/false is no setting
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError("snr_db must not be NaN or -inf")
        if self.q_var < 0:
            raise ValueError("q_var must be nonnegative")
        if not 0 < self.F_scale <= 1:
            raise ValueError("F_scale must lie in (0, 1]")
        if self.abundance_jitter_std < 0:
            raise ValueError("abundance_jitter_std must be nonnegative")
        if self.dirichlet_alpha is not None:
            alpha = np.asarray(self.dirichlet_alpha)
            if alpha.shape != (self.P,) or alpha.dtype.kind not in "iuf" or not np.all(alpha > 0):
                raise ValueError(f"dirichlet_alpha must be P={self.P} positive reals")
            object.__setattr__(self, "dirichlet_alpha", tuple(float(a) for a in alpha))

    @property
    def alpha(self) -> np.ndarray:
        if self.dirichlet_alpha is None:
            return np.ones(self.P)
        return np.asarray(self.dirichlet_alpha, dtype=float)


@dataclass(frozen=True)
class GroundTruth:
    """Everything the generator knows: per-frame truth plus clean/noisy data."""

    abundances: tuple[np.ndarray, ...]
    endmembers: tuple[np.ndarray, ...]
    psis: tuple[np.ndarray, ...]
    clean_frames: tuple[np.ndarray, ...]
    noisy_frames: tuple[np.ndarray, ...]


def empirical_snr_db(clean_frames, noisy_frames) -> float:
    """10 log10(total signal power / total noise power) over a whole sequence."""
    sig = sum(float(np.sum(c**2)) for c in clean_frames)
    noise = sum(float(np.sum((n - c) ** 2)) for c, n in zip(clean_frames, noisy_frames))
    if noise == 0.0:
        return np.inf
    return float(10.0 * np.log10(sig / noise))


def generate(config: SynthConfig, M0: np.ndarray) -> tuple[HsiSequence, GroundTruth]:
    """Draw one synthetic sequence; fully deterministic given the config seed."""
    M0 = np.asarray(M0, dtype=float)
    if M0.shape != (config.L, config.P):
        raise ValueError(f"M0 shape {M0.shape}, expected {(config.L, config.P)}")
    rng = np.random.default_rng(config.rng_seed)
    L, N, T, P = config.L, config.N, config.T, config.P

    base = rng.dirichlet(config.alpha, size=N).T  # P x N
    psi = np.ones(L * P)
    q_std = math.sqrt(config.q_var)

    abundances, endmembers, psis, clean = [], [], [], []
    for _ in range(T):
        psi = config.F_scale * psi + q_std * rng.standard_normal(L * P)
        jitter = config.abundance_jitter_std * rng.standard_normal((P, N))
        A_t = project_simplex(base + jitter)
        Psi_t = devectorize_frame(psi, L, P)
        M_t = M0 * Psi_t
        abundances.append(A_t)
        endmembers.append(M_t)
        psis.append(Psi_t)
        clean.append(M_t @ A_t)

    sig_power = sum(float(np.sum(c**2)) for c in clean)
    if config.snr_db == math.inf:
        noise_std = 0.0
    else:
        noise_std = math.sqrt(sig_power / (10.0 ** (config.snr_db / 10.0)) / (T * L * N))
    noisy = [c + noise_std * rng.standard_normal((L, N)) for c in clean]

    truth = GroundTruth(
        abundances=tuple(abundances),
        endmembers=tuple(endmembers),
        psis=tuple(psis),
        clean_frames=tuple(clean),
        noisy_frames=tuple(noisy),
    )
    return HsiSequence(frames=tuple(noisy)), truth


def synthetic_endmembers(L: int, P: int, seed: int = 0) -> np.ndarray:
    """Smooth positive stand-in spectra: baseline plus Gaussian bumps, L x P."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, L)
    M = np.empty((L, P))
    for p in range(P):
        spectrum = np.full(L, 0.05)
        for _ in range(N_BUMPS):
            amp = rng.uniform(0.1, 0.6)
            center = rng.uniform(0.0, 1.0)
            width = rng.uniform(0.05, 0.25)
            spectrum = spectrum + amp * np.exp(-0.5 * ((x - center) / width) ** 2)
        M[:, p] = spectrum
    return M
