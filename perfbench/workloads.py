"""Workload definitions and their inputs.

Every input comes from ``mtunmix.synth``. Each workload mixes one fixed
endmember library, ``synthetic_endmembers(L, P, seed=0)``, as a study with a
measured spectral library would. Sequence ``j`` of a run draws its scene
(abundances, scaling-factor drift, noise) and its VCA directions from
``SeedSequence([seed, j])``, so the same seed always gives the same inputs.
The timed code sees only the generated arrays.

Each workload also has an *oracle probe*: the frames of one fixed sequence,
drawn with PROBE_SEED whatever the run's seed, whose FCLS outputs must match
the support-enumeration oracle column by column. Its index is one on one of
whose frames ``fcls_solve`` has stopped short of the minimizer, so that fault
shows in the failed count of every run, at the same share in each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mtunmix import synth

LIBRARY_SEED = 0
EM_ITERS = 5
LAMBDA = 1e-8
SNR_DB = 30.0
PROBE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    L: int
    N: int
    T: int
    P: int
    #: distinct sequences per run; every run unmixes each of them at least once
    sequences: int
    #: sequence of PROBE_SEED whose frames make the oracle probe
    probe_index: int

    def library(self):
        return synth.synthetic_endmembers(self.L, self.P, seed=LIBRARY_SEED)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("many-bands", L=137, N=12, T=3, P=3, sequences=30, probe_index=3),
        Workload("many-pixels-p6", L=30, N=12, T=3, P=6, sequences=36, probe_index=4),
        Workload("cli-mc", L=30, N=16, T=3, P=3, sequences=4, probe_index=0),
    )
}


@dataclass(frozen=True)
class SequenceInput:
    index: int
    frames: tuple
    truth: synth.GroundTruth
    vca_seed: int


def sequence_seeds(seed: int, index: int) -> tuple[int, int]:
    """(scene, VCA) seeds of sequence ``index``."""
    scene, vca = np.random.SeedSequence([seed, index]).generate_state(2)
    return int(scene), int(vca)


def make_sequence(w: Workload, seed: int, index: int) -> SequenceInput:
    scene_seed, vca_seed = sequence_seeds(seed, index)
    config = synth.SynthConfig(L=w.L, N=w.N, T=w.T, P=w.P, snr_db=SNR_DB, rng_seed=scene_seed)
    seq, truth = synth.generate(config, w.library())
    return SequenceInput(index=index, frames=seq.frames, truth=truth, vca_seed=vca_seed)


def make_inputs(name: str, seed: int, indices=None) -> list[SequenceInput]:
    w = WORKLOADS[name]
    indices = range(w.sequences) if indices is None else indices
    return [make_sequence(w, seed, j) for j in indices]


def make_probe(name: str) -> SequenceInput:
    w = WORKLOADS[name]
    return make_sequence(w, PROBE_SEED, w.probe_index)
