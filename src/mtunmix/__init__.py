"""Multitemporal hyperspectral unmixing with Kalman-smoothed endmember variability.

Library layout:

- :mod:`mtunmix.hseq`     array types, vectorization, on-disk HSEQ format
- :mod:`mtunmix.kronops`  the covariance layer, one name per job for a dense matrix
                          (LAPACK of NumPy's own OpenBLAS through ctypes, or
                          numpy.linalg where NumPy bundles none) or an (L, P, P)
                          band stack (numpy.linalg) alike: Cholesky factors (plain
                          or jittered), solves and products with a state vector,
                          factor inverses, log-determinants and PSD flooring; and a
                          one-thread BLAS budget for replica runs
- :mod:`mtunmix.kalman`   Woodbury filter update (PSD square root for nearly singular
                          predictions) into a frozen trajectory, RTS smoothed means,
                          and the smoothed-covariance recursion, one step at a time,
                          on dense covariances or band stacks through the same lines
- :mod:`mtunmix.em`       sufficient statistics streamed from that recursion,
                          closed-form M-steps, one finiteness check per iteration;
                          a pass runs in the layout EmParams holds P00 and Q in,
                          band stacks as default_init returns them
- :mod:`mtunmix.fcls`     column-wise simplex projection and one frame-wide
                          simplex-constrained least-squares solver
- :mod:`mtunmix.vca`      endmember extraction
- :mod:`mtunmix.pipeline` end-to-end unmixing driver
- :mod:`mtunmix.synth`    synthetic benchmark generator
- :mod:`mtunmix.metrics`  evaluation metrics and sequence alignment
- :mod:`mtunmix.cli`      command-line front end
"""

from .em import EmParams
from .hseq import AbundanceSequence, GlmmModel, HsiSequence, read_hseq, write_hseq
from .kalman import Belief, ModelMatrices, Trajectory
from .pipeline import PipelineConfig, UnmixResult, default_init, run_kalman_em, vca_extract
from .synth import GroundTruth, SynthConfig, generate, synthetic_endmembers

__version__ = "0.1.0"

__all__ = [
    "AbundanceSequence",
    "Belief",
    "EmParams",
    "GlmmModel",
    "GroundTruth",
    "HsiSequence",
    "ModelMatrices",
    "PipelineConfig",
    "SynthConfig",
    "Trajectory",
    "UnmixResult",
    "default_init",
    "generate",
    "read_hseq",
    "run_kalman_em",
    "synthetic_endmembers",
    "vca_extract",
    "write_hseq",
    "__version__",
]
