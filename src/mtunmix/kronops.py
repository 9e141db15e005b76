"""Cholesky factors (plain, or with one jitter retry) and solves, inverses
from the factor, and PSD flooring with a positive-definite fast test.

These primitives back the state-space machinery: the observation matrix has
the structure ``B = kron(A.T, I_L) @ diag(m0)``, so every heavy contraction
reduces to block traces or PL x PL factorizations instead of operations on
NL x NL matrices. Where an explicit inverse is needed (the filter's predicted
precision and posterior covariance, P00^-1 and Q^-1 in the EM surrogate) it
comes from the Cholesky factor at hand through :func:`cho_inverse`.

SciPy is imported on first use, not when the package loads: only the
commands that factor a matrix (``unmix`` and the library's EM) pay for it.
Every call looks ``scipy.linalg.cho_factor`` up on the module when it runs,
so a wrapper set on the module sees each factorization.
"""

from __future__ import annotations

import numpy as np

from .errors import FactorizationError

#: Relative jitter added to the diagonal on the single Cholesky retry.
JITTER_SCALE = 1e-10


def symmetrize(X: np.ndarray) -> np.ndarray:
    """(X + X.T) / 2, suppressing asymmetry drift after updates/inversions."""
    out = X + X.T
    out /= 2.0
    return out


def cho_factor(M: np.ndarray):
    """Lower Cholesky factor of M, no jitter; :class:`FactorizationError` if
    M is not numerically positive definite."""
    import scipy.linalg

    try:
        return scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"matrix of size {M.shape[0]} not positive definite") from exc


def cho_factor_jittered(M: np.ndarray):
    """Cholesky of a symmetric positive-definite matrix with one jitter retry.

    The retry adds ``1e-10 * mean(diag(M))`` to the diagonal. Raises
    :class:`FactorizationError` if both attempts fail.
    """
    try:
        return cho_factor(M)
    except FactorizationError:
        pass
    jitter = JITTER_SCALE * float(np.mean(np.diag(M)))
    try:
        return cho_factor(M + jitter * np.eye(M.shape[0]))
    except FactorizationError as exc:
        raise FactorizationError(
            f"matrix of size {M.shape[0]} not positive definite after jitter retry"
        ) from exc


def cho_solve(factor, B: np.ndarray) -> np.ndarray:
    import scipy.linalg

    return scipy.linalg.cho_solve(factor, B, check_finite=False)


def cho_logdet(factor) -> float:
    """log-determinant from a Cholesky factor."""
    c, _ = factor
    return 2.0 * float(np.sum(np.log(np.diag(c))))


def cho_inverse(factor) -> np.ndarray:
    """Inverse of the factored matrix by LAPACK ``potri``, exactly symmetric.

    ``potri`` costs n^3 / 3 multiply-adds against n^3 for ``cho_solve(c, I)``.
    It fills one triangle, which is mirrored into the other; the factor is
    left as it is.
    """
    import scipy.linalg.lapack

    c, lower = factor
    inv, info = scipy.linalg.lapack.dpotri(c, lower=lower, overwrite_c=False)
    if info != 0:
        raise FactorizationError(f"potri failed on a factor of size {c.shape[0]} (info={info})")
    lower_tri = np.tri(c.shape[0], dtype=bool)
    return np.where(lower_tri, inv, inv.T) if lower else np.where(lower_tri, inv.T, inv)


def spd_solve(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve M X = B for symmetric positive-definite M (jitter policy applies)."""
    return cho_solve(cho_factor_jittered(M), B)


def psd_floor(X: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix by clipping negative eigenvalues of symmetrize(X) at 0.

    A plain Cholesky (no jitter, which would pass slightly indefinite input)
    first tests for positive definiteness; only a matrix that fails it is
    eigendecomposed.
    """
    S = symmetrize(X)
    try:
        cho_factor(S)
        return S
    except FactorizationError:
        pass
    w, V = np.linalg.eigh(S)
    if w[0] >= 0.0:
        return S
    w = np.clip(w, 0.0, None)
    return symmetrize((V * w) @ V.T)
