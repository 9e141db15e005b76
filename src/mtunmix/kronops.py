"""Cholesky factors (plain, or with one jitter retry), solves and inverses
from a factor, and PSD flooring with a positive-definite fast test. A factor
is the lower-triangular array ``dpotrf`` returns, read below the diagonal only.

These primitives back the state-space machinery: the observation matrix has
the structure ``B = kron(A.T, I_L) @ diag(m0)``, so every heavy contraction
reduces to block traces or PL x PL factorizations instead of operations on
NL x NL matrices. Where an explicit inverse is needed (the filter's predicted
precision and posterior covariance, P00^-1 and Q^-1 in the EM surrogate) it
comes from the Cholesky factor at hand.

A covariance is dense, one PL x PL array whose entry p * L + l is material p
in band l, or a band stack, an (L, P, P) array whose block l holds entries
(p * L + l, q * L + l) of a covariance zero between bands. The factors,
solves, products, inverses, log-determinants and PSD floor take either, one
name per job: a dense matrix goes to LAPACK, a stack to NumPy's batched
``linalg``. A PL state vector keeps its order in both layouts, and
:func:`cho_solve` and :func:`matvec` take and return it as it is.

LAPACK ``dpotrf``, ``dpotrs``, ``dtrtri`` and ``dlauum`` and BLAS ``dtrmm``
are those of the OpenBLAS that NumPy bundles, called through ctypes
(:class:`OpenBlas`): NumPy's products and these factorizations share one
BLAS library and its buffers, SciPy is not imported, and each call releases
the GIL, so threads that each run a replica factor at the same time.
:func:`one_blas_thread` sets that library to one thread for a block of work.
Where NumPy bundles no such library (builds on Accelerate or MKL),
:func:`lapack` and :func:`blas` return SciPy's ``scipy.linalg.lapack`` and
``scipy.linalg.blas``, which take the same calls. Every call looks
:func:`lapack` and :func:`blas` up on this module when it runs, so a
replacement set on the module sees each factorization, solve and inverse.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy as np

from .errors import FactorizationError

#: Relative jitter added to the diagonal on the single Cholesky retry.
JITTER_SCALE = 1e-10

#: Order at and below which :func:`factor_inverse` inverts a factor with one
#: LAPACK ``trtri`` call; larger factors are split in two.
INVERSE_LEAF = 96

#: Order of the diagonal blocks in which :func:`_mirror_lower` copies a
#: triangle, and the strictly upper triangle of one such block.
MIRROR_BLOCK = 64
_STRICT_UPPER = ~np.tri(MIRROR_BLOCK, dtype=bool)

# argument types: a character, an integer, a matrix or the scalar alpha, and
# a character's hidden length; ctypes passes a c_int64 or c_double where a
# pointer to one is declared by reference
_C, _I = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64)
_D, _H = ctypes.POINTER(ctypes.c_double), ctypes.c_size_t
#: The routines :func:`lapack` and :func:`blas` bind, each the ILP64 symbol
#: ``scipy_<name>_64_`` of the OpenBLAS that NumPy bundles, and their arguments.
_SIGNATURES = {
    "dpotrf": (_C, _I, _D, _I, _I, _H),
    "dpotrs": (_C, _I, _I, _D, _I, _D, _I, _I, _H),
    "dtrtri": (_C, _C, _I, _D, _I, _I, _H, _H),
    "dlauum": (_C, _I, _D, _I, _I, _H),
    "dtrmm": (_C, _C, _C, _C, _I, _I, _D, _D, _I, _D, _I, _H, _H, _H, _H),
}
_SET_THREADS = "scipy_openblas_set_num_threads64_"
_GET_THREADS = "scipy_openblas_get_num_threads64_"
_bound: list = []  # the one binding, once made
_bind_lock = threading.Lock()


def lapack():
    """``dpotrf``, ``dpotrs``, ``dtrtri`` and ``dlauum``; see :func:`_binding`."""
    return _binding()[0]


def blas():
    """``dtrmm``; see :func:`_binding`."""
    return _binding()[1]


def _binding() -> tuple:
    """The LAPACK and BLAS routine sets, bound once, thread-safe on first use:
    an :class:`OpenBlas` on NumPy's own library where it has the symbols,
    else SciPy's public ``scipy.linalg.lapack`` and ``scipy.linalg.blas``
    (NumPy built on Accelerate or MKL), which take the same calls."""
    if not _bound:
        with _bind_lock:
            if not _bound:
                _bound.append(_bind())
    return _bound[0]


def _bind() -> tuple:
    lib = _numpy_openblas()
    if lib is not None:
        routines = OpenBlas(lib)
        return routines, routines
    from scipy.linalg import blas, lapack

    return lapack, blas


@functools.cache
def _numpy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS NumPy has loaded, reached through ``numpy.linalg``'s
    extension, which links it; None where it lacks any symbol used here."""
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    names = [f"scipy_{name}_64_" for name in _SIGNATURES] + [_SET_THREADS, _GET_THREADS]
    if not all(hasattr(lib, name) for name in names):
        return None
    set_threads, get_threads = getattr(lib, _SET_THREADS), getattr(lib, _GET_THREADS)
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return lib


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with NumPy's OpenBLAS on one thread, then restore its
    thread count.

    The count is the whole process's, so the body's results do not depend on
    the machine's core count, and threads that each run a replica do not
    share cores with BLAS threads. Where :func:`lapack` falls back to SciPy,
    this does nothing, and results may depend on the thread count.
    """
    lib = _numpy_openblas()
    if lib is None:
        yield
        return
    set_threads = getattr(lib, _SET_THREADS)
    previous = getattr(lib, _GET_THREADS)()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def _matrix(a, copy: bool) -> tuple[np.ndarray, int]:
    """``a`` as LAPACK addresses a matrix, and its leading dimension: ``a``
    itself where its columns are contiguous, as in a block of a
    Fortran-ordered array, unless ``copy`` asks for a new one; else a copy in
    Fortran order. A vector is one column."""
    a = np.asarray(a)
    if a.ndim == 1:
        a = a[:, None]
    rows, cols = a.shape
    step, lead = a.strides
    if copy or not (
        a.dtype == np.float64
        and a.flags.writeable
        and (step == 8 or rows <= 1)
        and (cols <= 1 or (lead % 8 == 0 and lead >= 8 * rows))
    ):
        a = np.array(a, dtype=np.float64, order="F")
        lead = a.strides[1]
    return a, max(1, lead // 8 if cols > 1 else rows)


def _order(a: np.ndarray, n: int | None = None) -> int:
    """The order of the square matrix ``a``, which must be ``n`` where given;
    LAPACK would read past a matrix of any other shape."""
    rows, cols = a.shape
    if rows != cols:
        raise ValueError(f"matrix of shape {a.shape} is not square")
    if n is not None and n != rows:
        raise ValueError(f"matrix of order {rows} against an operand of {n} rows or columns")
    return rows


def _first(a: np.ndarray):
    """A ctypes double at ``a[0, 0]``, which ctypes passes as the address of
    the matrix; None for an empty one, which LAPACK does not read."""
    return ctypes.c_double.from_buffer(a[:1, :1]) if a.size else None


_UPLO = (b"U", b"L")
_SIDE = (b"L", b"R")

class OpenBlas:
    """``dpotrf``, ``dpotrs``, ``dtrtri``, ``dlauum`` and ``dtrmm`` called
    through ctypes, with the signatures and results of SciPy's wrappers for
    the arguments used here. ctypes releases the GIL for each call.

    The symbols take every argument by reference, integers (``info``
    included) as 64 bits, then the hidden lengths of the Fortran character
    arguments. A matrix goes in with its leading dimension, so a block of a
    Fortran-ordered array is worked on in place where ``overwrite_*`` allows;
    any other layout is copied first, as SciPy's wrappers do.
    """

    def __init__(self, lib: ctypes.CDLL):
        for name, argtypes in _SIGNATURES.items():
            routine = getattr(lib, f"scipy_{name}_64_")
            routine.argtypes, routine.restype = argtypes, None
            setattr(self, "_" + name, routine)

    def dpotrf(self, a, lower=0, clean=1):
        c, lead = _matrix(a, copy=True)
        info, n = ctypes.c_int64(), ctypes.c_int64(_order(c))
        self._dpotrf(_UPLO[lower], n, _first(c), ctypes.c_int64(lead), info, 1)
        if clean:
            c[...] = np.tril(c) if lower else np.triu(c)
        return c, info.value

    def dpotrs(self, c, b, lower=0):
        c, lead = _matrix(c, copy=False)
        x, ldx = _matrix(b, copy=True)
        n, nrhs = ctypes.c_int64(_order(c, x.shape[0])), ctypes.c_int64(x.shape[1])
        info = ctypes.c_int64()
        self._dpotrs(
            _UPLO[lower], n, nrhs, _first(c), ctypes.c_int64(lead),
            _first(x), ctypes.c_int64(ldx), info, 1,
        )
        return x.reshape(np.shape(b)), info.value

    def dtrtri(self, c, lower=0, overwrite_c=0):
        a, lead = _matrix(c, copy=not overwrite_c)
        info, n = ctypes.c_int64(), ctypes.c_int64(_order(a))
        self._dtrtri(_UPLO[lower], b"N", n, _first(a), ctypes.c_int64(lead), info, 1, 1)
        return a, info.value

    def dlauum(self, c, lower=0, overwrite_c=0):
        a, lead = _matrix(c, copy=not overwrite_c)
        info, n = ctypes.c_int64(), ctypes.c_int64(_order(a))
        self._dlauum(_UPLO[lower], n, _first(a), ctypes.c_int64(lead), info, 1)
        return a, info.value

    def dtrmm(self, alpha, a, b, side=0, lower=0, overwrite_b=0):
        a, lda = _matrix(a, copy=False)
        b, ldb = _matrix(b, copy=not overwrite_b)
        _order(a, b.shape[side])
        m, n = ctypes.c_int64(b.shape[0]), ctypes.c_int64(b.shape[1])
        self._dtrmm(
            _SIDE[side], _UPLO[lower], b"N", b"N", m, n,
            ctypes.c_double(alpha), _first(a), ctypes.c_int64(lda),
            _first(b), ctypes.c_int64(ldb), 1, 1, 1, 1,
        )
        return b


def _check_square(M: np.ndarray, what: str) -> None:
    if M.ndim not in (2, 3) or M.shape[-2] != M.shape[-1]:
        raise ValueError(f"{what} must be a square matrix or a stack of them, got shape {M.shape}")


def band_index(L: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the band blocks in a dense PL x PL matrix;
    they broadcast to (L, P, P), block l taking the entries (p * L + l, q * L + l)."""
    state = np.arange(P) * L + np.arange(L)[:, None]
    return state[:, :, None], state[:, None, :]


def band_blocks(S: np.ndarray, L: int) -> np.ndarray:
    """The (L, P, P) band blocks of a dense PL x PL matrix; a stack as it is."""
    if S.ndim == 3:
        return S
    return S[band_index(L, S.shape[-1] // L)]


def dense_form(S: np.ndarray) -> np.ndarray:
    """The dense PL x PL matrix of a band stack, zero between bands; a dense
    matrix as it is."""
    if S.ndim == 2:
        return S
    L, P, _ = S.shape
    out = np.zeros((L * P, L * P))
    out[band_index(L, P)] = S
    return out


def band_diagonal(S: np.ndarray, L: int) -> bool:
    """Whether every entry of a dense PL x PL matrix between bands is exactly 0.0."""
    return np.count_nonzero(S) == np.count_nonzero(band_blocks(S, L))


def symmetrize(X: np.ndarray) -> np.ndarray:
    """(X + X^T) / 2 over the last two axes, suppressing asymmetry drift after
    updates/inversions."""
    out = X + X.mT
    out /= 2.0
    return out


def symmetric(X: np.ndarray) -> np.ndarray:
    """X itself where it is exactly symmetric over the last two axes, as
    :func:`symmetrize` would return it bit for bit; else :func:`symmetrize` (X)."""
    return X if np.array_equal(X, X.mT) else symmetrize(X)


def factor(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a dense matrix (LAPACK ``potrf``) or of every
    block of a stack, no jitter; :class:`FactorizationError` if any is not
    numerically positive definite.

    ``M`` must be exactly symmetric, as every caller's matrix is: a
    C-ordered matrix goes to ``potrf`` as its Fortran-ordered transpose,
    which the wrapper copies as it is instead of transposing it.
    """
    M = np.asarray(M)
    _check_square(M, "factored matrix")
    if M.ndim == 3:
        try:
            return np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"stack of {M.shape[0]} matrices of size {M.shape[-1]} not positive definite"
            ) from exc
    c, info = lapack().dpotrf(M.T if M.flags.c_contiguous else M, lower=1, clean=0)
    if info > 0:
        raise FactorizationError(f"matrix of size {M.shape[0]} not positive definite")
    if info < 0:
        raise ValueError(f"potrf rejected argument {-info}")
    return c


def cho_factor_jittered(M: np.ndarray) -> np.ndarray:
    """Cholesky of a symmetric positive-definite matrix or stack with one
    jitter retry.

    The retry adds ``1e-10`` times the mean diagonal entry to the diagonal
    (of every block of a stack). Raises :class:`FactorizationError` if both
    attempts fail.
    """
    try:
        return factor(M)
    except FactorizationError:
        pass
    jitter = JITTER_SCALE * float(np.mean(np.diagonal(M, axis1=-2, axis2=-1)))
    try:
        return factor(M + jitter * np.eye(M.shape[-1]))
    except FactorizationError as exc:
        raise FactorizationError(
            f"matrix of size {M.shape[-1]} not positive definite after jitter retry"
        ) from exc


def _columns(x: np.ndarray, L: int) -> np.ndarray:
    """A PL state vector as the (L, P, 1) columns of its bands."""
    return x.reshape(-1, L).T[..., None]


def _vector(X: np.ndarray) -> np.ndarray:
    """The PL state vector of band columns (L, P, 1)."""
    return X[..., 0].T.reshape(-1)


def cho_solve(c: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve M X = B from the lower Cholesky factor of M: LAPACK ``potrs`` for
    one matrix, two triangular solves per block for a stack. On a stack B is
    a PL state vector, or (L, P, k) right-hand sides per block."""
    B = np.asarray(B)
    if c.ndim == 3:
        if B.shape == (c.shape[0] * c.shape[1],):
            return _vector(cho_solve(c, _columns(B, c.shape[0])))
        if B.shape[:2] != c.shape[:2] or B.ndim != 3:
            raise ValueError(f"right-hand side of shape {B.shape} for factors of shape {c.shape}")
        return np.linalg.solve(c.mT, np.linalg.solve(c, B))
    _check_square(c, "factor")
    if B.ndim not in (1, 2) or B.shape[0] != c.shape[0]:
        raise ValueError(f"right-hand side of shape {B.shape} for a factor of shape {c.shape}")
    X, info = lapack().dpotrs(c, B, lower=1)
    if info != 0:
        raise ValueError(f"potrs rejected argument {-info}")
    return X


def matvec(C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """C @ x for a PL state vector x and a dense PL x PL matrix or a band stack."""
    if C.ndim == 2:
        return C @ x
    return _vector(C @ _columns(x, C.shape[0]))


def cho_logdet(c: np.ndarray) -> float:
    """log-determinant from a Cholesky factor; for a stack, of the block-diagonal matrix."""
    return 2.0 * float(np.sum(np.log(np.diagonal(c, axis1=-2, axis2=-1))))


def _mirror_lower(X: np.ndarray) -> np.ndarray:
    """X's lower triangle mirrored into its upper one in place, over the last
    two axes; returns X.

    The copy runs in square blocks of :data:`MIRROR_BLOCK` along the
    diagonal: each diagonal block takes its own lower triangle, and the rows
    right of it the transpose of the columns below it.
    """
    n = X.shape[-1]
    for a in range(0, n, MIRROR_BLOCK):
        b = min(a + MIRROR_BLOCK, n)
        diagonal = X[..., a:b, a:b]
        np.copyto(diagonal, diagonal.mT, where=_STRICT_UPPER[: b - a, : b - a])
        X[..., a:b, b:] = X[..., b:, a:b].mT
    return X


def factor_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of the factored matrix, exactly symmetric; the factor is left
    as it is.

    A dense factor C is inverted to R = C^-1 by :func:`_lower_inverse`, and
    LAPACK ``lauum`` forms the lower triangle of R.T R in Fortran order,
    mirrored into the upper one in place and returned as its transpose, the
    same values in C order. That is n^3 / 3 multiply-adds against n^3 for
    ``cho_solve(c, I)``, as in LAPACK ``potri``, but most of them in BLAS-3
    products. A 0 x 0 factor, which LAPACK would reject, has a 0 x 0 inverse.
    A stack's inverse is R.T R per block, with R the inverse of the block's
    factor.
    """
    _check_square(c, "factor")
    if c.ndim == 3:
        root = np.linalg.inv(c)
        return _mirror_lower(root.mT @ root)
    if c.shape[0] == 0:
        return np.zeros((0, 0))
    root = np.array(c, order="F")
    _lower_inverse(root)
    inv, info = lapack().dlauum(root, lower=1, overwrite_c=1)
    if info != 0:
        raise FactorizationError(f"lauum failed on a factor of size {c.shape[0]} (info={info})")
    # symmetric, so the C-ordered transpose holds the same values
    return _mirror_lower(inv).T


def _lower_inverse(R: np.ndarray) -> None:
    """Overwrite the lower triangle of R, a lower triangular factor, with that
    of its inverse; the upper triangle is not read, and left as it is.

    Recursive blocked inversion (Elmroth, Gustavson, Jonsson & Kagstrom, SIAM
    Review 46(1), 2004): with C = [[C11, 0], [C21, C22]] split at n // 2, the
    inverse is [[R11, 0], [-R22 C21 R11, R22]], R11 and R22 the inverses of
    the diagonal blocks, and the off-diagonal block takes two BLAS ``trmm``
    calls. An order up to :data:`INVERSE_LEAF` takes one LAPACK ``trtri``
    call, which runs at a fraction of a matrix product's speed on larger ones.
    """
    n = R.shape[0]
    if n <= INVERSE_LEAF:
        inv, info = lapack().dtrtri(R, lower=1, overwrite_c=1)
        if info != 0:
            raise FactorizationError(f"trtri failed on a factor of size {n} (info={info})")
        R[...] = inv
        return
    h = n // 2
    _lower_inverse(R[:h, :h])
    _lower_inverse(R[h:, h:])
    trmm = blas().dtrmm
    R21 = trmm(-1.0, R[h:, h:], R[h:, :h], lower=1, overwrite_b=1)
    R[h:, :h] = trmm(1.0, R[:h, :h], R21, side=1, lower=1, overwrite_b=1)


def psd_floor(X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Nearest PSD matrix (or stack) by clipping negative eigenvalues of
    symmetrize(X) at 0, and the plain Cholesky factor of the result, None
    where it has none.

    A plain Cholesky (no jitter, which would pass slightly indefinite input)
    first tests symmetrize(X) for positive definiteness, and its factor is
    the one returned; only a matrix that fails it is eigendecomposed, and
    then no factor is returned, whether an eigenvalue was clipped or not.
    An exactly symmetric X is not copied: where it passes the test, X itself
    is returned.
    """
    S = symmetric(X)
    try:
        return S, factor(S)
    except FactorizationError:
        pass
    w, V = np.linalg.eigh(S)
    if w.min() >= 0.0:
        return S, None
    w = np.clip(w, 0.0, None)
    return symmetrize((V * w[..., None, :]) @ V.mT), None
