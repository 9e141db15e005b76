"""Cholesky factors (plain, or with one jitter retry), solves and inverses
from a factor, and PSD flooring with a positive-definite fast test. A factor
is a lower-triangular array, read below the diagonal only.

These primitives back the state-space machinery: the observation matrix has
the structure ``B = kron(A.T, I_L) @ diag(m0)``, so every heavy contraction
reduces to block traces or PL x PL factorizations instead of operations on
NL x NL matrices. Where an explicit inverse is needed (the filter's predicted
precision and posterior covariance, P00^-1 and Q^-1 in the EM surrogate) it
comes from the Cholesky factor at hand.

A covariance is dense, one PL x PL array whose entry p * L + l is material p
in band l, or a band stack, an (L, P, P) array whose block l holds entries
(p * L + l, q * L + l) of a covariance zero between bands;
:func:`check_layout` is the shape rule of both. This module alone knows where
the band entries of a dense matrix sit: :func:`band_blocks` and
:func:`dense_form` convert between the layouts, and :func:`add_bands` adds
band blocks into a matrix of either. The factors, solves, products, inverses,
log-determinants and PSD floor take either, one name per job. A stack goes to
NumPy's batched ``linalg``. A dense matrix goes to LAPACK ``dpotrf``,
``dpotrs``, ``dtrtri`` and ``dlauum`` and BLAS ``dtrmm`` of the OpenBLAS that
NumPy bundles, bound through ctypes when this module loads
(:data:`_openblas`): NumPy's products and these factorizations share one BLAS
library, and each call releases the GIL, so threads that each run a replica
factor at the same time. Where NumPy bundles no such library (builds on
Accelerate or MKL), :data:`_openblas` is None and a dense matrix takes
``numpy.linalg`` too: the factor and solve lines of a stack, and an inverse in
column panels of products. :func:`one_blas_thread` sets the bundled library to
one thread for a block of work. A PL state vector keeps its order in both
layouts, and :func:`cho_solve` and :func:`matvec` take and return it as it is.
"""

from __future__ import annotations

import contextlib
import ctypes
from types import SimpleNamespace

import numpy as np

from .errors import FactorizationError

#: Relative jitter added to the diagonal on the single Cholesky retry.
JITTER_SCALE = 1e-10

#: Order at and below which :func:`factor_inverse` inverts a factor with one
#: LAPACK ``trtri`` call; larger factors are split in two.
INVERSE_LEAF = 96

#: Width of the column panels in which :func:`factor_inverse` inverts a
#: dense factor where NumPy bundles no OpenBLAS.
PANEL = 32

#: Order of the diagonal blocks in which :func:`_mirror_lower` copies a
#: triangle, and the strictly upper triangle of one such block.
MIRROR_BLOCK = 64
_STRICT_UPPER = ~np.tri(MIRROR_BLOCK, dtype=bool)

# argument types: a character, an integer, a matrix or the scalar alpha, and
# a character's hidden length; ctypes passes a c_int64 or c_double where a
# pointer to one is declared by reference
_C, _I = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64)
_D, _H = ctypes.POINTER(ctypes.c_double), ctypes.c_size_t
_int = ctypes.c_int64
#: The routines bound, by the name each takes here: the ILP64 symbol of the
#: OpenBLAS that NumPy bundles, and its arguments. The LAPACK and BLAS ones
#: take every argument by reference, integers (``info`` included) as 64 bits,
#: then the hidden lengths of the Fortran character arguments.
_ROUTINES = {
    "dpotrf": ("scipy_dpotrf_64_", (_C, _I, _D, _I, _I, _H)),
    "dpotrs": ("scipy_dpotrs_64_", (_C, _I, _I, _D, _I, _D, _I, _I, _H)),
    "dtrtri": ("scipy_dtrtri_64_", (_C, _C, _I, _D, _I, _I, _H, _H)),
    "dlauum": ("scipy_dlauum_64_", (_C, _I, _D, _I, _I, _H)),
    "dtrmm": ("scipy_dtrmm_64_", (_C, _C, _C, _C, _I, _I, _D, _D, _I, _D, _I, _H, _H, _H, _H)),
    "set_threads": ("scipy_openblas_set_num_threads64_", (ctypes.c_int,)),
    "get_threads": ("scipy_openblas_get_num_threads64_", ()),
}


def _numpy_openblas() -> SimpleNamespace | None:
    """The :data:`_ROUTINES` of the OpenBLAS NumPy has loaded, reached through
    ``numpy.linalg``'s extension, which links it; None where it lacks any."""
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    if not all(hasattr(lib, symbol) for symbol, _ in _ROUTINES.values()):
        return None
    routines = SimpleNamespace()
    for name, (symbol, argtypes) in _ROUTINES.items():
        routine = getattr(lib, symbol)
        routine.argtypes, routine.restype = argtypes, None
        setattr(routines, name, routine)
    routines.get_threads.restype = ctypes.c_int
    return routines


#: NumPy's OpenBLAS routines, bound once; None sends dense matrices to
#: ``numpy.linalg``, as where NumPy bundles no OpenBLAS.
_openblas = _numpy_openblas()


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with NumPy's OpenBLAS on one thread, then restore its
    thread count.

    The count is the whole process's, so the body's results do not depend on
    the machine's core count, and threads that each run a replica do not
    share cores with BLAS threads. Where NumPy bundles no OpenBLAS, this does
    nothing, and results may depend on the thread count.
    """
    lib = _openblas
    if lib is None:
        yield
        return
    previous = lib.get_threads()
    lib.set_threads(1)
    try:
        yield
    finally:
        lib.set_threads(previous)


def _order(a: np.ndarray, n: int | None = None) -> int:
    """The order of the square matrix ``a``, which must be ``n`` where given;
    LAPACK would read past a matrix of any other shape."""
    rows, cols = a.shape
    if rows != cols:
        raise ValueError(f"matrix of shape {a.shape} is not square")
    if n is not None and n != rows:
        raise ValueError(f"matrix of order {rows} against an operand of {n} rows or columns")
    return rows


def _matrix(a: np.ndarray, written: bool = True) -> tuple:
    """``a`` as LAPACK takes a matrix: a ctypes double at ``a[0, 0]`` or a
    pointer to it, either passed as its address, and the leading dimension.
    ``a`` must be a float64 matrix with contiguous columns, as a block of a
    Fortran-ordered array is, and writeable unless the routine only reads it
    (``written`` False); ValueError for any other layout, which LAPACK would
    misread, or a read-only matrix it would write."""
    rows, cols = a.shape
    step, lead = a.strides
    if not (
        a.dtype == np.float64
        and (step == 8 or rows <= 1)
        and (cols <= 1 or (lead % 8 == 0 and lead >= 8 * rows))
        and (a.flags.writeable or not written)
    ):
        raise ValueError("LAPACK takes float64 with contiguous columns, writeable if written")
    # from_buffer costs a third of data_as but takes only a writeable, non-empty array
    fast = a.flags.writeable and a.size
    first = ctypes.c_double.from_buffer(a[:1, :1]) if fast else a.ctypes.data_as(_D)
    return first, _int(max(1, lead // 8 if cols > 1 else rows))


# Each helper below works in place on a column-major matrix or block of one,
# its lower triangle where it reads a triangle, and returns LAPACK's info.


def dpotrf(a: np.ndarray) -> int:
    """Overwrite the lower triangle of ``a`` with its Cholesky factor; the
    upper triangle is left as it is."""
    info = _int(0)
    _openblas.dpotrf(b"L", _int(_order(a)), *_matrix(a), info, 1)
    return info.value


def dpotrs(c: np.ndarray, b: np.ndarray) -> int:
    """Overwrite ``b`` with the solution X of M X = b, ``c`` M's lower factor."""
    info, n = _int(0), _int(_order(c, b.shape[0]))
    _openblas.dpotrs(b"L", n, _int(b.shape[1]), *_matrix(c, written=False), *_matrix(b), info, 1)
    return info.value


def dtrtri(a: np.ndarray) -> int:
    """Overwrite the lower triangle of ``a`` with that of its inverse."""
    info = _int(0)
    _openblas.dtrtri(b"L", b"N", _int(_order(a)), *_matrix(a), info, 1, 1)
    return info.value


def dlauum(a: np.ndarray) -> int:
    """Overwrite the lower triangle of ``a`` with that of aᵀa, ``a`` read as
    lower triangular."""
    info = _int(0)
    _openblas.dlauum(b"L", _int(_order(a)), *_matrix(a), info, 1)
    return info.value


def dtrmm(alpha: float, a: np.ndarray, b: np.ndarray, side: int = 0) -> None:
    """Overwrite ``b`` with alpha · a b (``side`` 0) or alpha · b a (``side``
    1), ``a`` read as lower triangular; BLAS returns no info."""
    _order(a, b.shape[side])
    _openblas.dtrmm(
        (b"L", b"R")[side], b"L", b"N", b"N", _int(b.shape[0]), _int(b.shape[1]),
        ctypes.c_double(alpha), *_matrix(a, written=False), *_matrix(b), 1, 1, 1, 1,
    )


def _check_square(M: np.ndarray, what: str) -> None:
    if M.ndim not in (2, 3) or M.shape[-2] != M.shape[-1]:
        raise ValueError(f"{what} must be a square matrix or a stack of them, got shape {M.shape}")


def check_layout(S: np.ndarray, n: int, name: str, P: int | None = None) -> None:
    """Raise ValueError unless ``S`` (called ``name`` in the message) is the
    covariance of an n-vector in one of the two layouts: dense n x n, or a
    band stack of shape (n / P, P, P). ``P`` defaults to a stack's own block
    order."""
    if P is None and S.ndim == 3:
        P = S.shape[-1]
    if S.shape != (n, n) and not (P and n % P == 0 and S.shape == (n // P, P, P)):
        raise ValueError(f"{name} shape {S.shape} vs state dim {n}")


def _band_index(L: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the band blocks in a dense PL x PL matrix;
    they broadcast to (L, P, P), block l taking the entries (p * L + l, q * L + l)."""
    state = np.arange(P) * L + np.arange(L)[:, None]
    return state[:, :, None], state[:, None, :]


def band_blocks(S: np.ndarray, L: int) -> np.ndarray:
    """The (L, P, P) band blocks of a dense PL x PL matrix; a stack as it is."""
    if S.ndim == 3:
        return S
    return S[_band_index(L, S.shape[-1] // L)]


def dense_form(S: np.ndarray) -> np.ndarray:
    """The dense PL x PL matrix of a band stack, zero between bands; a dense
    matrix as it is."""
    if S.ndim == 2:
        return S
    L, P, _ = S.shape
    out = np.zeros((L * P, L * P))
    out[_band_index(L, P)] = S
    return out


def add_bands(X: np.ndarray, S: np.ndarray) -> None:
    """X += S in place, ``S`` in X's layout or a band stack; a stack goes
    into the band entries of a dense X."""
    if X.ndim == 2 and S.ndim == 3:
        X[_band_index(S.shape[0], S.shape[1])] += S
    else:
        X += S


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

    ``M`` must be exactly symmetric, as every caller's matrix is: ``potrf``
    factors a Fortran-ordered copy of a C-ordered matrix's transpose, a
    plain copy of its memory, and leaves the copy's upper triangle in the
    factor.
    """
    M = np.asarray(M)
    _check_square(M, "factored matrix")
    if M.ndim == 3 or _openblas is None:
        try:
            return np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"matrix or stack of shape {M.shape} not positive definite"
            ) from exc
    c = np.array(M.T if M.flags.c_contiguous else M, dtype=np.float64, order="F")
    info = dpotrf(c)
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
    one matrix, two ``numpy.linalg`` solves with the factor's lower triangle
    for a stack (per block) or where NumPy bundles no OpenBLAS. On a stack B
    is a PL state vector, or (L, P, k) right-hand sides per block."""
    B = np.asarray(B)
    if c.ndim == 3:
        if B.shape == (c.shape[0] * c.shape[1],):
            return _vector(cho_solve(c, _columns(B, c.shape[0])))
        if B.shape[:2] != c.shape[:2] or B.ndim != 3:
            raise ValueError(f"right-hand side of shape {B.shape} for factors of shape {c.shape}")
    else:
        _check_square(c, "factor")
        if B.ndim not in (1, 2) or B.shape[0] != c.shape[0]:
            raise ValueError(f"right-hand side of shape {B.shape} for a factor of shape {c.shape}")
    if c.ndim == 3 or _openblas is None:
        c = np.tril(c)
        return np.linalg.solve(c.mT, np.linalg.solve(c, B))
    X = np.array(B, dtype=np.float64, order="F")
    info = dpotrs(np.asfortranarray(c, dtype=np.float64), X if X.ndim == 2 else X[:, None])
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
    A stack's inverse is R.T R per block, with R the ``numpy.linalg`` inverse
    of the factor's lower triangle. Where NumPy bundles no OpenBLAS, a dense
    inverse comes from :func:`_panel_inverse`, which like ``trtri`` and
    ``lauum`` works in one copy of the factor.
    """
    _check_square(c, "factor")
    if c.shape[-1] == 0:
        return np.zeros(c.shape)
    if c.ndim == 3 or _openblas is None:
        if not np.all(np.diagonal(c, axis1=-2, axis2=-1)):
            raise FactorizationError(f"factor of shape {c.shape} has a zero pivot")
        if c.ndim == 2:
            return _mirror_lower(_panel_inverse(c))
        root = np.linalg.inv(np.tril(c))
        return _mirror_lower(root.mT @ root)
    root = np.array(c, dtype=np.float64, order="F")
    _lower_inverse(root)
    info = dlauum(root)
    if info != 0:
        raise FactorizationError(f"lauum failed on a factor of size {c.shape[0]} (info={info})")
    # symmetric, so the C-ordered transpose holds the same values
    return _mirror_lower(root).T


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
        info = dtrtri(R)
        if info != 0:
            raise FactorizationError(f"trtri failed on a factor of size {n} (info={info})")
        return
    h = n // 2
    _lower_inverse(R[:h, :h])
    _lower_inverse(R[h:, h:])
    dtrmm(-1.0, R[h:, h:], R[h:, :h])
    dtrmm(1.0, R[:h, :h], R[h:, :h], side=1)


def _panel_inverse(c: np.ndarray) -> np.ndarray:
    """The lower triangle of R.T R, R = C^-1, for a dense factor C, through
    ``numpy.linalg`` in one copy of C's lower triangle; the rest of the copy
    is not meaningful.

    The copy becomes R, then R.T R, in column panels of :data:`PANEL`
    columns. Right to left, panel [j, k) of R is -R[k:, k:] C[k:, j:k]
    R[j:k, j:k], from the panels of R done and C's own panel; left to right,
    that of R.T R is R[j:, j:].T R[j:, j:k], from panels of R not yet
    overwritten. The copy's upper triangle stays zero, so the products read
    R as triangular, and each holds one panel besides the copy.
    """
    R = np.tril(c).astype(np.float64, copy=False)
    n = R.shape[0]
    for j in reversed(range(0, n, PANEL)):
        k = min(j + PANEL, n)
        diagonal = np.tril(np.linalg.inv(R[j:k, j:k]))
        np.matmul(R[k:, k:], R[k:, j:k] @ -diagonal, out=R[k:, j:k])
        R[j:k, j:k] = diagonal
    for j in range(0, n, PANEL):
        k = min(j + PANEL, n)
        R[j:, j:k] = R[j:, j:].T @ R[j:, j:k]
    return R


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
