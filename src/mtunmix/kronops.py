"""The covariance layer: Cholesky factors, solves, products, inverses,
log-determinants and PSD flooring of symmetric PL x PL matrices, one name per
job for both layouts.

A covariance is dense, a PL x PL array whose entry p * L + l is material p in
band l, or a band stack, an (L, P, P) array whose block l holds the entries
(p * L + l, q * L + l) of a covariance that is zero between bands.
:func:`check_layout` is the shape rule. Only this module reads band entries:
:func:`band_blocks` and :func:`dense_form` convert between the layouts and
:func:`add_bands` adds band blocks into either. A PL state vector has the same
order in both layouts. A factor is lower triangular and read below its diagonal
only.

A stack goes to NumPy's batched ``linalg``. A dense matrix goes to LAPACK and
BLAS of the OpenBLAS that NumPy bundles, bound when the module loads
(:data:`_openblas`); every call releases the GIL. Where NumPy bundles none
(Accelerate, MKL), :data:`_openblas` is None and a dense matrix takes
``numpy.linalg``; the two routes agree to rounding.

Only :func:`add_bands` and the LAPACK wrappers (:func:`dpotrf` to
:func:`dtrmm`) write into an argument. A matrix that is not numerically
positive definite raises :class:`~mtunmix.errors.FactorizationError`, a wrong
shape ValueError.
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

#: Width of the panels in which :func:`factor_inverse` inverts and
#: :func:`cho_solve` solves with a dense factor where NumPy bundles no OpenBLAS.
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
    """Run the body with NumPy's OpenBLAS on one thread, then restore the
    process's thread count, so the body's results do not depend on the core
    count. Where NumPy bundles no OpenBLAS this does nothing."""
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
    """``a`` as LAPACK takes a matrix: the address of ``a[0, 0]`` and the
    leading dimension. ``a`` must be float64 with contiguous columns, and
    writeable unless the routine only reads it (``written`` False); ValueError
    otherwise."""
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
    """(X + X^T) / 2 over the last two axes, as a new array."""
    out = X + X.mT
    out /= 2.0
    return out


def symmetric(X: np.ndarray) -> np.ndarray:
    """X itself where it is exactly symmetric over the last two axes, as
    :func:`symmetrize` would return it bit for bit; else :func:`symmetrize` (X)."""
    return X if np.array_equal(X, X.mT) else symmetrize(X)


def factor(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a dense matrix or of every block of a stack,
    with no jitter; :class:`FactorizationError` where one is not numerically
    positive definite. ``M`` must be exactly symmetric: the dense route may
    factor its transpose."""
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
    """:func:`factor` of M, or where that fails, of M + j I with
    j = ``JITTER_SCALE`` * mean(diag M), the mean over every block of a stack;
    :class:`FactorizationError` if both fail."""
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
    """X with M X = B, from M's lower factor ``c``. For a dense factor, B is a
    vector or a matrix; for a stack, a PL state vector or (L, P, k) right-hand
    sides per block. ValueError on mismatched shapes."""
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
    if c.ndim == 3:
        c = np.tril(c)
        return np.linalg.solve(c.mT, np.linalg.solve(c, B))
    if _openblas is None:
        return _panel_solve(c, B)
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
    """log|M| = 2 sum log diag(c) from M's factor ``c``; for a stack, of the
    block-diagonal matrix."""
    return 2.0 * float(np.sum(np.log(np.diagonal(c, axis1=-2, axis2=-1))))


def _mirror_lower(X: np.ndarray) -> np.ndarray:
    """Copy X's lower triangle into its upper one in place, over the last two
    axes, by diagonal blocks of :data:`MIRROR_BLOCK`; returns X."""
    n = X.shape[-1]
    for a in range(0, n, MIRROR_BLOCK):
        b = min(a + MIRROR_BLOCK, n)
        diagonal = X[..., a:b, a:b]
        np.copyto(diagonal, diagonal.mT, where=_STRICT_UPPER[: b - a, : b - a])
        X[..., a:b, b:] = X[..., b:, a:b].mT
    return X


def factor_inverse(c: np.ndarray) -> np.ndarray:
    """M^-1 = R^T R, R = c^-1, from M's lower factor ``c``, exactly symmetric
    (LAPACK ``potri``'s formula); ``c`` is left as it is. A 0 x 0 factor has a
    0 x 0 inverse. :class:`FactorizationError` on a zero pivot."""
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
    """Overwrite the lower triangle of the lower triangular R with that of
    R^-1; the upper triangle is neither read nor written.

    Recursive blocked inversion (Elmroth, Gustavson, Jonsson & Kagstrom, SIAM
    Review 46(1), 2004): with C = [[C11, 0], [C21, C22]] split at n // 2,
    C^-1 = [[R11, 0], [-R22 C21 R11, R22]], R11 and R22 the inverses of the
    diagonal blocks; an order up to :data:`INVERSE_LEAF` takes LAPACK
    ``trtri``.
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
    """The lower triangle of R^T R, R = C^-1, for a dense factor C, in one copy
    of C's lower triangle through ``numpy.linalg``; the rest of the array is
    not meaningful.

    In column panels [j, k) of :data:`PANEL`, right to left,
    R[k:, j:k] = -R[k:, k:] C[k:, j:k] R[j:k, j:k]; then left to right the
    panel of R^T R is R[j:, j:]^T R[j:, j:k].
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


def _panel_solve(c: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with C C^T X = B for a dense factor C, through ``numpy.linalg``, as a
    new array.

    Forward substitution C Y = B and then backward substitution C^T X = Y, by
    row panels [j, k) of :data:`PANEL`: each panel solves its diagonal block
    of C after the panels already solved are subtracted with one product.
    """
    X = np.array(B, dtype=np.float64)
    n = c.shape[0]
    for j in range(0, n, PANEL):
        k = min(j + PANEL, n)
        X[j:k] -= c[j:k, :j] @ X[:j]
        X[j:k] = np.linalg.solve(np.tril(c[j:k, j:k]), X[j:k])
    for j in reversed(range(0, n, PANEL)):
        k = min(j + PANEL, n)
        X[j:k] -= c[k:, j:k].T @ X[k:]
        X[j:k] = np.linalg.solve(np.tril(c[j:k, j:k]).T, X[j:k])
    return X


def psd_floor(X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The nearest PSD matrix (or stack) to S = symmetric(X), its negative
    eigenvalues clipped at 0 (Higham, Linear Algebra Appl. 103, 1988), and its
    plain Cholesky factor, None where it has none.

    An S that passes the plain Cholesky test (no jitter, which would pass a
    slightly indefinite matrix) is returned with that factor, X itself where X
    is exactly symmetric. Any other S is eigendecomposed, and no factor is
    returned, whether an eigenvalue was clipped or not.
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
