"""Small shared linear-algebra helpers with deterministic conventions."""

import ctypes
import ctypes.util
import functools
import glob
import math
import os
import threading
from contextlib import contextmanager

import numpy as np


class NumericalError(RuntimeError):
    """Raised when a linear system or factorization fails numerically."""


def eigh_descending(S):
    """Eigendecomposition of a symmetric matrix with fixed conventions.

    Returns (w, Q) with eigenvalues in descending order and each eigenvector
    scaled so that its first nonzero component (first component exceeding
    1e-12 of the vector's max magnitude) is positive.  Only symmetric input
    is supported; symmetry is the caller's responsibility.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    w, Q = np.linalg.eigh(S)
    w = w[::-1].copy()
    Q = Q[:, ::-1].copy()
    absQ = np.abs(Q)
    lead = (absQ > absQ.max(axis=0, keepdims=True) * 1e-12).argmax(axis=0)
    signs = np.sign(Q[lead, np.arange(Q.shape[1])])
    signs[signs == 0.0] = 1.0
    Q *= signs
    return w, Q


# pivots between two looks at how fast the residual trace falls
_CHECK = 8
# residual-trace tolerance at which the spectral engines take a pivoted
# Cholesky factor of a Gaussian Gram as the Gram itself
RANK_TOL = 1e-14


def pivoted_cholesky(K, tol, cap):
    """Greedy pivoted Cholesky factor of a positive semidefinite matrix.

    Returns L of shape (r, n) with K ~ L'L, where each pivot is the largest
    diagonal entry of the residual K - L'L and r is the first count at which
    the residual trace is at most ``tol * trace(K)``; or None when r would
    exceed ``cap``, or K has no positive finite trace.

    Every _CHECK pivots the attempt gives up early, returning None, when the
    residual trace will not plausibly reach the tolerance by the cap: when the
    fall in log(residual trace) per pivot still needed exceeds the fall per
    pivot over the last _CHECK pivots, if that is below the average so far
    (the decay is slowing), or 8 times it otherwise.  The Gaussian Gram of
    low-dimensional data decays faster as pivots accrue and is let through;
    a full-rank one decays ever slower and is caught after a few checks.
    The result depends only on K.
    """
    n = K.shape[0]
    d = K.diagonal().copy()
    trace = d.sum()
    if not 0.0 < trace < np.inf:
        return None
    stop = tol * trace
    L = np.empty((cap, n))
    sq = np.empty(n)
    mark = trace
    for j in range(cap):
        i = d.argmax()
        row = L[j]
        np.matmul(L[:j, i], L[:j], out=row)
        np.subtract(K[i], row, out=row)
        row /= math.sqrt(d[i])
        np.square(row, out=sq)
        d -= sq
        left = d.sum()
        done = j + 1
        if left <= stop:
            return L[:done]
        if done % _CHECK == 0 and done < cap:
            recent = math.log(mark / left) / _CHECK
            needed = math.log(left / stop) / (cap - done)
            if needed > (1.0 if recent < math.log(trace / left) / done else 8.0) * recent:
                return None
            mark = left
    return None


def solve_linear(A, b, context="", positive_definite=False, lower=False):
    """np.linalg.solve wrapped to raise NumericalError with context.

    With positive_definite=True, A is a C-ordered float64 array whose upper
    triangle (C order; with lower=True its lower triangle), diagonal
    included, holds a symmetric positive definite matrix; the other strict
    triangle is not read.  The solve overwrites the triangle it reads by its
    Cholesky factor, through LAPACKE dposv of numpy's OpenBLAS, or, where no
    LAPACKE is found, solves the matrix symmetrized into a copy by
    np.linalg.solve (an LU) as without the flag.  Through dposv, an A that
    is not numerically positive definite raises NumericalError.
    """
    where = f": {context}" if context else ""
    api = _lapacke() if positive_definite else None
    if api is not None:
        n = A.shape[0]
        x = np.array(b, dtype=np.float64)
        if A.shape != (n, n) or x.shape != (n,):
            raise ValueError(f"expected a square matrix and a matching vector, got shapes {A.shape} and {x.shape}")
        # column-major on a C-ordered array: its "U" is A's lower triangle
        info = api[3](_COL_MAJOR, b"U" if lower else b"L", n, 1, A, n, x, n)
        if info > 0:
            raise NumericalError(f"linear solve failed{where} (matrix is not positive definite: leading minor {info})")
        _check_info(info, "dposv")
    else:
        if positive_definite:
            half = np.tril if lower else np.triu
            S = half(A)
            S += half(A, -1 if lower else 1).T
            A = S
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"linear solve failed{where} ({exc})") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"linear solve produced non-finite values{where}")
    return x


# (get, set) symbol names of the thread-count API, by OpenBLAS build: the
# scipy-openblas build bundled with numpy wheels, then plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# the OpenBLAS thread count is one setting for the whole process, so the
# regions that change it are counted process-wide too
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = None


def _openblas_paths():
    """The OpenBLAS numpy wheels bundle (numpy.libs/ or numpy/.dylibs/), then a system one."""
    numpy_dir = os.path.dirname(np.__file__)
    yield from sorted(glob.glob(os.path.join(numpy_dir + ".libs", "*openblas*")))
    yield from sorted(glob.glob(os.path.join(numpy_dir, ".dylibs", "*openblas*")))
    system = ctypes.util.find_library("openblas")  # runs ldconfig, so only when nothing is bundled
    if system is not None:
        yield system


def _openblas_libs():
    """ctypes handles of the libraries _openblas_paths names that load."""
    for path in _openblas_paths():
        try:
            yield ctypes.CDLL(path)
        except OSError:
            continue


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    Loading a library numpy has already loaded returns numpy's handle.
    """
    for lib in _openblas_libs():
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_thread_count():
    """Threads numpy's OpenBLAS currently uses, or None when it is not found."""
    api = _openblas()
    return None if api is None else int(api[0]())


@contextmanager
def blas_threads(n):
    """Run the body with numpy's OpenBLAS on ``n`` threads.

    The setting is process-global: the outermost region sets it and restores
    the caller's count on exit, also when the body raises; regions entered
    while one is open (nested, or from other threads) change nothing.  Does
    nothing when no OpenBLAS is found.  As a decorator, @blas_threads(n) runs
    each call of the function inside a region of its own.
    """
    global _blas_depth, _blas_saved
    api = _openblas()
    if api is None:
        yield
        return
    get, set_ = api
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(n)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


# (prefix, suffix, integer type) of the LAPACKE symbols, by OpenBLAS build:
# the scipy-openblas64 and scipy-openblas32 builds bundled with numpy wheels,
# then a plain OpenBLAS built with 64-bit integers.  A plain unsuffixed
# LAPACKE is left out: its name does not tell the width of its integers.
_LAPACKE_SYMBOLS = (
    ("scipy_LAPACKE_", "64_", ctypes.c_int64),
    ("scipy_LAPACKE_", "", ctypes.c_int),
    ("LAPACKE_", "64_", ctypes.c_int64),
)
_COL_MAJOR = 102


@functools.cache
def _lapacke():
    """(dsytrd, dormtr, dpbsv, dposv) of numpy's OpenBLAS through LAPACKE, or None.

    Column-major calls on C-ordered arrays: a symmetric matrix is its own
    transpose, and an (r, n) array holds r column-major vectors of length n.
    """
    for lib in _openblas_libs():
        for prefix, suffix, int_t in _LAPACKE_SYMBOLS:
            names = [f"{prefix}{routine}{suffix}" for routine in ("dsytrd", "dormtr", "dpbsv", "dposv")]
            if not all(hasattr(lib, name) for name in names):
                continue
            sytrd, ormtr, pbsv, posv = (getattr(lib, name) for name in names)
            arr = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
            layout, char = ctypes.c_int, ctypes.c_char
            sytrd.argtypes = [layout, char, int_t, arr, int_t, arr, arr, arr]
            ormtr.argtypes = [layout, char, char, char, int_t, int_t, arr, int_t, arr, arr, int_t]
            pbsv.argtypes = [layout, char, int_t, int_t, int_t, arr, int_t, arr, int_t]
            posv.argtypes = [layout, char, int_t, int_t, arr, int_t, arr, int_t]
            for fn in (sytrd, ormtr, pbsv, posv):
                fn.restype = int_t
            return sytrd, ormtr, pbsv, posv
    return None


def _check_info(info, routine):
    if info != 0:
        raise NumericalError(f"LAPACKE {routine} failed (info={info})")


def _cube_band(d, e):
    """Lower band (n, 4) of T^3 for T = tridiag(e, d, e): row j holds T^3[j + k, j], k = 0..3.

    Entries past the matrix are zero.  O(n), from T^3 = T T^2 written out.
    """
    n = d.size
    D = np.zeros(n + 3)
    E = np.zeros(n + 3)
    D[1:n + 1] = d
    E[1:n] = e
    # d_{j-1}, d_j, d_{j+1}, d_{j+2} and e_{j-1}, ..., e_{j+2} at row j, zero past either end
    dm, d0, d1, d2 = D[:n], D[1:n + 1], D[2:n + 2], D[3:]
    em, e0, e1, e2 = E[:n], E[1:n + 1], E[2:n + 2], E[3:]
    band = np.empty((n, 4))
    band[:, 0] = d0 * (d0 * d0 + em * em + e0 * e0) + em * em * (dm + d0) + e0 * e0 * (d0 + d1)
    band[:, 1] = e0 * (em * em + d0 * d0 + d0 * d1 + d1 * d1 + e0 * e0 + e1 * e1)
    band[:, 2] = e0 * e1 * (d0 + d1 + d2)
    band[:, 3] = e0 * e1 * e2
    return band


def tridiagonal_path(K, b, lams):
    """Rows K (K^3 + lam I)^{-1} b, one per lam, from one tridiagonal reduction of K; or None.

    K is symmetric.  dsytrd reduces it once to K = Z T Z' (T tridiagonal, Z
    held as Householder reflectors); then K^3 + lam I = Z (T^3 + lam I) Z'
    and each lam costs O(n): the 7-diagonal band of T^3 + lam I, a banded
    Cholesky solve (dpbsv) against Z'b and a product with T.  One dormtr
    applies Z to all the rows at once.  Returns None when no LAPACKE is
    found in numpy's OpenBLAS; raises NumericalError when a T^3 + lam I is
    not numerically positive definite (lam far below eps * ||K||^3).
    """
    api = _lapacke()
    if api is None:
        return None
    sytrd, ormtr, pbsv, _ = api
    A = np.array(K, dtype=np.float64, order="C")
    c = np.array(b, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n) or c.shape != (n,):
        raise ValueError(f"expected a square matrix and a matching vector, got shapes {A.shape} and {c.shape}")
    d, e, tau = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(n - 1, 1))
    _check_info(sytrd(_COL_MAJOR, b"L", n, A, n, d, e, tau), "dsytrd")
    e = e[:n - 1]
    _check_info(ormtr(_COL_MAJOR, b"L", b"L", b"T", n, 1, A, n, tau, c, n), "dormtr")
    cube = _cube_band(d, e)
    Y = np.empty((len(lams), n))
    for i, lam in enumerate(lams):
        band = cube.copy()
        band[:, 0] += lam
        Y[i] = c
        info = pbsv(_COL_MAJOR, b"L", n, 3, 1, band, 4, Y[i], n)
        if info > 0:
            raise NumericalError(f"T^3 + lam I is not positive definite in path at lam={lam} (minor {info})")
        _check_info(info, "dpbsv")
    V = Y * d  # T Y', row by row
    V[:, :-1] += Y[:, 1:] * e
    V[:, 1:] += Y[:, :-1] * e
    _check_info(ormtr(_COL_MAJOR, b"L", b"L", b"N", n, len(lams), A, n, tau, V, n), "dormtr")
    return V
