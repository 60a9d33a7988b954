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


def solve_linear(A, b, context=""):
    """np.linalg.solve wrapped to raise NumericalError with context."""
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linear solve failed{': ' + context if context else ''} ({exc})") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"linear solve produced non-finite values{': ' + context if context else ''}")
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


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    Loading a library numpy has already loaded returns numpy's handle.
    """
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
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
    nothing when no OpenBLAS is found.
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
