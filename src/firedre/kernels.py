"""Gaussian kernel matrices, bandwidth grids, and kernel density estimates.

Throughout, the Gaussian kernel is parametrized by a variance-like bandwidth
t > 0:

    k_t(x, y) = c(t) * exp(-||x - y||^2 / (2 t)),   c(t) = (2 pi t)^(-d/2)

so t multiplies the variance, not the standard deviation.  With the
normalizing constant c(t) the kernel integrates to one over R^d and the
family is a delta family as t -> 0; with ``normalized=False`` the constant
is dropped and k_t(x, x) = 1.
"""

from dataclasses import dataclass

import numpy as np

# elements per output row block in the pairwise distance computation
# (block_rows * m floats, 512 KiB): the block and one scratch block of the
# same size stay in a core's L2 cache while the coordinates are summed into it
_BLOCK_ELEMS = 2 ** 16


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel with bandwidth ``t`` (variance scale).

    ``normalized`` keeps the (2 pi t)^(-d/2) prefactor so that the kernel is
    a probability density in its second argument.
    """

    t: float
    normalized: bool = True

    def __post_init__(self):
        if not np.isfinite(self.t) or self.t <= 0:
            raise ValueError(f"kernel bandwidth t must be finite and > 0, got {self.t}")


def as_sample_matrix(X, name="X"):
    """Validate and return an (n, d) float array of sample points."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-d (n, d), got shape {A.shape}")
    n, d = A.shape
    if n < 1 or d < 1:
        raise ValueError(f"{name} must have n >= 1 rows and d >= 1 columns, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _sq_dists(A, B):
    # Entry (i, j) is the float64 sum of (A[i, k] - B[j, k])**2 over k,
    # added in the fixed order k = 0, 1, ..., d-1.  It depends on rows i and
    # j alone, so the result does not depend on the block size, D(A, B) is
    # exactly D(B, A).T (negating a difference is exact), and the diagonal
    # of D(A, A) is exactly zero.  B's coordinates are read from the rows of
    # one contiguous copy of B.T, not as strided columns of B.
    n, d = A.shape
    m = B.shape[0]
    Bt = np.ascontiguousarray(B.T)
    out = np.empty((n, m))
    block = max(1, _BLOCK_ELEMS // max(1, m))
    # the block of coordinate k = 1, 2, ... before it is added; none at d = 1
    scratch = np.empty((min(block, n), m)) if d > 1 else None
    for start in range(0, n, block):
        stop = min(start + block, n)
        acc = out[start:stop]
        np.subtract(A[start:stop, :1], Bt[0], out=acc)
        np.multiply(acc, acc, out=acc)
        for k in range(1, d):
            tmp = scratch[: stop - start]
            np.subtract(A[start:stop, k : k + 1], Bt[k], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            acc += tmp
    return out


def gaussian_kernel_matrix(A, B, spec: KernelSpec, sq=None):
    """Kernel matrix G with G[i, j] = k_t(A[i], B[j]).

    A is (n, d), B is (m, d); returns (n, m).  Entries lie in
    (0, c(t)] and the matrix is symmetric positive semidefinite when A is B.
    ``sq``, when given, is _sq_dists(A, B) or an index slice of the squared
    distances of larger samples, which is bitwise the same; G is then built
    from it, left unchanged, with the same arithmetic, and in C order
    whatever the layout of sq, so that products with G add in the same order.
    """
    A = as_sample_matrix(A, "A")
    B = as_sample_matrix(B, "B")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: A has d={A.shape[1]}, B has d={B.shape[1]}")
    if sq is None:
        G = _sq_dists(A, B)
        np.divide(G, -2.0 * spec.t, out=G)
    elif sq.shape != (A.shape[0], B.shape[0]):
        raise ValueError(f"sq has shape {sq.shape}, expected {(A.shape[0], B.shape[0])}")
    else:
        G = np.divide(sq, -2.0 * spec.t, order="C")
    np.exp(G, out=G)
    if spec.normalized:
        d = A.shape[1]
        G *= (2.0 * np.pi * spec.t) ** (-0.5 * d)
    return G


def row_blocks(rows, least):
    """As many row slices as fit least + 64 rows each, so each has ``least`` rows or more unless it is the only one.

    Each slice but the last starts and ends at a multiple of 64, so the entries of a block's Gram keep their
    places modulo 64 in the flat array, and with them their lanes in the vectorized loops and in dgemv: a row
    sum or a product with coefficients of a block is bitwise those rows of the whole Gram's.
    """
    k = max(1, rows // (least + 64))
    edges = [64 * (i * rows // (64 * k)) for i in range(k)] + [rows]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


# least rows of each Gram block multiplied into coefficients, unless it is the only one
PRODUCT_ROWS = 192

# OpenBLAS (SkylakeX and later cores) routes a dgemm of at most 100^3
# multiply-adds to its small-matrix kernels, which add in another order than
# its blocked kernels do
_SMALL_GEMM = 100 ** 3


def _product_rows(rows, others):
    """The least rows of each block of one side of a dgemm whose two other sides multiply to ``others``, 0 for a dgemv.

    Where the whole product is larger than _SMALL_GEMM, so is each block's, and the blocks take its dgemm route.
    """
    if rows * others > _SMALL_GEMM:
        return max(PRODUCT_ROWS, _SMALL_GEMM // others + 1)
    return PRODUCT_ROWS


def product_blocks(rows, others):
    """The row_blocks of one side of a dgemm whose two other sides multiply to ``others`` (_product_rows)."""
    return row_blocks(rows, _product_rows(rows, others))


def read_rows(X, Z, reads, sq=None):
    """Apply each (kernel, out, coef) of reads to k(X, Z) by row blocks of X: out[rows] = G @ coef.

    coef None reads G.mean(axis=1).  The blocks are the row_blocks of the
    largest floor any read needs: _BLOCK_ELEMS entries for a row mean,
    _product_rows for a product with a vector or an n x L matrix, so each
    out is bitwise that read of the whole Gram.  Per block, each distinct
    kernel's Gram is built once and dropped before the next: a lone
    kernel's over its own distances, in place; several from one
    D(X[rows], Z); every one from sq[rows] when ``sq`` (as in
    gaussian_kernel_matrix) is given.  With no reads, nothing is computed.
    """
    if not reads:
        return
    by_kernel = {}
    for kernel, out, coef in reads:
        by_kernel.setdefault(kernel, []).append((out, coef))
    least = max(
        _BLOCK_ELEMS // Z.shape[0] if coef is None else _product_rows(X.shape[0], coef.size if coef.ndim > 1 else 0)
        for _, _, coef in reads
    )
    for rows in row_blocks(X.shape[0], least):
        A = X[rows]
        D = sq[rows] if sq is not None else _sq_dists(A, Z) if len(by_kernel) > 1 else None
        for kernel, kernel_reads in by_kernel.items():
            G = gaussian_kernel_matrix(A, Z, kernel, sq=D)
            for out, coef in kernel_reads:
                out[rows] = G.mean(axis=1) if coef is None else G @ coef
            del G
        del D


def kernel_row_means(A, B, spec: KernelSpec, sq=None):
    """k(A, B).mean(axis=1), bit for bit, in blocks of _BLOCK_ELEMS entries or more (read_rows)."""
    out = np.empty(A.shape[0])
    read_rows(A, B, [(spec, out, None)], sq)
    return out


def bandwidth_grid(points, neighbors=10, size=10):
    """Data-driven bandwidth grid (t0, t0*2, ..., t0*2^(size-1)).

    t0 is the mean over points of the mean distance to the ``neighbors``
    nearest other points (self excluded).  Requires at least neighbors + 1
    points and at least two distinct ones.
    """
    X = as_sample_matrix(points, "points")
    n = X.shape[0]
    if n < neighbors + 1:
        raise ValueError(f"need at least {neighbors + 1} points for {neighbors}-NN bandwidth, got {n}")
    # Row blocks of the squared distances (sums of squares, so never
    # negative) bound the memory at O(block x n).  Each row's nearest
    # distances are sorted and written into `nearest`, a strided view like
    # the leading columns of a full n x n matrix, so its mean adds in the
    # same order and t0 does not depend on the block size.
    nearest = np.empty((n, neighbors + 1))[:, :neighbors]
    block = max(1, _BLOCK_ELEMS // n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        D = _sq_dists(X[start:stop], X)
        D[np.arange(stop - start), np.arange(start, stop)] = np.inf
        D.partition(neighbors - 1, axis=1)
        rows = D[:, :neighbors]
        rows.sort(axis=1)
        np.sqrt(rows, out=nearest[start:stop])
    t0 = float(nearest.mean())
    if t0 <= 0.0:
        raise ValueError("degenerate sample: all points identical, bandwidth would be 0")
    return t0, t0 * np.power(2.0, np.arange(size, dtype=np.float64))


def kde(points, eval_points, spec: KernelSpec):
    """Kernel density estimate of the sample ``points`` at ``eval_points``.

    Returns the vector (1/n) sum_i k_t(x_i, e_j).  The spec must be
    normalized, otherwise the estimate is not a density.
    """
    if not spec.normalized:
        raise ValueError("kde requires a normalized kernel spec")
    X = as_sample_matrix(points, "points")
    return kernel_row_means(as_sample_matrix(eval_points, "eval_points"), X, spec)
