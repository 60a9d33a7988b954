"""Regularized Fredholm solvers for density-ratio estimation.

Given samples z_p ~ p (size n) and z_q ~ q (size m), the ratio q/p solves
the integral equation (K_p f)(x) = (K_q 1)(x), where K_p is the kernel
integral operator of a Gaussian delta-family kernel k_t under p.  Replacing
the operators by their empirical versions and penalizing an RKHS norm with
kernel k_H gives finite linear systems in a coefficient vector v; every
estimate here is a kernel expansion over the p-sample,

    f(x) = sum_i k_H(x_i, x) v_i,

a RatioEstimate(centers=z_p, v, kernel=k_H) read as k(X, centers) @ v.

Gram conventions: K_pp = (1/n) k(z_p, z_p), K_pq = (1/m) k(z_p, z_q),
K_qp = (1/n) k(z_q, z_p), K_qq = (1/m) k(z_q, z_q), and K_H = k_H(z_p, z_p)
with no sample-size normalization.  Estimates are never clipped inside the
solvers; evaluate(..., clip_negative=True) applies max(f, 0) afterwards.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, as_sample_matrix, gaussian_kernel_matrix, kernel_row_means, read_rows
from .linalg import RANK_TOL, NumericalError, eigh_descending, pivoted_cholesky, solve_linear, tridiagonal_path


@dataclass(eq=False)
class RatioEstimate:
    """Kernel expansion f(x) = sum_i kernel(centers_i, x) v_i representing an estimated ratio."""

    centers: np.ndarray
    v: np.ndarray
    kernel: KernelSpec

    def __post_init__(self):
        if self.v.shape != (self.centers.shape[0],):
            raise ValueError(f"coefficient shape {self.v.shape} does not match {self.centers.shape[0]} centers")

    def evaluate(self, X, clip_negative=False):
        return evaluate(self, X, clip_negative=clip_negative)


def _p_grams(z_p, k: KernelSpec, k_h: KernelSpec, sq_pp=None):
    """K_pp = k(z_p, z_p) / n and K_H = k_h(z_p, z_p); one Gram serves both when k_h == k."""
    G = gaussian_kernel_matrix(z_p, z_p, k, sq=sq_pp)
    K_H = G if k_h == k else gaussian_kernel_matrix(z_p, z_p, k_h, sq=sq_pp)
    return G / z_p.shape[0], K_H


def evaluate(estimate: RatioEstimate, X, clip_negative=False):
    """Evaluate a ratio estimate at new points X (shape (m, d)): k(X, centers) @ v, by row blocks."""
    X = as_sample_matrix(X, "X")
    out = np.empty(X.shape[0])
    read_rows(X, estimate.centers, [(estimate.kernel, out, estimate.v)])
    if clip_negative:
        out = np.maximum(out, 0.0)
    return out


def _check_lam(lam):
    if not np.isfinite(lam) or lam <= 0:
        raise ValueError(f"lam must be finite and > 0, got {lam}")


def _check_lams(lams):
    """The lambda grid of a regularization path as a float array, validated."""
    lams = np.asarray(lams, dtype=np.float64)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("lams must be a non-empty 1-d sequence")
    for lam in lams:
        _check_lam(lam)
    return lams


# === Tikhonov solvers ===


def solve_type15(z_p, z_q, k: KernelSpec, k_prime: KernelSpec, k_h: KernelSpec, lam, sq_pp=None, sq_pq=None):
    """Two-kernel variant: push q through a second delta kernel k'.

    Minimizes (1/n) ||K_pp K_H v - K'_pq 1||^2 + lam v' K_H v where
    (K'_pq)_ij = (1/m) k'(x_i, x'_j), giving

        v = (K_pp^2 K_H + n lam I)^{ -1} K_pp K'_pq 1.

    With k' = k this is the plain squared-loss estimator under p.  The
    target K'_pq 1 is summed in row blocks (kernel_row_means).  sq_pp and
    sq_pq are as in solve_type1_path; the Grams built from them are bitwise
    those built from the points.
    """
    _check_lam(lam)
    z_p = as_sample_matrix(z_p, "z_p")
    z_q = as_sample_matrix(z_q, "z_q")
    target = kernel_row_means(z_p, z_q, k_prime, sq=sq_pq)
    v = _solve_cubic(z_p, target, k, k_h, lam, "type15 system", sq_pp)
    return RatioEstimate(centers=z_p, v=v, kernel=k_h)


def solve_type1(z_p, z_q, k: KernelSpec, k_h: KernelSpec, lam, sq_pp=None, sq_pq=None):
    """Squared loss under p: v = (K_pp^2 K_H + n lam I)^{-1} K_pp K_pq 1."""
    return solve_type15(z_p, z_q, k, k, k_h, lam, sq_pp=sq_pp, sq_pq=sq_pq)


def solve_type1_path(z_p, z_q, k: KernelSpec, lams, sq_pp=None, sq_pq=None):
    """Regularization path of solve_type1 when k_H equals k.

    With a single kernel, K_H = n K_pp, so one factorization of K_pp serves
    every lam (see _same_kernel_path):

        v(lam) = K_pp (K_pp^3 + lam I)^{-1} K_pq 1 / n,

    or Q diag(w / (w^3 + lam)) Q' K_pq 1 / n with K_pp = Q diag(w) Q'.

    Returns one RatioEstimate per entry of lams; function values agree with
    the per-lam direct solves, and over one lam it is the direct solve.
    sq_pp and sq_pq, when given, are the squared distances of z_p to z_p and
    to z_q (see gaussian_kernel_matrix), so a caller that walks a bandwidth
    grid computes them once.
    """
    lams = _check_lams(lams)
    if lams.size == 1:
        return [solve_type1(z_p, z_q, k, k, lams[0], sq_pp=sq_pp, sq_pq=sq_pq)]
    return solve_type15_path(z_p, z_q, k, k, lams, sq_pp=sq_pp, sq_pq=sq_pq)


def solve_type15_path(z_p, z_q, k: KernelSpec, k_prime: KernelSpec, lams, sq_pp=None, sq_pq=None):
    """Regularization path of solve_type15 when k_H equals k (see solve_type1_path)."""
    lams = _check_lams(lams)
    if lams.size == 1:
        return [solve_type15(z_p, z_q, k, k_prime, k, lams[0], sq_pp=sq_pp, sq_pq=sq_pq)]
    z_p = as_sample_matrix(z_p, "z_p")
    K_pp = gaussian_kernel_matrix(z_p, z_p, k, sq=sq_pp) / z_p.shape[0]
    target = kernel_row_means(z_p, as_sample_matrix(z_q, "z_q"), k_prime, sq=sq_pq)
    return _same_kernel_path(z_p, K_pp, target, k, lams)


def solve_type2_path(z_p, q_values, k: KernelSpec, lams, sq_pp=None):
    """Regularization path of solve_type2 when k_H equals k (see solve_type1_path)."""
    lams = _check_lams(lams)
    if lams.size == 1:
        return [solve_type2(z_p, q_values, k, k, lams[0], sq_pp=sq_pp)]
    z_p = as_sample_matrix(z_p, "z_p")
    q = _check_q_values(q_values, z_p.shape[0], "q_values")
    K_pp = gaussian_kernel_matrix(z_p, z_p, k, sq=sq_pp) / z_p.shape[0]
    return _same_kernel_path(z_p, K_pp, q, k, lams)


def _spectrum(K_pp):
    """(w, Q) with K_pp ~ Q diag(w) Q', of rank r from a pivoted Cholesky factor; or None.

    The Gaussian K_pp of low-dimensional data is numerically low rank: with
    K_pp ~ L'L to a residual trace of RANK_TOL * trace(K_pp), a thin QR
    L' = Q_L R and the r x r eigendecomposition R R' = V diag(w) V' give
    Q = Q_L V.  Past r = n // 3 pivots, or when the factor is not on course
    to stay below that, it returns None and the path reduces K_pp itself
    (see _same_kernel_path); K_pp alone decides the route.
    """
    L = pivoted_cholesky(K_pp, RANK_TOL, K_pp.shape[0] // 3)
    if L is None:
        return None
    Q_L, R = np.linalg.qr(L.T)
    w, V = eigh_descending(R @ R.T)
    return w, Q_L @ V


def _solve_cubic(z_p, target, k, k_h, lam, context, sq_pp=None):
    """v = (K_pp^2 K_H + n lam I)^{-1} K_pp target, the direct system of type1, type15 and type2.

    With k_H = k the system is n (K^3 + lam I) for K = K_pp.  Then, with
    c = lam^(1/3) and B = K / c, K^3 + lam I = c^3 (B + I)(B^2 - B + I); both
    factors are positive definite for positive semidefinite K (eigenvalues
    b + 1 >= 1 and b^2 - b + 1 >= 3/4), so two Cholesky solves replace the
    two products and the LU of the assembled system, about 5/3 n^3 flops
    against 4.7 n^3.  Both factors live in the one n x n array the Gram is
    built in: B in its lower triangle, B^2 - B in its upper one
    (_square_minus_into_upper), their diagonals set in turn before each
    solve.  Otherwise the system is assembled as it reads and solved by LU.
    """
    n = z_p.shape[0]
    if k_h != k:
        K_pp, K_H = _p_grams(z_p, k, k_h, sq_pp)
        rhs = K_pp @ target
        A = np.matmul(K_pp @ K_pp, K_H, out=K_pp)
        del K_pp, K_H  # the solve then holds only A and LAPACK's copy of it
        return _ridge_solves(A, rhs, [n * lam], context)[0]
    B = gaussian_kernel_matrix(z_p, z_p, k, sq=sq_pp)
    B /= n
    rhs = B @ target
    c = lam ** (1.0 / 3.0)
    B /= c
    diag = np.diag_indices_from(B)
    diag_b = B[diag]
    diag_s = _square_minus_into_upper(B)
    B[diag] = diag_b + 1.0
    y = solve_linear(B, rhs, context, positive_definite=True, lower=True)
    B[diag] = diag_s + 1.0
    return solve_linear(B, y, context, positive_definite=True) / (n * c ** 3)


# rows per panel of _square_minus_into_upper
_PANEL = 64


def _square_minus_into_upper(B):
    """Write S = B B' - B over the strict upper triangle of a symmetric B; return S's diagonal.

    B's strict lower triangle is left as it is, so B and S then share B's
    array.  By panels of _PANEL rows from the top down: each panel is copied
    before its rows are written, and the rows below it are still whole rows
    of B.  The products take the n^3 flops of one syrk of B, and the panel
    and one product of it are all the memory added.
    """
    n = B.shape[0]
    diag = np.empty(n)
    strict = np.triu(np.ones((_PANEL, _PANEL), dtype=bool), 1)
    for i0 in range(0, n, _PANEL):
        i1 = min(i0 + _PANEL, n)
        panel = B[i0:i1].copy()
        block = panel @ panel.T
        block -= panel[:, i0:i1]
        diag[i0:i1] = block.diagonal()
        np.copyto(B[i0:i1, i0:i1], block, where=strict[: i1 - i0, : i1 - i0])
        np.subtract(panel @ B[i1:].T, panel[:, i1:], out=B[i0:i1, i1:])
    return diag


def _same_kernel_path(z_p, K_pp, target, k, lams):
    """v(lam) = K_pp (K_pp^3 + lam I)^{-1} target / n for each lam, as estimates.

    From the rank-r spectrum where _spectrum finds one; else from one
    tridiagonal reduction of K_pp and a banded solve per lam
    (linalg.tridiagonal_path), or, where numpy's OpenBLAS has no LAPACKE,
    the dense eigendecomposition of K_pp.  One lam takes the direct solve.
    """
    spectrum = _spectrum(K_pp)
    coefs = tridiagonal_path(K_pp, target, lams) if spectrum is None else None
    if coefs is None:
        w, Q = spectrum or eigh_descending(K_pp)
        c = Q.T @ target
        denoms = w ** 3 + lams[:, None]
        bad = np.flatnonzero((denoms <= 0.0).any(axis=1))
        if bad.size:
            raise NumericalError(f"non-positive shifted eigenvalue in path at lam={lams[bad[0]]}")
        coefs = [Q @ (w / denom * c) for denom in denoms]
    return [RatioEstimate(centers=z_p, v=coef / z_p.shape[0], kernel=k) for coef in coefs]


def solve_combined(z_p, z_q, k: KernelSpec, k_h: KernelSpec, gamma, lam):
    """Convex combination of the squared losses under p and under q.

    Stationarity of
        (gamma/n) ||K_pp K_H v - K_pq 1||^2
        + ((1-gamma)/m) ||K_qp K_H v - K_qq 1||^2 + lam v' K_H v
    gives
        [ (gamma/n) K_pp^2 + ((1-gamma)/m) K_qp' K_qp ] K_H v + lam v = rhs,
        rhs = (gamma/n) K_pp K_pq 1 + ((1-gamma)/m) K_qp' K_qq 1.

    Note the ridge term is lam, not n lam: the system is the exact gradient
    stationarity of the objective above.  gamma = 1 recovers solve_type1
    called with the same lam.
    """
    _check_lam(lam)
    return _combined(z_p, z_q, k, k_h, gamma, [lam])[0]


def solve_combined_path(z_p, z_q, k: KernelSpec, gamma, lams, sq_pp=None, sq_pq=None):
    """solve_combined at each lam with k_H = k, bit for bit (sq_pp, sq_pq as in solve_type1_path)."""
    return _combined(z_p, z_q, k, k, gamma, _check_lams(lams), sq_pp, sq_pq)


def _combined(z_p, z_q, k, k_h, gamma, lams, sq_pp=None, sq_pq=None):
    """solve_combined at each lam: its lam-free product M K_H and rhs are built once.

    The one n x m Gram G = k(z_p, z_q) gives K_pq 1 as its row means (bitwise
    kernel_row_means, type1's target) and is then divided by n in place to
    K_qp' = G / n; K_qq 1 is summed in row blocks (kernel_row_means), so no
    m x m Gram is built.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    z_p = as_sample_matrix(z_p, "z_p")
    z_q = as_sample_matrix(z_q, "z_q")
    n, m = z_p.shape[0], z_q.shape[0]
    K_pp, K_H = _p_grams(z_p, k, k_h, sq_pp)
    G = gaussian_kernel_matrix(z_p, z_q, k, sq=sq_pq)
    target_p = G.mean(axis=1)
    G /= n
    rhs = (gamma / n) * (K_pp @ target_p) + ((1.0 - gamma) / m) * (G @ kernel_row_means(z_q, z_q, k))
    M = (gamma / n) * (K_pp @ K_pp) + ((1.0 - gamma) / m) * (G @ G.T)
    del G
    P = np.matmul(M, K_H, out=K_pp)
    del K_pp, K_H, M  # the solves then hold only P and LAPACK's copy of it
    coefs = _ridge_solves(P, rhs, lams, "combined system")
    return [RatioEstimate(centers=z_p, v=v, kernel=k_h) for v in coefs]


def solve_rkhs_loss(z_p, z_q, k: KernelSpec, lam):
    """RKHS-norm data fit; loss and penalty share one kernel.

    Minimizes ||K_zp f - K_zq 1||_H^2 + lam ||f||_H^2 over f in the span of
    k(x_i, .), which reduces to v = (K_pp K_H + n lam I)^{-1} K_pq 1.
    """
    return solve_rkhs_loss_path(z_p, z_q, k, [lam])[0]


def solve_rkhs_loss_path(z_p, z_q, k: KernelSpec, lams, sq_pp=None, sq_pq=None):
    """solve_rkhs_loss at each lam, bit for bit: K_pp K_H and the target are built once.

    sq_pp and sq_pq are as in solve_type1_path.
    """
    lams = _check_lams(lams)
    z_p = as_sample_matrix(z_p, "z_p")
    z_q = as_sample_matrix(z_q, "z_q")
    K_pp, K_H = _p_grams(z_p, k, k, sq_pp)
    target = kernel_row_means(z_p, z_q, k, sq=sq_pq)
    P = K_pp @ K_H
    del K_pp, K_H
    coefs = _ridge_solves(P, target, z_p.shape[0] * lams, "rkhs_loss system")
    return [RatioEstimate(centers=z_p, v=v, kernel=k) for v in coefs]


def _ridge_solves(P, rhs, ridges, context):
    """(P + ridge I)^{-1} rhs for each ridge, by LU, with P's diagonal set in place per ridge.

    Each shifted diagonal is the saved diagonal plus the ridge, the sum
    P + ridge * I gives (P, built from Gaussian Grams, holds no -0.0), so
    every solve equals its own assembled system bit for bit while P is the
    one n x n array held.  P is left shifted by the last ridge.
    """
    diag = P.diagonal().copy()
    idx = np.diag_indices_from(P)
    out = []
    for ridge in ridges:
        P[idx] = diag + ridge
        out.append(solve_linear(P, rhs, context))
    return out


def solve_type2(z_p, q_values, k: KernelSpec, k_h: KernelSpec, lam, sq_pp=None):
    """Known-q variant: fit f with K_p f = q pointwise on the p-sample.

    q_values holds q(x_i) at the sample points (any function values are
    accepted, q need not be a density):

        v = (K_pp^2 K_H + n lam I)^{-1} K_pp q.

    sq_pp is as in solve_type1_path.
    """
    _check_lam(lam)
    z_p = as_sample_matrix(z_p, "z_p")
    q = _check_q_values(q_values, z_p.shape[0], "q_values")
    v = _solve_cubic(z_p, q, k, k_h, lam, "type2 system", sq_pp)
    return RatioEstimate(centers=z_p, v=v, kernel=k_h)


def _check_q_values(q_values, n, name):
    q = np.asarray(q_values, dtype=np.float64)
    if q.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError(f"{name} contains non-finite entries")
    return q


# === Spectral cutoff ===


def solve_spectral(z_p, target, k: KernelSpec, cutoff):
    """Spectral-cutoff regularization of the empirical Fredholm system.

    Keeps the top ``cutoff`` eigenpairs of K_pp = Q diag(w) Q' and inverts
    K_pp^2 on their span:

        v = Q_k diag(w_k^-2) Q_k' target / n,

    so K_pp^2 (n v) is the orthogonal projection of target onto span(Q_k).
    Raises NumericalError if a retained eigenvalue falls below
    1e-12 * w_max (the inversion would be meaningless there).
    """
    z_p = as_sample_matrix(z_p, "z_p")
    n = z_p.shape[0]
    target = _check_q_values(target, n, "target")
    if not 1 <= cutoff <= n:
        raise ValueError(f"cutoff must lie in [1, {n}], got {cutoff}")
    K_pp = gaussian_kernel_matrix(z_p, z_p, k) / n
    w, Q = eigh_descending(K_pp)
    w_max = w[0]
    if w_max <= 0.0:
        raise NumericalError("kernel Gram matrix has no positive eigenvalue")
    bad = np.nonzero(w[:cutoff] < 1e-12 * w_max)[0]
    if bad.size:
        raise NumericalError(
            f"retained eigenvalue {bad[0]} is below 1e-12 * max eigenvalue; reduce cutoff below {bad[0] + 1}"
        )
    lead = Q[:, :cutoff]
    coef = lead @ ((lead.T @ target) / w[:cutoff] ** 2)
    return RatioEstimate(centers=z_p, v=coef / n, kernel=k)
