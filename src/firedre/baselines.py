"""Baseline ratio estimators and analytic densities for simulation studies.

The density specs double as ground truth: they expose exact pdfs (for the
true-ratio oracle) and samplers (for synthetic benchmarks).
"""

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, as_sample_matrix, gaussian_kernel_matrix, kde, kernel_row_means
from .linalg import RANK_TOL, NumericalError, pivoted_cholesky, solve_linear
from .solvers import RatioEstimate, _check_lams

# === analytic densities ===


@dataclass(frozen=True)
class GaussianDensity:
    """Isotropic Gaussian: mean is a length-d point, std a scalar deviation."""

    mean: tuple
    std: float

    def __post_init__(self):
        mean = tuple(float(x) for x in np.atleast_1d(self.mean))
        object.__setattr__(self, "mean", mean)
        if not np.isfinite(self.std) or self.std <= 0:
            raise ValueError(f"std must be finite and > 0, got {self.std}")

    @property
    def dim(self):
        return len(self.mean)

    def pdf(self, X):
        X = as_sample_matrix(X, "X")
        mu = np.asarray(self.mean)
        sq = np.sum((X - mu) ** 2, axis=1)
        var = self.std ** 2
        return (2.0 * np.pi * var) ** (-0.5 * self.dim) * np.exp(-sq / (2.0 * var))

    def sample(self, n, rng):
        return rng.normal(0.0, self.std, size=(n, self.dim)) + np.asarray(self.mean)


@dataclass(frozen=True)
class UniformDensity:
    """Uniform on an axis-aligned box [low, high] (componentwise)."""

    low: tuple
    high: tuple

    def __post_init__(self):
        low = tuple(float(x) for x in np.atleast_1d(self.low))
        high = tuple(float(x) for x in np.atleast_1d(self.high))
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        if len(low) != len(high):
            raise ValueError("low and high must have the same length")
        if not all(h > l for l, h in zip(low, high)):
            raise ValueError(f"need low < high componentwise, got {low}, {high}")

    @property
    def dim(self):
        return len(self.low)

    def pdf(self, X):
        X = as_sample_matrix(X, "X")
        lo = np.asarray(self.low)
        hi = np.asarray(self.high)
        inside = np.all((X >= lo) & (X <= hi), axis=1)
        return inside / np.prod(hi - lo)

    def sample(self, n, rng):
        return rng.uniform(self.low, self.high, size=(n, self.dim))


@dataclass(frozen=True)
class MixtureDensity:
    """Finite mixture of same-dimension component densities."""

    weights: tuple
    components: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size != len(self.components) or w.size == 0:
            raise ValueError("weights must align with components")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must be nonnegative and sum to 1, got {self.weights}")
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise ValueError(f"components disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def dim(self):
        return self.components[0].dim

    def pdf(self, X):
        X = as_sample_matrix(X, "X")
        out = np.zeros(X.shape[0])
        for w, comp in zip(self.weights, self.components):
            out += w * comp.pdf(X)
        return out

    def sample(self, n, rng):
        idx = rng.choice(len(self.components), size=n, p=np.asarray(self.weights))
        out = np.empty((n, self.dim))
        for c, comp in enumerate(self.components):
            mask = idx == c
            cnt = int(mask.sum())
            if cnt:
                out[mask] = comp.sample(cnt, rng)
        return out


# === ratio estimators ===


@dataclass(eq=False)
class TikdeRatio:
    """Plug-in ratio kde_q / max(kde_p, epsilon)."""

    z_p: np.ndarray
    z_q: np.ndarray
    kernel: KernelSpec
    epsilon: float

    def evaluate(self, X):
        p_hat = kde(self.z_p, X, self.kernel)
        q_hat = kde(self.z_q, X, self.kernel)
        return q_hat / np.maximum(p_hat, self.epsilon)


def tikde(z_p, z_q, t, epsilon):
    """Thresholded plug-in KDE ratio estimator with shared bandwidth t."""
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    k = KernelSpec(t=float(t))
    z_p = as_sample_matrix(z_p, "z_p")
    z_q = as_sample_matrix(z_q, "z_q")
    if z_p.shape[1] != z_q.shape[1]:
        raise ValueError("z_p and z_q dimensions differ")
    return TikdeRatio(z_p=z_p, z_q=z_q, kernel=k, epsilon=float(epsilon))


def tikde_epsilon_grid(z_p, t, sq_pp=None):
    """Threshold grid {1e-1, ..., 1e-6} * max of the p-density estimate over z_p.

    ``sq_pp``, when given, is _sq_dists(z_p, z_p), and the estimate's Gram
    is built from it with the same bits.
    """
    z_p = as_sample_matrix(z_p, "z_p")
    p_hat = kernel_row_means(z_p, z_p, KernelSpec(t=float(t)), sq=sq_pp)
    return float(p_hat.max()) * np.power(10.0, -np.arange(1, 7, dtype=np.float64))


def lsif_unconstrained(z_p, z_q, t, lam, sq_qp=None, sq_qq=None):
    """Least-squares importance fitting without the nonnegativity constraint.

    Basis functions are k_t(x'_l, .) at every q-point.  Solves
    (H + lam I) alpha = h with H_ll' = (1/n) sum_i k_t(x'_l, x_i) k_t(x'_l', x_i)
    and h_l = (1/m) sum_j k_t(x'_l, x'_j), and returns the kernel expansion
    over the q-sample, RatioEstimate(centers=z_q, v=alpha, kernel=k_t).

    ``lam`` may also be a non-empty 1-d sequence: H and h, which do not
    depend on lam, are then built once and the result is a list with one
    estimate per lam, None where that lam's solve fails (for a single lam it
    raises NumericalError).

    When a pivoted Cholesky factor H ~ L'L of rank r <= m // 3 exists (the
    H of low-dimensional data), each lam is solved by _low_rank_solve; a lam
    it does not solve, and every lam when the factor gives up, takes the
    dense solve of H + lam I.

    ``sq_qp`` and ``sq_qq``, when given, are the squared distances
    _sq_dists(z_q, z_p) (or the transpose view of _sq_dists(z_p, z_q), which
    is bitwise the same) and _sq_dists(z_q, z_q); the Grams are then built
    from them with the same bits.
    """
    single = np.ndim(lam) == 0
    lams = _check_lams(np.atleast_1d(lam))
    k = KernelSpec(t=float(t))
    z_p = as_sample_matrix(z_p, "z_p")
    z_q = as_sample_matrix(z_q, "z_q")
    n, m = z_p.shape[0], z_q.shape[0]
    Phi = gaussian_kernel_matrix(z_q, z_p, k, sq=sq_qp)  # (m, n)
    H = (Phi @ Phi.T) / n
    del Phi  # the solves read only H and h
    h = kernel_row_means(z_q, z_q, k, sq=sq_qq)
    L = pivoted_cholesky(H, RANK_TOL, m // 3)
    if L is not None:
        core = L @ L.T
        norms = (np.linalg.norm(H, np.inf), np.linalg.norm(h, np.inf))
    fits = []
    for one in lams:
        alpha = None if L is None else _low_rank_solve(H, h, L, core, norms, one)
        if alpha is None:
            try:
                alpha = solve_linear(H + one * np.eye(m), h, "lsif system")
            except NumericalError:
                if single:
                    raise
                fits.append(None)
                continue
        fits.append(RatioEstimate(centers=z_q, v=alpha, kernel=k))
    return fits[0] if single else fits


# refinement steps a low-rank LSIF solve may take before the dense solve takes over
_REFINE_STEPS = 3


def _low_rank_solve(H, h, L, core, norms, lam):
    """alpha with (H + lam I) alpha = h, from H ~ L'L, or None.

    With core = L L' (r x r), the Woodbury identity solves the factored
    system in O(r m) per right-hand side:

        (L'L + lam I)^{-1} b = (b - L' (lam I + core)^{-1} L b) / lam.

    That alone can miss the full system by far more than a dense LU would at
    small lam, so each step refines alpha against the full H: the residual
    res = h - (H + lam I) alpha is solved the same way and added.  alpha is
    returned once ||res||_inf <= eps ((||H||_inf + lam) ||alpha||_inf + ||h||_inf),
    the backward error a dense LU reaches, with norms = (||H||_inf, ||h||_inf);
    None when _REFINE_STEPS steps do not get there, or the r x r solve fails.
    """
    H_inf, h_inf = norms
    eps = np.finfo(np.float64).eps
    shifted = core + lam * np.eye(core.shape[0])

    def woodbury(b):
        return (b - L.T @ solve_linear(shifted, L @ b, "lsif low-rank core")) / lam

    try:
        alpha = woodbury(h)
        for step in range(_REFINE_STEPS + 1):
            res = h - (H @ alpha + lam * alpha)
            if np.linalg.norm(res, np.inf) <= eps * ((H_inf + lam) * np.linalg.norm(alpha, np.inf) + h_inf):
                return alpha
            if step < _REFINE_STEPS:
                alpha = alpha + woodbury(res)
    except NumericalError:
        pass
    return None


# === ground truth ===


@dataclass(frozen=True)
class TrueRatio:
    """Exact ratio q(x)/p(x) of analytic densities."""

    p: object
    q: object

    def __post_init__(self):
        if self.p.dim != self.q.dim:
            raise ValueError(f"p has dim {self.p.dim}, q has dim {self.q.dim}")

    def evaluate(self, X):
        pd = self.p.pdf(X)
        if np.any(pd == 0.0):
            raise ValueError("true ratio undefined: p(x) = 0 at some evaluation point")
        return self.q.pdf(X) / pd


def true_ratio(p, q):
    """Oracle ratio for simulated benchmarks; errors where p vanishes."""
    return TrueRatio(p=p, q=q)
