"""Unsupervised model selection for ratio estimates.

A fitted ratio f is scored without labels by how well importance weighting
transports empirical means: for validation functions u_1..u_F,

    J(f) = (1/F) sum_l [ (1/n) sum_i u_l(x_i) f(x_i) - (1/m) sum_j u_l(x'_j) ]^2

which vanishes in expectation at the true ratio.  kfold_cv minimizes the
held-out J over a (t, lambda) grid.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .kernels import KernelSpec, _sq_dists, as_sample_matrix, gaussian_kernel_matrix, product_blocks, read_rows
from .linalg import NumericalError, blas_threads
from .solvers import (
    RatioEstimate,
    solve_combined_path,
    solve_rkhs_loss_path,
    solve_type15_path,
    solve_type1_path,
    solve_type2_path,
)

# cgroup v2 CPU bandwidth limit of this process's cgroup: "<quota> <period>" or "max <period>"
CPU_MAX_PATH = "/sys/fs/cgroup/cpu.max"

VALIDATION_FAMILIES = ("linear", "halfspace", "kernel_combo", "kernel_indicator", "coordinate")

# default ridge grid: 1e-5 down to 1e-10 by decades (literals, so the
# values match what a config file spells out)
LAMBDA_GRID = np.array([1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10])


@dataclass(eq=False)
class ValidationSet:
    """A frozen draw of F validation functions, evaluable on any sample."""

    family: str
    coef: np.ndarray
    anchors: np.ndarray | None = None
    kernel: KernelSpec | None = None

    @property
    def count(self):
        return self.coef.shape[0]

    def evaluate(self, X):
        """Matrix U with U[l, i] = u_l(X[i]), shape (F, n)."""
        X = as_sample_matrix(X, "X")
        if self.family == "linear":
            return self.coef @ X.T
        if self.family == "halfspace":
            return (self.coef @ X.T > 0).astype(np.float64)
        if self.family == "coordinate":
            return X.T[: self.count].copy()
        vals = np.empty((self.count, X.shape[0]))
        for cols in product_blocks(X.shape[0], self.coef.size):  # bitwise the whole coef @ k(anchors, X)
            vals[:, cols] = self.coef @ gaussian_kernel_matrix(self.anchors, X[cols], self.kernel)
        if self.family == "kernel_indicator":
            return (vals > 0).astype(np.float64)
        return vals


def make_validation_set(family, d, count, seed, anchors=None, kernel=None):
    """Draw a deterministic validation set (same inputs give same functions).

    linear / halfspace use random directions beta ~ N(0, I_d); kernel_combo
    / kernel_indicator use random combinations of kernel bumps at the given
    anchors; coordinate takes the first min(count, d) coordinate maps.
    """
    if family not in VALIDATION_FAMILIES:
        raise ValueError(f"unknown validation family {family!r}, expected one of {VALIDATION_FAMILIES}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    if family in ("linear", "halfspace"):
        return ValidationSet(family=family, coef=rng.standard_normal((count, d)))
    if family == "coordinate":
        count = min(count, d)
        return ValidationSet(family=family, coef=np.eye(d)[:count])
    if anchors is None or kernel is None:
        raise ValueError(f"family {family!r} needs anchors and a kernel spec")
    anchors = as_sample_matrix(anchors, "anchors")
    if anchors.shape[1] != d:
        raise ValueError(f"anchors have dim {anchors.shape[1]}, expected {d}")
    coef = rng.standard_normal((count, anchors.shape[0]))
    return ValidationSet(family=family, coef=coef, anchors=anchors, kernel=kernel)


def j_score(f_on_p, U_on_p, U_on_q):
    """Mean squared importance-transport defect of f over validation functions."""
    f_on_p = np.asarray(f_on_p, dtype=np.float64)
    U_on_p = np.asarray(U_on_p, dtype=np.float64)
    U_on_q = np.asarray(U_on_q, dtype=np.float64)
    if U_on_p.ndim != 2 or U_on_q.ndim != 2 or U_on_p.shape[0] != U_on_q.shape[0]:
        raise ValueError("U_on_p and U_on_q must be (F, n) and (F, m)")
    if f_on_p.shape != (U_on_p.shape[1],):
        raise ValueError(f"f_on_p shape {f_on_p.shape} does not match U_on_p {U_on_p.shape}")
    lhs = (U_on_p * f_on_p).sum(axis=1) / U_on_p.shape[1]
    rhs = U_on_q.sum(axis=1) / U_on_q.shape[1]
    return float(np.mean((lhs - rhs) ** 2))


@dataclass(eq=False)
class CVResult:
    """Grid of held-out J scores and the selected cell."""

    t_grid: np.ndarray
    lam_grid: np.ndarray
    scores: np.ndarray  # (T, L) mean over folds
    fold_scores: np.ndarray  # (T, L, folds)
    selected_t: float
    selected_lam: float
    selected_index: tuple
    folds: int
    seed: int


def _cpu_quota():
    """CPUs allowed by the cgroup v2 quota, ceil(quota / period); None when uncapped."""
    try:
        with open(CPU_MAX_PATH) as fh:
            quota, period = fh.read().split()[:2]
        if quota == "max":
            return None
        return max(1, math.ceil(int(quota) / int(period)))
    except (OSError, ValueError, ZeroDivisionError):
        return None


def worker_count(threads):
    """Python workers to start for a request of ``threads``.

    Capped at the CPUs in this process's affinity mask and at its cgroup v2
    CPU quota: more workers than CPUs only contend with each other.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, min(threads, cpus))


def run_cells(fn, tasks, threads):
    """[fn(task) for task in tasks], fanned out over worker_count(threads) threads.

    The cells run on one BLAS thread whatever ``threads`` is, so their results
    do not depend on it.  The CLI's commands run their whole body on one BLAS
    thread too, so this region nests inside theirs and changes nothing there.
    """
    workers = worker_count(threads)
    with blas_threads(1):
        if workers == 1:
            return [fn(task) for task in tasks]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))


class FitOptions(NamedTuple):
    """What a setting's path reads besides the samples, t and the lambdas; k_H = k."""

    gamma: float | None = None
    t_prime_ratio: float = 2.0
    q_fn: object = None
    normalized: bool = True

    def k(self, t):
        return KernelSpec(t=float(t), normalized=self.normalized)


@dataclass(frozen=True)
class Setting:
    """One loss and penalty choice of the Fredholm formulation.

    ``path(z_p, z_q, t, lams, opts, sq_pp, sq_pq)`` solves a lambda grid,
    building its Grams once, from the squared distances when given.  A grid
    of one lambda gives the setting's direct solve, bit for bit, so the CV
    cells and the final fit read this one entry.  ``reads_q_fn``: it reads
    opts.q_fn at z_p in place of a q-sample (and no sq_pq).  Rows look the
    solvers up by name when called, so they reach a rebound module
    attribute (the span tracer, a test spy).
    """

    path: object
    reads_q_fn: bool = False
    needs_gamma: bool = False


SETTINGS = {
    "type1": Setting(
        path=lambda z_p, z_q, t, lams, o, sq_pp, sq_pq: solve_type1_path(
            z_p, z_q, o.k(t), lams, sq_pp=sq_pp, sq_pq=sq_pq
        ),
    ),
    "type15": Setting(
        path=lambda z_p, z_q, t, lams, o, sq_pp, sq_pq: solve_type15_path(
            z_p, z_q, o.k(t), o.k(t * o.t_prime_ratio), lams, sq_pp=sq_pp, sq_pq=sq_pq
        ),
    ),
    "type2": Setting(
        path=lambda z_p, z_q, t, lams, o, sq_pp, sq_pq: solve_type2_path(
            z_p, o.q_fn(z_p), o.k(t), lams, sq_pp=sq_pp
        ),
        reads_q_fn=True,
    ),
    "combined": Setting(
        path=lambda z_p, z_q, t, lams, o, sq_pp, sq_pq: solve_combined_path(
            z_p, z_q, o.k(t), o.gamma, lams, sq_pp=sq_pp, sq_pq=sq_pq
        ),
        needs_gamma=True,
    ),
    "rkhs_loss": Setting(
        path=lambda z_p, z_q, t, lams, o, sq_pp, sq_pq: solve_rkhs_loss_path(
            z_p, z_q, o.k(t), lams, sq_pp=sq_pp, sq_pq=sq_pq
        ),
    ),
}


def fit_factory(setting, gamma=None, t_prime_ratio=2.0, q_fn=None, normalized=True):
    """Build a fit(z_p_train, z_q, t, lams, sq_pp=None, sq_pq=None) callback.

    The callback returns one estimate per lam from SETTINGS[setting]'s path,
    each centered on z_p_train itself; fit(z_p, z_q, t, [lam])[0] is the
    direct solve.  sq_pp and sq_pq, when given, are the squared distances of
    z_p_train to itself and to z_q, and the Grams are built from them with
    the same bits; sq_pq may be None unless ``fit.reads_sq_pq``.  q_fn, a
    callable giving q values at arbitrary points, is required where it is read.
    """
    row = SETTINGS.get(setting)
    if row is None:
        raise ValueError(f"unknown solver setting {setting!r}, expected one of {sorted(SETTINGS)}")
    if row.reads_q_fn and q_fn is None:
        raise ValueError(f"{setting} fitting needs q_fn")
    if row.needs_gamma and gamma is None:
        raise ValueError(f"{setting} fitting needs gamma")
    opts = FitOptions(gamma, t_prime_ratio, q_fn, normalized)

    def fit(z_p_train, z_q, t, lams, sq_pp=None, sq_pq=None):
        return row.path(z_p_train, z_q, t, lams, opts, sq_pp, sq_pq)

    fit.reads_sq_pq = not row.reads_q_fn
    return fit


_CELL_ERRORS = (NumericalError, np.linalg.LinAlgError, FloatingPointError)


def _values_at(estimates, X, centers, sq):
    """Each estimate's values at X, None where evaluation fails.

    Estimates that share one centers array and one kernel, as those of a
    path solver do, read one k(X, centers) by row blocks (read_rows), each
    its own coefficient vector: bitwise est.evaluate(X).  ``sq`` holds the
    squared distances from X to ``centers``; when the estimates are centered
    on that array itself, the Gram is built from it.  Any other list is
    evaluated estimate by estimate.
    """
    estimates = list(estimates)
    head = estimates[0] if estimates else None
    if isinstance(head, RatioEstimate) and all(
        isinstance(e, RatioEstimate) and e.centers is head.centers and e.kernel == head.kernel for e in estimates
    ):
        outs = [np.empty(X.shape[0]) for _ in estimates]
        reads = [(head.kernel, out, est.v) for out, est in zip(outs, estimates)]
        try:
            read_rows(X, head.centers, reads, sq if head.centers is centers else None)
        except _CELL_ERRORS:
            return [None] * len(estimates)
        return outs
    out = []
    for est in estimates:
        try:
            out.append(est.evaluate(X))
        except _CELL_ERRORS:
            out.append(None)
    return out


def _fold_slices(z_p, D_pp, D_pq, train_idx, val_idx):
    """A fold's points and the distance slices every cell of the fold reads.

    Returns (z_train, z_val, sq_pp, sq_pq, sq_val): the training and
    validation points, and the train x train, train x q and val x train
    slices of D_pp = D(z_p, z_p) and D_pq = D(z_p, z_q) (sq_pq None when
    D_pq is).  np.take along each axis gives the slices in C order, which
    gaussian_kernel_matrix reads without a transposing copy.
    """
    sq_pq = None if D_pq is None else D_pq.take(train_idx, 0)
    sq_pp = D_pp.take(train_idx, 0).take(train_idx, 1)
    sq_val = D_pp.take(val_idx, 0).take(train_idx, 1)
    return z_p[train_idx], z_p[val_idx], sq_pp, sq_pq, sq_val


class _Fold:
    """One fold's slices, gathered by the first of its cells to run and dropped after the last."""

    def __init__(self, gather, cells):
        self._gather = gather
        self._left = cells
        self._slices = None
        self._lock = threading.Lock()

    def take(self):
        with self._lock:
            if self._slices is None:
                self._slices = self._gather()
            return self._slices

    def done(self):
        with self._lock:
            self._left -= 1
            if not self._left:
                self._slices = None


def _cell_scores(fit, z_q, t, lams, U_val, U_q, z_train, z_val, sq_pp, sq_pq, sq_val):
    """Held-out J for one (fold, t) against every lam; failures give +inf.

    The fold's points and distance slices are as _fold_slices returns them,
    and every Gram of the cell is built from the slices.
    """
    L = len(lams)
    out = np.full(L, np.inf)
    try:
        estimates = fit(z_train, z_q, t, lams, sq_pp, sq_pq)
    except _CELL_ERRORS:
        return out
    for j, f_val in enumerate(_values_at(estimates, z_val, z_train, sq_val)):
        if f_val is None or not np.all(np.isfinite(f_val)):
            continue
        score = j_score(f_val, U_val, U_q)
        if np.isfinite(score):
            out[j] = score
    return out


def kfold_cv(z_p, z_q, fit, t_grid, lam_grid, validation, folds=5, seed=0, threads=1):
    """Select (t, lambda) by k-fold held-out J score.

    For each fold the estimator is fit on the remaining p-points (with the
    full q-sample) and scored on the held-out p-points against all of z_q.
    Cell scores are fold means; a failed fit contributes +inf for that fold.
    Ties break toward the smallest t, then the largest lambda.  Deterministic
    given the seed; the cells go through run_cells, so ``threads`` only
    parallelizes them and changes no result bit.

    A Gaussian Gram sees the points only through their squared distances.
    The distances D_pp = D(z_p, z_p) and, unless fit.reads_sq_pq is false,
    D_pq = D(z_p, z_q) are computed once per call, n^2 + n m floats.  Each
    cell calls fit(z_p_train, z_q, t, lams, sq_pp, sq_pq) with index slices
    of them, which are bitwise the distances of the subsets, and builds its
    validation x train Gram from a slice of D_pp too.  A fold's slices are
    gathered once, by the first of its cells to run, shared by its T cells
    and dropped after the last; the cells run in fold order, so only folds
    with a cell running hold slices.
    """
    z_p = as_sample_matrix(z_p, "z_p")
    z_q = as_sample_matrix(z_q, "z_q")
    t_grid = np.asarray(t_grid, dtype=np.float64)
    lam_grid = np.asarray(lam_grid, dtype=np.float64)
    if t_grid.ndim != 1 or t_grid.size == 0 or lam_grid.ndim != 1 or lam_grid.size == 0:
        raise ValueError("t_grid and lam_grid must be non-empty 1-d arrays")
    if z_p.shape[1] != z_q.shape[1]:
        raise ValueError(f"dimension mismatch: z_p has d={z_p.shape[1]}, z_q has d={z_q.shape[1]}")
    n = z_p.shape[0]
    if not 2 <= folds <= n:
        raise ValueError(f"folds must lie in [2, {n}], got {folds}")

    perm = np.random.default_rng(seed).permutation(n)
    fold_parts = np.array_split(perm, folds)
    all_idx = np.arange(n)
    U_q = validation.evaluate(z_q)

    T, L = t_grid.size, lam_grid.size
    fold_scores = np.full((T, L, folds), np.inf)
    D_pp = _sq_dists(z_p, z_p)
    D_pq = _sq_dists(z_p, z_q) if getattr(fit, "reads_sq_pq", True) else None
    cells = []
    for f, val_idx in enumerate(fold_parts):
        train_idx = np.setdiff1d(all_idx, val_idx, assume_unique=False)
        fold = _Fold(partial(_fold_slices, z_p, D_pp, D_pq, train_idx, val_idx), T)
        U_val = validation.evaluate(z_p[val_idx])
        cells.extend((f, it, t, fold, U_val) for it, t in enumerate(t_grid))

    def run(cell):
        f, it, t, fold, U_val = cell
        row = _cell_scores(fit, z_q, t, lam_grid, U_val, U_q, *fold.take())
        fold.done()
        return f, it, row

    for f, it, row in run_cells(run, cells, threads):
        fold_scores[it, :, f] = row

    scores = fold_scores.mean(axis=2)
    best = np.inf
    best_cell = None
    for it in np.argsort(t_grid, kind="stable"):
        for jl in np.argsort(-lam_grid, kind="stable"):
            s = scores[it, jl]
            if s < best:
                best = s
                best_cell = (int(it), int(jl))
    if best_cell is None:
        raise NumericalError("cross-validation failed in every grid cell")
    return CVResult(
        t_grid=t_grid,
        lam_grid=lam_grid,
        scores=scores,
        fold_scores=fold_scores,
        selected_t=float(t_grid[best_cell[0]]),
        selected_lam=float(lam_grid[best_cell[1]]),
        selected_index=best_cell,
        folds=folds,
        seed=seed,
    )
