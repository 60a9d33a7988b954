"""Time the Gram layer, the spectral layer, the regularization path and the CV grid at fixed, named sizes.

The CV sizes are timed first, before anything else has run in the process:
after the n = 2000 eigendecompositions, whose large frees leave the
allocator warm, a CV grid whose cells allocate fresh pages reads less than
it costs a real `estimate`.

For each size (n p-points and m = 2n q-points in d dimensions, fixed seed)
this builds K_pp = k(z_p, z_p) / n and the type1 target K_pq 1, then records
the median over REPEATS calls, after one warm-up call, of:

- eigh_ms: `linalg.eigh_descending(K_pp)`, the dense n x n eigendecomposition
- path_ms: `solvers._same_kernel_path` over the six-value lambda grid, as the
  build ships it, with `route`, the way the path solved it: "rank r" (an
  r x r eigendecomposition from a pivoted Cholesky factor), "tridiagonal"
  (one tridiagonal reduction of K_pp and a banded solve per lambda, where
  the factor gives up and LAPACKE is found) or "eigh" (the dense n x n
  eigendecomposition)
- path_dense_ms: the same path with the factor and the reduction switched
  off, so it runs the dense eigendecomposition

d = 1 uses a two-component Gaussian mixture and the normalized kernel at
t = 0.4, where K_pp is numerically low rank; d = 5 uses standard normal
points and the unnormalized kernel at t = 1, where it is full rank.

For each LSIF size (n p-points and the first n of 2n q-points, drawn as
above, at bandwidth t) it records, over the six-value lambda grid:

- lsif_ms: `baselines.lsif_unconstrained`, as the build ships it (a
  low-rank factor of H), with `lsif_rank`, the rank of that factor, or
  null when the factor gives up
- lsif_dense_ms: the same call with the factor switched off, so every
  lambda takes the dense m x m solve

At d = 1 these are the p- and q-densities of the paper's dataset 1,
`harness.P_1D` and `harness.Q_1D` (LSIF's kernel is always normalized).

For each CV size it also records, as kfold_cv_ms, the median over REPEATS
calls of `selection.kfold_cv` with `fit_factory("type1")` over the ten-value
`bandwidth_grid` of the p-points, the six-value lambda grid and 5 folds,
serially, with the selected cell:

- cv_shift5d: 400 p- and 400 q-points in d = 5 (the coordinate spreads of
  the benchmark's shift-5d data), unnormalized kernel, 20 linear validation
  functions: the CV subsets of shift-5d's `downstream`
- cv_estimate_d1: 800 p-points from N(0, 1) and 800 q-points from
  N(0.5, 0.8^2), normalized kernel, 50 linear validation functions: the CV
  subsets of `estimate` at n = m = 1000, d = 1

For the simulate trial it records, as trial_ms, the median over REPEATS
calls of `cli._bench_trial` with fire (type15), tikde and lsif over the
ten-value `bandwidth_grid` of the p-points and the six-value lambda grid,
and as trial_peak_mb the `tracemalloc` peak of one call in MiB:

- simulate_trial_n300_m300_eval2000: n = m = 300 and 2000 evaluation
  points of the paper's dataset 1, the sizes of one trial of the
  benchmark's simulate-1d workload

For each final-fit size (n p-points and m q-points with the coordinate
spreads of shift-5d's data, unnormalized kernel at bandwidth t) it records
the median over REPEATS calls of the final fit of `estimate` and
`downstream`, fit_factory("type1", normalized=False)(z_p, z_q, t, [lam])[0]:
the type1 path at one lambda, which is the direct solve with k_H = k:

- fit_ms: the whole call, on one BLAS thread, as every command runs it
- fit_cpu_ms: the process's CPU time, all threads, from the start of that
  call to SETTLE_S after its end
- fit_blas_ms, fit_blas_cpu_ms: the same two on the process's BLAS thread
  count, as commands ran the final fit before they pinned BLAS to one
  thread; the CPU time counts an OpenBLAS worker that spins once the call
  has returned
- grams_ms: the two Grams it builds, k(z_p, z_p) and k(z_p, z_q), timed
  on their own, on one BLAS thread
- solve_ms: fit_ms - grams_ms, the system after the Grams
- fit_peak_mb: the `tracemalloc` peak of one call, in MiB: the most of
  the memory numpy and Python allocated in the call that was held at once

For each combined size (n p-points from N(0, 1), m q-points from
N(0.5, 0.8^2), d = 1, normalized kernel at t = 0.4) it records, as
combined_ms, the median over REPEATS calls of `solvers.solve_combined_path`
with gamma = 0.5 over the six-value lambda grid, and as combined_peak_mb
the `tracemalloc` peak of one call in MiB:

- combined_path_n640_m800: a training fold of a CV cell of `estimate` at
  n = m = 1000 with the combined setting (800-point CV subsets, 5 folds)
- combined_path_n1000_m1000: the final fit's sizes of that `estimate`

For shift-5d's resampling layer it records, as pca_resample_ms, the
median over REPEATS calls of `data.pca_resample`, with the number of rows
kept:

- resample_pool3000_d5: a 3000-row d = 5 pool with the coordinate spreads
  of shift-5d's data (a = 2.5, b = 1)

For each Gram size (n against m points with those spreads for d = 5, and
from N(0, 1) against N(0.5, 0.8^2) for d = 1) it records the median over
REPEATS calls of `kernels._sq_dists`, as sq_dists_ms, and of
`kernels.gaussian_kernel_matrix` (unnormalized, t = 1), as gram_ms:

- gram_320x320_d5, gram_80x320_d5, gram_320x400_d5: the CV-subset and
  validation shapes of shift-5d
- gram_1350x1350_d5, gram_1350x2000_d5 and sq_dists_1360x2000_d5: its
  final-fit shapes, the last the distances under the final fit's
  k(z_p, z_q) Gram
- gram_300x300_d1, gram_2000x300_d1: the n = m = 300 and eval_n = 2000
  shapes of simulate-1d

For the evaluation layer it records the median over REPEATS calls, and the
`tracemalloc` peak of one call in MiB (the most memory numpy and Python held
at once in the call), of:

- evaluate_n1378_d5: `solvers.evaluate` of an n = 1378 estimate (centers
  with shift-5d's coordinate spreads, unnormalized kernel at t = 1) at its
  own centers, the weights of shift-5d's `downstream`, as eval_ms and
  eval_peak_mb
- kde_eval2000_n300_d1: `kernels.kde` of 300 points of dataset 1's p at
  2000 points of its q (t = 0.4), the sizes of a simulate-1d trial, as
  kde_ms and kde_peak_mb

Every call but fit_blas_* runs on one BLAS thread, as the CV cells and
`simulate` trials do.  The record also holds the numpy version, the BLAS
name and version, whether LAPACKE was found in numpy's OpenBLAS, nproc, the
BLAS thread counts and the BLAS thread settings found in the environment.
It is appended to the "records" list of --out, so records of several builds
sit side by side.

--src imports firedre from another checkout's src/ directory (one at or
after commit 9d0d85f), to time two versions with the same harness:

    python scripts/bench_layers.py --label change
    python scripts/bench_layers.py --label parent --src ../parent/src
"""

import sys
import time
import tracemalloc
from unittest import mock

import numpy as np

import harness

# (name, n, d, t, normalized); m = 2n
SIZES = (
    ("n500_d1", 500, 1, 0.4, True),
    ("n1000_d1", 1000, 1, 0.4, True),
    ("n2000_d1", 2000, 1, 0.4, True),
    ("n500_d5", 500, 5, 1.0, False),
    ("n1000_d5", 1000, 5, 1.0, False),
    ("n2000_d5", 2000, 5, 1.0, False),
)
# timed calls per size and function
REPEATS = 5
# seconds after a final-fit call during which its CPU time is still counted
SETTLE_S = 0.5
LAMS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
# (name, n = m, d, t) of the LSIF layer
LSIF_SIZES = (
    ("lsif_n300_d1", 300, 1, 0.5),
    ("lsif_n1000_d1", 1000, 1, 0.5),
    ("lsif_n300_d5", 300, 5, 1.0),
    ("lsif_n1000_d5", 1000, 5, 1.0),
)
# (name, n p-points, m q-points, d, normalized, validation functions)
CV_SIZES = (
    ("cv_shift5d", 400, 400, 5, False, 20),
    ("cv_estimate_d1", 800, 800, 1, True, 50),
)
# (name, n p-points, m q-points, evaluation points) of the simulate-trial layer
TRIAL_SIZES = (
    ("simulate_trial_n300_m300_eval2000", 300, 300, 2000),
)
# (name, n p-points, m q-points, d, t, lambda) of the final-fit layer
FINAL_FIT_SIZES = (
    ("final_fit_n1378_d5", 1378, 2000, 5, 1.0, 1e-7),
)
# (name, centers, d) and (name, points, evaluation points) of the evaluation layer
EVAL_SIZES = (
    ("evaluate_n1378_d5", 1378, 5),
)
KDE_SIZES = (
    ("kde_eval2000_n300_d1", 300, 2000),
)
# (name, n p-points, m q-points) of the combined layer; d = 1, t = 0.4, gamma = 0.5
COMBINED_SIZES = (
    ("combined_path_n640_m800", 640, 800),
    ("combined_path_n1000_m1000", 1000, 1000),
)
# (name, pool rows, d) of the resampling layer
RESAMPLE_SIZES = (
    ("resample_pool3000_d5", 3000, 5),
)
# (name, n, m, d) of the pairwise distance and Gram layer
GRAM_SIZES = (
    ("gram_320x320_d5", 320, 320, 5),
    ("gram_80x320_d5", 80, 320, 5),
    ("gram_320x400_d5", 320, 400, 5),
    ("gram_1350x1350_d5", 1350, 1350, 5),
    ("gram_1350x2000_d5", 1350, 2000, 5),
    ("sq_dists_1360x2000_d5", 1360, 2000, 5),
    ("gram_300x300_d1", 300, 300, 1),
    ("gram_2000x300_d1", 2000, 300, 1),
)


def median_ms(fn):
    fn()
    return 1e3 * harness.median(harness.timed(fn, REPEATS)[0])


def median_wall_cpu_ms(fn):
    """Medians of fn()'s wall time and of the process's CPU time up to SETTLE_S after it, in ms."""
    fn()
    time.sleep(SETTLE_S)
    walls, cpus, _ = harness.timed(fn, REPEATS, SETTLE_S)
    return 1e3 * harness.median(walls), 1e3 * harness.median(cpus)


def peak_mb(fn):
    """The tracemalloc peak of one fn() call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def samples(rng, n, d):
    if d == 1:  # dataset 1, with n // 2 of the p-points from its first component
        low, high = harness.P_1D["components"]
        mixture = np.concatenate([rng.normal(low["mean"][0], low["std"], n // 2),
                                  rng.normal(high["mean"][0], high["std"], n - n // 2)])
        return rng.permutation(mixture)[:, None], rng.normal(harness.Q_1D["mean"][0], harness.Q_1D["std"], (2 * n, 1))
    return rng.standard_normal((n, d)), rng.standard_normal((2 * n, d))


def cv_samples(rng, n, m, d):
    if d == 5:
        return rng.standard_normal((n, d)) * harness.STD_5D, rng.standard_normal((m, d)) * harness.STD_5D
    return rng.standard_normal((n, 1)), rng.normal(0.5, 0.8, (m, 1))


def route(solvers, linalg, path, n):
    """How path() solves its lambda grid: "rank r", "tridiagonal" or "eigh"."""
    with mock.patch.object(solvers, "eigh_descending", side_effect=linalg.eigh_descending) as eigh:
        path()
    if not eigh.called:  # only the tridiagonal route eigendecomposes nothing
        return "tridiagonal"
    order = eigh.call_args.args[0].shape[0]
    return f"rank {order}" if order < n else "eigh"


def run():
    from firedre import baselines, cli, data, kernels, linalg, selection, solvers

    lams = np.asarray(LAMS)
    results = {}
    with linalg.blas_threads(1):
        inside = linalg.blas_thread_count()
        rng = np.random.default_rng(1)
        for name, n, m, d, normalized, count in CV_SIZES:
            z_p, z_q = cv_samples(rng, n, m, d)
            t_grid = kernels.bandwidth_grid(z_p)[1]
            fit = selection.fit_factory("type1", normalized=normalized)
            validation = selection.make_validation_set("linear", d, count, seed=1)

            def cv():
                return selection.kfold_cv(z_p, z_q, fit, t_grid, lams, validation, folds=5, seed=2)

            res = cv()
            results[name] = {
                "n": n, "m": m, "d": d, "normalized": normalized, "validation": count,
                "kfold_cv_ms": median_ms(cv), "selected": [res.selected_t, res.selected_lam],
            }
        rng = np.random.default_rng(0)
        for name, n, d, t, normalized in SIZES:
            z_p, z_q = samples(rng, n, d)
            k = kernels.KernelSpec(t=t, normalized=normalized)
            K_pp = kernels.gaussian_kernel_matrix(z_p, z_p, k) / n
            target = kernels.gaussian_kernel_matrix(z_p, z_q, k).sum(axis=1) / z_q.shape[0]

            def path():
                return solvers._same_kernel_path(z_p, K_pp, target, k, lams)

            row = {"n": n, "m": 2 * n, "d": d, "t": t, "normalized": normalized}
            row["eigh_ms"] = median_ms(lambda: linalg.eigh_descending(K_pp))
            row["route"] = route(solvers, linalg, path, n)
            row["path_ms"] = median_ms(path)
            with mock.patch.object(solvers, "pivoted_cholesky", return_value=None), \
                    mock.patch.object(linalg, "_lapacke", return_value=None):
                row["path_dense_ms"] = median_ms(path)
            results[name] = row
        for name, n, d, t in LSIF_SIZES:
            z_p, z_q = samples(rng, n, d)
            z_q = z_q[:n]

            def lsif():
                return baselines.lsif_unconstrained(z_p, z_q, t, lams)

            factors = []

            def factor(*args):
                factors.append(linalg.pivoted_cholesky(*args))
                return factors[-1]

            with mock.patch.object(baselines, "pivoted_cholesky", factor):
                lsif()
            rank = None if factors[0] is None else factors[0].shape[0]
            row = {"n": n, "m": n, "d": d, "t": t, "lsif_ms": median_ms(lsif), "lsif_rank": rank}
            with mock.patch.object(baselines, "pivoted_cholesky", return_value=None):
                row["lsif_dense_ms"] = median_ms(lsif)
            results[name] = row
        p, q = harness.dataset1()
        oracle = baselines.true_ratio(p, q)
        rng = np.random.default_rng(4)
        for name, n, m, eval_n in TRIAL_SIZES:
            z_p, z_q, eval_X = p.sample(n, rng), q.sample(m, rng), q.sample(eval_n, rng)
            r_eval = oracle.evaluate(eval_X)
            t_grid = kernels.bandwidth_grid(z_p)[1]
            fit = selection.fit_factory("type15")

            def trial():
                return cli._bench_trial(("fire", "tikde", "lsif"), z_p, z_q, eval_X, r_eval, t_grid, lams, fit)

            results[name] = {"n": n, "m": m, "eval_n": eval_n, "trial_ms": median_ms(trial),
                             "trial_peak_mb": peak_mb(trial),
                             "errors": {method: best[0] for method, best in trial().items()}}
        rng = np.random.default_rng(5)
        for name, n, d in EVAL_SIZES:
            centers = cv_samples(rng, n, 0, d)[0]
            est = solvers.RatioEstimate(centers=centers, v=rng.standard_normal(n),
                                        kernel=kernels.KernelSpec(t=1.0, normalized=False))

            def weights():
                return solvers.evaluate(est, centers)

            results[name] = {"n": n, "d": d, "eval_ms": median_ms(weights), "eval_peak_mb": peak_mb(weights)}
        for name, n, eval_n in KDE_SIZES:
            points, eval_X = p.sample(n, rng), q.sample(eval_n, rng)
            spec = kernels.KernelSpec(t=0.4)

            def density():
                return kernels.kde(points, eval_X, spec)

            results[name] = {"n": n, "eval_n": eval_n, "kde_ms": median_ms(density), "kde_peak_mb": peak_mb(density)}
        for name, n, m in COMBINED_SIZES:
            z_p, z_q = cv_samples(rng, n, m, 1)
            k = kernels.KernelSpec(t=0.4)

            def combined():
                return solvers.solve_combined_path(z_p, z_q, k, 0.5, lams)

            results[name] = {"n": n, "m": m, "d": 1, "t": 0.4, "gamma": 0.5, "combined_ms": median_ms(combined),
                             "combined_peak_mb": peak_mb(combined)}
        rng = np.random.default_rng(3)
        for name, rows, d in RESAMPLE_SIZES:
            pool = cv_samples(rng, rows, 0, d)[0]

            def resample():
                return data.pca_resample(pool, None, harness.SHIFT_A, harness.SHIFT_B, seed=4)

            results[name] = {"rows": rows, "d": d, "pca_resample_ms": median_ms(resample),
                             "kept": int(resample().mask.sum())}
        unit = kernels.KernelSpec(t=1.0, normalized=False)
        for name, n, m, d in GRAM_SIZES:
            A, B = cv_samples(rng, n, m, d)
            results[name] = {"n": n, "m": m, "d": d, "sq_dists_ms": median_ms(lambda: kernels._sq_dists(A, B)),
                             "gram_ms": median_ms(lambda: kernels.gaussian_kernel_matrix(A, B, unit))}
    rng = np.random.default_rng(2)
    for name, n, m, d, t, lam in FINAL_FIT_SIZES:
        z_p, z_q = cv_samples(rng, n, m, d)
        k = kernels.KernelSpec(t=t, normalized=False)
        final = selection.fit_factory("type1", normalized=False)

        def fit():
            final(z_p, z_q, t, [lam])[0]

        def grams():
            kernels.gaussian_kernel_matrix(z_p, z_p, k)
            kernels.gaussian_kernel_matrix(z_p, z_q, k)

        row = {"n": n, "m": m, "d": d, "t": t, "normalized": False, "lambda": lam}
        with linalg.blas_threads(1):
            row["fit_ms"], row["fit_cpu_ms"] = median_wall_cpu_ms(fit)
            row["grams_ms"] = median_ms(grams)
            row["fit_peak_mb"] = peak_mb(fit)
        row["fit_blas_ms"], row["fit_blas_cpu_ms"] = median_wall_cpu_ms(fit)
        row["solve_ms"] = row["fit_ms"] - row["grams_ms"]
        results[name] = row
    blas_threads = {"outside_cells": linalg.blas_thread_count(), "timed": inside}
    return {**harness.provenance(blas_threads, lapacke=linalg._lapacke() is not None), "results": results}


def main(argv=None):
    args = harness.options(argv, __doc__, "BENCH_layers.json")
    harness.append(args.out, args.label, run())
    return 0


if __name__ == "__main__":
    sys.exit(main())
