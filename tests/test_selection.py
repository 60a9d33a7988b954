import dataclasses
import os
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import firedre.cli as cli
import firedre.kernels as kernels
import firedre.selection as selection
import firedre.solvers as solvers
from firedre.config import GridConfig, SolverConfig
from firedre.kernels import KernelSpec, gaussian_kernel_matrix
from firedre.linalg import NumericalError, blas_thread_count, blas_threads, tridiagonal_path
from firedre.selection import (
    LAMBDA_GRID,
    SETTINGS,
    VALIDATION_FAMILIES,
    fit_factory,
    j_score,
    kfold_cv,
    make_validation_set,
    run_cells,
    worker_count,
)
from firedre.solvers import (
    solve_combined,
    solve_combined_path,
    solve_rkhs_loss,
    solve_rkhs_loss_path,
    solve_type1,
    solve_type15,
    solve_type15_path,
    solve_type1_path,
    solve_type2,
    solve_type2_path,
)


class ConstantEstimate:
    def __init__(self, value):
        self.value = value

    def evaluate(self, X):
        return np.full(X.shape[0], self.value)


def constant_fit(z_p_train, z_q, t, lams, sq_pp, sq_pq):
    return [ConstantEstimate(1.0) for _ in lams]


def without_slices(fit):
    """fit called as a plain callback: it builds its own distances from the points."""
    return lambda z, q, t, lams, sq_pp, sq_pq: fit(z, q, t, lams)


class TestValidationFamilies:
    def test_registry(self):
        assert set(VALIDATION_FAMILIES) == {
            "linear",
            "halfspace",
            "kernel_combo",
            "kernel_indicator",
            "coordinate",
        }

    def test_linear_matches_recomputed_draw(self):
        vs = make_validation_set("linear", d=3, count=4, seed=42)
        coef = np.random.default_rng(42).standard_normal((4, 3))
        assert np.array_equal(vs.coef, coef)
        X = np.random.default_rng(0).standard_normal((6, 3))
        assert np.allclose(vs.evaluate(X), coef @ X.T, rtol=1e-15)

    def test_halfspace_is_indicator_of_linear(self):
        vs = make_validation_set("halfspace", d=2, count=5, seed=1)
        X = np.random.default_rng(1).standard_normal((20, 2))
        U = vs.evaluate(X)
        assert set(np.unique(U)) <= {0.0, 1.0}
        assert np.array_equal(U, (vs.coef @ X.T > 0).astype(float))

    def test_coordinate_projections(self):
        vs = make_validation_set("coordinate", d=3, count=2, seed=0)
        X = np.arange(12.0).reshape(4, 3)
        U = vs.evaluate(X)
        assert U.shape == (2, 4)
        assert np.array_equal(U[0], X[:, 0])
        assert np.array_equal(U[1], X[:, 1])

    def test_coordinate_count_clamped_to_dim(self):
        vs = make_validation_set("coordinate", d=2, count=50, seed=0)
        assert vs.count == 2

    def test_kernel_combo_brute_force(self):
        anchors = np.random.default_rng(2).standard_normal((5, 2))
        k = KernelSpec(t=0.7)
        vs = make_validation_set("kernel_combo", d=2, count=3, seed=3, anchors=anchors, kernel=k)
        X = np.random.default_rng(3).standard_normal((4, 2))
        U = vs.evaluate(X)
        for l in range(3):
            for i in range(4):
                ref = sum(
                    vs.coef[l, a] * gaussian_kernel_matrix(anchors[a : a + 1], X[i : i + 1], k)[0, 0]
                    for a in range(5)
                )
                assert abs(U[l, i] - ref) < 1e-12

    @pytest.mark.parametrize("family", ["kernel_combo", "kernel_indicator"])
    @pytest.mark.parametrize("n", [333, 1000, 2500, 5000])
    def test_kernel_family_by_column_blocks_is_the_whole_product(self, family, n):
        rng = np.random.default_rng(n)
        # (d, anchors, count); at n = 2500 the third shape's fixed 256-column blocks would move bits
        for d, a, count in ((1, 50, 50), (5, 200, 3), (1, 50, 20), (5, 7, 1)):
            anchors = rng.standard_normal((a, d))
            vs = make_validation_set(family, d=d, count=count, seed=n, anchors=anchors, kernel=KernelSpec(t=0.7))
            X = rng.standard_normal((n, d)) * 1.5
            with blas_threads(1):
                whole = vs.coef @ gaussian_kernel_matrix(anchors, X, vs.kernel)
                U = vs.evaluate(X)
            assert np.array_equal(U, whole if family == "kernel_combo" else (whole > 0).astype(np.float64))
        assert len(kernels.product_blocks(n, 50 * 50)) == (1 if n < 1000 else n // 465)

    def test_kernel_indicator_binary(self):
        anchors = np.random.default_rng(4).standard_normal((6, 1))
        vs = make_validation_set(
            "kernel_indicator", d=1, count=4, seed=5, anchors=anchors, kernel=KernelSpec(t=1.0)
        )
        U = vs.evaluate(np.random.default_rng(5).standard_normal((9, 1)))
        assert set(np.unique(U)) <= {0.0, 1.0}

    def test_same_seed_same_functions(self):
        a = make_validation_set("linear", d=4, count=10, seed=9)
        b = make_validation_set("linear", d=4, count=10, seed=9)
        assert np.array_equal(a.coef, b.coef)

    def test_errors(self):
        with pytest.raises(ValueError, match="family"):
            make_validation_set("splines", d=2, count=3, seed=0)
        with pytest.raises(ValueError, match="count"):
            make_validation_set("linear", d=2, count=0, seed=0)
        with pytest.raises(ValueError, match="anchors"):
            make_validation_set("kernel_combo", d=2, count=3, seed=0)
        with pytest.raises(ValueError, match="dim"):
            make_validation_set(
                "kernel_combo", d=2, count=3, seed=0, anchors=np.zeros((4, 3)), kernel=KernelSpec(t=1.0)
            )


class TestJScore:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(6)
        F, n, m = 4, 7, 5
        f = rng.standard_normal(n)
        U_p = rng.standard_normal((F, n))
        U_q = rng.standard_normal((F, m))
        ref = 0.0
        for l in range(F):
            lhs = sum(U_p[l, i] * f[i] for i in range(n)) / n
            rhs = sum(U_q[l, j] for j in range(m)) / m
            ref += (lhs - rhs) ** 2
        ref /= F
        assert abs(j_score(f, U_p, U_q) - ref) < 1e-14

    def test_exactly_zero_on_identical_samples(self):
        rng = np.random.default_rng(7)
        U = rng.standard_normal((5, 8))
        assert j_score(np.ones(8), U, U) == 0.0

    def test_true_ratio_scores_well(self):
        # reweighting by the exact Gaussian ratio transports the mean
        rng = np.random.default_rng(8)
        n = m = 4000
        z_p = rng.standard_normal((n, 1))
        z_q = rng.standard_normal((m, 1)) * 0.5 + 0.5
        ratio = lambda x: np.exp(-((x - 0.5) ** 2) / (2 * 0.25) + x ** 2 / 2) / 0.5
        vs = make_validation_set("linear", d=1, count=10, seed=10)
        U_p, U_q = vs.evaluate(z_p), vs.evaluate(z_q)
        good = j_score(ratio(z_p[:, 0]), U_p, U_q)
        flat = j_score(np.ones(n), U_p, U_q)
        assert good < 0.2 * flat

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            j_score(np.ones(3), np.ones((2, 3)), np.ones((3, 4)))
        with pytest.raises(ValueError):
            j_score(np.ones(4), np.ones((2, 3)), np.ones((2, 5)))


def small_problem(seed=0, n=24, m=30, d=2):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.standard_normal((m, d))


class TestKfoldCv:
    def test_selection_runs_and_scores_finite(self):
        z_p, z_q = small_problem()
        fit = fit_factory("type1")
        vs = make_validation_set("linear", d=2, count=6, seed=0)
        res = kfold_cv(z_p, z_q, fit, [0.5, 1.0], LAMBDA_GRID, vs, folds=4, seed=3)
        assert res.scores.shape == (2, 6)
        assert res.fold_scores.shape == (2, 6, 4)
        assert np.isfinite(res.scores).all()
        assert res.selected_t in (0.5, 1.0)
        assert res.selected_lam in LAMBDA_GRID
        it, jl = res.selected_index
        assert res.scores[it, jl] == res.scores.min()

    def test_deterministic_and_thread_invariant(self):
        z_p, z_q = small_problem(1)
        fit = fit_factory("type1")
        vs = make_validation_set("linear", d=2, count=5, seed=2)
        runs = [
            kfold_cv(z_p, z_q, fit, [0.4, 0.9, 1.7], LAMBDA_GRID[:4], vs, folds=3, seed=11, threads=k)
            for k in (1, 1, 3)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0].fold_scores, other.fold_scores)
            assert runs[0].selected_index == other.selected_index

    def test_threads_above_cpu_count_are_capped(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        z_p, z_q = small_problem(9)
        vs = make_validation_set("linear", d=2, count=5, seed=2)
        type1 = fit_factory("type1")
        pools, fit_threads = [], set()

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        def fit(*args):
            fit_threads.add(threading.get_ident())
            return type1(*args)

        monkeypatch.setattr(selection, "ThreadPoolExecutor", RecordingPool)
        grid = ([0.4, 0.9, 1.7, 3.0], LAMBDA_GRID[:4])
        serial = kfold_cv(z_p, z_q, fit, *grid, vs, folds=4, seed=11, threads=1)
        fit_threads.clear()
        many = kfold_cv(z_p, z_q, fit, *grid, vs, folds=4, seed=11, threads=cpus + 3)
        assert np.array_equal(serial.fold_scores, many.fold_scores)
        assert all(w <= cpus for w in pools)
        assert len(fit_threads) <= cpus

    def test_fold_partition_matches_seeded_split(self):
        z_p, z_q = small_problem(2, n=17)
        seen = []

        def spy_fit(z_p_train, z_q_in, t, lams, sq_pp, sq_pq):
            seen.append(z_p_train.copy())
            assert z_q_in.shape == z_q.shape
            return [ConstantEstimate(1.0) for _ in lams]

        vs = make_validation_set("linear", d=2, count=3, seed=0)
        kfold_cv(z_p, z_q, spy_fit, [1.0], [1e-5], vs, folds=3, seed=7)
        perm = np.random.default_rng(7).permutation(17)
        parts = np.array_split(perm, 3)
        assert len(seen) == 3
        for train, val_idx in zip(seen, parts):
            expect = z_p[np.setdiff1d(np.arange(17), val_idx)]
            assert np.array_equal(train, expect)

    def test_tie_breaks_to_smallest_t_largest_lam(self):
        z_p, z_q = small_problem(3)
        vs = make_validation_set("linear", d=2, count=4, seed=1)
        # shuffled grids: the tie-break must sort, not trust input order
        res = kfold_cv(z_p, z_q, constant_fit, [2.0, 0.5, 1.0], [1e-8, 1e-4, 1e-6], vs, folds=3, seed=0)
        assert np.ptp(res.scores) == 0.0
        assert res.selected_t == 0.5
        assert res.selected_lam == 1e-4

    def test_failing_t_row_is_inf_and_avoided(self):
        z_p, z_q = small_problem(4)
        vs = make_validation_set("linear", d=2, count=4, seed=2)
        ok = fit_factory("type1")

        def flaky_fit(z_p_train, z_q_in, t, lams, sq_pp, sq_pq):
            if t == 0.25:
                raise NumericalError("synthetic failure")
            return ok(z_p_train, z_q_in, t, lams, sq_pp, sq_pq)

        res = kfold_cv(z_p, z_q, flaky_fit, [0.25, 1.0], LAMBDA_GRID[:3], vs, folds=3, seed=5)
        assert np.isinf(res.fold_scores[0]).all()
        assert np.isfinite(res.scores[1]).all()
        assert res.selected_t == 1.0

    def test_nan_evaluation_poisons_single_cell(self):
        z_p, z_q = small_problem(5)
        vs = make_validation_set("linear", d=2, count=4, seed=3)

        class NanEstimate:
            def evaluate(self, X):
                return np.full(X.shape[0], np.nan)

        def fit(z_p_train, z_q_in, t, lams, sq_pp, sq_pq):
            return [NanEstimate() if lam == 1e-6 else ConstantEstimate(1.0) for lam in lams]

        res = kfold_cv(z_p, z_q, fit, [1.0], [1e-5, 1e-6, 1e-7], vs, folds=3, seed=0)
        assert np.isinf(res.scores[0, 1])
        assert np.isfinite(res.scores[0, [0, 2]]).all()

    def test_all_cells_failing_raises(self):
        z_p, z_q = small_problem(6)
        vs = make_validation_set("linear", d=2, count=3, seed=0)

        def bad_fit(*args):
            raise NumericalError("nope")

        with pytest.raises(NumericalError, match="every grid cell"):
            kfold_cv(z_p, z_q, bad_fit, [1.0], [1e-5], vs, folds=2, seed=0)

    def test_argument_validation(self):
        z_p, z_q = small_problem(7, n=6)
        vs = make_validation_set("linear", d=2, count=2, seed=0)
        with pytest.raises(ValueError, match="folds"):
            kfold_cv(z_p, z_q, constant_fit, [1.0], [1e-5], vs, folds=7)
        with pytest.raises(ValueError, match="folds"):
            kfold_cv(z_p, z_q, constant_fit, [1.0], [1e-5], vs, folds=1)
        with pytest.raises(ValueError, match="grid"):
            kfold_cv(z_p, z_q, constant_fit, [], [1e-5], vs, folds=2)


class PerEstimate:
    """Hides a RatioEstimate behind plain evaluate(), so each one builds its own Gram."""

    def __init__(self, est):
        self.est = est

    def evaluate(self, X):
        return self.est.evaluate(X)


def gaussian_q(points):
    return np.exp(-0.5 * np.sum(points ** 2, axis=1)) / (2.0 * np.pi) ** (points.shape[1] / 2)


class TestSharedValidationGram:
    GRID = ([0.3, 0.8, 2.0], [1e-4, 1e-6, 1e-8])

    def cv(self, fit, threads=1):
        z_p, z_q = small_problem(12, n=30, m=36)
        vs = make_validation_set("linear", d=2, count=5, seed=4)
        return kfold_cv(z_p, z_q, fit, *self.GRID, vs, folds=3, seed=2, threads=threads)

    @pytest.mark.parametrize("setting", ["type1", "type15", "type2", "combined", "rkhs_loss"])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_fold_scores_match_per_estimate_evaluate(self, setting, normalized):
        fit = fit_factory(setting, gamma=0.3, q_fn=gaussian_q, normalized=normalized)
        shared = self.cv(fit, threads=2)
        reference = self.cv(lambda *args: [PerEstimate(e) for e in fit(*args)], threads=2)
        assert np.isfinite(shared.fold_scores).any()
        assert np.array_equal(shared.fold_scores, reference.fold_scores)

    @pytest.mark.parametrize("setting", ["type15", "combined"])
    def test_one_validation_gram_per_cell(self, monkeypatch, setting):
        builds, evaluations, reading = [], [], []
        gram, read, evaluate = kernels.gaussian_kernel_matrix, selection.read_rows, solvers.evaluate

        def spy_read(*args):
            reading.append(True)
            try:
                return read(*args)
            finally:
                reading.pop()

        def spy_gram(A, B, spec, **kwargs):
            if reading:  # only the held-out reads, not the fits' Grams or targets
                builds.append((A.shape[0], B.shape[0]))
            return gram(A, B, spec, **kwargs)

        def spy_evaluate(*args, **kwargs):
            evaluations.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(kernels, "gaussian_kernel_matrix", spy_gram)
        monkeypatch.setattr(selection, "read_rows", spy_read)
        monkeypatch.setattr(solvers, "evaluate", spy_evaluate)
        self.cv(fit_factory(setting, gamma=0.3))
        # 30 points in 3 folds of 10: one 10 x 20 Gram per (fold, t), no per-estimate evaluate
        assert builds == [(10, 20)] * (3 * len(self.GRID[0]))
        assert evaluations == []

    def test_estimates_with_own_centers_evaluate_one_by_one(self, monkeypatch):
        evaluations = []
        evaluate = solvers.evaluate
        type1 = fit_factory("type1")

        def copied_centers(z_p_train, z_q, t, lams, sq_pp, sq_pq):
            estimates = type1(z_p_train, z_q, t, lams, sq_pp, sq_pq)
            return [dataclasses.replace(e, centers=e.centers.copy()) for e in estimates]

        def spy_evaluate(*args, **kwargs):
            evaluations.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(solvers, "evaluate", spy_evaluate)
        res = self.cv(copied_centers)
        monkeypatch.undo()
        assert len(evaluations) == res.fold_scores.size
        assert np.array_equal(res.fold_scores, self.cv(type1).fold_scores)


class TestDistanceRoute:
    """kfold_cv scores every cell from one pair of distance matrices."""

    GRID = ([0.3, 0.8, 2.0], [1e-4, 1e-6, 1e-8])

    def cv(self, fit, threads=1, d=2, grid=GRID):
        z_p, z_q = small_problem(13, n=30, m=36, d=d)
        vs = make_validation_set("linear", d=d, count=5, seed=4)
        return kfold_cv(z_p, z_q, fit, *grid, vs, folds=3, seed=2, threads=threads)

    @pytest.mark.parametrize("setting", ["type1", "type15", "type2", "combined", "rkhs_loss"])
    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_fold_scores_match_plain_callback_bitwise(self, setting, normalized, threads):
        fit = fit_factory(setting, gamma=0.3, t_prime_ratio=3.0, q_fn=gaussian_q, normalized=normalized)
        routed = self.cv(fit, threads=threads)
        plain = self.cv(without_slices(fit), threads=threads)
        assert np.isfinite(routed.fold_scores).all()
        assert np.array_equal(routed.fold_scores, plain.fold_scores)

    def test_fold_scores_match_plain_callback_bitwise_d5(self):
        fit = fit_factory("type1", normalized=False)
        grid = ([0.5, 1.0, 2.0, 4.0, 8.0], LAMBDA_GRID)
        routed = self.cv(fit, d=5, grid=grid)
        assert np.array_equal(routed.fold_scores, self.cv(without_slices(fit), d=5, grid=grid).fold_scores)

    def test_d5_reduced_paths_thread_invariant(self, caller_blas_threads, monkeypatch):
        z_p, z_q = small_problem(13, n=150, m=150, d=5)
        vs = make_validation_set("linear", d=5, count=5, seed=4)
        fit = fit_factory("type1", normalized=False)
        reduced = []

        def spy(K, b, lams):
            reduced.append(K.shape[0])
            return tridiagonal_path(K, b, lams)

        monkeypatch.setattr(solvers, "tridiagonal_path", spy)
        serial, parallel = (
            kfold_cv(z_p, z_q, fit, [0.5, 1.0, 2.0, 4.0], LAMBDA_GRID, vs, folds=3, seed=2, threads=k) for k in (1, 2)
        )
        assert reduced == [100] * 24
        assert np.isfinite(serial.fold_scores).all()
        assert np.array_equal(serial.fold_scores, parallel.fold_scores)

    def test_every_row_has_a_path(self):
        assert all(callable(row.path) for row in SETTINGS.values())
        assert {s: fit_factory(s, gamma=0.3, q_fn=gaussian_q).reads_sq_pq for s in SETTINGS} == {
            "type1": True, "type15": True, "type2": False, "combined": True, "rkhs_loss": True
        }

    def spy_sq_dists(self, monkeypatch):
        calls = {"selection": [], "kernels": []}
        sq_dists = kernels._sq_dists

        def spy(where):
            def counted(A, B):
                calls[where].append((A.shape[0], B.shape[0]))
                return sq_dists(A, B)

            return counted

        monkeypatch.setattr(selection, "_sq_dists", spy("selection"))
        monkeypatch.setattr(kernels, "_sq_dists", spy("kernels"))
        return calls

    def test_distances_once_per_call_none_in_cells(self, monkeypatch):
        calls = self.spy_sq_dists(monkeypatch)
        self.cv(fit_factory("type1"), threads=2)
        assert calls == {"selection": [(30, 30), (30, 36)], "kernels": []}

    @pytest.mark.parametrize("setting, distances", [("type15", [(30, 30), (30, 36)]), ("type2", [(30, 30)])])
    def test_d_pq_only_for_settings_that_read_it(self, monkeypatch, setting, distances):
        calls = self.spy_sq_dists(monkeypatch)
        fit = fit_factory(setting, q_fn=gaussian_q)
        assert fit.reads_sq_pq == (len(distances) == 2)
        self.cv(fit)
        assert calls == {"selection": distances, "kernels": []}

    @pytest.mark.parametrize("setting, distances", [
        ("type1", [(30, 30), (30, 36)]), ("type15", [(30, 30), (30, 36)]), ("type2", [(30, 30)]),
    ])
    def test_one_lambda_direct_solves_read_the_slices(self, monkeypatch, setting, distances):
        # at one lambda every cell is the direct solve; it builds its Grams
        # from the fold's slices, to the bits of the Grams built from points
        grid = (self.GRID[0], [1e-6])
        fit = fit_factory(setting, t_prime_ratio=3.0, q_fn=gaussian_q)
        plain = self.cv(without_slices(fit), grid=grid)
        calls = self.spy_sq_dists(monkeypatch)
        routed = self.cv(fit, grid=grid)
        assert calls == {"selection": distances, "kernels": []}
        assert np.isfinite(routed.fold_scores).all()
        assert np.array_equal(routed.fold_scores, plain.fold_scores)

    def test_plain_callback_receives_distance_slices(self, monkeypatch):
        calls = self.spy_sq_dists(monkeypatch)
        type1 = fit_factory("type1")
        shapes = []

        def plain(z_p_train, z_q, t, lams, sq_pp, sq_pq):
            shapes.append((sq_pp.shape, sq_pq.shape))
            return type1(z_p_train, z_q, t, lams, sq_pp, sq_pq)

        self.cv(plain)
        assert calls == {"selection": [(30, 30), (30, 36)], "kernels": []}
        assert shapes == [((20, 20), (20, 36))] * (3 * len(self.GRID[0]))

    def test_three_gram_builds_per_cell(self, monkeypatch):
        builds = []

        def spy(module):
            gram = module.gaussian_kernel_matrix

            def counted(A, B, spec, sq=None):
                builds.append((A.shape[0], B.shape[0], sq is not None))
                return gram(A, B, spec, sq=sq)

            monkeypatch.setattr(module, "gaussian_kernel_matrix", counted)

        spy(solvers)
        spy(selection)
        spy(kernels)  # the path's target is summed in kernels.kernel_row_means
        self.cv(fit_factory("type15"))
        # 30 points in 3 folds of 10: per (fold, t) a 20 x 20, a 20 x 36 and a 10 x 20 Gram
        per_cell = [(20, 20, True), (20, 36, True), (10, 20, True)]
        assert builds == per_cell * (3 * len(self.GRID[0]))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_routed_cells_see_one_blas_thread(self, caller_blas_threads, monkeypatch, threads):
        seen = []
        path = selection.solve_type1_path

        def spy_path(*args, **kwargs):
            seen.append((blas_thread_count(), kwargs["sq_pp"] is not None))
            return path(*args, **kwargs)

        monkeypatch.setattr(selection, "solve_type1_path", spy_path)
        self.cv(fit_factory("type1"), threads=threads)
        assert seen == [(1, True)] * (3 * len(self.GRID[0]))
        assert blas_thread_count() == caller_blas_threads


def per_cell_fold_scores(z_p, z_q, fit, t_grid, lams, validation, folds, seed):
    """kfold_cv's fold_scores with every (fold, t) cell gathering its own slices, written out."""
    n, T, L = z_p.shape[0], len(t_grid), len(lams)
    D_pp = kernels._sq_dists(z_p, z_p)
    D_pq = kernels._sq_dists(z_p, z_q) if fit.reads_sq_pq else None
    U_q = validation.evaluate(z_q)
    out = np.full((T, L, folds), np.inf)
    perm = np.random.default_rng(seed).permutation(n)
    with blas_threads(1):
        for f, val_idx in enumerate(np.array_split(perm, folds)):
            train_idx = np.setdiff1d(np.arange(n), val_idx)
            U_val = validation.evaluate(z_p[val_idx])
            for it, t in enumerate(t_grid):
                z_train = z_p[train_idx]
                sq_pq = None if D_pq is None else D_pq.take(train_idx, 0)
                estimates = fit(z_train, z_q, t, lams, D_pp.take(train_idx, 0).take(train_idx, 1), sq_pq)
                sq_val = D_pp.take(val_idx, 0).take(train_idx, 1)
                G = gaussian_kernel_matrix(z_p[val_idx], z_train, estimates[0].kernel, sq=sq_val)
                for j, est in enumerate(estimates):
                    f_val = G @ est.v
                    if est.scale == "over_n":
                        f_val /= z_train.shape[0]
                    out[it, j, f] = j_score(f_val, U_val, U_q)
    return out


class TestFoldSlices:
    """kfold_cv gathers each fold's distance slices once and shares them among the fold's cells."""

    GRID = ([0.3, 0.8, 2.0, 5.0], [1e-4, 1e-6, 1e-8])
    CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

    def problem(self):
        z_p, z_q = small_problem(14, n=40, m=36, d=3)
        return z_p, z_q, make_validation_set("linear", d=3, count=5, seed=4)

    @pytest.mark.parametrize("threads", [1, CPUS + 3])
    def test_one_train_slice_per_fold(self, threads):
        z_p, z_q, vs = self.problem()
        type1 = fit_factory("type1")
        lock = threading.Lock()
        seen = []  # (training points, sq_pp); the arrays stay alive, so their ids stay distinct

        def spy(z_p_train, z_q, t, lams, sq_pp, sq_pq):
            with lock:
                seen.append((z_p_train.tobytes(), sq_pp))
            return type1(z_p_train, z_q, t, lams, sq_pp, sq_pq)

        spy.reads_sq_pq = True
        kfold_cv(z_p, z_q, spy, *self.GRID, vs, folds=4, seed=2, threads=threads)
        assert len(seen) == 4 * len(self.GRID[0])
        by_fold = {}
        for train, sq_pp in seen:
            by_fold.setdefault(train, set()).add(id(sq_pp))
        assert len(by_fold) == 4
        assert [len(ids) for ids in by_fold.values()] == [1] * 4
        assert len({id(sq_pp) for _, sq_pp in seen}) == 4

    def test_fold_slices_dropped_after_its_last_cell(self):
        z_p, z_q, vs = self.problem()
        type1 = fit_factory("type1")
        refs, live = [], []

        def spy(z_p_train, z_q, t, lams, sq_pp, sq_pq):
            refs.append(weakref.ref(sq_pp))
            live.append(len({id(r()) for r in refs if r() is not None}))
            return type1(z_p_train, z_q, t, lams, sq_pp, sq_pq)

        spy.reads_sq_pq = True
        kfold_cv(z_p, z_q, spy, *self.GRID, vs, folds=4, seed=2, threads=1)
        assert live == [1] * (4 * len(self.GRID[0]))

    @pytest.mark.parametrize("setting", ["type1", "type2"])
    @pytest.mark.parametrize("threads", [1, CPUS + 3])
    def test_fold_scores_equal_per_cell_oracle_bitwise(self, setting, threads):
        z_p, z_q, vs = self.problem()
        fit = fit_factory(setting, q_fn=gaussian_q)
        res = kfold_cv(z_p, z_q, fit, *self.GRID, vs, folds=4, seed=2, threads=threads)
        oracle = per_cell_fold_scores(z_p, z_q, fit, *self.GRID, vs, folds=4, seed=2)
        assert np.isfinite(oracle).all()
        assert np.array_equal(res.fold_scores, oracle)


class TestFitFactory:
    def test_type1_callback_matches_direct_solver(self):
        z_p, z_q = small_problem(8)
        fit = fit_factory("type1")
        k = KernelSpec(t=0.8)
        ests = fit(z_p, z_q, 0.8, np.array([1e-5, 1e-7]))
        probes = np.random.default_rng(9).standard_normal((7, 2))
        for lam, est in zip([1e-5, 1e-7], ests):
            ref = solve_type1(z_p, z_q, k, k, lam).evaluate(probes)
            assert np.allclose(est.evaluate(probes), ref, rtol=0, atol=1e-10)

    def test_type15_uses_ratio_scaled_second_kernel(self):
        z_p, z_q = small_problem(9)
        fit = fit_factory("type15", t_prime_ratio=3.0)
        (est,) = fit(z_p, z_q, 0.5, np.array([1e-6]))
        ref = solve_type15(z_p, z_q, KernelSpec(t=0.5), KernelSpec(t=1.5), KernelSpec(t=0.5), 1e-6)
        probes = np.random.default_rng(3).standard_normal((7, z_p.shape[1]))
        assert np.allclose(est.evaluate(probes), ref.evaluate(probes), rtol=0, atol=1e-10)

    def test_type2_requires_q_fn(self):
        with pytest.raises(ValueError, match="q_fn"):
            fit_factory("type2")

    def test_type2_uses_q_values(self):
        z_p, z_q = small_problem(10)
        calls = []

        def q_fn(points):
            calls.append(points.shape)
            return np.ones(points.shape[0])

        fit = fit_factory("type2", q_fn=q_fn)
        ests = fit(z_p, z_q, 1.0, np.array([1e-5]))
        assert calls == [(24, 2)]
        assert len(ests) == 1

    def test_unknown_setting(self):
        with pytest.raises(ValueError, match="setting"):
            fit = fit_factory("mystery")
            fit(*small_problem(11), 1.0, np.array([1e-5]))

    def test_lambda_grid_constants(self):
        assert np.allclose(LAMBDA_GRID, [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10], rtol=1e-15)


def today_calls(setting, z_p, z_q, t, normalized, gamma=0.3, t_prime_ratio=3.0):
    """(direct(lam), path(lams)): the solver calls each setting stands for."""
    k = KernelSpec(t=t, normalized=normalized)
    k_prime = KernelSpec(t=t * t_prime_ratio, normalized=normalized)
    q = gaussian_q(z_p)
    direct = {
        "type1": lambda lam: solve_type1(z_p, z_q, k, k, lam),
        "type15": lambda lam: solve_type15(z_p, z_q, k, k_prime, k, lam),
        "type2": lambda lam: solve_type2(z_p, q, k, k, lam),
        "combined": lambda lam: solve_combined(z_p, z_q, k, k, gamma, lam),
        "rkhs_loss": lambda lam: solve_rkhs_loss(z_p, z_q, k, lam),
    }[setting]
    path = {
        "type1": lambda lams: solve_type1_path(z_p, z_q, k, lams),
        "type15": lambda lams: solve_type15_path(z_p, z_q, k, k_prime, lams),
        "type2": lambda lams: solve_type2_path(z_p, q, k, lams),
        "combined": lambda lams: solve_combined_path(z_p, z_q, k, gamma, lams),
        "rkhs_loss": lambda lams: solve_rkhs_loss_path(z_p, z_q, k, lams),
    }[setting]
    return direct, path


class TestSettingsTable:
    """fit_factory, kfold_cv and the CLI's final fit read one table of settings."""

    T, LAMS = 0.7, np.array([1e-4, 1e-6, 1e-8])

    def cli_fit(self, setting, z_p, z_q, normalized):
        """The callback the CLI's final fit calls: the one _select_cell ran its CV with."""
        cfg = dataclasses.replace(cli.EstimateConfig(), solver=SolverConfig(setting, 0.3, 3.0, normalized),
                                  grids=GridConfig(t=(self.T,), lam=tuple(self.LAMS)))
        return cli._select_cell(cfg, z_p, z_q, gaussian_q, 1)[1]

    def test_rows(self):
        assert sorted(SETTINGS) == ["combined", "rkhs_loss", "type1", "type15", "type2"]
        assert [s for s, row in SETTINGS.items() if row.reads_q_fn] == ["type2"]
        assert [s for s, row in SETTINGS.items() if row.needs_gamma] == ["combined"]
        assert not any(hasattr(row, "fit") for row in SETTINGS.values())

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    @pytest.mark.parametrize("normalized", [True, False])
    def test_bitwise_equal_to_direct_and_path_calls(self, setting, normalized):
        z_p, z_q = small_problem(14, n=26, m=31)
        direct, path = today_calls(setting, z_p, z_q, self.T, normalized)
        fit = fit_factory(setting, gamma=0.3, t_prime_ratio=3.0, q_fn=gaussian_q, normalized=normalized)
        expect = path(self.LAMS)
        got = fit(z_p, z_q, self.T, self.LAMS)
        assert len(got) == len(expect)
        for a, b in zip(got, expect):
            assert np.array_equal(a.v, b.v) and a.scale == b.scale and a.kernel == b.kernel
        # a path over one lambda is the direct solve, also when it builds its
        # Grams from given distances, and so is the CLI's final fit
        sq_pp, sq_pq = kernels._sq_dists(z_p, z_p), kernels._sq_dists(z_p, z_q)
        final = self.cli_fit(setting, z_p, z_q, normalized)
        for lam in self.LAMS:
            b = direct(lam)
            one_lam = [path([lam]), fit(z_p, z_q, self.T, [lam]), fit(z_p, z_q, self.T, [lam], sq_pp, sq_pq),
                       final(z_p, z_q, self.T, [lam])]
            for (a,) in one_lam:
                assert np.array_equal(a.v, b.v) and a.scale == b.scale and a.kernel == b.kernel

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_rebound_solvers_are_reached(self, monkeypatch, setting):
        # rebind every firedre module's name for each solver, as the span tracer does
        reached = []
        names = ["solve_type1", "solve_type15", "solve_type2", "solve_combined", "solve_rkhs_loss",
                 "solve_type1_path", "solve_type15_path", "solve_type2_path", "solve_combined_path",
                 "solve_rkhs_loss_path"]
        modules = [m for name, m in sys.modules.items() if name == "firedre" or name.startswith("firedre.")]
        for name in names:
            original = getattr(solvers, name)

            def spy(*args, _name=name, _fn=original, **kwargs):
                reached.append(_name)
                return _fn(*args, **kwargs)

            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, spy)
        z_p, z_q = small_problem(15)
        fit_factory(setting, gamma=0.3, q_fn=gaussian_q)(z_p, z_q, self.T, self.LAMS[:2])
        assert reached == [f"solve_{setting}_path"] + ["solve_type15_path"] * (setting == "type1")
        final = self.cli_fit(setting, z_p, z_q, True)
        reached.clear()
        final(z_p, z_q, self.T, [1e-5])
        # the final fit enters the path, and the one-lambda path the direct
        # solver by its module name: the span the benchmark's coverage reads
        assert reached[0] == f"solve_{setting}_path"
        if setting in ("type1", "type15", "type2"):
            assert reached[1] == f"solve_{setting}"

    def test_unknown_or_incomplete_setting_raises_when_built(self):
        with pytest.raises(ValueError, match="mystery"):
            fit_factory("mystery")
        with pytest.raises(ValueError, match="gamma"):
            fit_factory("combined")


class TestWorkerCount:
    def write_cpu_max(self, tmp_path, monkeypatch, text):
        path = tmp_path / "cpu.max"
        if text is not None:
            path.write_text(text)
        monkeypatch.setattr(selection, "CPU_MAX_PATH", str(path))

    def test_quota_caps_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        self.write_cpu_max(tmp_path, monkeypatch, "200000 100000\n")
        assert worker_count(8) == 2
        self.write_cpu_max(tmp_path, monkeypatch, "150000 100000\n")  # 1.5 CPUs round up
        assert worker_count(8) == 2
        self.write_cpu_max(tmp_path, monkeypatch, "50000 100000\n")  # under one CPU still runs one
        assert worker_count(8) == 1
        assert worker_count(1) == 1

    @pytest.mark.parametrize("text", ["max 100000\n", None, "garbage\n"])
    def test_no_quota_no_cap(self, tmp_path, monkeypatch, text):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        self.write_cpu_max(tmp_path, monkeypatch, text)
        assert worker_count(8) == 8

    def test_affinity_still_caps_under_a_larger_quota(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        self.write_cpu_max(tmp_path, monkeypatch, "800000 100000\n")
        assert worker_count(8) == 3


class TestCellBlasPolicy:
    """Cells run on one BLAS thread; the caller's count comes back afterwards."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_kfold_cv_cells_see_one_blas_thread(self, caller_blas_threads, threads):
        z_p, z_q = small_problem(12)
        vs = make_validation_set("linear", d=2, count=4, seed=1)
        type1 = fit_factory("type1")
        seen = []

        def spy_fit(*args):
            seen.append(blas_thread_count())
            return type1(*args)

        kfold_cv(z_p, z_q, spy_fit, [0.5, 1.0, 2.0], LAMBDA_GRID[:3], vs, folds=3, seed=4, threads=threads)
        assert seen == [1] * 9
        assert blas_thread_count() == caller_blas_threads

    @pytest.mark.parametrize("threads", [1, 2])
    def test_count_restored_when_a_cell_raises(self, caller_blas_threads, threads):
        def cell(i):
            if i == 2:
                raise RuntimeError("cell failed")
            return blas_thread_count()

        with pytest.raises(RuntimeError, match="cell failed"):
            run_cells(cell, range(4), threads)
        assert blas_thread_count() == caller_blas_threads

    def test_nested_regions_keep_one_thread(self, caller_blas_threads):
        inner = run_cells(lambda _: run_cells(lambda _: blas_thread_count(), [0, 1], 2), [0, 1], 2)
        assert inner == [[1, 1], [1, 1]]
        assert blas_thread_count() == caller_blas_threads

    def test_concurrent_regions_hold_one_thread_and_restore(self, caller_blas_threads):
        # regions entered and left from many threads at once, with frequent
        # thread switches: a lost update of the region count would either
        # restore the caller's count inside a region or never restore it
        inside = []

        def enter_many():
            for _ in range(200):
                with blas_threads(1):
                    inside.append(blas_thread_count())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_many) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert inside == [1] * 1600
        assert blas_thread_count() == caller_blas_threads
