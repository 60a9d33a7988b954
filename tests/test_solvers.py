import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firedre import linalg, solvers
from firedre.baselines import GaussianDensity, LsifRatio, MixtureDensity
from firedre.data import simulate
from firedre.kernels import KernelSpec, _sq_dists, bandwidth_grid, gaussian_kernel_matrix, kde
from firedre.linalg import NumericalError, eigh_descending, pivoted_cholesky, solve_linear, tridiagonal_path
from firedre.selection import LAMBDA_GRID, fit_factory, kfold_cv, make_validation_set
from firedre.solvers import (
    RatioEstimate,
    evaluate,
    solve_combined,
    solve_combined_path,
    solve_rkhs_loss,
    solve_rkhs_loss_path,
    solve_spectral,
    solve_type1,
    solve_type15,
    solve_type15_path,
    solve_type1_path,
    solve_type2,
    solve_type2_path,
)

KAPPA = (2.0 * np.pi) ** -0.5  # value of the normalized 1-d kernel at zero distance


def instance(seed, n=20, m=25, d=2):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.standard_normal((m, d)) * 0.8 + 0.3


class TestSinglePointClosedForms:
    """One point in each sample collapses every system to scalar algebra."""

    def setup_method(self):
        self.z = np.zeros((1, 1))
        self.k = KernelSpec(t=1.0)

    def test_plain_squared_loss(self):
        est = solve_type1(self.z, self.z, self.k, self.k, 0.1)
        assert est.v.shape == (1,)
        assert abs(est.v[0] - KAPPA ** 2 / (KAPPA ** 3 + 0.1)) < 1e-12
        assert abs(est.evaluate(self.z)[0] - KAPPA ** 3 / (KAPPA ** 3 + 0.1)) < 1e-12

    def test_rkhs_loss(self):
        est = solve_rkhs_loss(self.z, self.z, self.k, 0.1)
        assert abs(est.v[0] - KAPPA / (KAPPA ** 2 + 0.1)) < 1e-12
        assert abs(est.evaluate(self.z)[0] - KAPPA ** 2 / (KAPPA ** 2 + 0.1)) < 1e-12

    def test_known_q(self):
        est = solve_type2(self.z, np.ones(1), self.k, self.k, 0.1)
        assert abs(est.v[0] - KAPPA / (KAPPA ** 3 + 0.1)) < 1e-12

    def test_two_kernel(self):
        k_prime = KernelSpec(t=2.0)
        kappa_prime = (4.0 * np.pi) ** -0.5
        est = solve_type15(self.z, self.z, self.k, k_prime, self.k, 0.1)
        assert abs(est.v[0] - KAPPA * kappa_prime / (KAPPA ** 3 + 0.1)) < 1e-12


class TestReductions:
    def test_two_kernel_reduces_bit_identically(self):
        for seed in range(5):
            z_p, z_q = instance(seed)
            k = KernelSpec(t=0.9)
            a = solve_type1(z_p, z_q, k, k, 1e-4)
            b = solve_type15(z_p, z_q, k, k, k, 1e-4)
            assert np.array_equal(a.v, b.v)

    def test_combined_gamma_one_matches_plain(self):
        z_p, z_q = instance(3)
        k = KernelSpec(t=1.2)
        X = np.random.default_rng(0).standard_normal((9, 2))
        a = solve_type1(z_p, z_q, k, k, 1e-4).evaluate(X)
        b = solve_combined(z_p, z_q, k, k, 1.0, 1e-4).evaluate(X)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_combined_gamma_zero_on_shared_sample(self):
        # with z_q = z_p the two loss terms coincide, so gamma is irrelevant
        z_p, _ = instance(4)
        k = KernelSpec(t=0.8)
        X = np.random.default_rng(1).standard_normal((6, 2))
        a = solve_combined(z_p, z_p, k, k, 0.0, 1e-3).evaluate(X)
        b = solve_combined(z_p, z_p, k, k, 1.0, 1e-3).evaluate(X)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_known_q_matches_sampled_q_through_smoothing(self):
        # feeding K_pq 1 as q-values reproduces the plain estimator exactly
        z_p, z_q = instance(5)
        k = KernelSpec(t=1.0)
        q_vals = gaussian_kernel_matrix(z_p, z_q, k).mean(axis=1)
        a = solve_type1(z_p, z_q, k, k, 1e-4)
        b = solve_type2(z_p, q_vals, k, k, 1e-4)
        assert np.allclose(a.v, b.v, rtol=0, atol=1e-12)


def p_grams_separately(z_p, k, k_h):
    # reference: K_pp and K_H from two independent Gram builds
    return gaussian_kernel_matrix(z_p, z_p, k) / z_p.shape[0], gaussian_kernel_matrix(z_p, z_p, k_h)


# v of the k_H = k cubic systems (type1, type15, type2) from the factored
# Cholesky solve against v from the LU of the assembled system: the factors
# cannot reproduce the LU's bits, and drift by at most 6.8e-13 per entry
# (1.4e-14 in norm) on these fixtures
CUBIC_RTOL = 1e-10


class TestSharedGram:
    """With k_H = k the direct solvers build one p x p Gram; results must not move.

    rkhs_loss and combined are pinned bit for bit to the assembled system;
    the cubic systems, which solve it in factored form, to CUBIC_RTOL.
    """

    LAM = 1e-4

    def setup_method(self):
        self.z_p, self.z_q = instance(30, n=17, m=21, d=5)
        self.k = KernelSpec(t=1.3)
        self.n, self.m = self.z_p.shape[0], self.z_q.shape[0]

    def test_type15_and_type1_bitwise(self):
        k, n = self.k, self.n
        k_prime = KernelSpec(t=2.6)
        for kp, got in (
            (k_prime, solve_type15(self.z_p, self.z_q, k, k_prime, k, self.LAM)),
            (k, solve_type1(self.z_p, self.z_q, k, k, self.LAM)),
        ):
            K_pp, K_H = p_grams_separately(self.z_p, k, k)
            target = gaussian_kernel_matrix(self.z_p, self.z_q, kp).sum(axis=1) / self.m
            A = (K_pp @ K_pp) @ K_H + n * self.LAM * np.eye(n)
            np.testing.assert_allclose(got.v, solve_linear(A, K_pp @ target), rtol=CUBIC_RTOL, atol=0)

    def test_type2_bitwise(self):
        k, n = self.k, self.n
        q = np.random.default_rng(31).uniform(0.1, 1.0, n)
        K_pp, K_H = p_grams_separately(self.z_p, k, k)
        A = (K_pp @ K_pp) @ K_H + n * self.LAM * np.eye(n)
        expect = solve_linear(A, K_pp @ q)
        np.testing.assert_allclose(solve_type2(self.z_p, q, k, k, self.LAM).v, expect, rtol=CUBIC_RTOL, atol=0)

    def test_rkhs_loss_bitwise(self):
        k, n = self.k, self.n
        K_pp, K_H = p_grams_separately(self.z_p, k, k)
        target = gaussian_kernel_matrix(self.z_p, self.z_q, k).sum(axis=1) / self.m
        expect = solve_linear(K_pp @ K_H + n * self.LAM * np.eye(n), target)
        assert np.array_equal(solve_rkhs_loss(self.z_p, self.z_q, k, self.LAM).v, expect)

    def test_combined_and_gram_bundle_bitwise(self):
        k, n, m, gamma = self.k, self.n, self.m, 0.3
        K_pp, K_H = p_grams_separately(self.z_p, k, k)
        g = gram_bundle(self.z_p, self.z_q, k, k)
        assert np.array_equal(g.K_pp, K_pp) and np.array_equal(g.K_H, K_H)
        G_pq = gaussian_kernel_matrix(self.z_p, self.z_q, k)
        K_pq, K_qp = G_pq / m, G_pq.T / n
        K_qq = gaussian_kernel_matrix(self.z_q, self.z_q, k) / m
        M = (gamma / n) * (K_pp @ K_pp) + ((1.0 - gamma) / m) * (K_qp.T @ K_qp)
        rhs = (gamma / n) * (K_pp @ K_pq.sum(axis=1)) + ((1.0 - gamma) / m) * (K_qp.T @ K_qq.sum(axis=1))
        expect = solve_linear(M @ K_H + self.LAM * np.eye(n), rhs)
        assert np.array_equal(solve_combined(self.z_p, self.z_q, k, k, gamma, self.LAM).v, expect)

    def test_one_p_gram_when_kernels_match(self, monkeypatch):
        import firedre.solvers as solvers

        shapes = []

        def counting(A, B, spec, sq=None):
            shapes.append((len(A), len(B)))
            return gaussian_kernel_matrix(A, B, spec, sq=sq)

        monkeypatch.setattr(solvers, "gaussian_kernel_matrix", counting)
        k, n = self.k, self.n
        q = np.ones(n)
        calls = [
            lambda: solve_type1(self.z_p, self.z_q, k, k, self.LAM),
            lambda: solve_type15(self.z_p, self.z_q, k, KernelSpec(t=2.6), k, self.LAM),
            lambda: solve_type2(self.z_p, q, k, k, self.LAM),
            lambda: solve_rkhs_loss(self.z_p, self.z_q, k, self.LAM),
            lambda: solve_combined(self.z_p, self.z_q, k, k, 0.5, self.LAM),
        ]
        for call in calls:
            shapes.clear()
            call()
            assert shapes.count((n, n)) == 1
        shapes.clear()
        solve_type1(self.z_p, self.z_q, k, KernelSpec(t=0.7), self.LAM)
        assert shapes.count((n, n)) == 2


def direct_system_oracle(setting, z_p, z_q, k, k_h, lam, k_prime=None, q=None, gamma=None):
    # v of each direct solver with A assembled densely, ridge term from np.eye
    n, m = z_p.shape[0], z_q.shape[0]
    K_pp = gaussian_kernel_matrix(z_p, z_p, k) / n
    K_H = gaussian_kernel_matrix(z_p, z_p, k_h)
    if setting == "rkhs_loss":
        target = gaussian_kernel_matrix(z_p, z_q, k).sum(axis=1) / m
        return solve_linear(K_pp @ K_H + n * lam * np.eye(n), target)
    if setting == "combined":
        G_pq = gaussian_kernel_matrix(z_p, z_q, k)
        K_pq, K_qp = G_pq / m, G_pq.T / n
        K_qq = gaussian_kernel_matrix(z_q, z_q, k) / m
        M = (gamma / n) * (K_pp @ K_pp) + ((1.0 - gamma) / m) * (K_qp.T @ K_qp)
        rhs = (gamma / n) * (K_pp @ K_pq.sum(axis=1)) + ((1.0 - gamma) / m) * (K_qp.T @ K_qq.sum(axis=1))
        return solve_linear(M @ K_H + lam * np.eye(n), rhs)
    if setting == "type2":
        target = q
    else:
        target = gaussian_kernel_matrix(z_p, z_q, k_prime or k).sum(axis=1) / m
    A = (K_pp @ K_pp) @ K_H + n * lam * np.eye(n)
    return solve_linear(A, K_pp @ target)


class TestDirectSystemOracle:
    """The direct solvers add the ridge in place; the bits match the dense np.eye form.

    Except the k_H = k cubic systems, solved in factored form: within CUBIC_RTOL.
    """

    LAM = 3e-5

    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize(
        "setting, separate_k_h",
        [(s, False) for s in ("type1", "type15", "type2", "rkhs_loss", "combined")]
        + [(s, True) for s in ("type1", "type15", "type2", "combined")],
    )
    def test_bitwise_equal_to_dense_oracle(self, setting, separate_k_h, normalized):
        z_p, z_q = instance(50, n=23, m=19, d=3)
        k = KernelSpec(t=0.8, normalized=normalized)
        k_h = KernelSpec(t=1.7, normalized=normalized) if separate_k_h else k
        k_prime = KernelSpec(t=2.4, normalized=normalized)
        q = np.random.default_rng(51).uniform(0.1, 1.0, z_p.shape[0])
        expect = direct_system_oracle(
            setting, z_p, z_q, k, k_h, self.LAM, k_prime=k_prime if setting == "type15" else None, q=q, gamma=0.4
        )
        got = {
            "type1": lambda: solve_type1(z_p, z_q, k, k_h, self.LAM),
            "type15": lambda: solve_type15(z_p, z_q, k, k_prime, k_h, self.LAM),
            "type2": lambda: solve_type2(z_p, q, k, k_h, self.LAM),
            "rkhs_loss": lambda: solve_rkhs_loss(z_p, z_q, k, self.LAM),
            "combined": lambda: solve_combined(z_p, z_q, k, k_h, 0.4, self.LAM),
        }[setting]()
        if separate_k_h or setting in ("rkhs_loss", "combined"):
            assert np.array_equal(got.v, expect)
        else:
            np.testing.assert_allclose(got.v, expect, rtol=CUBIC_RTOL, atol=0)


class TestFactoredCubic:
    """The k_H = k cubic systems are solved as (B + I)(B^2 - B + I), B = K_pp / lam^(1/3)."""

    LAM = 3e-5

    def setup_method(self):
        self.z_p, self.z_q = instance(50, n=23, m=19, d=3)
        self.k = KernelSpec(t=0.8)
        self.q = np.random.default_rng(51).uniform(0.1, 1.0, self.z_p.shape[0])

    def test_positive_definite_solve_rejects_indefinite(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match="cubic factor.*not positive definite"):
            solve_linear(A, np.ones(2), "cubic factor", positive_definite=True)
        with pytest.raises(ValueError, match="matching vector"):
            solve_linear(np.eye(3), np.ones(2), positive_definite=True)

    @pytest.mark.parametrize("setting", ["type1", "type15", "type2"])
    def test_without_lapacke_matches_oracle(self, monkeypatch, setting):
        monkeypatch.setattr(linalg, "_lapacke", lambda: None)
        z_p, z_q, k, q = self.z_p, self.z_q, self.k, self.q
        k_prime = KernelSpec(t=2.4)
        expect = direct_system_oracle(
            setting, z_p, z_q, k, k, self.LAM, k_prime=k_prime if setting == "type15" else None, q=q
        )
        got = {
            "type1": lambda: solve_type1(z_p, z_q, k, k, self.LAM),
            "type15": lambda: solve_type15(z_p, z_q, k, k_prime, k, self.LAM),
            "type2": lambda: solve_type2(z_p, q, k, k, self.LAM),
        }[setting]()
        np.testing.assert_allclose(got.v, expect, rtol=CUBIC_RTOL, atol=0)

    def test_type1_solves_through_solve_linear(self, monkeypatch):
        # the benchmark traces solve_linear; the final fit must call it
        calls = []

        def spy(A, b, context="", positive_definite=False, **kwargs):
            calls.append((context, positive_definite))
            return solve_linear(A, b, context, positive_definite=positive_definite, **kwargs)

        monkeypatch.setattr(solvers, "solve_linear", spy)
        solve_type1(self.z_p, self.z_q, self.k, self.k, self.LAM)
        assert calls == [("type15 system", True)] * 2

    @pytest.mark.parametrize("lapacke", [True, False])
    @pytest.mark.parametrize("lower", [True, False])
    def test_positive_definite_solve_reads_one_triangle(self, monkeypatch, lapacke, lower):
        if not lapacke:
            monkeypatch.setattr(linalg, "_lapacke", lambda: None)
        rng = np.random.default_rng(53)
        X = rng.standard_normal((9, 9))
        A = X @ X.T + 9.0 * np.eye(9)
        b = rng.standard_normal(9)
        other = np.triu_indices(9, 1) if lower else np.tril_indices(9, -1)
        M = A.copy()
        M[other] = np.nan
        x = solve_linear(M, b, positive_definite=True, lower=lower)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-12, atol=0)
        assert np.isnan(M[other]).all()

    def test_square_minus_into_upper(self):
        # two whole panels and a partial one; the strict lower triangle keeps B
        n = 2 * solvers._PANEL + 19
        z = instance(54, n=n, d=3)[0]
        B = gaussian_kernel_matrix(z, z, self.k)
        M = B.copy()
        diag = solvers._square_minus_into_upper(M)
        S = B @ B.T - B
        upper = np.triu_indices(n, 1)
        assert np.array_equal(np.tril(M, -1), np.tril(B, -1))
        np.testing.assert_allclose(M[upper], S[upper], rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(diag, S.diagonal(), rtol=1e-13, atol=1e-15)

    def test_one_n_by_n_array(self):
        # the final fit of shift-5d at half its size: the Gram, both factors
        # and the row-blocked target fit in one n x n array and O(n) panels
        rng = np.random.default_rng(52)
        spread = np.array([3.0, 0.7, 0.7, 0.7, 0.7])
        n = 700
        z_p, z_q = rng.standard_normal((n, 5)) * spread, rng.standard_normal((2 * n, 5)) * spread
        fit = fit_factory("type1", normalized=False)
        tracemalloc.start()
        try:
            (est,) = fit(z_p, z_q, 1.0, [1e-7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(est.v))
        assert peak <= 1.3 * 8 * n * n


class TestRegularizationPaths:
    def test_path_matches_direct(self):
        z_p, z_q = instance(6, n=40, m=30)
        k = KernelSpec(t=0.7)
        lams = np.array([1e-3, 1e-5, 1e-7])
        probes = np.random.default_rng(2).standard_normal((15, 2))
        path = solve_type1_path(z_p, z_q, k, lams)
        for lam, est in zip(lams, path):
            direct = solve_type1(z_p, z_q, k, k, lam)
            assert est.scale == "over_n" and direct.scale == "plain"
            # coefficient conventions differ by the factor n
            assert np.allclose(est.v, 40 * direct.v, rtol=1e-8)
            assert np.allclose(est.evaluate(probes), direct.evaluate(probes), rtol=0, atol=1e-10)

    def test_two_kernel_path_matches_direct(self):
        z_p, z_q = instance(16, n=24, m=31)
        k, k_prime = KernelSpec(t=0.5), KernelSpec(t=1.3)
        lams = np.array([1e-3, 1e-6, 1e-8])
        probes = np.random.default_rng(5).standard_normal((9, 2))
        path = solve_type15_path(z_p, z_q, k, k_prime, lams)
        for lam, est in zip(lams, path):
            direct = solve_type15(z_p, z_q, k, k_prime, k, lam)
            assert est.scale == "over_n"
            assert np.allclose(est.v, 24 * direct.v, rtol=1e-8)
            assert np.allclose(est.evaluate(probes), direct.evaluate(probes), rtol=0, atol=1e-10)

    def test_two_kernel_path_with_equal_kernels_is_bitwise_type1_path(self):
        z_p, z_q = instance(17, n=14, m=9)
        k = KernelSpec(t=0.9)
        lams = np.array([1e-4, 1e-7])
        a = solve_type15_path(z_p, z_q, k, k, lams)
        b = solve_type1_path(z_p, z_q, k, lams)
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.v, eb.v)

    def test_known_q_path_matches_direct(self):
        z_p, _ = instance(7, n=35)
        k = KernelSpec(t=0.6)
        q_vals = np.abs(np.random.default_rng(3).standard_normal(35))
        lams = np.array([1e-4, 1e-6])
        probes = np.random.default_rng(4).standard_normal((8, 2))
        for lam, est in zip(lams, solve_type2_path(z_p, q_vals, k, lams)):
            direct = solve_type2(z_p, q_vals, k, k, lam)
            assert np.allclose(est.evaluate(probes), direct.evaluate(probes), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("setting", ["combined", "rkhs_loss"])
    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("slices", [False, True])
    def test_lu_paths_bitwise_equal_to_direct(self, setting, normalized, slices):
        z_all, z_q = instance(18, n=42, m=26, d=3)
        idx = np.arange(1, 42, 2)
        z_p = z_all[idx]
        k = KernelSpec(t=0.8, normalized=normalized)
        lams = np.array([1e-3, 1e-5, 1e-7])
        # index slices of the distances of a larger sample, as kfold_cv passes them
        sq = {"sq_pp": _sq_dists(z_all, z_all).take(idx, 0).take(idx, 1),
              "sq_pq": _sq_dists(z_all, z_q).take(idx, 0)} if slices else {}
        if setting == "combined":
            path = solve_combined_path(z_p, z_q, k, 0.4, lams, **sq)
            direct = [solve_combined(z_p, z_q, k, k, 0.4, lam) for lam in lams]
        else:
            path = solve_rkhs_loss_path(z_p, z_q, k, lams, **sq)
            direct = [solve_rkhs_loss(z_p, z_q, k, lam) for lam in lams]
        assert len(path) == len(lams)
        for a, b in zip(path, direct):
            assert np.array_equal(a.v, b.v) and a.scale == b.scale == "plain" and a.kernel == b.kernel == k

    def test_heavy_ridge_damps_to_zero(self):
        z_p, z_q = instance(8)
        k = KernelSpec(t=1.0)
        lam = 1e6
        est = solve_type1(z_p, z_q, k, k, lam)
        n = z_p.shape[0]
        K_pp = gaussian_kernel_matrix(z_p, z_p, k) / n
        b = K_pp @ (gaussian_kernel_matrix(z_p, z_q, k).mean(axis=1))
        assert np.linalg.norm(est.v) <= np.linalg.norm(b) / (n * lam) * (1 + 1e-3)
        assert np.max(np.abs(est.evaluate(z_p))) < 1e-6


# === oracle: the empirical objectives the direct solvers minimize ===


@dataclass(eq=False)
class GramBundle:
    """The Gram matrices of the objectives, in the conventions of firedre.solvers."""

    K_pp: np.ndarray
    K_H: np.ndarray
    K_pq: np.ndarray
    K_qp: np.ndarray
    K_qq: np.ndarray


def gram_bundle(z_p, z_q, k, k_h):
    n, m = z_p.shape[0], z_q.shape[0]
    K_pp, K_H = solvers._p_grams(z_p, k, k_h)
    G_pq = gaussian_kernel_matrix(z_p, z_q, k)
    K_qq = gaussian_kernel_matrix(z_q, z_q, k) / m
    return GramBundle(K_pp=K_pp, K_H=K_H, K_pq=G_pq / m, K_qp=G_pq.T / n, K_qq=K_qq)


def _objective_pieces(setting, v, grams: GramBundle, gamma, target):
    K_H = grams.K_H
    h = K_H @ v
    if setting in ("type1_l2p", "type2", "type15"):
        if target is None:
            if setting != "type1_l2p":
                raise ValueError(f"setting {setting!r} needs an explicit target vector")
            target = grams.K_pq.sum(axis=1)
        r = grams.K_pp @ h - target
        return np.mean(r ** 2), h, (r,)
    if setting == "combined":
        if gamma is None or not 0.0 <= gamma <= 1.0:
            raise ValueError(f"combined setting needs gamma in [0, 1], got {gamma}")
        r_p = grams.K_pp @ h - grams.K_pq.sum(axis=1)
        r_q = grams.K_qp @ h - grams.K_qq.sum(axis=1)
        return gamma * np.mean(r_p ** 2) + (1.0 - gamma) * np.mean(r_q ** 2), h, (r_p, r_q)
    if setting == "rkhs_loss":
        n = grams.K_pp.shape[0]
        m = grams.K_qq.shape[0]
        b = grams.K_pq.sum(axis=1)
        loss = h @ (grams.K_pp @ h) / n - 2.0 * (h @ b) / n + grams.K_qq.sum() / m
        return loss, h, (b,)
    raise ValueError(f"unknown setting {setting!r}")


def empirical_objective(setting, v, grams: GramBundle, lam, gamma=None, target=None):
    """Value of the regularized empirical objective a solver minimizes.

    Settings: "type1_l2p" (loss (1/n)||K_pp K_H v - K_pq 1||^2), "type2" /
    "type15" (same loss with an explicit target vector), "combined"
    (gamma-weighted p and q losses), "rkhs_loss" (RKHS-norm fit computed via
    Gram expansions, nonnegative by construction).  All settings add
    lam * v' K_H v.
    """
    loss, h, _ = _objective_pieces(setting, np.asarray(v, dtype=np.float64), grams, gamma, target)
    return float(loss + lam * (v @ h))


def objective_gradient(setting, v, grams: GramBundle, lam, gamma=None, target=None):
    """Gradient of empirical_objective in v; zero at the solver solutions."""
    v = np.asarray(v, dtype=np.float64)
    loss, h, res = _objective_pieces(setting, v, grams, gamma, target)
    K_H = grams.K_H
    n = grams.K_pp.shape[0]
    if setting in ("type1_l2p", "type2", "type15"):
        (r,) = res
        return (2.0 / n) * (K_H @ (grams.K_pp @ r)) + 2.0 * lam * h
    if setting == "combined":
        r_p, r_q = res
        m = grams.K_qq.shape[0]
        pull = (gamma / n) * (grams.K_pp @ r_p) + ((1.0 - gamma) / m) * (grams.K_qp.T @ r_q)
        return 2.0 * K_H @ pull + 2.0 * lam * h
    (b,) = res
    return (2.0 / n) * (K_H @ (grams.K_pp @ h - b)) + 2.0 * lam * h


def assemble_quadratic(setting, grams, lam, gamma=None, target=None):
    """Independent quadratic form J(v) = v'Hv - 2 b'v + c for each objective."""
    K_H, K_pp = grams.K_H, grams.K_pp
    n = K_pp.shape[0]
    if setting in ("type1_l2p", "type2", "type15"):
        if target is None:
            target = grams.K_pq.sum(axis=1)
        H = K_H @ K_pp @ K_pp @ K_H / n + lam * K_H
        b = K_H @ K_pp @ target / n
        c = target @ target / n
        return H, b, c
    if setting == "combined":
        m = grams.K_qq.shape[0]
        bp = grams.K_pq.sum(axis=1)
        bq = grams.K_qq.sum(axis=1)
        H = (
            gamma / n * K_H @ K_pp @ K_pp @ K_H
            + (1 - gamma) / m * K_H @ grams.K_qp.T @ grams.K_qp @ K_H
            + lam * K_H
        )
        b = gamma / n * K_H @ K_pp @ bp + (1 - gamma) / m * K_H @ grams.K_qp.T @ bq
        c = gamma / n * bp @ bp + (1 - gamma) / m * bq @ bq
        return H, b, c
    if setting == "rkhs_loss":
        m = grams.K_qq.shape[0]
        H = K_H @ K_pp @ K_H / n + lam * K_H
        b = K_H @ grams.K_pq.sum(axis=1) / n
        c = grams.K_qq.sum() / m
        return H, b, c
    raise AssertionError(setting)


class TestObjectivesAndStationarity:
    def toolset(self, seed, t=0.9, t_h=1.4):
        z_p, z_q = instance(seed, n=15, m=18)
        k, k_h = KernelSpec(t=t), KernelSpec(t=t_h)
        return z_p, z_q, k, k_h, gram_bundle(z_p, z_q, k, k_h)

    def test_objective_matches_independent_quadratic(self):
        z_p, z_q, k, k_h, g = self.toolset(11)
        rng = np.random.default_rng(5)
        for setting, gamma in [("type1_l2p", None), ("combined", 0.3), ("rkhs_loss", None)]:
            grams = g
            if setting == "rkhs_loss":
                grams = gram_bundle(z_p, z_q, k, k)  # single-kernel objective
            H, b, c = assemble_quadratic(setting, grams, 1e-3, gamma=gamma)
            for _ in range(5):
                v = rng.standard_normal(15)
                lib = empirical_objective(setting, v, grams, 1e-3, gamma=gamma)
                assert abs(lib - (v @ H @ v - 2 * b @ v + c)) < 1e-10 * max(1.0, abs(lib))

    def test_gradient_matches_finite_differences(self):
        _, _, _, _, g = self.toolset(12)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(15)
        for setting, gamma in [("type1_l2p", None), ("combined", 0.6)]:
            grad = objective_gradient(setting, v, g, 1e-3, gamma=gamma)
            fd = np.empty_like(v)
            h = 1e-6
            for i in range(len(v)):
                e = np.zeros_like(v)
                e[i] = h
                fd[i] = (
                    empirical_objective(setting, v + e, g, 1e-3, gamma=gamma)
                    - empirical_objective(setting, v - e, g, 1e-3, gamma=gamma)
                ) / (2 * h)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_solutions_are_stationary(self):
        z_p, z_q, k, k_h, g = self.toolset(13)
        lam = 1e-4
        cases = [
            ("type1_l2p", solve_type1(z_p, z_q, k, k_h, lam).v, None, g),
            ("combined", solve_combined(z_p, z_q, k, k_h, 0.4, lam).v, 0.4, g),
            ("rkhs_loss", solve_rkhs_loss(z_p, z_q, k, lam).v, None, gram_bundle(z_p, z_q, k, k)),
        ]
        for setting, v, gamma, grams in cases:
            grad = objective_gradient(setting, v, grams, lam, gamma=gamma)
            assert np.linalg.norm(grad) < 1e-10

    def test_solutions_beat_random_probes(self):
        z_p, z_q, k, k_h, g = self.toolset(14)
        lam = 1e-3
        v_star = solve_type1(z_p, z_q, k, k_h, lam).v
        base = empirical_objective("type1_l2p", v_star, g, lam)
        rng = np.random.default_rng(7)
        for scale in (1e-3, 1e-1, 1.0):
            for _ in range(10):
                probe = v_star + scale * rng.standard_normal(v_star.shape)
                assert empirical_objective("type1_l2p", probe, g, lam) >= base - 1e-12

    def test_rkhs_objective_matches_brute_force_inner_products(self):
        # expand ||K_zp f - K_zq 1||_H^2 in explicit double sums over kernel calls
        z_p, z_q = instance(15, n=6, m=7)
        k = KernelSpec(t=1.1)
        g = gram_bundle(z_p, z_q, k, k)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(6)
        lam = 1e-2
        n, m = 6, 7

        def kval(a, b):
            return gaussian_kernel_matrix(a[None, :], b[None, :], k)[0, 0]

        f_at = lambda x: sum(kval(z_p[i], x) * v[i] for i in range(n))
        term_pp = sum(f_at(z_p[i]) * f_at(z_p[j]) * kval(z_p[i], z_p[j]) for i in range(n) for j in range(n)) / n ** 2
        term_pq = sum(f_at(z_p[i]) * kval(z_p[i], z_q[j]) for i in range(n) for j in range(m)) / (n * m)
        term_qq = sum(kval(z_q[i], z_q[j]) for i in range(m) for j in range(m)) / m ** 2
        norm_f = sum(v[i] * v[j] * kval(z_p[i], z_p[j]) for i in range(n) for j in range(n))
        brute = term_pp - 2 * term_pq + term_qq + lam * norm_f
        lib = empirical_objective("rkhs_loss", v, g, lam)
        assert abs(lib - brute) < 1e-10

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rkhs_objective_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        z_p = rng.standard_normal((8, 1))
        z_q = rng.standard_normal((5, 1))
        k = KernelSpec(t=0.8)
        g = gram_bundle(z_p, z_q, k, k)
        v = rng.standard_normal(8) * 10
        assert empirical_objective("rkhs_loss", v, g, 1e-6) >= -1e-10


class TestSpectralCutoff:
    def test_full_rank_recovers_projection(self):
        z_p, _ = instance(16, n=12, m=5, d=3)
        k = KernelSpec(t=5.0)
        n = 12
        K_pp = gaussian_kernel_matrix(z_p, z_p, k) / n
        w, Q = eigh_descending(K_pp)
        target = K_pp @ K_pp @ np.random.default_rng(9).standard_normal(n)  # in range(K_pp^2)
        valid = int(np.sum(w >= 1e-12 * w[0]))
        est = solve_spectral(z_p, target, k, valid)
        proj = Q[:, :valid] @ (Q[:, :valid].T @ target)
        assert np.allclose(K_pp @ (K_pp @ est.v), proj, atol=1e-9)

    def test_residual_monotone_and_matches_eigenbasis(self):
        z_p, _ = instance(17, n=25, m=5, d=2)
        k = KernelSpec(t=2.0)
        K_pp = gaussian_kernel_matrix(z_p, z_p, k) / 25
        w, Q = eigh_descending(K_pp)
        target = np.random.default_rng(10).standard_normal(25)
        valid = int(np.sum(w >= 1e-12 * w[0]))
        prev = np.inf
        checked_dense = 0
        for cut in range(1, valid + 1):
            est = solve_spectral(z_p, target, k, cut)
            # coefficient-level identity holds at every valid cutoff
            ref = Q[:, :cut] @ ((Q[:, :cut].T @ target) / w[:cut] ** 2)
            assert np.allclose(est.v, ref, rtol=1e-10, atol=0)
            # residual identity is float64-checkable only while the squared
            # condition number w1^2/w_cut^2 keeps roundoff under the tolerance
            if w[cut - 1] >= 1e-3 * w[0]:
                resid = np.linalg.norm(K_pp @ (K_pp @ est.v) - target)
                expected = np.linalg.norm(target - Q[:, :cut] @ (Q[:, :cut].T @ target))
                assert abs(resid - expected) < 1e-8
                assert resid <= prev + 1e-12
                prev = resid
                checked_dense = cut
        assert checked_dense >= 5

    def test_rank_deficient_cutoff_errors_with_index(self):
        # duplicated points force exact zero eigenvalues
        base = np.random.default_rng(11).standard_normal((10, 2))
        z_p = np.vstack([base, base])
        k = KernelSpec(t=1.0)
        K_pp = gaussian_kernel_matrix(z_p, z_p, k) / 20
        w, _ = eigh_descending(K_pp)
        valid = int(np.sum(w >= 1e-12 * w[0]))
        assert valid < 20
        with pytest.raises(NumericalError, match=str(valid)):
            solve_spectral(z_p, np.ones(20), k, valid + 1)

    def test_cutoff_out_of_range(self):
        z_p, _ = instance(18, n=5)
        for bad in (0, 6, -1):
            with pytest.raises(ValueError, match="cutoff"):
                solve_spectral(z_p, np.ones(5), KernelSpec(t=1.0), bad)


class TestEighConventions:
    def test_descending_orthonormal_reconstruction(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((14, 14))
        S = A @ A.T
        w, Q = eigh_descending(S)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.allclose(Q.T @ Q, np.eye(14), atol=1e-12)
        assert np.allclose(Q @ np.diag(w) @ Q.T, S, atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((9, 9))
        _, Q = eigh_descending(A @ A.T)
        for col in Q.T:
            lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
            assert lead > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_cube_band_matches_dense_cube(self, n):
        rng = np.random.default_rng(n)
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        band = linalg._cube_band(d, e)
        for k in range(4):
            assert np.allclose(band[: max(n - k, 0), k], np.diagonal(T @ T @ T, -k), rtol=1e-13, atol=1e-13)
            assert not band[max(n - k, 0):, k].any()

    def test_deterministic_under_repeat(self):
        rng = np.random.default_rng(14)
        S = rng.standard_normal((11, 11))
        S = S + S.T
        w1, Q1 = eigh_descending(S)
        w2, Q2 = eigh_descending(S.copy())
        assert np.array_equal(w1, w2) and np.array_equal(Q1, Q2)


class TestEvaluateAndValidation:
    def test_in_sample_reproduces_gram_product(self):
        z_p, z_q = instance(19)
        k = KernelSpec(t=1.0)
        est = solve_type1(z_p, z_q, k, k, 1e-4)
        K_H = gaussian_kernel_matrix(z_p, z_p, k)
        assert np.max(np.abs(est.evaluate(z_p) - K_H @ est.v)) < 1e-10

    def test_clip_negative(self):
        est = RatioEstimate(centers=np.zeros((1, 1)), v=np.array([-2.0]), kernel=KernelSpec(t=1.0), scale="plain")
        raw = est.evaluate(np.zeros((1, 1)))
        clipped = est.evaluate(np.zeros((1, 1)), clip_negative=True)
        assert raw[0] < 0 and clipped[0] == 0.0

    def test_linear_in_coefficients(self):
        z_p, _ = instance(20, n=10)
        k = KernelSpec(t=0.5)
        rng = np.random.default_rng(15)
        v1, v2 = rng.standard_normal(10), rng.standard_normal(10)
        X = rng.standard_normal((6, 2))
        e = lambda v: RatioEstimate(centers=z_p, v=v, kernel=k, scale="plain").evaluate(X)
        assert np.allclose(e(v1) + e(v2), e(v1 + v2), rtol=1e-12)

    def test_gram_bundle_normalization_consistency(self):
        z_p, z_q = instance(21, n=13, m=29)
        g = gram_bundle(z_p, z_q, KernelSpec(t=1.0), KernelSpec(t=2.0))
        assert np.allclose(13 * g.K_qp.T, 29 * g.K_pq, rtol=1e-14)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            RatioEstimate(centers=np.zeros((1, 1)), v=np.zeros(1), kernel=KernelSpec(t=1.0), scale="raw")

    @pytest.mark.parametrize("rows", [1, 63, 64, 129, 191, 255, 256, 640, 1378, 2000, 5000])
    @pytest.mark.parametrize("d", [1, 5])
    def test_row_blocks_equal_whole_gram_product(self, rows, d):
        # evaluate and LsifRatio.evaluate build k(X, centers) in row blocks;
        # each block's product is bitwise those rows of the whole one on one
        # BLAS thread, as every command runs (on two, OpenBLAS splits the
        # whole 1378-row dgemv across threads and moves a few last bits)
        rng = np.random.default_rng(rows + d)
        X = rng.standard_normal((rows, d))
        with linalg.blas_threads(1):
            for n in (1, 7, 300, 1378, 2000):
                centers, v = rng.standard_normal((n, d)) * 1.5, rng.standard_normal(n)
                k = KernelSpec(t=0.8, normalized=d == 1)
                product = gaussian_kernel_matrix(X, centers, k) @ v
                plain = RatioEstimate(centers=centers, v=v, kernel=k, scale="plain")
                assert np.array_equal(plain.evaluate(X), product)
                over_n = RatioEstimate(centers=centers, v=v, kernel=k, scale="over_n")
                assert np.array_equal(evaluate(over_n, X), product / n)
                assert np.array_equal(LsifRatio(centers=centers, alpha=v, kernel=k).evaluate(X), product)

    @pytest.mark.parametrize("name", ["evaluate", "kde"])
    def test_holds_a_quarter_of_the_gram(self, name):
        # 4000 points against 1500 centers in d = 5: the whole Gram is 48 MB
        rng = np.random.default_rng(23)
        X, centers = rng.standard_normal((4000, 5)), rng.standard_normal((1500, 5))
        k = KernelSpec(t=1.0)
        est = RatioEstimate(centers=centers, v=rng.standard_normal(1500), kernel=k, scale="over_n")
        call = {"evaluate": lambda: evaluate(est, X), "kde": lambda: kde(centers, X, k)}[name]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4000 * 1500 * 8 / 4


class TestSolverErrors:
    def test_bad_lambda(self):
        z_p, z_q = instance(22, n=4, m=4)
        k = KernelSpec(t=1.0)
        for lam in (0.0, -1e-3, np.nan):
            with pytest.raises(ValueError):
                solve_type1(z_p, z_q, k, k, lam)

    def test_bad_gamma(self):
        z_p, z_q = instance(23, n=4, m=4)
        k = KernelSpec(t=1.0)
        with pytest.raises(ValueError, match="gamma"):
            solve_combined(z_p, z_q, k, k, 1.5, 1e-3)
        with pytest.raises(ValueError, match="gamma"):
            solve_combined_path(z_p, z_q, k, -0.1, [1e-3])

    def test_q_values_shape_and_finiteness(self):
        z_p, _ = instance(24, n=5)
        k = KernelSpec(t=1.0)
        with pytest.raises(ValueError):
            solve_type2(z_p, np.ones(4), k, k, 1e-3)
        with pytest.raises(ValueError, match="non-finite"):
            solve_type2(z_p, np.full(5, np.nan), k, k, 1e-3)

    def test_singular_solve_raises(self):
        with pytest.raises(NumericalError, match="solve failed"):
            solve_linear(np.zeros((3, 3)), np.ones(3))

    def test_empty_lambda_path(self):
        z_p, z_q = instance(25, n=4, m=4)
        k = KernelSpec(t=1.0)
        for path in (
            lambda lams: solve_type1_path(z_p, z_q, k, lams),
            lambda lams: solve_combined_path(z_p, z_q, k, 0.5, lams),
            lambda lams: solve_rkhs_loss_path(z_p, z_q, k, lams),
        ):
            with pytest.raises(ValueError):
                path(np.array([]))
            with pytest.raises(ValueError):
                path(np.array([1e-3, 0.0]))


MIXTURE_1D = MixtureDensity(
    weights=(0.5, 0.5),
    components=(GaussianDensity(mean=(-2.0,), std=1.0), GaussianDensity(mean=(2.0,), std=0.5)),
)
NARROW_1D = GaussianDensity(mean=(0.0,), std=0.5)
STD_5D = np.array([3.0, 0.7, 0.7, 0.7, 0.7])  # the coordinate spreads of the shift-5d data


def dense_path(z_p, K_pp, target, k, lams):
    """The regularization path from the dense eigendecomposition of K_pp."""
    w, Q = eigh_descending(K_pp)
    c = Q.T @ target
    return [RatioEstimate(centers=z_p, v=Q @ (w / (w ** 3 + lam) * c), kernel=k, scale="over_n") for lam in lams]


def gap_to_dense(z_p, z_q, k, lams, probes):
    """Largest relative gap of solve_type1_path's values at probes to the dense-eigh path."""
    K_pp = gaussian_kernel_matrix(z_p, z_p, k) / z_p.shape[0]
    target = gaussian_kernel_matrix(z_p, z_q, k).sum(axis=1) / z_q.shape[0]
    gaps = []
    for est, ref in zip(solve_type1_path(z_p, z_q, k, lams), dense_path(z_p, K_pp, target, k, lams)):
        f, f_ref = est.evaluate(probes), ref.evaluate(probes)
        gaps.append(float(np.linalg.norm(f - f_ref) / np.linalg.norm(f_ref)))
    return max(gaps)


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Orders of the matrices solvers hands to eigh_descending, in call order."""
    sizes = []

    def spy(S):
        sizes.append(S.shape[0])
        return eigh_descending(S)

    monkeypatch.setattr(solvers, "eigh_descending", spy)
    return sizes


@pytest.fixture
def tridiagonal_sizes(monkeypatch):
    """Orders of the matrices solvers hands to tridiagonal_path, in call order."""
    sizes = []

    def spy(K, b, lams):
        sizes.append(K.shape[0])
        return tridiagonal_path(K, b, lams)

    monkeypatch.setattr(solvers, "tridiagonal_path", spy)
    return sizes


def assert_repeats_bitwise(z_p, z_q, k, lams):
    first, again = (solve_type1_path(z_p, z_q, k, lams) for _ in range(2))
    assert all(np.array_equal(a.v, b.v) for a, b in zip(first, again))


def grid_gap(z_p, z_q, t_grid, probes):
    return max(gap_to_dense(z_p, z_q, KernelSpec(t=float(t)), LAMBDA_GRID, probes) for t in t_grid)


class TestLowRankSpectrum:
    """The paths factor K_pp by pivoted Cholesky when it is numerically low rank."""

    def test_c06_cells_match_dense(self, eigh_sizes):
        z_p = simulate(MIXTURE_1D, 200, 12345)
        z_q = simulate(NARROW_1D, 400, 54321)
        probes = np.random.default_rng(42).uniform(-4, 4, size=(20, 1))
        assert grid_gap(z_p, z_q, bandwidth_grid(z_p)[1], probes) <= 1e-10
        assert len(eigh_sizes) == 10 and min(eigh_sizes) < 200

    @pytest.mark.parametrize("n", [300, 1000])
    def test_1d_grid_matches_dense(self, n, eigh_sizes):
        z_p = simulate(MIXTURE_1D, n, 7)
        z_q = simulate(NARROW_1D, n, 8)
        assert grid_gap(z_p, z_q, bandwidth_grid(z_p)[1], np.linspace(-5.0, 4.0, 40)[:, None]) <= 1e-10
        assert sum(size < n for size in eigh_sizes) >= 7

    def test_2d_engaged_matches_dense(self, eigh_sizes):
        z_p, z_q = instance(31, n=300, m=300)
        probes = np.random.default_rng(9).standard_normal((30, 2))
        assert grid_gap(z_p, z_q, bandwidth_grid(z_p)[1][-4:], probes) <= 1e-10
        assert any(size < 300 for size in eigh_sizes)

    @pytest.mark.parametrize("n", [240, 320, 1000])
    def test_5d_full_rank_takes_tridiagonal_route(self, n, eigh_sizes, tridiagonal_sizes):
        rng = np.random.default_rng(12)
        z_p = rng.standard_normal((n, 5)) * STD_5D
        z_q = rng.standard_normal((300, 5))
        probes = rng.standard_normal((30, 5)) * STD_5D
        t_grid = bandwidth_grid(z_p)[1]
        if n == 1000:  # three give-up bandwidths keep it quick; the factor engages at the largest
            t_grid = t_grid[:9:4]
        for t in t_grid:
            k = KernelSpec(t=float(t), normalized=False)
            assert gap_to_dense(z_p, z_q, k, LAMBDA_GRID, probes) <= 1e-10
        assert_repeats_bitwise(z_p, z_q, KernelSpec(t=float(t_grid[0]), normalized=False), LAMBDA_GRID)
        assert eigh_sizes == [] and tridiagonal_sizes == [n] * (t_grid.size + 2)

    def test_without_lapacke_give_up_is_dense_bitwise(self, monkeypatch, eigh_sizes, tridiagonal_sizes):
        monkeypatch.setattr(linalg, "_lapacke", lambda: None)
        rng = np.random.default_rng(12)
        z_p = rng.standard_normal((240, 5)) * STD_5D
        z_q = rng.standard_normal((300, 5))
        for t in bandwidth_grid(z_p)[1]:
            k = KernelSpec(t=float(t), normalized=False)
            path = solve_type1_path(z_p, z_q, k, LAMBDA_GRID)
            K_pp = gaussian_kernel_matrix(z_p, z_p, k) / 240
            target = gaussian_kernel_matrix(z_p, z_q, k).sum(axis=1) / 300
            for est, ref in zip(path, dense_path(z_p, K_pp, target, k, LAMBDA_GRID)):
                assert np.array_equal(est.v, ref.v)
        assert eigh_sizes == [240] * 10 and tridiagonal_sizes == [240] * 10

    def test_indefinite_shift_raises(self, monkeypatch, tridiagonal_sizes):
        # duplicated points give K_pp exact zero eigenvalues; at t = 0.01,
        # lam = 1e-20 lies far below eps * w_max^3 ~ 5e-16, so the rounding
        # of T^3 leaves T^3 + lam I indefinite
        monkeypatch.setattr(solvers, "pivoted_cholesky", lambda K, tol, cap: None)
        z_p = np.repeat(np.array([[-1.0], [0.3], [2.0]]), 10, axis=0)
        z_q = np.linspace(-2.0, 2.0, 20)[:, None]
        lams = [1e-3, 1e-20]  # two lambdas: one would take the direct solve
        with pytest.raises(NumericalError, match="not positive definite in path at lam=1e-20"):
            solve_type1_path(z_p, z_q, KernelSpec(t=0.01), lams)
        vs = make_validation_set("linear", d=1, count=4, seed=0)
        res = kfold_cv(z_p, z_q, fit_factory("type1"), [0.01, 100.0], lams, vs, folds=3, seed=0)
        assert np.isinf(res.fold_scores[0]).all() and np.isfinite(res.fold_scores[1]).all()
        assert res.selected_t == 100.0
        assert tridiagonal_sizes == [30] + [20] * 6
        # at one lambda the path is the direct solve: two Cholesky solves of
        # the factored system, which stay positive definite, and no reduction
        solves = []

        def spy(A, b, context="", positive_definite=False, **kwargs):
            solves.append(positive_definite)
            return solve_linear(A, b, context, positive_definite=positive_definite, **kwargs)

        monkeypatch.setattr(solvers, "solve_linear", spy)
        tridiagonal_sizes.clear()
        (est,) = solve_type1_path(z_p, z_q, KernelSpec(t=0.01), [1e-20])
        assert solves == [True, True] and tridiagonal_sizes == []
        assert np.all(np.isfinite(est.v))

    def test_duplicated_points_are_rank_deficient(self, eigh_sizes):
        z_p = np.repeat(np.array([[-1.0], [0.3], [2.0]]), 4, axis=0)
        z_q = simulate(NARROW_1D, 20, 3)
        probes = np.linspace(-2.0, 3.0, 11)[:, None]
        assert gap_to_dense(z_p, z_q, KernelSpec(t=0.5), np.array([1e-3, 1e-6]), probes) <= 1e-10
        assert eigh_sizes == [3]

    def test_residual_rounding_below_zero_stops(self):
        # x / sqrt(x) squared rounds above x, so one pivot leaves a negative residual
        x = next(x for x in np.linspace(0.1, 1.0, 1000) if (x / np.sqrt(x)) ** 2 > x)
        K = np.full((4, 4), x)
        L = pivoted_cholesky(K, 1e-14, 4)
        assert L.shape == (1, 4)
        assert np.allclose(L.T @ L, K, rtol=1e-15, atol=0)

    def test_single_point(self, eigh_sizes, tridiagonal_sizes):
        # the cap n // 3 is 0, so the factor gives up at once
        z_p, z_q = np.array([[0.4]]), np.array([[0.1], [0.9]])
        k = KernelSpec(t=0.3)
        lams = np.array([1e-2, 1e-5])
        assert gap_to_dense(z_p, z_q, k, lams, np.array([[0.4], [1.0]])) <= 1e-10
        assert_repeats_bitwise(z_p, z_q, k, lams)
        assert eigh_sizes == [] and tridiagonal_sizes == [1] * 3
        assert pivoted_cholesky(np.array([[4.0]]), 1e-14, 1).tolist() == [[2.0]]

    @pytest.mark.parametrize("copies,order", [(3, 3), (2, 6)])
    def test_rank_exactly_at_cap(self, copies, order, eigh_sizes, tridiagonal_sizes):
        # three distinct points give rank 3; the cap n // 3 is 3 for n = 9 and
        # 2 for n = 6, where the factor gives up and the path reduces K_pp
        z_p = np.repeat(np.array([[-1.0], [0.5], [1.5]]), copies, axis=0)
        z_q = simulate(NARROW_1D, 10, 4)
        probes = np.linspace(-2.0, 2.0, 9)[:, None]
        k = KernelSpec(t=0.4)
        lams = np.array([1e-4, 1e-6])  # two lambdas: one would take the direct solve
        assert gap_to_dense(z_p, z_q, k, lams, probes) <= 1e-10
        assert_repeats_bitwise(z_p, z_q, k, lams)
        routed = (eigh_sizes, tridiagonal_sizes) if order < z_p.shape[0] else (tridiagonal_sizes, eigh_sizes)
        assert routed == ([order] * 3, [])

    def test_huge_bandwidth_is_rank_one(self, eigh_sizes):
        z_p, z_q = instance(32, n=30, m=20)
        probes = np.random.default_rng(10).standard_normal((5, 2))
        k = KernelSpec(t=1e20, normalized=False)
        assert gap_to_dense(z_p, z_q, k, np.array([1e-3, 1e-8]), probes) <= 1e-10
        assert eigh_sizes == [1]
