import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firedre.baselines as baselines
from firedre.baselines import (
    GaussianDensity,
    MixtureDensity,
    UniformDensity,
    lsif_unconstrained,
    tikde,
    tikde_epsilon_grid,
    true_ratio,
)
from firedre.kernels import KernelSpec, _sq_dists, bandwidth_grid, gaussian_kernel_matrix, kde
from firedre.linalg import NumericalError


def dataset1():
    p = MixtureDensity(
        weights=(0.5, 0.5),
        components=(GaussianDensity(mean=(-2.0,), std=1.0), GaussianDensity(mean=(2.0,), std=0.5)),
    )
    q = GaussianDensity(mean=(0.0,), std=0.5)
    return p, q


class TestDensityValues:
    def test_gaussian_pdf_hand_values(self):
        g = GaussianDensity(mean=(0.0,), std=1.0)
        x = np.array([[0.0], [1.0]])
        ref = np.exp(-x[:, 0] ** 2 / 2) / np.sqrt(2 * np.pi)
        assert np.allclose(g.pdf(x), ref, rtol=1e-14)

    def test_gaussian_pdf_multivariate(self):
        g = GaussianDensity(mean=(1.0, -1.0), std=2.0)
        x = np.array([[1.0, -1.0], [3.0, 1.0]])
        ref = [(2 * np.pi * 4) ** -1, (2 * np.pi * 4) ** -1 * np.exp(-1.0)]
        assert np.allclose(g.pdf(x), ref, rtol=1e-14)

    def test_bimodal_ratio_at_origin(self):
        # q(0)/p(0) for the bimodal-vs-narrow pair, recomputed from scratch
        p, q = dataset1()
        x = np.zeros((1, 1))
        phi = lambda z, s: np.exp(-z ** 2 / (2 * s ** 2)) / (s * np.sqrt(2 * np.pi))
        p0 = 0.5 * phi(2.0, 1.0) + 0.5 * phi(2.0, 0.5)
        q0 = phi(0.0, 0.5)
        assert abs(p.pdf(x)[0] - p0) < 1e-15
        assert abs(q.pdf(x)[0] - q0) < 1e-15
        ratio = true_ratio(p, q)
        assert abs(ratio.evaluate(x)[0] - q0 / p0) < 1e-12
        assert 29.0 < q0 / p0 < 30.0

    def test_uniform_pdf(self):
        u = UniformDensity(low=(0.0, -1.0), high=(2.0, 1.0))
        x = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, -1.0]])
        vals = u.pdf(x)
        assert vals[0] == 0.25
        assert vals[1] == 0.0
        assert vals[2] == 0.25  # boundary included

    @pytest.mark.parametrize(
        "density",
        [
            GaussianDensity(mean=(0.3,), std=0.7),
            UniformDensity(low=(-1.0,), high=(2.0,)),
            MixtureDensity(
                weights=(0.3, 0.7),
                components=(GaussianDensity(mean=(-1.0,), std=0.5), GaussianDensity(mean=(1.5,), std=1.2)),
            ),
        ],
    )
    def test_pdf_integrates_to_one(self, density):
        xs = np.linspace(-10, 10, 200001)
        mass = np.trapezoid(density.pdf(xs[:, None]), xs)
        # trapezoid carries O(spacing) error at the box discontinuities
        tol = 1e-4 if isinstance(density, UniformDensity) else 1e-6
        assert abs(mass - 1.0) < tol

    def test_mixture_validation(self):
        g = GaussianDensity(mean=(0.0,), std=1.0)
        with pytest.raises(ValueError):
            MixtureDensity(weights=(0.5, 0.4), components=(g, g))
        with pytest.raises(ValueError):
            MixtureDensity(weights=(1.0,), components=(g, GaussianDensity(mean=(0.0, 0.0), std=1.0)))
        with pytest.raises(ValueError):
            GaussianDensity(mean=(0.0,), std=0.0)
        with pytest.raises(ValueError):
            UniformDensity(low=(1.0,), high=(0.0,))


class TestSampling:
    def test_gaussian_sample_moments(self):
        g = GaussianDensity(mean=(2.0, -1.0), std=0.5)
        X = g.sample(200000, np.random.default_rng(0))
        assert X.shape == (200000, 2)
        assert np.allclose(X.mean(axis=0), [2.0, -1.0], atol=0.01)
        assert np.allclose(X.std(axis=0), 0.5, atol=0.01)

    def test_mixture_sample_component_fractions(self):
        p, _ = dataset1()
        X = p.sample(100000, np.random.default_rng(1))
        frac_left = np.mean(X[:, 0] < 0)
        # P(X<0) = 0.5 P(N(-2,1)<0) + 0.5 P(N(2,0.25)<0) = 0.48864...
        from math import erf, sqrt

        expected = 0.5 * 0.5 * (1 + erf(2 / sqrt(2))) + 0.5 * 0.5 * (1 + erf(-4 / sqrt(2)))
        assert abs(frac_left - expected) < 0.005

    def test_uniform_sample_bounds(self):
        u = UniformDensity(low=(-1.0, 0.0), high=(1.0, 3.0))
        X = u.sample(5000, np.random.default_rng(2))
        assert X.min(axis=0)[0] >= -1.0 and X.max(axis=0)[1] <= 3.0
        assert abs(X[:, 1].mean() - 1.5) < 0.05

    def test_sampling_deterministic_in_seed(self):
        p, _ = dataset1()
        a = p.sample(100, np.random.default_rng(7))
        b = p.sample(100, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestTikde:
    def test_matches_brute_force_kde_quotient(self):
        rng = np.random.default_rng(3)
        z_p = rng.standard_normal((30, 2))
        z_q = rng.standard_normal((40, 2)) + 0.2
        t, eps = 0.8, 0.05
        r = tikde(z_p, z_q, t, eps)
        X = rng.standard_normal((11, 2))
        spec = KernelSpec(t=t)
        p_hat = kde(z_p, X, spec)
        q_hat = kde(z_q, X, spec)
        ref = q_hat / np.maximum(p_hat, eps)
        assert np.allclose(r.evaluate(X), ref, rtol=1e-12)

    def test_threshold_engages_in_tails(self):
        rng = np.random.default_rng(4)
        z_p = rng.standard_normal((50, 1))
        z_q = rng.standard_normal((50, 1))
        far = np.array([[60.0]])
        eps = 1e-3
        r = tikde(z_p, z_q, t=1.0, epsilon=eps)
        # p-hat underflows to 0 there, so the floor takes over: q-hat / eps
        q_far = kde(z_q, far, KernelSpec(t=1.0))
        assert np.allclose(r.evaluate(far), q_far / eps, rtol=1e-12)

    def test_epsilon_grid_values(self):
        rng = np.random.default_rng(5)
        z_p = rng.standard_normal((25, 1))
        grid = tikde_epsilon_grid(z_p, t=0.5)
        peak = kde(z_p, z_p, KernelSpec(t=0.5)).max()
        assert np.allclose(grid, peak * 10.0 ** -np.arange(1, 7), rtol=1e-12)
        assert np.all(np.diff(grid) < 0)

    def test_bad_epsilon(self):
        z = np.zeros((3, 1))
        with pytest.raises(ValueError):
            tikde(z, z, t=1.0, epsilon=0.0)


class TestLsif:
    def test_two_basis_hand_instance(self):
        # n=3, m=2 instance solved against directly assembled normal equations
        z_p = np.array([[0.0], [1.0], [2.0]])
        z_q = np.array([[0.5], [1.5]])
        t, lam = 1.0, 1e-2
        spec = KernelSpec(t=t)
        Phi = gaussian_kernel_matrix(z_q, z_p, spec)  # (m, n): basis l at p-point i
        H = Phi @ Phi.T / 3
        h = gaussian_kernel_matrix(z_q, z_q, spec).mean(axis=1)
        alpha = np.linalg.solve(H + lam * np.eye(2), h)
        r = lsif_unconstrained(z_p, z_q, t=t, lam=lam)
        assert np.allclose(r.v, alpha, rtol=1e-10)
        X = np.array([[0.3], [1.8]])
        ref = gaussian_kernel_matrix(X, z_q, spec) @ alpha
        assert np.allclose(r.evaluate(X), ref, rtol=1e-10)

    def test_identity_ratio_near_one(self):
        rng = np.random.default_rng(6)
        z_p = rng.standard_normal((400, 1))
        z_q = rng.standard_normal((400, 1))
        r = lsif_unconstrained(z_p, z_q, t=0.5, lam=1e-3)
        held_out = rng.standard_normal((400, 1))
        m = r.evaluate(held_out).mean()
        assert 0.7 < m < 1.3

    def test_lambda_sequence_matches_single_fits_bitwise(self):
        rng = np.random.default_rng(8)
        z_p = rng.standard_normal((50, 1))
        z_q = rng.standard_normal((40, 1)) * 0.5
        lams = np.array([1e-2, 1e-4, 1e-6])
        path = lsif_unconstrained(z_p, z_q, t=0.3, lam=lams)
        assert len(path) == 3
        for lam, est in zip(lams, path):
            single = lsif_unconstrained(z_p, z_q, t=0.3, lam=float(lam))
            assert np.array_equal(est.v, single.v)
            assert est.kernel == single.kernel

    def test_lambda_sequence_marks_failed_solve_none(self, monkeypatch):
        z = np.random.default_rng(9).standard_normal((12, 1))
        solve = baselines.solve_linear
        second_fails = iter([False, True, False])

        def flaky(A, b, context=""):
            if next(second_fails):
                raise NumericalError("synthetic failure")
            return solve(A, b, context)

        monkeypatch.setattr(baselines, "solve_linear", flaky)
        path = lsif_unconstrained(z, z, t=1.0, lam=[1e-2, 1e-3, 1e-4])
        assert path[0] is not None and path[1] is None and path[2] is not None

        def fails(A, b, context=""):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(baselines, "solve_linear", fails)
        with pytest.raises(NumericalError, match="synthetic"):  # a single lam raises
            lsif_unconstrained(z, z, t=1.0, lam=1e-3)

    def test_validation(self):
        z = np.zeros((3, 1))
        with pytest.raises(ValueError):
            lsif_unconstrained(z, z, t=1.0, lam=0.0)
        with pytest.raises(ValueError):
            lsif_unconstrained(z, z, t=1.0, lam=[1e-3, -1.0])
        with pytest.raises(ValueError):
            lsif_unconstrained(z, np.zeros((0, 1)), t=1.0, lam=1e-3)


def dense_lsif_alphas(z_p, z_q, t, lams):
    """alpha of (H + lam I) alpha = h per lam, each by one dense LU, as LSIF solves it without a low-rank factor."""
    k = KernelSpec(t=float(t))
    Phi = gaussian_kernel_matrix(z_q, z_p, k)
    H = (Phi @ Phi.T) / z_p.shape[0]
    h = gaussian_kernel_matrix(z_q, z_q, k).mean(axis=1)
    return [np.linalg.solve(H + lam * np.eye(z_q.shape[0]), h) for lam in lams]


SIM_LAMS = 10.0 ** -np.arange(5, 11)  # the default lambda grid, 1e-5 ... 1e-10


@pytest.fixture(scope="module")
def sim_1d():
    """Dataset 1 at simulate-1d's sizes: n = m = 300 and 2000 evaluation points from q."""
    p, q = dataset1()
    rng = np.random.default_rng(0)
    return p.sample(300, rng), q.sample(300, rng), q.sample(2000, rng)


class TestLsifLowRank:
    def test_matches_dense_oracle_on_simulate_grid(self, sim_1d):
        z_p, z_q, X = sim_1d
        for t in bandwidth_grid(z_p)[1]:
            fits = lsif_unconstrained(z_p, z_q, t, SIM_LAMS)
            G = gaussian_kernel_matrix(X, z_q, KernelSpec(t=float(t)))
            for lam, est, alpha in zip(SIM_LAMS, fits, dense_lsif_alphas(z_p, z_q, t, SIM_LAMS)):
                ref = G @ alpha
                err = np.linalg.norm(G @ est.v - ref) / np.linalg.norm(ref)
                assert err < 1e-7, (t, lam, err)

    def test_one_d_grid_makes_no_m_by_m_solve(self, sim_1d, monkeypatch):
        z_p, z_q, _ = sim_1d
        orders = []
        solve = baselines.solve_linear

        def spy(A, b, context=""):
            orders.append(A.shape[0])
            return solve(A, b, context)

        monkeypatch.setattr(baselines, "solve_linear", spy)
        for t in bandwidth_grid(z_p)[1]:
            assert all(est is not None for est in lsif_unconstrained(z_p, z_q, t, SIM_LAMS))
        assert len(orders) >= 10 * SIM_LAMS.size
        assert max(orders) <= 300 // 3

    def test_factor_gives_up_in_d5_and_alpha_is_bitwise_dense(self, monkeypatch):
        rng = np.random.default_rng(11)
        z_p = rng.standard_normal((300, 5))
        z_q = rng.standard_normal((300, 5)) * 0.8
        factors = []
        factor = baselines.pivoted_cholesky

        def spy(K, tol, cap):
            factors.append(factor(K, tol, cap))
            return factors[-1]

        monkeypatch.setattr(baselines, "pivoted_cholesky", spy)
        fits = lsif_unconstrained(z_p, z_q, 1.0, SIM_LAMS)
        assert factors == [None]
        for est, alpha in zip(fits, dense_lsif_alphas(z_p, z_q, 1.0, SIM_LAMS)):
            assert np.array_equal(est.v, alpha)

    def test_refinement_failure_sends_only_that_lam_to_dense_solve(self, sim_1d, monkeypatch):
        z_p, z_q, _ = sim_1d
        t = 0.5
        low_rank = baselines._low_rank_solve
        failing = SIM_LAMS[3]

        def spy(H, h, L, core, norms, lam):
            return None if lam == failing else low_rank(H, h, L, core, norms, lam)

        dense = []
        solve = baselines.solve_linear

        def spy_solve(A, b, context=""):
            if A.shape[0] == z_q.shape[0]:
                dense.append(A.shape)
            return solve(A, b, context)

        monkeypatch.setattr(baselines, "_low_rank_solve", spy)
        monkeypatch.setattr(baselines, "solve_linear", spy_solve)
        fits = lsif_unconstrained(z_p, z_q, t, SIM_LAMS)
        assert len(dense) == 1
        for lam, est, alpha in zip(SIM_LAMS, fits, dense_lsif_alphas(z_p, z_q, t, SIM_LAMS)):
            assert np.array_equal(est.v, alpha) == (lam == failing)

    def test_core_solve_failure_falls_back_to_dense(self, sim_1d, monkeypatch):
        z_p, z_q, _ = sim_1d
        solve = baselines.solve_linear

        def small_fails(A, b, context=""):
            if A.shape[0] < z_q.shape[0]:
                raise NumericalError("synthetic failure")
            return solve(A, b, context)

        monkeypatch.setattr(baselines, "solve_linear", small_fails)
        fits = lsif_unconstrained(z_p, z_q, 0.5, SIM_LAMS)
        for est, alpha in zip(fits, dense_lsif_alphas(z_p, z_q, 0.5, SIM_LAMS)):
            assert np.array_equal(est.v, alpha)

    def test_empty_lam_grid_rejected_before_any_gram(self, monkeypatch):
        z = np.zeros((3, 1))

        def no_gram(*args, **kwargs):
            raise AssertionError("Gram built for an empty lambda grid")

        monkeypatch.setattr(baselines, "gaussian_kernel_matrix", no_gram)
        with pytest.raises(ValueError, match="non-empty"):
            lsif_unconstrained(z, z, t=1.0, lam=[])
        with pytest.raises(ValueError, match="non-empty"):
            lsif_unconstrained(z, z, t=1.0, lam=np.array([[1e-3]]))


class TestSharedDistances:
    """The squared distances a simulate trial computes once give every baseline fit the same bits."""

    def test_lsif_from_distances_is_bitwise(self, sim_1d):
        z_p, z_q, _ = sim_1d
        small_q = z_q[:40]  # m // 3 = 13: the factor gives up and every lam takes the dense solve
        for q in (z_q, small_q):
            sq_qp = _sq_dists(z_p, q).T
            sq_qq = _sq_dists(q, q)
            for t in bandwidth_grid(z_p)[1][::3]:
                plain = lsif_unconstrained(z_p, q, t, SIM_LAMS)
                shared = lsif_unconstrained(z_p, q, t, SIM_LAMS, sq_qp=sq_qp, sq_qq=sq_qq)
                for a, b in zip(plain, shared):
                    assert (a is None) == (b is None)
                    assert a is None or (np.array_equal(a.v, b.v) and a.kernel == b.kernel)

    def test_tikde_grid_from_distances_is_bitwise(self, sim_1d):
        z_p = sim_1d[0]
        sq_pp = _sq_dists(z_p, z_p)
        for t in bandwidth_grid(z_p)[1]:
            assert np.array_equal(tikde_epsilon_grid(z_p, t, sq_pp=sq_pp), tikde_epsilon_grid(z_p, t))
            # the row-blocked p-density is the whole Gram's row means
            p_hat = gaussian_kernel_matrix(z_p, z_p, KernelSpec(t=float(t))).mean(axis=1)
            assert np.array_equal(tikde_epsilon_grid(z_p, t), float(p_hat.max()) * 10.0 ** -np.arange(1, 7.0))


class TestTrueRatio:
    def test_identity_pair_is_one(self):
        g = GaussianDensity(mean=(0.0,), std=1.0)
        r = true_ratio(g, g)
        X = np.linspace(-3, 3, 7)[:, None]
        assert np.allclose(r.evaluate(X), 1.0, rtol=1e-14)

    @given(st.floats(-2.5, 2.5), st.floats(0.3, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_gaussian_pair_log_linear_exponent(self, mu, std):
        # ratio of two Gaussians has a quadratic log, checked pointwise
        p = GaussianDensity(mean=(0.0,), std=1.0)
        q = GaussianDensity(mean=(mu,), std=std)
        r = true_ratio(p, q)
        x = np.array([[0.7]])
        expected = q.pdf(x)[0] / p.pdf(x)[0]
        assert np.isclose(r.evaluate(x)[0], expected, rtol=1e-12)

    def test_zero_denominator_errors(self):
        p = UniformDensity(low=(0.0,), high=(1.0,))
        q = GaussianDensity(mean=(0.0,), std=1.0)
        r = true_ratio(p, q)
        with pytest.raises(ValueError, match="undefined"):
            r.evaluate(np.array([[2.0]]))

    def test_dim_mismatch(self):
        p = GaussianDensity(mean=(0.0,), std=1.0)
        q = GaussianDensity(mean=(0.0, 0.0), std=1.0)
        with pytest.raises(ValueError):
            true_ratio(p, q)
