"""End-to-end acceptance suite.

Ten behavioral checks, one test per criterion, covering: closed-form solver
correctness against an iterative oracle, statistical quality of CV-selected
estimates, benchmark orderings on analytic tasks, scaling of the validation
score, regularization-path and spectral-cutoff equivalences, downstream
covariate-shift gains, the two-kernel reduction, and CLI determinism.

Each test prints a single ``[cNN] PASS/FAIL`` summary line (bypassing
capture) before asserting, so a full run yields one status line per
criterion.
"""

import json
import pathlib
import re
import time

import numpy as np

from firedre.baselines import GaussianDensity, MixtureDensity, true_ratio
from firedre.cli import main, run_bench
from firedre.config import BenchConfig
from firedre.data import pca_resample, simulate
from firedre.downstream import eval_metrics, weighted_ols
from firedre.kernels import KernelSpec, bandwidth_grid, gaussian_kernel_matrix
from firedre.selection import (
    LAMBDA_GRID,
    fit_factory,
    j_score,
    kfold_cv,
    make_validation_set,
)
from firedre.solvers import (
    solve_combined,
    solve_rkhs_loss,
    solve_spectral,
    solve_type1,
    solve_type1_path,
    solve_type15,
    solve_type2,
)

DATASET1_P = MixtureDensity(
    weights=(0.5, 0.5),
    components=(GaussianDensity(mean=(-2.0,), std=1.0), GaussianDensity(mean=(2.0,), std=0.5)),
)
DATASET1_Q = GaussianDensity(mean=(0.0,), std=0.5)


def _report(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} — {detail}")


# === c01: closed forms match a projected-gradient oracle ===


def _objective_quadratic(setting, z_p, z_q, k, k_h, lam, gamma=None, k_prime=None, q_vals=None):
    """Independent (H, b, c) of the empirical objective J(v) = v'Hv - 2b'v + c."""
    n, m = z_p.shape[0], z_q.shape[0]
    K_pp = gaussian_kernel_matrix(z_p, z_p, k) / n
    K_H = gaussian_kernel_matrix(z_p, z_p, k_h)
    if setting in ("type1", "type15", "type2"):
        if setting == "type2":
            target = q_vals
        else:
            kk = k if setting == "type1" else k_prime
            target = gaussian_kernel_matrix(z_p, z_q, kk).sum(axis=1) / m
        H = K_H @ K_pp @ K_pp @ K_H / n + lam * K_H
        b = K_H @ K_pp @ target / n
        c = target @ target / n
    elif setting == "combined":
        K_pq = gaussian_kernel_matrix(z_p, z_q, k) / m
        K_qp = gaussian_kernel_matrix(z_q, z_p, k) / n
        K_qq = gaussian_kernel_matrix(z_q, z_q, k) / m
        bp = K_pq.sum(axis=1)
        bq = K_qq.sum(axis=1)
        A_q = K_qp @ K_H
        H = gamma / n * K_H @ K_pp @ K_pp @ K_H + (1 - gamma) / m * A_q.T @ A_q + lam * K_H
        b = gamma / n * K_H @ K_pp @ bp + (1 - gamma) / m * A_q.T @ bq
        c = gamma / n * bp @ bp + (1 - gamma) / m * bq @ bq
    else:  # rkhs_loss
        K_pq = gaussian_kernel_matrix(z_p, z_q, k) / m
        K_qq = gaussian_kernel_matrix(z_q, z_q, k) / m
        H = K_H @ K_pp @ K_H / n + lam * K_H
        b = K_H @ K_pq.sum(axis=1) / n
        c = K_qq.sum() / m
    return H, b, c, K_H


def _projected_gradient(H, b, K_H, steps=500):
    """Exact-line-search gradient descent restricted to range(K_H)."""
    w, U = np.linalg.eigh(K_H)
    keep = w > 1e-12 * max(w.max(), 1e-300)
    P = U[:, keep] @ U[:, keep].T
    v = np.zeros(b.shape[0])
    for _ in range(steps):
        g = P @ (2.0 * (H @ v - b))
        gHg = g @ H @ g
        if gHg <= 0 or not np.isfinite(gHg):
            break
        step = g @ (H @ v - b) / gHg
        v = v - step * g
    return v, P


def test_c01_closed_forms_match_iterative_oracle(capsys):
    rng = np.random.default_rng(20250825)
    settings = [
        ("type1", None), ("combined", 0.0), ("combined", 0.5), ("combined", 1.0),
        ("rkhs_loss", None), ("type2", None), ("type15", None),
    ]
    t0 = time.perf_counter()
    gap_max = stat_max = 0.0
    for setting, gamma in settings:
        for _ in range(50):
            n = int(rng.integers(3, 13))
            m = int(rng.integers(3, 13))
            d = int(rng.integers(1, 4))
            z_p = rng.standard_normal((n, d))
            z_q = rng.standard_normal((m, d)) * 0.8 + 0.2
            lam = 10.0 ** rng.uniform(-1, 0)
            t = rng.uniform(0.4, 1.5)
            k = KernelSpec(t=t)
            k_h = KernelSpec(t=rng.uniform(0.4, 1.5))
            k_prime = KernelSpec(t=2.0 * t)
            q_vals = np.exp(-0.5 * (z_p ** 2).sum(axis=1)) if setting == "type2" else None
            if setting == "rkhs_loss":
                k_h = k  # this solver keeps the hypothesis space in the loss kernel's RKHS
            H, b, c, K_H = _objective_quadratic(setting, z_p, z_q, k, k_h, lam, gamma, k_prime, q_vals)
            if setting == "type1":
                est = solve_type1(z_p, z_q, k, k_h, lam)
            elif setting == "combined":
                est = solve_combined(z_p, z_q, k, k_h, gamma, lam)
            elif setting == "rkhs_loss":
                est = solve_rkhs_loss(z_p, z_q, k, lam)
            elif setting == "type2":
                est = solve_type2(z_p, q_vals, k, k_h, lam)
            else:
                est = solve_type15(z_p, z_q, k, k_prime, k_h, lam)
            objective = lambda v: v @ H @ v - 2 * b @ v + c
            v_gd, P = _projected_gradient(H, b, K_H)
            gap_max = max(gap_max, abs(objective(est.v) - objective(v_gd)))
            stat_max = max(stat_max, float(np.linalg.norm(P @ (2 * (H @ est.v - b)))))
    elapsed = time.perf_counter() - t0
    ok = gap_max <= 1e-8 and stat_max <= 1e-8 and elapsed < 10.0
    _report(capsys, "c01", ok,
            f"350 instances: max objective gap {gap_max:.2e}, max stationarity residual "
            f"{stat_max:.2e} (tol 1e-8 each), {elapsed:.1f}s (< 10s)")
    assert gap_max <= 1e-8
    assert stat_max <= 1e-8
    assert elapsed < 10.0


# === c02: identity ratio recovered under CV selection ===


def test_c02_identity_ratio_recovered_with_cv_selection(capsys):
    t0 = time.perf_counter()
    passes = 0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        z_p = rng.standard_normal((2000, 1))
        z_q = rng.standard_normal((2000, 1))
        fresh = rng.standard_normal((2000, 1))
        sub_p = z_p[rng.permutation(2000)[:500]]
        sub_q = z_q[rng.permutation(2000)[:500]]
        t_grid = bandwidth_grid(sub_p)[1]
        validation = make_validation_set("linear", d=1, count=50, seed=trial)
        cv = kfold_cv(sub_p, sub_q, fit_factory("type1"), t_grid, LAMBDA_GRID, validation,
                      folds=5, seed=trial)
        k = KernelSpec(t=cv.selected_t)
        f = solve_type1(z_p, z_q, k, k, cv.selected_lam).evaluate(fresh)
        mean = float(f.mean())
        l2 = float(np.sqrt(np.mean((f - 1.0) ** 2)))
        passes += 0.8 <= mean <= 1.2 and l2 <= 0.25
    elapsed = time.perf_counter() - t0
    ok = passes >= 18 and elapsed < 120.0
    _report(capsys, "c02", ok,
            f"mean in [0.8, 1.2] and L2 error <= 0.25 in {passes}/20 trials "
            f"(need >= 18), {elapsed:.1f}s (< 120s)")
    assert passes >= 18
    assert elapsed < 120.0


# === c03 / c04: simulated benchmark orderings ===


def _dataset1_bench_config(n_grid, methods):
    return BenchConfig.from_dict({
        "seed": 11,
        "p_density": {"kind": "mixture", "weights": [0.5, 0.5], "components": [
            {"kind": "gaussian", "mean": [-2.0], "std": 1.0},
            {"kind": "gaussian", "mean": [2.0], "std": 0.5}]},
        "q_density": {"kind": "gaussian", "mean": [0.0], "std": 0.5},
        "n_grid": n_grid, "m": 2000, "repetitions": 20,
        "methods": methods, "eval_n": 2000,
        "solver": {"setting": "type15", "t_prime_ratio": 2.0},
    })


def test_c03_bench_beats_kde_ratio_on_bimodal_task(capsys, tmp_path):
    t0 = time.perf_counter()
    payload = run_bench(_dataset1_bench_config([500], ["fire", "tikde"]), str(tmp_path), threads=2)
    elapsed = time.perf_counter() - t0
    fire = payload["medians"]["fire"]["500"]
    tikde = payload["medians"]["tikde"]["500"]
    ok = fire <= tikde and elapsed < 180.0
    _report(capsys, "c03", ok,
            f"median oracle-selected error over 20 trials: fire {fire:.3f} <= tikde {tikde:.3f}, "
            f"{elapsed:.1f}s (< 180s)")
    assert fire <= tikde
    assert elapsed < 180.0


def test_c04_bench_error_decreases_with_sample_size(capsys, tmp_path):
    payload = run_bench(_dataset1_bench_config([50, 200, 1000], ["fire"]), str(tmp_path), threads=4)
    meds = [payload["medians"]["fire"][str(n)] for n in (50, 200, 1000)]
    ok = meds[0] > meds[1] > meds[2]
    _report(capsys, "c04", ok,
            f"median error strictly decreasing over n: {meds[0]:.3f} > {meds[1]:.3f} > {meds[2]:.3f}")
    assert meds[0] > meds[1] > meds[2]


# === c05: validation score of the true ratio shrinks like 1/n ===


def test_c05_j_score_of_true_ratio_shrinks_with_n(capsys):
    p = GaussianDensity(mean=(0.0,) * 5, std=1.0)
    q = GaussianDensity(mean=(0.5, 0.3, 0.0, -0.2, 0.1), std=0.9)
    oracle = true_ratio(p, q)
    js = {1000: [], 4000: []}
    for s in range(20):
        z_p4 = simulate(p, 4000, 1000 + 7 * s)
        z_q4 = simulate(q, 4000, 2000 + 11 * s)
        validation = make_validation_set("linear", d=5, count=20, seed=300 + s)
        for nm in (1000, 4000):
            z_p, z_q = z_p4[:nm], z_q4[:nm]
            f = oracle.evaluate(z_p)
            js[nm].append(j_score(f, validation.evaluate(z_p), validation.evaluate(z_q)))
    med_small, med_big = np.median(js[1000]), np.median(js[4000])
    ratio = med_big / med_small
    ok = ratio <= 0.5
    _report(capsys, "c05", ok,
            f"median J at (4000,4000) / median J at (1000,1000) = {med_big:.2e}/{med_small:.2e} "
            f"= {ratio:.3f} (need <= 0.5)")
    assert ratio <= 0.5


# === c06: eigendecomposition path equals per-lambda direct solves ===


def test_c06_regularization_path_matches_direct_solves(capsys):
    z_p = simulate(DATASET1_P, 200, 12345)
    z_q = simulate(DATASET1_Q, 400, 54321)
    probes = np.random.default_rng(42).uniform(-4, 4, size=(20, 1))
    t_grid = bandwidth_grid(z_p)[1]
    lam_grid = np.asarray(LAMBDA_GRID)
    worst = 0.0
    cells = 0
    for t in t_grid:
        k = KernelSpec(t=float(t))
        path = solve_type1_path(z_p, z_q, k, lam_grid)
        for lam, est in zip(lam_grid, path):
            direct = solve_type1(z_p, z_q, k, k, float(lam))
            fp = est.evaluate(probes)
            fd = direct.evaluate(probes)
            worst = max(worst, float(np.linalg.norm(fp - fd) / np.linalg.norm(fd)))
            cells += 1
    ok = cells == 60 and worst <= 1e-8
    _report(capsys, "c06", ok,
            f"worst relative difference in function values over {cells} (t, lambda) cells: "
            f"{worst:.2e} (tol 1e-8)")
    assert cells == 60
    assert worst <= 1e-8


# === c07: spectral-cutoff residual is the eigenbasis projection tail ===


def test_c07_spectral_cutoff_residual_is_projection_tail(capsys):
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    worst_increase = -np.inf
    for _ in range(100):
        n = 100
        d = int(rng.integers(2, 4))
        z_p = rng.standard_normal((n, d)) * 2.0
        z_q = rng.standard_normal((int(rng.integers(20, 80)), d))
        k = KernelSpec(t=float(rng.uniform(0.01, 0.035)), normalized=False)
        K_pp = gaussian_kernel_matrix(z_p, z_p, k) / n
        target = gaussian_kernel_matrix(z_p, z_q, k).sum(axis=1) / z_q.shape[0]
        # independent reference: residual after keeping the top-k eigendirections
        w, Q = np.linalg.eigh(K_pp)
        coords_sq = (Q[:, ::-1].T @ target) ** 2
        tails = np.sqrt(np.maximum(coords_sq.sum() - np.cumsum(coords_sq), 0.0))
        resids = np.array([
            np.linalg.norm(K_pp @ solve_spectral(z_p, target, k, cut).evaluate(z_p) - target)
            for cut in range(1, n + 1)
        ])
        worst_gap = max(worst_gap, float(np.max(np.abs(resids - tails))))
        worst_increase = max(worst_increase, float(np.max(np.diff(resids))))
    ok = worst_gap <= 1e-8 and worst_increase <= 1e-10
    _report(capsys, "c07", ok,
            f"100 instances, n=100: max |residual - eigen tail| {worst_gap:.2e} (tol 1e-8), "
            f"max residual increase {worst_increase:.2e} (must be non-increasing)")
    assert worst_gap <= 1e-8
    assert worst_increase <= 1e-10


# === c08: estimated importance weights help a shifted regression ===

C8_BETA = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
C8_STD = np.array([3.0, 0.7, 0.7, 0.7, 0.7])
C8_A, C8_B = 2.5, 1.0


def _stable_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _c8_keep_prob(X):
    return _stable_sigmoid((C8_A * X[:, 0] - C8_B) / 3.0)


def _c8_response(X, rng):
    sd = 0.15 + 4.0 * _c8_keep_prob(X)
    return X @ C8_BETA + sd * rng.standard_normal(X.shape[0])


def _c8_trial(seed, train_n=800):
    """One trial: (weighted mse, unweighted mse) on an unshifted test set."""
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((3000, 5)) * C8_STD
    y_pool = _c8_response(pool, rng)
    res = pca_resample(pool, y_pool, C8_A, C8_B, seed=seed + 99)
    idx = rng.permutation(res.X.shape[0])[:train_n]
    X_tr, y_tr = res.X[idx], res.labels[idx]
    X_te = rng.standard_normal((1000, 5)) * C8_STD
    y_te = _c8_response(X_te, rng)

    X_q = rng.standard_normal((2000, 5)) * C8_STD
    sub = rng.permutation(train_n)[:400]
    t_grid = bandwidth_grid(X_tr[sub])[1]
    validation = make_validation_set("linear", d=5, count=20, seed=seed + 7)
    fit = fit_factory("type1", normalized=False)
    cv = kfold_cv(X_tr[sub], X_q[:800], fit, t_grid, np.asarray(LAMBDA_GRID), validation,
                  folds=5, seed=seed)
    est = fit(X_tr, X_q, cv.selected_t, np.array([cv.selected_lam]))[0]
    weights = np.maximum(est.evaluate(X_tr), 0.0)

    D_tr = np.hstack([X_tr, np.ones((train_n, 1))])
    D_te = np.hstack([X_te, np.ones((X_te.shape[0], 1))])
    mse_w = eval_metrics(weighted_ols(D_tr, y_tr, weights), D_te, y_te)["mse"]
    mse_u = eval_metrics(weighted_ols(D_tr, y_tr, np.ones(train_n)), D_te, y_te)["mse"]
    return mse_w, mse_u


def test_c08_estimated_weights_improve_shifted_regression(capsys):
    t0 = time.perf_counter()
    wins = 0
    for s in range(20):
        mse_w, mse_u = _c8_trial(1000 + s)
        wins += mse_w < mse_u
    elapsed = time.perf_counter() - t0
    ok = wins >= 16 and elapsed < 120.0
    _report(capsys, "c08", ok,
            f"weighted OLS beats unweighted in {wins}/20 trials (need >= 16), "
            f"{elapsed:.1f}s (< 120s)")
    assert wins >= 16
    assert elapsed < 120.0


# === c09: two-kernel solver with equal kernels is bit-identical ===


def test_c09_two_kernel_solver_reduces_to_single_kernel(capsys):
    rng = np.random.default_rng(20250826)
    identical = 0
    for _ in range(20):
        n = int(rng.integers(4, 31))
        m = int(rng.integers(4, 31))
        d = int(rng.integers(1, 4))
        z_p = rng.standard_normal((n, d))
        z_q = rng.standard_normal((m, d)) * 1.1 - 0.1
        k = KernelSpec(t=float(rng.uniform(0.3, 2.0)))
        k_h = KernelSpec(t=float(rng.uniform(0.3, 2.0)))
        lam = 10.0 ** rng.uniform(-8, -1)
        two = solve_type15(z_p, z_q, k, k, k_h, lam)
        one = solve_type1(z_p, z_q, k, k_h, lam)
        identical += (
            np.array_equal(two.v, one.v)
            and np.array_equal(two.evaluate(z_p), one.evaluate(z_p))
        )
    ok = identical == 20
    _report(capsys, "c09", ok,
            f"coefficients and values bit-identical on {identical}/20 random instances")
    assert identical == 20


# === c10: CLI reruns from the echoed config are byte-identical ===


def _strip_timestamp(path):
    text = pathlib.Path(path).read_text()
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


def _run_cli_twice(command, config, tmp_path, extra=()):
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(config))
    out1 = tmp_path / f"{command}_run1"
    out2 = tmp_path / f"{command}_run2"
    assert main([command, "--config", str(cfg_path), "--out", str(out1), *extra]) == 0
    echoed = out1 / "config_echo.json"
    assert main([command, "--config", str(echoed), "--out", str(out2), *extra]) == 0
    payload1 = _strip_timestamp(out1 / "results.json")
    payload2 = _strip_timestamp(out2 / "results.json")
    if payload1 != payload2:
        return False, f"{command}: results.json differs"
    for csv1 in sorted(out1.glob("*.csv")):
        if csv1.read_bytes() != (out2 / csv1.name).read_bytes():
            return False, f"{command}: {csv1.name} differs"
    if json.loads(echoed.read_text()) != json.loads((out2 / "config_echo.json").read_text()):
        return False, f"{command}: config echo not a fixed point"
    return True, f"{command} ok"


def _write_regression_csv(path, seed, n):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    y = X @ np.array([1.0, -1.0, 0.5]) + 0.3 * rng.standard_normal(n)
    rows = np.hstack([X, y[:, None]])
    lines = ["x0,x1,x2,y"] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_c10_cli_reruns_are_byte_identical(capsys, tmp_path):
    gauss = lambda mean, std, n: {"density": {"kind": "gaussian", "mean": mean, "std": std}, "n": n}
    estimate_cfg = {
        "seed": 7,
        "p": gauss([0.0, 0.0], 1.0, 300),
        "q": gauss([0.3, 0.0], 0.9, 300),
        "cv": {"max_points": 150},
    }
    simulate_cfg = {
        "seed": 3,
        "p_density": {"kind": "gaussian", "mean": [0.0], "std": 1.0},
        "q_density": {"kind": "gaussian", "mean": [0.4], "std": 0.8},
        "n_grid": [60], "m": 200, "repetitions": 3,
        "methods": ["fire", "tikde", "lsif"], "eval_n": 100,
    }
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    _write_regression_csv(train_csv, seed=5, n=150)
    _write_regression_csv(test_csv, seed=6, n=120)
    downstream_cfg = {
        "seed": 9,
        "task": "regression",
        "train": {"csv": str(train_csv), "label_column": 3},
        "test": {"csv": str(test_csv), "label_column": 3},
        "cv": {"max_points": 100},
        "train_sizes": [80, 150],
    }
    resample_cfg = {
        "seed": 13,
        "data": gauss([0.0, 0.0, 0.0], 1.0, 400),
        "mode": {"kind": "pca_sigmoid", "a": 2.0, "b": 0.5, "b_units": "sigma"},
    }
    runs = [
        ("estimate", estimate_cfg),
        ("cv", estimate_cfg),
        ("simulate", simulate_cfg),
        ("downstream", downstream_cfg),
        ("resample", resample_cfg),
    ]
    details = []
    all_ok = True
    for command, cfg in runs:
        ok, detail = _run_cli_twice(command, cfg, tmp_path)
        all_ok &= ok
        details.append(detail)
    _report(capsys, "c10", all_ok, "; ".join(details))
    assert all_ok, details
