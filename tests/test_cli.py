import hashlib
import json
import os
import weakref

import numpy as np
import pytest

import firedre.cli as cli
from firedre import kernels, solvers
from firedre.baselines import lsif_unconstrained, tikde_epsilon_grid, true_ratio
from firedre.cli import derive_seed, main, write_csv, write_json
from firedre.config import BenchConfig, DownstreamConfig, EstimateConfig, ResampleConfig
from firedre.data import load_csv, simulate
from firedre.kernels import KernelSpec, gaussian_kernel_matrix
from firedre.linalg import NumericalError, blas_thread_count, blas_threads
from firedre.selection import run_cells, worker_count

GAUSS = {"kind": "gaussian", "mean": [0.0], "std": 1.0}

# small but realistic estimate config: explicit grids keep runtime low
ESTIMATE = {
    "seed": 3,
    "p": {"density": GAUSS, "n": 120},
    "q": {"density": GAUSS, "n": 120},
    "grids": {"t": [0.5, 1.0, 2.0], "lambda": [1e-5, 1e-7]},
    "validation": {"family": "linear", "count": 8},
    "cv": {"folds": 3},
}


def run(tmp_path, command, cfg, out="out", extra=()):
    cfg_path = tmp_path / f"{command}_cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / out
    rc = main([command, "--config", str(cfg_path), "--out", str(out_dir), *extra])
    assert rc == 0
    return out_dir


def read_results(out_dir, drop_timestamp=True):
    with open(out_dir / "results.json") as fh:
        payload = json.load(fh)
    if drop_timestamp:
        payload.pop("timestamp")
    return payload


def fail_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == exc.value.code
    assert isinstance(err["error"], str) and err["error"]
    return exc.value.code, err["error"]


class TestHelpers:
    def test_derive_seed_pinned_values(self):
        # little-endian first 8 bytes of sha256("seed/stage")
        ref = int.from_bytes(hashlib.sha256(b"3/cv-folds").digest()[:8], "little")
        assert derive_seed(3, "cv-folds") == ref
        assert derive_seed(3, "cv-folds") != derive_seed(4, "cv-folds")
        assert derive_seed(3, "a") != derive_seed(3, "b")
        assert 0 <= derive_seed(0, "x") < 2 ** 64

    def test_write_csv_cell_formats(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b", "c", "d"], [[1, 0.5, True, "lab"], [np.int64(2), np.float64(0.1), False, "x"]])
        text = open(path).read()
        assert text == "a,b,c,d\n1,0.5,1,lab\n2,0.1,0,x\n"
        # a float matrix takes the tolist() route; the bytes stay those of the cell-by-cell route
        matrix = np.array([[-0.0, 1e-300], [0.1, 3.0], [np.nan, -np.inf]])
        write_csv(path, ["a", "b"], matrix)
        assert open(path).read() == "a,b\n-0.0,1e-300\n0.1,3.0\nnan,-inf\n"
        write_csv(path, ["a", "b"], [list(row) for row in matrix])
        assert open(path).read() == "a,b\n-0.0,1e-300\n0.1,3.0\nnan,-inf\n"

    def test_write_json_non_finite_to_null(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_json(path, {"x": np.inf, "y": np.array([1.0, np.nan]), "z": np.int32(3)})
        data = json.loads(open(path).read())
        assert data == {"x": None, "y": [1.0, None], "z": 3}


class TestEstimateCommand:
    def test_outputs_and_payload(self, tmp_path):
        out = run(tmp_path, "estimate", ESTIMATE)
        for name in ("results.json", "config_echo.json", "centers.csv", "weights.csv"):
            assert (out / name).exists()
        payload = read_results(out, drop_timestamp=False)
        assert payload["schema_version"] == 1
        assert payload["command"] == "estimate"
        assert payload["n"] == 120 and payload["m"] == 120
        assert payload["selected_t"] in ESTIMATE["grids"]["t"]
        assert payload["selected_lambda"] in ESTIMATE["grids"]["lambda"]
        assert len(payload["coefficients"]) == 120
        assert payload["scale"] == "plain"
        assert payload["kernel"]["t"] == payload["selected_t"]
        # p = q, so the fitted ratio should hover near 1 on the p-sample
        assert 0.5 < payload["weights_mean"] < 1.5
        surface = np.array(payload["cv_surface"]["scores"])
        assert surface.shape == (3, 2)
        X, _ = load_csv(str(out / "centers.csv"))
        w, _ = load_csv(str(out / "weights.csv"))
        assert X.shape == (120, 1) and w.shape == (120, 1)
        assert abs(w.mean() - payload["weights_mean"]) < 1e-12

    def test_rerun_is_byte_identical(self, tmp_path):
        out1 = run(tmp_path, "estimate", ESTIMATE, out="a")
        out2 = run(tmp_path, "estimate", ESTIMATE, out="b")
        assert read_results(out1) == read_results(out2)
        for name in ("centers.csv", "weights.csv", "config_echo.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_echo_reproduces_run(self, tmp_path):
        out1 = run(tmp_path, "estimate", ESTIMATE, out="a")
        echo = json.loads((out1 / "config_echo.json").read_text())
        out2 = run(tmp_path, "estimate", echo, out="b")
        assert read_results(out1) == read_results(out2)
        assert (out1 / "weights.csv").read_bytes() == (out2 / "weights.csv").read_bytes()

    def test_seed_override_changes_data_and_echo(self, tmp_path):
        out1 = run(tmp_path, "estimate", ESTIMATE, out="a")
        out2 = run(tmp_path, "estimate", ESTIMATE, out="b", extra=("--seed", "99"))
        echo = json.loads((out2 / "config_echo.json").read_text())
        assert echo["seed"] == 99
        assert read_results(out1) != read_results(out2)

    def test_threads_do_not_change_results(self, tmp_path):
        out1 = run(tmp_path, "estimate", ESTIMATE, out="a")
        out2 = run(tmp_path, "estimate", ESTIMATE, out="b", extra=("--threads", "4"))
        assert read_results(out1) == read_results(out2)

    def test_csv_source(self, tmp_path):
        rng = np.random.default_rng(0)
        for name in ("p.csv", "q.csv"):
            rows = "\n".join(repr(float(x)) for x in rng.standard_normal(80))
            (tmp_path / name).write_text(rows + "\n")
        cfg = dict(ESTIMATE)
        cfg["p"] = {"csv": str(tmp_path / "p.csv")}
        cfg["q"] = {"csv": str(tmp_path / "q.csv")}
        out = run(tmp_path, "estimate", cfg)
        assert read_results(out, drop_timestamp=False)["n"] == 80

    def test_unnormalized_solver_flag_reaches_fit(self, tmp_path):
        cfg = dict(ESTIMATE)
        cfg["solver"] = {"setting": "type1", "normalized": False}
        out = run(tmp_path, "estimate", cfg)
        payload = read_results(out, drop_timestamp=False)
        assert payload["kernel"]["normalized"] is False
        baseline = read_results(run(tmp_path, "estimate", ESTIMATE, out="norm"), drop_timestamp=False)
        assert baseline["kernel"]["normalized"] is True

    def test_type2_known_q(self, tmp_path):
        cfg = {
            "seed": 1,
            "p": {"density": GAUSS, "n": 100},
            "solver": {"setting": "type2"},
            "q_function": GAUSS,
            "grids": {"t": [0.5, 1.0], "lambda": [1e-5, 1e-7]},
            "validation": {"family": "linear", "count": 6},
            "cv": {"folds": 3, "type2_q_points": 200},
        }
        out = run(tmp_path, "estimate", cfg)
        payload = read_results(out, drop_timestamp=False)
        assert 0.5 < payload["weights_mean"] < 1.5


class TestCvCommand:
    def test_surface_only(self, tmp_path):
        out = run(tmp_path, "cv", ESTIMATE)
        payload = read_results(out, drop_timestamp=False)
        assert payload["command"] == "cv"
        assert "coefficients" not in payload
        assert not (out / "weights.csv").exists()
        fold_scores = np.array(payload["cv_surface"]["fold_scores"])
        assert fold_scores.shape == (3, 2, 3)

    def test_matches_estimate_selection(self, tmp_path):
        out1 = run(tmp_path, "cv", ESTIMATE, out="a")
        out2 = run(tmp_path, "estimate", ESTIMATE, out="b")
        a, b = read_results(out1), read_results(out2)
        assert a["selected_t"] == b["selected_t"]
        assert a["selected_lambda"] == b["selected_lambda"]
        assert a["cv_surface"] == b["cv_surface"]


class TestSimulateCommand:
    CFG = {
        "seed": 5,
        "p_density": GAUSS,
        "q_density": {"kind": "gaussian", "mean": [0.3], "std": 0.8},
        "n_grid": [40, 80],
        "m": 100,
        "repetitions": 2,
        "eval_n": 60,
        "methods": ["fire", "tikde", "lsif"],
        "grids": {"t": [0.5, 1.0], "lambda": [1e-5, 1e-7]},
    }

    def test_bench_rows_and_medians(self, tmp_path):
        out = run(tmp_path, "simulate", self.CFG)
        payload = read_results(out, drop_timestamp=False)
        assert payload["command"] == "simulate"
        text = (out / "bench.csv").read_text().splitlines()
        assert text[0] == "method,n,rep,error,t,param"
        assert len(text) == 1 + 3 * 2 * 2  # methods x n_grid x repetitions
        for method in ("fire", "tikde", "lsif"):
            for n in ("40", "80"):
                med = payload["medians"][method][n]
                assert np.isfinite(med) and med >= 0.0
        # per-row medians recomputed from the CSV agree with the payload
        rows = [line.split(",") for line in text[1:]]
        fire40 = [float(r[3]) for r in rows if r[0] == "fire" and r[1] == "40"]
        assert abs(np.median(fire40) - payload["medians"]["fire"]["40"]) < 1e-15

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bench_trials_see_one_blas_thread(self, tmp_path, monkeypatch, caller_blas_threads, threads):
        seen = []
        factory = cli.fit_factory

        def spy_factory(*args, **kwargs):
            fit = factory(*args, **kwargs)

            def spy_fit(*fit_args, **fit_kwargs):
                seen.append(blas_thread_count())
                return fit(*fit_args, **fit_kwargs)

            return spy_fit

        monkeypatch.setattr(cli, "fit_factory", spy_factory)
        run(tmp_path, "simulate", self.CFG, extra=("--threads", threads))
        assert seen == [1] * 8  # 2 sizes x 2 repetitions x 2 bandwidths
        assert blas_thread_count() == caller_blas_threads

    def test_deterministic_and_thread_invariant(self, tmp_path):
        out1 = run(tmp_path, "simulate", self.CFG, out="a")
        out2 = run(tmp_path, "simulate", self.CFG, out="b", extra=("--threads", "3"))
        assert (out1 / "bench.csv").read_bytes() == (out2 / "bench.csv").read_bytes()
        assert read_results(out1) == read_results(out2)


class TestThreadsDefault:
    def test_default_is_the_usable_cpus(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_estimate", lambda cfg, out, threads: seen.append(threads))
        run(tmp_path, "estimate", ESTIMATE)
        assert seen == [worker_count(os.cpu_count() or 1)]

    @pytest.mark.parametrize("command, cfg", [("estimate", ESTIMATE), ("simulate", TestSimulateCommand.CFG)])
    def test_default_outputs_match_one_thread_bytewise(self, tmp_path, command, cfg):
        default = run(tmp_path, command, cfg, out="default")
        one = run(tmp_path, command, cfg, out="one", extra=("--threads", "1"))
        names = sorted(os.listdir(default))
        assert names == sorted(os.listdir(one))
        for name in names:
            a, b = ((d / name).read_bytes() for d in (default, one))
            if name == "results.json":  # the timestamp line aside
                a, b = (b"".join(ln for ln in x.splitlines(True) if b'"timestamp"' not in ln) for x in (a, b))
            assert a == b, name


def write_points(path, X, y=None):
    cols = X if y is None else np.column_stack([X, y])
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in cols.tolist()))
    return str(path)


def output_bytes(out_dir):
    """Every output file's bytes, results.json without its timestamp."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        data = (out_dir / name).read_bytes()
        if name == "results.json":
            data = b"".join(ln for ln in data.splitlines(True) if b'"timestamp"' not in ln)
        files[name] = data
    return files


class TestCommandBlasThreads:
    """Each runner's body runs on one BLAS thread, so no output byte depends on the caller's count."""

    # d = 5 and n = 150: large enough that the final fit's products and
    # Cholesky solves take another summation order on two BLAS threads
    D5 = {"kind": "gaussian", "mean": [0.0] * 5, "std": 1.0}
    ESTIMATE_D5 = {
        "seed": 3,
        "p": {"density": D5, "n": 150},
        "q": {"density": {"kind": "gaussian", "mean": [0.3] * 5, "std": 0.8}, "n": 150},
        "solver": {"setting": "type1", "normalized": False},
        "grids": {"t": [1.0, 2.0], "lambda": [1e-5, 1e-7]},
        "validation": {"family": "linear", "count": 4},
        "cv": {"folds": 2, "max_points": 60},
    }

    def downstream_d5(self, tmp_path):
        rng = np.random.default_rng(12)
        beta = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
        X_tr, X_te = rng.standard_normal((150, 5)), rng.standard_normal((100, 5)) + 0.3
        return {
            "seed": 4,
            "train": {"csv": write_points(tmp_path / "tr.csv", X_tr, X_tr @ beta), "label_column": -1},
            "test": {"csv": write_points(tmp_path / "te.csv", X_te, X_te @ beta), "label_column": -1},
            "ratio_q": {"csv": write_points(tmp_path / "rq.csv", rng.standard_normal((150, 5)) + 0.3)},
            **{key: self.ESTIMATE_D5[key] for key in ("solver", "grids", "validation", "cv")},
        }

    @pytest.mark.parametrize("command", ["estimate", "downstream"])
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path, caller_blas_threads, command):
        cfg = self.ESTIMATE_D5 if command == "estimate" else self.downstream_d5(tmp_path)
        many = run(tmp_path, command, cfg, out="many")
        with blas_threads(1):
            one = run(tmp_path, command, cfg, out="one")
        assert output_bytes(many) == output_bytes(one)
        assert blas_thread_count() == caller_blas_threads

    def test_final_fit_solves_see_one_blas_thread(self, tmp_path, monkeypatch, caller_blas_threads):
        seen = []
        solve = solvers.solve_linear

        def spy(A, b, context="", positive_definite=False, **kwargs):
            seen.append((context, positive_definite, blas_thread_count()))
            return solve(A, b, context, positive_definite=positive_definite, **kwargs)

        monkeypatch.setattr(solvers, "solve_linear", spy)
        run(tmp_path, "estimate", self.ESTIMATE_D5)
        assert seen == [("type15 system", True, 1)] * 2

    def runners(self, tmp_path):
        data = write_points(tmp_path / "pool.csv", np.random.default_rng(13).standard_normal((60, 2)))
        resample = {"seed": 1, "data": {"csv": data}, "mode": {"kind": "pca_sigmoid", "a": 1.0, "b": 0.0}}
        return {
            "estimate": lambda: cli.run_estimate(EstimateConfig.from_dict(ESTIMATE), str(tmp_path / "e")),
            "cv": lambda: cli.run_cv(EstimateConfig.from_dict(ESTIMATE), str(tmp_path / "c")),
            "simulate": lambda: cli.run_bench(BenchConfig.from_dict(TestSimulateCommand.CFG), str(tmp_path / "s")),
            "downstream": lambda: cli.run_downstream(
                DownstreamConfig.from_dict(self.downstream_d5(tmp_path)), str(tmp_path / "d")
            ),
            "resample": lambda: cli.run_resample(ResampleConfig.from_dict(resample), str(tmp_path / "r")),
        }

    @pytest.mark.parametrize("command", ["estimate", "cv", "simulate", "downstream", "resample"])
    @pytest.mark.parametrize("raises", [False, True])
    def test_every_runner_restores_the_callers_count(self, tmp_path, monkeypatch, caller_blas_threads, command,
                                                     raises):
        seen = []
        write = cli.write_json

        def spy(path, payload):
            seen.append(blas_thread_count())
            if raises:
                raise OSError("disk full")
            write(path, payload)

        monkeypatch.setattr(cli, "write_json", spy)
        runner = self.runners(tmp_path)[command]
        if raises:
            with pytest.raises(OSError, match="disk full"):
                runner()
        else:
            runner()
        assert seen and set(seen) == {1}
        assert blas_thread_count() == caller_blas_threads

    # each command's files besides results.json and config_echo.json
    OWN_FILES = {
        "estimate": {"centers.csv", "weights.csv"},
        "cv": set(),
        "simulate": {"bench.csv"},
        "downstream": {"weights.csv"},
        "resample": {"kept.csv"},
    }

    @pytest.mark.parametrize("command", sorted(OWN_FILES))
    def test_each_runner_writes_exactly_its_own_files(self, tmp_path, command):
        self.runners(tmp_path)[command]()
        out_dir = tmp_path / command[0]  # runners() names each output directory by its command's initial
        assert set(os.listdir(out_dir)) == self.OWN_FILES[command] | {"results.json", "config_echo.json"}

    def test_estimate_whose_final_fit_fails_makes_no_output_directory(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("planted final-fit failure")

        monkeypatch.setattr(solvers, "evaluate", fail)
        with pytest.raises(NumericalError, match="planted final-fit failure"):
            self.runners(tmp_path)["estimate"]()
        assert not (tmp_path / "e").exists()


# === oracle: per-method bandwidth loops over whole evaluation Grams built from the points ===


def oracle_fire(z_p, z_q, eval_X, r_eval, t_grid, lam_grid, fit):
    best = (np.inf, np.nan, np.nan)
    for t in t_grid:
        try:
            ests = fit(z_p, z_q, float(t), lam_grid)
        except (NumericalError, np.linalg.LinAlgError):
            continue
        K_eval = gaussian_kernel_matrix(eval_X, z_p, ests[0].kernel)
        V = np.stack([e.v if e.scale == "plain" else e.v / z_p.shape[0] for e in ests], axis=1)
        preds = np.maximum(K_eval @ V, 0.0)
        errs = np.mean((preds - r_eval[:, None]) ** 2, axis=0)
        j = int(np.argmin(errs))
        if errs[j] < best[0]:
            best = (float(errs[j]), float(t), float(lam_grid[j]))
    return best


def oracle_tikde(z_p, z_q, eval_X, r_eval, t_grid):
    best = (np.inf, np.nan, np.nan)
    for t in t_grid:
        k = KernelSpec(t=float(t))
        p_hat = gaussian_kernel_matrix(eval_X, z_p, k).mean(axis=1)
        q_hat = gaussian_kernel_matrix(eval_X, z_q, k).mean(axis=1)
        for eps in tikde_epsilon_grid(z_p, t):
            err = float(np.mean((q_hat / np.maximum(p_hat, eps) - r_eval) ** 2))
            if err < best[0]:
                best = (err, float(t), float(eps))
    return best


def oracle_lsif(z_p, z_q, eval_X, r_eval, t_grid, lam_grid):
    best = (np.inf, np.nan, np.nan)
    for t in t_grid:
        G_eval = gaussian_kernel_matrix(eval_X, z_q, KernelSpec(t=float(t)))
        for lam, est in zip(lam_grid, lsif_unconstrained(z_p, z_q, t, lam_grid)):
            if est is None:
                continue
            err = float(np.mean((np.maximum(G_eval @ est.alpha, 0.0) - r_eval) ** 2))
            if err < best[0]:
                best = (err, float(t), float(lam))
    return best


def oracle_bench_csv(cfg_dict, path):
    """bench.csv as the per-method loops write it, trials run like run_bench's."""
    cfg = BenchConfig.from_dict(cfg_dict)
    oracle = true_ratio(cfg.p_density, cfg.q_density)
    lam_grid = np.asarray(cfg.grids.lam, dtype=np.float64)
    s = cfg.solver
    fit = cli.fit_factory(s.setting, gamma=s.gamma, t_prime_ratio=s.t_prime_ratio, q_fn=cfg.q_density.pdf,
                          normalized=s.normalized)

    def one(task):
        n, rep = task
        tag = f"bench:{n}:{rep}"
        z_p = simulate(cfg.p_density, n, derive_seed(cfg.seed, tag + ":p"))
        z_q = simulate(cfg.q_density, cfg.m, derive_seed(cfg.seed, tag + ":q"))
        eval_X = simulate(cfg.q_density, cfg.eval_n, derive_seed(cfg.seed, tag + ":eval"))
        r_eval = oracle.evaluate(eval_X)
        t_grid = cli._t_grid(cfg.grids, z_p)
        rows = []
        if "fire" in cfg.methods:
            rows.append(["fire", n, rep, *oracle_fire(z_p, z_q, eval_X, r_eval, t_grid, lam_grid, fit)])
        if "tikde" in cfg.methods:
            rows.append(["tikde", n, rep, *oracle_tikde(z_p, z_q, eval_X, r_eval, t_grid)])
        if "lsif" in cfg.methods:
            rows.append(["lsif", n, rep, *oracle_lsif(z_p, z_q, eval_X, r_eval, t_grid, lam_grid)])
        return rows

    tasks = [(n, rep) for n in cfg.n_grid for rep in range(cfg.repetitions)]
    rows = [row for pack in run_cells(one, tasks, 1) for row in pack]
    write_csv(str(path), ["method", "n", "rep", "error", "t", "param"], rows)
    return path.read_bytes()


class TestSharedGramTrial:
    T_GRID = [0.25, 0.5, 1.0, 2.0]
    CFG = {
        "seed": 8,
        "p_density": {"kind": "mixture", "weights": [0.5, 0.5], "components": [
            {"kind": "gaussian", "mean": [-2.0], "std": 1.0}, {"kind": "gaussian", "mean": [2.0], "std": 0.5}]},
        "q_density": {"kind": "gaussian", "mean": [0.0], "std": 0.5},
        "n_grid": [40, 70],
        "m": 60,
        "repetitions": 2,
        "eval_n": 90,
        "methods": ["fire", "tikde", "lsif"],
        "solver": {"setting": "type15"},
        "grids": {"t": T_GRID, "lambda": [1e-3, 1e-5, 1e-7]},
    }

    def cfg(self, **over):
        cfg = dict(self.CFG)
        cfg.update(over)
        return cfg

    def assert_matches_oracle(self, tmp_path, cfg, out="out", threads="2"):
        out = run(tmp_path, "simulate", cfg, out=out, extra=("--threads", threads))
        assert (out / "bench.csv").read_bytes() == oracle_bench_csv(cfg, tmp_path / f"{out.name}_oracle.csv")
        return [line.split(",") for line in (out / "bench.csv").read_text().splitlines()[1:]]

    def test_all_methods_match_oracle(self, tmp_path):
        rows = self.assert_matches_oracle(tmp_path, self.cfg())
        assert [r[0] for r in rows[:3]] == ["fire", "tikde", "lsif"]

    @pytest.mark.parametrize("method", ["fire", "tikde", "lsif"])
    def test_each_method_alone_matches_oracle(self, tmp_path, method):
        rows = self.assert_matches_oracle(tmp_path, self.cfg(methods=[method]))
        assert {r[0] for r in rows} == {method}

    @pytest.mark.parametrize("setting", ["type15", "combined"])
    def test_unnormalized_fire_kernel_matches_oracle(self, tmp_path, setting):
        solver = {"setting": setting, "normalized": False}
        if setting == "combined":
            solver["gamma"] = 0.5
        self.assert_matches_oracle(tmp_path, self.cfg(solver=solver))

    SOLVERS = {
        "type15": {"setting": "type15"},
        "type15_unnormalized": {"setting": "type15", "normalized": False},
        "combined_unnormalized": {"setting": "combined", "normalized": False, "gamma": 0.5},
    }

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("eval_n, m", [(601, 60), (2000, 300)])
    def test_several_row_blocks_match_oracle(self, tmp_path, eval_n, m, solver, threads):
        lams = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
        # several blocks, the last one ragged; at n = 300 and eval_n = 2000 fire's products are large
        assert len(kernels.product_blocks(eval_n, 70 * len(lams))) > 1 and eval_n % 64
        assert eval_n < 2000 or len(kernels.product_blocks(eval_n, 300 * len(lams))) > 1
        cfg = self.cfg(n_grid=[70, 300], m=m, repetitions=1, eval_n=eval_n, solver=self.SOLVERS[solver],
                       grids={"t": self.T_GRID, "lambda": lams})
        rows = self.assert_matches_oracle(tmp_path, cfg, threads=threads)
        assert [r[0] for r in rows] == ["fire", "tikde", "lsif"] * 2

    def test_large_fire_products_keep_their_dgemm_route(self, tmp_path):
        # at n = 300, L = 3 fixed 256-row blocks would move fire's errors: the
        # blocks' products would take OpenBLAS's small-matrix route, the whole's not
        cfg = self.cfg(n_grid=[300], m=300, repetitions=1, eval_n=2400, methods=["fire"])
        blocks = kernels.product_blocks(2400, 300 * len(cfg["grids"]["lambda"]))
        assert len(blocks) > 1 and all(b.stop - b.start > kernels.PRODUCT_ROWS + 64 for b in blocks)
        self.assert_matches_oracle(tmp_path, cfg, threads="1")

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_fire_path_from_trial_distances_is_bitwise(self, solver):
        cfg = BenchConfig.from_dict(self.cfg(solver=self.SOLVERS[solver]))
        s = cfg.solver
        fit = cli.fit_factory(s.setting, gamma=s.gamma, t_prime_ratio=s.t_prime_ratio, normalized=s.normalized)
        z_p = simulate(cfg.p_density, 70, 1)
        z_q = simulate(cfg.q_density, 60, 2)
        sq_pp, sq_pq = kernels._sq_dists(z_p, z_p), kernels._sq_dists(z_p, z_q)
        lams = np.asarray(cfg.grids.lam)
        for t in self.T_GRID:
            for plain, shared in zip(fit(z_p, z_q, t, lams), fit(z_p, z_q, t, lams, sq_pp=sq_pp, sq_pq=sq_pq)):
                assert np.array_equal(plain.v, shared.v)
                assert (plain.kernel, plain.scale) == (shared.kernel, shared.scale)

    def test_failed_fire_fit_skips_only_fire_at_that_t(self, tmp_path, monkeypatch):
        cfg = self.cfg()
        counts = {}
        for row in self.assert_matches_oracle(tmp_path, cfg):
            if row[0] == "tikde":
                counts[float(row[4])] = counts.get(float(row[4]), 0) + 1
        failing = max(counts, key=counts.get)  # a t where TIKDE scores best
        factory = cli.fit_factory

        def failing_factory(*args, **kwargs):
            fit = factory(*args, **kwargs)

            def flaky_fit(z_p, z_q, t, lams, sq_pp=None, sq_pq=None):
                if t == failing:
                    raise NumericalError("synthetic failure")
                return fit(z_p, z_q, t, lams, sq_pp=sq_pp, sq_pq=sq_pq)

            return flaky_fit

        monkeypatch.setattr(cli, "fit_factory", failing_factory)
        rows = self.assert_matches_oracle(tmp_path, cfg, out="flaky")
        assert all(float(r[4]) != failing for r in rows if r[0] == "fire")
        assert any(float(r[4]) == failing for r in rows if r[0] == "tikde")
        assert all(np.isfinite(float(r[3])) for r in rows)

    @pytest.mark.parametrize("normalized, per_t", [(True, 2), (False, 3)])
    def test_one_eval_gram_per_kernel_and_t(self, tmp_path, monkeypatch, normalized, per_t):
        """One Gram per distinct kernel per (row block, t), each from the block's distances, none alive at once."""
        gram, read = kernels.gaussian_kernel_matrix, cli.read_rows
        for eval_n, blocks in ((90, 1), (601, 2)):
            builds, alive, reading = [], [], []

            def spy_read(*args):
                reading.append(True)
                try:
                    return read(*args)
                finally:
                    reading.pop()

            def spy(A, B, spec, sq=None):
                if not reading:  # a fit's Gram, or one the trial's row means build outside its evaluation reads
                    return gram(A, B, spec, sq=sq)
                assert all(ref() is None for ref in alive), "an earlier evaluation Gram is still alive"
                assert sq is not None, "an evaluation Gram computes its own distances"
                G = gram(A, B, spec, sq=sq)
                assert G.shape[0] <= eval_n // blocks + 64
                builds.append((hashlib.sha256(A.tobytes()).digest(), hashlib.sha256(B.tobytes()).digest(), spec))
                alive.append(weakref.ref(G))
                return G

            monkeypatch.setattr(kernels, "gaussian_kernel_matrix", spy)
            monkeypatch.setattr(cli, "read_rows", spy_read)
            cfg = self.cfg(solver={"setting": "type15", "normalized": normalized}, eval_n=eval_n)
            run(tmp_path, "simulate", cfg, out=f"out{eval_n}", extra=("--threads", "1"))
            trials = len(cfg["n_grid"]) * cfg["repetitions"]
            assert len(builds) == trials * blocks * len(self.T_GRID) * per_t
            assert len(set(builds)) == len(builds)

    @pytest.mark.parametrize("eval_n", [90, 601])
    def test_distances_once_per_trial_and_block(self, tmp_path, monkeypatch, eval_n):
        def digest(A):
            return hashlib.sha256(np.ascontiguousarray(A).tobytes()).digest()

        calls = []
        for module in (cli, kernels):  # the trial's own calls, and any a Gram or a fit makes
            def spy(A, B, sq_dists=module._sq_dists):
                calls.append((digest(A), digest(B)))
                return sq_dists(A, B)

            monkeypatch.setattr(module, "_sq_dists", spy)
        cfg_dict = self.cfg(eval_n=eval_n)
        run(tmp_path, "simulate", cfg_dict, extra=("--threads", "1"))

        cfg = BenchConfig.from_dict(cfg_dict)
        expected = []
        for n in cfg.n_grid:
            for rep in range(cfg.repetitions):
                tag = f"bench:{n}:{rep}"
                z_p = simulate(cfg.p_density, n, derive_seed(cfg.seed, tag + ":p"))
                z_q = simulate(cfg.q_density, cfg.m, derive_seed(cfg.seed, tag + ":q"))
                eval_X = simulate(cfg.q_density, cfg.eval_n, derive_seed(cfg.seed, tag + ":eval"))
                expected += [(digest(z_p), digest(z_p)), (digest(z_p), digest(z_q)), (digest(z_q), digest(z_q))]
                blocks = kernels.product_blocks(eval_n, n * len(cfg.grids.lam))
                assert len(blocks) == (1 if eval_n < 2 * (kernels.PRODUCT_ROWS + 64) else 2)
                expected += [(digest(eval_X[b]), digest(Z)) for Z in (z_p, z_q) for b in blocks]
        # exactly these calls: no distances of all eval_n rows where there are
        # several blocks, so the largest evaluation-side array is block x max(n, m)
        assert sorted(calls) == sorted(expected)


class TestEvalBlocks:
    @pytest.mark.parametrize("rows", [1, 90, 255, 256, 320, 601, 2000, 4097])
    @pytest.mark.parametrize("cols", [0, 70 * 3, 300 * 3, 300 * 6, 1000 * 6, 2 * 10**6])
    def test_partition(self, rows, cols):
        blocks = kernels.product_blocks(rows, cols)
        edges = [b.start for b in blocks] + [rows]
        assert edges[0] == 0 and all(b.stop == e for b, e in zip(blocks, edges[1:]))
        assert all(e % 64 == 0 for e in edges[:-1])
        sizes = [b.stop - b.start for b in blocks]
        least = kernels.PRODUCT_ROWS
        if rows * cols > kernels._SMALL_GEMM:  # each block's product takes the whole product's dgemm route
            assert all(size * cols > kernels._SMALL_GEMM for size in sizes)
            least = max(least, kernels._SMALL_GEMM // cols + 1)
        assert len(blocks) == max(1, rows // (least + 64))  # as many blocks as fit least + 64 rows each
        assert len(blocks) == 1 or min(sizes) >= least


class TestDownstreamCommand:
    def make_shifted_task(self, tmp_path, n_tr=80, n_te=60):
        rng = np.random.default_rng(7)
        beta = np.array([1.0, -2.0])

        def write_split(name, n, shift):
            X = rng.standard_normal((n, 2)) + shift
            y = X @ beta + 0.1 * rng.standard_normal(n)
            lines = [",".join([repr(float(a)), repr(float(b)), repr(float(c))]) for (a, b), c in zip(X, y)]
            path = tmp_path / name
            path.write_text("\n".join(lines) + "\n")
            return str(path)

        return write_split("train.csv", n_tr, 0.0), write_split("test.csv", n_te, 0.4)

    def cfg(self, train, test, **over):
        d = {
            "seed": 2,
            "train": {"csv": train, "label_column": -1},
            "test": {"csv": test, "label_column": -1},
            "grids": {"t": [0.5, 1.0, 2.0], "lambda": [1e-5, 1e-7]},
            "validation": {"family": "linear", "count": 6},
            "cv": {"folds": 3},
            "train_sizes": [40, 80],
        }
        d.update(over)
        return d

    def test_regression_metrics_structure(self, tmp_path):
        train, test = self.make_shifted_task(tmp_path)
        out = run(tmp_path, "downstream", self.cfg(train, test))
        payload = read_results(out, drop_timestamp=False)
        assert payload["command"] == "downstream"
        assert payload["sizes"] == [40, 80]
        for variant in ("weighted", "unweighted"):
            for size in ("40", "80"):
                m = payload["metrics"][variant][size]
                assert set(m) == {"mse", "rmse", "normalized_mse"}
                assert m["mse"] >= 0.0
        w, _ = load_csv(str(out / "weights.csv"))
        assert w.shape == (80, 1)
        assert (w >= 0).all()  # clip_weights defaults on

    def test_classification_task(self, tmp_path):
        rng = np.random.default_rng(8)

        def write_split(name, n):
            X = rng.standard_normal((n, 2))
            y = np.where(X[:, 0] + 0.3 * rng.standard_normal(n) > 0, 1.0, -1.0)
            lines = [",".join([repr(float(a)), repr(float(b)), repr(float(c))]) for (a, b), c in zip(X, y)]
            (tmp_path / name).write_text("\n".join(lines) + "\n")
            return str(tmp_path / name)

        train, test = write_split("tr.csv", 70), write_split("te.csv", 50)
        cfg = self.cfg(train, test, task="classification", train_sizes=None, svm={"C": 5.0, "epochs": 80})
        out = run(tmp_path, "downstream", cfg)
        payload = read_results(out, drop_timestamp=False)
        m = payload["metrics"]["weighted"]["70"]
        assert set(m) == {"mse", "rmse", "zero_one_error"}
        assert m["zero_one_error"] < 0.5

    def test_rerun_identical(self, tmp_path):
        train, test = self.make_shifted_task(tmp_path)
        out1 = run(tmp_path, "downstream", self.cfg(train, test), out="a")
        out2 = run(tmp_path, "downstream", self.cfg(train, test), out="b")
        assert read_results(out1) == read_results(out2)
        assert (out1 / "weights.csv").read_bytes() == (out2 / "weights.csv").read_bytes()

    def test_vanishing_weights_exit_3_without_partial_output(self, tmp_path, capsys):
        # train and q samples so far apart that every estimated weight
        # underflows to zero: the run must fail cleanly before writing
        rng = np.random.default_rng(9)
        X_tr = rng.standard_normal((40, 2))
        X_te = rng.standard_normal((30, 2)) + 500.0
        for name, X in (("tr.csv", X_tr), ("te.csv", X_te)):
            lines = [
                ",".join([repr(float(a)), repr(float(b)), repr(float(a + b))]) for a, b in X
            ]
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        cfg = self.cfg(str(tmp_path / "tr.csv"), str(tmp_path / "te.csv"), train_sizes=None)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code, msg = fail_code(capsys, ["downstream", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 3
        assert "vanish" in msg
        assert not (out_dir / "results.json").exists()


class TestResampleCommand:
    def write_data(self, tmp_path, with_labels=False):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((200, 2)) * np.array([3.0, 1.0])
        rows = []
        for i, (a, b) in enumerate(X):
            cells = [repr(float(a)), repr(float(b))]
            if with_labels:
                cells.append(str(i % 3))
            rows.append(",".join(cells))
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        return str(path), X

    def test_pca_sigmoid_sigma_units(self, tmp_path):
        path, X = self.write_data(tmp_path)
        cfg = {
            "seed": 4,
            "data": {"csv": path},
            "mode": {"kind": "pca_sigmoid", "a": 2.0, "b": 1.5, "b_units": "sigma"},
        }
        out = run(tmp_path, "resample", cfg)
        payload = read_results(out, drop_timestamp=False)
        assert payload["total"] == 200
        assert abs(payload["b_absolute"] - 1.5 * payload["sigma_v"]) < 1e-12
        kept, _ = load_csv(str(out / "kept.csv"))
        assert kept.shape == (payload["kept"], 2)
        assert 0 < payload["kept"] < 200

    def test_label_subset_round_trip(self, tmp_path):
        path, _ = self.write_data(tmp_path, with_labels=True)
        cfg = {
            "seed": 0,
            "data": {"csv": path, "label_column": 2},
            "mode": {"kind": "label_subset", "labels": [0, 2]},
        }
        out = run(tmp_path, "resample", cfg)
        kept, labels = load_csv(str(out / "kept.csv"), label_column=2)
        assert set(labels) <= {0.0, 2.0}
        payload = read_results(out, drop_timestamp=False)
        assert payload["kept"] == kept.shape[0]
        # every third row carries each label, and 0/2 are kept
        assert kept.shape[0] == 67 + 66

    def test_echo_reproduces_kept_rows(self, tmp_path):
        path, _ = self.write_data(tmp_path)
        cfg = {
            "seed": 4,
            "data": {"csv": path},
            "mode": {"kind": "pca_sigmoid", "a": 1.0, "b": 0.5},
        }
        out1 = run(tmp_path, "resample", cfg, out="a")
        echo = json.loads((out1 / "config_echo.json").read_text())
        out2 = run(tmp_path, "resample", echo, out="b")
        assert (out1 / "kept.csv").read_bytes() == (out2 / "kept.csv").read_bytes()
        assert read_results(out1) == read_results(out2)


class TestFailureModes:
    def test_missing_config_file(self, tmp_path, capsys):
        code, msg = fail_code(capsys, ["estimate", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in msg

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({**ESTIMATE, "mystery": 1}))
        code, msg = fail_code(capsys, ["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "mystery" in msg
        assert not (tmp_path / "o").exists()

    def test_bad_csv_reports_line(self, tmp_path, capsys):
        (tmp_path / "p.csv").write_text("1.0\n2.0\nbogus\n")
        cfg = dict(ESTIMATE)
        cfg["p"] = {"csv": str(tmp_path / "p.csv")}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        code, msg = fail_code(capsys, ["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 3" in msg

    @pytest.mark.parametrize(
        "command, cell, where",
        [
            ("estimate", "nan", "line 3: non-finite value 'nan' in column 0"),
            ("downstream", "nan", "line 3: non-finite value 'nan' in column 2"),
            ("downstream", "inf", "line 3: non-finite value 'inf' in column 2"),
        ],
    )
    def test_non_finite_csv_value_reports_line(self, tmp_path, capsys, command, cell, where):
        good = [f"{0.1 * i},{0.2 * i},{i % 2}" for i in range(40)]
        bad = good[:2] + [f"0.3,0.6,{cell}"] + good[3:] if command == "downstream" else ["1.0", "2.0", cell, "4.0"]
        (tmp_path / "bad.csv").write_text("\n".join(bad) + "\n")
        (tmp_path / "good.csv").write_text("\n".join(good) + "\n")
        if command == "estimate":
            cfg = dict(ESTIMATE, p={"csv": str(tmp_path / "bad.csv")})
        else:
            cfg = {"seed": 2, "train": {"csv": str(tmp_path / "bad.csv"), "label_column": -1},
                   "test": {"csv": str(tmp_path / "good.csv"), "label_column": -1}}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        code, msg = fail_code(capsys, [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert msg.endswith(f"bad.csv: {where}")
        assert not (tmp_path / "o").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(ESTIMATE))
        code, _ = fail_code(capsys, ["estimate", "--config", str(cfg_path), "--seed", "-1", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_zero_threads_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(ESTIMATE))
        code, _ = fail_code(capsys, ["estimate", "--config", str(cfg_path), "--threads", "0", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_dimension_mismatch(self, tmp_path, capsys):
        cfg = dict(ESTIMATE)
        cfg["q"] = {"density": {"kind": "gaussian", "mean": [0.0, 0.0], "std": 1.0}, "n": 50}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        code, msg = fail_code(capsys, ["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "dimension" in msg

    @pytest.mark.parametrize("block, key, value", [
        (None, "seed", np.inf),
        ("cv", "max_points", np.inf),
        ("cv", "fraction", np.nan),
        ("grids", "t", [np.nan]),
        ("grids", "lambda", [np.inf]),
        ("solver", "t_prime_ratio", np.inf),
        ("solver", "t_prime_ratio", 10 ** 400),
    ], ids=["seed-inf", "cv.max_points-inf", "cv.fraction-nan", "grids.t-nan", "grids.lambda-inf",
            "solver.t_prime_ratio-inf", "solver.t_prime_ratio-huge-int"])
    def test_non_finite_number_exits_2_before_writing(self, tmp_path, capsys, block, key, value):
        cfg = json.loads(json.dumps(ESTIMATE))
        (cfg if block is None else cfg.setdefault(block, {}))[key] = value
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))  # NaN, Infinity and long integers, which Python's json reads back
        code, msg = fail_code(capsys, ["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert msg.startswith(f"{block or 'config'}.{key} must be")
        assert not (tmp_path / "o").exists()
