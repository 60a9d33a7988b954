import json

import numpy as np
import pytest

from firedre.baselines import GaussianDensity, MixtureDensity, UniformDensity
from firedre.config import (
    BenchConfig,
    ConfigError,
    DownstreamConfig,
    EstimateConfig,
    GridConfig,
    ResampleConfig,
    SolverConfig,
    SourceConfig,
    density_from_dict,
    density_to_dict,
    load_config,
)
from firedre.selection import SETTINGS

GAUSS = {"kind": "gaussian", "mean": [0.0], "std": 1.0}


def estimate_dict(**over):
    d = {
        "p": {"density": GAUSS, "n": 100},
        "q": {"density": GAUSS, "n": 100},
    }
    d.update(over)
    return d


class TestDensitySpecs:
    def test_round_trips(self):
        specs = [
            {"kind": "gaussian", "mean": [1.0, 2.0], "std": 0.5},
            {"kind": "uniform", "low": [0.0], "high": [1.0]},
            {
                "kind": "mixture",
                "weights": [0.25, 0.75],
                "components": [GAUSS, {"kind": "gaussian", "mean": [3.0], "std": 2.0}],
            },
        ]
        for d in specs:
            spec = density_from_dict(d)
            assert density_to_dict(spec) == d

    def test_kinds(self):
        assert isinstance(density_from_dict(GAUSS), GaussianDensity)
        assert isinstance(density_from_dict({"kind": "uniform", "low": [0.0], "high": [1.0]}), UniformDensity)
        mix = density_from_dict(
            {"kind": "mixture", "weights": [1.0], "components": [GAUSS]}
        )
        assert isinstance(mix, MixtureDensity)

    def test_errors(self):
        with pytest.raises(ConfigError, match="kind"):
            density_from_dict({"kind": "cauchy"})
        with pytest.raises(ConfigError, match="missing field"):
            density_from_dict({"kind": "gaussian", "mean": [0.0]})
        with pytest.raises(ConfigError, match="unknown keys"):
            density_from_dict({"kind": "gaussian", "mean": [0.0], "std": 1.0, "scale": 2})
        with pytest.raises(ConfigError):
            density_from_dict({"kind": "gaussian", "mean": [0.0], "std": -1.0})


class TestSourceConfig:
    def test_csv_form(self):
        src = SourceConfig.from_dict({"csv": "a.csv", "label_column": 2}, "p")
        assert src.csv == "a.csv" and src.label_column == 2 and src.density is None

    def test_density_form(self):
        src = SourceConfig.from_dict({"density": GAUSS, "n": 50}, "p")
        assert src.csv is None and src.n == 50
        assert isinstance(src.density, GaussianDensity)

    def test_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            SourceConfig.from_dict({}, "p")
        with pytest.raises(ConfigError, match="exactly one"):
            SourceConfig.from_dict({"csv": "a.csv", "density": GAUSS, "n": 5}, "p")

    def test_density_needs_n(self):
        with pytest.raises(ConfigError, match="n is required"):
            SourceConfig.from_dict({"density": GAUSS}, "p")


class TestSolverAndGrids:
    def test_solver_settings(self):
        for s in ("type1", "type15", "type2", "rkhs_loss"):
            assert SolverConfig.from_dict({"setting": s}).setting == s
        assert SolverConfig.from_dict({"setting": "combined", "gamma": 0.5}).gamma == 0.5
        with pytest.raises(ConfigError, match="setting"):
            SolverConfig.from_dict({"setting": "type1_l2p"})
        with pytest.raises(ConfigError, match="gamma"):
            SolverConfig.from_dict({"setting": "combined"})
        with pytest.raises(ConfigError, match="gamma"):
            SolverConfig.from_dict({"setting": "combined", "gamma": 1.5})

    def test_solver_settings_are_the_table_keys(self):
        for s, row in SETTINGS.items():
            solver = {"setting": s, "gamma": 0.5} if row.needs_gamma else {"setting": s}
            assert SolverConfig.from_dict(solver).setting == s
        for s in ("type1_l2p", "mystery", "TYPE1", ""):
            with pytest.raises(ConfigError, match="setting must be one of") as err:
                SolverConfig.from_dict({"setting": s})
            assert str(sorted(SETTINGS)) in str(err.value)
        for s in (s for s, row in SETTINGS.items() if row.needs_gamma):
            with pytest.raises(ConfigError, match=f"{s} setting requires gamma"):
                SolverConfig.from_dict({"setting": s})

    def test_solver_normalized_flag(self):
        assert SolverConfig.from_dict({}).normalized is True
        cfg = SolverConfig.from_dict({"setting": "type1", "normalized": False})
        assert cfg.normalized is False
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ConfigError, match="normalized"):
            SolverConfig.from_dict({"normalized": "yes"})

    def test_grid_defaults(self):
        g = GridConfig.from_dict({})
        assert g.t is None
        assert g.lam == (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
        assert g.neighbors == 10 and g.size == 10

    def test_grid_validation(self):
        assert GridConfig.from_dict({"t": [0.5, 1.0]}).t == (0.5, 1.0)
        with pytest.raises(ConfigError, match="positive"):
            GridConfig.from_dict({"t": [0.5, -1.0]})
        with pytest.raises(ConfigError, match="lambda"):
            GridConfig.from_dict({"lambda": []})


class TestEstimateConfig:
    def test_minimal(self):
        cfg = EstimateConfig.from_dict(estimate_dict())
        assert cfg.solver.setting == "type1"
        assert cfg.cv.folds == 5
        assert cfg.clip_negative is False

    def test_round_trip_is_stable(self):
        cfg = EstimateConfig.from_dict(estimate_dict(seed=7, solver={"setting": "combined", "gamma": 0.3}))
        again = EstimateConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(cfg.to_dict(), sort_keys=True)

    def test_p_required(self):
        with pytest.raises(ConfigError, match="config.p"):
            EstimateConfig.from_dict({"q": {"density": GAUSS, "n": 5}})

    def test_non_type2_needs_q(self):
        with pytest.raises(ConfigError, match="q sample"):
            EstimateConfig.from_dict({"p": {"density": GAUSS, "n": 5}})

    def test_type2_takes_q_function_only(self):
        d = {
            "p": {"density": GAUSS, "n": 5},
            "solver": {"setting": "type2"},
            "q_function": GAUSS,
        }
        cfg = EstimateConfig.from_dict(d)
        assert isinstance(cfg.q_function, GaussianDensity) and cfg.q is None
        with pytest.raises(ConfigError, match="q_function"):
            EstimateConfig.from_dict({"p": {"density": GAUSS, "n": 5}, "solver": {"setting": "type2"}})
        with pytest.raises(ConfigError, match="not a q sample"):
            EstimateConfig.from_dict(
                {
                    "p": {"density": GAUSS, "n": 5},
                    "q": {"density": GAUSS, "n": 5},
                    "solver": {"setting": "type2"},
                    "q_function": GAUSS,
                }
            )
        with pytest.raises(ConfigError, match="only valid"):
            EstimateConfig.from_dict(estimate_dict(q_function=GAUSS))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            EstimateConfig.from_dict(estimate_dict(bogus=1))

    def test_cv_bounds(self):
        with pytest.raises(ConfigError, match="folds"):
            EstimateConfig.from_dict(estimate_dict(cv={"folds": 1}))
        with pytest.raises(ConfigError, match="fraction"):
            EstimateConfig.from_dict(estimate_dict(cv={"fraction": 1.5}))


class TestBenchConfig:
    def test_defaults_and_round_trip(self):
        cfg = BenchConfig.from_dict({"p_density": GAUSS, "q_density": GAUSS})
        assert cfg.n_grid == (50, 200, 1000)
        assert cfg.methods == ("fire", "tikde", "lsif")
        assert BenchConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ConfigError, match="p_density"):
            BenchConfig.from_dict({"q_density": GAUSS})
        with pytest.raises(ConfigError, match="n_grid"):
            BenchConfig.from_dict({"p_density": GAUSS, "q_density": GAUSS, "n_grid": [1]})
        with pytest.raises(ConfigError, match="methods"):
            BenchConfig.from_dict({"p_density": GAUSS, "q_density": GAUSS, "methods": ["kmm"]})


class TestDownstreamConfig:
    def base(self, **over):
        d = {
            "train": {"csv": "train.csv", "label_column": -1},
            "test": {"csv": "test.csv", "label_column": -1},
        }
        d.update(over)
        return d

    def test_minimal_and_round_trip(self):
        cfg = DownstreamConfig.from_dict(self.base())
        assert cfg.task == "regression" and cfg.clip_weights is True
        assert DownstreamConfig.from_dict(cfg.to_dict()) == cfg

    def test_labels_required_for_csv(self):
        with pytest.raises(ConfigError, match="label_column"):
            DownstreamConfig.from_dict(self.base(train={"csv": "train.csv"}))

    def test_type2_rejected(self):
        with pytest.raises(ConfigError, match="type2"):
            DownstreamConfig.from_dict(self.base(solver={"setting": "type2"}))

    def test_every_q_fn_setting_rejected(self):
        for s, row in SETTINGS.items():
            solver = {"setting": s, "gamma": 0.5} if row.needs_gamma else {"setting": s}
            if row.reads_q_fn:
                with pytest.raises(ConfigError, match=f"sampled q; {s} is not supported"):
                    DownstreamConfig.from_dict(self.base(solver=solver))
            else:
                assert DownstreamConfig.from_dict(self.base(solver=solver)).solver.setting == s

    def test_train_sizes(self):
        cfg = DownstreamConfig.from_dict(self.base(train_sizes=[10, 20]))
        assert cfg.train_sizes == (10, 20)
        with pytest.raises(ConfigError, match="train_sizes"):
            DownstreamConfig.from_dict(self.base(train_sizes=[1]))

    def test_bad_task(self):
        with pytest.raises(ConfigError, match="task"):
            DownstreamConfig.from_dict(self.base(task="ranking"))


class TestResampleConfig:
    def test_pca_sigmoid(self):
        cfg = ResampleConfig.from_dict(
            {"data": {"csv": "d.csv"}, "mode": {"kind": "pca_sigmoid", "a": 2.0, "b": 1.0, "b_units": "sigma"}}
        )
        assert cfg.mode.kind == "pca_sigmoid" and cfg.mode.a == 2.0 and cfg.mode.b_units == "sigma"
        assert ResampleConfig.from_dict(cfg.to_dict()) == cfg

    def test_label_subset(self):
        cfg = ResampleConfig.from_dict(
            {"data": {"csv": "d.csv", "label_column": 0}, "mode": {"kind": "label_subset", "labels": [1, 2]}}
        )
        assert cfg.mode.labels == (1, 2)
        assert ResampleConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ConfigError, match="kind"):
            ResampleConfig.from_dict({"data": {"csv": "d.csv"}, "mode": {"kind": "dropout"}})
        with pytest.raises(ConfigError, match="a is required"):
            ResampleConfig.from_dict({"data": {"csv": "d.csv"}, "mode": {"kind": "pca_sigmoid", "b": 0.0}})
        with pytest.raises(ConfigError, match="b_units"):
            ResampleConfig.from_dict(
                {"data": {"csv": "d.csv"}, "mode": {"kind": "pca_sigmoid", "a": 1.0, "b": 0.0, "b_units": "pct"}}
            )
        with pytest.raises(ConfigError, match="labels"):
            ResampleConfig.from_dict({"data": {"csv": "d.csv"}, "mode": {"kind": "label_subset", "labels": []}})


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.json"), EstimateConfig)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path), EstimateConfig)

    def test_valid_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(estimate_dict()))
        cfg = load_config(str(path), EstimateConfig)
        assert cfg.p.n == 100
