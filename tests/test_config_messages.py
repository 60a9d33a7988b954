"""Pinned configuration behaviour: the full text of every ConfigError, and one default per field.

The message table fixes what a user sees for each rejected config: unknown
keys, missing required blocks, every range bound, choice and list check, and
the rules that join fields.  Non-finite numbers (JSON's NaN and Infinity) are
rejected with the key named.
"""

import ast
import dataclasses
import math
import re

import pytest

from firedre.config import (
    BenchConfig,
    ConfigError,
    CVConfig,
    DownstreamConfig,
    EstimateConfig,
    GridConfig,
    ResampleConfig,
    ResampleMode,
    SolverConfig,
    SourceConfig,
    SvmConfig,
    ValidationConfig,
)

GAUSS = {"kind": "gaussian", "mean": [0.0], "std": 1.0}
NAN, INF = math.nan, math.inf
EST = {"p": {"density": GAUSS, "n": 100}, "q": {"density": GAUSS, "n": 100}}
BENCH = {"p_density": GAUSS, "q_density": GAUSS}
DOWN = {"train": {"csv": "train.csv", "label_column": -1}, "test": {"csv": "test.csv", "label_column": -1}}
RES = {"data": {"csv": "d.csv"}, "mode": {"kind": "pca_sigmoid", "a": 1.0, "b": 0.0}}


def over(base, **kw):
    d = dict(base)
    d.update(kw)
    return d


# (id, config class, dict, the full ConfigError text)
MESSAGES = [
    ("solver-not-object", SolverConfig, [],
     "solver must be a JSON object, got list"),
    ("solver-unknown", SolverConfig, {"solvr": 1},
     "solver: unknown keys ['solvr'] (allowed: ['gamma', 'normalized', 'setting', 't_prime_ratio'])"),
    ("solver-setting", SolverConfig, {"setting": "type1_l2p"},
     "solver.setting must be one of ['combined', 'rkhs_loss', 'type1', 'type15', 'type2'], got 'type1_l2p'"),
    ("solver-setting-null", SolverConfig, {"setting": None},
     "solver.setting must be one of ['combined', 'rkhs_loss', 'type1', 'type15', 'type2'], got None"),
    ("solver-gamma-low", SolverConfig, {"setting": "combined", "gamma": -0.1},
     "solver.gamma must be >= 0.0, got -0.1"),
    ("solver-gamma-high", SolverConfig, {"setting": "combined", "gamma": 1.5},
     "solver.gamma must be <= 1.0, got 1.5"),
    ("solver-gamma-type", SolverConfig, {"setting": "combined", "gamma": "half"},
     "solver.gamma must be a number, got 'half'"),
    ("solver-gamma-bool", SolverConfig, {"setting": "combined", "gamma": True},
     "solver.gamma must be a number, got True"),
    ("solver-combined-needs-gamma", SolverConfig, {"setting": "combined"},
     "solver: combined setting requires gamma in [0, 1]"),
    ("solver-ratio-low", SolverConfig, {"t_prime_ratio": 0},
     "solver.t_prime_ratio must be >= 1e-12, got 0"),
    ("solver-ratio-inf", SolverConfig, {"t_prime_ratio": INF},
     "solver.t_prime_ratio must be a finite number, got inf"),
    ("solver-normalized", SolverConfig, {"normalized": "yes"},
     "solver.normalized must be a boolean, got 'yes'"),
    ("solver-normalized-int", SolverConfig, {"normalized": 1},
     "solver.normalized must be a boolean, got 1"),
    ("grids-unknown", GridConfig, {"lam": [1e-3]},
     "grids: unknown keys ['lam'] (allowed: ['lambda', 'neighbors', 'size', 't'])"),
    ("grids-t-empty", GridConfig, {"t": []},
     "grids.t must be a non-empty list of positive numbers"),
    ("grids-t-negative", GridConfig, {"t": [0.5, -1.0]},
     "grids.t must be a non-empty list of positive numbers"),
    ("grids-t-type", GridConfig, {"t": "wide"},
     "grids.t must be a non-empty list of positive numbers"),
    ("grids-t-nan", GridConfig, {"t": [NAN]},
     "grids.t must be a non-empty list of positive numbers"),
    ("grids-t-inf", GridConfig, {"t": [1.0, INF]},
     "grids.t must be a non-empty list of positive numbers"),
    ("grids-lambda-empty", GridConfig, {"lambda": []},
     "grids.lambda must be a non-empty list of positive numbers"),
    ("grids-lambda-zero", GridConfig, {"lambda": [0]},
     "grids.lambda must be a non-empty list of positive numbers"),
    ("grids-lambda-inf", GridConfig, {"lambda": [INF]},
     "grids.lambda must be a non-empty list of positive numbers"),
    ("grids-lambda-nan", GridConfig, {"lambda": [1e-3, NAN]},
     "grids.lambda must be a non-empty list of positive numbers"),
    ("grids-t-repeat", GridConfig, {"t": [0.5, 1.0, 1.0]},
     "grids.t must not repeat an entry, got [0.5, 1.0, 1.0]"),
    ("grids-lambda-repeat", GridConfig, {"lambda": [1e-3, 1e-4, 1e-3]},
     "grids.lambda must not repeat an entry, got [0.001, 0.0001, 0.001]"),
    ("grids-neighbors-low", GridConfig, {"neighbors": 0},
     "grids.neighbors must be >= 1, got 0"),
    ("grids-neighbors-int", GridConfig, {"neighbors": 1.5},
     "grids.neighbors must be an integer, got 1.5"),
    ("grids-size-low", GridConfig, {"size": 0},
     "grids.size must be >= 1, got 0"),
    ("validation-unknown", ValidationConfig, {"kind": "linear"},
     "validation: unknown keys ['kind'] (allowed: ['anchor_count', 'count', 'family'])"),
    ("validation-family", ValidationConfig, {"family": "cubic"},
     "validation.family must be one of ['coordinate', 'halfspace', 'kernel_combo', 'kernel_indicator', 'linear'], got 'cubic'"),
    ("validation-count-low", ValidationConfig, {"count": 0},
     "validation.count must be >= 1, got 0"),
    ("validation-anchor-low", ValidationConfig, {"anchor_count": 0},
     "validation.anchor_count must be >= 1, got 0"),
    ("cv-unknown", CVConfig, {"fold": 3},
     "cv: unknown keys ['fold'] (allowed: ['folds', 'fraction', 'max_points', 'type2_q_points'])"),
    ("cv-folds-low", CVConfig, {"folds": 1},
     "cv.folds must be >= 2, got 1"),
    ("cv-folds-int", CVConfig, {"folds": 2.5},
     "cv.folds must be an integer, got 2.5"),
    ("cv-fraction-low", CVConfig, {"fraction": 0},
     "cv.fraction must be >= 1e-06, got 0"),
    ("cv-fraction-high", CVConfig, {"fraction": 1.5},
     "cv.fraction must be <= 1.0, got 1.5"),
    ("cv-fraction-nan", CVConfig, {"fraction": NAN},
     "cv.fraction must be a finite number, got nan"),
    ("cv-max-points-low", CVConfig, {"max_points": 10},
     "cv.max_points must be >= 20, got 10"),
    ("cv-max-points-inf", CVConfig, {"max_points": INF},
     "cv.max_points must be a finite number, got inf"),
    ("cv-type2-q-points-low", CVConfig, {"type2_q_points": 5},
     "cv.type2_q_points must be >= 10, got 5"),
    ("svm-unknown", SvmConfig, {"c": 1.0},
     "svm: unknown keys ['c'] (allowed: ['C', 'epochs'])"),
    ("svm-C-low", SvmConfig, {"C": 0},
     "svm.C must be >= 1e-12, got 0"),
    ("svm-epochs-low", SvmConfig, {"epochs": 0},
     "svm.epochs must be >= 1, got 0"),
    ("estimate-not-object", EstimateConfig, [1],
     "config must be a JSON object, got list"),
    ("estimate-unknown", EstimateConfig, over(EST, bogus=1),
     "config: unknown keys ['bogus'] (allowed: ['clip_negative', 'cv', 'grids', 'p', 'q', 'q_function', 'seed', 'solver', 'validation'])"),
    ("estimate-p-required", EstimateConfig, {"q": EST["q"]},
     "config.p is required"),
    ("estimate-p-null", EstimateConfig, over(EST, p=None),
     "p must be a JSON object, got NoneType"),
    ("estimate-seed-low", EstimateConfig, over(EST, seed=-1),
     "config.seed must be >= 0, got -1"),
    ("estimate-seed-int", EstimateConfig, over(EST, seed=1.5),
     "config.seed must be an integer, got 1.5"),
    ("estimate-seed-type", EstimateConfig, over(EST, seed="7"),
     "config.seed must be a number, got '7'"),
    ("estimate-seed-inf", EstimateConfig, over(EST, seed=INF),
     "config.seed must be a finite number, got inf"),
    ("estimate-seed-nan", EstimateConfig, over(EST, seed=NAN),
     "config.seed must be a finite number, got nan"),
    ("estimate-p-both", EstimateConfig, over(EST, p={"csv": "a.csv", "density": GAUSS, "n": 5}),
     "p: exactly one of 'csv' or 'density' is required"),
    ("estimate-p-neither", EstimateConfig, over(EST, p={}),
     "p: exactly one of 'csv' or 'density' is required"),
    ("estimate-p-unknown", EstimateConfig, over(EST, p={"csv": "a.csv", "path": "b"}),
     "p: unknown keys ['path'] (allowed: ['csv', 'density', 'label_column', 'n'])"),
    ("estimate-p-csv-type", EstimateConfig, over(EST, p={"csv": 3}),
     "p.csv must be a path string"),
    ("estimate-p-label-int", EstimateConfig, over(EST, p={"csv": "a.csv", "label_column": 1.5}),
     "p.label_column must be an integer, got 1.5"),
    ("estimate-p-n-required", EstimateConfig, over(EST, p={"density": GAUSS}),
     "p.n is required"),
    ("estimate-p-n-low", EstimateConfig, over(EST, p={"density": GAUSS, "n": 0}),
     "p.n must be >= 1, got 0"),
    ("estimate-p-density-kind", EstimateConfig, over(EST, p={"density": {"kind": "cauchy"}, "n": 5}),
     "p.density.kind must be gaussian, uniform, or mixture, got 'cauchy'"),
    ("estimate-p-density-field", EstimateConfig, over(EST, p={"density": {"kind": "gaussian", "mean": [0.0]}, "n": 5}),
     "p.density: missing field 'std' for kind 'gaussian'"),
    ("estimate-type2-needs-q-function", EstimateConfig, {"p": EST["p"], "solver": {"setting": "type2"}},
     "type2 needs config.q_function (an analytic density)"),
    ("estimate-type2-no-q-sample", EstimateConfig, over(EST, solver={"setting": "type2"}, q_function=GAUSS),
     "type2 takes q_function, not a q sample"),
    ("estimate-needs-q-sample", EstimateConfig, {"p": EST["p"]},
     "setting 'type1' needs a q sample source"),
    ("estimate-q-function-only-type2", EstimateConfig, over(EST, q_function=GAUSS),
     "q_function is only valid for settings that read it, not 'type1'"),
    ("estimate-q-function-kind", EstimateConfig, {"p": EST["p"], "solver": {"setting": "type2"}, "q_function": {"kind": "cauchy"}},
     "q_function.kind must be gaussian, uniform, or mixture, got 'cauchy'"),
    ("estimate-clip-negative", EstimateConfig, over(EST, clip_negative="no"),
     "config.clip_negative must be a boolean"),
    ("estimate-clip-negative-null", EstimateConfig, over(EST, clip_negative=None),
     "config.clip_negative must be a boolean"),
    ("estimate-solver-null", EstimateConfig, over(EST, solver=None),
     "solver must be a JSON object, got NoneType"),
    ("estimate-solver-setting", EstimateConfig, over(EST, solver={"setting": "mystery"}),
     "solver.setting must be one of ['combined', 'rkhs_loss', 'type1', 'type15', 'type2'], got 'mystery'"),
    ("estimate-grids-lambda", EstimateConfig, over(EST, grids={"lambda": [-1.0]}),
     "grids.lambda must be a non-empty list of positive numbers"),
    ("estimate-validation-count", EstimateConfig, over(EST, validation={"count": 0}),
     "validation.count must be >= 1, got 0"),
    ("estimate-cv-folds", EstimateConfig, over(EST, cv={"folds": 1}),
     "cv.folds must be >= 2, got 1"),
    ("estimate-cv-fraction-nan", EstimateConfig, over(EST, cv={"fraction": NAN}),
     "cv.fraction must be a finite number, got nan"),
    ("estimate-cv-max-points-inf", EstimateConfig, over(EST, cv={"max_points": INF}),
     "cv.max_points must be a finite number, got inf"),
    ("estimate-ratio-inf", EstimateConfig, over(EST, solver={"setting": "type15", "t_prime_ratio": INF}),
     "solver.t_prime_ratio must be a finite number, got inf"),
    ("bench-unknown", BenchConfig, over(BENCH, reps=3),
     "config: unknown keys ['reps'] (allowed: ['eval_n', 'grids', 'm', 'methods', 'n_grid', 'p_density', 'q_density', 'repetitions', 'seed', 'solver'])"),
    ("bench-p-density-required", BenchConfig, {"q_density": GAUSS},
     "config.p_density is required"),
    ("bench-q-density-required", BenchConfig, {"p_density": GAUSS},
     "config.q_density is required"),
    ("bench-p-density-kind", BenchConfig, over(BENCH, p_density={"kind": "cauchy"}),
     "p_density.kind must be gaussian, uniform, or mixture, got 'cauchy'"),
    ("bench-q-density-std", BenchConfig, over(BENCH, q_density={"kind": "gaussian", "mean": [0.0], "std": -1.0}),
     "q_density: std must be finite and > 0, got -1.0"),
    ("bench-p-density-mean-nan", BenchConfig, over(BENCH, p_density={"kind": "gaussian", "mean": [0.0, NAN], "std": 1.0}),
     "p_density.mean must hold finite numbers, got [0.0, nan]"),
    ("bench-q-density-low-inf", BenchConfig, over(BENCH, q_density={"kind": "uniform", "low": [-INF], "high": [1.0]}),
     "q_density.low must hold finite numbers, got [-inf]"),
    ("bench-q-density-high-inf", BenchConfig, over(BENCH, q_density={"kind": "uniform", "low": [0.0], "high": [INF]}),
     "q_density.high must hold finite numbers, got [inf]"),
    ("bench-p-density-weights-nan", BenchConfig,
     over(BENCH, p_density={"kind": "mixture", "weights": [NAN, 1.0], "components": [GAUSS, GAUSS]}),
     "p_density.weights must hold finite numbers, got [nan, 1.0]"),
    ("estimate-p-density-component-mean-inf", EstimateConfig,
     over(EST, p={"density": {"kind": "mixture", "weights": [1.0],
                              "components": [{"kind": "gaussian", "mean": INF, "std": 1.0}]}, "n": 5}),
     "p.density.components[0].mean must hold finite numbers, got inf"),
    ("bench-n-grid-low", BenchConfig, over(BENCH, n_grid=[1]),
     "config.n_grid must be a non-empty list of ints >= 2"),
    ("bench-n-grid-empty", BenchConfig, over(BENCH, n_grid=[]),
     "config.n_grid must be a non-empty list of ints >= 2"),
    ("bench-n-grid-float", BenchConfig, over(BENCH, n_grid=[50.0]),
     "config.n_grid must be a non-empty list of ints >= 2"),
    ("bench-n-grid-null", BenchConfig, over(BENCH, n_grid=None),
     "config.n_grid must be a non-empty list of ints >= 2"),
    ("bench-n-grid-repeat", BenchConfig, over(BENCH, n_grid=[50, 200, 50]),
     "config.n_grid must not repeat an entry, got [50, 200, 50]"),
    ("bench-methods-unknown", BenchConfig, over(BENCH, methods=["kmm"]),
     "config.methods must be a non-empty subset of ['fire', 'lsif', 'tikde']"),
    ("bench-methods-empty", BenchConfig, over(BENCH, methods=[]),
     "config.methods must be a non-empty subset of ['fire', 'lsif', 'tikde']"),
    ("bench-methods-repeat", BenchConfig, over(BENCH, methods=["fire", "fire"]),
     "config.methods must not repeat an entry, got ['fire', 'fire']"),
    ("bench-m-low", BenchConfig, over(BENCH, m=1),
     "config.m must be >= 2, got 1"),
    ("bench-repetitions-low", BenchConfig, over(BENCH, repetitions=0),
     "config.repetitions must be >= 1, got 0"),
    ("bench-eval-n-low", BenchConfig, over(BENCH, eval_n=5),
     "config.eval_n must be >= 10, got 5"),
    ("bench-seed-low", BenchConfig, over(BENCH, seed=-2),
     "config.seed must be >= 0, got -2"),
    ("bench-grids-t", BenchConfig, over(BENCH, grids={"t": [0.0]}),
     "grids.t must be a non-empty list of positive numbers"),
    ("downstream-unknown", DownstreamConfig, over(DOWN, weights=True),
     "config: unknown keys ['weights'] (allowed: ['clip_weights', 'cv', 'grids', 'ratio_q', 'seed', 'solver', 'svm', 'task', 'test', 'train', 'train_sizes', 'validation'])"),
    ("downstream-task", DownstreamConfig, over(DOWN, task="ranking"),
     "config.task must be regression or classification, got 'ranking'"),
    ("downstream-train-required", DownstreamConfig, {"test": DOWN["test"]},
     "config.train is required"),
    ("downstream-test-required", DownstreamConfig, {"train": DOWN["train"]},
     "config.test is required"),
    ("downstream-train-label", DownstreamConfig, over(DOWN, train={"csv": "train.csv"}),
     "config.train needs label_column for supervised evaluation"),
    ("downstream-test-label", DownstreamConfig, over(DOWN, test={"csv": "test.csv"}),
     "config.test needs label_column for supervised evaluation"),
    ("downstream-ratio-q-source", DownstreamConfig, over(DOWN, ratio_q={}),
     "ratio_q: exactly one of 'csv' or 'density' is required"),
    ("downstream-train-sizes-low", DownstreamConfig, over(DOWN, train_sizes=[1]),
     "config.train_sizes must be a non-empty list of ints >= 2"),
    ("downstream-train-sizes-type", DownstreamConfig, over(DOWN, train_sizes="all"),
     "config.train_sizes must be a non-empty list of ints >= 2"),
    ("downstream-train-sizes-repeat", DownstreamConfig, over(DOWN, train_sizes=[100, 100]),
     "config.train_sizes must not repeat an entry, got [100, 100]"),
    ("downstream-clip-weights", DownstreamConfig, over(DOWN, clip_weights="yes"),
     "config.clip_weights must be a boolean"),
    ("downstream-type2", DownstreamConfig, over(DOWN, solver={"setting": "type2"}),
     "downstream ratio fitting needs a sampled q; type2 is not supported here"),
    ("downstream-svm-C", DownstreamConfig, over(DOWN, svm={"C": 0}),
     "svm.C must be >= 1e-12, got 0"),
    ("downstream-svm-unknown", DownstreamConfig, over(DOWN, svm={"epoch": 5}),
     "svm: unknown keys ['epoch'] (allowed: ['C', 'epochs'])"),
    ("downstream-seed-inf", DownstreamConfig, over(DOWN, seed=INF),
     "config.seed must be a finite number, got inf"),
    ("resample-unknown", ResampleConfig, over(RES, out="x"),
     "config: unknown keys ['out'] (allowed: ['data', 'mode', 'seed'])"),
    ("resample-data-required", ResampleConfig, {"mode": RES["mode"]},
     "config.data is required"),
    ("resample-mode-unknown", ResampleConfig, over(RES, mode={"kind": "pca_sigmoid", "a": 1.0, "b": 0.0, "c": 1}),
     "mode: unknown keys ['c'] (allowed: ['a', 'b', 'b_units', 'kind', 'labels'])"),
    ("resample-mode-kind", ResampleConfig, over(RES, mode={"kind": "dropout"}),
     "mode.kind must be pca_sigmoid or label_subset, got 'dropout'"),
    ("resample-a-required", ResampleConfig, over(RES, mode={"kind": "pca_sigmoid", "b": 0.0}),
     "mode.a is required"),
    ("resample-b-required", ResampleConfig, over(RES, mode={"kind": "pca_sigmoid", "a": 1.0}),
     "mode.b is required"),
    ("resample-a-nan", ResampleConfig, over(RES, mode={"kind": "pca_sigmoid", "a": NAN, "b": 0.0}),
     "mode.a must be a finite number, got nan"),
    ("resample-b-units", ResampleConfig, over(RES, mode={"kind": "pca_sigmoid", "a": 1.0, "b": 0.0, "b_units": "pct"}),
     "mode.b_units must be absolute or sigma, got 'pct'"),
    ("resample-labels", ResampleConfig, over(RES, mode={"kind": "label_subset", "labels": []}),
     "mode.labels must be a non-empty list"),
    ("resample-seed-low", ResampleConfig, over(RES, seed=-1),
     "config.seed must be >= 0, got -1"),
    ("resample-data-source", ResampleConfig, over(RES, data={"csv": "d.csv", "label_column": "last"}),
     "data.label_column must be a number, got 'last'"),
]


@pytest.mark.parametrize("cls, d, message", [pytest.param(*row[1:], id=row[0]) for row in MESSAGES])
def test_error_message(cls, d, message):
    with pytest.raises(ConfigError) as err:
        cls.from_dict(d)
    assert str(err.value) == message


# (id, config class, the smallest dict it accepts)
MINIMAL = [
    ("SolverConfig", SolverConfig, {}),
    ("GridConfig", GridConfig, {}),
    ("ValidationConfig", ValidationConfig, {}),
    ("CVConfig", CVConfig, {}),
    ("SvmConfig", SvmConfig, {}),
    ("SourceConfig-csv", SourceConfig, {"csv": "d.csv"}),
    ("SourceConfig-density", SourceConfig, EST["p"]),
    ("ResampleMode-pca_sigmoid", ResampleMode, RES["mode"]),
    ("ResampleMode-label_subset", ResampleMode, {"kind": "label_subset", "labels": [1, 2]}),
    ("EstimateConfig", EstimateConfig, EST),
    ("BenchConfig", BenchConfig, BENCH),
    ("DownstreamConfig", DownstreamConfig, DOWN),
    ("ResampleConfig", ResampleConfig, RES),
]
MINIMAL_PARAMS = [pytest.param(*row[1:], id=row[0]) for row in MINIMAL]


def _default(f):
    return f.default if f.default is not dataclasses.MISSING else f.default_factory()


@pytest.mark.parametrize("cls, d", MINIMAL_PARAMS)
def test_parsed_defaults_are_the_dataclass_defaults(cls, d):
    cfg = cls.from_dict(d)
    for f in dataclasses.fields(cls):
        if f.name not in d:
            assert getattr(cfg, f.name) == _default(f), f.name


@pytest.mark.parametrize("cls, d", MINIMAL_PARAMS)
def test_echo_keys_are_the_accepted_keys(cls, d):
    with pytest.raises(ConfigError) as err:
        cls.from_dict({**d, "__probe__": 1})
    accepted = ast.literal_eval(re.search(r"\(allowed: (\[.*\])\)$", str(err.value)).group(1))
    echo = cls.from_dict(d).to_dict()
    assert set(echo) == set(accepted)
    assert cls.from_dict(echo) == cls.from_dict(d)
