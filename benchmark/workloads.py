"""The benchmark's two workloads.

Each workload turns the workload seed into generated CSV inputs and a
config seed during set-up, runs firedre CLI runners in each operation, and
checks that operation's output files.  The runners are the functions
``firedre <cmd>`` calls after loading its config, so an operation is one
CLI command (two for the shift-5d pipeline) without the interpreter
start-up and JSON config parsing.

simulate-1d runs below the paper-scale n = m = 1000 so that a 45 s run
holds about 25 operations; README.md gives the reasons.
"""

import csv
import hashlib
import json
import os
from typing import NamedTuple

import numpy as np

from firedre import cli
from firedre.baselines import true_ratio
from firedre.config import BenchConfig, DownstreamConfig, ResampleConfig, density_from_dict
from firedre.data import simulate

# the paper's dataset 1: p = 1/2 N(-2, 1) + 1/2 N(2, 0.5^2), q = N(0, 0.5^2)
P_1D = {"kind": "mixture", "weights": [0.5, 0.5], "components": [
    {"kind": "gaussian", "mean": [-2.0], "std": 1.0},
    {"kind": "gaussian", "mean": [2.0], "std": 0.5}]}
Q_1D = {"kind": "gaussian", "mean": [0.0], "std": 0.5}

# the covariate-shift regression task of scripts/covariate_shift_ols.py
BETA_5D = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
STD_5D = np.array([3.0, 0.7, 0.7, 0.7, 0.7])
SHIFT_A, SHIFT_B = 2.5, 1.0


class OpFailed(Exception):
    """An operation's output failed its check."""


def sub_seed(seed, stage):
    """Stable 63-bit seed for one generated input of a workload."""
    digest = hashlib.sha256(f"bench/{seed}/{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _write_matrix(path, X, label=None):
    header = [f"x{j}" for j in range(X.shape[1])]
    if label is not None:
        header.append("y")
        X = np.hstack([X, label[:, None]])
    cli.write_csv(path, header, X)


def _read_rows(path, width):
    """Parse a results CSV written by firedre; every cell must be a finite number."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or any(len(r) != width for r in rows):
        raise OpFailed(f"{os.path.basename(path)}: expected {width} fields on every line")
    try:
        body = np.array([[float(c) for c in r] for r in rows[1:]], dtype=np.float64).reshape(-1, width)
    except ValueError as exc:
        raise OpFailed(f"{os.path.basename(path)}: {exc}") from None
    if not np.all(np.isfinite(body)):
        raise OpFailed(f"{os.path.basename(path)}: non-finite values")
    return body


def _finite(name, x):
    if x is None or not np.isfinite(x):
        raise OpFailed(f"{name} is not finite: {x!r}")
    return float(x)


def _below(name, value, ceiling):
    """Quality gate: the estimate must beat the trivial one (constant weights, mean prediction)."""
    if not value < ceiling:
        raise OpFailed(f"{name} {value!r} is not below the trivial estimator's {ceiling!r}")
    return float(value)


def output_dir(work):
    """Where the operations of a workload set up in ``work`` write their output."""
    return os.path.join(work, "out")


def output_digest(out_dir):
    """Hash of every output file under out_dir, with results.json's timestamp left out."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "results.json":
                payload = json.loads(data)
                payload.pop("timestamp", None)
                data = json.dumps(payload, sort_keys=True).encode()
            h.update(os.path.relpath(path, out_dir).encode() + b"\0" + data)
    return h.hexdigest()


def _shift_response(X, rng):
    z = (SHIFT_A * X[:, 0] - SHIFT_B) / STD_5D[0]
    keep = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    return X @ BETA_5D + (0.15 + 4.0 * keep) * rng.standard_normal(X.shape[0])


class ShiftConfig(NamedTuple):
    """The two runner configs of the shift-5d pipeline and the directory between them."""

    resample: ResampleConfig
    downstream: DownstreamConfig
    kept_dir: str

    @property
    def seed(self):
        return self.downstream.seed


class Workload:
    """One closed-loop client calling CLI runners.

    ``setup`` writes the inputs under ``work`` and returns the config;
    ``run`` is one operation, writing under ``output_dir(work)``; ``check``
    validates the operation's output files and returns its quality number.
    ``exercises`` lists the span names the traced run must see called.
    """

    name = None
    threads = 1
    quality = None
    exercises = ()

    def __init__(self, small=False):
        self.small = small

    def setup(self, seed, work):
        raise NotImplementedError

    def run(self, cfg, out):
        raise NotImplementedError

    def check(self, cfg, out, payload):
        raise NotImplementedError

    def sizes(self):
        raise NotImplementedError


class Simulate1D(Workload):
    """``simulate`` of fire (type15), tikde and lsif on dataset 1."""

    name = "simulate-1d"
    quality = "ratio_mse"
    threads = min(2, len(os.sched_getaffinity(0)))  # one trial per core
    exercises = ("kernels.gram", "kernels.bandwidth_grid", "linalg.eigh", "linalg.solve", "solvers.path",
                 "baselines.lsif", "baselines.tikde", "data.simulate", "cli.write")
    METHODS = ("fire", "tikde", "lsif")

    def sizes(self):
        n = 80 if self.small else 300
        return {"n": n, "m": n, "eval_n": 400 if self.small else 2000, "repetitions": 2}

    def setup(self, seed, work):
        size = self.sizes()
        p, q = density_from_dict(P_1D), density_from_dict(Q_1D)
        r_q = true_ratio(p, q).evaluate(simulate(q, 20000, sub_seed(seed, "ceiling")))
        self.ceiling = float(np.mean((1.0 - r_q) ** 2))
        return BenchConfig.from_dict({
            "seed": sub_seed(seed, "config"),
            "p_density": P_1D,
            "q_density": Q_1D,
            "n_grid": [size["n"]],
            "m": size["m"],
            "eval_n": size["eval_n"],
            "repetitions": size["repetitions"],
            "methods": list(self.METHODS),
            "solver": {"setting": "type15"},
        })

    def run(self, cfg, out):
        return cli.run_bench(cfg, out, threads=self.threads)

    def check(self, cfg, out, payload):
        n = str(cfg.n_grid[0])
        for method in self.METHODS:
            _finite(f"{method} median", payload["medians"][method][n])
        with open(os.path.join(out, "bench.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != len(self.METHODS) * cfg.repetitions or any(len(r) != 6 for r in rows):
            raise OpFailed("bench.csv does not hold one 6-field row per (method, repetition)")
        for r in rows:
            _finite(f"{r[0]} error", float(r[3]))
        return _below("fire error", payload["medians"]["fire"][n], self.ceiling)




class Shift5D(Workload):
    """The covariate-shift pipeline: ``resample`` a labelled pool, then ``downstream``."""

    name = "shift-5d"
    quality = "test_mse"
    exercises = ("kernels.gram", "kernels.bandwidth_grid", "linalg.eigh", "linalg.solve", "solvers.path",
                 "solvers.fit", "solvers.evaluate", "selection.kfold_cv", "selection.validation",
                 "data.load_csv", "data.pca_resample", "downstream.ols", "cli.write")

    def sizes(self):
        if self.small:
            return {"pool": 600, "test": 300, "ratio_q": 400, "cv_max_points": 100, "train_sizes": [50, 100]}
        return {"pool": 3000, "test": 1000, "ratio_q": 2000, "cv_max_points": 400,
                "train_sizes": [100, 200, 400, 800]}

    def setup(self, seed, work):
        size = self.sizes()
        rng = np.random.default_rng(sub_seed(seed, "data"))
        pool = rng.standard_normal((size["pool"], 5)) * STD_5D
        y_pool = _shift_response(pool, rng)
        X_test = rng.standard_normal((size["test"], 5)) * STD_5D
        y_test = _shift_response(X_test, rng)
        X_q = rng.standard_normal((size["ratio_q"], 5)) * STD_5D
        _write_matrix(os.path.join(work, "pool.csv"), pool, y_pool)
        _write_matrix(os.path.join(work, "test.csv"), X_test, y_test)
        _write_matrix(os.path.join(work, "ratio_q.csv"), X_q)
        config_seed = sub_seed(seed, "config")
        kept = os.path.join(output_dir(work), "resample")
        resample = ResampleConfig.from_dict({
            "seed": config_seed,
            "data": {"csv": os.path.join(work, "pool.csv"), "label_column": 5},
            "mode": {"kind": "pca_sigmoid", "a": SHIFT_A, "b": SHIFT_B},
        })
        downstream = DownstreamConfig.from_dict({
            "seed": config_seed,
            "task": "regression",
            "train": {"csv": os.path.join(kept, "kept.csv"), "label_column": 5},
            "test": {"csv": os.path.join(work, "test.csv"), "label_column": 5},
            "ratio_q": {"csv": os.path.join(work, "ratio_q.csv")},
            "solver": {"setting": "type1", "normalized": False},
            "validation": {"count": 20},
            "cv": {"max_points": size["cv_max_points"]},
            "train_sizes": size["train_sizes"],
        })
        return ShiftConfig(resample, downstream, kept)

    def run(self, cfg, out):
        resampled = cli.run_resample(cfg.resample, cfg.kept_dir)
        fitted = cli.run_downstream(cfg.downstream, os.path.join(out, "downstream"), threads=self.threads)
        return {"resample": resampled, "downstream": fitted}

    def check(self, cfg, out, payload):
        resampled, fitted = payload["resample"], payload["downstream"]
        kept = _read_rows(os.path.join(cfg.kept_dir, "kept.csv"), 6)
        if kept.shape[0] != resampled["kept"] or not 0 < resampled["kept"] < resampled["total"]:
            raise OpFailed(f"kept.csv has {kept.shape[0]} rows, results.json says {resampled['kept']}")
        for variant in ("weighted", "unweighted"):
            for s in cfg.downstream.train_sizes:
                _finite(f"{variant} mse at {s}", fitted["metrics"][variant][str(s)]["mse"])
        w = _read_rows(os.path.join(out, "downstream", "weights.csv"), 1)[:, 0]
        if w.size != kept.shape[0] or np.any(w < 0):
            raise OpFailed("weights.csv must hold one nonnegative weight per kept training row")
        largest = fitted["metrics"]["weighted"][str(cfg.downstream.train_sizes[-1])]
        _below("weighted normalized_mse", largest["normalized_mse"], 1.0)
        return largest["mse"]


WORKLOADS = {w.name: w for w in (Simulate1D, Shift5D)}
