"""Time end-to-end CLI runs at fixed, named sizes.

Each run is the median, with the interquartile range, over REPEATS calls
of the runner `firedre <cmd>` calls after loading its config (no
interpreter start-up), with the median of the process's CPU time per call
(all threads, so it counts BLAS workers that spin between calls):

- c04_n1000_fire_t4: `simulate` of fire (type15) at n = 1000, m = 2000,
  eval_n = 2000, 20 repetitions, --threads 4 (the n = 1000 leg of the c04
  acceptance check)
- simulate_n300_3methods_t2: `simulate` of fire (type15), tikde and lsif at
  n = m = 300, eval_n = 2000, 2 repetitions, --threads 2 (the sizes of the
  benchmark's simulate-1d workload; a trial computes its squared distances
  once and reads them in row blocks of the evaluation points)
- estimate_n1000_d1_t1 / _t2: `estimate` at n = m = 1000, d = 1, default
  grids and CV, --threads 1 and 2
- estimate_rkhs_loss_n1000_d1_t1 / estimate_combined_n1000_d1_t1: the same
  `estimate` at --threads 1 with the rkhs_loss and the combined setting,
  gamma = 0.5
- downstream_c08_t1 / _t2: `downstream` on one c08 trial (seed 1000): OLS
  on 800 pca_sigmoid-thinned rows of a 3000-row d = 5 pool, 1000 test rows,
  2000 ratio-q rows, type1 unnormalized, 20 linear validation functions,
  CV on 400 points, --threads 1 and 2

The record also holds the numpy version, the BLAS name and version, nproc,
the BLAS thread count outside and inside the cells, and the BLAS thread
settings found in the environment.  It is appended to the "records" list of
--out, so records of several builds sit side by side.

--src imports firedre from another checkout's src/ directory, to time two
versions with the same harness, and --only names the runs to time:

    python scripts/bench_e2e.py --label change
    python scripts/bench_e2e.py --label parent --src ../parent/src
    python scripts/bench_e2e.py --label change --only estimate_n1000_d1_t1 downstream_c08_t1
"""

import argparse
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# timed calls per run: on a 2-CPU host 3 calls let an unchanged run's
# median move by 25% between records
REPEATS = 7

MIXTURE_1D = {"kind": "mixture", "weights": [0.5, 0.5], "components": [
    {"kind": "gaussian", "mean": [-2.0], "std": 1.0},
    {"kind": "gaussian", "mean": [2.0], "std": 0.5}]}
NARROW_1D = {"kind": "gaussian", "mean": [0.0], "std": 0.5}
C04_LEG = {
    "seed": 11, "p_density": MIXTURE_1D, "q_density": NARROW_1D,
    "n_grid": [1000], "m": 2000, "repetitions": 20, "methods": ["fire"], "eval_n": 2000,
    "solver": {"setting": "type15", "t_prime_ratio": 2.0},
}
SIMULATE_1D = {
    "seed": 13, "p_density": MIXTURE_1D, "q_density": NARROW_1D,
    "n_grid": [300], "m": 300, "repetitions": 2, "methods": ["fire", "tikde", "lsif"], "eval_n": 2000,
    "solver": {"setting": "type15"},
}
ESTIMATE_1D = {
    "seed": 7,
    "p": {"density": {"kind": "gaussian", "mean": [0.0], "std": 1.0}, "n": 1000},
    "q": {"density": {"kind": "gaussian", "mean": [0.5], "std": 0.8}, "n": 1000},
}


def blas_probe():
    """This checkout's firedre.linalg, loaded on its own: reads the process's BLAS thread count."""
    path = os.path.join(HERE, "..", "src", "firedre", "linalg.py")
    spec = importlib.util.spec_from_file_location("bench_e2e_linalg", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.blas_thread_count


def c08_inputs(work, seed=1000, train_n=800):
    """CSV files of one c08 trial (tests/test_acceptance.py::_c8_trial) for `downstream`."""
    import numpy as np

    from firedre import cli
    from firedre.data import pca_resample

    beta = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
    std = np.array([3.0, 0.7, 0.7, 0.7, 0.7])

    def response(X, rng):
        keep = 1.0 / (1.0 + np.exp(-np.clip((2.5 * X[:, 0] - 1.0) / 3.0, -500, 500)))
        return X @ beta + (0.15 + 4.0 * keep) * rng.standard_normal(X.shape[0])

    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((3000, 5)) * std
    y_pool = response(pool, rng)
    res = pca_resample(pool, y_pool, 2.5, 1.0, seed=seed + 99)
    idx = rng.permutation(res.X.shape[0])[:train_n]
    X_te = rng.standard_normal((1000, 5)) * std
    y_te = response(X_te, rng)
    X_q = rng.standard_normal((2000, 5)) * std
    paths = {}
    for name, X, y in (("train", res.X[idx], res.labels[idx]), ("test", X_te, y_te), ("ratio_q", X_q, None)):
        paths[name] = os.path.join(work, f"{name}.csv")
        header = [f"x{j}" for j in range(5)] + ([] if y is None else ["y"])
        cli.write_csv(paths[name], header, X if y is None else np.hstack([X, y[:, None]]))
    return {
        "seed": seed,
        "task": "regression",
        "train": {"csv": paths["train"], "label_column": 5},
        "test": {"csv": paths["test"], "label_column": 5},
        "ratio_q": {"csv": paths["ratio_q"]},
        "solver": {"setting": "type1", "normalized": False},
        "validation": {"family": "linear", "count": 20},
        "cv": {"folds": 5, "max_points": 400},
        "train_sizes": [train_n],
    }


def timed(fn):
    times, cpus = [], []
    for _ in range(REPEATS):
        c0, t0 = time.process_time(), time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": sorted(times)[len(times) // 2], "iqr_s": q3 - q1, "times_s": times,
            "cpu_median_s": sorted(cpus)[len(cpus) // 2]}, result


def run(work, only=None):
    import numpy as np

    from firedre import cli, selection
    from firedre.config import BenchConfig, DownstreamConfig, EstimateConfig

    count = blas_probe()
    outside = count()
    # builds without selection.run_cells leave the BLAS count alone in cells
    run_cells = getattr(selection, "run_cells", None)
    inside = run_cells(lambda _: count(), [None], 2)[0] if run_cells else outside

    # name -> (the timed call, the summary of its payload kept in the record)
    runs = {}
    c04, sim = BenchConfig.from_dict(C04_LEG), BenchConfig.from_dict(SIMULATE_1D)
    runs["c04_n1000_fire_t4"] = (lambda: cli.run_bench(c04, work, threads=4),
                                 lambda p: {"fire_median": p["medians"]["fire"]["1000"]})
    runs["simulate_n300_3methods_t2"] = (lambda: cli.run_bench(sim, work, threads=2),
                                         lambda p: {"medians": {k: v["300"] for k, v in p["medians"].items()}})

    def selected(payload):
        return {"selected": [payload["selected_t"], payload["selected_lambda"]]}

    est = EstimateConfig.from_dict(ESTIMATE_1D)
    for threads in (1, 2):
        runs[f"estimate_n1000_d1_t{threads}"] = (lambda t=threads: cli.run_estimate(est, work, threads=t), selected)
    for setting in ("rkhs_loss", "combined"):
        cfg = EstimateConfig.from_dict({**ESTIMATE_1D, "solver": {"setting": setting, "gamma": 0.5}})
        runs[f"estimate_{setting}_n1000_d1_t1"] = (lambda c=cfg: cli.run_estimate(c, work, threads=1), selected)
    down = DownstreamConfig.from_dict(c08_inputs(work))
    for threads in (1, 2):
        runs[f"downstream_c08_t{threads}"] = (
            lambda t=threads: cli.run_downstream(down, os.path.join(work, "down"), threads=t),
            lambda p: {"mse": {k: v["800"]["mse"] for k, v in p["metrics"].items()}},
        )
    unknown = set(only or ()) - set(runs)
    if unknown:
        raise SystemExit(f"unknown run names: {sorted(unknown)}")

    results = {}
    for name, (call, summary) in runs.items():
        if only and name not in only:
            continue
        results[name], payload = timed(call)
        results[name].update(summary(payload))

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": {"outside_cells": outside, "inside_cells": inside},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "results": results,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the build being timed")
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"), help="directory holding the firedre package")
    parser.add_argument("--out", default=os.path.join(HERE, "..", "BENCH_e2e.json"), help="JSON file to append to")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="time only these runs (default: all)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    with tempfile.TemporaryDirectory() as work:
        record = {"label": args.label, **run(work, args.only)}
    data = {"records": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data["records"].append(record)
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    for name, r in record["results"].items():
        print(f"{args.label:>8} {name:>25}  {r['median_s']:8.3f} s  IQR {r['iqr_s']:6.3f} s"
              f"  cpu {r['cpu_median_s']:8.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
