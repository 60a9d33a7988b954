"""What the timers in scripts/ share: their options, their timing loop, the record they append, and the paper's
two fixed tasks.

`options` parses --label, --src and --out (and --only where a timer names its runs) and puts --src first on
sys.path, so a timer can time another checkout's firedre with this harness.  `provenance` holds the build
and host fields every record carries, and `append` adds a record to a JSON file's "records" list and prints
one line per result row.

The tasks are dataset 1 of the paper (`P_1D`, `Q_1D`) and the d = 5 covariate-shift regression
(`shift_inputs`).  Importing this module imports no firedre: firedre is imported inside the functions that
need it, after `options` has put --src on the path.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# the paper's dataset 1: p = 1/2 N(-2, 1) + 1/2 N(2, 0.5^2), q = N(0, 0.5^2)
P_1D = {"kind": "mixture", "weights": [0.5, 0.5], "components": [
    {"kind": "gaussian", "mean": [-2.0], "std": 1.0},
    {"kind": "gaussian", "mean": [2.0], "std": 0.5}]}
Q_1D = {"kind": "gaussian", "mean": [0.0], "std": 0.5}

# the d = 5 covariate-shift regression: features N(0, diag(STD_5D^2)), y = X BETA_5D plus noise whose
# level follows the sigmoid gate at (SHIFT_A, SHIFT_B) on the first feature, and training rows thinned
# by `pca_resample` at the same (a, b)
BETA_5D = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
STD_5D = np.array([3.0, 0.7, 0.7, 0.7, 0.7])
SHIFT_A, SHIFT_B = 2.5, 1.0


def options(argv, doc, out, only=False):
    """Parse --label, --src, --out (default: `out` at the repo root) and, with `only`, --only; put --src first
    on sys.path."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the build being timed")
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"), help="directory holding the firedre package")
    parser.add_argument("--out", default=os.path.join(HERE, "..", out), help="JSON file to append to")
    if only:
        parser.add_argument("--only", nargs="+", metavar="NAME", help="time only these runs (default: all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    return args


def timed(fn, repeats, settle_s=0.0):
    """Wall seconds of `repeats` fn() calls, the process's CPU seconds from the start of each to settle_s after
    its end, and the last call's result."""
    walls, cpus = [], []
    for _ in range(repeats):
        # a result kept alive through the next call makes that call's arrays take fresh pages
        result = None
        c0, t0 = time.process_time(), time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - t0)
        if settle_s:  # even sleep(0) is a syscall that slows a sub-millisecond call after it
            time.sleep(settle_s)
        cpus.append(time.process_time() - c0)
    return walls, cpus, result


def median(xs):
    return sorted(xs)[len(xs) // 2]


def provenance(blas_threads, lapacke=None):
    """The record fields that name the build and the host: numpy, its BLAS, nproc, the BLAS thread counts
    (`blas_threads`), the BLAS thread settings in the environment and, for the layer records, whether
    LAPACKE was found (`lapacke`)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    fields = {"numpy": np.__version__, "blas": {"name": blas.get("name"), "version": blas.get("version")}}
    if lapacke is not None:
        fields["lapacke"] = lapacke
    return {
        **fields,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": blas_threads,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _show(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k} {_show(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + " ".join(_show(x) for x in v) + "]"
    return str(v)


def append(out, label, body):
    """Append {"label": label, **body} to the "records" list of the JSON file `out` (made if missing), then print
    one line per row of body["results"]."""
    record = {"label": label, **body}
    data = {"records": []}
    if os.path.exists(out):
        with open(out) as fh:
            data = json.load(fh)
    data["records"].append(record)
    with open(out, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    for name, row in record["results"].items():
        print(f"{label:>8} {name:>33}  " + "  ".join(f"{k} {_show(v)}" for k, v in row.items()))


def dataset1():
    """p and q of dataset 1 as firedre densities."""
    from firedre.config import density_from_dict

    return density_from_dict(P_1D), density_from_dict(Q_1D)


def response(X, rng):
    """y of the d = 5 task at the rows of X: X BETA_5D plus noise of level 0.15 + 4 gate(X)."""
    gate = 1.0 / (1.0 + np.exp(-np.clip((SHIFT_A * X[:, 0] - SHIFT_B) / STD_5D[0], -500, 500)))
    return X @ BETA_5D + (0.15 + 4.0 * gate) * rng.standard_normal(X.shape[0])


def shift_inputs(work, seed, pool=3000, train_n=None):
    """Write one draw of the d = 5 task under `work`; return `downstream`'s config and the training rows.

    A pool of `pool` labelled rows is thinned by `pca_resample` (seed + 99); train.csv holds the kept rows,
    or train_n of them in a random order, test.csv 1000 unshifted labelled rows and ratio_q.csv 2000
    unshifted features.  The config reads the three files, and train_sizes is [train_n], or null (every
    training row).
    """
    from firedre.cli import write_csv
    from firedre.data import pca_resample

    rng = np.random.default_rng(seed)
    X_pool = rng.standard_normal((pool, 5)) * STD_5D
    kept = pca_resample(X_pool, response(X_pool, rng), SHIFT_A, SHIFT_B, seed=seed + 99)
    X, y = kept.X, kept.labels
    if train_n is not None:
        idx = rng.permutation(X.shape[0])[:train_n]
        X, y = X[idx], y[idx]
    X_test = rng.standard_normal((1000, 5)) * STD_5D
    y_test = response(X_test, rng)
    X_q = rng.standard_normal((2000, 5)) * STD_5D
    cfg = {
        "seed": seed,
        "task": "regression",
        # unnormalized kernels keep the Gram spectrum O(1) in d = 5, where the density-normalized prefactor
        # would push every grid lambda into the over-smoothed regime
        "solver": {"setting": "type1", "normalized": False},
        "validation": {"family": "linear", "count": 20},
        "cv": {"folds": 5, "max_points": 400},
        "train_sizes": None if train_n is None else [train_n],
    }
    header = [f"x{j}" for j in range(5)]
    for name, features, labels in (("train", X, y), ("test", X_test, y_test), ("ratio_q", X_q, None)):
        cfg[name] = {"csv": os.path.join(work, f"{name}.csv")}
        if labels is None:
            write_csv(cfg[name]["csv"], header, features)
        else:
            cfg[name]["label_column"] = 5
            write_csv(cfg[name]["csv"], header + ["y"], np.hstack([features, labels[:, None]]))
    return cfg, X.shape[0]
