"""Time end-to-end CLI runs at fixed, named sizes.

Three runs, each the median over REPEATS calls of the runner `firedre <cmd>`
calls after loading its config (no interpreter start-up):

- c04_n1000_fire_t4: `simulate` of fire (type15) at n = 1000, m = 2000,
  eval_n = 2000, 20 repetitions, --threads 4 (the n = 1000 leg of the c04
  acceptance check)
- estimate_n1000_d1_t1 / _t2: `estimate` at n = m = 1000, d = 1, default
  grids and CV, --threads 1 and 2

The record also holds the numpy version, the BLAS name and version, nproc,
the BLAS thread count outside and inside the cells, and the BLAS thread
settings found in the environment.  It is appended to the "records" list of
--out, so records of several builds sit side by side.

--src imports firedre from another checkout's src/ directory, to time two
versions with the same harness:

    python scripts/bench_e2e.py --label change
    python scripts/bench_e2e.py --label parent --src ../parent/src
"""

import argparse
import importlib.util
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# timed calls per run
REPEATS = 3

MIXTURE_1D = {"kind": "mixture", "weights": [0.5, 0.5], "components": [
    {"kind": "gaussian", "mean": [-2.0], "std": 1.0},
    {"kind": "gaussian", "mean": [2.0], "std": 0.5}]}
NARROW_1D = {"kind": "gaussian", "mean": [0.0], "std": 0.5}
C04_LEG = {
    "seed": 11, "p_density": MIXTURE_1D, "q_density": NARROW_1D,
    "n_grid": [1000], "m": 2000, "repetitions": 20, "methods": ["fire"], "eval_n": 2000,
    "solver": {"setting": "type15", "t_prime_ratio": 2.0},
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


def timed(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return {"median_s": sorted(times)[len(times) // 2], "times_s": times}, result


def run(work):
    import numpy as np

    from firedre import cli, selection
    from firedre.config import BenchConfig, EstimateConfig

    count = blas_probe()
    outside = count()
    # builds without selection.run_cells leave the BLAS count alone in cells
    run_cells = getattr(selection, "run_cells", None)
    inside = run_cells(lambda _: count(), [None], 2)[0] if run_cells else outside

    results = {}
    bench = BenchConfig.from_dict(C04_LEG)
    results["c04_n1000_fire_t4"], payload = timed(lambda: cli.run_bench(bench, work, threads=4))
    results["c04_n1000_fire_t4"]["fire_median"] = payload["medians"]["fire"]["1000"]
    est = EstimateConfig.from_dict(ESTIMATE_1D)
    for threads in (1, 2):
        name = f"estimate_n1000_d1_t{threads}"
        results[name], payload = timed(lambda: cli.run_estimate(est, work, threads=threads))
        results[name]["selected"] = [payload["selected_t"], payload["selected_lambda"]]

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
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    with tempfile.TemporaryDirectory() as work:
        record = {"label": args.label, **run(work)}
    data = {"records": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data["records"].append(record)
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    for name, r in record["results"].items():
        print(f"{args.label:>8} {name:>22}  {r['median_s']:8.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
