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
- downstream_c08_t1 / _t2: `downstream` on one c08 trial (seed 1000) of
  the d = 5 task of `harness.shift_inputs`: OLS on 800 pca_sigmoid-thinned
  rows of a 3000-row pool, 1000 test rows, 2000 ratio-q rows, type1
  unnormalized, 20 linear validation functions, CV on 400 points,
  --threads 1 and 2

The record also holds the numpy version, the BLAS name and version, nproc,
the BLAS thread count outside and inside the cells, and the BLAS thread
settings found in the environment.  It is appended to the "records" list of
--out, so records of several builds sit side by side.

--src imports firedre from another checkout's src/ directory (one at or
after commit 9d0d85f), to time two versions with the same harness, and
--only names the runs to time:

    python scripts/bench_e2e.py --label change
    python scripts/bench_e2e.py --label parent --src ../parent/src
    python scripts/bench_e2e.py --label change --only estimate_n1000_d1_t1 downstream_c08_t1
"""

import os
import statistics
import sys
import tempfile

import harness

# timed calls per run: on a 2-CPU host 3 calls let an unchanged run's
# median move by 25% between records
REPEATS = 7

C04_LEG = {
    "seed": 11, "p_density": harness.P_1D, "q_density": harness.Q_1D,
    "n_grid": [1000], "m": 2000, "repetitions": 20, "methods": ["fire"], "eval_n": 2000,
    "solver": {"setting": "type15", "t_prime_ratio": 2.0},
}
SIMULATE_1D = {
    "seed": 13, "p_density": harness.P_1D, "q_density": harness.Q_1D,
    "n_grid": [300], "m": 300, "repetitions": 2, "methods": ["fire", "tikde", "lsif"], "eval_n": 2000,
    "solver": {"setting": "type15"},
}
ESTIMATE_1D = {
    "seed": 7,
    "p": {"density": {"kind": "gaussian", "mean": [0.0], "std": 1.0}, "n": 1000},
    "q": {"density": {"kind": "gaussian", "mean": [0.5], "std": 0.8}, "n": 1000},
}


def timed(fn):
    times, cpus, result = harness.timed(fn, REPEATS)
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": harness.median(times), "iqr_s": q3 - q1, "times_s": times,
            "cpu_median_s": harness.median(cpus)}, result


def run(work, only=None):
    from firedre import cli, linalg, selection
    from firedre.config import BenchConfig, DownstreamConfig, EstimateConfig

    count = linalg.blas_thread_count
    blas_threads = {"outside_cells": count(), "inside_cells": selection.run_cells(lambda _: count(), [None], 2)[0]}

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
    down = DownstreamConfig.from_dict(harness.shift_inputs(work, 1000, train_n=800)[0])
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

    return {**harness.provenance(blas_threads), "results": results}


def main(argv=None):
    args = harness.options(argv, __doc__, "BENCH_e2e.json", only=True)
    with tempfile.TemporaryDirectory() as work:
        body = run(work, args.only)
    harness.append(args.out, args.label, body)
    return 0


if __name__ == "__main__":
    sys.exit(main())
