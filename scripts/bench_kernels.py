"""Time the pairwise-distance and Gram layer at fixed, named shapes.

For each shape (n x m points in d dimensions, standard normal, fixed seed)
this records the median over REPEATS calls of `kernels._sq_dists` and of
`gaussian_kernel_matrix` (unnormalized, t = 1), after one warm-up call.  The
record also holds the numpy version, the BLAS name and version, nproc and
the BLAS thread settings found in the environment.  It is appended to the
"records" list of --out, so records of several builds sit side by side.

--src imports firedre from another checkout's src/ directory, to time two
versions with the same harness:

    python scripts/bench_kernels.py --label change
    python scripts/bench_kernels.py --label parent --src ../parent/src
"""

import argparse
import json
import os
import sys
import time

# (name, n, m, d): the CV-subset, validation and final-fit shapes of the
# d = 5 covariate-shift pipeline, and the n = m = 300 / eval_n = 2000 shapes
# of the 1-d simulation study
SHAPES = (
    ("320x320_d5", 320, 320, 5),
    ("80x320_d5", 80, 320, 5),
    ("320x400_d5", 320, 400, 5),
    ("1350x1350_d5", 1350, 1350, 5),
    ("1350x2000_d5", 1350, 2000, 5),
    ("300x300_d1", 300, 300, 1),
    ("2000x300_d1", 2000, 300, 1),
)
# timed calls per shape and function
REPEATS = 21


def median_ms(fn):
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]


def run():
    import numpy as np

    from firedre import kernels

    spec = kernels.KernelSpec(t=1.0, normalized=False)
    rng = np.random.default_rng(0)
    results = {}
    for name, n, m, d in SHAPES:
        A = rng.standard_normal((n, d))
        B = rng.standard_normal((m, d))
        results[name] = {
            "n": n,
            "m": m,
            "d": d,
            "sq_dists_ms": median_ms(lambda: kernels._sq_dists(A, B)),
            "gram_ms": median_ms(lambda: kernels.gaussian_kernel_matrix(A, B, spec)),
        }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "results": results,
    }


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the build being timed")
    parser.add_argument("--src", default=os.path.join(here, "..", "src"), help="directory holding the firedre package")
    parser.add_argument("--out", default=os.path.join(here, "..", "BENCH_kernels.json"), help="JSON file to append to")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    record = {"label": args.label, **run()}
    data = {"records": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data["records"].append(record)
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    for name, r in record["results"].items():
        print(f"{args.label:>8} {name:>14}  sq_dists {r['sq_dists_ms']:8.2f} ms  gram {r['gram_ms']:8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
