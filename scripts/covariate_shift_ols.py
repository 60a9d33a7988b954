"""Covariate-shift regression: importance-weighted vs unweighted OLS.

Generates a d=5 Gaussian regression task whose noise level depends on the
first feature, then thins the training pool with a sigmoid acceptance test
along the first principal component, so the training distribution is shifted
relative to the test distribution.  Density-ratio weights are estimated from
the shifted training features and an unshifted feature sample, and weighted
OLS is compared to unweighted OLS on held-out unshifted data across a ladder
of training-set sizes.  The task is `harness.shift_inputs`, the one whose
c08 trial `bench_e2e.py` times.

Artifacts (CSVs, JSON results, config echo) are written to --out.

Example:
    python scripts/covariate_shift_ols.py --out shift_out --seed 4
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import harness
from firedre.cli import run_downstream
from firedre.config import DownstreamConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="shift_out", help="output directory")
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--pool", type=int, default=3000, help="pre-thinning training pool size")
    parser.add_argument("--train-sizes", type=int, nargs="+", default=[100, 200, 400, 800])
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    cfg, kept = harness.shift_inputs(args.out, args.seed, pool=args.pool)
    print(f"training pool {args.pool} rows -> {kept} kept after shift thinning")
    sizes = [s for s in args.train_sizes if s <= kept]
    cfg = DownstreamConfig.from_dict({**cfg, "train_sizes": sizes})
    t0 = time.perf_counter()
    payload = run_downstream(cfg, args.out, threads=args.threads)
    elapsed = time.perf_counter() - t0

    ratio = payload["ratio"]
    print(f"ratio fit: t={ratio['selected_t']:.3f} lambda={ratio['selected_lambda']:.0e}")
    print("test mse by training-set size:")
    print("   size    weighted  unweighted")
    for s in sizes:
        mw = payload["metrics"]["weighted"][str(s)]["mse"]
        mu = payload["metrics"]["unweighted"][str(s)]["mse"]
        marker = "  <- weighted wins" if mw < mu else ""
        print(f"{s:7d} {mw:11.4f} {mu:11.4f}{marker}")
    print(f"\nresults: {os.path.join(args.out, 'results.json')}")
    print(f"done in {elapsed:.1f}s")


if __name__ == "__main__":
    main()
