"""Run one firedre benchmark workload and print its metrics.

From the root of a checkout:

    python3 benchmark/run.py --workload shift-5d --seed 1 --seconds 45 --trace 0

The program is imported from the checkout's src/.  Set-up generates the
workload's inputs from --seed and runs one warm-up operation; it is
repeated SETUP_REPS times and the median is reported.  Then operations run
back to back, one client in a closed loop, until --seconds have passed.
Every operation's output is checked, and must match the warm-up
operation's output byte for byte (results.json's timestamp aside).

--trace 0 reports the end-to-end metrics.  --trace 1 wraps the program's
public functions (see spans.py) and reports per-layer metrics per
operation instead.  The second-to-last stdout line is a JSON record of
provenance, accuracy and failures; the last line is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; every value is per measured operation unless
# the unit says otherwise.  "n3" is the computed sum of n^3 over calls.
PER_LAYER = {
    "linalg.eigh.calls": "count/op",
    "linalg.eigh.s": "s/op",
    "linalg.eigh.n3": "n3_computed/op",
    "linalg.solve.calls": "count/op",
    "linalg.solve.s": "s/op",
    "linalg.solve.n3": "n3_computed/op",
    "kernels.gram.calls": "count/op",
    "kernels.gram.s": "s/op",
    "kernels.gram.entries": "count/op",
    "kernels.bandwidth_grid.s": "s/op",
    "solvers.path.calls": "count/op",
    "solvers.path.self_s": "s/op",
    "solvers.path.lams": "count/op",
    "solvers.fit.calls": "count/op",
    "solvers.fit.self_s": "s/op",
    "solvers.evaluate.calls": "count/op",
    "solvers.evaluate.self_s": "s/op",
    "solvers.evaluate.points": "count/op",
    "selection.kfold_cv.self_s": "s/op",
    "selection.validation.s": "s/op",
    "selection.cells": "count/op",
    "selection.scores_inf": "count/op",
    "baselines.lsif.calls": "count/op",
    "baselines.lsif.self_s": "s/op",
    "baselines.tikde.s": "s/op",
    "data.simulate.s": "s/op",
    "data.load_csv.s": "s/op",
    "data.load_csv.rows": "count/op",
    "data.pca_resample.s": "s/op",
    "data.pca_resample.rows": "count/op",
    "downstream.ols.calls": "count/op",
    "downstream.ols.s": "s/op",
    "cli.write.calls": "count/op",
    "cli.write.s": "s/op",
    "cli.write.bytes": "B/op",
    "cli.run.self_s": "s/op",
    "proc.cpu_s": "s/op",
    "proc.nivcsw": "count/op",
    "proc.nvcsw": "count/op",
    "trace.op_s_p50": "s",
    "trace.thread_s": "s/op",
}

# metrics whose span name is not the metric name minus its last part
_SPAN_FIELD = {
    "selection.cells": ("selection.kfold_cv", "cells"),
    "selection.scores_inf": ("selection.kfold_cv", "scores_inf"),
}


def import_program():
    """Import firedre from this checkout's src/; return the seconds it took."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import firedre.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    found = os.path.dirname(os.path.abspath(sys.modules["firedre"].__file__))
    if found != os.path.join(SRC, "firedre"):
        raise ImportError(f"firedre was imported from {found}, not from {SRC}")
    return elapsed


def nproc():
    return len(os.sched_getaffinity(0))


def provenance(workload, seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "threads": workload.threads,
        "sizes": workload.sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": nproc(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_nvcsw, ru.ru_nivcsw


def _setup(workload, seed, work):
    """Set up SETUP_REPS times; return (median seconds, cfg, out dir, output digest)."""
    from workloads import output_digest, output_dir

    times = []
    for rep in range(SETUP_REPS):
        rep_dir = os.path.join(work, f"setup{rep}")
        out = output_dir(rep_dir)
        start = time.perf_counter()
        os.makedirs(rep_dir)
        cfg = workload.setup(seed, rep_dir)
        payload = workload.run(cfg, out)
        times.append(time.perf_counter() - start)
        workload.check(cfg, out, payload)
    return statistics.median(times), cfg, out, output_digest(out)


def _layer_metrics(tracer, op_times, cli_self, usage, thread_s):
    count = len(op_times)
    values = {}
    for name in PER_LAYER:
        if name in _SPAN_FIELD:
            span, field = _SPAN_FIELD[name]
        else:
            span, _, field = name.rpartition(".")
        values[name] = tracer.totals[span][field] / count if span in tracer.totals else 0.0
    values.update({
        "cli.run.self_s": cli_self / count,
        "proc.cpu_s": usage[0] / count,
        "proc.nvcsw": usage[1] / count,
        "proc.nivcsw": usage[2] / count,
        "trace.op_s_p50": statistics.median(op_times),
        "trace.thread_s": thread_s / count,
    })
    return values


def measure(workload, seed, seconds, trace, import_s, work):
    """Set up, run the closed loop, and return (result, record)."""
    from spans import Tracer
    from workloads import OpFailed, output_digest

    record = {"provenance": provenance(workload, seed), "failures": [], "problems": []}
    setup_s, cfg, out, digest = _setup(workload, seed, work)
    setup_s += import_s

    tracer = Tracer().install() if trace else None
    op_times, qualities = [], []
    usage = [0.0, 0, 0]
    cli_self = thread_s = 0.0
    try:
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            u0 = _usage()
            start = time.perf_counter()
            try:
                payload = workload.run(cfg, out)
                error = None
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            u1 = _usage()
            op_times.append(end - start)
            usage = [a + (y - x) for a, x, y in zip(usage, u0, u1)]
            if tracer is not None:
                covered, busy = tracer.take_op(start, end)
                cli_self += (end - start) - covered
                thread_s += sum(self_sum for self_sum, _ in busy.values())
                for thread, (self_sum, top_sum) in busy.items():
                    if abs(self_sum - top_sum) > 1e-6 * max(1.0, top_sum):
                        record["problems"].append(f"thread {thread}: self times {self_sum} != spans {top_sum}")
            if error is None:
                try:
                    quality = workload.check(cfg, out, payload)
                    if output_digest(out) != digest:
                        raise OpFailed("output differs from the warm-up operation's")
                    qualities.append(quality)
                except (OpFailed, KeyError, TypeError, ValueError, OSError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                record["failures"].append(error)
    finally:
        if tracer is not None:
            tracer.remove()

    attempted, failed = len(op_times), len(record["failures"])
    record.update({
        "ops": attempted,
        "op_s": op_times,
        "error_rate": failed / attempted,
        "setup_s": setup_s,
        "import_s": import_s,
    })
    if workload.quality is not None:
        record[workload.quality] = statistics.median(qualities) if qualities else None

    if trace:
        metrics = _layer_metrics(tracer, op_times, cli_self, usage, thread_s)
        units = PER_LAYER
        record["layers"] = {name: dict(tracer.totals[name]) for name in sorted(tracer.totals)}
        for span in workload.exercises:
            if tracer.totals.get(span, {}).get("calls", 0) == 0:
                record["problems"].append(f"coverage: {span} was never called on {workload.name}")
    else:
        metrics = {
            "setup_s": setup_s,
            "op_s_p50": statistics.median(op_times),
            "cpu_s_per_op": usage[0] / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0 and not record["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, record


def run_workload(name, seed, seconds, trace, small=False):
    """Import the program, run one workload in a scratch dir of the checkout."""
    import_s = import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](small=small)
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(workload, seed, seconds, trace, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


WORKLOAD_NAMES = ("simulate-1d", "shift-5d")


def main(argv=None):
    parser = argparse.ArgumentParser(description="firedre benchmark: one workload, one closed-loop client")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that run_workload removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 1
    for line in record["failures"][:5] + record["problems"]:
        print(line, file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
