"""Self-tests of the benchmark harness, run at reduced input sizes.

    python3 -m pytest -q benchmark/test_bench.py
"""

import json
import math
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import firedre.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def small_run(name, seed=3, trace=False):
    return run.run_workload(name, seed, 0.01, trace, small=True)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    exercised = {span for w in workloads.WORKLOADS.values() for span in w.exercises}
    traced = {span for _, _, span, _ in spans.TRACED}
    assert exercised <= traced


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name):
    for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result, record = small_run(name, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], record["failures"] + record["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        for key in ("python", "numpy", "blas", "nproc", "env", "seed", "threads"):
            assert key in record["provenance"]
    # the traced run put back every name it rebound
    assert firedre.cli.gaussian_kernel_matrix is firedre.kernels.gaussian_kernel_matrix
    assert not hasattr(firedre.solvers.eigh_descending, "__wrapped__")
    assert not hasattr(firedre.selection.ValidationSet.evaluate, "__wrapped__")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_self_times_account_for_the_op(name):
    result, record = small_run(name, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    wall = statistics.mean(record["op_s"])
    traced_wall = wall - m["cli.run.self_s"]
    assert 0.0 <= traced_wall <= wall
    if workloads.WORKLOADS[name].threads == 1:
        # one thread: layer self times and the runner's own time tile the op
        assert m["trace.thread_s"] == pytest.approx(traced_wall, rel=1e-9, abs=1e-9)
    else:
        # worker threads overlap, so thread-seconds cover at least the traced wall time
        assert m["trace.thread_s"] >= traced_wall * (1 - 1e-9)


def test_every_importing_module_gets_the_wrapper():
    tracer = spans.Tracer().install()
    try:
        for module in (firedre.kernels, firedre.solvers, firedre.selection, firedre.baselines, firedre.cli):
            assert hasattr(module.gaussian_kernel_matrix, "__wrapped__")
        for module in (firedre.linalg, firedre.solvers, firedre.data):
            assert hasattr(module.eigh_descending, "__wrapped__")
        for module in (firedre.linalg, firedre.solvers, firedre.baselines):
            assert hasattr(module.solve_linear, "__wrapped__")
        assert hasattr(firedre.selection.solve_type1_path, "__wrapped__")
        assert hasattr(firedre.selection.ValidationSet.evaluate, "__wrapped__")
    finally:
        tracer.remove()
    assert not hasattr(firedre.solvers.gaussian_kernel_matrix, "__wrapped__")


def test_coverage_check_fails_a_run_that_misses_a_layer(monkeypatch):
    monkeypatch.setattr(workloads.Shift5D, "exercises", workloads.Shift5D.exercises + ("baselines.lsif",))
    result, record = small_run("shift-5d", trace=True)
    assert not result["correct"]
    assert any("baselines.lsif" in p for p in record["problems"])


def test_a_broken_op_counts_in_error_rate(monkeypatch):
    real = firedre.cli.run_downstream
    calls = []

    def nan_weights_on_first_measured_op(cfg, out, **kwargs):
        payload = real(cfg, out, **kwargs)
        calls.append(out)
        if len(calls) == run.SETUP_REPS + 1:
            with open(os.path.join(out, "weights.csv")) as fh:
                lines = fh.read().splitlines()
            lines[1] = "nan"
            with open(os.path.join(out, "weights.csv"), "w") as fh:
                fh.write("\n".join(lines) + "\n")
        return payload

    monkeypatch.setattr(firedre.cli, "run_downstream", nan_weights_on_first_measured_op)
    result, record = run.run_workload("shift-5d", 3, 1.0, False, small=True)
    assert result["attempted"] >= 2
    assert result["failed"] == 1 and not result["correct"]
    assert record["error_rate"] == 1 / result["attempted"]
    assert "non-finite" in record["failures"][0]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_results_other_seed_other_inputs(name):
    quality = workloads.WORKLOADS[name].quality
    (_, a), (_, b), (_, c) = (small_run(name, seed=s, trace=True) for s in (5, 5, 6))
    assert a[quality] == b[quality]
    assert a[quality] != c[quality]
    if "selection.kfold_cv" in a["layers"]:
        for key in ("cells", "scores_inf"):
            assert a["layers"]["selection.kfold_cv"][key] == b["layers"]["selection.kfold_cv"][key]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_follow_the_seed(name, tmp_path):
    def inputs(seed, tag):
        work = tmp_path / tag
        work.mkdir()
        cfg = workloads.WORKLOADS[name](small=True).setup(seed, str(work))
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        return cfg.seed, files

    assert inputs(7, "a") == inputs(7, "b")
    seed_a, files_a = inputs(7, "c")
    seed_b, files_b = inputs(8, "d")
    assert seed_a != seed_b
    assert all(files_a[k] != files_b[k] for k in files_a)
