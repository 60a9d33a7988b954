"""Smoke test of the timers in scripts/: the layer timer runs every row kind at a few dozen points, and its
record lines up, key for key, with the committed records in BENCH_layers.json.

A rename in src/ that a timer still calls fails here, not at the next timing run.
"""

import json
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# bench_layers' size tables at a few dozen points, one row of each kind under a committed row's name
SMALL = {
    "SIZES": (("n500_d1", 40, 1, 0.4, True), ("n500_d5", 40, 5, 1.0, False)),
    "LSIF_SIZES": (("lsif_n300_d1", 40, 1, 0.5),),
    "CV_SIZES": (("cv_shift5d", 40, 40, 5, False, 3), ("cv_estimate_d1", 40, 40, 1, True, 3)),
    "TRIAL_SIZES": (("simulate_trial_n300_m300_eval2000", 30, 30, 60),),
    "FINAL_FIT_SIZES": (("final_fit_n1378_d5", 40, 50, 5, 1.0, 1e-7),),
    "EVAL_SIZES": (("evaluate_n1378_d5", 40, 5),),
    "KDE_SIZES": (("kde_eval2000_n300_d1", 30, 60),),
    "COMBINED_SIZES": (("combined_path_n640_m800", 30, 40),),
    "RESAMPLE_SIZES": (("resample_pool3000_d5", 60, 5),),
    "GRAM_SIZES": (("gram_320x320_d5", 30, 40, 5),),
}


@pytest.fixture(scope="module")
def scripts():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(os.path.join(ROOT, "scripts"))
        import bench_layers
        import harness

        for table, rows in SMALL.items():
            mp.setattr(bench_layers, table, rows)
        mp.setattr(bench_layers, "REPEATS", 1)
        mp.setattr(bench_layers, "SETTLE_S", 0.0)
        yield harness, bench_layers.run()


def committed():
    with open(os.path.join(ROOT, "BENCH_layers.json")) as fh:
        return json.load(fh)["records"]


def test_every_row_kind_runs_and_keeps_the_committed_keys(scripts):
    _, body = scripts
    records = committed()
    assert sorted(body["results"]) == sorted(name for rows in SMALL.values() for name, *_ in rows)
    for name, row in body["results"].items():
        last = next(r["results"][name] for r in reversed(records) if name in r["results"])
        assert list(row) == list(last), name
    assert ["label", *body] == list(records[-1])


def test_append_adds_one_record_a_call_and_prints_each_row(scripts, tmp_path, capsys):
    harness, body = scripts
    out = str(tmp_path / "layers.json")
    harness.append(out, "first", body)
    harness.append(out, "second", body)
    with open(out) as fh:
        records = json.load(fh)["records"]
    assert [r["label"] for r in records] == ["first", "second"]
    assert all(list(r) == list(committed()[-1]) for r in records)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * len(body["results"])
    assert all(name in line for line, name in zip(lines, 2 * list(body["results"])))


def test_options_put_src_first_on_the_path(scripts, tmp_path, monkeypatch):
    harness, _ = scripts
    monkeypatch.setattr(sys, "path", list(sys.path))
    args = harness.options(["--label", "x", "--src", str(tmp_path), "--only", "a", "b"], "Doc.", "BENCH_e2e.json",
                           only=True)
    assert (args.label, args.only, sys.path[0]) == ("x", ["a", "b"], str(tmp_path))
    assert os.path.samefile(args.out, os.path.join(ROOT, "BENCH_e2e.json"))
