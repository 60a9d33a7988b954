"""In-memory span tracer for firedre's public functions.

`Tracer.install()` wraps each function listed in TRACED and rebinds the
wrapper under every name that any firedre module binds to the original
function object.  Modules import these names with ``from ... import``, so
wrapping only the defining module would miss the calls made through
``solvers``, ``selection``, ``baselines``, ``data`` and ``cli``.  `remove()`
restores the original bindings.

Each span records its duration and its self time: the duration minus the
time covered by its direct children on the same thread.  Spans nest
strictly on one thread, so self time is computed per thread, which keeps it
right when runners fan work out to worker threads.  A call of a traced
function from inside a span of the same name (solve_type1 calling
solve_type15, say) is not traced again.
"""

import functools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _gram(args, kwargs, result):
    return {"entries": result.size}


def _square_n3(args, kwargs, result):
    return {"n3": args[0].shape[0] ** 3}


def _lams(args, kwargs, result):
    return {"lams": len(result)}


def _points(args, kwargs, result):
    return {"points": len(result)}


def _cv(args, kwargs, result):
    scores = result.fold_scores
    return {"cells": scores.size, "scores_inf": int(np.count_nonzero(~np.isfinite(scores)))}


def _loaded_rows(args, kwargs, result):
    return {"rows": result[0].shape[0]}


def _resampled_rows(args, kwargs, result):
    return {"rows": result.mask.shape[0]}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (defining module, attribute, span name, counter) -- a counter maps the
# call's arguments and result to extra per-span counts.
TRACED = (
    ("kernels", "gaussian_kernel_matrix", "kernels.gram", _gram),
    ("kernels", "bandwidth_grid", "kernels.bandwidth_grid", None),
    ("linalg", "eigh_descending", "linalg.eigh", _square_n3),
    ("linalg", "solve_linear", "linalg.solve", _square_n3),
    ("solvers", "solve_type1_path", "solvers.path", _lams),
    ("solvers", "solve_type15_path", "solvers.path", _lams),
    ("solvers", "solve_type2_path", "solvers.path", _lams),
    ("solvers", "solve_type1", "solvers.fit", None),
    ("solvers", "solve_type15", "solvers.fit", None),
    ("solvers", "solve_type2", "solvers.fit", None),
    ("solvers", "solve_combined", "solvers.fit", None),
    ("solvers", "solve_rkhs_loss", "solvers.fit", None),
    ("solvers", "solve_spectral", "solvers.fit", None),
    ("solvers", "evaluate", "solvers.evaluate", _points),
    ("selection", "kfold_cv", "selection.kfold_cv", _cv),
    ("selection", "make_validation_set", "selection.validation", None),
    ("selection", "ValidationSet.evaluate", "selection.validation", None),
    ("baselines", "lsif_unconstrained", "baselines.lsif", None),
    ("baselines", "tikde", "baselines.tikde", None),
    ("baselines", "tikde_epsilon_grid", "baselines.tikde", None),
    ("data", "simulate", "data.simulate", None),
    ("data", "load_csv", "data.load_csv", _loaded_rows),
    ("data", "pca_resample", "data.pca_resample", _resampled_rows),
    ("downstream", "weighted_ols", "downstream.ols", None),
    ("cli", "write_csv", "cli.write", _written_bytes),
    ("cli", "write_json", "cli.write", _written_bytes),
)


class Tracer:
    """Collects spans from wrapped firedre functions; one per traced run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.totals = defaultdict(lambda: defaultdict(float))  # span name -> field -> sum
        self.top_level = []  # (thread, start, end) of spans with no traced parent
        self.self_by_thread = defaultdict(float)

    # === patching ===

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "firedre" or name.startswith("firedre.")]
        for mod_name, attr, span, counter in TRACED:
            home = sys.modules[f"firedre.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                self._rebind(owner, meth, self._wrap(getattr(owner, meth), span, counter))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, span, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        return self

    def _rebind(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # === spans ===

    def _wrap(self, fn, name, counter):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]  # name, time covered by direct children
            stack.append(frame)
            start = time.perf_counter()
            extra = {"raised": 1}
            try:
                result = fn(*args, **kwargs)
                extra = counter(args, kwargs, result) if counter is not None else {}
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self._record(name, threading.get_ident(), start, end, end - start - frame[1], not stack, extra)

        return traced

    def _record(self, name, thread, start, end, self_s, top, extra):
        with self._lock:
            t = self.totals[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += self_s
            for key, value in extra.items():
                t[key] += value
            self.self_by_thread[thread] += self_s
            if top:
                self.top_level.append((thread, start, end))

    def take_op(self, start, end):
        """Account for one operation in [start, end] and forget its spans.

        Returns (covered, busy): the wall time during which any thread was
        inside a top-level span, and per thread the pair (sum of span self
        times, sum of top-level span durations), which agree when self time
        is computed right.
        """
        with self._lock:
            top, self.top_level = self.top_level, []
            self_by_thread, self.self_by_thread = self.self_by_thread, defaultdict(float)
        busy = {t: [s, 0.0] for t, s in self_by_thread.items()}
        for thread, s, e in top:
            busy.setdefault(thread, [0.0, 0.0])[1] += e - s
        covered = 0.0
        reach = start
        for s, e in sorted((max(s, start), min(e, end)) for _, s, e in top):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        return covered, {t: tuple(v) for t, v in busy.items()}
