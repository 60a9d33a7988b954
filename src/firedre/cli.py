"""Command line front end.

Subcommands: estimate | cv | simulate | downstream | resample.  Each takes
--config <json> plus --seed / --out / --threads overrides, writes results
and a fully resolved config echo into the output directory (one writer,
_write_outputs, which stamps the results.json header and makes the
directory only once the results are complete), and exits 0 on success, 2
on config validation failure, 3 on numerical failure (with a one-line JSON
reason on stderr).  Re-running any command from its echoed config
reproduces the outputs byte for byte, apart from the timestamp, on the same
numpy/BLAS build (the last bits of BLAS results can change with the
build).  Every runner runs its body inside one linalg.blas_threads(1)
region, so neither --threads nor the BLAS thread count
(OPENBLAS_NUM_THREADS) changes an output bit, and no idle OpenBLAS worker
spins after a parallel call.  --threads (default: the usable CPUs)
sets the workers that run CV cells and simulate trials; the final fit and
evaluation run on the calling thread alone, so they take longer in wall
time than on several BLAS threads.  A simulate trial computes the squared
distances among its samples once for every fit; each method then lists the
(kernel, output, coefficients) reads it takes off the evaluation Grams (a
fire or LSIF estimate is RatioEstimate(centers, v, kernel), read as
k(X, centers) @ v), and kernels.read_rows applies them by row blocks of the
evaluation sample, computing each block's distances once and each distinct
kernel's Gram once per block.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from .baselines import lsif_unconstrained, tikde_epsilon_grid, true_ratio
from .config import (
    METHODS,
    BenchConfig,
    ConfigError,
    DownstreamConfig,
    EstimateConfig,
    ResampleConfig,
    load_config,
)
from .data import first_pc, label_resample, load_csv, pca_resample, simulate
from .downstream import eval_metrics, weighted_linear_svm, weighted_ols
from .kernels import KernelSpec, _sq_dists, bandwidth_grid, read_rows
from .kernels import gaussian_kernel_matrix  # noqa: F401  unused; benchmark/test_bench.py checks its tracing here
from .linalg import NumericalError, blas_threads
from .selection import SETTINGS, fit_factory, kfold_cv, make_validation_set, run_cells, worker_count

SCHEMA_VERSION = 1


def derive_seed(seed, stage):
    """Stable 64-bit sub-seed for a named stochastic stage."""
    digest = hashlib.sha256(f"{seed}/{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# === deterministic output files ===


def _write_text(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if np.isfinite(x) else None
    return x


def write_json(path, payload):
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_text(path, text)


def _cell_str(c):
    if isinstance(c, (bool, np.bool_)):
        return str(int(c))
    if isinstance(c, (int, np.integer)):
        return str(int(c))
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    return str(c)


def write_csv(path, header, rows):
    """Write a header and rows; a float64 matrix of rows goes through tolist(), with the bytes _cell_str gives."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        body = [",".join(map(repr, row)) for row in rows.tolist()]
    else:
        body = [",".join(map(_cell_str, row)) for row in rows]
    _write_text(path, "\n".join([",".join(header), *body]) + "\n")


def _write_outputs(out_dir, cfg, command, payload, csvs):
    """Make out_dir, write each (name, header, rows) of csvs, results.json and config_echo.json; return payload.

    payload gets the header every results.json carries: schema_version, command and a timestamp of now.
    """
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    payload.update({"schema_version": SCHEMA_VERSION, "command": command, "timestamp": stamp})
    os.makedirs(out_dir, exist_ok=True)
    for name, header, rows in csvs:
        write_csv(os.path.join(out_dir, name), header, rows)
    write_json(os.path.join(out_dir, "results.json"), payload)
    write_json(os.path.join(out_dir, "config_echo.json"), cfg.to_dict())
    return payload


# === shared pipeline pieces ===


def _load_source(src, stage, seed, dim=None):
    if src.csv is not None:
        try:
            X, labels = load_csv(src.csv, src.label_column)
        except OSError as exc:
            raise ConfigError(f"cannot read {src.csv}: {exc}") from None
    else:
        X, labels = simulate(src.density, src.n, derive_seed(seed, stage)), None
    if dim is not None and X.shape[1] != dim:
        raise ConfigError(f"{stage}: dimension {X.shape[1]} does not match expected {dim}")
    return X, labels


def _cv_subset(X, fraction, max_points, seed, stage):
    n = X.shape[0]
    take = max(1, int(np.floor(fraction * n)))
    if max_points is not None:
        take = min(take, max_points)
    idx = np.random.default_rng(derive_seed(seed, stage)).permutation(n)[:take]
    return X[idx]


def _t_grid(cfg_grids, z_p):
    if cfg_grids.t is not None:
        return np.asarray(cfg_grids.t, dtype=np.float64)
    return bandwidth_grid(z_p, neighbors=cfg_grids.neighbors, size=cfg_grids.size)[1]


def _validation_set(cfg, z_p_cv, t_grid, seed):
    d = z_p_cv.shape[1]
    v = cfg.validation
    anchors = kernel = None
    if v.family in ("kernel_combo", "kernel_indicator"):
        anchors = z_p_cv[: min(v.anchor_count, z_p_cv.shape[0])]
        kernel = KernelSpec(t=float(np.median(t_grid)))
    return make_validation_set(v.family, d, v.count, derive_seed(seed, "validation"), anchors=anchors, kernel=kernel)


def _select_cell(cfg, z_p, z_q, q_fn, threads):
    """Run k-fold CV on capped subsets; returns (CVResult, fit), fit the fit_factory callback it ran."""
    t_grid = _t_grid(cfg.grids, z_p)
    lam_grid = np.asarray(cfg.grids.lam, dtype=np.float64)
    z_p_cv = _cv_subset(z_p, cfg.cv.fraction, cfg.cv.max_points, cfg.seed, "cv-subset-p")
    z_q_cv = _cv_subset(z_q, cfg.cv.fraction, cfg.cv.max_points, cfg.seed, "cv-subset-q")
    validation = _validation_set(cfg, z_p_cv, t_grid, cfg.seed)
    s = cfg.solver
    fit = fit_factory(s.setting, gamma=s.gamma, t_prime_ratio=s.t_prime_ratio, q_fn=q_fn, normalized=s.normalized)
    cvres = kfold_cv(
        z_p_cv,
        z_q_cv,
        fit,
        t_grid,
        lam_grid,
        validation,
        folds=cfg.cv.folds,
        seed=derive_seed(cfg.seed, "cv-folds"),
        threads=threads,
    )
    return cvres, fit


def _estimation_inputs(cfg):
    z_p, _ = _load_source(cfg.p, "p", cfg.seed)
    if SETTINGS[cfg.solver.setting].reads_q_fn:
        q_fn = cfg.q_function.pdf
        if cfg.q_function.dim != z_p.shape[1]:
            raise ConfigError(f"q_function has dim {cfg.q_function.dim}, p-sample has dim {z_p.shape[1]}")
        # score CV cells against a sample drawn from the known q
        z_q = simulate(cfg.q_function, cfg.cv.type2_q_points, derive_seed(cfg.seed, "type2-q"))
        return z_p, z_q, q_fn
    z_q, _ = _load_source(cfg.q, "q", cfg.seed, dim=z_p.shape[1])
    return z_p, z_q, None


def _cv_payload(cvres):
    return {
        "t": cvres.t_grid,
        "lambda": cvres.lam_grid,
        "scores": cvres.scores,
        "fold_scores": cvres.fold_scores,
        "folds": cvres.folds,
    }


# === runners ===


@blas_threads(1)
def run_estimate(cfg: EstimateConfig, out_dir, threads=1, final=True, command="estimate"):
    z_p, z_q, q_fn = _estimation_inputs(cfg)
    cvres, fit = _select_cell(cfg, z_p, z_q, q_fn, threads)
    payload = {
        "n": int(z_p.shape[0]),
        "m": int(z_q.shape[0]),
        "selected_t": cvres.selected_t,
        "selected_lambda": cvres.selected_lam,
        "cv_surface": _cv_payload(cvres),
    }
    csvs = []
    if final:
        est = fit(z_p, z_q, cvres.selected_t, [cvres.selected_lam])[0]
        weights = est.evaluate(z_p, clip_negative=cfg.clip_negative)
        header = [f"x{j}" for j in range(z_p.shape[1])]
        csvs = [("centers.csv", header, z_p), ("weights.csv", ["weight"], weights[:, None])]
        payload.update(
            {
                "coefficients": est.v,
                "kernel": {"t": est.kernel.t, "normalized": est.kernel.normalized},
                "centers_path": "centers.csv",
                "weights_path": "weights.csv",
                "weights_mean": float(np.mean(weights)),
            }
        )
    return _write_outputs(out_dir, cfg, command, payload, csvs)


def run_cv(cfg: EstimateConfig, out_dir, threads=1):
    return run_estimate(cfg, out_dir, threads=threads, final=False, command="cv")


def _bench_trial(methods, z_p, z_q, eval_X, r_eval, t_grid, lam_grid, fit):
    """Oracle-selected (error, t, param) per method, from distances computed once.

    The squared distances D(z_p, z_p), D(z_p, z_q) and D(z_q, z_q) are
    computed once, and every fit at every t builds its Grams from them:
    fire's path, TIKDE's threshold grid and LSIF's lambda list.  Per t, each
    method then lists what it reads off the evaluation Grams (read_rows):
    LSIF each solved lambda's v, fire its lambdas' v stacked as an n x L
    matrix (each estimate reads as k(X, centers) @ v), TIKDE its density
    (a row mean).  The reads against
    z_q run first, and LSIF is scored and its predictions freed before
    fire's are allocated for the reads against z_p.  Every error is bitwise
    what whole evaluation Grams built from the points give.

    A fire fit that fails at some t skips only fire at that t.  A ratio is
    nonnegative, so every method's predictions are clamped at zero before
    scoring (TIKDE is nonnegative by construction, this only affects the
    linear-system estimators).
    """
    use_fire, use_tikde, use_lsif = ("fire" in methods), ("tikde" in methods), ("lsif" in methods)
    T, N, L = len(t_grid), eval_X.shape[0], len(lam_grid)
    specs = [KernelSpec(t=float(t)) for t in t_grid]
    sq_pp = _sq_dists(z_p, z_p) if use_fire or use_tikde else None
    sq_pq = _sq_dists(z_p, z_q) if use_lsif or (use_fire and getattr(fit, "reads_sq_pq", True)) else None
    sq_qq = _sq_dists(z_q, z_q) if use_lsif else None

    fire = [None] * T  # per t: (kernel, coefficients n x L), None where the fit fails
    for it, t in enumerate(t_grid if use_fire else ()):
        try:
            ests = fit(z_p, z_q, float(t), lam_grid, sq_pp=sq_pp, sq_pq=sq_pq)
        except (NumericalError, np.linalg.LinAlgError):
            continue
        fire[it] = (ests[0].kernel, np.stack([e.v for e in ests], axis=1))
    lsif = [lsif_unconstrained(z_p, z_q, t, lam_grid, sq_pq.T, sq_qq) for t in t_grid] if use_lsif else [()] * T
    eps_grids = [tikde_epsilon_grid(z_p, t, sq_pp=sq_pp) for t in t_grid] if use_tikde else [()] * T
    del sq_pp, sq_pq, sq_qq

    best = {method: (np.inf, np.nan, np.nan) for method in methods}

    def offer(method, err, t, param):
        if err < best[method][0]:
            best[method] = (float(err), float(t), float(param))

    q_hat = np.empty((T, N)) if use_tikde else None
    preds = np.empty((T, L, N)) if use_lsif else None  # LSIF's, each lambda's row contiguous
    reads = [(k, q_hat[it], None) for it, k in enumerate(specs) if use_tikde]
    reads += [(e.kernel, preds[it, j], e.v) for it, fits in enumerate(lsif) for j, e in enumerate(fits) if e]
    read_rows(eval_X, z_q, reads)
    for it, t in enumerate(t_grid):
        for j, (lam, est) in enumerate(zip(lam_grid, lsif[it])):
            if est is not None:
                offer("lsif", float(np.mean((np.maximum(preds[it, j], 0.0) - r_eval) ** 2)), t, lam)
    del preds, reads  # no view of LSIF's predictions is left, so the memory goes before fire's predictions
    p_hat = np.empty((T, N)) if use_tikde else None
    preds = np.empty((T, N, L)) if use_fire else None  # fire's
    reads = [(f[0], preds[it], f[1]) for it, f in enumerate(fire) if f]
    reads += [(k, p_hat[it], None) for it, k in enumerate(specs) if use_tikde]
    read_rows(eval_X, z_p, reads)
    for it, t in enumerate(t_grid):
        if fire[it]:
            errs = np.mean((np.maximum(preds[it], 0.0) - r_eval[:, None]) ** 2, axis=0)
            j = int(np.argmin(errs))
            offer("fire", errs[j], t, lam_grid[j])
        for eps in eps_grids[it]:
            offer("tikde", float(np.mean((q_hat[it] / np.maximum(p_hat[it], eps) - r_eval) ** 2)), t, eps)
    return best


@blas_threads(1)
def run_bench(cfg: BenchConfig, out_dir, threads=1):
    """Simulated benchmark: oracle-selected error per (method, n, repetition).

    The error for each trial is the mean squared deviation from the true
    ratio over a fresh evaluation sample drawn from q (where the ratio
    carries its mass), minimized over the parameter grid.
    """
    oracle = true_ratio(cfg.p_density, cfg.q_density)
    lam_grid = np.asarray(cfg.grids.lam, dtype=np.float64)
    s = cfg.solver
    fit = fit_factory(s.setting, gamma=s.gamma, t_prime_ratio=s.t_prime_ratio, q_fn=cfg.q_density.pdf,
                      normalized=s.normalized)

    def one(task):
        n, rep = task
        tag = f"bench:{n}:{rep}"
        z_p = simulate(cfg.p_density, n, derive_seed(cfg.seed, tag + ":p"))
        z_q = simulate(cfg.q_density, cfg.m, derive_seed(cfg.seed, tag + ":q"))
        eval_X = simulate(cfg.q_density, cfg.eval_n, derive_seed(cfg.seed, tag + ":eval"))
        r_eval = oracle.evaluate(eval_X)
        t_grid = _t_grid(cfg.grids, z_p)
        best = _bench_trial(cfg.methods, z_p, z_q, eval_X, r_eval, t_grid, lam_grid, fit)
        return [[method, n, rep, *best[method]] for method in METHODS if method in best]

    tasks = [(n, rep) for n in cfg.n_grid for rep in range(cfg.repetitions)]
    packs = run_cells(one, tasks, threads)
    rows = [row for pack in packs for row in pack]

    medians = {}
    for method in cfg.methods:
        medians[method] = {}
        for n in cfg.n_grid:
            errs = [r[3] for r in rows if r[0] == method and r[1] == n]
            medians[method][str(n)] = float(np.median(errs))
    csvs = [("bench.csv", ["method", "n", "rep", "error", "t", "param"], rows)]
    return _write_outputs(out_dir, cfg, "simulate", {"medians": medians, "rows_path": "bench.csv"}, csvs)


@blas_threads(1)
def run_downstream(cfg: DownstreamConfig, out_dir, threads=1):
    X_tr, y_tr = _load_source(cfg.train, "train", cfg.seed)
    if y_tr is None:
        raise ConfigError("train source must provide labels (csv with label_column)")
    X_te, y_te = _load_source(cfg.test, "test", cfg.seed, dim=X_tr.shape[1])
    if y_te is None:
        raise ConfigError("test source must provide labels (csv with label_column)")
    if cfg.ratio_q is not None:
        X_rq, _ = _load_source(cfg.ratio_q, "ratio_q", cfg.seed, dim=X_tr.shape[1])
    else:
        X_rq = X_te
    if y_tr.dtype.kind != "f" or y_te.dtype.kind != "f":
        raise ConfigError("labels must be numeric")
    if cfg.task == "classification" and not (np.all(np.isin(y_tr, (-1.0, 1.0))) and np.all(np.isin(y_te, (-1.0, 1.0)))):
        raise ConfigError("classification labels must be -1/+1")

    cvres, fit = _select_cell(cfg, X_tr, X_rq, None, threads)
    est = fit(X_tr, X_rq, cvres.selected_t, [cvres.selected_lam])[0]
    weights = est.evaluate(X_tr, clip_negative=cfg.clip_weights)

    n = X_tr.shape[0]
    sizes = cfg.train_sizes if cfg.train_sizes is not None else (n,)
    for s in sizes:
        if s > n:
            raise ConfigError(f"train size {s} exceeds the {n} available rows")
    perm = np.random.default_rng(derive_seed(cfg.seed, "train-subset")).permutation(n)

    metrics = {"weighted": {}, "unweighted": {}}
    for s in sizes:
        idx = perm[:s]
        for variant in ("weighted", "unweighted"):
            w = weights[idx] if variant == "weighted" else np.ones(s)
            if not np.any(w > 0):
                raise NumericalError(f"estimated weights vanish on the size-{s} training subset")
            if cfg.task == "regression":
                model = weighted_ols(X_tr[idx], y_tr[idx], w)
            else:
                model = weighted_linear_svm(X_tr[idx], y_tr[idx], w, C=cfg.svm.C, epochs=cfg.svm.epochs)
            metrics[variant][str(s)] = eval_metrics(model, X_te, y_te)

    payload = {
        "task": cfg.task,
        "sizes": list(sizes),
        "metrics": metrics,
        "ratio": {"selected_t": cvres.selected_t, "selected_lambda": cvres.selected_lam},
        "weights_path": "weights.csv",
    }
    return _write_outputs(out_dir, cfg, "downstream", payload, [("weights.csv", ["weight"], weights[:, None])])


@blas_threads(1)
def run_resample(cfg: ResampleConfig, out_dir):
    X, labels = _load_source(cfg.data, "data", cfg.seed)
    payload = {"total": int(X.shape[0]), "kept_path": "kept.csv"}
    if cfg.kind == "pca_sigmoid":
        # b in units of sigma_v needs sigma_v before the draw; pca_resample reports it otherwise
        b_abs = cfg.b * first_pc(X)[1] if cfg.b_units == "sigma" else cfg.b
        res = pca_resample(X, labels, cfg.a, b_abs, derive_seed(cfg.seed, "resample"))
        payload.update({"sigma_v": res.sigma_v, "b_absolute": float(b_abs)})
    else:
        if labels is None:
            raise ConfigError("label_subset mode needs a label_column in the data source")
        keep = cfg.labels
        if labels.dtype.kind == "f":
            try:
                keep = [float(l) for l in keep]
            except (TypeError, ValueError):
                raise ConfigError(f"labels are numeric but mode.labels {keep!r} are not") from None
        else:
            keep = [str(l) for l in keep]
        res = label_resample(X, labels, keep)
    payload["kept"] = int(res.X.shape[0])

    header = [f"x{j}" for j in range(res.X.shape[1])]
    rows = res.X
    if res.labels is not None:
        header.append("label")
        if res.labels.dtype.kind == "f":
            rows = np.column_stack([res.X, res.labels])
        else:
            rows = [[*row, lab] for row, lab in zip(res.X.tolist(), res.labels.tolist())]
    return _write_outputs(out_dir, cfg, "resample", payload, [("kept.csv", header, rows)])


# === entry point ===

_COMMANDS = {
    "estimate": (EstimateConfig, "fit a ratio estimate with CV-selected (t, lambda)"),
    "cv": (EstimateConfig, "run the CV grid only and report the J-score surface"),
    "simulate": (BenchConfig, "benchmark estimators on analytic densities against the true ratio"),
    "downstream": (DownstreamConfig, "fit importance-weighted vs unweighted learners under covariate shift"),
    "resample": (ResampleConfig, "subsample a dataset to induce covariate shift"),
}


def _fail(code, message):
    print(json.dumps({"code": code, "error": message}), file=sys.stderr)
    raise SystemExit(code)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="firedre", description="density-ratio estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="firedre_out", help="output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=worker_count(os.cpu_count() or 1),
            help=(
                "worker threads for CV cells and simulate trials, capped at the CPUs in this process's "
                "affinity mask and cgroup CPU quota (default: all of them, here %(default)s); cells run on "
                "one BLAS thread, so this changes no output bit"
            ),
        )
    args = parser.parse_args(argv)

    cls = _COMMANDS[args.command][0]
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = load_config(args.config, cls)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.command == "estimate":
            run_estimate(cfg, args.out, threads=args.threads)
        elif args.command == "cv":
            run_cv(cfg, args.out, threads=args.threads)
        elif args.command == "simulate":
            run_bench(cfg, args.out, threads=args.threads)
        elif args.command == "downstream":
            run_downstream(cfg, args.out, threads=args.threads)
        else:
            run_resample(cfg, args.out)
    except ConfigError as exc:
        _fail(2, str(exc))
    except (NumericalError, np.linalg.LinAlgError) as exc:
        _fail(3, str(exc))
    except ValueError as exc:
        _fail(2, str(exc))
    except OSError as exc:
        _fail(2, str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
