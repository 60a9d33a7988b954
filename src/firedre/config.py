"""Experiment configuration: JSON in, validated dataclasses out, echo back.

Every runner resolves its config to a fully populated dataclass, and the
resolved form can be serialized back to JSON (the "echo") such that
re-running from the echo reproduces the results byte for byte.
"""

import json
from dataclasses import dataclass, field

from .baselines import GaussianDensity, MixtureDensity, UniformDensity
from .selection import LAMBDA_GRID, SETTINGS, VALIDATION_FAMILIES


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _take(d, name, allowed):
    if not isinstance(d, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")
    return d


def _num(d, name, key, default=None, required=False, low=None, high=None, integer=False):
    if key not in d or d[key] is None:
        if required:
            raise ConfigError(f"{name}.{key} is required")
        return default
    x = d[key]
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{name}.{key} must be a number, got {x!r}")
    if integer and int(x) != x:
        raise ConfigError(f"{name}.{key} must be an integer, got {x!r}")
    if low is not None and x < low:
        raise ConfigError(f"{name}.{key} must be >= {low}, got {x}")
    if high is not None and x > high:
        raise ConfigError(f"{name}.{key} must be <= {high}, got {x}")
    return int(x) if integer else float(x)


# === analytic density specs ===


def density_from_dict(d, name="density"):
    d = _take(d, name, {"kind", "mean", "std", "low", "high", "weights", "components"})
    kind = d.get("kind")
    try:
        if kind == "gaussian":
            return GaussianDensity(mean=d["mean"], std=d["std"])
        if kind == "uniform":
            return UniformDensity(low=d["low"], high=d["high"])
        if kind == "mixture":
            comps = tuple(density_from_dict(c, f"{name}.components[{i}]") for i, c in enumerate(d["components"]))
            return MixtureDensity(weights=tuple(d["weights"]), components=comps)
    except KeyError as exc:
        raise ConfigError(f"{name}: missing field {exc} for kind {kind!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None
    raise ConfigError(f"{name}.kind must be gaussian, uniform, or mixture, got {kind!r}")


def density_to_dict(spec):
    if isinstance(spec, GaussianDensity):
        return {"kind": "gaussian", "mean": list(spec.mean), "std": spec.std}
    if isinstance(spec, UniformDensity):
        return {"kind": "uniform", "low": list(spec.low), "high": list(spec.high)}
    if isinstance(spec, MixtureDensity):
        return {
            "kind": "mixture",
            "weights": list(spec.weights),
            "components": [density_to_dict(c) for c in spec.components],
        }
    raise TypeError(f"not a density spec: {spec!r}")


# === sample sources ===


@dataclass(frozen=True)
class SourceConfig:
    """Where a sample comes from: a CSV file or an analytic density."""

    csv: str | None = None
    label_column: int | None = None
    density: object | None = None
    n: int | None = None

    @classmethod
    def from_dict(cls, d, name):
        d = _take(d, name, {"csv", "label_column", "density", "n"})
        csv_path = d.get("csv")
        density = d.get("density")
        if (csv_path is None) == (density is None):
            raise ConfigError(f"{name}: exactly one of 'csv' or 'density' is required")
        if csv_path is not None:
            if not isinstance(csv_path, str):
                raise ConfigError(f"{name}.csv must be a path string")
            label = _num(d, name, "label_column", integer=True)
            return cls(csv=csv_path, label_column=label)
        n = _num(d, name, "n", required=True, integer=True, low=1)
        return cls(density=density_from_dict(density, f"{name}.density"), n=n)

    def to_dict(self):
        if self.csv is not None:
            return {"csv": self.csv, "label_column": self.label_column}
        return {"density": density_to_dict(self.density), "n": self.n}


# === shared solver / grid / cv blocks ===


@dataclass(frozen=True)
class SolverConfig:
    setting: str = "type1"
    gamma: float | None = None
    t_prime_ratio: float = 2.0
    normalized: bool = True

    @classmethod
    def from_dict(cls, d, name="solver"):
        d = _take(d, name, {"setting", "gamma", "t_prime_ratio", "normalized"})
        setting = d.get("setting", cls.setting)
        if setting not in SETTINGS:
            raise ConfigError(f"{name}.setting must be one of {sorted(SETTINGS)}, got {setting!r}")
        gamma = _num(d, name, "gamma", low=0.0, high=1.0)
        if SETTINGS[setting].needs_gamma and gamma is None:
            raise ConfigError(f"{name}: {setting} setting requires gamma in [0, 1]")
        ratio = _num(d, name, "t_prime_ratio", default=2.0, low=1e-12)
        normalized = d.get("normalized", True)
        if not isinstance(normalized, bool):
            raise ConfigError(f"{name}.normalized must be a boolean, got {normalized!r}")
        return cls(setting=setting, gamma=gamma, t_prime_ratio=ratio, normalized=normalized)

    def to_dict(self):
        return {
            "setting": self.setting,
            "gamma": self.gamma,
            "t_prime_ratio": self.t_prime_ratio,
            "normalized": self.normalized,
        }


@dataclass(frozen=True)
class GridConfig:
    t: tuple | None = None  # None: data-driven doubling grid
    lam: tuple = tuple(float(x) for x in LAMBDA_GRID)
    neighbors: int = 10
    size: int = 10

    @classmethod
    def from_dict(cls, d, name="grids"):
        d = _take(d, name, {"t", "lambda", "neighbors", "size"})
        t = d.get("t")
        if t is not None:
            if not isinstance(t, list) or not t or any(not isinstance(x, (int, float)) or x <= 0 for x in t):
                raise ConfigError(f"{name}.t must be a non-empty list of positive numbers")
            t = tuple(float(x) for x in t)
        lam = d.get("lambda")
        if lam is None:
            lam = cls.lam
        else:
            if not isinstance(lam, list) or not lam or any(not isinstance(x, (int, float)) or x <= 0 for x in lam):
                raise ConfigError(f"{name}.lambda must be a non-empty list of positive numbers")
            lam = tuple(float(x) for x in lam)
        return cls(
            t=t,
            lam=lam,
            neighbors=_num(d, name, "neighbors", default=10, integer=True, low=1),
            size=_num(d, name, "size", default=10, integer=True, low=1),
        )

    def to_dict(self):
        return {
            "t": list(self.t) if self.t is not None else None,
            "lambda": list(self.lam),
            "neighbors": self.neighbors,
            "size": self.size,
        }


@dataclass(frozen=True)
class ValidationConfig:
    family: str = "linear"
    count: int = 50
    anchor_count: int = 50

    @classmethod
    def from_dict(cls, d, name="validation"):
        d = _take(d, name, {"family", "count", "anchor_count"})
        family = d.get("family", "linear")
        if family not in VALIDATION_FAMILIES:
            raise ConfigError(f"{name}.family must be one of {sorted(VALIDATION_FAMILIES)}, got {family!r}")
        return cls(
            family=family,
            count=_num(d, name, "count", default=50, integer=True, low=1),
            anchor_count=_num(d, name, "anchor_count", default=50, integer=True, low=1),
        )

    def to_dict(self):
        return {"family": self.family, "count": self.count, "anchor_count": self.anchor_count}


@dataclass(frozen=True)
class CVConfig:
    folds: int = 5
    fraction: float = 0.8
    max_points: int | None = None
    type2_q_points: int = 1000

    @classmethod
    def from_dict(cls, d, name="cv"):
        d = _take(d, name, {"folds", "fraction", "max_points", "type2_q_points"})
        return cls(
            folds=_num(d, name, "folds", default=5, integer=True, low=2),
            fraction=_num(d, name, "fraction", default=0.8, low=1e-6, high=1.0),
            max_points=_num(d, name, "max_points", integer=True, low=20),
            type2_q_points=_num(d, name, "type2_q_points", default=1000, integer=True, low=10),
        )

    def to_dict(self):
        return {
            "folds": self.folds,
            "fraction": self.fraction,
            "max_points": self.max_points,
            "type2_q_points": self.type2_q_points,
        }


# === per-command configs ===


@dataclass(frozen=True)
class EstimateConfig:
    seed: int = 0
    p: SourceConfig = None
    q: SourceConfig | None = None
    q_function: object | None = None  # density spec for known-q fitting
    solver: SolverConfig = field(default_factory=SolverConfig)
    grids: GridConfig = field(default_factory=GridConfig)
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    cv: CVConfig = field(default_factory=CVConfig)
    clip_negative: bool = False

    @classmethod
    def from_dict(cls, d):
        d = _take(d, "config", {"seed", "p", "q", "q_function", "solver", "grids", "validation", "cv", "clip_negative"})
        if "p" not in d:
            raise ConfigError("config.p is required")
        solver = SolverConfig.from_dict(d.get("solver", {}))
        q = d.get("q")
        q_function = d.get("q_function")
        if SETTINGS[solver.setting].reads_q_fn:
            if q_function is None:
                raise ConfigError(f"{solver.setting} needs config.q_function (an analytic density)")
            if q is not None:
                raise ConfigError(f"{solver.setting} takes q_function, not a q sample")
            q_function = density_from_dict(q_function, "q_function")
        else:
            if q is None:
                raise ConfigError(f"setting {solver.setting!r} needs a q sample source")
            if q_function is not None:
                raise ConfigError(f"q_function is only valid for settings that read it, not {solver.setting!r}")
        clip = d.get("clip_negative", False)
        if not isinstance(clip, bool):
            raise ConfigError("config.clip_negative must be a boolean")
        return cls(
            seed=_num(d, "config", "seed", default=0, integer=True, low=0),
            p=SourceConfig.from_dict(d["p"], "p"),
            q=SourceConfig.from_dict(q, "q") if q is not None else None,
            q_function=q_function,
            solver=solver,
            grids=GridConfig.from_dict(d.get("grids", {})),
            validation=ValidationConfig.from_dict(d.get("validation", {})),
            cv=CVConfig.from_dict(d.get("cv", {})),
            clip_negative=clip,
        )

    def to_dict(self):
        return {
            "seed": self.seed,
            "p": self.p.to_dict(),
            "q": self.q.to_dict() if self.q is not None else None,
            "q_function": density_to_dict(self.q_function) if self.q_function is not None else None,
            "solver": self.solver.to_dict(),
            "grids": self.grids.to_dict(),
            "validation": self.validation.to_dict(),
            "cv": self.cv.to_dict(),
            "clip_negative": self.clip_negative,
        }


@dataclass(frozen=True)
class BenchConfig:
    seed: int = 0
    p_density: object = None
    q_density: object = None
    n_grid: tuple = (50, 200, 1000)
    m: int = 2000
    repetitions: int = 20
    methods: tuple = ("fire", "tikde", "lsif")
    eval_n: int = 1000
    solver: SolverConfig = field(default_factory=SolverConfig)
    grids: GridConfig = field(default_factory=GridConfig)

    @classmethod
    def from_dict(cls, d):
        d = _take(d, "config", {"seed", "p_density", "q_density", "n_grid", "m", "repetitions", "methods", "eval_n", "solver", "grids"})
        for key in ("p_density", "q_density"):
            if key not in d:
                raise ConfigError(f"config.{key} is required")
        n_grid = d.get("n_grid", [50, 200, 1000])
        if not isinstance(n_grid, list) or not n_grid or any(not isinstance(x, int) or x < 2 for x in n_grid):
            raise ConfigError("config.n_grid must be a non-empty list of ints >= 2")
        methods = d.get("methods", ["fire", "tikde", "lsif"])
        known = {"fire", "tikde", "lsif"}
        if not isinstance(methods, list) or not methods or any(m not in known for m in methods):
            raise ConfigError(f"config.methods must be a non-empty subset of {sorted(known)}")
        return cls(
            seed=_num(d, "config", "seed", default=0, integer=True, low=0),
            p_density=density_from_dict(d["p_density"], "p_density"),
            q_density=density_from_dict(d["q_density"], "q_density"),
            n_grid=tuple(n_grid),
            m=_num(d, "config", "m", default=2000, integer=True, low=2),
            repetitions=_num(d, "config", "repetitions", default=20, integer=True, low=1),
            methods=tuple(methods),
            eval_n=_num(d, "config", "eval_n", default=1000, integer=True, low=10),
            solver=SolverConfig.from_dict(d.get("solver", {})),
            grids=GridConfig.from_dict(d.get("grids", {})),
        )

    def to_dict(self):
        return {
            "seed": self.seed,
            "p_density": density_to_dict(self.p_density),
            "q_density": density_to_dict(self.q_density),
            "n_grid": list(self.n_grid),
            "m": self.m,
            "repetitions": self.repetitions,
            "methods": list(self.methods),
            "eval_n": self.eval_n,
            "solver": self.solver.to_dict(),
            "grids": self.grids.to_dict(),
        }


@dataclass(frozen=True)
class SvmConfig:
    C: float = 1.0
    epochs: int = 200

    @classmethod
    def from_dict(cls, d, name="svm"):
        d = _take(d, name, {"C", "epochs"})
        return cls(
            C=_num(d, name, "C", default=1.0, low=1e-12),
            epochs=_num(d, name, "epochs", default=200, integer=True, low=1),
        )

    def to_dict(self):
        return {"C": self.C, "epochs": self.epochs}


@dataclass(frozen=True)
class DownstreamConfig:
    seed: int = 0
    task: str = "regression"
    train: SourceConfig = None
    test: SourceConfig = None
    ratio_q: SourceConfig | None = None  # unlabeled sample for ratio fitting; defaults to test features
    solver: SolverConfig = field(default_factory=SolverConfig)
    grids: GridConfig = field(default_factory=GridConfig)
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    cv: CVConfig = field(default_factory=CVConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)
    train_sizes: tuple | None = None
    clip_weights: bool = True

    @classmethod
    def from_dict(cls, d):
        d = _take(
            d,
            "config",
            {"seed", "task", "train", "test", "ratio_q", "solver", "grids", "validation", "cv", "svm", "train_sizes", "clip_weights"},
        )
        task = d.get("task", "regression")
        if task not in ("regression", "classification"):
            raise ConfigError(f"config.task must be regression or classification, got {task!r}")
        for key in ("train", "test"):
            if key not in d:
                raise ConfigError(f"config.{key} is required")
        train = SourceConfig.from_dict(d["train"], "train")
        test = SourceConfig.from_dict(d["test"], "test")
        for name, src in (("train", train), ("test", test)):
            if src.csv is not None and src.label_column is None:
                raise ConfigError(f"config.{name} needs label_column for supervised evaluation")
        sizes = d.get("train_sizes")
        if sizes is not None:
            if not isinstance(sizes, list) or not sizes or any(not isinstance(x, int) or x < 2 for x in sizes):
                raise ConfigError("config.train_sizes must be a non-empty list of ints >= 2")
            sizes = tuple(sizes)
        clip = d.get("clip_weights", True)
        if not isinstance(clip, bool):
            raise ConfigError("config.clip_weights must be a boolean")
        solver = SolverConfig.from_dict(d.get("solver", {}))
        if SETTINGS[solver.setting].reads_q_fn:
            raise ConfigError(f"downstream ratio fitting needs a sampled q; {solver.setting} is not supported here")
        return cls(
            seed=_num(d, "config", "seed", default=0, integer=True, low=0),
            task=task,
            train=train,
            test=test,
            ratio_q=SourceConfig.from_dict(d["ratio_q"], "ratio_q") if d.get("ratio_q") is not None else None,
            solver=solver,
            grids=GridConfig.from_dict(d.get("grids", {})),
            validation=ValidationConfig.from_dict(d.get("validation", {})),
            cv=CVConfig.from_dict(d.get("cv", {})),
            svm=SvmConfig.from_dict(d.get("svm", {})),
            train_sizes=sizes,
            clip_weights=clip,
        )

    def to_dict(self):
        return {
            "seed": self.seed,
            "task": self.task,
            "train": self.train.to_dict(),
            "test": self.test.to_dict(),
            "ratio_q": self.ratio_q.to_dict() if self.ratio_q is not None else None,
            "solver": self.solver.to_dict(),
            "grids": self.grids.to_dict(),
            "validation": self.validation.to_dict(),
            "cv": self.cv.to_dict(),
            "svm": self.svm.to_dict(),
            "train_sizes": list(self.train_sizes) if self.train_sizes is not None else None,
            "clip_weights": self.clip_weights,
        }


@dataclass(frozen=True)
class ResampleConfig:
    seed: int = 0
    data: SourceConfig = None
    kind: str = "pca_sigmoid"
    a: float | None = None
    b: float | None = None
    b_units: str = "absolute"  # or "sigma": b is a multiple of sigma_v
    labels: tuple | None = None

    @classmethod
    def from_dict(cls, d):
        d = _take(d, "config", {"seed", "data", "mode"})
        if "data" not in d:
            raise ConfigError("config.data is required")
        mode = _take(d.get("mode", {}), "mode", {"kind", "a", "b", "b_units", "labels"})
        kind = mode.get("kind")
        if kind == "pca_sigmoid":
            b_units = mode.get("b_units", "absolute")
            if b_units not in ("absolute", "sigma"):
                raise ConfigError(f"mode.b_units must be absolute or sigma, got {b_units!r}")
            return cls(
                seed=_num(d, "config", "seed", default=0, integer=True, low=0),
                data=SourceConfig.from_dict(d["data"], "data"),
                kind=kind,
                a=_num(mode, "mode", "a", required=True),
                b=_num(mode, "mode", "b", required=True),
                b_units=b_units,
            )
        if kind == "label_subset":
            labels = mode.get("labels")
            if not isinstance(labels, list) or not labels:
                raise ConfigError("mode.labels must be a non-empty list")
            return cls(
                seed=_num(d, "config", "seed", default=0, integer=True, low=0),
                data=SourceConfig.from_dict(d["data"], "data"),
                kind=kind,
                labels=tuple(labels),
            )
        raise ConfigError(f"mode.kind must be pca_sigmoid or label_subset, got {kind!r}")

    def to_dict(self):
        mode = {"kind": self.kind}
        if self.kind == "pca_sigmoid":
            mode.update({"a": self.a, "b": self.b, "b_units": self.b_units})
        else:
            mode["labels"] = list(self.labels)
        return {"seed": self.seed, "data": self.data.to_dict(), "mode": mode}


def load_config(path, cls):
    """Parse a JSON config file into the given config dataclass."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return cls.from_dict(raw)
