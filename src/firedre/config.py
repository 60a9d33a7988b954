"""Experiment configuration: JSON in, validated dataclasses out, echo back.

Every runner resolves its config to a fully populated dataclass, and the
resolved form can be serialized back to JSON (the "echo") such that
re-running from the echo reproduces the results byte for byte.  Each field
of a block is declared once, with its default, its JSON key and the check
that parses it; one `from_dict` and one `to_dict` read those declarations.
"""

import json
import sys
from dataclasses import dataclass, field, fields

from .baselines import GaussianDensity, MixtureDensity, UniformDensity
from .selection import LAMBDA_GRID, SETTINGS, VALIDATION_FAMILIES

METHODS = ("fire", "tikde", "lsif")  # the estimators `firedre simulate` compares, in row order


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _take(d, name, allowed):
    if not isinstance(d, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")
    return d


def _check_number(x, where, low=None, high=None, integer=False):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{where} must be a number, got {x!r}")
    if not abs(x) <= sys.float_info.max:  # JSON's NaN and Infinity, or an integer no float holds
        raise ConfigError(f"{where} must be a finite number, got {x!r}")
    if integer and int(x) != x:
        raise ConfigError(f"{where} must be an integer, got {x!r}")
    if low is not None and x < low:
        raise ConfigError(f"{where} must be >= {low}, got {x}")
    if high is not None and x > high:
        raise ConfigError(f"{where} must be <= {high}, got {x}")
    return int(x) if integer else float(x)


def _num(d, name, key, default=None, required=False, **bounds):
    if d.get(key) is None:
        if required:
            raise ConfigError(f"{name}.{key} is required")
        return default
    return _check_number(d[key], f"{name}.{key}", **bounds)


# === analytic density specs ===


def density_from_dict(d, name="density"):
    d = _take(d, name, {"kind", "mean", "std", "low", "high", "weights", "components"})
    for key in ("mean", "low", "high", "weights"):
        value = d.get(key)
        cells = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(x, (int, float)) and not abs(x) <= sys.float_info.max for x in cells):
            raise ConfigError(f"{name}.{key} must hold finite numbers, got {value!r}")
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
    except ConfigError:  # a component's, which names itself
        raise
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


# === declared fields ===


def _field(default, check, key=None, required=False, nullable=False):
    """A block field: its default, its JSON key and check(value, name, key).

    The key is the field name unless given.  check parses a present value; a
    missing value, or a null one where nullable, takes the default.
    """
    return field(default=default, metadata={"check": check, "key": key, "required": required, "nullable": nullable})


def _number(default=None, **bounds):
    return _field(default, lambda x, name, key: _check_number(x, f"{name}.{key}", **bounds), nullable=True)


def _choice(default, choices, wording, got=True):
    """A value of default's type among choices; got: whether a rejection shows the value."""

    def check(x, name, key):
        if not isinstance(x, type(default)) or x not in choices:
            raise ConfigError(f"{name}.{key} must be {wording}" + (f", got {x!r}" if got else ""))
        return x

    return _field(default, check)


def _flag(default, got=True):
    return _choice(default, (True, False), "a boolean", got)


def _list(default, item, ok, wording, key=None, nullable=False):
    def check(x, name, key):
        if not isinstance(x, list) or not x or not all(ok(v) for v in x):
            raise ConfigError(f"{name}.{key} must be a non-empty {wording}")
        return tuple(item(v) for v in x)

    return _field(default, check, key, nullable=nullable)


def _positive(v):
    return isinstance(v, (int, float)) and 0 < v <= sys.float_info.max


def _size(v):
    return isinstance(v, int) and v >= 2


def _nested(parse, default=None, required=False):
    """A block, sample source or density spec, parsed with its key as its name."""
    return _field(default, lambda x, name, key: parse(x, key), required=required,
                  nullable=default is None and not required)


def _block(cls):
    return _nested(cls.from_dict, cls())


def _echo(v):
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, (GaussianDensity, UniformDensity, MixtureDensity)):
        return density_to_dict(v)
    return v.to_dict() if hasattr(v, "to_dict") else v


class _Block:
    """Parse and echo of a config block from its declared fields."""

    _name = "config"  # what its messages call it when from_dict is given no name

    @classmethod
    def from_dict(cls, d, name=None):
        name = name or cls._name
        declared = [(f, f.metadata["key"] or f.name) for f in fields(cls)]
        d = _take(d, name, {key for _, key in declared})
        values = {}
        for f, key in declared:
            if key in d and (d[key] is not None or not f.metadata["nullable"]):
                values[f.name] = f.metadata["check"](d[key], name, key)
            elif f.metadata["required"]:
                raise ConfigError(f"{name}.{key} is required")
        cfg = cls(**values)
        cfg.validate(name)
        return cfg

    def validate(self, name):
        """Check the rules that join fields; most blocks have none."""

    def to_dict(self):
        return {f.metadata["key"] or f.name: _echo(getattr(self, f.name)) for f in fields(self)}


# === shared solver / grid / cv blocks ===


@dataclass(frozen=True)
class SolverConfig(_Block):
    setting: str = _choice("type1", SETTINGS, f"one of {sorted(SETTINGS)}")
    gamma: float | None = _number(low=0.0, high=1.0)
    t_prime_ratio: float = _number(2.0, low=1e-12)
    normalized: bool = _flag(True)

    _name = "solver"

    def validate(self, name):
        if SETTINGS[self.setting].needs_gamma and self.gamma is None:
            raise ConfigError(f"{name}: {self.setting} setting requires gamma in [0, 1]")


@dataclass(frozen=True)
class GridConfig(_Block):
    # None: the data-driven doubling grid
    t: tuple | None = _list(None, float, _positive, "list of positive numbers", nullable=True)
    lam: tuple = _list(tuple(float(x) for x in LAMBDA_GRID), float, _positive, "list of positive numbers",
                       key="lambda", nullable=True)
    neighbors: int = _number(10, integer=True, low=1)
    size: int = _number(10, integer=True, low=1)

    _name = "grids"


@dataclass(frozen=True)
class ValidationConfig(_Block):
    family: str = _choice("linear", VALIDATION_FAMILIES, f"one of {sorted(VALIDATION_FAMILIES)}")
    count: int = _number(50, integer=True, low=1)
    anchor_count: int = _number(50, integer=True, low=1)

    _name = "validation"


@dataclass(frozen=True)
class CVConfig(_Block):
    folds: int = _number(5, integer=True, low=2)
    fraction: float = _number(0.8, low=1e-6, high=1.0)
    max_points: int | None = _number(integer=True, low=20)
    type2_q_points: int = _number(1000, integer=True, low=10)

    _name = "cv"


@dataclass(frozen=True)
class SvmConfig(_Block):
    C: float = _number(1.0, low=1e-12)
    epochs: int = _number(200, integer=True, low=1)

    _name = "svm"


# === per-command configs ===


@dataclass(frozen=True)
class EstimateConfig(_Block):
    seed: int = _number(0, integer=True, low=0)
    p: SourceConfig = _nested(SourceConfig.from_dict, required=True)
    q: SourceConfig | None = _nested(SourceConfig.from_dict)
    q_function: object | None = _nested(density_from_dict)  # density spec for known-q fitting
    solver: SolverConfig = _block(SolverConfig)
    grids: GridConfig = _block(GridConfig)
    validation: ValidationConfig = _block(ValidationConfig)
    cv: CVConfig = _block(CVConfig)
    clip_negative: bool = _flag(False, got=False)

    def validate(self, name):
        setting = self.solver.setting
        if SETTINGS[setting].reads_q_fn:
            if self.q_function is None:
                raise ConfigError(f"{setting} needs config.q_function (an analytic density)")
            if self.q is not None:
                raise ConfigError(f"{setting} takes q_function, not a q sample")
        else:
            if self.q is None:
                raise ConfigError(f"setting {setting!r} needs a q sample source")
            if self.q_function is not None:
                raise ConfigError(f"q_function is only valid for settings that read it, not {setting!r}")


@dataclass(frozen=True)
class BenchConfig(_Block):
    seed: int = _number(0, integer=True, low=0)
    p_density: object = _nested(density_from_dict, required=True)
    q_density: object = _nested(density_from_dict, required=True)
    n_grid: tuple = _list((50, 200, 1000), int, _size, "list of ints >= 2")
    m: int = _number(2000, integer=True, low=2)
    repetitions: int = _number(20, integer=True, low=1)
    methods: tuple = _list(METHODS, str, METHODS.__contains__, f"subset of {sorted(METHODS)}")
    eval_n: int = _number(1000, integer=True, low=10)
    solver: SolverConfig = _block(SolverConfig)
    grids: GridConfig = _block(GridConfig)


@dataclass(frozen=True)
class DownstreamConfig(_Block):
    seed: int = _number(0, integer=True, low=0)
    task: str = _choice("regression", ("regression", "classification"), "regression or classification")
    train: SourceConfig = _nested(SourceConfig.from_dict, required=True)
    test: SourceConfig = _nested(SourceConfig.from_dict, required=True)
    # the unlabeled sample for ratio fitting; None: the test features
    ratio_q: SourceConfig | None = _nested(SourceConfig.from_dict)
    solver: SolverConfig = _block(SolverConfig)
    grids: GridConfig = _block(GridConfig)
    validation: ValidationConfig = _block(ValidationConfig)
    cv: CVConfig = _block(CVConfig)
    svm: SvmConfig = _block(SvmConfig)
    train_sizes: tuple | None = _list(None, int, _size, "list of ints >= 2", nullable=True)
    clip_weights: bool = _flag(True, got=False)

    def validate(self, name):
        for key in ("train", "test"):
            src = getattr(self, key)
            if src.csv is not None and src.label_column is None:
                raise ConfigError(f"{name}.{key} needs label_column for supervised evaluation")
        setting = self.solver.setting
        if SETTINGS[setting].reads_q_fn:
            raise ConfigError(f"downstream ratio fitting needs a sampled q; {setting} is not supported here")


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
        seed = _num(d, "config", "seed", default=0, integer=True, low=0)
        data = SourceConfig.from_dict(d["data"], "data")
        mode = _take(d.get("mode", {}), "mode", {"kind", "a", "b", "b_units", "labels"})
        kind = mode.get("kind")
        if kind == "pca_sigmoid":
            b_units = mode.get("b_units", "absolute")
            if b_units not in ("absolute", "sigma"):
                raise ConfigError(f"mode.b_units must be absolute or sigma, got {b_units!r}")
            a = _num(mode, "mode", "a", required=True)
            b = _num(mode, "mode", "b", required=True)
            return cls(seed=seed, data=data, kind=kind, a=a, b=b, b_units=b_units)
        if kind == "label_subset":
            labels = mode.get("labels")
            if not isinstance(labels, list) or not labels:
                raise ConfigError("mode.labels must be a non-empty list")
            return cls(seed=seed, data=data, kind=kind, labels=tuple(labels))
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
