"""Data ingestion, covariate-shift resampling, and simulation.

Covariate shift is induced by keeping each row with a probability that
depends on its projection onto the first principal component (a smooth
sigmoid gate), or by keeping only a subset of class labels.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .kernels import as_sample_matrix
from .linalg import eigh_descending


def load_csv(path, label_column=None):
    """Read a numeric matrix (and optional label column) from a CSV file.

    The first row is treated as a header when any non-label cell in it does
    not parse as a number.  Ragged rows, non-numeric feature cells, and
    non-finite numbers (nan, inf) among the features, or among the labels
    when they parse as numbers, raise with the 1-based line number.  Labels
    parse as floats when every label does, otherwise they stay strings.
    Returns (X, labels-or-None).
    """
    with open(path, newline="") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    width = len(rows[0][1])
    for line, row in rows:
        if len(row) != width:
            raise ValueError(f"{path}: line {line}: expected {width} fields, got {len(row)}")
    if label_column is not None:
        if not -width <= label_column < width:
            raise ValueError(f"{path}: label column {label_column} out of range for {width} columns")
        label_column %= width
        if width == 1:
            raise ValueError(f"{path}: no feature columns besides the label column")

    def numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    first = rows[0][1]
    has_header = any(
        not numeric(cell) for j, cell in enumerate(first) if j != label_column
    )
    body = rows[1:] if has_header else rows
    if not body:
        raise ValueError(f"{path}: no data rows")

    feat_cols = [j for j in range(width) if j != label_column]
    X = np.empty((len(body), len(feat_cols)))
    raw_labels = []
    for r, (line, row) in enumerate(body):
        for c, j in enumerate(feat_cols):
            try:
                X[r, c] = float(row[j])
            except ValueError:
                raise ValueError(f"{path}: line {line}: non-numeric value {row[j]!r} in column {j}") from None
        if label_column is not None:
            raw_labels.append(row[label_column])
    labels = None
    bad = ~np.isfinite(X)
    cols = np.array(feat_cols)
    if label_column is not None:
        try:
            labels = np.array([float(s) for s in raw_labels])
        except ValueError:
            labels = np.array(raw_labels)
        else:
            bad = np.column_stack([bad, ~np.isfinite(labels)])
            cols = np.append(cols, label_column)
    if bad.any():
        r = int(np.flatnonzero(bad.any(axis=1))[0])
        j = int(cols[bad[r]].min())
        line, row = body[r]
        raise ValueError(f"{path}: line {line}: non-finite value {row[j]!r} in column {j}")
    return X, labels


def first_pc(X):
    """Leading principal direction and the deviation along it.

    Uses the population covariance (1/n): returns (e1, sigma_v) with e1 the
    unit top eigenvector (first nonzero component positive) and sigma_v the
    standard deviation of centered projections onto e1.
    """
    X = as_sample_matrix(X, "X")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows for a principal direction")
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / X.shape[0]
    w, Q = eigh_descending(cov)
    if w[0] <= 0.0:
        raise ValueError("degenerate sample: zero variance in every direction")
    e1 = Q[:, 0]
    proj = Xc @ e1
    sigma_v = float(np.sqrt(np.mean(proj ** 2)))
    return e1, sigma_v


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(eq=False)
class ResampleResult:
    """Kept rows after biased subsampling, with alignment and diagnostics."""

    X: np.ndarray
    labels: np.ndarray | None
    mask: np.ndarray
    e1: np.ndarray | None = None
    sigma_v: float | None = None


def pca_resample(X, labels, a, b, seed):
    """Keep row i with probability sigmoid((a * <x_i - mean, e1> - b) / sigma_v).

    The Bernoulli draw for row i comes from a generator keyed by
    (seed, i), so one row's decision never depends on the others.
    """
    X = as_sample_matrix(X, "X")
    if labels is not None and len(labels) != X.shape[0]:
        raise ValueError("labels length does not match X")
    e1, sigma_v = first_pc(X)
    proj = (X - X.mean(axis=0)) @ e1
    probs = _sigmoid((a * proj - b) / sigma_v)
    u = np.array([np.random.default_rng([seed, i]).random() for i in range(X.shape[0])])
    mask = u < probs
    if not mask.any():
        raise ValueError("resampling kept no rows; loosen a or b")
    kept_labels = labels[mask] if labels is not None else None
    return ResampleResult(X=X[mask], labels=kept_labels, mask=mask, e1=e1, sigma_v=sigma_v)


def label_resample(X, labels, keep_labels):
    """Keep rows whose label lies in keep_labels."""
    X = as_sample_matrix(X, "X")
    if labels is None:
        raise ValueError("label_resample needs labels")
    labels = np.asarray(labels)
    if len(labels) != X.shape[0]:
        raise ValueError("labels length does not match X")
    mask = np.isin(labels, np.asarray(list(keep_labels)))
    if not mask.any():
        raise ValueError(f"no rows carry a label in {list(keep_labels)}")
    return ResampleResult(X=X[mask], labels=labels[mask], mask=mask)


def simulate(spec, n, seed):
    """Draw n points from an analytic density spec, deterministically in seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return spec.sample(n, np.random.default_rng(seed))
