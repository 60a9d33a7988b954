"""Data ingestion, covariate-shift resampling, and simulation.

Covariate shift is induced by keeping each row with a probability that
depends on its projection onto the first principal component (a smooth
sigmoid gate), or by keeping only a subset of class labels.
"""

import csv
import operator
from dataclasses import dataclass

import numpy as np

from .kernels import as_sample_matrix
from .linalg import eigh_descending


def load_csv(path, label_column=None):
    """Read a numeric matrix (and optional label column) from a CSV file.

    The first row is treated as a header when any non-label cell in it does
    not parse as a number.  Ragged rows, non-numeric feature cells, and
    non-finite numbers (nan, inf) among the features, or among the labels
    when they parse as numbers, raise with the 1-based file line on which
    the row's record ends (a quoted cell may span lines).  Labels
    parse as floats when every label does, otherwise they stay strings.
    Returns (X, labels-or-None).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
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


# numpy's SeedSequence (a pool of four uint32 words) and PCG64 constants
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _uint32_words(value):
    """The little-endian uint32 words of a non-negative int, as numpy seeds read it; 0 is [0]."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products a * b of uint64 arrays."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 state step, state * M + inc mod 2^128, on uint64 halves."""
    hi = _mulhi64(lo, _PCG_LO) + lo * _PCG_HI + hi * _PCG_LO
    lo = lo * _PCG_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _first_double(words):
    """np.random.default_rng(entropy_r).random() for each r, where words[j][r] is entropy_r[j].

    words is a list of equal-length uint32 arrays.  All arithmetic wraps:
    uint32 in the seed hashing, uint64 halves of PCG64's 128-bit state.
    """
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _MULT_A & _M32
        v = v * h
        return v ^ (v >> 16)

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ (r >> 16)

    zero = np.zeros_like(words[0])
    pool = [hashmix(words[j] if j < len(words) else zero) for j in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    state = []
    for k in range(8):
        v = pool[k % 4] ^ h
        h = h * _MULT_B & _M32
        v = v * h
        state.append((v ^ (v >> 16)).astype(np.uint64))
    s0, s1, s2, s3 = (state[2 * k] | state[2 * k + 1] << 32 for k in range(4))
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    lo = inc_lo + s1
    hi = inc_hi + s0 + (lo < inc_lo)
    for _ in range(2):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    x, r = hi ^ lo, hi >> 58
    out = x >> r | x << (64 - r & 63)
    return (out >> 11) * (1.0 / 9007199254740992.0)


def _row_uniforms(seed, rows):
    """np.random.default_rng([seed, i]).random() for each row index i, bit for bit.

    Replays numpy's SeedSequence hashing, PCG64 seeding and first double on
    arrays of rows instead of building one generator per row.  The entropy
    is seed's uint32 words then i's, so rows of one word and of two are
    drawn apart.
    """
    head = [np.uint32(w) for w in _uint32_words(operator.index(seed))]
    rows = np.asarray(rows, dtype=np.uint64)
    out = np.empty(rows.shape)
    wide = rows > _M32
    for sel, count in ((~wide, 1), (wide, 2)):
        r = rows[sel]
        tail = [(r >> 32 * k & _M32).astype(np.uint32) for k in range(count)]
        out[sel] = _first_double([np.broadcast_to(w, r.shape) for w in head] + tail)
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

    The Bernoulli draw for row i is the first uniform of the generator
    np.random.default_rng([seed, i]), computed for all rows at once, so one
    row's decision never depends on the others.
    """
    X = as_sample_matrix(X, "X")
    if labels is not None and len(labels) != X.shape[0]:
        raise ValueError("labels length does not match X")
    e1, sigma_v = first_pc(X)
    proj = (X - X.mean(axis=0)) @ e1
    probs = _sigmoid((a * proj - b) / sigma_v)
    u = _row_uniforms(seed, np.arange(X.shape[0]))
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
