"""Importance-weighted downstream learners and their evaluation.

Estimated ratio weights w_i = f(x_i) reweight the training loss so that a
model fit on p-distributed data targets q-distributed test error.  Both
learners append an intercept feature; the SVM regularizes it along with the
rest of beta, the least-squares fit does not regularize at all.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import as_sample_matrix


@dataclass(eq=False)
class WeightedModel:
    """Linear model [coef..., intercept] with its training objective."""

    beta: np.ndarray
    task: str  # "regression" or "classification"
    objective: float
    objective_path: np.ndarray | None = None

    def decision(self, X):
        X = as_sample_matrix(X, "X")
        return X @ self.beta[:-1] + self.beta[-1]

    def predict(self, X):
        s = self.decision(X)
        if self.task == "classification":
            return np.where(s >= 0.0, 1.0, -1.0)
        return s


def _check_weights(w, n):
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights contain non-finite entries")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if not np.any(w > 0):
        raise ValueError("all weights are zero")
    return w


def weighted_ols(X, Y, w):
    """Weighted least squares, minimum-norm solution with an intercept.

    Minimizes sum_i w_i (y_i - beta' x~_i)^2 over beta via a scaled lstsq,
    so rank-deficient designs return the minimum-norm minimizer instead of
    failing.  The stored objective is the weighted residual sum of squares.
    """
    X = as_sample_matrix(X, "X")
    Y = np.asarray(Y, dtype=np.float64)
    n = X.shape[0]
    if Y.shape != (n,):
        raise ValueError(f"Y must have shape ({n},), got {Y.shape}")
    w = _check_weights(w, n)
    design = np.hstack([X, np.ones((n, 1))])
    s = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(design * s[:, None], Y * s, rcond=None)
    resid = Y - design @ beta
    return WeightedModel(beta=beta, task="regression", objective=float(np.sum(w * resid ** 2)))


def _svm_objective(beta, design, Y, w, C):
    margins = 1.0 - Y * (design @ beta)
    hinge = np.maximum(margins, 0.0)
    return float(beta @ beta + (C / len(Y)) * np.sum(w * hinge))


def weighted_linear_svm(X, Y, w, C=1.0, epochs=200):
    """Weighted soft-margin linear SVM by deterministic subgradient descent.

    Minimizes ||beta||^2 + (C/n) sum_i w_i max(0, 1 - y_i beta' x~_i) with
    full-batch subgradient steps of size 1/(2k) at iteration k (the ridge
    term has curvature 2).  Labels must be -1/+1.  Records the objective
    after every epoch and returns the best iterate seen, which never loses
    to the zero vector.  The optimizer is deterministic.
    """
    X = as_sample_matrix(X, "X")
    Y = np.asarray(Y, dtype=np.float64)
    n = X.shape[0]
    if Y.shape != (n,):
        raise ValueError(f"Y must have shape ({n},), got {Y.shape}")
    if not np.all(np.isin(Y, (-1.0, 1.0))):
        raise ValueError("classification labels must be -1 or +1")
    w = _check_weights(w, n)
    if not np.isfinite(C) or C <= 0:
        raise ValueError(f"C must be finite and > 0, got {C}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")

    design = np.hstack([X, np.ones((n, 1))])
    beta = np.zeros(design.shape[1])
    best_beta = beta.copy()
    best_obj = _svm_objective(beta, design, Y, w, C)
    path = np.empty(epochs)
    wy = w * Y
    for k in range(1, epochs + 1):
        active = Y * (design @ beta) < 1.0
        grad = 2.0 * beta - (C / n) * (design[active].T @ wy[active])
        beta = beta - grad / (2.0 * k)
        obj = _svm_objective(beta, design, Y, w, C)
        path[k - 1] = obj
        if obj < best_obj:
            best_obj = obj
            best_beta = beta.copy()
    return WeightedModel(beta=best_beta, task="classification", objective=best_obj, objective_path=path)


def eval_metrics(model: WeightedModel, X_test, Y_test):
    """Test metrics: mse/rmse always, plus normalized_mse (regression,
    mse over the variance of Y_test) or zero_one_error (classification)."""
    X_test = as_sample_matrix(X_test, "X_test")
    Y_test = np.asarray(Y_test, dtype=np.float64)
    if Y_test.shape != (X_test.shape[0],):
        raise ValueError("Y_test length does not match X_test")
    pred = model.predict(X_test)
    mse = float(np.mean((pred - Y_test) ** 2))
    out = {"mse": mse, "rmse": float(np.sqrt(mse))}
    if model.task == "regression":
        var = float(np.var(Y_test))
        out["normalized_mse"] = mse / var if var > 0 else float("inf")
    else:
        out["zero_one_error"] = float(np.mean(pred != Y_test))
    return out
