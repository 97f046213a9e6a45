"""Linear soft-margin SVM trained by deterministic averaged subgradient
descent on the primal objective

    (1/2) |w|^2 + C * sum_i max(0, 1 - y_i (w^T x_i + b)).

Full-batch steps of size 1/(lambda_eff * t) with lambda_eff = 1/(nC); the
averaged iterate and the best objective seen are both tracked and the
better one is returned, so the result never scores worse than w = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import cv_masks

DEFAULT_TOL = 1e-8
DEFAULT_MAX_EPOCHS = 2000


@dataclass(frozen=True)
class LinearSvmModel:
    w: np.ndarray
    bias: float
    C: float


def svm_objective(X: np.ndarray, y: np.ndarray, w: np.ndarray, bias: float, C: float) -> float:
    margins = y * (X @ w + bias)
    return 0.5 * float(w @ w) + C * float(np.sum(np.maximum(0.0, 1.0 - margins)))


def svm_train(X: np.ndarray, labels, C: float, tol: float = DEFAULT_TOL,
              max_epochs: int = DEFAULT_MAX_EPOCHS) -> LinearSvmModel:
    """Train on +/-1 labels; converged when the per-epoch objective change
    falls below tol * (1 + |objective|). The bias is unregularized."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, q = X.shape
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.all(y == y[0]):
        raise ValueError("both classes must be present")
    if C <= 0:
        raise ValueError("C must be > 0")
    lam = 1.0 / (n * C)

    w = np.zeros(q)
    b = 0.0
    w_avg = np.zeros(q)
    b_avg = 0.0
    best_obj = C * n  # objective at w = 0, b = 0
    best_w, best_b = w.copy(), b
    prev_obj = best_obj
    for t in range(1, max_epochs + 1):
        margins = y * (X @ w + b)
        obj = 0.5 * float(w @ w) + C * float(np.sum(np.maximum(0.0, 1.0 - margins)))
        if not np.isfinite(obj):
            raise ArithmeticError(f"objective non-finite at epoch {t}")
        if obj < best_obj:
            best_obj, best_w, best_b = obj, w.copy(), b
        if abs(obj - prev_obj) < tol * (1.0 + abs(obj)) and t > 1:
            break
        prev_obj = obj

        viol = margins < 1.0
        coef = np.where(viol, y, 0.0) / n
        step = 1.0 / (lam * t)
        w = (1.0 - 1.0 / t) * w + step * (coef @ X)
        b = b + step * float(np.sum(coef))
        w_avg += (w - w_avg) / t
        b_avg += (b - b_avg) / t

    avg_obj = svm_objective(X, y, w_avg, b_avg, C)
    if avg_obj < best_obj:
        return LinearSvmModel(w=w_avg, bias=float(b_avg), C=C)
    return LinearSvmModel(w=best_w, bias=float(best_b), C=C)


def svm_predict(model: LinearSvmModel, X: np.ndarray) -> np.ndarray:
    """sign(w^T x + b) as +/-1; a decision value of exactly 0 maps to +1."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.w.shape[0]:
        raise ValueError(f"expected {model.w.shape[0]} columns, got {X.shape[1]}")
    return np.where(X @ model.w + model.bias >= 0.0, 1, -1)


def accuracy(pred, truth) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError("prediction and truth must have equal nonzero length")
    return float(np.mean(pred == truth))


def svm_cv(X: np.ndarray, labels, folds, C_grid, tol: float = DEFAULT_TOL,
           max_epochs: int = DEFAULT_MAX_EPOCHS) -> float:
    """C maximizing mean validation accuracy; ties go to the smaller C."""
    grid = sorted(float(c) for c in C_grid)
    if not grid:
        raise ValueError("empty C grid")
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=float)
    scores = np.zeros(len(grid))
    for train, val in cv_masks(X.shape[0], folds):
        for i, C in enumerate(grid):
            model = svm_train(X[train], y[train], C, tol=tol, max_epochs=max_epochs)
            scores[i] += accuracy(svm_predict(model, X[val]), y[val])
    return grid[int(np.argmax(scores))]
