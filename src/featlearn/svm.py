"""Linear soft-margin SVM trained by deterministic averaged subgradient
descent on the primal objective

    (1/2) |w|^2 + C * sum_i max(0, 1 - y_i (w^T x_i + b)).

Full-batch steps of size 1/(lambda_eff * t) with lambda_eff = 1/(nC); the
averaged iterate and the best objective seen are both tracked and the
better one is returned, so the result never scores worse than w = 0.

``svm_train_block`` trains problems that share rows and labels in one epoch
loop, and model j is bit-equal to training (Xs[j], Cs[j]) alone: it gets the
same matrix-vector products on the same operands (one block-wide matrix
product would round differently), the other steps are elementwise, and a row
sum of a C-contiguous block equals the 1-D sum of that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import cv_masks

DEFAULT_TOL = 1e-8
DEFAULT_MAX_EPOCHS = 2000


@dataclass(frozen=True)
class LinearSvmModel:
    """``epochs``: objective evaluations made; ``converged``: tolerance met."""

    w: np.ndarray
    bias: float
    C: float
    epochs: int = 0
    converged: bool = False


def svm_objective(X: np.ndarray, y: np.ndarray, w: np.ndarray, bias: float, C: float) -> float:
    margins = y * (X @ w + bias)
    return 0.5 * float(w @ w) + C * float(np.sum(np.maximum(0.0, 1.0 - margins)))


def svm_train(X: np.ndarray, labels, C: float, tol: float = DEFAULT_TOL,
              max_epochs: int = DEFAULT_MAX_EPOCHS) -> LinearSvmModel:
    """Train one problem; see ``svm_train_block``."""
    return svm_train_block([X], labels, [C], tol=tol, max_epochs=max_epochs)[0]


def svm_train_block(Xs, labels, Cs, tol: float = DEFAULT_TOL,
                    max_epochs: int = DEFAULT_MAX_EPOCHS) -> list[LinearSvmModel]:
    """Train one model per (Xs[j], Cs[j]) on the same +/-1 labels. A model
    has converged, and leaves the block, when its per-epoch objective change
    falls below tol * (1 + |objective|). The bias is unregularized."""
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    y = np.asarray(labels, dtype=float)
    n = y.shape[0]
    if not Xs or len(Cs) != len(Xs):
        raise ValueError(f"need one C per problem, got {len(Xs)} problems, {len(Cs)} C values")
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    if any(X.ndim != 2 or X.shape[0] != n for X in Xs):
        raise ValueError(f"every problem must have {n} rows, one per label")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if n == 0 or np.all(y == y[0]):
        raise ValueError("both classes must be present")
    if min(Cs) <= 0:
        raise ValueError("C must be > 0")

    qs = [X.shape[1] for X in Xs]
    Wb = np.zeros((len(Xs), max(qs) + 1))  # a row: w, zero padding, the bias last
    Wb_avg, grad, margins = np.zeros_like(Wb), np.zeros_like(Wb), np.empty((len(Xs), n))
    lams = np.array([[1.0 / (n * C)] for C in Cs])
    best = [(C * n, np.zeros(q), 0.0) for C, q in zip(Cs, qs)]  # objective at w = 0, b = 0
    prev_obj = [C * n for C in Cs]
    models: list = [None] * len(Xs)
    live = list(range(len(Xs)))  # the problem in each row of the block

    def retire(i: int, t: int, converged: bool) -> None:
        j = live[i]
        w_avg, b_avg = Wb_avg[i, :qs[j]].copy(), float(Wb_avg[i, -1])
        best_obj, best_w, best_b = best[j]
        if svm_objective(Xs[j], y, w_avg, b_avg, Cs[j]) < best_obj:
            best_w, best_b = w_avg, b_avg
        models[j] = LinearSvmModel(w=best_w, bias=best_b, C=Cs[j], epochs=t, converged=converged)

    for t in range(1, max_epochs + 1):
        for i, j in enumerate(live):
            np.matmul(Xs[j], Wb[i, :qs[j]], out=margins[i])
        margins += Wb[:, -1:]
        margins *= y
        hinge = np.add.reduce(np.maximum(0.0, 1.0 - margins), axis=1).tolist()
        keep = []
        for i, j in enumerate(live):
            w = Wb[i, :qs[j]]
            obj = 0.5 * float(w @ w) + Cs[j] * hinge[i]
            if not math.isfinite(obj):
                raise ArithmeticError(f"objective non-finite at epoch {t}")
            if obj < best[j][0]:
                best[j] = (obj, w.copy(), float(Wb[i, -1]))
            if abs(obj - prev_obj[j]) < tol * (1.0 + abs(obj)) and t > 1:
                retire(i, t, converged=True)
            else:
                keep.append(i)
                prev_obj[j] = obj
        if not keep:
            return models
        if len(keep) < len(live):
            live = [live[i] for i in keep]
            Wb, Wb_avg, grad, lams, margins = (a[keep] for a in (Wb, Wb_avg, grad, lams, margins))

        coef = np.where(margins < 1.0, y, 0.0) / n
        for i, j in enumerate(live):
            np.matmul(coef[i], Xs[j], out=grad[i, :qs[j]])
        np.add.reduce(coef, axis=1, out=grad[:, -1])
        grad *= 1.0 / (lams * t)  # step sizes
        Wb[:, :-1] *= 1.0 - 1.0 / t
        Wb += grad
        Wb_avg += (Wb - Wb_avg) / t

    for i in range(len(live)):
        retire(i, max_epochs, converged=False)
    return models


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
    """C maximizing mean validation accuracy, each fold training the whole
    grid as one block; ties go to the smaller C."""
    grid = sorted(float(c) for c in C_grid)
    if not grid:
        raise ValueError("empty C grid")
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=float)
    scores = np.zeros(len(grid))
    for train, val in cv_masks(X.shape[0], folds):
        models = svm_train_block([X[train]] * len(grid), y[train], grid, tol, max_epochs)
        for i, model in enumerate(models):
            scores[i] += accuracy(svm_predict(model, X[val]), y[val])
    return grid[int(np.argmax(scores))]
