"""The one-problem subgradient loop and the per-C search, kept as the
reference for ``featlearn.svm``: ``svm_train`` must reproduce
``subgradient_descent`` bit for bit, model by model, ``svm_cv`` must score
every (fold, C) as ``per_c_cv`` does, and ``harness._choose`` must then pick
the C that ``per_c_cv`` picks.

The objective and the schedule are the package's; see the ``svm`` module.
``subgradient_descent`` works on the hinge loss's +/-1 labels, and its
callers convert the package's 0/1 labels to them; it returns the iterate
with the lowest objective seen, w = 0 first, so it never scores worse than
w = 0. ``svm_objective`` is that objective at 0/1 labels.
"""

from __future__ import annotations

import numpy as np

from featlearn.data import class_labels
from featlearn.svm import LinearSvmModel, accuracy, svm_predict


def svm_objective(X: np.ndarray, labels, w: np.ndarray, bias: float, C: float) -> float:
    """The primal objective (see the ``svm`` module docstring) at 0/1 ``labels``."""
    X = np.asarray(X, dtype=float)
    margins = (2.0 * class_labels(labels, X.shape[:1]) - 1.0) * (X @ w + bias)
    return 0.5 * float(w @ w) + C * float(np.sum(np.maximum(0.0, 1.0 - margins)))


def subgradient_descent(X: np.ndarray, labels, C: float, tol: float,
                        max_epochs: int) -> LinearSvmModel:
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
    best_obj = C * n  # objective at w = 0, b = 0
    best_w, best_b = w.copy(), b
    prev_obj = best_obj
    converged = False
    for t in range(1, max_epochs + 1):
        margins = y * (X @ w + b)
        obj = 0.5 * float(w @ w) + C * float(np.sum(np.maximum(0.0, 1.0 - margins)))
        if not np.isfinite(obj):
            raise ArithmeticError(f"objective non-finite at epoch {t}")
        if obj < best_obj:
            best_obj, best_w, best_b = obj, w.copy(), b
        if abs(obj - prev_obj) < tol * (1.0 + abs(obj)) and t > 1:
            converged = True
            break
        prev_obj = obj

        viol = margins < 1.0
        coef = np.where(viol, y, 0.0) / n
        step = 1.0 / (lam * t)
        w = (1.0 - 1.0 / t) * w + step * (coef @ X)
        b = b + step * float(np.sum(coef))

    return LinearSvmModel(w=best_w, bias=float(best_b), C=C, epochs=t, converged=converged)


def per_c_cv(X: np.ndarray, labels, folds, C_grid, tol: float,
             max_epochs: int) -> tuple[float, np.ndarray]:
    """C maximizing mean validation accuracy over ``kfold``'s (training mask,
    validation rows) pairs and 0/1 labels, one ``subgradient_descent`` run
    per (fold, C); ties go to the smaller C. Also returns the accuracy per
    (fold, C), with the columns in ascending C order."""
    grid = sorted(float(c) for c in C_grid)
    X = np.asarray(X, dtype=float)
    y01 = np.asarray(labels)
    y = 2.0 * y01 - 1.0
    scores = np.zeros(len(grid))
    per_fold = np.zeros((len(folds), len(grid)))
    for f, (train, val) in enumerate(folds):
        for i, C in enumerate(grid):
            model = subgradient_descent(X[train], y[train], C, tol=tol, max_epochs=max_epochs)
            per_fold[f, i] = accuracy(svm_predict(model, X[val]), y01[val])
            scores[i] += per_fold[f, i]
    return grid[int(np.argmax(scores))], per_fold
