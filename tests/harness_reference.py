"""The per-fold PCA and t-test searches, kept as the references for
``harness._fit_pca_selector`` and ``harness._fit_ttest_selector``: each must
score every (fold, candidate) as its reference does and choose the value
that it chooses.

Each fold fits its own PCA, or ranks its own t statistics, and trains one
C = 1 ``averaged_subgradient`` per candidate r on the first r columns of its
scores, or per candidate m on its top m columns; the grid, the epoch budget,
the tolerance and the tie rule are the package's.
"""

from __future__ import annotations

import numpy as np

from featlearn.pca import pca_fit, pca_transform
from featlearn.svm import svm_predict
from featlearn.ttest import select_top_m, two_sample_t
from svm_reference import averaged_subgradient


def per_fold_pca_search(F: np.ndarray, ytr01, folds, pca_grid,
                        max_epochs: int) -> tuple[int, np.ndarray]:
    """r maximizing mean validation accuracy; ties go to the smaller r. Also
    returns the accuracy per (fold, r), with the columns in ascending r order."""
    ytr01 = np.asarray(ytr01)
    n, q = F.shape
    r_cap = min(min(n - len(val) for _, val in folds) - 1, q)
    grid = sorted({r for r in pca_grid if r <= r_cap}) or [r_cap]
    y_pm = 2.0 * ytr01 - 1.0
    scores = np.zeros(len(grid))
    per_fold = np.zeros((len(folds), len(grid)))
    for f, (train, val) in enumerate(folds):
        model, = pca_fit([F[train]], grid[-1])
        scores_tr = pca_transform(model, F[train])
        scores_val = pca_transform(model, F[val])
        for i, r in enumerate(grid):
            svm = averaged_subgradient(scores_tr[:, :r], y_pm[train], 1.0, tol=1e-6,
                                       max_epochs=max_epochs)
            per_fold[f, i] = float(np.mean(svm_predict(svm, scores_val[:, :r]) == ytr01[val]))
            scores[i] += per_fold[f, i]
    return grid[int(np.argmax(scores))], per_fold


def per_fold_ttest_search(F: np.ndarray, ytr01, folds, ttest_grid,
                          max_epochs: int) -> tuple[int, np.ndarray, list]:
    """m maximizing mean validation accuracy; ties go to the smaller m. Also
    returns the accuracy per (fold, m), with the columns in ascending m order,
    and the models, fold by fold in ascending m order. Each trains on a
    C-order copy of its fold's top-m columns, the layout of the package's
    t-test stacks; numpy's column gather is in Fortran order, which rounds
    differently."""
    ytr01 = np.asarray(ytr01)
    q = F.shape[1]
    grid = sorted({int(m) for m in ttest_grid if m <= q}) or [q]
    y_pm = 2.0 * ytr01 - 1.0
    scores = np.zeros(len(grid))
    per_fold = np.zeros((len(folds), len(grid)))
    models = []
    for f, (train, val) in enumerate(folds):
        t = two_sample_t(F[train], ytr01[train])
        for i, m in enumerate(grid):
            cols = select_top_m(t, m)
            svm = averaged_subgradient(np.ascontiguousarray(F[train][:, cols]), y_pm[train],
                                       1.0, tol=1e-6, max_epochs=max_epochs)
            models.append(svm)
            per_fold[f, i] = float(np.mean(svm_predict(svm, F[val][:, cols]) == ytr01[val]))
            scores[i] += per_fold[f, i]
    return grid[int(np.argmax(scores))], per_fold, models
