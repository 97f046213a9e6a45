"""The per-fold PCA search, kept as the reference for
``harness._fit_pca_selector``: it must choose the r that ``per_fold_pca_search``
chooses.

Each fold fits its own PCA and trains one C = 1 ``averaged_subgradient`` per
candidate r on the first r columns of its scores; the grid, the epoch budget,
the tolerance and the tie rule are the package's.
"""

from __future__ import annotations

import numpy as np

from featlearn.data import cv_masks
from featlearn.pca import pca_fit, pca_transform
from featlearn.svm import svm_predict
from svm_reference import averaged_subgradient


def per_fold_pca_search(F: np.ndarray, ytr01, folds, pca_grid, max_epochs: int) -> int:
    """r maximizing mean validation accuracy; ties go to the smaller r."""
    ytr01 = np.asarray(ytr01)
    n, q = F.shape
    r_cap = min(min(n - len(val) for val in folds) - 1, q)
    grid = sorted({r for r in pca_grid if r <= r_cap}) or [r_cap]
    y_pm = 2.0 * ytr01 - 1.0
    scores = np.zeros(len(grid))
    for train, val in cv_masks(n, folds):
        model = pca_fit(F[train], grid[-1])
        scores_tr = pca_transform(model, F[train])
        scores_val = pca_transform(model, F[val])
        for i, r in enumerate(grid):
            svm = averaged_subgradient(scores_tr[:, :r], y_pm[train], 1.0, tol=1e-6,
                                       max_epochs=max_epochs)
            pred01 = (svm_predict(svm, scores_val[:, :r]) + 1) // 2
            scores[i] += float(np.mean(pred01 == ytr01[val]))
    return grid[int(np.argmax(scores))]
