"""PCA via covariance eigendecomposition: fitting, a block of matrices at a time
(one matrix is a block of one), and projection. Components ordered by variance, descending."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import feature_rows, plain_number
from .linalg import sample_covariance, sym_eigen


@dataclass(frozen=True)
class PcaModel:
    """Column means, orthonormal component directions, and per-component
    score variances (covariance denominator n)."""

    mean: np.ndarray
    components: np.ndarray
    variances: np.ndarray


def pca_fit(Xs, r: int) -> list[PcaModel]:
    """Top-r eigenpairs of the sample covariance of each X of an iterable of
    equal-width matrices, with one ``sym_eigen`` over the covariances. Each X
    is read once and not kept, so a generator holds one at a time. Member i
    is byte- and stride-equal to ``pca_fit([Xs[i]], r)[0]``, and cut to its
    first r' < r components it is ``pca_fit([Xs[i]], r')[0]``. ``components``
    is the first r columns of the eigenvector matrix: a view, with its strides.

    Raises ValueError, naming the matrix, unless 1 <= r <= min(n - 1, p), r an
    integer, or for a non-finite X (``sym_eigen``'s refusal, after numpy warns
    of any inf - inf). numpy refuses an X that is not 2-D or of another width."""
    r = plain_number("r", r, int)
    means, covariances = [], []
    for i, X in enumerate(Xs):
        X = np.asarray(X, dtype=float)
        n, p = X.shape
        if not 1 <= r <= min(n - 1, p):
            raise ValueError(f"r must lie in 1..min(n-1, p) = {min(n - 1, p)}, got {r}"
                             f" (matrix {i})")
        means.append(X.mean(axis=0))
        covariances.append(sample_covariance(X))
    return [PcaModel(mean=mean, components=eig.eigenvectors[:, :r], variances=eig.eigenvalues[:r])
            for mean, eig in zip(means, sym_eigen(covariances))]


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """Scores (X - mean) V, one row per sample."""
    return (feature_rows(X, model.mean.shape[0]) - model.mean) @ model.components
