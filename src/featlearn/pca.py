"""PCA via covariance eigendecomposition: fitting and projection.
Components are ordered by variance, descending."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import sample_covariance, sym_eigen_block


@dataclass(frozen=True)
class PcaModel:
    """Column means, orthonormal component directions, and per-component
    score variances (covariance denominator n)."""

    mean: np.ndarray
    components: np.ndarray
    variances: np.ndarray


def pca_fit(X: np.ndarray, r: int) -> PcaModel:
    """Top-r eigenpairs of the sample covariance matrix: the one-matrix use
    of ``pca_fit_block``. ``components`` is the first r columns of the
    covariance's eigenvector matrix, a view with that matrix's strides.

    Raises ValueError unless X is finite and 1 <= r <= min(n - 1, p)."""
    return pca_fit_block([X], r)[0]


def pca_fit_block(Xs, r: int) -> list[PcaModel]:
    """``pca_fit(X, r)`` for each X of an iterable of equal-width matrices,
    with one ``sym_eigen_block`` over their covariances. Each X is read once
    and not kept, so a generator holds one at a time. Member i is byte- and
    stride-equal to ``pca_fit(Xs[i], r)``, and cutting it to its first r' < r
    components gives ``pca_fit(Xs[i], r')``."""
    means, covariances = [], []
    for i, X in enumerate(Xs):
        X = np.asarray(X, dtype=float)
        n, p = X.shape
        if not 1 <= r <= min(n - 1, p):
            raise ValueError(f"r must lie in 1..min(n-1, p) = {min(n - 1, p)}, got {r}"
                             f" (matrix {i})")
        if not np.all(np.isfinite(X)):
            raise ValueError(f"matrix {i} has a non-finite entry")
        means.append(X.mean(axis=0))
        covariances.append(sample_covariance(X))
    return [PcaModel(mean=mean, components=eig.eigenvectors[:, :r], variances=eig.eigenvalues[:r])
            for mean, eig in zip(means, sym_eigen_block(covariances))]


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """Scores (X - mean) V, one row per sample."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.mean.shape[0]:
        raise ValueError(f"expected {model.mean.shape[0]} columns, got {X.shape[1]}")
    return (X - model.mean) @ model.components
