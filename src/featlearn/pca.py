"""PCA via covariance eigendecomposition: fitting and projection.
Components are ordered by variance, descending."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import sample_covariance, sym_eigen


@dataclass(frozen=True)
class PcaModel:
    """Column means, orthonormal component directions, and per-component
    score variances (covariance denominator n)."""

    mean: np.ndarray
    components: np.ndarray
    variances: np.ndarray


def pca_fit(X: np.ndarray, r: int) -> PcaModel:
    """Top-r eigenpairs of the sample covariance matrix."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if not 1 <= r <= min(n - 1, p):
        raise ValueError(f"r must lie in 1..min(n-1, p) = {min(n - 1, p)}, got {r}")
    eig = sym_eigen(sample_covariance(X))
    return PcaModel(mean=X.mean(axis=0), components=eig.eigenvectors[:, :r],
                    variances=eig.eigenvalues[:r])


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """Scores (X - mean) V, one row per sample."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.mean.shape[0]:
        raise ValueError(f"expected {model.mean.shape[0]} columns, got {X.shape[1]}")
    return (X - model.mean) @ model.components
