"""PCA via covariance eigendecomposition: fitting, projection and
reconstruction error. Components are ordered by variance, descending."""

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


def reconstruction_error(model: PcaModel, X: np.ndarray) -> float:
    """(1/n) sum_i |(x_i - mean) - V V^T (x_i - mean)|^2."""
    X = np.asarray(X, dtype=float)
    centered = X - model.mean
    resid = centered - pca_transform(model, X) @ model.components.T
    return float(np.sum(resid * resid)) / X.shape[0]
