"""PCA via covariance eigendecomposition: fitting, a block of matrices at a time
(one matrix is a block of one), and projection. ``linalg.sym_eigen`` solves;
``pca_fit`` decides the components' order, sign and layout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import feature_rows, plain_number
from .linalg import sym_eigen


@dataclass(frozen=True)
class PcaModel:
    """Column means, orthonormal component directions, and per-component
    score variances (denominator n), in ``pca_fit``'s order, sign and layout."""

    mean: np.ndarray
    components: np.ndarray
    variances: np.ndarray


def sample_covariance(X: np.ndarray) -> np.ndarray:
    """Covariance S = (1/n) sum_i (x_i - xbar)(x_i - xbar)^T, denominator n."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("sample_covariance requires at least 2 rows")
    centered = X - X.mean(axis=0)
    S = (centered.T @ centered) / n
    return (S + S.T) / 2.0


def pca_fit(Xs, r: int) -> list[PcaModel]:
    """Top-r eigenpairs of the sample covariance of each X of an iterable of
    equal-width matrices, with one ``sym_eigen`` over the covariances. Each X
    is read once and not kept, so a generator holds one at a time. Member i
    is byte- and stride-equal to ``pca_fit([Xs[i]], r)[0]``, and cut to its
    first r' < r components it is ``pca_fit([Xs[i]], r')[0]``. Per member, a
    stable descending argsort orders the eigenvalues and the columns of the
    C-contiguous eigenvector matrix (into a fresh array), and a column whose
    largest-magnitude entry is negative is negated. ``components`` is its first
    r columns, a view with its strides; it and ``variances`` are read-only.

    Raises ValueError, naming the matrix, unless 1 <= r <= min(n - 1, p), r an
    integer, or for a non-finite X (``sym_eigen``'s refusal, after numpy warns
    of any inf - inf). numpy refuses an X that is not 2-D or of another width."""
    r = plain_number("r", r, int)
    means, covariances = [], []
    for X in Xs:
        X = np.asarray(X, dtype=float)
        n, p = X.shape
        if not 1 <= r <= min(n - 1, p):
            raise ValueError(f"r must lie in 1..min(n-1, p) = {min(n - 1, p)}, got {r}"
                             f" (matrix {len(means)})")
        means.append(X.mean(axis=0))
        covariances.append(sample_covariance(X))
        del X  # freed before Xs makes the next, which enumerate's tuple would prevent
    models = []
    for mean, values, vectors in zip(means, *sym_eigen(covariances)):
        order = np.argsort(-values, kind="stable")
        variances = values[order]
        V = vectors[:, order]
        flip = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] < 0
        V[:, flip] *= -1.0
        variances.setflags(write=False)
        V.setflags(write=False)
        models.append(PcaModel(mean=mean, components=V[:, :r], variances=variances[:r]))
    return models


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """Scores (X - mean) V, one row per sample."""
    return (feature_rows(X, model.mean.shape[0]) - model.mean) @ model.components
