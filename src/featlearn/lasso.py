"""L1-penalized least squares by cyclic coordinate descent, a regularization
path, and feature selection by nonzero coefficients.

The objective is |y - X b|^2 / n + lambda |b|_1 on standardized columns and
centered y; the intercept is handled by that centering rather than by an
unpenalized coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import cv_masks

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 10000
DEFAULT_SELECT_EPS = 1e-10


@dataclass(frozen=True)
class LassoFit:
    beta: np.ndarray
    lam: float
    iterations_run: int
    converged: bool
    objective: float


def _soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def lasso_objective(X: np.ndarray, y: np.ndarray, beta: np.ndarray, lam: float) -> float:
    r = y - X @ beta
    return float(r @ r) / X.shape[0] + lam * float(np.sum(np.abs(beta)))


def lasso_fit(X: np.ndarray, y: np.ndarray, lam: float,
              tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
              beta0: np.ndarray | None = None) -> LassoFit:
    """Cyclic coordinate descent with exact soft-threshold updates.

    Each coordinate is set to its exact partial minimizer
    b_j = S(X_j^T r / n, lam/2) * n / |X_j|^2, which keeps the objective
    nonincreasing sweep over sweep. Converged when the largest coordinate
    change in a sweep is below ``tol``; otherwise returns converged=False
    after ``max_iter`` sweeps. ``beta0`` warm-starts path fits.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    n, p = X.shape
    col_sq = np.einsum("ij,ij->j", X, X)
    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=float)
    r = y - X @ beta
    half_lam = lam / 2.0
    cols = [np.ascontiguousarray(X[:, j]) for j in range(p)]

    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            xj = cols[j]
            bj = beta[j]
            if bj != 0.0:
                r += xj * bj
            zj = float(xj @ r) / n
            bnew = _soft_threshold(zj, half_lam) * n / col_sq[j]
            if bnew != 0.0:
                r -= xj * bnew
            beta[j] = bnew
            delta = abs(bnew - bj)
            if delta > max_delta:
                max_delta = delta
        if sweeps % 100 == 0:
            r = y - X @ beta  # shed accumulated float drift
        if max_delta < tol:
            converged = True
            break
    return LassoFit(beta=beta, lam=lam, iterations_run=sweeps, converged=converged,
                    objective=lasso_objective(X, y, beta, lam))


def lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest lambda with an all-zero solution: (2/n) max_j |X_j^T y|.

    Each dot product is computed exactly as the coordinate sweep computes
    it, so lasso_fit(X, y, lambda_max(X, y)) lands on zero bit-exactly.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    best = 0.0
    for j in range(X.shape[1]):
        v = abs(float(np.ascontiguousarray(X[:, j]) @ y))
        if v > best:
            best = v
    return 2.0 * best / n


def lambda_path(X: np.ndarray, y: np.ndarray, n_lambdas: int, ratio: float) -> np.ndarray:
    """Log-spaced descending grid from lambda_max down to ratio*lambda_max."""
    if n_lambdas < 2:
        raise ValueError("n_lambdas must be >= 2")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    lmax = lambda_max(X, y)
    if lmax == 0.0:
        return np.array([0.0])
    return np.geomspace(lmax, ratio * lmax, n_lambdas)


def selected_features(fit: LassoFit, eps: float = DEFAULT_SELECT_EPS) -> np.ndarray:
    """Indices with |beta_j| > eps, ascending."""
    return np.flatnonzero(np.abs(fit.beta) > eps)


def lasso_cv(X: np.ndarray, y: np.ndarray, folds, lambdas,
             tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Lambda minimizing mean validation squared error over the folds.

    ``y`` is the +/-1 class encoding used as a regression target. Within
    each fold the training columns and response are re-centered and the
    training mean serves as the intercept for validation predictions.
    Ties go to the larger (sparser) lambda.

    Every fold is scored on the same ``lambdas``, as glmnet does. The top of
    a full-data ``lambda_path`` need not give the zero fit in every fold,
    since each fold has its own lambda_max; and a small lambda can beat the
    null model on validation error by chance. So on pure-noise problems this
    rule returns the largest lambda on roughly 70% of them, not on all.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ValueError("empty lambda list")
    order = np.argsort(-lambdas, kind="stable")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    errors = np.zeros(lambdas.size)
    for train, val in cv_masks(X.shape[0], folds):
        col_means = X[train].mean(axis=0)
        y_mean = y[train].mean()
        Xtr = X[train] - col_means
        ytr = y[train] - y_mean
        Xval = X[val] - col_means
        beta = None
        for pos in order:
            fit = lasso_fit(Xtr, ytr, float(lambdas[pos]), tol=tol, max_iter=max_iter, beta0=beta)
            beta = fit.beta
            resid = y[val] - (Xval @ beta + y_mean)
            errors[pos] += float(resid @ resid) / val.size
    errors /= len(folds)
    return float(lambdas[order[np.argmin(errors[order])]])
