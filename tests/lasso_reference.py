"""Cyclic coordinate descent for the lasso, kept as an independent reference
for ``featlearn.lasso``: it shares no solver code with the homotopy path.
Also the running-maximum loop that ``lambda_max`` must equal bit for bit.

The objective is |y - X b|^2 / n + lambda |b|_1, the same as the package's.
"""

from __future__ import annotations

import numpy as np

from featlearn.lasso import LassoFit, lasso_objective

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 10000


def _soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def running_max_lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """(2/n) max_j |X_j^T y|, the maximum taken over the raw dot products."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    best = 0.0
    for j in range(X.shape[1]):
        v = abs(float(np.ascontiguousarray(X[:, j]) @ y))
        if v > best:
            best = v
    return 2.0 * best / n


def coordinate_descent(X: np.ndarray, y: np.ndarray, lam: float,
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
