"""L1-penalized least squares solved exactly along its regularization path,
a log-spaced lambda grid, and feature selection by nonzero coefficients.

The objective is |y - X b|^2 / n + lambda |b|_1 on standardized columns and
centered y; the intercept is handled by that centering rather than by an
unpenalized coefficient.

The solution is piecewise linear in lambda (Osborne, Presnell & Turlach
2000, "A new approach to variable selection in least squares problems";
Efron, Hastie, Johnstone & Tibshirani 2004, "Least Angle Regression"), so
``lasso_path`` walks it down from lambda_max once, on the scaled Gram matrix
(2/n) X^T X, and reads off the exact solution at every requested lambda.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

DEFAULT_SELECT_EPS = 1e-10
# events whose lambdas agree to this fraction of lambda_max happen together
_TIE_RTOL = 1e-12
# choices of active set tried at one tie before giving up
_MAX_TIE_CHOICES = 1024


class SingularActiveSetError(ArithmeticError):
    """The lasso path cannot go on: its active columns are linearly
    dependent (for example a duplicated column), so the solution is not
    unique, or no choice among exactly tied columns is consistent."""


@dataclass(frozen=True)
class LassoFit:
    """The exact solution at ``lam``. ``iterations_run`` counts the path
    segments walked to reach it, and ``converged`` is always True: there is
    no iteration to stop early."""

    beta: np.ndarray
    lam: float
    iterations_run: int
    converged: bool
    objective: float


def lasso_objective(X: np.ndarray, y: np.ndarray, beta: np.ndarray, lam: float) -> float:
    r = y - X @ beta
    return float(r @ r) / X.shape[0] + lam * float(np.sum(np.abs(beta)))


def _solve_active(block: np.ndarray, rhs: np.ndarray, active: list[int]) -> np.ndarray:
    """Solve block @ x = rhs, raising SingularActiveSetError when a Cholesky
    pivot falls below the numerical-rank threshold k * eps * max diag."""
    try:
        pivots = np.diag(np.linalg.cholesky(block)) ** 2
    except np.linalg.LinAlgError:
        pivots = np.zeros(1)
    if pivots.min() <= block.shape[0] * np.finfo(float).eps * np.diag(block).max():
        raise SingularActiveSetError(f"active columns {sorted(active)} are linearly dependent")
    return np.linalg.solve(block, rhs)


def _tie_choices(natural: np.ndarray):
    """Masks over the tied columns: ``natural`` first, then masks that flip
    one, two, ... of its entries."""
    for k in range(natural.size + 1):
        for flips in itertools.combinations(range(natural.size), k):
            mask = natural.copy()
            mask[list(flips)] ^= True
            yield mask


def _next_segment(gram, corr0, keep, keep_signs, tied, tied_signs, natural):
    """Choose which tied columns (those at |c_j| = lam with beta_j = 0) are
    active on the next segment, and solve it.

    A choice holds when every column it makes active moves away from 0 in
    the direction of its sign and every other tied column's correlation
    moves inside the bound. One column at a time, a joining column always
    enters and a dropping one always leaves: that is ``natural``, tried
    first. Exact ties among correlated columns can need another choice.
    """
    for tries, mask in enumerate(_tie_choices(natural)):
        if tries == _MAX_TIE_CHOICES:
            break
        active = keep + tied[mask].tolist()
        if not active:
            continue
        signs = np.concatenate([keep_signs, tied_signs[mask]])
        try:
            u, v = _solve_active(gram[np.ix_(active, active)],
                                 np.column_stack([corr0[active], signs]), active).T
        except SingularActiveSetError:
            if tries == 0:
                raise
            continue
        cross = gram[:, active] @ np.column_stack([u, v])
        moves_out = tied_signs[mask] * v[len(keep):] > _TIE_RTOL * np.abs(v).max()
        stays_in = tied_signs[~mask] * cross[tied[~mask], 1] >= 1.0 - _TIE_RTOL
        if moves_out.all() and stays_in.all():
            return active, signs, u, v, cross, mask
    raise SingularActiveSetError(f"no consistent active set among tied columns {sorted(tied)}")


def _correlations(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(2/n) X^T y, one contiguous column dot product at a time."""
    n = X.shape[0]
    return np.array([2.0 * float(np.ascontiguousarray(col) @ y) / n for col in X.T])


def _walk(X: np.ndarray, y: np.ndarray, lambdas) -> tuple[np.ndarray, int]:
    """The homotopy behind lasso_path; also returns the segments walked.

    On a segment with active set A and signs s the optimality conditions
    give beta_A(lam) = G_AA^-1 (c0_A - lam s) and correlations
    c(lam) = c0 - G[:, A] beta_A(lam), where G = (2/n) X^T X and
    c0 = (2/n) X^T y. The segment ends where an inactive |c_j| reaches lam
    (j joins with the sign of c_j) or an active beta_j reaches 0 (j drops).
    Events within the tie tolerance happen together (``_next_segment``).
    Each segment solves its block from c0 and G afresh.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or not np.all(lambdas >= 0.0):
        raise ValueError("lambdas must be a list of values >= 0")
    n, p = X.shape
    betas = np.zeros((p, lambdas.size))
    corr0 = _correlations(X, y)  # so lam0 equals lambda_max bit for bit
    lam = float(np.max(np.abs(corr0), initial=0.0))
    pending = [int(pos) for pos in np.argsort(-lambdas, kind="stable") if lambdas[pos] < lam]
    if not pending:
        return betas, 0
    gram = (X.T @ X) * (2.0 / n)
    can_join = np.diag(gram) > 0.0  # a constant column never joins
    tie = _TIE_RTOL * lam
    keep, keep_signs = [], np.zeros(0)
    tied = np.flatnonzero(can_join & (np.abs(corr0) >= lam - tie))
    tied_signs = np.sign(corr0[tied])
    natural = np.ones(tied.size, dtype=bool)
    segments = 0
    while True:
        segments += 1
        active, signs, u, v, cross, mask = _next_segment(gram, corr0, keep, keep_signs,
                                                         tied, tied_signs, natural)
        corr = corr0 - cross[:, 0] + lam * cross[:, 1]
        slope = cross[:, 1]  # d corr / d lam off the active set
        # as lam falls by t, c_j reaches +lam at t_up, -lam at t_down, and
        # beta_A grows by t * v, so an active beta_j reaches 0 at t_drop
        shrink = -signs * v
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up = np.where(slope < 1.0, np.maximum(lam - corr, 0.0) / (1.0 - slope), np.inf)
            t_down = np.where(slope > -1.0, np.maximum(lam + corr, 0.0) / (1.0 + slope), np.inf)
            t_drop = np.where(shrink > 0.0, np.maximum(signs * (u - lam * v), 0.0) / shrink, np.inf)
        closed = ~can_join
        closed[active] = True
        t_up[closed] = np.inf
        t_down[closed] = np.inf
        # the choice just made holds for this segment: a tied column left
        # out stays off its bound, and one let in stays away from 0
        t_up[tied[~mask & (tied_signs > 0)]] = np.inf
        t_down[tied[~mask & (tied_signs < 0)]] = np.inf
        t_drop[len(keep):] = np.inf
        step = min(t_up.min(), t_down.min(), t_drop.min())
        end = lam - step
        while pending and lambdas[pending[0]] >= end:
            pos = pending.pop(0)
            betas[active, pos] = u - lambdas[pos] * v
        if not pending:
            return betas, segments
        leaving = t_drop <= step + tie
        at_up = t_up <= step + tie
        up = np.flatnonzero(at_up)
        down = np.flatnonzero((t_down <= step + tie) & ~at_up)
        keep = [j for j, out in zip(active, leaving) if not out]
        keep_signs = signs[~leaving]
        tied = np.concatenate([np.array(active)[leaving], up, down]).astype(int)
        tied_signs = np.concatenate([signs[leaving], np.ones(up.size), -np.ones(down.size)])
        natural = np.arange(tied.size) >= leaving.sum()  # the joining ones
        lam = end


def lasso_path(X: np.ndarray, y: np.ndarray, lambdas) -> np.ndarray:
    """The exact lasso solution at each lambda, as a p x len(lambdas) array
    whose columns follow the order of ``lambdas``.

    Every lambda >= lambda_max(X, y) gets exact zeros. Columns that are all
    zero never enter. Raises SingularActiveSetError if the walk would need
    linearly dependent active columns, such as a duplicated column or more
    active columns than rows.
    """
    return _walk(np.asarray(X, dtype=float), np.asarray(y, dtype=float), lambdas)[0]


def lasso_fit(X: np.ndarray, y: np.ndarray, lam: float) -> LassoFit:
    """The exact solution at one lambda: lasso_path with a one-value grid."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    betas, segments = _walk(X, y, [lam])
    beta = betas[:, 0]
    return LassoFit(beta=beta, lam=lam, iterations_run=segments, converged=True,
                    objective=lasso_objective(X, y, beta, lam))


def lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest lambda with an all-zero solution: (2/n) max_j |X_j^T y|, the
    largest |correlation| that lasso_path starts from, so its zeros are exact."""
    corr = _correlations(np.asarray(X, dtype=float), np.asarray(y, dtype=float))
    return float(np.max(np.abs(corr), initial=0.0))


def check_lambda_grid(n_lambdas: int, ratio: float) -> None:
    """Raises ValueError unless lambda_path accepts these grid settings."""
    if n_lambdas < 2:
        raise ValueError("n_lambdas must be >= 2")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")


def lambda_path(X: np.ndarray, y: np.ndarray, n_lambdas: int, ratio: float) -> np.ndarray:
    """Log-spaced descending grid from lambda_max down to ratio*lambda_max."""
    check_lambda_grid(n_lambdas, ratio)
    lmax = lambda_max(X, y)
    if lmax == 0.0:
        return np.array([0.0])
    return np.geomspace(lmax, ratio * lmax, n_lambdas)


def selected_features(fit: LassoFit, eps: float = DEFAULT_SELECT_EPS) -> np.ndarray:
    """Indices with |beta_j| > eps, ascending."""
    return np.flatnonzero(np.abs(fit.beta) > eps)


def lasso_cv(X: np.ndarray, y: np.ndarray, folds, lambdas) -> np.ndarray:
    """Minus the validation mean squared error per (fold, lambda), so higher
    is better, with the columns in ``lambdas`` order.

    ``folds`` are ``kfold``'s (training mask, validation rows) pairs and
    ``y`` the regression target. Within each fold the training columns and
    response are re-centered and the training mean serves as the intercept
    for validation predictions. One lasso_path walk per fold gives the fit
    at every lambda, and one matrix product scores them all.

    Every fold is scored on the same ``lambdas``, as glmnet does. The top of
    a full-data ``lambda_path`` need not give the zero fit in every fold,
    since each fold has its own lambda_max; and a small lambda can beat the
    null model on validation error by chance. So on pure-noise problems the
    largest lambda has the lowest total error in roughly 70% of them, not all.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ValueError("empty lambda list")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    scores = np.zeros((len(folds), lambdas.size))
    for f, (train, val) in enumerate(folds):
        col_means = X[train].mean(axis=0)
        y_mean = y[train].mean()
        betas = lasso_path(X[train] - col_means, y[train] - y_mean, lambdas)
        resid = y[val, None] - ((X[val] - col_means) @ betas + y_mean)
        scores[f] = -(np.sum(resid * resid, axis=0) / val.size)
    return scores
