"""Cyclic coordinate descent for the lasso, kept as an independent reference
for ``featlearn.lasso``: it shares no solver code with the homotopy path.
Also the running-maximum loop that ``lambda_max`` must equal bit for bit,
and ``sequential_walk``, the one-problem homotopy that each member of a
``lasso_path`` block must equal bit for bit.

The objective is |y - X b|^2 / n + lambda |b|_1, the same as the package's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from featlearn.lasso import SingularActiveSetError

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 10000
_TIE_RTOL = 1e-12
_MAX_TIE_CHOICES = 1024


@dataclass(frozen=True)
class DescentFit:
    """Where ``coordinate_descent`` stopped: ``iterations_run`` sweeps, and
    whether the last one moved every coordinate by less than the tolerance."""

    beta: np.ndarray
    lam: float
    iterations_run: int
    converged: bool
    objective: float


def lasso_objective(X: np.ndarray, y: np.ndarray, beta: np.ndarray, lam: float) -> float:
    r = y - X @ beta
    return float(r @ r) / X.shape[0] + lam * float(np.sum(np.abs(beta)))


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
                       beta0: np.ndarray | None = None) -> DescentFit:
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
    return DescentFit(beta=beta, lam=lam, iterations_run=sweeps, converged=converged,
                      objective=lasso_objective(X, y, beta, lam))


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


def sequential_walk(X: np.ndarray, y: np.ndarray, lambdas) -> tuple[np.ndarray, int]:
    """One problem's homotopy walked alone, one segment after another, with
    one small numpy call per operation: the walk ``lasso_path`` made before
    it walked a block in lockstep, kept as its bit-for-bit reference. Also
    returns the segments walked.

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
