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

``lasso_path`` walks a block of problems (the CV search's k folds and the
full training problem) in lockstep, one segment of every live member per
step, and each member's walk is the one it would walk alone, bit for bit:
- Every member holds one state from the start, formed from its own X as
  for a walk alone: its Gram matrix, correlations, active column order
  (which the solve's rounding depends on), lambda, tie tolerance and
  pending lambdas. One with nothing to walk (lambda_max at or below every
  lambda) retires before the first segment; no benchmark workload has one.
- The event arithmetic (correlations, the distance to each join and drop,
  the step, the tie masks) runs as elementwise (members x p) operations.
  A member's active columns fill the first slots of its row, and the
  padding can win no reduction: its t_drop is inf and its v is 0.
- Members whose active sets have equal size share one gather of G_AA, one
  stacked Cholesky factorization, one stacked solve and one stacked
  G[:, A] @ [u v]. numpy's linalg gufuncs and matmul make the same LAPACK
  or BLAS call per matrix as for one matrix alone. When a stacked call
  fails, its blocks are redone one by one, so the failing member raises
  its own SingularActiveSetError.
- Only the natural tie choice (joining columns enter, dropping ones leave)
  is solved in the block. A member where it fails tries the other choices
  alone (``_next_segment``).
"""

from __future__ import annotations

import itertools

import numpy as np

from .data import plain_number

SELECT_EPS = 1e-10  # a coefficient is selected when |beta_j| exceeds this
# events whose lambdas agree to this fraction of lambda_max happen together
_TIE_RTOL = 1e-12
# choices of active set tried at one tie before giving up
_MAX_TIE_CHOICES = 1024


class SingularActiveSetError(ArithmeticError):
    """The lasso path cannot go on: its active columns are linearly
    dependent (for example a duplicated column), so the solution is not
    unique, or no choice among exactly tied columns is consistent."""


def _solve_active(blocks: np.ndarray, rhs: np.ndarray):
    """Solve blocks[i] @ x = rhs[i] for a stack of equal-size blocks, with
    one stacked Cholesky call and one stacked solve.

    Returns the solutions and a mask of the blocks that fail: a Cholesky
    pivot at or below the numerical-rank threshold m * eps * max diag, or
    no factorization or solution at all. If any block fails the solutions
    are None. A failure in a stacked call fails the whole call, so the
    blocks are then redone one by one to find the failing ones."""
    try:
        pivots = np.diagonal(np.linalg.cholesky(blocks), axis1=1, axis2=2) ** 2
        singular = (pivots.min(axis=1) <= blocks.shape[1] * np.finfo(float).eps
                    * np.diagonal(blocks, axis1=1, axis2=2).max(axis=1))
        if not singular.any():
            return np.linalg.solve(blocks, rhs), singular
    except np.linalg.LinAlgError:
        if len(blocks) == 1:
            return None, np.ones(1, dtype=bool)
        singular = np.array([_solve_active(block[None], b[None])[0] is None
                             for block, b in zip(blocks, rhs)])
    return None, singular


def _tie_choices(natural: np.ndarray):
    """Masks over the tied columns: ``natural`` first, then masks that flip
    one, two, ... of its entries."""
    for k in range(natural.size + 1):
        for flips in itertools.combinations(range(natural.size), k):
            mask = natural.copy()
            mask[list(flips)] ^= True
            yield mask


def _next_segment(gram, corr0, keep, keep_signs, tied, tied_signs, natural, member):
    """Choose which tied columns (those at |c_j| = lam with beta_j = 0) are
    active on the next segment of one problem when ``natural`` fails, and
    solve it.

    A choice holds when every column it makes active moves away from 0 in
    the direction of its sign and every other tied column's correlation
    moves inside the bound. One column at a time, a joining column always
    enters and a dropping one always leaves: that is ``natural``, which the
    block walk tries first. Exact ties among correlated columns can need
    another choice; this tries the others in ``_tie_choices`` order.
    """
    for mask in itertools.islice(_tie_choices(natural), 1, _MAX_TIE_CHOICES):
        active = keep + tied[mask].tolist()
        if not active:
            continue
        signs = np.concatenate([keep_signs, tied_signs[mask]])
        uv, _ = _solve_active(gram[np.ix_(active, active)][None],
                              np.column_stack([corr0[active], signs])[None])
        if uv is None:
            continue
        u, v = uv[0].T
        cross = gram[:, active] @ uv[0]
        moves_out = tied_signs[mask] * v[len(keep):] > _TIE_RTOL * np.abs(v).max()
        stays_in = tied_signs[~mask] * cross[tied[~mask], 1] >= 1.0 - _TIE_RTOL
        if moves_out.all() and stays_in.all():
            return active, signs, u, v, cross, mask
    raise SingularActiveSetError(f"member {member}: no consistent active set among tied"
                                 f" columns {sorted(tied.tolist())}")


def _correlations(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(2/n) X^T y, one contiguous column dot product at a time."""
    n = X.shape[0]
    return np.array([2.0 * float(np.ascontiguousarray(col) @ y) / n for col in X.T])


def lasso_path(problems, lambdas) -> list[np.ndarray]:
    """The exact lasso solution of each (X, y) problem of an iterable at
    each lambda, as one p x len(lambdas) array per problem whose columns
    follow the order of ``lambdas``.

    The problems share p and are walked as one lockstep block, one state
    per member from the start (see the module docstring), and member i is
    byte-equal to ``lasso_path([problems[i]], lambdas)[0]``.

    Every lambda >= lambda_max(X, y) gets exact zeros, so a member with no
    lambda below it retires before the first segment; no benchmark workload
    has one. Columns that are all zero never enter. Raises
    SingularActiveSetError, naming the member, if its walk would need
    linearly dependent active columns, such as a duplicated column or more
    active columns than rows. Raises ValueError, naming the member, unless
    X is finite with p columns and y finite with one value per row; an X
    that is not 2-D fails to unpack its shape.

    On a segment with active set A and signs s the optimality conditions
    give beta_A(lam) = G_AA^-1 (c0_A - lam s) and correlations
    c(lam) = c0 - G[:, A] beta_A(lam), where G = (2/n) X^T X and
    c0 = (2/n) X^T y. The segment ends where an inactive |c_j| reaches lam
    (j joins with the sign of c_j) or an active beta_j reaches 0 (j drops).
    Events within the tie tolerance happen together. Each segment solves
    its block from c0 and G afresh.

    Between segments a live member's state is three rows over its columns:
    ``key`` orders them as the last segment left them (active columns by
    their slot, then those that reached +lam, then -lam, by index; 3p for
    the rest), ``leave`` marks the active columns that reached 0, and
    ``colsign`` holds the sign of each. Its next active set, the natural
    choice, is the keyed columns that do not leave, in key order.
    """
    lambdas = np.array(plain_number("lambdas", lambdas, tuple[float, ...]))
    if not np.all(lambdas >= 0.0):
        raise ValueError("lambdas must be a list of values >= 0")
    order = np.argsort(-lambdas, kind="stable")
    descending = lambdas[order]
    grams, corr0s = [], []
    for i, (X, y) in enumerate(problems):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, p = X.shape
        if y.shape != (n,):
            raise ValueError(f"y of member {i} must hold one value per row of X ({n}),"
                             f" got shape {y.shape}")
        if grams and p != grams[0].shape[0]:
            raise ValueError(f"member {i} has {p} columns, member 0 has {grams[0].shape[0]}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError(f"member {i} has a non-finite entry")
        grams.append((X.T @ X) * (2.0 / n))
        corr0s.append(_correlations(X, y))  # so lam0 equals lambda_max bit for bit
    if not grams:
        return []
    G = np.stack(grams)  # indexed by member, as ``live`` is
    del grams
    paths = np.zeros((len(G), G.shape[1], lambdas.size))
    live = np.arange(len(G))
    corr0 = np.stack(corr0s)
    lam = np.max(np.abs(corr0), axis=1, initial=0.0)
    tie = _TIE_RTOL * lam
    can_join = np.diagonal(G, axis1=1, axis2=2) > 0.0  # a constant column never joins
    done = (descending >= lam[:, None]).sum(axis=1)
    p = G.shape[1]
    cols = np.arange(p)
    G_flat, row_start = G.reshape(-1), (cols * p)[:, None]
    side = np.array([1.0, -1.0])[:, None, None]  # the bound +lam, then -lam
    # the first segment: every column at the bound joins, in index order
    key = np.where(can_join & (np.abs(corr0) >= (lam - tie)[:, None]), p + cols, 3 * p)
    leave = np.zeros(key.shape, dtype=bool)
    colsign = np.sign(corr0)
    while (going := done < lambdas.size).any():
        if not going.all():
            live, corr0, can_join, lam, tie, done, key, leave, colsign = (
                a[going] for a in (live, corr0, can_join, lam, tie, done, key, leave, colsign))
        row = np.arange(live.size)[:, None]
        natural = np.where(leave, 3 * p, key)
        na = (natural < 3 * p).sum(axis=1)
        nkeep = (natural < p).sum(axis=1)
        A = np.argsort(natural, axis=1, kind="stable")  # slots na and on are padding
        S = np.where(cols < na[:, None], colsign[row, A], 0.0)
        out_sign = np.where(leave, colsign, 0.0)
        U, V, cross = np.zeros(A.shape), np.zeros(A.shape), np.zeros((live.size, p, 2))
        # the natural choice of members with equal-size active sets, in one stack
        for m in sorted(set(na.tolist()) - {0}):
            rows = np.flatnonzero(na == m)
            Am, w = A[rows, :m], live[rows]
            # G[:, A] of each member, and G_AA as its rows A (a flat take
            # gathers far faster than three broadcast index arrays)
            G_A = G_flat.take((w * (p * p))[:, None, None] + row_start + Am[:, None, :])
            uv, singular = _solve_active(G_A[np.arange(rows.size)[:, None], Am],
                                         np.stack([corr0[rows[:, None], Am], S[rows, :m]], axis=2))
            if uv is None:
                j = int(np.argmax(singular))
                raise SingularActiveSetError(f"member {w[j]}: active columns"
                                             f" {sorted(Am[j].tolist())} are linearly dependent")
            U[rows, :m], V[rows, :m] = uv[:, :, 0], uv[:, :, 1]
            cross[rows] = G_A @ uv
        joins = (cols >= nkeep[:, None]) & (cols < na[:, None])
        moves_out = S * V > _TIE_RTOL * np.abs(V).max(axis=1)[:, None]
        stays_in = out_sign * cross[:, :, 1] >= 1.0 - _TIE_RTOL
        retry = (na == 0) | (joins & ~moves_out).any(axis=1) | (leave & ~stays_in).any(axis=1)
        for r in np.flatnonzero(retry):
            ties = np.where((key[r] < p) & ~leave[r], 3 * p, key[r])
            tied = np.argsort(ties, kind="stable")[:(ties < 3 * p).sum()]
            active, signs, u, v, cross[r], mask = _next_segment(
                G[live[r]], corr0[r], A[r, :nkeep[r]].tolist(), S[r, :nkeep[r]], tied,
                colsign[r, tied], ~leave[r, tied], live[r])
            na[r] = len(active)
            for a, values in ((A, active), (S, signs), (U, u), (V, v)):
                a[r] = 0
                a[r, :na[r]] = values
            out_sign[r] = 0.0
            out_sign[r, tied[~mask]] = colsign[r, tied[~mask]]
        rows_a, slots_a = np.nonzero(cols < na[:, None])
        active_cols = A[rows_a, slots_a]
        lam_ = lam[:, None]
        slope = cross[:, :, 1]  # d corr / d lam off the active set
        corr = corr0 - cross[:, :, 0] + lam_ * slope
        # as lam falls by t, c_j reaches +lam or -lam at t_bound (side 1 is
        # side 0 for -c_j, and negation is exact, so its lam - (-c_j) and
        # 1 - (-slope) are lam + c_j and 1 + slope bit for bit), and beta_A
        # grows by t * v, so an active beta_j reaches 0 at t_drop
        signed = side * slope
        shrink = -S * V
        with np.errstate(divide="ignore", invalid="ignore"):
            t_bound = np.where(signed < 1.0,
                               np.maximum(lam_ - side * corr, 0.0) / (1.0 - signed), np.inf)
            t_drop = np.where(shrink > 0.0, np.maximum(S * (U - lam_ * V), 0.0) / shrink, np.inf)
        closed = ~can_join
        closed[rows_a, active_cols] = True
        # the choice just made holds for this segment: a tied column left
        # out stays off its bound, and one let in stays away from 0
        t_bound[closed | (side * out_sign > 0.0)] = np.inf
        t_drop[cols >= nkeep[:, None]] = np.inf
        step = np.minimum(t_bound.min(axis=(0, 2)), t_drop.min(axis=1))
        end = lam - step
        reached = (descending >= end[:, None]).sum(axis=1)
        for r in np.flatnonzero(reached > done):
            at = order[done[r]:reached[r]]
            paths[live[r], A[r, :na[r], None], at] = (U[r, :na[r], None]
                                                      - lambdas[at] * V[r, :na[r], None])
        bound = (step + tie)[:, None]
        at_up, at_down = t_bound <= bound
        at_down &= ~at_up
        key = np.full(key.shape, 3 * p)
        key[rows_a, active_cols] = slots_a
        key = np.where(at_up, p + cols, np.where(at_down, 2 * p + cols, key))
        leave = np.zeros(key.shape, dtype=bool)
        leave[rows_a, active_cols] = t_drop[rows_a, slots_a] <= bound[rows_a, 0]
        colsign = np.zeros(key.shape)
        colsign[rows_a, active_cols] = S[rows_a, slots_a]
        colsign = np.where(at_up, 1.0, np.where(at_down, -1.0, colsign))
        lam, done = end, reached
    return list(paths)


def lasso_fit(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """The one-member path's coefficients at one lambda. It stays only
    because perfbench/tracing.py resolves ``featlearn.lasso.lasso_fit`` by
    name (ROADMAP item 1a drops that entry and this alias). No run calls
    it, and none may under the tracer, which reads ``iterations_run`` from
    a call's result."""
    return lasso_path([(X, y)], [lam])[0][:, 0]


def lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest lambda with an all-zero solution: (2/n) max_j |X_j^T y|, the
    largest |correlation| that lasso_path starts from, so its zeros are exact."""
    corr = _correlations(np.asarray(X, dtype=float), np.asarray(y, dtype=float))
    return float(np.max(np.abs(corr), initial=0.0))


def check_lambda_grid(n_lambdas: int, ratio: float) -> int:
    """``n_lambdas`` as an int; raises ValueError unless lambda_path accepts
    these grid settings."""
    n_lambdas = plain_number("n_lambdas", n_lambdas, int)
    if n_lambdas < 2:
        raise ValueError("n_lambdas must be >= 2")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    return n_lambdas


def lambda_path(X: np.ndarray, y: np.ndarray, n_lambdas: int, ratio: float) -> np.ndarray:
    """Log-spaced descending grid from lambda_max down to ratio*lambda_max."""
    n_lambdas = check_lambda_grid(n_lambdas, ratio)
    lmax = lambda_max(X, y)
    if lmax == 0.0:
        return np.array([0.0])
    return np.geomspace(lmax, ratio * lmax, n_lambdas)


def selected_features(beta: np.ndarray) -> np.ndarray:
    """Indices of the coefficients with |beta_j| > SELECT_EPS, ascending."""
    return np.flatnonzero(np.abs(beta) > SELECT_EPS)


def lasso_cv(X: np.ndarray, y: np.ndarray, folds, lambdas) -> tuple[np.ndarray, np.ndarray]:
    """Minus the validation mean squared error per (fold, lambda), so higher
    is better, with the columns in ``lambdas`` order; and the exact path of
    the full problem (X, y - mean(y)), p x len(lambdas) in the same order.

    ``folds`` are ``kfold``'s (training mask, validation rows) pairs and
    ``y`` the regression target. Within each fold the training columns and
    response are re-centered and the training mean serves as the intercept
    for validation predictions. One lasso_path call walks every fold's
    centered copy and then the full problem as one lockstep block; each
    member's path is its walk alone, bit for bit, so the full path's column
    at a lambda is the one-member ``lasso_path([(X, y - mean(y))], [lambda])``.
    One matrix product per fold scores every lambda.

    Every fold is scored on the same ``lambdas``, as glmnet does. The top of
    a full-data ``lambda_path`` need not give the zero fit in every fold,
    since each fold has its own lambda_max; and a small lambda can beat the
    null model on validation error by chance. So on pure-noise problems the
    largest lambda has the lowest total error in roughly 70% of them, not all.
    """
    lambdas = np.array(plain_number("lambdas", lambdas, tuple[float, ...]))
    if lambdas.size == 0:
        raise ValueError("empty lambda list")
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    means = [(X[train].mean(axis=0), y[train].mean()) for train, _ in folds]
    *paths, full = lasso_path([(X[train] - col_means, y[train] - y_mean)
                               for (train, _), (col_means, y_mean) in zip(folds, means)]
                              + [(X, y - y.mean())], lambdas)
    scores = np.zeros((len(folds), lambdas.size))
    for f, ((_, val), (col_means, y_mean), betas) in enumerate(zip(folds, means, paths)):
        resid = y[val, None] - ((X[val] - col_means) @ betas + y_mean)
        scores[f] = -(np.sum(resid * resid, axis=0) / val.size)
    return scores, full
