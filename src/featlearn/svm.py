"""Linear soft-margin SVM trained by deterministic averaged subgradient
descent on the primal objective

    (1/2) |w|^2 + C * sum_i max(0, 1 - y_i (w^T x_i + b)).

Full-batch steps of size 1/(lambda_eff * t) with lambda_eff = 1/(nC); the
averaged iterate and the best objective seen are both tracked and the
better one is returned, so the result never scores worse than w = 0.

``svm_train_block`` trains many problems in one epoch loop, and each model
is bit-equal to training its problem alone. These rules keep it so:

- Each group of problems that share a shape computes its margins, its w.w
  and its gradient with one stacked ``np.matmul``, which makes the same gemv
  or dot call per slice as the 2-D product on that problem alone. No
  block-wide matrix product (gemm): it rounds differently.
- Each w.w runs over the problem's own q: a dot product over a zero-padded
  w rounds differently.
- Rows are padded to the longest problem for the elementwise steps, with
  zero labels on the padding. The hinge and bias-gradient sums reduce each
  problem's exact-length row, one reduction per row count, because a sum
  over the padding is blocked differently.
- A problem that converges keeps its block row: its model is built at that
  epoch, and its row still runs through the products and the updates but
  is no longer scored. So every operand keeps one layout for the whole call.

The other steps are elementwise, so each problem's row gets what its own
vector would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import cv_masks

DEFAULT_TOL = 1e-8
DEFAULT_MAX_EPOCHS = 2000


@dataclass(frozen=True)
class LinearSvmModel:
    """``epochs``: objective evaluations made; ``converged``: tolerance met."""

    w: np.ndarray
    bias: float
    C: float
    epochs: int = 0
    converged: bool = False


def svm_objective(X: np.ndarray, y: np.ndarray, w: np.ndarray, bias: float, C: float) -> float:
    margins = y * (X @ w + bias)
    return 0.5 * float(w @ w) + C * float(np.sum(np.maximum(0.0, 1.0 - margins)))


def svm_train(X: np.ndarray, labels, C: float, tol: float = DEFAULT_TOL,
              max_epochs: int = DEFAULT_MAX_EPOCHS) -> LinearSvmModel:
    """Train one problem; see ``svm_train_block``."""
    return svm_train_block([(X, labels, [C])], tol=tol, max_epochs=max_epochs)[0]


def svm_train_block(groups, tol: float = DEFAULT_TOL,
                    max_epochs: int = DEFAULT_MAX_EPOCHS) -> list[LinearSvmModel]:
    """Train one model per problem in one epoch loop and return them in
    group order, each group's in Cs order.

    A group ``(X, labels, Cs)`` holds one problem per C. X is one (n, q)
    matrix that all of them train on, or an (m, n, q) stack whose slice i is
    problem i's; labels are one +/-1 vector of length n or an (m, n) stack.
    Groups may differ in n and q. A model has converged when its per-epoch
    objective change falls below tol * (1 + |objective|); it is built then,
    and the block returns when the last one has converged or at max_epochs.
    The bias is unregularized."""
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    problems = []  # (X, y, C) per problem, in group order
    stacks = []  # (X stack, first problem) per group
    for X, labels, Cs in groups:
        X, Y, m = np.asarray(X, dtype=float), np.asarray(labels, dtype=float), len(Cs)
        if X.ndim not in (2, 3) or Y.ndim not in (1, 2):
            raise ValueError(f"need an (n, q) or (m, n, q) X and (n,) or (m, n) labels, "
                             f"got {X.ndim}-D and {Y.ndim}-D")
        if (X.ndim == 3 and len(X) != m) or (Y.ndim == 2 and len(Y) != m):
            raise ValueError(f"need one C per problem, got X {X.shape}, labels {Y.shape} "
                             f"and {m} C values")
        if Y.shape[-1] != X.shape[-2]:
            raise ValueError(f"every problem must have {Y.shape[-1]} rows, one per label, "
                             f"got {X.shape[-2]}")
        X, Y = np.broadcast_to(X, (m,) + X.shape[-2:]), np.broadcast_to(Y, (m, Y.shape[-1]))
        if not np.all(np.isin(Y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if np.any(np.all(Y == Y[:, :1], axis=1)):
            raise ValueError("both classes must be present")
        if min(Cs, default=1.0) <= 0:
            raise ValueError("C must be > 0")
        if m:
            stacks.append((X, len(problems)))
        problems.extend((X[i], Y[i], float(C)) for i, C in enumerate(Cs))
    if not problems:
        raise ValueError("need at least one problem")

    # Block rows run through the groups by row count, so that equal-n rows
    # are adjacent and each length's row sums are one reduction.
    stacks.sort(key=lambda s: s[0].shape[1])
    order, segments = [], []  # the problem in each block row; (X, a, b, n, q) per group
    for X, first in stacks:
        segments.append((X, len(order), len(order) + len(X), *X.shape[1:]))
        order.extend(range(first, first + len(X)))
    ns = [problems[j][0].shape[0] for j in order]
    P, n_max = len(order), max(ns)
    Wb = np.zeros((P, max(X.shape[1] for X, _, _ in problems) + 1))  # w, padding, bias last
    Wb_avg, grad, best_Wb = np.zeros_like(Wb), np.zeros_like(Wb), np.zeros_like(Wb)
    Y = np.zeros((P, n_max))  # labels, zero on the padding so it adds nothing to a gradient
    for i, j in enumerate(order):
        Y[i, :ns[i]] = problems[j][1]
    Yn = Y / np.array(ns, dtype=float)[:, None]
    lams = np.array([[1.0 / (n * problems[j][2])] for n, j in zip(ns, order)])
    margins, work = np.zeros((P, n_max)), np.empty((P, n_max))  # work: hinge terms, then y/n
    hinge, ww = np.empty(P), np.empty(P)
    best_obj = [C * X.shape[0] for X, _, C in problems]  # objective at w = 0, b = 0
    prev_obj = list(best_obj)
    models: list = [None] * len(problems)

    # (A, B, out) for each matrix product of an epoch: the margins and
    # gradients per group and the w.w per run of equal q; and per run of
    # equal n, the work rows whose sums are the hinge and then the bias
    # gradient, with both outputs
    n_runs, q_runs = [], []
    for _, a, b, n, q in segments:
        for runs, size in ((n_runs, n), (q_runs, q)):
            if runs and runs[-1][2] == size:
                runs[-1][1] = b
            else:
                runs.append([a, b, size])
    margin = [(X, Wb[a:b, :q, None], margins[a:b, :n, None]) for X, a, b, n, q in segments]
    gradient = [(work[a:b, None, :n], X, grad[a:b, None, :q]) for X, a, b, n, q in segments]
    dot = [(Wb[a:b, None, :q], Wb[a:b, :q, None], ww[a:b, None, None]) for a, b, q in q_runs]
    sums = [(work[a:b, :n], hinge[a:b], grad[a:b, -1]) for a, b, n in n_runs]

    def retire(i: int, t: int, converged: bool) -> None:
        j = order[i]
        X, y, C = problems[j]
        q = X.shape[1]
        w_avg, b_avg = Wb_avg[i, :q].copy(), float(Wb_avg[i, -1])
        w, b = best_Wb[i, :q].copy(), float(best_Wb[i, -1])
        if svm_objective(X, y, w_avg, b_avg, C) < best_obj[j]:
            w, b = w_avg, b_avg
        models[j] = LinearSvmModel(w=w, bias=b, C=C, epochs=t, converged=converged)

    live = list(range(P))  # the block rows not yet converged
    for t in range(1, max_epochs + 1):
        for A, B, out in margin:
            np.matmul(A, B, out=out)
        margins += Wb[:, -1:]
        margins *= Y
        np.maximum(0.0, np.subtract(1.0, margins, out=work), out=work)
        for A, out, _ in sums:
            np.add.reduce(A, axis=1, out=out)
        for A, B, out in dot:
            np.matmul(A, B, out=out)
        w2, h = ww.tolist(), hinge.tolist()
        done, better = [], []
        for i in live:
            j = order[i]
            obj = 0.5 * w2[i] + problems[j][2] * h[i]
            if not math.isfinite(obj):
                raise ArithmeticError(f"objective non-finite at epoch {t}")
            if obj < best_obj[j]:
                best_obj[j] = obj
                better.append(i)
            if abs(obj - prev_obj[j]) < tol * (1.0 + abs(obj)) and t > 1:
                done.append(i)
            else:
                prev_obj[j] = obj
        if len(better) == len(live):
            best_Wb[:] = Wb  # the common case; a converged row's best_Wb is no longer read
        elif better:
            best_Wb[better] = Wb[better]
        if done:
            for i in done:
                retire(i, t, converged=True)
            live = [i for i in live if i not in done]
            if not live:
                return models

        # y/n where the margin is below 1, else 0; adding 0.0 turns the -0.0
        # of a masked -1/n into the +0.0 that the one-problem loop has
        np.multiply(Yn, margins < 1.0, out=work)
        work += 0.0
        for A, B, out in gradient:
            np.matmul(A, B, out=out)
        for A, _, out in sums:
            np.add.reduce(A, axis=1, out=out)
        grad *= 1.0 / (lams * t)  # step sizes
        Wb[:, :-1] *= 1.0 - 1.0 / t
        Wb += grad
        Wb_avg += (Wb - Wb_avg) / t

    for i in live:
        retire(i, max_epochs, converged=False)
    return models


def svm_predict(model: LinearSvmModel, X: np.ndarray) -> np.ndarray:
    """sign(w^T x + b) as +/-1; a decision value of exactly 0 maps to +1."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.w.shape[0]:
        raise ValueError(f"expected {model.w.shape[0]} columns, got {X.shape[1]}")
    return np.where(X @ model.w + model.bias >= 0.0, 1, -1)


def accuracy(pred, truth) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError("prediction and truth must have equal nonzero length")
    return float(np.mean(pred == truth))


def svm_cv(X: np.ndarray, labels, folds, C_grid, tol: float = DEFAULT_TOL,
           max_epochs: int = DEFAULT_MAX_EPOCHS) -> float:
    """C maximizing mean validation accuracy; ties go to the smaller C.

    Every fold's whole C grid trains in one block: a fold's candidates share
    its training rows as one operand, and the folds may differ in row count."""
    grid = sorted(float(c) for c in C_grid)
    if not grid:
        raise ValueError("empty C grid")
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=float)
    masks = list(cv_masks(X.shape[0], folds))
    models = svm_train_block([(X[train], y[train], grid) for train, _ in masks], tol, max_epochs)
    scores = np.zeros(len(grid))
    for f, (_, val) in enumerate(masks):
        for i, model in enumerate(models[f * len(grid):(f + 1) * len(grid)]):
            scores[i] += accuracy(svm_predict(model, X[val]), y[val])
    return grid[int(np.argmax(scores))]
