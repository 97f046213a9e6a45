"""Linear soft-margin SVM trained by deterministic subgradient descent on
the primal objective

    (1/2) |w|^2 + C * sum_i max(0, 1 - y_i (w^T x_i + b)).

Full-batch steps of size 1/(lambda_eff * t) with lambda_eff = 1/(nC); the
iterate with the lowest objective seen is returned, and w = 0 is the first
one scored, so the result never scores worse than w = 0.

``svm_train`` trains many problems in one epoch loop, and each model is
bit-equal to its problem trained alone. A group of problems is the product
of an (f, n, q) stack of f slices (such as the CV folds with equal training
row counts), each with its own row of labels, and a C grid; one problem is
a (1, n, q) stack at one C. These rules keep it so:

- Each group computes its margins and its gradient with one ``np.matmul``
  per product over an (f, |Cs|, n, q) broadcast view of its slices, with
  stride 0 on the C axis. That makes the same gemv call per (slice, C) as
  the 2-D product on that problem alone. No block-wide matrix product
  (gemm): it rounds differently.
- The w.w products run one stacked ``np.matmul`` per group, each over the
  problem's own q: a dot product over a zero-padded w rounds differently.
- Rows are padded to the longest problem for the elementwise steps, with
  zero labels on the padding. The hinge and bias-gradient sums reduce each
  problem's exact-length row, one reduction per run of equal row count,
  because a sum over the padding is blocked differently. Problem i is block
  row i, so callers that pass equal-n groups together share reductions.
- A problem that converges keeps its block row: its best iterate is frozen
  at that epoch and becomes its model when the block returns, and its row
  still runs through the products and the updates but is no longer scored.
  So every operand keeps one layout for the whole call.

The other steps are elementwise, so each problem's row gets what its own
vector would.

``svm_cv`` is the one CV search, over the C grid or the t-test's m and the
PCA's r. It reads its folds one at a time. At a training row count's first
fold it allocates that count's arrays: one C-contiguous (folds, rows, q)
stack of every column if a width views it, and each index candidate's
C-contiguous (folds, rows, |columns|) copy. Each fold's training rows are
copied in and dropped before the next fold is read, so it holds one fold's
given training rows at a time, and its block holds the stacks, the copies
and the validation rows. A width must stay a view: contiguous copies round
differently (46 of 420 PCA-search models at ``adni_like`` seeds 0-5,
k = 10). An index copy must be C-contiguous: ``np.stack`` of fancy-indexed
columns keeps them column-major, and 6 model-byte tests failed.

Labels are 0/1 at the API, as everywhere else in the package: the functions
here take them, ``data.class_labels`` checks them and ``svm_predict`` returns
them. The hinge loss's +/-1 encoding exists only inside ``svm_train``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import class_labels, feature_rows, plain_number


@dataclass(frozen=True)
class LinearSvmModel:
    """``epochs``: objective evaluations made; ``converged``: tolerance met."""

    w: np.ndarray
    bias: float
    C: float
    epochs: int = 0
    converged: bool = False


def svm_train(groups, tol: float, max_epochs: int) -> list[LinearSvmModel]:
    """Train every problem of every group in one epoch loop and return the
    models in group order: a group's slice by slice, each slice's in Cs order.

    A group ``(X, labels, Cs)`` trains each of its slices at every C: X is an
    (f, n, q) stack of f slices and labels an (f, n) stack of 0/1 labels, one
    row per slice. Groups may differ in f, n and q. A model has converged
    when its per-epoch objective change falls below tol * (1 + |objective|);
    its best iterate is frozen then and becomes its model when the block
    returns, once the last one has converged or at max_epochs. The bias is
    unregularized."""
    tol, max_epochs = plain_number("tol", tol, float), plain_number("max_epochs", max_epochs, int)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    problems = []  # (X, +/-1 labels, C) per problem, in group order: problem i is block row i
    segments = []  # (X, a, b) per group: its (f, |Cs|, n, q) view of X and its block rows a:b
    for X, labels, Cs in groups:
        X = np.asarray(X, dtype=float)
        Y = 2.0 * class_labels(labels, X.shape[:2]) - 1.0
        if np.any(np.all(Y == Y[:, :1], axis=1)):
            raise ValueError("both classes must be present")
        Cs = plain_number("Cs", Cs, tuple[float, ...])
        if not all(0.0 < C < math.inf for C in Cs):
            raise ValueError("C must be > 0 and finite")
        (f, n, q), c = X.shape, len(Cs)
        if f and c:  # every C of a slice reads the slice itself: stride 0 on the C axis
            segments.append((np.broadcast_to(X[:, None], (f, c, n, q)),
                             len(problems), len(problems) + f * c))
        problems.extend((x, y, C) for x, y in zip(X, Y) for C in Cs)

    ns = [X.shape[0] for X, _, _ in problems]
    P, n_max = len(problems), max(ns)
    Wb = np.zeros((P, max(X.shape[1] for X, _, _ in problems) + 1))  # w, padding, bias last
    grad, best_Wb = np.zeros_like(Wb), np.zeros_like(Wb)
    Y = np.zeros((P, n_max))  # labels, zero on the padding so it adds nothing to a gradient
    for i, (_, y, _) in enumerate(problems):
        Y[i, :ns[i]] = y
    Yn = Y / np.array(ns, dtype=float)[:, None]
    lams = np.array([[1.0 / (n * C)] for n, (_, _, C) in zip(ns, problems)])
    margins, work = np.zeros((P, n_max)), np.empty((P, n_max))  # work: hinge terms, then y/n
    hinge, ww = np.empty(P), np.empty(P)
    best_obj = [C * X.shape[0] for X, _, C in problems]  # objective at w = 0, b = 0
    prev_obj = list(best_obj)
    stops = [0] * P  # the epoch at which each problem converged, 0 while it runs

    # (A, B, out) for each matrix product of an epoch: per group, the margins
    # and the gradient on its block rows a:b split as its X's (f, |Cs|) batch
    # axes, views of the block's own arrays, and the w.w; and per run of equal
    # n, the work rows whose sums are the hinge and then the bias gradient
    n_runs, margin, gradient, dot = [], [], [], []
    for X, a, b in segments:
        f, c, n, q = X.shape
        if n_runs and n_runs[-1][2] == n:
            n_runs[-1][1] = b
        else:
            n_runs.append([a, b, n])
        margin.append((X, Wb[a:b, :q, None].reshape(f, c, q, 1),
                       margins[a:b, :n, None].reshape(f, c, n, 1)))
        gradient.append((work[a:b, None, :n].reshape(f, c, 1, n), X,
                         grad[a:b, None, :q].reshape(f, c, 1, q)))
        dot.append((Wb[a:b, None, :q], Wb[a:b, :q, None], ww[a:b, None, None]))
    sums = [(work[a:b, :n], hinge[a:b], grad[a:b, -1]) for a, b, n in n_runs]

    live = range(P)  # the block rows not yet converged
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
        better = []
        for i in live:
            obj = 0.5 * w2[i] + problems[i][2] * h[i]
            if not math.isfinite(obj):
                raise ArithmeticError(f"objective non-finite at epoch {t}")
            if obj < best_obj[i]:
                best_obj[i] = obj
                better.append(i)
            if abs(obj - prev_obj[i]) < tol * (1.0 + abs(obj)) and t > 1:
                stops[i] = t
            else:
                prev_obj[i] = obj
        if len(better) == P:
            best_Wb[:] = Wb  # the common case: every problem still runs and improved
        elif better:
            best_Wb[better] = Wb[better]
        if t in stops:  # some problem converged at this epoch
            live = [i for i in live if not stops[i]]
            if not live:
                break

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

    return [LinearSvmModel(w=best_Wb[i, :X.shape[1]].copy(), bias=float(best_Wb[i, -1]), C=C,
                           epochs=stops[i] or max_epochs, converged=stops[i] > 0)
            for i, (X, _, C) in enumerate(problems)]


def svm_predict(model: LinearSvmModel, X: np.ndarray) -> np.ndarray:
    """0/1 labels: 1 where w^T x + b >= 0, a decision value of exactly 0 included."""
    X = feature_rows(X, model.w.shape[0])
    return np.where(X @ model.w + model.bias >= 0.0, 1, 0)


def accuracy(pred, truth) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError("prediction and truth must have equal nonzero length")
    return float(np.mean(pred == truth))


def svm_cv(fold_features, labels, folds, C_grid, candidates, *,
           max_epochs: int) -> np.ndarray:
    """Validation accuracy per (fold, candidate, C) over ``kfold``'s (training
    mask, validation rows) pairs: a (folds, candidates * |C_grid|) array,
    candidate-major, each candidate's columns in ``C_grid`` order. ``labels``
    holds one 0/1 label per entry of a training mask.

    ``fold_features`` yields each fold's (training rows, validation rows)
    features, in fold order, all of one width q; it is read once, one fold at
    a time, and a fold past the k of ``folds`` is refused as it arrives. A
    candidate is a width w, which trains on the first w columns, or one
    ascending column-index array per fold. Every (fold, candidate, C) trains
    in one ``svm_train`` block at tol 1e-6; the module docstring says what the
    search holds and when."""
    k, slots, by_rows = len(folds), [], {}  # each fold's slot in its group; row count -> folds
    for f, (train, _) in enumerate(folds):
        fs = by_rows.setdefault(int(np.count_nonzero(train)), [])
        slots.append(len(fs))
        fs.append(f)
    blocks, vals, f = {}, [], 0  # row count -> (its stack or None, per candidate its copy or None)
    for X_tr, X_val in fold_features:
        if f == k:
            raise ValueError(f"got features for more than {k} folds")
        X_tr, X_val = np.asarray(X_tr, dtype=float), np.asarray(X_val, dtype=float)
        if f == 0:  # the labels, and each candidate's columns per fold, a slice for a width
            y, q, cols = class_labels(labels, np.shape(folds[0][0])), X_tr.shape[-1], []
            for i, c in enumerate(candidates):
                if width := np.isscalar(c):
                    c = plain_number(f"candidate {i}", c, int)
                cols.append([slice(c)] * k if width else list(c))
                if len(cols[-1]) != k or width and not 1 <= c <= q:
                    raise ValueError(f"candidate {i} is neither a width in 1..{q}, fold 0's "
                                     f"width, nor one column-index array per fold ({k})")
        rows, n_val = int(np.count_nonzero(folds[f][0])), len(folds[f][1])
        if X_tr.shape != (rows, q) or X_val.shape != (n_val, q):
            raise ValueError(f"fold {f} needs {rows} training and {n_val} validation rows of "
                             f"fold 0's width {q}, got {X_tr.shape} and {X_val.shape}")
        for i, c in enumerate(cols):
            if not isinstance(c[f], slice):
                if np.asarray(c[f]).dtype.kind not in "iu":
                    raise ValueError(f"candidate {i}: fold {f}'s columns are not an integer "
                                     f"index array")
                if np.size(c[f]) == 0 or np.min(c[f]) < 0 or np.max(c[f]) >= q:
                    raise ValueError(f"candidate {i}: fold {f}'s columns are not in 0..{q - 1}")
        if rows not in blocks:  # the row count's first fold: its arrays, filled as folds arrive
            m = len(by_rows[rows])
            blocks[rows] = (
                np.empty((m, rows, q)) if any(isinstance(c[0], slice) for c in cols) else None,
                [None if isinstance(c[f], slice) else np.empty((m, rows, np.size(c[f])))
                 for c in cols])
        S, copies = blocks[rows]
        if S is not None:  # every column, which the widths view
            S[slots[f]] = X_tr
        for c, Xc in zip(cols, copies):
            if Xc is not None:
                Xc[slots[f]] = X_tr[:, c[f]]
        vals.append(X_val)
        f += 1
        del X_tr  # freed before fold_features makes the next fold
    if f != k:
        raise ValueError(f"got features for {f} folds, not {k}")
    groups, owners = [], []
    for rows, fs in by_rows.items():
        Y = np.stack([y[folds[f][0]] for f in fs])
        S, copies = blocks[rows]
        for i, (c, Xc) in enumerate(zip(cols, copies)):  # see the module docstring
            groups.append((S[:, :, c[0]] if Xc is None else Xc, Y, C_grid))
            owners += [(f, i) for f in fs]
    models = iter(svm_train(groups, 1e-6, max_epochs))
    scores = np.empty((k, len(cols), len(C_grid)))
    for f, i in owners:
        X_val = vals[f][:, cols[i][f]]
        scores[f, i] = [accuracy(svm_predict(next(models), X_val), y[folds[f][1]])
                        for _ in C_grid]
    return scores.reshape(k, -1)
