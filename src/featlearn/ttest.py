"""Two-sample t statistics per feature, top-m screening, and
cross-validated scores of each m."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class TStats:
    """Per-feature statistics t and the permutation ``order`` sorting t^2
    descending (ties broken by ascending feature index)."""

    t: np.ndarray
    order: np.ndarray


def two_sample_t(X: np.ndarray, labels) -> TStats:
    """Welch statistic T_j = (mean0_j - mean1_j) / sqrt(s0_j^2/n0 + s1_j^2/n1)
    over the rows labeled 0 and 1, with per-class variances using
    denominator n_k - 1."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    X0 = X[labels == 0]
    X1 = X[labels == 1]
    n0, n1 = X0.shape[0], X1.shape[0]
    if n0 < 2 or n1 < 2:
        raise ValueError(f"need >= 2 rows per class, got n0={n0}, n1={n1}")
    var0 = X0.var(axis=0, ddof=1)
    var1 = X1.var(axis=0, ddof=1)
    denom_sq = var0 / n0 + var1 / n1
    if np.any(denom_sq == 0.0):
        j = int(np.argmax(denom_sq == 0.0))
        raise ValueError(f"feature {j} has zero variance in both classes")
    t = (X0.mean(axis=0) - X1.mean(axis=0)) / np.sqrt(denom_sq)
    order = np.argsort(-t * t, kind="stable")
    return TStats(t=t, order=order)


def select_top_m(stats: TStats, m: int) -> np.ndarray:
    """First m features of the t^2 ranking, returned ascending by index."""
    p = stats.t.shape[0]
    if not 1 <= m <= p:
        raise ValueError(f"m must lie in 1..{p}, got {m}")
    return np.sort(stats.order[:m])


def ttest_cv(X: np.ndarray, labels: np.ndarray, folds, candidate_ms: Sequence[int],
             scorer: Callable) -> np.ndarray:
    """``scorer``'s validation score per (fold, m), with the columns in
    ``candidate_ms`` order, over ``kfold``'s fold pairs.

    The t ranking is recomputed inside each fold. ``scorer(X, labels, folds,
    candidates)`` is called once, where ``candidates[i][f]`` holds fold f's
    top ``candidate_ms[i]`` columns, ascending. It scores a classifier
    trained on each fold's training rows restricted to those columns.
    """
    candidate_ms = [int(m) for m in candidate_ms]
    if not candidate_ms:
        raise ValueError("empty candidate list")
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    p = X.shape[1]
    if min(candidate_ms) < 1 or max(candidate_ms) > p:
        raise ValueError(f"candidate m values must lie in 1..{p}")
    stats = [two_sample_t(X[train], labels[train]) for train, _ in folds]
    return scorer(X, labels, folds, [[select_top_m(s, m) for s in stats] for m in candidate_ms])
