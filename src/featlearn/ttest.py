"""Two-sample t statistics per feature, top-m screening, and each fold's
top-m columns for the cross-validated search of m."""

from __future__ import annotations

import numpy as np

from .data import class_labels, feature_rows, plain_number


def two_sample_t(X: np.ndarray, labels) -> np.ndarray:
    """Welch statistic T_j = (mean0_j - mean1_j) / sqrt(s0_j^2/n0 + s1_j^2/n1)
    over the rows labeled 0 and 1 (``class_labels``, one per row of a 2-D X),
    with per-class variances using denominator n_k - 1."""
    X = feature_rows(X)
    labels = class_labels(labels, X.shape[:1])
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
    return (X0.mean(axis=0) - X1.mean(axis=0)) / np.sqrt(denom_sq)


def select_top_m(t: np.ndarray, m: int) -> np.ndarray:
    """The m features of largest t^2 (ties go to the lower index), returned
    ascending by index. t must be 1-D."""
    t = np.asarray(t)
    if t.ndim != 1:
        raise ValueError(f"t must be 1-D, got shape {t.shape}")
    p, m = t.shape[0], plain_number("m", m, int)
    if not 1 <= m <= p:
        raise ValueError(f"m must lie in 1..{p}, got {m}")
    return np.sort(np.argsort(-t * t, kind="stable")[:m])


def ttest_cv(X: np.ndarray, labels: np.ndarray, folds, candidate_ms) -> list:
    """``svm_cv``'s index candidates for the t-test search over ``kfold``'s
    fold pairs: entry ``[i][f]`` is fold f's top ``candidate_ms[i]`` columns,
    ascending, ranked on that fold's own training rows. X must be 2-D, and
    the labels pass ``class_labels``, one per row.

    The caller scores them; the name stays because the benchmark's tracer
    times the t-test search's ranking under ``ttest.ttest_cv``."""
    candidate_ms = plain_number("candidate_ms", candidate_ms, tuple[int, ...])
    if not candidate_ms:
        raise ValueError("empty candidate list")
    X = feature_rows(X)
    labels = class_labels(labels, X.shape[:1])
    p = X.shape[1]
    if min(candidate_ms) < 1 or max(candidate_ms) > p:
        raise ValueError(f"candidate m values must lie in 1..{p}")
    ts = [two_sample_t(X[train], labels[train]) for train, _ in folds]
    return [[select_top_m(t, m) for t in ts] for m in candidate_ms]
