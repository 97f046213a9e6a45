"""Dataset container, CSV I/O, standardization, splitting, k-fold
partitioning, and a synthetic equicorrelated-Gaussian generator.

Labels live in {0, 1, -1}; -1 marks unlabeled rows that never enter a
train/test split but may feed unsupervised pretraining.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

UNLABELED = -1
_VALID_LABELS = (0, 1, UNLABELED)


class CsvFormatError(ValueError):
    """A CSV file violates the expected layout; the message carries the
    offending line and column."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """n x p feature matrix with per-row labels in {0, 1, -1}.

    Immutable after construction; arrays are marked read-only so instances
    can be shared freely across workers.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        X = np.array(self.features, dtype=float)
        y = np.array(self.labels, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {X.shape}")
        n, p = X.shape
        if n < 1 or p < 1:
            raise ValueError(f"need n >= 1 and p >= 1, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            i, j = np.argwhere(~np.isfinite(X))[0]
            raise ValueError(f"non-finite feature value at row {i}, column {j}")
        if y.shape != (n,):
            raise ValueError(f"labels length {y.shape} does not match {n} rows")
        if not np.all(np.isin(y, _VALID_LABELS)):
            bad = int(np.argmax(~np.isin(y, _VALID_LABELS)))
            raise ValueError(f"label at row {bad} not in {{0, 1, -1}}: {y[bad]}")
        names = tuple(self.feature_names)
        if len(names) != p:
            raise ValueError(f"{len(names)} feature names for {p} columns")
        object.__setattr__(self, "features", _readonly(X))
        object.__setattr__(self, "labels", _readonly(y))
        object.__setattr__(self, "feature_names", names)

    @staticmethod
    def from_arrays(features, labels, feature_names=None) -> "Dataset":
        features = np.asarray(features, dtype=float)
        if feature_names is None or len(feature_names) == 0:
            feature_names = tuple(f"f{j}" for j in range(features.shape[1]))
        return Dataset(features, np.asarray(labels), tuple(feature_names))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def n0(self) -> int:
        return int(np.sum(self.labels == 0))

    @property
    def n1(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def n_unlabeled(self) -> int:
        return int(np.sum(self.labels == UNLABELED))

    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels != UNLABELED)

    def unlabeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == UNLABELED)


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column means and standard deviations fitted on training rows."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", _readonly(np.array(self.means, dtype=float)))
        object.__setattr__(self, "stds", _readonly(np.array(self.stds, dtype=float)))
        if self.means.shape != self.stds.shape or self.means.ndim != 1:
            raise ValueError("means and stds must be 1-D arrays of equal length")
        if np.any(self.stds <= 0.0):
            j = int(np.argmax(self.stds <= 0.0))
            raise ValueError(f"std for column {j} must be positive")

    def apply(self, X: np.ndarray) -> np.ndarray:
        """(X - means) / stds, column by column."""
        return (X - self.means) / self.stds


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint train/test row indices over the labeled rows."""

    train: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "train", _readonly(np.array(self.train, dtype=np.intp)))
        object.__setattr__(self, "test", _readonly(np.array(self.test, dtype=np.intp)))
        if np.intersect1d(self.train, self.test).size > 0:
            raise ValueError("train and test indices overlap")


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a synthetic two-class dataset: class-1 rows get a mean shift
    of ``delta`` (in std units) on the first ``s`` features; all features
    share an equicorrelated unit-variance Gaussian noise structure."""

    n0: int
    n1: int
    n_unlabeled: int
    p: int
    s: int
    delta: float
    rho: float
    seed: int

    def __post_init__(self):
        if min(self.n0, self.n1, self.n_unlabeled) < 0:
            raise ValueError("counts must be >= 0")
        if self.n0 + self.n1 + self.n_unlabeled < 1:
            raise ValueError("at least one row is required")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not 0 <= self.s <= self.p:
            raise ValueError("s must satisfy 0 <= s <= p")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be unsigned")

    @staticmethod
    def adni_like(seed: int = 0) -> "SyntheticSpec":
        """56 features over 144/179 labeled plus 309 unlabeled rows."""
        return SyntheticSpec(n0=144, n1=179, n_unlabeled=309, p=56, s=6,
                             delta=0.8, rho=0.2, seed=seed)


def load_csv(path: str, label_column: str = "label") -> Dataset:
    """Read a UTF-8, comma-separated, headered file into a Dataset.

    The label column must contain 0, 1, or -1 (-1 = unlabeled); every other
    column must be numeric. Errors name the offending line and column.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, expected a header row") from None
        if label_column not in header:
            raise CsvFormatError(f"{path}: header has no column named {label_column!r}")
        label_pos = header.index(label_column)
        names = [h for i, h in enumerate(header) if i != label_pos]
        if not names:
            raise CsvFormatError(f"{path}: no feature columns besides {label_column!r}")
        rows, labels = [], []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise CsvFormatError(
                    f"{path}:{lineno}: ragged row, {len(rec)} cells but {len(header)} header columns")
            raw_label = rec[label_pos].strip()
            if raw_label not in ("0", "1", "-1"):
                raise CsvFormatError(
                    f"{path}:{lineno}: unknown label value {raw_label!r} "
                    f"in column {label_column!r} (expected 0, 1, or -1)")
            labels.append(int(raw_label))
            vals = []
            for i, cell in enumerate(rec):
                if i == label_pos:
                    continue
                colname = header[i]
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise CsvFormatError(
                        f"{path}:{lineno}: non-numeric cell {cell!r} in column {colname!r}") from None
            rows.append(vals)
        if not rows:
            raise CsvFormatError(f"{path}: no data rows")
    return Dataset(np.array(rows, dtype=float), np.array(labels), tuple(names))


def save_csv(ds: Dataset, path: str, label_column: str = "label") -> None:
    """Write a Dataset so load_csv reads it back equal; floats are rendered
    with 17 significant digits for bit-exact round trips."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [label_column])
        for i in range(ds.n):
            writer.writerow([f"{v:.17g}" for v in ds.features[i]] + [str(int(ds.labels[i]))])


def standardize_fit(ds: Dataset, rows) -> StandardizationParams:
    """Column means and stds (denominator n-1) over exactly the given rows."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size < 2:
        raise ValueError("standardize_fit needs at least 2 rows")
    X = ds.features[rows]
    means = X.mean(axis=0)
    stds = X.std(axis=0, ddof=1)
    if np.any(stds == 0.0):
        j = int(np.argmax(stds == 0.0))
        raise ValueError(f"column {ds.feature_names[j]!r} (index {j}) is constant over the given rows")
    return StandardizationParams(means, stds)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stratified_split(ds: Dataset, test_frac: float, seed: int) -> SplitIndices:
    """Per-class test counts are round(class_count * test_frac), half-up.

    Only labeled rows are split; deterministic for a given seed.
    """
    if not 0.0 < test_frac < 1.0:
        raise ValueError("test_frac must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in (0, 1):
        members = np.flatnonzero(ds.labels == cls)
        n_test = _round_half_up(members.size * test_frac)
        if members.size < 2 or n_test < 1 or n_test >= members.size:
            raise ValueError(
                f"class {cls} has {members.size} rows: cannot place >= 1 row "
                f"on each side at test_frac={test_frac}")
        perm = rng.permutation(members)
        test_parts.append(perm[:n_test])
        train_parts.append(perm[n_test:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return SplitIndices(train, test)


def random_split(ds: Dataset, test_frac: float, seed: int) -> SplitIndices:
    """Unstratified variant: labeled rows are permuted as one pool.

    Raises if a side ends up missing a class, which stratified_split
    prevents by construction.
    """
    if not 0.0 < test_frac < 1.0:
        raise ValueError("test_frac must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    labeled = ds.labeled_indices()
    n_test = _round_half_up(labeled.size * test_frac)
    if n_test < 1 or n_test >= labeled.size:
        raise ValueError(f"cannot split {labeled.size} labeled rows at test_frac={test_frac}")
    perm = rng.permutation(labeled)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    for side, name in ((train, "train"), (test, "test")):
        present = set(ds.labels[side].tolist())
        if not {0, 1} <= present:
            raise ValueError(f"unstratified split left the {name} side without both classes; "
                             f"use stratified_split or another seed")
    return SplitIndices(train, test)


def kfold(indices, ds: Dataset, k: int, seed: int) -> list[np.ndarray]:
    """Partition labeled row indices into k class-stratified folds.

    Fold sizes differ by at most one per class; deterministic given seed.
    """
    indices = np.asarray(indices, dtype=np.intp)
    if k < 2:
        raise ValueError("k must be >= 2")
    labels = ds.labels[indices]
    if np.any(labels == UNLABELED):
        raise ValueError("kfold requires labeled rows only")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        members = indices[labels == cls]
        if members.size < k:
            raise ValueError(f"k={k} exceeds class {cls} count {members.size}")
        perm = rng.permutation(members)
        for j in range(k):
            folds[j].extend(perm[j::k].tolist())
    return [np.sort(np.array(f, dtype=np.intp)) for f in folds]


def cv_masks(n: int, folds):
    """Yield (training mask, validation indices) per fold, in fold order, for
    k-fold CV over n rows: the mask is False exactly on the fold's rows."""
    for fold in folds:
        val = np.asarray(fold, dtype=np.intp)
        train = np.ones(n, dtype=bool)
        train[val] = False
        yield train, val


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw [class0; class1; unlabeled] blocks from N(mu_k, Sigma) with
    Sigma = (1-rho) I + rho 11^T; unlabeled rows mix the classes 50/50."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n0 + spec.n1 + spec.n_unlabeled
    eps = rng.standard_normal((n, spec.p))
    shared = rng.standard_normal((n, 1))
    X = math.sqrt(1.0 - spec.rho) * eps + math.sqrt(spec.rho) * shared
    coins = rng.integers(0, 2, size=spec.n_unlabeled)

    shift = np.zeros(spec.p)
    shift[: spec.s] = spec.delta
    X[spec.n0: spec.n0 + spec.n1] += shift
    X[spec.n0 + spec.n1:][coins == 1] += shift

    labels = np.concatenate([
        np.zeros(spec.n0, dtype=np.int64),
        np.ones(spec.n1, dtype=np.int64),
        np.full(spec.n_unlabeled, UNLABELED, dtype=np.int64),
    ])
    return Dataset.from_arrays(X, labels)
