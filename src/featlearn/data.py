"""Dataset container, CSV I/O, standardization, splitting, k-fold partitioning,
a synthetic equicorrelated-Gaussian generator, every config's number rule, and
the one checks of what a fit reads: ``feature_rows`` and ``class_labels``.

Labels live in {0, 1, -1}; -1 marks unlabeled rows that never enter a
train/test split but may feed unsupervised pretraining.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from array import array
from dataclasses import dataclass
from functools import cache
from typing import get_args, get_type_hints

import numpy as np

UNLABELED = -1
_VALID_LABELS = (0, 1, UNLABELED)


class CsvFormatError(ValueError):
    """A CSV file violates the expected layout; the message carries the
    offending line and column."""


def derive_seed(seed: int, *tags: int) -> int:
    """An independent sub-stream seed for each tag sequence under ``seed``."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_KINDS = {int: "an integer", float: "a number", tuple[int, ...]: "integers",
          tuple[float, ...]: "numbers"}  # the numeric kinds, as a refusal names them
field_kinds = cache(get_type_hints)  # a dataclass's field name -> type, resolved once


def plain_number(name: str, value, kind):
    """``value`` as ``kind``, a key of _KINDS, in plain Python numbers (numpy's too; a float
    takes an integer). Anything else, a bool included, is a ValueError naming ``name``."""
    elem = (get_args(kind) or (kind,))[0]
    try:  # float() raises OverflowError past the float range
        values = (value,) if elem is kind else tuple(value)
        if not all(isinstance(v, numbers.Integral if elem is int else numbers.Real)
                   and not isinstance(v, bool) for v in values):
            raise TypeError
        return elem(value) if elem is kind else tuple(map(elem, values))
    except (TypeError, OverflowError):
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}") from None


def plain_numbers(obj) -> None:
    """Store each numeric field of a frozen dataclass as ``plain_number`` returns it."""
    for name, kind in field_kinds(type(obj)).items():
        if kind in _KINDS and type(value := getattr(obj, name)) is not kind:  # else already plain
            object.__setattr__(obj, name, plain_number(name, value, kind))


def feature_rows(X, width: int | None = None) -> np.ndarray:
    """``X`` as a 2-D float array, of ``width`` columns if given: the rows that a
    fit or a fitted SVM, PCA or SAE model reads. Anything else is a ValueError."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if width is not None and X.shape[1] != width:
        raise ValueError(f"expected {width} columns, got {X.shape[1]}")
    return X


def class_labels(labels, shape) -> np.ndarray:
    """``labels`` as an int64 array of ``shape`` that holds only 0 and 1: what a
    selector, an SVM or an SAE head trains on. Anything else is a ValueError."""
    y = np.asarray(labels)
    if y.shape != tuple(shape):
        raise ValueError(f"labels must have shape {tuple(shape)}, got {y.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    return y.astype(np.int64)


@dataclass(frozen=True)
class Dataset:
    """n x p feature matrix with per-row labels in {0, 1, -1}.

    ``feature_names`` holds one name per column; left empty, the columns
    are named f0, f1, ..., f{p-1}. Immutable after construction; arrays are
    marked read-only so instances can be shared freely across workers.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        X = np.array(self.features, dtype=float)
        y = np.asarray(self.labels)  # checked before the int cast, which truncates 0.5 to 0
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
        names = tuple(self.feature_names) or tuple(f"f{j}" for j in range(p))
        if len(names) != p:
            raise ValueError(f"{len(names)} feature names for {p} columns")
        object.__setattr__(self, "features", _readonly(X))
        object.__setattr__(self, "labels", _readonly(y.astype(np.int64)))
        object.__setattr__(self, "feature_names", names)

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


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column means and stds fitted on training rows: equal-length 1-D
    arrays, every std positive, as ``standardize_fit`` (which refuses a
    constant column) and ``harness._fit_scaler`` (std 1.0 for a near-constant
    one) make them."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", _readonly(np.array(self.means, dtype=float)))
        object.__setattr__(self, "stds", _readonly(np.array(self.stds, dtype=float)))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """(X - means) / stds, column by column."""
        return (X - self.means) / self.stds


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint train/test row indices over the labeled rows. The overlap
    check stays, unlike the checks of the fitted types: it guards the
    protocol's promise that no test row reaches a fit."""

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
        plain_numbers(self)
        if min(self.n0, self.n1, self.n_unlabeled) < 0:
            raise ValueError("counts must be >= 0")
        if self.n0 + self.n1 + self.n_unlabeled < 1:
            raise ValueError("at least one row is required")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not 0 <= self.s <= self.p:
            raise ValueError("s must satisfy 0 <= s <= p")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be unsigned")

    @staticmethod
    def adni_like(seed: int = 0) -> "SyntheticSpec":
        """56 features over 144/179 labeled plus 309 unlabeled rows."""
        return SyntheticSpec(n0=144, n1=179, n_unlabeled=309, p=56, s=6,
                             delta=0.8, rho=0.2, seed=seed)


def _repeated_name(names: list[str]) -> str | None:
    """The first name that an earlier name equals, or None."""
    return next((h for i, h in enumerate(names) if h in names[:i]), None)


def load_csv(path: str, label_column: str = "label") -> Dataset:
    """Read a UTF-8, comma-separated, headered file into a Dataset.

    A leading byte-order mark and blank lines are skipped. Column names must
    be distinct. The label column must contain 0, 1, or -1 (-1 =
    unlabeled); every other column must be numeric and finite. Errors name
    the offending line and column.

    Feature cells are parsed by one ``float`` pass per row into an
    ``array("d")`` joined to one flat array reshaped once, and checked by one
    finiteness pass; a failing row is read again cell by cell to name its
    fault. Values and messages are those of reading each cell alone: the
    earliest bad line wins, then its label, then its leftmost bad cell.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, expected a header row") from None
        repeated = _repeated_name(header)
        if repeated is not None:
            raise CsvFormatError(f"{path}:1: repeated column name {repeated!r}")
        if label_column not in header:
            raise CsvFormatError(f"{path}: header has no column named {label_column!r}")
        label_pos = header.index(label_column)
        names = [h for i, h in enumerate(header) if i != label_pos]
        if not names:
            raise CsvFormatError(f"{path}: no feature columns besides {label_column!r}")
        flat, labels = array("d"), []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) < 2 and not "".join(rec).strip():
                continue  # a blank line: a row has a feature cell and a label cell
            if len(rec) != len(header):
                raise CsvFormatError(
                    f"{path}:{lineno}: ragged row, {len(rec)} cells but {len(header)} header columns")
            raw_label = rec.pop(label_pos).strip()
            if raw_label not in ("0", "1", "-1"):
                raise CsvFormatError(
                    f"{path}:{lineno}: unknown label value {raw_label!r} "
                    f"in column {label_column!r} (expected 0, 1, or -1)")
            labels.append(int(raw_label))
            try:
                vals = array("d", map(float, rec))
            except ValueError:
                vals = None
            if vals is None or not all(map(math.isfinite, vals)):
                _raise_first_bad_cell(f"{path}:{lineno}", rec, names)
            flat += vals
        if not labels:
            raise CsvFormatError(f"{path}: no data rows")
    return Dataset(np.frombuffer(flat).reshape(len(labels), -1), np.array(labels), tuple(names))


def _raise_first_bad_cell(where: str, cells, names) -> None:
    """Raise CsvFormatError for the first cell, in column order, that is not a
    finite number."""
    for cell, name in zip(cells, names):
        try:
            value = float(cell)
        except ValueError:
            raise CsvFormatError(f"{where}: non-numeric cell {cell!r} in column {name!r}") from None
        if not math.isfinite(value):
            raise CsvFormatError(f"{where}: non-finite cell {cell!r} in column {name!r}")


def save_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset, labels last in a ``label`` column, so load_csv reads it
    back equal; floats have 17 significant digits for bit-exact round trips.

    ``csv.writer`` writes the header, quoting names that need it; each data
    row, one ``tolist()`` of floats at a time, is one ``%`` format of a fixed
    template, since numeric cells never need quoting. The bytes are those of
    writing every row through ``csv.writer``: same digits, ``\\r\\n`` line ends.

    A feature named ``label``, or two of one name, would repeat a column
    name, which load_csv refuses; that raises ValueError before any write.
    """
    header = list(ds.feature_names) + ["label"]
    repeated = _repeated_name(header)
    if repeated is not None:
        raise ValueError(f"repeated column name {repeated!r}: load_csv would refuse the file")
    row = "%.17g," * ds.p + "%d\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for values, label in zip(ds.features, ds.labels.tolist()):
            fh.write(row % (*values.tolist(), label))


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


def stratified_split(ds: Dataset, test_frac: float, seed: int) -> SplitIndices:
    """Per-class test counts are round(class_count * test_frac), half-up.

    Only labeled rows are split; deterministic for a given seed.
    """
    rng = np.random.default_rng(plain_number("seed", seed, int))
    train_parts, test_parts = [], []
    for cls in (0, 1):
        members = np.flatnonzero(ds.labels == cls)
        n_test = math.floor(members.size * test_frac + 0.5)
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


def kfold(labels, k: int, seed: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Class-stratified k-fold CV over the positions 0..len(labels)-1: one
    read-only (training mask, validation rows) pair per fold. The mask is
    False exactly on the fold's rows, which are ascending. The labels must be
    1-D and pass ``class_labels``.

    Fold sizes differ by at most one per class; deterministic given seed.
    """
    labels, k = class_labels(labels, (np.size(labels),)), plain_number("k", k, int)
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(plain_number("seed", seed, int))
    fold_of = np.empty(labels.size, dtype=np.intp)  # a class's i-th shuffled row is in fold i % k
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if members.size < k:
            raise ValueError(f"k={k} exceeds class {cls} count {members.size}")
        fold_of[rng.permutation(members)] = np.arange(members.size) % k
    return tuple((_readonly(fold_of != j), _readonly(np.flatnonzero(fold_of == j)))
                 for j in range(k))


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
    return Dataset(X, labels)
