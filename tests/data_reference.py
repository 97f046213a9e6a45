"""The cell-at-a-time CSV writer and reader, kept as the reference for
``featlearn.data``: ``save_csv`` must write the bytes ``per_cell_save_csv``
writes, and ``load_csv`` must return the values ``per_cell_load_csv`` returns
or raise the message it raises.

The layout is the package's: a ``csv`` header, one row per sample, features
as 17 significant digits and the label as 0, 1 or -1.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from featlearn.data import CsvFormatError, Dataset


def per_cell_load_csv(path: str, label_column: str = "label") -> Dataset:
    """Parse and check every feature cell on its own, in column order."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, expected a header row") from None
        repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
        if repeated is not None:
            raise CsvFormatError(f"{path}:1: repeated column name {repeated!r}")
        if label_column not in header:
            raise CsvFormatError(f"{path}: header has no column named {label_column!r}")
        label_pos = header.index(label_column)
        names = [h for i, h in enumerate(header) if i != label_pos]
        if not names:
            raise CsvFormatError(f"{path}: no feature columns besides {label_column!r}")
        rows, labels = [], []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) < 2 and not "".join(rec).strip():
                continue
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
                    value = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}:{lineno}: non-numeric cell {cell!r} in column {colname!r}") from None
                if not math.isfinite(value):
                    raise CsvFormatError(
                        f"{path}:{lineno}: non-finite cell {cell!r} in column {colname!r}")
                vals.append(value)
            rows.append(vals)
        if not rows:
            raise CsvFormatError(f"{path}: no data rows")
    return Dataset(np.array(rows, dtype=float), np.array(labels), tuple(names))


def per_cell_save_csv(ds: Dataset, path: str) -> None:
    """Format every cell on its own and write each row through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + ["label"])
        for i in range(ds.n):
            writer.writerow([f"{v:.17g}" for v in ds.features[i]] + [str(int(ds.labels[i]))])
