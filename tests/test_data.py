import csv
import re
from dataclasses import fields

import numpy as np
import pytest

from data_reference import per_cell_load_csv, per_cell_save_csv
from featlearn.data import (CsvFormatError, Dataset, SplitIndices, StandardizationParams,
                            SyntheticSpec, class_labels, generate_synthetic, kfold,
                            load_csv, save_csv, standardize_fit, stratified_split)


def _toy(n0=5, n1=5, n_unl=0, p=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = [0] * n0 + [1] * n1 + [-1] * n_unl
    return Dataset(rng.normal(size=(len(labels), p)), labels)


class TestDataset:
    def test_counts(self):
        ds = _toy(n0=2, n1=3, n_unl=4)
        assert (ds.n, ds.p, ds.n0, ds.n1, ds.n_unlabeled) == (9, 3, 2, 3, 4)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset([[1.0, np.nan]], [0])

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            Dataset([[1.0]], [2])

    @pytest.mark.parametrize("row", range(3))
    def test_rejects_fractional_label_naming_its_row(self, row):
        """Casting first would truncate 0.5 to 0, 1.5 to 1 and -0.5 to 0."""
        labels = [0.0, 1.0, -1.0]
        labels[row] += 0.5
        with pytest.raises(ValueError, match=rf"label at row {row} not in \{{0, 1, -1\}}"):
            Dataset(np.ones((3, 1)), labels, ("a",))

    def test_integral_float_labels_load(self):
        ds = Dataset(np.ones((3, 1)), [0.0, 1.0, -1.0], ("a",))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, -1]

    def test_immutable(self):
        ds = _toy()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_auto_names(self):
        ds = Dataset([[1.0, 2.0]], [1])
        assert ds.feature_names == ("f0", "f1")


class TestCsvRoundTrip:
    def test_three_row_readback(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n5,6,-1\n")
        ds = load_csv(str(path))
        assert (ds.n0, ds.n1, ds.n_unlabeled) == (1, 1, 1)
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])
        assert ds.feature_names == ("a", "b")

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,abc,0\n")
        with pytest.raises(CsvFormatError, match=r":2: .*'abc' in column 'b'"):
            load_csv(str(path))

    def test_unknown_label_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label\n1,7\n")
        with pytest.raises(CsvFormatError, match=r":2: unknown label"):
            load_csv(str(path))

    def test_ragged_row_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,0\n1,0\n")
        with pytest.raises(CsvFormatError, match=r":3: ragged"):
            load_csv(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("a,b,label\n1,2,0\n\n3,4,1\n  \n")
        ds = load_csv(str(path))
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(ds.labels, [0, 1])
        path.write_text("a,b,label\n\n\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_located(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,label,b\n1,0,2\n3,1,{cell}\n")
        with pytest.raises(CsvFormatError,
                           match=rf"bad.csv:3: non-finite cell '{cell}' in column 'b'"):
            load_csv(str(path))

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("label,a\n0,1.5\n1,2.5\n".encode("utf-8-sig"))
        ds = load_csv(str(path))
        assert ds.feature_names == ("a",)
        np.testing.assert_array_equal(ds.features, [[1.5], [2.5]])
        save_csv(ds, str(path))
        assert path.read_bytes().startswith(b"a,label\r\n")

    def test_repeated_label_column_rejected(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("label,a,label\n0,2,1\n1,4,0\n")
        with pytest.raises(CsvFormatError, match=r"twice.csv:1: repeated column name 'label'"):
            load_csv(str(path))

    def test_repeated_feature_name_rejected(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("a,a,label\n1,2,0\n3,4,1\n")
        with pytest.raises(CsvFormatError, match=r"twice.csv:1: repeated column name 'a'"):
            load_csv(str(path))

    @pytest.mark.parametrize("names, repeated", [(("label", "b"), "label"), (("a", "a"), "a")],
                             ids=["feature-named-label", "two-features-of-one-name"])
    def test_save_refuses_a_repeated_column_name_and_writes_nothing(self, tmp_path, names,
                                                                    repeated):
        path = tmp_path / "twice.csv"
        with pytest.raises(ValueError, match=f"^repeated column name '{repeated}': load_csv would"):
            save_csv(Dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1], names), str(path))
        assert not path.exists()

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/nope.csv")

    def test_one_by_one_dataset_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        save_csv(Dataset([[3.5]], [1]), str(path))
        assert path.read_text().splitlines() == ["f0,label", "3.5,1"]

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_exact(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.normal(size=(10, 5)), rng.integers(-1, 2, size=10))
        path = tmp_path / "rt.csv"
        save_csv(ds, str(path))
        back = load_csv(str(path))
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names

    def test_save_load_byte_stable(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(4, 4, 2, 3, 1, 0.5, 0.1, seed=9))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(ds, str(p1))
        save_csv(ds, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "pinned.csv"
        ds = Dataset([[-0.0, 5e-324], [1e300, 0.1]], [-1, 1], ("b,c", 'q"u'))
        save_csv(ds, str(path))
        assert path.read_bytes() == (b'"b,c","q""u",label\r\n'
                                     b"-0,4.9406564584124654e-324,-1\r\n"
                                     b"1.0000000000000001e+300,0.10000000000000001,1\r\n")

    @pytest.mark.parametrize("text, message", [
        ("a,b,c,label\n1,inf,abc,0\n", ":2: non-finite cell 'inf' in column 'b'"),
        ("a,b,c,label\n1,abc,inf,0\n", ":2: non-numeric cell 'abc' in column 'b'"),
        ("a,b,label\nabc,nan,7\n", ":2: unknown label value '7' in column 'label' (expected 0, 1, or -1)"),
        ("a,label,b,c\n1,0,2,x\n", ":2: non-numeric cell 'x' in column 'c'"),
        ("a,b,label\n1,2,0\n1,inf,1\nabc,2,0\n", ":3: non-finite cell 'inf' in column 'b'"),
        ("a,b,label\n1,2,0\n1,abc,1\n-inf,2,0\n", ":3: non-numeric cell 'abc' in column 'b'"),
    ], ids=["non-finite-first", "non-numeric-first", "label-before-cells",
            "label-in-the-middle", "earlier-line-non-finite", "earlier-line-non-numeric"])
    def test_first_fault_in_file_order_wins(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError) as err:
            load_csv(str(path))
        assert str(err.value) == f"{path}{message}"

    # the per-cell reference raises the same message for each header fault
    @pytest.mark.parametrize("text, message", [
        ("", ": empty file, expected a header row"),
        ("a,b\n1,2\n", ": header has no column named 'label'"),
        ("label\n0\n1\n", ": no feature columns besides 'label'"),
    ], ids=["empty-file", "no-label-column", "only-the-label-column"])
    def test_bad_header_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        for load in (load_csv, per_cell_load_csv):
            with pytest.raises(CsvFormatError) as err:
                load(str(path))
            assert str(err.value) == f"{path}{message}", load.__name__


# Cells as a hand-written file may spell them: float() reads the first seven,
# and the last two are an unknown label and a padded one
ODD_CELLS = [" 1.5 ", "1_000", "+2", ".5e1", "-0", "1E-400", "1e999", "", "abc", "1,5", "0x1",
             "nan", "-Infinity", '"3"', "1 2", "7", " 1 "]
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
NAMES = ["a", "b,c", 'q"u', "x y", "\u00e9t\u00e9", "label2", " pad ", "7"]


def _outcome(load, path):
    """What a reader makes of a file: its error, or the exact bits it read."""
    try:
        ds = load(path)
    except CsvFormatError as exc:
        return str(exc)
    return ds.features.tobytes(), ds.labels.tolist(), ds.feature_names


class TestCsvAgainstPerCellReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_bytes_values_and_messages(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        X = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-300, 301, size=(n, p))
        special = rng.random((n, p)) < 0.2
        X[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
        names = tuple(rng.choice(NAMES, size=p, replace=False).tolist())
        ds = Dataset(X, rng.integers(-1, 2, size=n), names)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_csv(ds, str(new))
        per_cell_save_csv(ds, str(old))
        assert new.read_bytes() == old.read_bytes()
        assert _outcome(load_csv, str(new)) == _outcome(per_cell_load_csv, str(old))

        # the label moved to a random column, then a few cells respelled
        label_pos = int(rng.integers(0, p + 1))
        rows = [list(names)] + [[f"{v!r}" for v in row] for row in X.tolist()]
        for row, label in zip(rows, ["label"] + ds.labels.tolist()):
            row.insert(label_pos, str(label))
        for _ in range(int(rng.integers(0, 4))):
            i, j = int(rng.integers(1, n + 1)), int(rng.integers(0, p + 1))
            rows[i][j] = str(rng.choice(ODD_CELLS))
        with open(new, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator=str(rng.choice(["\n", "\r\n"]))).writerows(rows)
        assert _outcome(load_csv, str(new)) == _outcome(per_cell_load_csv, str(new))


class TestStandardize:
    def test_hand_values(self):
        ds = Dataset([[0.0], [2.0]], [0, 1])
        params = standardize_fit(ds, [0, 1])
        assert params.means[0] == pytest.approx(1.0)
        assert params.stds[0] == pytest.approx(np.sqrt(2.0))

    def test_apply_hand_value(self):
        ds = Dataset([[3.0]], [0])
        out = StandardizationParams([1.0], [2.0]).apply(ds.features)
        assert out[0, 0] == pytest.approx(1.0)

    def test_identity_params(self):
        ds = _toy()
        out = StandardizationParams(np.zeros(3), np.ones(3)).apply(ds.features)
        np.testing.assert_array_equal(out, ds.features)

    @pytest.mark.parametrize("seed", range(8))
    def test_fit_apply_normalizes(self, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.normal(3.0, 2.5, size=(20, 4)), [0, 1] * 10)
        rows = np.arange(12)
        params = standardize_fit(ds, rows)
        sub = params.apply(ds.features)[rows]
        assert np.max(np.abs(sub.mean(axis=0))) < 1e-10
        assert np.max(np.abs(sub.std(axis=0, ddof=1) - 1.0)) < 1e-10

    def test_idempotent_on_standardized(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(15, 2)), [0, 1] * 7 + [0])
        rows = np.arange(15)
        once = Dataset(standardize_fit(ds, rows).apply(ds.features), ds.labels)
        params2 = standardize_fit(once, rows)
        assert np.max(np.abs(params2.means)) < 1e-10
        assert np.max(np.abs(params2.stds - 1.0)) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_means_and_stds_are_equal_length_1_d_with_every_std_positive(self, seed):
        """What ``StandardizationParams`` leaves to its producers."""
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.normal(size=(12, 4)) * [1e-12, 1e-3, 1.0, 1e3], [0, 1] * 6)
        params = standardize_fit(ds, rng.choice(12, size=7, replace=False))
        assert params.means.shape == params.stds.shape == (4,)
        assert np.all(params.stds > 0.0)

    def test_constant_column_named(self):
        ds = Dataset([[1.0, 1.0], [1.0, 2.0]], [0, 1])
        with pytest.raises(ValueError, match="'f0'"):
            standardize_fit(ds, [0, 1])


class TestSplits:
    def test_adni_like_counts(self):
        ds = _toy(n0=144, n1=179, seed=1)
        split = stratified_split(ds, 0.2, seed=0)
        test_labels = ds.labels[split.test]
        assert int(np.sum(test_labels == 0)) == 29  # round(144 * 0.2)
        assert int(np.sum(test_labels == 1)) == 36  # round(179 * 0.2)

    def test_deterministic(self):
        ds = _toy(n0=20, n1=20)
        a = stratified_split(ds, 0.25, seed=7)
        b = stratified_split(ds, 0.25, seed=7)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_partition_of_labeled_rows(self):
        ds = _toy(n0=11, n1=13, n_unl=6)
        split = stratified_split(ds, 0.3, seed=3)
        both = np.sort(np.concatenate([split.train, split.test]))
        np.testing.assert_array_equal(both, np.flatnonzero(ds.labels != -1))

    def test_too_small_class_errors(self):
        ds = _toy(n0=3, n1=20)
        with pytest.raises(ValueError, match="class 0"):
            stratified_split(ds, 0.05, seed=0)

    @pytest.mark.parametrize("seed", [2.5, True, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        """A bool or a non-integer seed is refused by name; a numpy integer
        gives the split of the same Python int."""
        ds = _toy(n0=10, n1=10)
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            stratified_split(ds, 0.3, seed)
        got, want = stratified_split(ds, 0.3, np.int64(4)), stratified_split(ds, 0.3, 4)
        assert got.train.tolist() == want.train.tolist() and got.test.tolist() == want.test.tolist()


class TestKfold:
    @pytest.mark.parametrize("k", [2.5, True])
    def test_k_must_be_an_integer(self, k):
        """A bool or a non-integer k is refused by name."""
        labels = _toy(n0=10, n1=10).labels
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}$"):
            kfold(labels, k, seed=0)
        for got, want in zip(kfold(labels, np.int64(4), seed=0), kfold(labels, 4, seed=0),
                             strict=True):
            assert [a.tolist() for a in got] == [a.tolist() for a in want]

    @pytest.mark.parametrize("seed", [2.5, True, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        """A bool or a non-integer seed is refused by name; a numpy integer
        gives the folds of the same Python int."""
        labels = _toy(n0=10, n1=10).labels
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            kfold(labels, 3, seed)
        for got, want in zip(kfold(labels, 3, np.uint32(4)), kfold(labels, 3, 4), strict=True):
            assert [a.tolist() for a in got] == [a.tolist() for a in want]

    def test_exact_division(self):
        ds = _toy(n0=10, n1=10)
        folds = kfold(ds.labels, k=10, seed=0)
        for _, fold in folds:
            labels = ds.labels[fold]
            assert int(np.sum(labels == 0)) == 1
            assert int(np.sum(labels == 1)) == 1

    def test_partition_property(self):
        ds = _toy(n0=17, n1=23)
        folds = kfold(ds.labels, k=7, seed=1)
        merged = np.sort(np.concatenate([fold for _, fold in folds]))
        np.testing.assert_array_equal(merged, np.arange(40))
        sizes = {}
        for _, fold in folds:
            for cls in (0, 1):
                sizes.setdefault(cls, []).append(int(np.sum(ds.labels[fold] == cls)))
        for counts in sizes.values():
            assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        ds = _toy(n0=12, n1=12)
        a = kfold(ds.labels, 4, seed=9)
        b = kfold(ds.labels, 4, seed=9)
        for (train_a, fa), (train_b, fb) in zip(a, b):
            np.testing.assert_array_equal(train_a, train_b)
            np.testing.assert_array_equal(fa, fb)

    def test_k_exceeds_class_count(self):
        ds = _toy(n0=3, n1=10)
        with pytest.raises(ValueError, match="exceeds class 0"):
            kfold(ds.labels, k=5, seed=0)

    def test_unlabeled_rejected(self):
        ds = _toy(n0=4, n1=4, n_unl=2)
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            kfold(ds.labels, k=2, seed=0)

    def test_masks_complement_folds_in_fold_order(self):
        ds = _toy(n0=9, n1=11)
        folds = kfold(ds.labels, k=4, seed=3)
        assert len(folds) == 4
        for train, fold in folds:
            assert train.dtype == bool and train.shape == (20,)
            assert fold.dtype == np.intp and np.all(np.diff(fold) > 0)
            np.testing.assert_array_equal(np.flatnonzero(~train), fold)

    def test_every_row_validates_exactly_once(self):
        ds = _toy(n0=10, n1=10)
        folds = kfold(ds.labels, k=5, seed=0)
        held_out = sum((~train).astype(int) for train, _ in folds)
        np.testing.assert_array_equal(held_out, np.ones(20, dtype=int))

    def test_folds_are_read_only(self):
        ds = _toy(n0=6, n1=6)
        for train, fold in kfold(ds.labels, k=3, seed=0):
            for shared in (train, fold):
                with pytest.raises(ValueError, match="read-only"):
                    shared[0] = 0

    @pytest.mark.parametrize("k, seed", [(2, 0), (3, 5), (10, 7)])
    def test_same_partition_as_dealing_each_class_permutation(self, k, seed):
        """Fold j holds rows j, j + k, ... of each class's permutation, the
        classes drawn in the order 0, 1 from one generator."""
        labels = np.array([0, 1] * 25 + [1] * 7)
        rng = np.random.default_rng(seed)
        dealt = [[] for _ in range(k)]
        for cls in (0, 1):
            perm = rng.permutation(np.flatnonzero(labels == cls))
            for j in range(k):
                dealt[j] += perm[j::k].tolist()
        for (_, fold), rows in zip(kfold(labels, k, seed), dealt):
            np.testing.assert_array_equal(fold, sorted(rows))


class TestClassLabels:
    @pytest.mark.parametrize("labels", [[0, 1, 1], [0.0, 1.0, 1.0], [False, True, True],
                                        np.array([0, 1, 1], dtype=np.uint8)])
    def test_0_1_labels_come_back_as_int64(self, labels):
        got = class_labels(labels, (3,))
        assert got.dtype == np.int64 and got.tolist() == [0, 1, 1]

    def test_stacked_labels_keep_their_shape(self):
        assert class_labels([[0, 1], [1, 0]], (2, 2)).tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("labels, shape, message", [
        ([0, 1, 1], (4,), "labels must have shape (4,), got (3,)"),
        ([[0, 1, 1]], (3,), "labels must have shape (3,), got (1, 3)"),
        ([0, 1], (1, 2), "labels must have shape (1, 2), got (2,)"),
        ([0, 1, -1], (3,), "labels must be 0 or 1"),
        ([0, 1, 2], (3,), "labels must be 0 or 1"),
        ([0, 1, 0.5], (3,), "labels must be 0 or 1"),
        ([0, 1, np.nan], (3,), "labels must be 0 or 1"),
        (["0", "1", "1"], (3,), "labels must be 0 or 1"),
    ], ids=["short", "2-d", "1-d-for-stack", "unlabeled", "two", "half", "nan", "text"])
    def test_bad_labels_rejected(self, labels, shape, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            class_labels(labels, shape)


class TestGenerateSynthetic:
    def test_counts_exact(self):
        ds = generate_synthetic(SyntheticSpec(10, 20, 5, 4, 2, 1.0, 0.3, seed=0))
        assert (ds.n0, ds.n1, ds.n_unlabeled) == (10, 20, 5)

    def test_delta_zero_null_case(self):
        n = 2000
        ds = generate_synthetic(SyntheticSpec(n, n, 0, 6, 3, 0.0, 0.0, seed=1))
        diff = (ds.features[ds.labels == 1].mean(axis=0)
                - ds.features[ds.labels == 0].mean(axis=0))
        assert np.max(np.abs(diff)) < 4.0 / np.sqrt(n)

    def test_rho_zero_uncorrelated(self):
        n = 4000
        ds = generate_synthetic(SyntheticSpec(n, 0, 0, 6, 0, 0.0, 0.0, seed=2))
        R = np.corrcoef(ds.features.T)
        off = R[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) < 4.0 / np.sqrt(n)

    def test_informative_features_rank_first(self):
        # the 5 shifted features should carry the largest |t| nearly always
        from featlearn.ttest import select_top_m, two_sample_t
        hits = 0
        for seed in range(100):
            ds = generate_synthetic(SyntheticSpec(500, 500, 0, 56, 5, 1.0, 0.0, seed=seed))
            top = select_top_m(two_sample_t(ds.features, ds.labels), 5)
            if top.tolist() == [0, 1, 2, 3, 4]:
                hits += 1
        assert hits >= 95

    def test_deterministic(self):
        spec = SyntheticSpec(8, 8, 4, 5, 2, 0.7, 0.2, seed=42)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(1, 1, 0, 0, 0, 0.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec(1, 1, 0, 3, 5, 0.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec(1, 1, 0, 3, 1, 0.0, 1.0, seed=0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, -0.5])
    def test_delta_must_be_finite_and_nonnegative(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            SyntheticSpec(4, 4, 0, 3, 1, delta, 0.0, seed=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"p": 2.5}, "p must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"n0": True}, "n0 must be an integer, got True"),
        ({"delta": True}, "delta must be a number, got True"),
        ({"delta": 10**400}, f"delta must be a number, got {10**400}"),
    ], ids=["p-float", "seed-float", "n0-bool", "delta-bool", "delta-past-float-range"])
    def test_non_number_in_a_field_rejected(self, kwargs, message):
        args = {"n0": 4, "n1": 4, "n_unlabeled": 0, "p": 3, "s": 1, "delta": 0.5, "rho": 0.0,
                "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SyntheticSpec(**args)

    def test_numpy_numbers_are_stored_as_plain_numbers(self):
        spec = SyntheticSpec(np.int64(4), np.int32(4), np.uint8(0), np.int64(3), np.int16(1),
                             np.float32(0.5), np.int64(0), seed=np.uint32(2))
        assert spec == SyntheticSpec(4, 4, 0, 3, 1, 0.5, 0.0, seed=2)
        types = [type(getattr(spec, f.name)) for f in fields(spec)]
        assert types == [int] * 5 + [float, float, int]


class TestRefusals:
    @pytest.mark.parametrize("make, message", [
        (lambda: Dataset([1.0, 2.0], [0, 1]), ValueError),  # unpacking its shape
        (lambda: Dataset(np.empty((0, 2)), []), "need n >= 1 and p >= 1, got shape (0, 2)"),
        (lambda: Dataset(np.empty((2, 0)), [0, 1]), "need n >= 1 and p >= 1, got shape (2, 0)"),
        (lambda: Dataset(np.ones((3, 1)), [0, 1]), "labels length (2,) does not match 3 rows"),
        (lambda: Dataset(np.ones((2, 2)), [0, 1], ("a",)), "1 feature names for 2 columns"),
        (lambda: SplitIndices([0, 1], [2, 1]), "train and test indices overlap"),
        (lambda: SyntheticSpec(-1, 2, 0, 3, 1, 0.5, 0.0, seed=0), "counts must be >= 0"),
        (lambda: SyntheticSpec(0, 0, 0, 3, 1, 0.5, 0.0, seed=0), "at least one row is required"),
        (lambda: SyntheticSpec(1, 1, 0, 3, 1, 0.5, 0.0, seed=-1), "seed must be unsigned"),
        (lambda: standardize_fit(_toy(), [4]), "standardize_fit needs at least 2 rows"),
        (lambda: stratified_split(_toy(), 0.0, seed=0), ValueError),  # the class-count refusal
        (lambda: stratified_split(_toy(), 1.0, seed=0), ValueError),
        (lambda: kfold([0, 1, 0, 1], 1, seed=0), "k must be >= 2"),
        (lambda: kfold([[0, 1], [1, 0], [0, 1], [1, 0]], 2, seed=0),
         "labels must have shape (8,), got (4, 2)"),
        (lambda: kfold(1, 2, seed=0), "labels must have shape (1,), got ()"),
    ], ids=["dataset-1-d", "dataset-no-rows", "dataset-no-columns", "dataset-label-count",
            "dataset-name-count", "split-overlap", "spec-negative-count", "spec-no-rows",
            "spec-negative-seed", "standardize-one-row", "split-test-frac-0", "split-test-frac-1",
            "kfold-k-1", "kfold-2-d-labels", "kfold-scalar-label"])
    def test_bad_input_rejected(self, make, message):
        typed = isinstance(message, type)  # the refusal of numpy, Python or another check
        with pytest.raises(message if typed else ValueError,
                           match=None if typed else f"^{re.escape(message)}$"):
            make()
