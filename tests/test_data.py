import numpy as np
import pytest

from featlearn.data import (CsvFormatError, Dataset, StandardizationParams,
                            SyntheticSpec, cv_masks, generate_synthetic, kfold,
                            load_csv, random_split, save_csv, standardize_fit,
                            stratified_split)


def _toy(n0=5, n1=5, n_unl=0, p=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = [0] * n0 + [1] * n1 + [-1] * n_unl
    return Dataset.from_arrays(rng.normal(size=(len(labels), p)), labels)


class TestDataset:
    def test_counts(self):
        ds = _toy(n0=2, n1=3, n_unl=4)
        assert (ds.n, ds.p, ds.n0, ds.n1, ds.n_unlabeled) == (9, 3, 2, 3, 4)
        np.testing.assert_array_equal(ds.unlabeled_indices(), np.arange(5, 9))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset.from_arrays([[1.0, np.nan]], [0])

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            Dataset.from_arrays([[1.0]], [2])

    def test_immutable(self):
        ds = _toy()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_auto_names(self):
        ds = Dataset.from_arrays([[1.0, 2.0]], [1])
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

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/nope.csv")

    def test_one_by_one_dataset_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        save_csv(Dataset.from_arrays([[3.5]], [1]), str(path))
        assert path.read_text().splitlines() == ["f0,label", "3.5,1"]

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_exact(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset.from_arrays(rng.normal(size=(10, 5)),
                                 rng.integers(-1, 2, size=10))
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


class TestStandardize:
    def test_hand_values(self):
        ds = Dataset.from_arrays([[0.0], [2.0]], [0, 1])
        params = standardize_fit(ds, [0, 1])
        assert params.means[0] == pytest.approx(1.0)
        assert params.stds[0] == pytest.approx(np.sqrt(2.0))

    def test_apply_hand_value(self):
        ds = Dataset.from_arrays([[3.0]], [0])
        out = StandardizationParams([1.0], [2.0]).apply(ds.features)
        assert out[0, 0] == pytest.approx(1.0)

    def test_identity_params(self):
        ds = _toy()
        out = StandardizationParams(np.zeros(3), np.ones(3)).apply(ds.features)
        np.testing.assert_array_equal(out, ds.features)

    @pytest.mark.parametrize("seed", range(8))
    def test_fit_apply_normalizes(self, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset.from_arrays(rng.normal(3.0, 2.5, size=(20, 4)), [0, 1] * 10)
        rows = np.arange(12)
        params = standardize_fit(ds, rows)
        sub = params.apply(ds.features)[rows]
        assert np.max(np.abs(sub.mean(axis=0))) < 1e-10
        assert np.max(np.abs(sub.std(axis=0, ddof=1) - 1.0)) < 1e-10

    def test_idempotent_on_standardized(self):
        rng = np.random.default_rng(3)
        ds = Dataset.from_arrays(rng.normal(size=(15, 2)), [0, 1] * 7 + [0])
        rows = np.arange(15)
        once = Dataset.from_arrays(standardize_fit(ds, rows).apply(ds.features), ds.labels)
        params2 = standardize_fit(once, rows)
        assert np.max(np.abs(params2.means)) < 1e-10
        assert np.max(np.abs(params2.stds - 1.0)) < 1e-10

    def test_constant_column_named(self):
        ds = Dataset.from_arrays([[1.0, 1.0], [1.0, 2.0]], [0, 1])
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
        np.testing.assert_array_equal(both, ds.labeled_indices())

    def test_too_small_class_errors(self):
        ds = _toy(n0=3, n1=20)
        with pytest.raises(ValueError, match="class 0"):
            stratified_split(ds, 0.05, seed=0)

    def test_random_split_deterministic_and_partitions(self):
        ds = _toy(n0=25, n1=25, n_unl=4)
        a = random_split(ds, 0.2, seed=5)
        b = random_split(ds, 0.2, seed=5)
        np.testing.assert_array_equal(a.test, b.test)
        assert a.test.size == 10
        both = np.sort(np.concatenate([a.train, a.test]))
        np.testing.assert_array_equal(both, ds.labeled_indices())


class TestKfold:
    def test_exact_division(self):
        ds = _toy(n0=10, n1=10)
        folds = kfold(np.arange(20), ds, k=10, seed=0)
        for fold in folds:
            labels = ds.labels[fold]
            assert int(np.sum(labels == 0)) == 1
            assert int(np.sum(labels == 1)) == 1

    def test_partition_property(self):
        ds = _toy(n0=17, n1=23)
        indices = np.arange(40)
        folds = kfold(indices, ds, k=7, seed=1)
        merged = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(merged, indices)
        sizes = {}
        for fold in folds:
            for cls in (0, 1):
                sizes.setdefault(cls, []).append(int(np.sum(ds.labels[fold] == cls)))
        for counts in sizes.values():
            assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        ds = _toy(n0=12, n1=12)
        a = kfold(np.arange(24), ds, 4, seed=9)
        b = kfold(np.arange(24), ds, 4, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_k_exceeds_class_count(self):
        ds = _toy(n0=3, n1=10)
        with pytest.raises(ValueError, match="exceeds class 0"):
            kfold(np.arange(13), ds, k=5, seed=0)

    def test_unlabeled_rejected(self):
        ds = _toy(n0=4, n1=4, n_unl=2)
        with pytest.raises(ValueError, match="labeled"):
            kfold(np.arange(10), ds, k=2, seed=0)


class TestCvMasks:
    def test_masks_complement_folds_in_fold_order(self):
        ds = _toy(n0=9, n1=11)
        folds = kfold(np.arange(20), ds, k=4, seed=3)
        pairs = list(cv_masks(20, folds))
        assert len(pairs) == len(folds)
        for (train, val), fold in zip(pairs, folds):
            np.testing.assert_array_equal(val, fold)
            np.testing.assert_array_equal(np.flatnonzero(~train), fold)

    def test_every_row_validates_exactly_once(self):
        ds = _toy(n0=10, n1=10)
        folds = kfold(np.arange(20), ds, k=5, seed=0)
        held_out = sum((~train).astype(int) for train, _ in cv_masks(20, folds))
        np.testing.assert_array_equal(held_out, np.ones(20, dtype=int))


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
        from featlearn.ttest import two_sample_t
        hits = 0
        for seed in range(100):
            ds = generate_synthetic(SyntheticSpec(500, 500, 0, 56, 5, 1.0, 0.0, seed=seed))
            stats = two_sample_t(ds)
            if set(stats.order[:5].tolist()) == {0, 1, 2, 3, 4}:
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
