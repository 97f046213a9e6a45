import re

import numpy as np
import pytest

from featlearn.data import SyntheticSpec, generate_synthetic, kfold
from featlearn.harness import _choose
from featlearn.ttest import select_top_m, ttest_cv, two_sample_t


def _t(x0, x1):
    """two_sample_t over the rows of x0 (class 0) stacked on those of x1."""
    x0, x1 = np.atleast_2d(np.asarray(x0, float).T).T, np.atleast_2d(np.asarray(x1, float).T).T
    labels = [0] * x0.shape[0] + [1] * x1.shape[0]
    return two_sample_t(np.vstack([x0, x1]), labels)


class TestTwoSampleT:
    def test_hand_value(self):
        # class0 {0,2}, class1 {1,3}: T = (1-2)/sqrt(2/2 + 2/2) = -1/sqrt(2)
        t = _t([[0.0], [2.0]], [[1.0], [3.0]])
        assert t[0] == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-12)

    def test_matches_welch_reference(self):
        rng = np.random.default_rng(0)
        x0, x1 = rng.normal(size=(12, 6)), rng.normal(0.5, 2.0, size=(17, 6))
        got = _t(x0, x1)
        # Welch's statistic: (mean0 - mean1) / sqrt(s0^2 / n0 + s1^2 / n1),
        # with the unbiased (ddof = 1) variances s0^2 and s1^2
        n0, n1 = x0.shape[0], x1.shape[0]
        m0, m1 = x0.sum(axis=0) / n0, x1.sum(axis=0) / n1
        v0 = ((x0 - m0) ** 2).sum(axis=0) / (n0 - 1)
        v1 = ((x1 - m1) ** 2).sum(axis=0) / (n1 - 1)
        expected = (m0 - m1) / np.sqrt(v0 / n0 + v1 / n1)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_identical_classes_zero(self):
        x = np.random.default_rng(1).normal(size=(8, 3))
        np.testing.assert_array_equal(_t(x, x), np.zeros(3))

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        x0, x1 = rng.normal(size=(9, 4)), rng.normal(1.0, 1.0, size=(11, 4))
        base = _t(x0, x1)
        scaled = _t(x0 * 7.0, x1 * 7.0)
        np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_location_invariance(self):
        rng = np.random.default_rng(3)
        x0, x1 = rng.normal(size=(9, 4)), rng.normal(1.0, 1.0, size=(11, 4))
        base = _t(x0, x1)
        shifted = _t(x0 + 5.0, x1 + 5.0)
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_antisymmetry_under_label_swap(self):
        rng = np.random.default_rng(4)
        x0, x1 = rng.normal(size=(9, 4)), rng.normal(1.0, 1.0, size=(11, 4))
        np.testing.assert_array_equal(_t(x0, x1), -_t(x1, x0))

    def test_order_sorts_t_squared(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(20, 5))
        x1 = rng.normal(size=(20, 5)) + np.array([0.0, 2.0, -1.0, 0.5, 0.0])
        t = _t(x0, x1)
        t2 = t * t
        for m in range(1, 5):
            top = select_top_m(t, m)
            assert t2[top].min() >= np.delete(t2, top).max()

    def test_both_variances_zero_named(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        with pytest.raises(ValueError, match="feature 0 has zero variance"):
            two_sample_t(X, [0, 0, 1, 1])

    @pytest.mark.parametrize("bad", [0.7, 2])
    def test_labels_other_than_0_1_rejected(self, bad):
        # a row labeled neither 0 nor 1 would otherwise join neither class
        X = np.random.default_rng(0).normal(size=(6, 2))
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            two_sample_t(X, [0, 0, 0, 1, 1, bad])

    def test_small_class_rejected(self):
        with pytest.raises(ValueError, match="n0=1"):
            two_sample_t([[1.0], [2.0], [3.0]], [0, 1, 1])

    @pytest.mark.parametrize("X, labels, message", [
        (np.ones((6, 2)), [0, 0, 0, 1, 1], "labels must have shape (6,), got (5,)"),
        (np.ones((6, 2)), [0, 0, 0, 1, 1, 1, 1], "labels must have shape (6,), got (7,)"),
        (np.arange(6.0), [0, 0, 0, 1, 1, 1], "X must be 2-D, got shape (6,)"),
    ], ids=["labels-short", "labels-long", "x-1-d"])
    def test_mismatched_shapes_rejected(self, X, labels, message):
        """Labels of another length than X's rows, or a 1-D X, are refused by
        name: not an IndexError, nor a scalar statistic."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            two_sample_t(X, labels)


class TestSelectTopM:
    def test_m_equals_p(self):
        np.testing.assert_array_equal(select_top_m(np.array([3.0, -1.0, 2.0]), 3), [0, 1, 2])

    def test_direct_readoff(self):
        np.testing.assert_array_equal(select_top_m(np.array([3.0, -1.0, 2.0]), 2), [0, 2])

    def test_exact_tie_goes_to_the_lower_index(self):
        np.testing.assert_array_equal(select_top_m(np.array([1.0, -2.0, 2.0]), 1), [1])

    def test_t_other_than_1_d_rejected(self):
        with pytest.raises(ValueError, match=r"^t must be 1-D, got shape \(2, 2\)$"):
            select_top_m(np.ones((2, 2)), 1)

    def test_m_out_of_range(self):
        t = np.array([1.0])
        with pytest.raises(ValueError):
            select_top_m(t, 2)
        with pytest.raises(ValueError):
            select_top_m(t, 0)

    @pytest.mark.parametrize("m", [True, 2.5, "2"])
    def test_m_must_be_an_integer(self, m):
        """A bool or a non-integer is refused by name, not read as an integer."""
        with pytest.raises(ValueError, match=f"^m must be an integer, got {re.escape(repr(m))}$"):
            select_top_m(np.array([3.0, -1.0, 2.0]), m)
        assert select_top_m(np.array([3.0, -1.0, 2.0]), np.int64(2)).tolist() == [0, 2]

    def test_invariant_to_permuting_unselected_columns(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(30, 6))
        x1 = rng.normal(size=(30, 6))
        x1[:, [1, 4]] += 3.0  # two strong features
        base = select_top_m(_t(x0, x1), 2)
        perm = np.array([0, 1, 5, 3, 4, 2])  # swaps only unselected columns
        got = select_top_m(_t(x0[:, perm], x1[:, perm]), 2)
        expected = np.sort([int(np.argmax(perm == j)) for j in base])
        np.testing.assert_array_equal(got, expected)


def _scores(fit, X, labels, folds, candidate_ms):
    """The t-test search's (fold, m) scores with another classifier in place
    of the SVM: the validation accuracy of ``fit(X_train, y_train)``, which
    returns a predict function, on the fold's columns from ``ttest_cv``."""
    candidates = ttest_cv(X, labels, folds, candidate_ms)
    return np.array([[np.mean(fit(X[train][:, c[f]], labels[train])(X[val][:, c[f]])
                              == labels[val]) for c in candidates]
                     for f, (train, val) in enumerate(folds)])


def _nearest_mean(Xtr, ytr):
    mu0 = Xtr[ytr == 0].mean(axis=0)
    mu1 = Xtr[ytr == 1].mean(axis=0)

    def predict(Xval):
        d0 = ((Xval - mu0) ** 2).sum(axis=1)
        d1 = ((Xval - mu1) ** 2).sum(axis=1)
        return (d1 < d0).astype(int)

    return predict


class TestTtestCv:
    def _folds(self, labels, k=5, seed=0):
        return kfold(labels, k, seed)

    def test_single_candidate(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 4))
        labels = np.array([0, 1] * 10)
        candidates = ttest_cv(X, labels, self._folds(labels), [3])
        assert len(candidates) == 1 and len(candidates[0]) == 5
        assert all(c.shape == (3,) for c in candidates[0])
        scores = _scores(_nearest_mean, X, labels, self._folds(labels), [3])
        assert scores.shape == (5, 1)
        assert _choose([3], scores, min) == 3

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 6))
        labels = np.array([0, 1] * 15)
        folds = self._folds(labels, seed=4)
        a = ttest_cv(X, labels, folds, [1, 3, 6])
        b = ttest_cv(X, labels, folds, [1, 3, 6])
        assert [[c.tobytes() for c in m] for m in a] == [[c.tobytes() for c in m] for m in b]
        sa = _scores(_nearest_mean, X, labels, folds, [1, 3, 6])
        sb = _scores(_nearest_mean, X, labels, folds, [1, 3, 6])
        assert sa.tobytes() == sb.tobytes()
        assert _choose([1, 3, 6], sa, min) == _choose([1, 3, 6], sb, min)

    def test_columns_follow_candidate_order(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 6))
        labels = np.array([0, 1] * 15)
        folds = self._folds(labels, seed=4)
        candidates = ttest_cv(X, labels, folds, [6, 1, 3, 1])
        in_order = ttest_cv(X, labels, folds, [1, 3, 6])
        assert ([[c.tolist() for c in m] for m in candidates]
                == [[c.tolist() for c in in_order[i]] for i in [2, 0, 1, 0]])
        scores = _scores(_nearest_mean, X, labels, folds, [6, 1, 3, 1])
        in_order = _scores(_nearest_mean, X, labels, folds, [1, 3, 6])
        assert scores.tobytes() == in_order[:, [2, 0, 1, 0]].tobytes()

    def test_prefers_support_size_under_heavy_noise(self):
        s = 4
        wins = 0
        for seed in range(100):
            ds = generate_synthetic(SyntheticSpec(30, 30, 0, 40, s, 1.5, 0.0, seed=seed))
            labels = ds.labels
            scores = _scores(_nearest_mean, ds.features, labels,
                             self._folds(labels, seed=seed), [s, 40])
            got = _choose([s, 40], scores, min)
            if got == s:
                wins += 1
        assert wins >= 80

    def test_equal_fold_scores_pick_smaller_m(self):
        # a constant predictor scores every m the same on every fold
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 5))
        labels = np.array([0, 1] * 10)
        def constant(Xtr, ytr):
            return lambda Xval: np.zeros(Xval.shape[0], dtype=int)
        scores = _scores(constant, X, labels, self._folds(labels), [4, 2, 3])
        assert _choose([4, 2, 3], scores, min) == 2

    def test_each_entry_is_the_folds_own_top_m(self):
        """Entry [i][f] is fold f's top ms[i] columns of the t ranking on its
        own training rows, ascending."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 6))
        labels = np.array([0, 1] * 10)
        folds = self._folds(labels, k=5)
        candidates = ttest_cv(X, labels, folds, [5, 1, 3])
        assert len(candidates) == 3 and all(len(c) == 5 for c in candidates)
        for f, (train, _) in enumerate(folds):
            t = two_sample_t(X[train], labels[train])
            assert [c[f].tolist() for c in candidates] == [
                select_top_m(t, m).tolist() for m in (5, 1, 3)]
            assert all(np.all(np.diff(c[f]) > 0) for c in candidates)

    @pytest.mark.parametrize("m", [0, 5])
    def test_m_out_of_range_rejected(self, m):
        labels = np.array([0, 1] * 10)
        X = np.random.default_rng(0).normal(size=(20, 4))
        with pytest.raises(ValueError):  # select_top_m's refusal
            ttest_cv(X, labels, self._folds(labels), [2, m])

    @pytest.mark.parametrize("bad", [0.7, 2])
    def test_labels_other_than_0_1_rejected(self, bad):
        labels = np.array([0, 1] * 10)
        folds = self._folds(labels)
        X = np.random.default_rng(0).normal(size=(20, 4))
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            ttest_cv(X, np.where(np.arange(20) == 3, bad, labels), folds, [2])

    def test_labels_of_another_length_rejected(self):
        labels = np.array([0, 1] * 10)
        X = np.random.default_rng(0).normal(size=(20, 4))
        with pytest.raises(ValueError, match=r"^labels must have shape \(19,\), got \(20,\)$"):
            ttest_cv(X[:19], labels, self._folds(labels), [2])

    @pytest.mark.parametrize("ms", [[2.5], [True], [2, "3"]])
    def test_candidate_ms_must_be_integers(self, ms):
        """A bool or a non-integer m is refused by name, not ranked as int(m)."""
        labels = np.array([0, 1] * 10)
        X = np.random.default_rng(0).normal(size=(20, 4))
        folds = self._folds(labels)
        with pytest.raises(ValueError,
                           match=f"^candidate_ms must be integers, got {re.escape(repr(ms))}$"):
            ttest_cv(X, labels, folds, ms)
        got = ttest_cv(X, labels, folds, [np.int64(2)])
        assert [c.tolist() for c in got[0]] == [c.tolist() for c in ttest_cv(X, labels, folds, [2])[0]]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            ttest_cv(np.zeros((4, 2)), np.zeros(4, dtype=int), [], [])
