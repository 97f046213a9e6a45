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
        stats = _t([[0.0], [2.0]], [[1.0], [3.0]])
        assert stats.t[0] == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-12)

    def test_matches_welch_reference(self):
        rng = np.random.default_rng(0)
        x0, x1 = rng.normal(size=(12, 6)), rng.normal(0.5, 2.0, size=(17, 6))
        got = _t(x0, x1).t
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
        stats = _t(x, x)
        np.testing.assert_array_equal(stats.t, np.zeros(3))

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        x0, x1 = rng.normal(size=(9, 4)), rng.normal(1.0, 1.0, size=(11, 4))
        base = _t(x0, x1).t
        scaled = _t(x0 * 7.0, x1 * 7.0).t
        np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_location_invariance(self):
        rng = np.random.default_rng(3)
        x0, x1 = rng.normal(size=(9, 4)), rng.normal(1.0, 1.0, size=(11, 4))
        base = _t(x0, x1).t
        shifted = _t(x0 + 5.0, x1 + 5.0).t
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_antisymmetry_under_label_swap(self):
        rng = np.random.default_rng(4)
        x0, x1 = rng.normal(size=(9, 4)), rng.normal(1.0, 1.0, size=(11, 4))
        np.testing.assert_array_equal(_t(x0, x1).t, -_t(x1, x0).t)

    def test_order_sorts_t_squared(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(20, 5))
        x1 = rng.normal(size=(20, 5)) + np.array([0.0, 2.0, -1.0, 0.5, 0.0])
        stats = _t(x0, x1)
        t2 = stats.t[stats.order] ** 2
        assert np.all(np.diff(t2) <= 0)

    def test_both_variances_zero_named(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        with pytest.raises(ValueError, match="feature 0 has zero variance"):
            two_sample_t(X, [0, 0, 1, 1])

    def test_small_class_rejected(self):
        with pytest.raises(ValueError, match="n0=1"):
            two_sample_t([[1.0], [2.0], [3.0]], [0, 1, 1])


class TestSelectTopM:
    def test_m_equals_p(self):
        from featlearn.ttest import TStats
        stats = TStats(t=np.array([3.0, -1.0, 2.0]), order=np.array([0, 2, 1]))
        np.testing.assert_array_equal(select_top_m(stats, 3), [0, 1, 2])

    def test_direct_readoff(self):
        from featlearn.ttest import TStats
        stats = TStats(t=np.array([3.0, -1.0, 2.0]), order=np.array([0, 2, 1]))
        np.testing.assert_array_equal(select_top_m(stats, 2), [0, 2])

    def test_m_out_of_range(self):
        from featlearn.ttest import TStats
        stats = TStats(t=np.array([1.0]), order=np.array([0]))
        with pytest.raises(ValueError):
            select_top_m(stats, 2)
        with pytest.raises(ValueError):
            select_top_m(stats, 0)

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


def _scorer(fit):
    """A ttest_cv scorer from ``fit(X_train, y_train)``, which returns a
    predict function: per (fold, m), the accuracy on the fold's validation
    rows of the fit on its training rows, both cut to the candidate's
    columns."""
    def score(X, labels, folds, candidates):
        return np.array([[np.mean(fit(X[train][:, c[f]], labels[train])(X[val][:, c[f]])
                                  == labels[val]) for c in candidates]
                         for f, (train, val) in enumerate(folds)])
    return score


def _nearest_mean(Xtr, ytr):
    mu0 = Xtr[ytr == 0].mean(axis=0)
    mu1 = Xtr[ytr == 1].mean(axis=0)

    def predict(Xval):
        d0 = ((Xval - mu0) ** 2).sum(axis=1)
        d1 = ((Xval - mu1) ** 2).sum(axis=1)
        return (d1 < d0).astype(int)

    return predict


class TestTtestCv:
    _nearest_mean_scorer = staticmethod(_scorer(_nearest_mean))

    def _folds(self, labels, k=5, seed=0):
        return kfold(labels, k, seed)

    def test_single_candidate(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 4))
        labels = np.array([0, 1] * 10)
        scores = ttest_cv(X, labels, self._folds(labels), [3], self._nearest_mean_scorer)
        assert scores.shape == (5, 1)
        assert _choose([3], scores, min) == 3

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 6))
        labels = np.array([0, 1] * 15)
        folds = self._folds(labels, seed=4)
        a = ttest_cv(X, labels, folds, [1, 3, 6], self._nearest_mean_scorer)
        b = ttest_cv(X, labels, folds, [1, 3, 6], self._nearest_mean_scorer)
        assert a.tobytes() == b.tobytes()
        assert _choose([1, 3, 6], a, min) == _choose([1, 3, 6], b, min)

    def test_columns_follow_candidate_order(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 6))
        labels = np.array([0, 1] * 15)
        folds = self._folds(labels, seed=4)
        scores = ttest_cv(X, labels, folds, [6, 1, 3, 1], self._nearest_mean_scorer)
        in_order = ttest_cv(X, labels, folds, [1, 3, 6], self._nearest_mean_scorer)
        assert scores.tobytes() == in_order[:, [2, 0, 1, 0]].tobytes()

    def test_prefers_support_size_under_heavy_noise(self):
        s = 4
        wins = 0
        for seed in range(100):
            ds = generate_synthetic(SyntheticSpec(30, 30, 0, 40, s, 1.5, 0.0, seed=seed))
            labels = ds.labels
            scores = ttest_cv(ds.features, labels, self._folds(labels, seed=seed),
                              [s, 40], self._nearest_mean_scorer)
            got = _choose([s, 40], scores, min)
            if got == s:
                wins += 1
        assert wins >= 80

    def test_equal_fold_scores_pick_smaller_m(self):
        # a constant predictor scores every m the same on every fold
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 5))
        labels = np.array([0, 1] * 10)
        constant = _scorer(lambda Xtr, ytr: lambda Xval: np.zeros(Xval.shape[0], dtype=int))
        scores = ttest_cv(X, labels, self._folds(labels), [4, 2, 3], constant)
        assert _choose([4, 2, 3], scores, min) == 2

    def test_one_scorer_call_with_every_fold_and_candidate(self):
        """The scorer is called once, with each candidate m's columns per
        fold: the fold's own top-m t ranking, ascending. Its scores are
        ttest_cv's."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 6))
        labels = np.array([0, 1] * 10)
        folds = self._folds(labels, k=5)
        calls = []

        def recording_scorer(X_, labels_, folds_, candidates):
            assert X_ is X and labels_ is labels and folds_ is folds
            calls.append((candidates, self._nearest_mean_scorer(X_, labels_, folds_, candidates)))
            return calls[-1][1]

        scores = ttest_cv(X, labels, folds, [5, 1, 3], recording_scorer)
        [(candidates, returned)] = calls
        assert scores is returned
        assert len(candidates) == 3 and all(len(c) == 5 for c in candidates)
        for f, (train, _) in enumerate(folds):
            stats = two_sample_t(X[train], labels[train])
            assert [c[f].tolist() for c in candidates] == [
                select_top_m(stats, m).tolist() for m in (5, 1, 3)]
            assert all(np.all(np.diff(c[f]) > 0) for c in candidates)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            ttest_cv(np.zeros((4, 2)), np.zeros(4, dtype=int), [], [],
                     self._nearest_mean_scorer)
