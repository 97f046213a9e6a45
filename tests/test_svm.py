import numpy as np

from featlearn.data import Dataset, cv_masks, kfold
from featlearn.svm import LinearSvmModel, svm_cv, svm_predict, svm_train


class TestSvmCv:
    def test_equal_fold_scores_pick_smaller_C(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-5.0, 0.5, size=(10, 2)), rng.normal(5.0, 0.5, size=(10, 2))])
        y = np.array([-1.0] * 10 + [1.0] * 10)
        folds = kfold(np.arange(20), Dataset.from_arrays(X, (y > 0).astype(int)), 5, seed=0)
        grid = [10.0, 0.1, 1.0]
        for train, val in cv_masks(20, folds):
            for C in grid:
                model = svm_train(X[train], y[train], C)
                assert np.all(svm_predict(model, X[val]) == y[val])
        assert svm_cv(X, y, folds, grid) == 0.1


class TestSvmPredict:
    def test_zero_decision_value_maps_to_plus_one(self):
        model = LinearSvmModel(w=np.array([1.0, -1.0]), bias=0.5, C=1.0)
        # decision values 0, 0, -0.5 and 2.5, each exact in floating point
        X = np.array([[0.0, 0.5], [1.0, 1.5], [-1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(svm_predict(model, X), [1, 1, -1, 1])
