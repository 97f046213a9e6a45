import numpy as np
import pytest

from featlearn.data import SyntheticSpec, cv_masks, generate_synthetic, kfold
from featlearn.harness import ExperimentConfig
from featlearn.pca import pca_fit, pca_transform
from featlearn.svm import LinearSvmModel, svm_cv, svm_predict, svm_train, svm_train_block
from featlearn.ttest import select_top_m, two_sample_t
from svm_reference import averaged_subgradient, per_c_cv


def _problem(seed, n0=60, n1=75, p=56):
    """Standardized adni-like rows with +/-1 labels, and the 0/1 labels."""
    ds = generate_synthetic(SyntheticSpec(n0, n1, 0, p, 6, 0.8, 0.2, seed=seed))
    X = (ds.features - ds.features.mean(axis=0)) / ds.features.std(axis=0)
    return X, 2.0 * ds.labels - 1.0, ds.labels


def _assert_matches_reference(Xs, y, Cs, tol, max_epochs):
    models = svm_train_block(Xs, y, Cs, tol=tol, max_epochs=max_epochs)
    assert len(models) == len(Xs)
    for X, C, got in zip(Xs, Cs, models):
        want = averaged_subgradient(X, y, C, tol=tol, max_epochs=max_epochs)
        assert got.w.tobytes() == want.w.tobytes()
        assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
        assert (got.C, got.epochs, got.converged) == (want.C, want.epochs, want.converged)
    return models


class TestSvmTrainBlock:
    """Each model of a block is bit-equal to the one-problem reference."""

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_x_over_default_c_grid(self, seed):
        X, y, _ = _problem(seed)
        _assert_matches_reference([X] * 5, y, ExperimentConfig().c_grid, 1e-6, 150)

    @pytest.mark.parametrize("seed", range(3))
    def test_ttest_column_subsets(self, seed):
        X, y, labels = _problem(seed)
        stats = two_sample_t(X, labels)
        Xs = [X[:, select_top_m(stats, m)] for m in ExperimentConfig().ttest_grid]
        _assert_matches_reference(Xs, y, [1.0] * len(Xs), 1e-6, 150)

    @pytest.mark.parametrize("seed", range(3))
    def test_pca_prefix_views(self, seed):
        X, y, _ = _problem(seed)
        S = pca_transform(pca_fit(X, 40), X)
        Xs = [S[:, :r] for r in ExperimentConfig().pca_grid]
        assert not Xs[0].flags.c_contiguous
        _assert_matches_reference(Xs, y, [1.0] * len(Xs), 1e-6, 150)

    def test_some_models_retire_early_others_run_out(self):
        X, y, _ = _problem(0)
        models = _assert_matches_reference([X] * 5, y, ExperimentConfig().c_grid, 1e-6, 150)
        assert models[0].converged and models[0].epochs < 150
        assert not models[-1].converged and models[-1].epochs == 150

    @pytest.mark.parametrize("tol", [0.0, 1e-7])
    def test_single_problem(self, tol):
        X, y, _ = _problem(1)
        (model,) = _assert_matches_reference([X], y, [1.0], tol, 600)
        if tol == 0.0:
            assert (model.epochs, model.converged) == (600, False)
        same = svm_train(X, y, 1.0, tol=tol, max_epochs=600)
        assert same.w.tobytes() == model.w.tobytes() and same.bias == model.bias

    def test_one_epoch(self):
        X, y, _ = _problem(2, 10, 12, 8)
        _assert_matches_reference([X, X[:, :2]], y, [0.5, 3.0], 1e-6, 1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_epochs": 0}, "max_epochs must be >= 1"),
        ({"Xs": []}, "need one C per problem"),
        ({"Cs": [1.0]}, "need one C per problem"),
        ({"Xs": [np.ones((4, 2)), np.ones((3, 2))]}, "every problem must have 4 rows"),
        ({"Cs": [1.0, 0.0]}, "C must be > 0"),
    ])
    def test_bad_block_rejected(self, kwargs, message):
        args = {"Xs": [np.eye(4), np.eye(4)[:, :2]], "labels": [-1.0, 1.0, -1.0, 1.0],
                "Cs": [1.0, 2.0], **kwargs}
        with pytest.raises(ValueError, match=message):
            svm_train_block(**args)


class TestSvmCv:
    def test_equal_fold_scores_pick_smaller_C(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-5.0, 0.5, size=(10, 2)), rng.normal(5.0, 0.5, size=(10, 2))])
        y = np.array([-1.0] * 10 + [1.0] * 10)
        folds = kfold((y > 0).astype(int), 5, seed=0)
        grid = [10.0, 0.1, 1.0]
        for train, val in cv_masks(20, folds):
            for C in grid:
                model = svm_train(X[train], y[train], C)
                assert np.all(svm_predict(model, X[val]) == y[val])
        assert svm_cv(X, y, folds, grid) == 0.1

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_c_reference(self, seed):
        X, y, labels = _problem(seed, 30, 36, 12)
        folds = kfold(labels, 5, seed=seed)
        grid = ExperimentConfig().c_grid
        assert svm_cv(X, y, folds, grid, 1e-6, 150) == per_c_cv(X, y, folds, grid, 1e-6, 150)


class TestSvmPredict:
    def test_zero_decision_value_maps_to_plus_one(self):
        model = LinearSvmModel(w=np.array([1.0, -1.0]), bias=0.5, C=1.0)
        # decision values 0, 0, -0.5 and 2.5, each exact in floating point
        X = np.array([[0.0, 0.5], [1.0, 1.5], [-1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(svm_predict(model, X), [1, 1, -1, 1])
