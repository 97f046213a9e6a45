import numpy as np
import pytest

from featlearn import svm
from featlearn.data import SyntheticSpec, cv_masks, generate_synthetic, kfold
from featlearn.harness import ExperimentConfig, _make_split, _RepeatFits
from featlearn.pca import pca_fit, pca_transform
from featlearn.svm import LinearSvmModel, svm_cv, svm_predict, svm_train, svm_train_block
from featlearn.ttest import select_top_m, two_sample_t
from svm_reference import averaged_subgradient, per_c_cv


def _problem(seed, n0=60, n1=75, p=56):
    """Standardized adni-like rows with +/-1 labels, and the 0/1 labels."""
    ds = generate_synthetic(SyntheticSpec(n0, n1, 0, p, 6, 0.8, 0.2, seed=seed))
    X = (ds.features - ds.features.mean(axis=0)) / ds.features.std(axis=0)
    return X, 2.0 * ds.labels - 1.0, ds.labels


def _adni_folds(seed, k):
    """One adni-like repeat's standardized training rows, +/-1 labels and
    k inner folds, as the harness makes them: at k=3 the folds train on
    171, 172 and 173 rows, at k=10 on 231, 232 and 233."""
    ds = generate_synthetic(SyntheticSpec.adni_like(seed))
    cfg = ExperimentConfig(k=k)
    _, Xtr, ytr01, folds = _RepeatFits(ds, _make_split(ds, cfg, seed), [], cfg, seed)._train
    return np.asarray(Xtr), 2.0 * ytr01 - 1.0, folds


def _pca_stack(X, y, trains, r_max):
    """Each training mask's PCA scores and labels, stacked; the masks must
    select equally many rows."""
    S = np.stack([pca_transform(pca_fit(X[train], r_max), X[train]) for train in trains])
    return S, np.stack([y[train] for train in trains])


def _assert_matches_reference(groups, tol, max_epochs):
    models = svm_train_block(groups, tol=tol, max_epochs=max_epochs)
    problems = [(X if np.ndim(X) == 2 else X[i], y if np.ndim(y) == 1 else y[i], C)
                for X, y, Cs in groups for i, C in enumerate(Cs)]
    assert len(models) == len(problems)
    for (X, y, C), got in zip(problems, models):
        want = averaged_subgradient(X, y, C, tol=tol, max_epochs=max_epochs)
        assert got.w.tobytes() == want.w.tobytes()
        assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
        assert (got.C, got.epochs, got.converged) == (want.C, want.epochs, want.converged)
    return models


class _RecordingNumpy:
    """numpy, except that every np.matmul call's operands are recorded."""

    def __init__(self):
        self.matmul_operands = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.matmul_operands.append((a, b))
        return np.matmul(a, b, **kwargs)


class TestSvmTrainBlock:
    """Each model of a block is bit-equal to the one-problem reference."""

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_x_over_default_c_grid(self, seed):
        X, y, _ = _problem(seed)
        _assert_matches_reference([(X, y, ExperimentConfig().c_grid)], 1e-6, 150)

    @pytest.mark.parametrize("seed", range(3))
    def test_ttest_column_subsets(self, seed):
        X, y, labels = _problem(seed)
        stats = two_sample_t(X, labels)
        groups = [(X[:, select_top_m(stats, m)], y, [1.0]) for m in ExperimentConfig().ttest_grid]
        _assert_matches_reference(groups, 1e-6, 150)

    @pytest.mark.parametrize("seed", range(3))
    def test_pca_prefix_views(self, seed):
        X, y, _ = _problem(seed)
        S = pca_transform(pca_fit(X, 40), X)
        groups = [(S[:, :r], y, [1.0]) for r in ExperimentConfig().pca_grid]
        assert not groups[0][0].flags.c_contiguous
        _assert_matches_reference(groups, 1e-6, 150)

    @pytest.mark.parametrize("k", [3, 10])
    def test_folds_with_unequal_row_counts(self, k):
        """Every fold of an adni-like repeat in one block, its own rows and
        labels per problem, one C grid per fold."""
        X, y, folds = _adni_folds(0, k)
        groups = [(X[train], y[train], ExperimentConfig().c_grid)
                  for train, _ in cv_masks(len(y), folds)]
        assert len({len(g[1]) for g in groups}) == 3
        _assert_matches_reference(groups, 1e-6, 150)

    @pytest.mark.parametrize("k", [3, 10])
    def test_stacked_prefix_views_of_equal_row_count_folds(self, k):
        """The PCA search's layout: per row count a stack of fold scores, one
        group per r whose operand is the stack's [:, :, :r] prefix view."""
        X, y, folds = _adni_folds(1, k)
        trains = [train for train, _ in cv_masks(len(y), folds)]
        groups = []
        for n in sorted({int(t.sum()) for t in trains}):
            S, Y = _pca_stack(X, y, [t for t in trains if t.sum() == n], 40)
            groups += [(S[:, :, :r], Y, [1.0] * len(S)) for r in ExperimentConfig().pca_grid]
        _assert_matches_reference(groups, 1e-6, 150)

    @pytest.mark.parametrize("Cs, converged", [
        ([1.0, 0.01, 1.0], [False, True, False]),
        ([0.01, 0.02, 0.1], [True, True, True]),  # each at its own epoch
    ], ids=["middle-retires-early", "all-converge-before-the-cap"])
    def test_retiring_keeps_every_operand_layout(self, monkeypatch, Cs, converged):
        """Problems of one stack retire at different epochs. Each model is
        still the reference's, every matrix product reads the stack's own
        view for the whole run, and the block runs until its last problem
        converges or the cap."""
        X, y, folds = _adni_folds(2, 3)
        trains = [train for train, _ in cv_masks(len(y), folds)]
        n = int(trains[0].sum())
        trains = [trains[0]] + [np.roll(trains[0], 7 * i) for i in (1, 2)]
        S, Y = _pca_stack(X, y, trains, 30)
        recording = _RecordingNumpy()
        monkeypatch.setattr(svm, "np", recording)
        models = _assert_matches_reference([(S[:, :, :20], Y, Cs)], 1e-6, 150)
        assert [(m.converged, m.epochs < 150) for m in models] == [(c, c) for c in converged]
        operands = [op for pair in recording.matmul_operands for op in pair
                    if np.shares_memory(op, S)]
        assert {(op.shape, op.strides) for op in operands} == {((3, n, 20), S.strides)}
        # each epoch run makes one margin product, with the stack as its first operand
        epochs_run = sum(np.shares_memory(a, S) for a, _ in recording.matmul_operands)
        assert epochs_run == max(m.epochs for m in models)

    def test_each_w_dot_w_runs_over_its_own_width(self, monkeypatch):
        """A dot product over a zero-padded w rounds differently, and an
        objective a bit off seldom changes a model, so the widths are
        checked where the products are made."""
        X, y, labels = _problem(0)
        stats = two_sample_t(X, labels)
        widths = [1, 2, 2, 7, 30, 30]
        groups = [(X[:, select_top_m(stats, m)], y, [1.0, 0.1]) for m in widths]
        recording = _RecordingNumpy()
        monkeypatch.setattr(svm, "np", recording)
        svm_train_block(groups, tol=1e-6, max_epochs=5)
        dots = [a for a, b in recording.matmul_operands if np.shares_memory(a, b)]
        assert sorted({a.shape[-1] for a in dots}) == sorted(set(widths))
        assert len(dots) == 5 * 4  # per epoch, one per run of equal width

    def test_some_models_retire_early_others_run_out(self):
        X, y, _ = _problem(0)
        models = _assert_matches_reference([(X, y, ExperimentConfig().c_grid)], 1e-6, 150)
        assert models[0].converged and models[0].epochs < 150
        assert not models[-1].converged and models[-1].epochs == 150

    @pytest.mark.parametrize("tol", [0.0, 1e-7])
    def test_single_problem(self, tol):
        X, y, _ = _problem(1)
        (model,) = _assert_matches_reference([(X, y, [1.0])], tol, 600)
        if tol == 0.0:
            assert (model.epochs, model.converged) == (600, False)
        same = svm_train(X, y, 1.0, tol=tol, max_epochs=600)
        assert same.w.tobytes() == model.w.tobytes() and same.bias == model.bias

    def test_one_epoch(self):
        X, y, _ = _problem(2, 10, 12, 8)
        _assert_matches_reference([(X, y, [0.5]), (X[:, :2], y, [3.0])], 1e-6, 1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_epochs": 0}, "max_epochs must be >= 1"),
        ({"groups": [(np.ones((2, 4, 2)), [-1.0, 1.0, -1.0, 1.0], [1.0, 2.0, 3.0])]},
         "need one C per problem"),
        ({"groups": [(np.eye(4), [[-1.0, 1.0, -1.0, 1.0]] * 3, [1.0, 2.0])]},
         "need one C per problem"),
        ({"groups": [(np.ones((3, 2)), [-1.0, 1.0, -1.0, 1.0], [1.0])]},
         "every problem must have 4 rows"),
        ({"groups": [(np.eye(4), [-1.0, 1.0, -1.0, 1.0], [1.0, 0.0])]}, "C must be > 0"),
        ({"groups": []}, "need at least one problem"),
        ({"groups": [(np.eye(4), [0.0, 1.0, 0.0, 1.0], [1.0])]}, r"labels must be -1 or \+1"),
        ({"groups": [(np.eye(4), [[-1.0, 1.0, -1.0, 1.0], [1.0] * 4], [1.0, 1.0])]},
         "both classes must be present"),
    ])
    def test_bad_block_rejected(self, kwargs, message):
        y = [-1.0, 1.0, -1.0, 1.0]
        args = {"groups": [(np.eye(4), y, [1.0, 2.0]), (np.eye(4)[:, :2], y, [1.0])], **kwargs}
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

    @pytest.mark.parametrize("k", [3, 10])
    def test_matches_per_c_reference_on_unequal_folds(self, k):
        X, y, folds = _adni_folds(3, k)
        grid = ExperimentConfig().c_grid
        assert svm_cv(X, y, folds, grid, 1e-6, 150) == per_c_cv(X, y, folds, grid, 1e-6, 150)


class TestSvmPredict:
    def test_zero_decision_value_maps_to_plus_one(self):
        model = LinearSvmModel(w=np.array([1.0, -1.0]), bias=0.5, C=1.0)
        # decision values 0, 0, -0.5 and 2.5, each exact in floating point
        X = np.array([[0.0, 0.5], [1.0, 1.5], [-1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(svm_predict(model, X), [1, 1, -1, 1])
