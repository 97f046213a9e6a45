import re
import weakref
from unittest import mock

import numpy as np
import pytest

from featlearn import svm
from featlearn.data import SyntheticSpec, generate_synthetic, kfold
from featlearn.harness import ExperimentConfig, _checked_split, _choose, _RepeatFits
from featlearn.pca import pca_fit, pca_transform
from featlearn.svm import LinearSvmModel, accuracy, svm_cv, svm_predict, svm_train
from featlearn.ttest import select_top_m, ttest_cv, two_sample_t
from svm_reference import per_c_cv, subgradient_descent, svm_objective


def _problem(seed, n0=60, n1=75, p=56):
    """Standardized adni-like rows and their 0/1 labels."""
    ds = generate_synthetic(SyntheticSpec(n0, n1, 0, p, 6, 0.8, 0.2, seed=seed))
    X = (ds.features - ds.features.mean(axis=0)) / ds.features.std(axis=0)
    return X, ds.labels


def _adni_folds(seed, k):
    """One adni-like repeat's standardized training rows, 0/1 labels and
    k inner folds, as the harness makes them: at k=3 the folds train on
    171, 172 and 173 rows, at k=10 on 231, 232 and 233."""
    ds = generate_synthetic(SyntheticSpec.adni_like(seed))
    cfg = ExperimentConfig(k=k)
    _, Xtr, ytr01, folds = _RepeatFits(ds, _checked_split(ds, [], cfg, seed), cfg, seed)._train
    return np.asarray(Xtr), ytr01, folds


def _pca_stack(X, y, trains, r_max):
    """Each training mask's PCA scores and labels, stacked; the masks must
    select equally many rows."""
    S = np.stack([pca_transform(pca_fit([X[train]], r_max)[0], X[train]) for train in trains])
    return S, np.stack([y[train] for train in trains])


def _single(X, y, Cs):
    """One (n, q) problem's group: the (1, n, q) view of X and (1, n) labels."""
    return X[None], np.asarray(y)[None], Cs


def _assert_matches_reference(groups, tol, max_epochs):
    models = svm_train(groups, tol=tol, max_epochs=max_epochs)
    problems = [(x, yy, C) for X, y, Cs in groups for x, yy in zip(X, y) for C in Cs]
    assert len(models) == len(problems)
    for (X, y, C), got in zip(problems, models):
        want = subgradient_descent(X, 2.0 * np.asarray(y) - 1.0, C, tol=tol,
                                   max_epochs=max_epochs)
        assert got.w.tobytes() == want.w.tobytes()
        assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
        assert (got.C, got.epochs, got.converged) == (want.C, want.epochs, want.converged)
    return models


class _RecordingNumpy:
    """numpy, except that every np.matmul call's operands and ``out`` are
    recorded."""

    def __init__(self):
        self.matmul_operands = []
        self.matmul_outs = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.matmul_operands.append((a, b))
        self.matmul_outs.append(kwargs.get("out"))
        return np.matmul(a, b, **kwargs)


def _ttest_groups(X, y, folds, grid):
    """The t-test search's layout: per training row count and m, a stack of
    each fold's own top-m columns (copies, ascending) and one C."""
    cols = [[select_top_m(two_sample_t(X[train], y[train]), m) for m in grid]
            for train, _ in folds]
    groups = []
    for n in sorted({int(train.sum()) for train, _ in folds}):
        fs = [f for f, (train, _) in enumerate(folds) if train.sum() == n]
        Y = np.stack([y[folds[f][0]] for f in fs])
        for i, m in enumerate(grid):
            S = np.stack([X[folds[f][0]][:, cols[f][i]] for f in fs])
            assert S.shape == (len(fs), n, m)
            groups.append((S, Y, [1.0]))
    return groups


class TestSvmTrainBlock:
    """Each model of a block is bit-equal to the one-problem reference."""

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_x_over_default_c_grid(self, seed):
        X, y = _problem(seed)
        _assert_matches_reference([_single(X, y, ExperimentConfig().c_grid)], 1e-6, 150)

    @pytest.mark.parametrize("seed", range(3))
    def test_ttest_column_subsets(self, seed):
        X, y = _problem(seed)
        t = two_sample_t(X, y)
        groups = [_single(X[:, select_top_m(t, m)], y, [1.0]) for m in ExperimentConfig().ttest_grid]
        _assert_matches_reference(groups, 1e-6, 150)

    @pytest.mark.parametrize("seed", range(3))
    def test_pca_prefix_views(self, seed):
        X, y = _problem(seed)
        S = pca_transform(pca_fit([X], 40)[0], X)
        groups = [_single(S[:, :r], y, [1.0]) for r in ExperimentConfig().pca_grid]
        assert not groups[0][0].flags.c_contiguous
        _assert_matches_reference(groups, 1e-6, 150)

    @pytest.mark.parametrize("k", [3, 10])
    def test_folds_with_unequal_row_counts(self, k):
        """Every fold of an adni-like repeat in one block, its own rows and
        labels per problem, one C grid per fold."""
        X, y, folds = _adni_folds(0, k)
        groups = [_single(X[train], y[train], ExperimentConfig().c_grid)
                  for train, _ in folds]
        assert len({g[1].shape[1] for g in groups}) == 3
        _assert_matches_reference(groups, 1e-6, 150)

    @pytest.mark.parametrize("k", [3, 10])
    def test_stacked_prefix_views_of_equal_row_count_folds(self, k):
        """The PCA search's layout: per row count a stack of fold scores, one
        group per r whose operand is the stack's [:, :, :r] prefix view."""
        X, y, folds = _adni_folds(1, k)
        trains = [train for train, _ in folds]
        groups = []
        for n in sorted({int(t.sum()) for t in trains}):
            S, Y = _pca_stack(X, y, [t for t in trains if t.sum() == n], 40)
            groups += [(S[:, :, :r], Y, [1.0]) for r in ExperimentConfig().pca_grid]
        _assert_matches_reference(groups, 1e-6, 150)

    @pytest.mark.parametrize("k", [3, 10])
    def test_stacked_column_subsets_of_equal_row_count_folds(self, k):
        """The t-test search's layout: per row count, one stack per m of
        each fold's own column subset, all trained at C = 1."""
        X, y, folds = _adni_folds(4, k)
        groups = _ttest_groups(X, y, folds, ExperimentConfig().ttest_grid)
        assert len(groups) == 3 * len(ExperimentConfig().ttest_grid)
        _assert_matches_reference(groups, 1e-6, 150)

    @pytest.mark.parametrize("k", [3, 10])
    def test_stacked_folds_times_the_c_grid(self, k):
        """The C search's layout: per row count, a stack of the folds'
        training rows, each trained at every C."""
        X, y, folds = _adni_folds(5, k)
        groups = []
        for n in sorted({int(train.sum()) for train, _ in folds}):
            trains = [train for train, _ in folds if train.sum() == n]
            groups.append((np.stack([X[t] for t in trains]), np.stack([y[t] for t in trains]),
                           ExperimentConfig().c_grid))
        models = _assert_matches_reference(groups, 1e-6, 150)
        assert len(models) == k * len(ExperimentConfig().c_grid)

    def test_products_act_on_views(self, monkeypatch):
        """Every matrix product of an epoch reads and writes views: the
        (f, |Cs|) splits of the block's w, margin, work and gradient rows
        are written through ``out=``, so a copy would lose the result. Every
        margin and gradient product is an (f, |Cs|, ., .) matmul, a unit
        slice or C axis included."""
        X, y, folds = _adni_folds(6, 10)
        groups = _ttest_groups(X, y, folds, [1, 4, 12])  # f slices x one C
        groups.append(_single(X[folds[0][0]], y[folds[0][0]], [0.1, 1.0]))  # one slice x two Cs
        trains = [train for train, _ in folds if train.sum() == folds[0][0].sum()][:2]
        groups.append((np.stack([X[t] for t in trains]), np.stack([y[t] for t in trains]),
                       [0.1, 1.0, 10.0]))  # two slices x three Cs
        recording = _RecordingNumpy()
        monkeypatch.setattr(svm, "np", recording)
        _assert_matches_reference(groups, 1e-6, 3)
        calls = list(zip(recording.matmul_operands, recording.matmul_outs))
        for (a, b), out in calls:
            assert out is not None
            assert not (a.flags.owndata or b.flags.owndata or out.flags.owndata)
        # per epoch and group, one margin and one gradient product; the w.w
        # products are the products of w with itself
        products = [(a, b, out) for (a, b), out in calls if not np.shares_memory(a, b)]
        assert len(products) == 3 * 2 * len(groups)
        assert all(op.ndim == 4 for product in products for op in product)

    @pytest.mark.parametrize("Cs, converged", [
        ([1.0, 0.01, 1.0], [False, True, False]),
        ([0.01, 0.02], [True, True]),  # at five different epochs
    ], ids=["middle-retires-early", "all-converge-before-the-cap"])
    def test_retiring_keeps_every_operand_layout(self, monkeypatch, Cs, converged):
        """Problems of one stack, each slice at every C, retire at different
        epochs. Each model is still the reference's, every matrix product
        reads the stack's own broadcast view for the whole run, and the
        block runs until its last problem converges or the cap."""
        X, y, folds = _adni_folds(2, 3)
        trains = [train for train, _ in folds]
        n = int(trains[0].sum())
        trains = [trains[0]] + [np.roll(trains[0], 7 * i) for i in (1, 2)]
        S, Y = _pca_stack(X, y, trains, 30)
        recording = _RecordingNumpy()
        monkeypatch.setattr(svm, "np", recording)
        models = _assert_matches_reference([(S[:, :, :20], Y, Cs)], 1e-6, 150)
        # slice-major: each slice's models in Cs order
        assert [(m.converged, m.epochs < 150) for m in models] == [(c, c) for c in converged * 3]
        operands = [op for pair in recording.matmul_operands for op in pair
                    if np.shares_memory(op, S)]
        view = ((3, len(Cs), n, 20), (S.strides[0], 0) + S.strides[1:])  # stride 0 on C
        assert {(op.shape, op.strides) for op in operands} == {view}
        # each epoch run makes one margin product, with the stack as its first operand
        epochs_run = sum(np.shares_memory(a, S) for a, _ in recording.matmul_operands)
        assert epochs_run == max(m.epochs for m in models)

    def test_each_w_dot_w_runs_over_its_own_width(self, monkeypatch):
        """A dot product over a zero-padded w rounds differently, and an
        objective a bit off seldom changes a model, so the widths are
        checked where the products are made."""
        X, y = _problem(0)
        t = two_sample_t(X, y)
        widths = [1, 2, 2, 7, 30, 30]
        groups = [_single(X[:, select_top_m(t, m)], y, [1.0, 0.1]) for m in widths]
        recording = _RecordingNumpy()
        monkeypatch.setattr(svm, "np", recording)
        svm_train(groups, tol=1e-6, max_epochs=5)
        dots = [a for a, b in recording.matmul_operands if np.shares_memory(a, b)]
        assert sorted({a.shape[-1] for a in dots}) == sorted(set(widths))
        assert len(dots) == 5 * 6  # per epoch, one per group

    def test_some_models_retire_early_others_run_out(self):
        X, y = _problem(0)
        models = _assert_matches_reference([_single(X, y, ExperimentConfig().c_grid)], 1e-6, 150)
        assert models[0].converged and models[0].epochs < 150
        assert not models[-1].converged and models[-1].epochs == 150

    @pytest.mark.parametrize("tol", [0.0, 1e-7])
    def test_single_problem(self, tol):
        X, y = _problem(1)
        (model,) = _assert_matches_reference([_single(X, y, [1.0])], tol, 600)
        if tol == 0.0:
            assert (model.epochs, model.converged) == (600, False)
        same, = svm_train([_single(X, y, [1.0])], tol=tol, max_epochs=600)
        assert same.w.tobytes() == model.w.tobytes() and same.bias == model.bias

    def test_returns_the_best_iterate_where_their_mean_scores_lower(self):
        """The mean of this problem's iterates, w = 0.49998 and b = -0.69464,
        has objective 3.8750000003, below every iterate's; the model is the
        best iterate, w = 37/76 and b = -547/840 to rounding, at 3.8750866."""
        X = np.array([[1.0], [3.0], [-0.5], [2.0], [-1.0]])
        y = np.array([1, 0, 0, 1, 0])
        (model,) = _assert_matches_reference([_single(X, y, [1.0])], 1e-6, 150)
        assert (model.epochs, model.converged) == (39, True)
        np.testing.assert_allclose([model.w[0], model.bias], [37 / 76, -547 / 840], rtol=1e-12)
        assert svm_objective(X, y, model.w, model.bias, 1.0) > 3.87508

    @pytest.mark.parametrize("max_epochs, flag", [(39, True), (38, False)])
    def test_converging_on_the_last_allowed_epoch(self, max_epochs, flag):
        """The five-row problem of the best-iterate test converges at epoch 39:
        with that budget it still converged, with one epoch less it stops
        unconverged at the budget."""
        X = np.array([[1.0], [3.0], [-0.5], [2.0], [-1.0]])
        y = np.array([1, 0, 0, 1, 0])
        (model,) = _assert_matches_reference([_single(X, y, [1.0])], 1e-6, max_epochs)
        assert (model.epochs, model.converged) == (max_epochs, flag)

    def test_equal_row_counts_apart_keep_group_order(self):
        """Row counts 7, 6, 7: the two n = 7 groups are not adjacent, and the
        models still come back in group order, each byte-equal to its
        one-problem call."""
        X, y = _problem(3, 10, 12, 8)
        i0, i1 = np.flatnonzero(y == 0), np.flatnonzero(y == 1)
        rows = [np.r_[i0[:3], i1[:4]], np.r_[i0[3:6], i1[4:7]], np.r_[i0[6:10], i1[7:10]]]
        groups = [_single(X[rows[0]], y[rows[0]], [0.5, 2.0]),
                  _single(X[rows[1], :3], y[rows[1]], [1.0]),
                  _single(X[rows[2], :5], y[rows[2]], [0.1, 1.0, 10.0])]
        assert [g[1].shape[1] for g in groups] == [7, 6, 7]
        models = _assert_matches_reference(groups, 1e-6, 150)
        alone = [svm_train([(X_g, y_g, [C])], tol=1e-6, max_epochs=150)[0]
                 for X_g, y_g, Cs in groups for C in Cs]
        assert [m.C for m in models] == [0.5, 2.0, 1.0, 0.1, 1.0, 10.0]
        for got, want in zip(models, alone, strict=True):
            assert got.w.tobytes() == want.w.tobytes()
            assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
            assert (got.epochs, got.converged) == (want.epochs, want.converged)

    def test_one_epoch(self):
        X, y = _problem(2, 10, 12, 8)
        _assert_matches_reference([_single(X, y, [0.5]), _single(X[:, :2], y, [3.0])], 1e-6, 1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_epochs": 0}, "max_epochs must be >= 1"),
        ({"groups": [(np.ones((2, 4, 2)), [[0, 1, 0, 1]] * 3, [1.0, 2.0, 3.0])]},
         r"^labels must have shape \(2, 4\), got \(3, 4\)$"),
        ({"groups": [(np.ones((2, 4, 2)), [0, 1, 0, 1], [1.0])]},
         r"^labels must have shape \(2, 4\), got \(4,\)$"),
        ({"groups": [(np.eye(4), [0, 1, 0, 1], [1.0])]}, ValueError),  # class_labels
        ({"groups": [(np.ones((1, 3, 2)), [[0, 1, 0, 1]], [1.0])]},
         r"^labels must have shape \(1, 3\), got \(1, 4\)$"),
        ({"groups": [(np.ones((1, 1, 4, 2)), [[0, 1, 0, 1]], [1.0])]}, ValueError),
        ({"groups": [(np.eye(4)[None], [[0, 1, 0, 1]], [1.0, 0.0])]}, "C must be > 0"),
        ({"groups": []}, ValueError),  # max() of no row counts
        ({"groups": [(np.eye(4)[None], [[-1.0, 1.0, -1.0, 1.0]], [1.0])]},
         "labels must be 0 or 1"),
        ({"groups": [(np.stack([np.eye(4)] * 2), [[0, 1, 0, 1], [1.0] * 4], [1.0])]},
         "both classes must be present"),
        ({"groups": [(np.eye(4)[None], [[0, 1, 0, 1]], [1.0, np.inf])]},
         "C must be > 0 and finite"),
        ({"groups": [(np.eye(4)[None], [[0, 1, 0, 1]], [np.nan])]}, "C must be > 0 and finite"),
        ({"groups": [(np.eye(4)[None], [[0, 1, 0.5, 1]], [1.0])]}, "labels must be 0 or 1"),
        ({"groups": [(np.eye(4)[None], [[0, 1, np.nan, 1]], [1.0])]}, "labels must be 0 or 1"),
        ({"groups": [(np.eye(4)[None], [[0, 1, 0, 1]], [1.0, 10**400])]},
         f"^Cs must be numbers, got \\[1.0, {10**400}\\]$"),
        ({"tol": np.nan}, "^tol must be >= 0 and finite, got nan$"),
        ({"tol": -1e-6}, "^tol must be >= 0 and finite, got -1e-06$"),
        ({"tol": np.inf}, "^tol must be >= 0 and finite, got inf$"),
        ({"tol": 10**400}, f"^tol must be a number, got {10**400}$"),
        ({"max_epochs": 2.5}, "^max_epochs must be an integer, got 2.5$"),
    ], ids=["max-epochs-0", "label-rows-per-slice", "one-label-vector-for-a-stack",
            "2-d-x", "row-count", "4-d-x", "C-0", "no-groups", "labels-plus-minus-1",
            "one-class", "C-inf", "C-nan", "label-one-half", "label-nan", "C-past-float-range",
            "tol-nan", "tol-negative", "tol-inf", "tol-past-float-range", "max-epochs-float"])
    def test_bad_block_rejected(self, kwargs, message):
        y = [[0, 1, 0, 1]]
        args = {"groups": [(np.eye(4)[None], y, [1.0, 2.0]), (np.eye(4)[None, :, :2], y, [1.0])],
                "tol": 1e-6, "max_epochs": 5, **kwargs}
        typed = isinstance(message, type)  # the refusal of numpy, Python or another check
        with pytest.raises(message if typed else ValueError, match=None if typed else message):
            svm_train(**args)

    @pytest.mark.parametrize("grids", [[[1e308]], [[1.0], [1e308]]],
                             ids=["alone", "beside-C-1"])
    def test_overflowing_objective_raises(self, grids):
        """C = 1e308 is finite, so svm_train accepts it, but the objective's
        C times the hinge sum overflows at once; the whole block raises."""
        X, y = np.array([[1.0], [2.0], [-1.0]]), [1, 1, 0]
        with pytest.raises(ArithmeticError, match="objective non-finite at epoch 1"):
            svm_train([_single(X, y, Cs) for Cs in grids], 1e-6, 150)


def _rows(X, folds):
    """Each fold's (training rows, validation rows) of X, as svm_cv reads them."""
    return ((X[train], X[val]) for train, val in folds)


def _assert_matches_per_c(X, y, folds, grid):
    """svm_cv's accuracies equal per_c_cv's byte for byte, and _choose picks
    per_c_cv's C from them."""
    scores = svm_cv(_rows(X, folds), y, folds, grid, [X.shape[1]], max_epochs=150)
    want_C, want = per_c_cv(X, y, folds, grid, 1e-6, 150)
    assert scores[:, np.argsort(grid, kind="stable")].tobytes() == want.tobytes()
    assert _choose(grid, scores, min) == want_C


class TestSvmCv:
    def test_equal_fold_scores_pick_smaller_C(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-5.0, 0.5, size=(10, 2)), rng.normal(5.0, 0.5, size=(10, 2))])
        y = np.array([0] * 10 + [1] * 10)
        folds = kfold(y, 5, seed=0)
        grid = [10.0, 0.1, 1.0]
        for train, val in folds:
            for C in grid:
                model, = svm_train([_single(X[train], y[train], [C])], 1e-8, 2000)
                assert np.all(svm_predict(model, X[val]) == y[val])
        scores = svm_cv(_rows(X, folds), y, folds, grid, [X.shape[1]], max_epochs=2000)
        assert _choose(grid, scores, min) == 0.1

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_c_reference(self, seed):
        X, y = _problem(seed, 30, 36, 12)
        folds = kfold(y, 5, seed=seed)
        _assert_matches_per_c(X, y, folds, ExperimentConfig().c_grid)

    @pytest.mark.parametrize("k", [3, 10])
    def test_matches_per_c_reference_on_unequal_folds(self, k):
        X, y, folds = _adni_folds(3, k)
        _assert_matches_per_c(X, y, folds, ExperimentConfig().c_grid)

    def test_columns_follow_grid_order(self):
        X, y = _problem(4, 30, 36, 12)
        folds = kfold(y, 5, seed=4)
        grid = [10.0, 0.01, 100.0, 1.0, 0.1, 1.0]
        scores = svm_cv(_rows(X, folds), y, folds, grid, [X.shape[1]], max_epochs=150)
        assert scores.shape == (5, 6)
        in_order = svm_cv(_rows(X, folds), y, folds, sorted(grid), [X.shape[1]], max_epochs=150)
        assert scores[:, np.argsort(grid, kind="stable")].tobytes() == in_order.tobytes()
        _assert_matches_per_c(X, y, folds, grid)


def _pca_fold_features(X, folds, r_max):
    """Each fold's training and validation PCA scores, as the PCA search
    makes them: one PCA per fold, fitted on its training rows."""
    pcas = pca_fit((X[train] for train, _ in folds), r_max)
    return [(pca_transform(m, X[train]), pca_transform(m, X[val]))
            for m, (train, val) in zip(pcas, folds)]


def _assert_candidates_match_reference(monkeypatch, feats, y, folds, Cs, candidates):
    """svm_cv's score and model for each (fold, candidate, C) are byte for
    byte those of subgradient_descent trained on the fold's training
    features cut to the candidate: the strided view X_f[:, :w] for a width
    w, and for an index candidate the copy X_f[:, cols[f]] in C order, as
    its stack holds it (numpy's own copy is in Fortran order, which rounds
    differently). Returns the groups that svm_cv passed to svm_train."""
    predicted, blocks = {}, []

    def recording_predict(model, X):
        predicted[X.shape, np.ascontiguousarray(X).tobytes(), model.C] = model
        return svm_predict(model, X)

    def recording_train(groups, *args):
        blocks.append(groups)
        return svm_train(groups, *args)

    monkeypatch.setattr(svm, "svm_predict", recording_predict)
    monkeypatch.setattr(svm, "svm_train", recording_train)
    scores = svm_cv(iter(feats), y, folds, Cs, candidates, max_epochs=150)
    want = np.empty((len(folds), len(candidates) * len(Cs)))
    for f, ((X_tr, X_val), (train, val)) in enumerate(zip(feats, folds)):
        for i, c in enumerate(candidates):
            key = np.s_[:, :c] if np.isscalar(c) else np.s_[:, c[f]]
            X_c = X_tr[key] if np.isscalar(c) else np.ascontiguousarray(X_tr[key])
            assert np.shares_memory(X_c, X_tr) == np.isscalar(c)
            for j, C in enumerate(Cs):
                ref = subgradient_descent(X_c, 2.0 * y[train] - 1.0, C, tol=1e-6,
                                          max_epochs=150)
                got = predicted[X_val[key].shape, np.ascontiguousarray(X_val[key]).tobytes(), C]
                assert got.w.tobytes() == ref.w.tobytes()
                assert np.float64(got.bias).tobytes() == np.float64(ref.bias).tobytes()
                assert (got.epochs, got.converged) == (ref.epochs, ref.converged)
                want[f, i * len(Cs) + j] = accuracy(svm_predict(ref, X_val[key]), y[val])
    assert scores.tobytes() == want.tobytes()
    [groups] = blocks
    return groups


class TestSvmCvCandidates:
    """``svm_cv`` scores width and index candidates in one block, each model
    bit-equal to the one-problem reference on its fold's columns."""

    def test_widths_train_on_strided_views_of_one_stack(self, monkeypatch):
        X, y, folds = _adni_folds(0, 10)
        widths = list(ExperimentConfig().pca_grid)
        groups = _assert_candidates_match_reference(
            monkeypatch, _pca_fold_features(X, folds, 40), y, folds, [1.0], widths)
        # per row count one stack of every column, viewed by each width
        assert len(groups) == 3 * len(widths)
        for g in range(0, len(groups), len(widths)):
            stacks = [S for S, _, _ in groups[g:g + len(widths)]]
            assert [S.shape[-1] for S in stacks] == widths
            assert all(S.base is stacks[-1].base for S in stacks)
            assert not any(S.flags.c_contiguous for S in stacks[:-1])

    def test_index_candidates_train_on_column_copies(self, monkeypatch):
        X, y, folds = _adni_folds(4, 10)
        candidates = ttest_cv(X, y, folds, [1, 6, 24])
        groups = _assert_candidates_match_reference(
            monkeypatch, list(_rows(X, folds)), y, folds, [1.0], candidates)
        assert all(S.flags.c_contiguous for S, _, _ in groups)

    def test_both_forms_and_several_Cs_in_one_call(self, monkeypatch):
        X, y, folds = _adni_folds(5, 3)
        candidates = [20, *ttest_cv(X, y, folds, [2, 12]), 4]
        _assert_candidates_match_reference(monkeypatch, list(_rows(X, folds)), y, folds,
                                           [0.1, 1.0, 10.0], candidates)

    @pytest.mark.parametrize("width", [True, 2.5])
    def test_width_must_be_an_integer(self, width):
        """A bool or a non-integer width is refused by name, not trained as a slice."""
        X, y = _problem(0, 15, 15, 6)
        folds = kfold(y, 3, seed=0)
        with pytest.raises(ValueError, match=f"^candidate 1 must be an integer, got {width!r}$"):
            svm_cv(_rows(X, folds), y, folds, [1.0], [2, width], max_epochs=5)
        got = svm_cv(_rows(X, folds), y, folds, [1.0], [np.int64(2)], max_epochs=5)
        assert got.tobytes() == svm_cv(_rows(X, folds), y, folds, [1.0], [2], max_epochs=5).tobytes()

    def test_integer_past_the_float_range_in_the_C_grid_rejected(self):
        X, y = _problem(0, 15, 15, 6)
        folds = kfold(y, 3, seed=0)
        with pytest.raises(ValueError, match=f"^Cs must be numbers, got \\[{10**400}\\]$"):
            svm_cv(_rows(X, folds), y, folds, [10**400], [6], max_epochs=5)

    @pytest.mark.parametrize("cut", [slice(1, None), slice(None, -1)], ids=["first", "last"])
    def test_labels_of_another_length_than_the_masks_rejected(self, cut):
        X, y = _problem(0, 15, 15, 6)
        folds = kfold(y, 3, seed=0)
        with pytest.raises(ValueError, match=r"^labels must have shape \(30,\), got \(29,\)$"):
            svm_cv(_rows(X, folds), y[cut], folds, [1.0], [6], max_epochs=5)

    @pytest.mark.parametrize("change, message", [
        (lambda feats, cands: (feats[:2], cands), "^got features for 2 folds, not 3$"),
        (lambda feats, cands: (feats + feats[:1], cands), "^got features for 4 folds, not 3$"),
        (lambda feats, cands: ([feats[0], (feats[1][0][1:], feats[1][1])] + feats[2:], cands),
         "fold 1 needs"),
        (lambda feats, cands: (feats[:2] + [(feats[2][0], feats[2][1][1:])], cands),
         "fold 2 needs"),
        (lambda feats, cands: (feats[:1] + [(a[:, :5], b[:, :5]) for a, b in feats[1:]], cands),
         "fold 1 needs .* of fold 0's width 6"),
        (lambda feats, cands: (feats, [0]), r"candidate 0 is neither a width in 1\.\.6"),
        (lambda feats, cands: (feats, [3, 7]), r"candidate 1 is neither a width in 1\.\.6"),
        (lambda feats, cands: (feats, [cands[0][:2]]),
         r"candidate 0 .* nor one column-index array per fold \(3\)"),
        (lambda feats, cands: (feats, [4, cands[0][:2] + [np.array([0, 6])]]),
         r"candidate 1: fold 2's columns are not in 0\.\.5"),
        (lambda feats, cands: (feats, [cands[0][:1] + [np.array([], int)] + cands[0][2:]]),
         "candidate 0: fold 1's columns"),
        (lambda feats, cands: (feats, [[np.array([0.0, 1.0])] * 3]),
         "^candidate 0: fold 0's columns are not an integer index array$"),
        (lambda feats, cands: (feats, [4, [np.arange(6) % 2 == 0] * 3]),
         "^candidate 1: fold 0's columns are not an integer index array$"),
        (lambda feats, cands: (feats, []), ValueError),
    ], ids=["short", "long", "train-rows", "validation-rows", "width", "width-0",
            "width-too-wide", "arrays-missing", "index-out-of-range", "index-empty",
            "index-float", "index-bool", "no-candidates"])
    def test_bad_fold_features_rejected(self, change, message):
        X, y = _problem(0, 15, 15, 6)
        folds = kfold(y, 3, seed=0)
        cands = ttest_cv(X, y, folds, [2])
        feats, candidates = change(list(_rows(X, folds)), cands)
        typed = isinstance(message, type)  # the refusal of numpy, Python or another check
        with pytest.raises(message if typed else ValueError, match=None if typed else message):
            svm_cv(iter(feats), y, folds, [1.0], candidates, max_epochs=5)


def _candidates(form, X, y, folds):
    """A width, the t-test's index arrays, or both."""
    return {"width": [20], "index": ttest_cv(X, y, folds, [1, 6]),
            "both": [20, *ttest_cv(X, y, folds, [6])]}[form]


class TestSvmCvHolds:
    """What ``svm_cv`` holds through its ``svm_train`` block: the stacks and
    index copies that its groups read and the validation rows, never the fold
    training rows it was given."""

    @pytest.mark.parametrize("form, stacks", [("width", 3), ("index", 0), ("both", 3)])
    def test_full_width_stack_only_when_a_width_reads_it(self, form, stacks):
        """One stack of every column per training row count (231, 232 and
        233 at k=10) if a candidate is a width; else only the labels are
        stacked."""
        X, y, folds = _adni_folds(4, 10)
        candidates = _candidates(form, X, y, folds)
        with mock.patch.object(svm.np, "stack", wraps=np.stack) as spy:
            svm_cv(_rows(X, folds), y, folds, [1.0], candidates, max_epochs=5)
        shapes = [np.shape(call.args[0][0]) for call in spy.call_args_list]
        full_width = [(231, 56), (232, 56), (233, 56)]
        assert sorted(s for s in shapes if len(s) == 2) == full_width[:stacks]
        assert sorted(s for s in shapes if len(s) == 1) == [(n,) for n, _ in full_width]

    @pytest.mark.parametrize("form", ["width", "index", "both"])
    def test_fold_training_rows_dropped_before_the_block(self, monkeypatch, form):
        X, y, folds = _adni_folds(5, 3)
        candidates, refs, checked = _candidates(form, X, y, folds), [], []

        def fold_rows():
            for train, val in folds:
                X_tr, X_val = X[train], X[val]
                refs.append((weakref.ref(X_tr), weakref.ref(X_val)))
                yield X_tr, X_val

        def checking_train(groups, *args):
            assert [(tr() is None, val() is None) for tr, val in refs] == [(True, False)] * 3
            checked.append(len(groups))
            return svm_train(groups, *args)

        monkeypatch.setattr(svm, "svm_train", checking_train)
        svm_cv(fold_rows(), y, folds, [1.0], candidates, max_epochs=5)
        assert checked == [3 * len(candidates)]  # one block: 3 row counts x the candidates


class TestSvmPredict:
    def test_zero_decision_value_maps_to_plus_one(self):
        model = LinearSvmModel(w=np.array([1.0, -1.0]), bias=0.5, C=1.0)
        # decision values 0, 0, -0.5 and 2.5, each exact in floating point
        X = np.array([[0.0, 0.5], [1.0, 1.5], [-1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(svm_predict(model, X), [1, 1, 0, 1])


    def test_width_other_than_the_models_rejected(self):
        model = LinearSvmModel(w=np.array([1.0, -1.0]), bias=0.5, C=1.0)
        with pytest.raises(ValueError, match="^expected 2 columns, got 3$"):
            svm_predict(model, np.ones((4, 3)))

    @pytest.mark.parametrize("X, message", [
        (np.ones(2), "X must be 2-D, got shape (2,)"),
        (np.zeros((2, 3, 3)), "X must be 2-D, got shape (2, 3, 3)"),
    ], ids=["1-d", "3-d"])
    def test_rows_other_than_2_d_rejected(self, X, message):
        model = LinearSvmModel(w=np.array([1.0, -1.0, 0.0]), bias=0.5, C=1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            svm_predict(model, X)


class TestAccuracy:
    @pytest.mark.parametrize("pred, truth", [([0, 1], [0, 1, 1]), ([], [])],
                             ids=["unequal", "empty"])
    def test_unequal_or_empty_rejected(self, pred, truth):
        with pytest.raises(ValueError, match="^prediction and truth must have equal nonzero"):
            accuracy(pred, truth)


class TestSvmObjective:
    def test_hinge_loss_of_0_1_labels(self):
        """Label 1 wants a decision value of at least 1 and label 0 one of at
        most -1; each shortfall costs C times its size."""
        X = np.array([[0.0], [1.0], [3.0]])
        # decision values 0.5, 1.5 and 3.5: hinge terms 0.5, 2.5 and 0
        got = svm_objective(X, [1, 0, 1], np.array([1.0]), 0.5, C=2.0)
        assert got == 0.5 * 1.0 + 2.0 * (0.5 + 2.5)

    @pytest.mark.parametrize("labels", [[-1, 1, 1], [0, 2, 1], [0.0, np.nan, 1.0]])
    def test_labels_other_than_0_1_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            svm_objective(np.ones((3, 1)), labels, np.zeros(1), 0.0, 1.0)
