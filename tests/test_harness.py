import codecs
import concurrent.futures
import multiprocessing
import re
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from featlearn import harness, lasso, pca, svm
from featlearn.data import Dataset, SyntheticSpec, derive_seed, generate_synthetic, kfold
from featlearn.harness import (_TAG_SAE, ExperimentConfig, PipelineSpec, PipelineStageError,
                               ResultsTable, _checked_split, _choose, _fit_lasso_selector,
                               _fit_pca_selector, _fit_sae_stage, _fit_scaler, _fit_ttest_selector,
                               _RepeatFits, _stage, config_to_text, parse_config, read_runs_csv,
                               render_table, run_experiment, run_pipeline, write_runs_csv)
from featlearn.lasso import lambda_path
from featlearn.pca import pca_fit
from featlearn.sae import TrainConfig, sae_predict, semi_pretrain_finetune
from featlearn.ttest import select_top_m, two_sample_t
from harness_reference import per_fold_pca_search, per_fold_ttest_search

TINY_DATA = SyntheticSpec(n0=20, n1=20, n_unlabeled=10, p=6, s=2, delta=1.0, rho=0.2, seed=0)
TINY = ExperimentConfig(repeats=2, k=3, sae_dims=(4, 2), sae_iterations=5)


def _per_l2_reference(Xtr, ytr01, X_extra, folds, cfg, seed):
    """The L2 search with the candidate loop outside the fold loop: every
    fold is pretrained afresh for every L2. Also returns the accuracy per
    (fold, L2), with the columns in ascending L2 order."""
    base = dict(learning_rate=cfg.sae_learning_rate, iterations=cfg.sae_iterations)
    grid = sorted(cfg.l2_grid)
    best_l2, best_acc = grid[0], -1.0
    per_fold = np.zeros((len(folds), len(grid)))
    for i, l2 in enumerate(grid):
        score = 0.0
        for f, (mask, val) in enumerate(folds):
            model, = semi_pretrain_finetune(
                Xtr[mask], ytr01[mask], X_extra, cfg.sae_dims,
                TrainConfig(seed=derive_seed(seed, _TAG_SAE, f), **base), [l2])
            per_fold[f, i] = float(np.mean(sae_predict(model, Xtr[val]) == ytr01[val]))
            score += per_fold[f, i]
        if score > best_acc:
            best_l2, best_acc = l2, score
    final, = semi_pretrain_finetune(
        Xtr, ytr01, X_extra, cfg.sae_dims,
        TrainConfig(seed=derive_seed(seed, _TAG_SAE, len(folds)), **base), [best_l2])
    return final, best_l2, per_fold


@pytest.fixture
def choices(monkeypatch):
    """Records every ``harness._choose`` call as (calling function, grid,
    scores, ties); the real ``_choose`` still makes the choice."""
    calls = []

    def recording(grid, scores, ties):
        calls.append((sys._getframe(1).f_code.co_name, list(grid), np.asarray(scores), ties))
        return _choose(grid, scores, ties)

    monkeypatch.setattr(harness, "_choose", recording)
    return calls


def _sorted_columns(grid, scores):
    """scores with its columns in ascending grid order, as the references
    give theirs."""
    return scores[:, np.argsort(grid, kind="stable")]


class TestFitScaler:
    def test_near_constant_columns_are_centered_but_not_scaled(self):
        """A learned column whose std is at most 1e-12 gets std 1.0 and its
        mean, so the fit does not refuse it; a varying column keeps its std."""
        varying = np.array([0.0, 1.0, 3.0, 2.0, 5.0, 4.0])
        F = np.column_stack([np.full(6, 0.3), 0.3 + 1e-14 * np.arange(6), varying])
        assert 0.0 < F[:, 1].std(ddof=1) <= 1e-12
        scaler = _fit_scaler(F)
        assert scaler.stds.tolist() == [1.0, 1.0, varying.std(ddof=1)]
        assert scaler.means.tolist() == F.mean(axis=0).tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_means_and_stds_are_equal_length_1_d_with_every_std_positive(self, seed):
        """What ``StandardizationParams`` leaves to its producers: a constant
        or near-constant column gets std 1.0."""
        F = np.random.default_rng(seed).normal(size=(9, 5)) * [0.0, 1e-14, 1e-6, 1.0, 1e3]
        scaler = _fit_scaler(F)
        assert scaler.means.shape == scaler.stds.shape == (5,)
        assert np.all(scaler.stds > 0.0) and scaler.stds[:2].tolist() == [1.0, 1.0]


class TestFitSaeStage:
    # Over these seeds the reference picks each of the three L2 values at
    # least once, so the choice itself is under test, not only the final fit.
    @pytest.mark.parametrize("semi", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_l2_pretraining(self, seed, semi, choices):
        rng = np.random.default_rng(seed)
        n, p = 30, 6
        y = np.array([0, 1] * (n // 2))
        X = rng.normal(size=(n, p))
        X[y == 1, :2] += 1.0
        X_extra = rng.normal(size=(10, p)) if semi else np.zeros((0, p))
        folds = kfold(y, 3, seed)
        cfg = ExperimentConfig(k=3, sae_dims=(4, 2), sae_learning_rate=0.5,
                               sae_iterations=30, l2_grid=(0.3, 0.0, 0.03))
        got, got_l2 = _fit_sae_stage(X, y, X_extra, folds, cfg, seed)
        want, want_l2, want_scores = _per_l2_reference(X, y, X_extra, folds, cfg, seed)
        [(_, grid, scores, _)] = choices
        assert grid == list(cfg.l2_grid)
        assert _sorted_columns(grid, scores).tobytes() == want_scores.tobytes()
        assert got_l2 == want_l2
        for a, b in zip(got.layers, want.layers, strict=True):
            for name in ("W", "b"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert got.softmax_W.tobytes() == want.softmax_W.tobytes()
        assert got.softmax_b.tobytes() == want.softmax_b.tobytes()

    @pytest.mark.parametrize("semi", [False, True])
    def test_each_stack_is_one_semi_pretrain_finetune_call(self, monkeypatch, semi):
        # the fold stacks fine-tune the whole grid, the final stack the chosen L2
        calls = []

        def spy(X_labeled, labels, X_unlabeled, dims, cfg, l2s):
            calls.append(list(l2s))
            return semi_pretrain_finetune(X_labeled, labels, X_unlabeled, dims, cfg, l2s)

        monkeypatch.setattr(harness, "semi_pretrain_finetune", spy)
        ds = generate_synthetic(TINY_DATA)
        _, l2 = _RepeatFits(ds, _checked_split(ds, [], TINY, 0), TINY, 0)._sae_stage(semi)
        assert calls == [list(TINY.l2_grid)] * TINY.k + [[l2]]
        assert not hasattr(harness, "fine_tune") and not hasattr(harness, "sae_pretrain")


def _svm_train_calls(monkeypatch, spec):
    """The ``svm_train`` calls that fitting one cell makes, searches and the
    final fit alike."""
    calls = []
    original = harness.svm_train

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(harness, "svm_train", counting)
    monkeypatch.setattr(svm, "svm_train", counting)
    ds = generate_synthetic(TINY_DATA)
    run_pipeline(_RepeatFits(ds, _checked_split(ds, [], TINY, 0), TINY, 0), spec)
    return len(calls)


class TestSearchesStream:
    """Each CV search hands its block a one-shot iterator of fold rows, which
    the block reads one fold at a time: the C, t-test and PCA searches to
    ``svm_cv``, the lambda search to ``lasso_path``."""

    @pytest.mark.parametrize("selector, searches", [
        ("NONE", ["svm_cv"]), ("TTEST", ["svm_cv", "svm_cv"]), ("PCA", ["svm_cv", "svm_cv"]),
        ("LASSO", ["lasso_path", "svm_cv"])], ids=["NONE", "TTEST", "PCA", "LASSO"])
    def test_each_search_reads_an_iterator(self, monkeypatch, selector, searches):
        seen = []

        def spy(module, name):
            original = getattr(module, name)

            def recording(rows, *args, **kwargs):
                seen.append((name, iter(rows) is rows))
                return original(rows, *args, **kwargs)
            monkeypatch.setattr(module, name, recording)

        spy(harness, "svm_cv")
        spy(lasso, "lasso_path")
        ds = generate_synthetic(TINY_DATA)
        run_pipeline(_RepeatFits(ds, _checked_split(ds, [], TINY, 0), TINY, 0),
                     PipelineSpec("LLF", selector))
        assert seen == [(name, True) for name in searches]


class TestFitPcaSelector:
    # The LLF features of an adni-like repeat. At k=10 the folds train on
    # 231, 232 and 233 rows, so each row count stacks several folds' scores;
    # at k=3 on 171, 172 and 173, one fold each. Over these seeds the
    # reference chooses r = 40, 30, 30 and 5.
    @pytest.mark.parametrize("seed, k", [(0, 10), (1, 10), (2, 3), (3, 3)])
    def test_matches_per_fold_reference(self, seed, k, choices):
        ds = generate_synthetic(SyntheticSpec.adni_like(seed))
        cfg = ExperimentConfig(k=k)
        repeat = _RepeatFits(ds, _checked_split(ds, [], cfg, seed), cfg, seed)
        _, _, ytr01, folds = repeat._train
        F = repeat._method_stage(PipelineSpec("LLF"))[2]
        model, chosen = _fit_pca_selector(F, ytr01, folds, cfg)
        want_r, want_scores = per_fold_pca_search(F, ytr01, folds, cfg.pca_grid,
                                                  cfg.svm_cv_epochs)
        [(_, grid, scores, _)] = choices
        assert _sorted_columns(grid, scores).tobytes() == want_scores.tobytes()
        assert chosen["r"] == want_r
        # the block's last member, cut to r, is the one-member fit at r
        want, = pca_fit([F], want_r)
        for name in ("mean", "components", "variances"):
            a, b = getattr(model, name), getattr(want, name)
            assert a.shape == b.shape and a.strides == b.strides, name
            assert a.tobytes() == b.tobytes(), name

    def test_one_cell_makes_one_pca_fit_and_one_eigen_block(self, monkeypatch):
        """The one ``pca_fit`` call reads its matrices from an iterator, so
        it copies one fold's rows at a time."""
        calls = {"pca_fit": [], "sym_eigen": []}  # the type of each call's first argument

        def count(module, name):
            original = getattr(module, name)

            def counting(*args):
                calls[name].append(type(args[0]))
                return original(*args)
            monkeypatch.setattr(module, name, counting)

        count(harness, "pca_fit")
        count(pca, "sym_eigen")
        ds = generate_synthetic(TINY_DATA)
        fits = _RepeatFits(ds, _checked_split(ds, [], TINY, 0), TINY, 0)
        run_pipeline(fits, PipelineSpec("LLF", "PCA"))
        [Xs], [_] = calls["pca_fit"], calls["sym_eigen"]
        assert issubclass(Xs, Iterator) and not issubclass(Xs, list)

    def test_one_cell_makes_one_svm_block_per_search(self, monkeypatch):
        """The PCA cell trains its r search, its C search and its final SVM
        in three ``svm_train`` calls."""
        assert _svm_train_calls(monkeypatch, PipelineSpec("LLF", "PCA")) == 3


class TestFitTtestSelector:
    # The LLF features of an adni-like repeat, whose folds train on 231, 232
    # and 233 rows at k=10 (several folds per stack) and 171, 172 and 173 at
    # k=3 (one each). Over these seeds the reference chooses m = 16, 24, 16
    # and 16.
    @pytest.mark.parametrize("seed, k", [(0, 10), (1, 10), (2, 3), (3, 3)])
    def test_matches_per_fold_reference(self, seed, k, choices, monkeypatch):
        ds = generate_synthetic(SyntheticSpec.adni_like(seed))
        cfg = ExperimentConfig(k=k)
        repeat = _RepeatFits(ds, _checked_split(ds, [], cfg, seed), cfg, seed)
        _, _, ytr01, folds = repeat._train
        F = repeat._method_stage(PipelineSpec("LLF"))[2]
        models = []  # every model the search's svm_train block returns
        original = svm.svm_train

        def recording(*args, **kwargs):
            block = original(*args, **kwargs)
            models.extend(block)
            return block
        monkeypatch.setattr(svm, "svm_train", recording)
        cols, chosen = _fit_ttest_selector(F, ytr01, folds, cfg)
        want_m, want_scores, want_models = per_fold_ttest_search(F, ytr01, folds, cfg.ttest_grid,
                                                                 cfg.svm_cv_epochs)
        [(_, grid, scores, _)] = choices
        # the block returns its models in its own order, the reference fold by fold
        assert (sorted((m.w.tobytes(), m.bias) for m in models)
                == sorted((m.w.tobytes(), m.bias) for m in want_models))
        assert _sorted_columns(grid, scores).tobytes() == want_scores.tobytes()
        assert chosen["m"] == want_m
        assert cols.tolist() == select_top_m(two_sample_t(F, ytr01), want_m).tolist()

    def test_one_cell_makes_one_svm_block_per_search(self, monkeypatch):
        """The t-test cell trains its m search, its C search and its final
        SVM in three ``svm_train`` calls."""
        assert _svm_train_calls(monkeypatch, PipelineSpec("LLF", "TTEST")) == 3


class TestFitLassoSelector:
    # On pure noise the lambda search mostly picks lambda_max, where the
    # lasso keeps no column; these seeds are among those that do
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_surviving_column_degrades_to_no_selection(self, seed):
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((60, 8))
        F = (F - F.mean(axis=0)) / F.std(axis=0, ddof=1)
        y = rng.permutation(np.repeat([0, 1], 30))
        cfg = ExperimentConfig(k=3)
        idx, chosen = _fit_lasso_selector(F, y, kfold(y, 3, seed), cfg)
        y_pm = 2.0 * y - 1.0
        lam_max = lambda_path(F, y_pm - y_pm.mean(), cfg.n_lambdas, cfg.lambda_ratio)[0]
        assert chosen == {"lambda": lam_max, "n_selected": 8}
        assert idx.tolist() == list(range(8))


class TestChoose:
    # totals 1.0, 1.0, 0.5 and 1.0 for grid values 3, 1, 4 and 2
    SCORES = np.array([[0.25, 0.5, 0.25, 0.75], [0.75, 0.5, 0.25, 0.25]])

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]])
    def test_ties_pick_by_grid_value_in_any_grid_order(self, order):
        grid = [[3, 1, 4, 2][i] for i in order]
        scores = self.SCORES[:, order]
        assert _choose(grid, scores, min) == 1
        assert _choose(grid, scores, max) == 3

    def test_an_ulp_larger_total_wins_where_a_mean_would_tie(self):
        # Ten fold accuracies per candidate with the same exact sum. Added
        # in fold order, b's total is one ulp above a's; divided by 10 they
        # are equal, so a mean would hand the choice to the tie rule.
        a = np.array([17, 15, 18, 16, 16, 17, 23, 20, 19, 16]) / 23
        b = np.array([23, 18, 17, 17, 16, 16, 20, 16, 19, 15]) / 23
        total_a, total_b = sum(a, 0.0), sum(b, 0.0)
        assert total_b == np.nextafter(total_a, np.inf) and total_a / 10 == total_b / 10
        assert _choose([1, 2], np.column_stack([a, b]), min) == 2
        assert _choose([1, 2], np.column_stack([b, a]), max) == 1

    def test_one_candidate_returns_its_value(self):
        for value, ties in ((0.5, max), (7, min)):
            got = _choose([value], np.array([[0.3], [0.9], [0.0]]), ties)
            assert got == value and type(got) is type(value)

    def test_each_search_passes_its_tie_rule(self, choices):
        ds = generate_synthetic(TINY_DATA)
        specs = PipelineSpec.table_cells()
        fits = _RepeatFits(ds, _checked_split(ds, specs, TINY, 0), TINY, 0)
        for spec in specs:
            run_pipeline(fits, spec)
        rules = {"_fit_sae_stage": min, "_fit_lasso_selector": max, "_fit_ttest_selector": min,
                 "_fit_pca_selector": min, "run_pipeline": min}
        assert {caller: ties for caller, _, _, ties in choices} == rules
        for caller, grid, scores, ties in choices:
            assert scores.shape == (TINY.k, len(grid)), caller
        assert [caller for caller, *_ in choices].count("run_pipeline") == len(specs)


class TestStage:
    def test_nested_stage_keeps_the_inner_stage_and_cause(self):
        cause = ValueError("column 'c' (index 2) is constant over the given rows")
        with pytest.raises(PipelineStageError) as info:
            with _stage("selector"):
                with _stage("standardize"):
                    raise cause
        assert info.value.stage == "standardize" and info.value.__cause__ is cause
        assert str(info.value) == f"pipeline stage 'standardize' failed: {cause}"

    @pytest.mark.parametrize("name, spec, stage", [
        ("kfold", PipelineSpec("LLF"), "folds"),
        ("_fit_scaler", PipelineSpec("LLF"), "method-features"),
        ("lasso_cv", PipelineSpec("LLF", "LASSO"), "selector"),
        ("svm_train", PipelineSpec("LLF"), "svm"),
        ("svm_predict", PipelineSpec("LLF"), "evaluate"),
    ], ids=["folds", "method-features", "selector", "svm", "evaluate"])
    def test_each_cell_stage_names_itself(self, monkeypatch, name, spec, stage):
        """A failure in each per-cell stage's harness-level call surfaces from
        run_experiment under that stage's name, with the failure as cause."""
        cause = RuntimeError(f"{name} failed")

        def fail(*args, **kwargs):
            raise cause
        monkeypatch.setattr(harness, name, fail)
        with pytest.raises(PipelineStageError) as info:
            run_experiment(generate_synthetic(TINY_DATA), [spec], replace(TINY, repeats=1))
        assert info.value.stage == stage and info.value.__cause__ is cause


class TestExperimentConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"svm_epochs": 0}, "svm_epochs and svm_cv_epochs must be >= 1"),
        ({"svm_cv_epochs": 0}, "svm_epochs and svm_cv_epochs must be >= 1"),
        ({"c_grid": (0.1, 0.0)}, "every C in c_grid must be > 0"),
        ({"c_grid": (-1.0,)}, "every C in c_grid must be > 0"),
        ({"c_grid": (0.1, float("nan"))}, "every C in c_grid must be > 0 and finite"),
        ({"c_grid": (float("nan"), 0.1)}, "every C in c_grid must be > 0 and finite"),
        ({"c_grid": (1.0, float("inf"))}, "every C in c_grid must be > 0 and finite"),
        ({"c_grid": ()}, "c_grid must be nonempty"),
        ({"c_grid": (1.0, 0.1, 1.0)}, "^c_grid holds 1.0 more than once$"),
    ])
    def test_bad_svm_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_lambdas": 1}, "n_lambdas must be >= 2"),
        ({"lambda_ratio": 1.5}, r"ratio must lie in \(0, 1\)"),
        ({"sae_learning_rate": 0.0}, "learning_rate must be > 0"),
        ({"sae_iterations": 0}, "iterations must be >= 1"),
        ({"l2_grid": (1e-3, -1e-4)}, "l2 must be >= 0"),
        ({"pca_grid": (0,)}, "every pca_grid and ttest_grid value must be >= 1"),
        ({"ttest_grid": (-3,)}, "every pca_grid and ttest_grid value must be >= 1"),
        ({"sae_dims": (0,)}, "hidden sizes must be >= 1"),
        ({"base_seed": -1}, "base_seed must be >= 0"),
        ({"repeats": 0}, "repeats must be >= 1"),
        ({"k": 1}, "k must be >= 2"),
        ({"test_frac": 1.0}, r"test_frac must lie in \(0, 1\)"),
        ({"sae_learning_rate": float("nan")}, "learning_rate must be > 0 and finite"),
        ({"sae_learning_rate": float("inf")}, "learning_rate must be > 0 and finite"),
        ({"l2_grid": (1e-3, float("nan"))}, "l2 must be >= 0 and finite"),
        ({"l2_grid": (float("inf"),)}, "l2 must be >= 0 and finite"),
        ({"stratify": False}, "stratify must be true: every split is stratified by class"),
        ({"pca_grid": (np.int64(5), 2, 5)}, "^pca_grid holds 5 more than once$"),
        ({"pca_grid": (5, 2, 2, 5)}, "^pca_grid holds 2 more than once$"),
        ({"ttest_grid": (1, 2, 2)}, "^ttest_grid holds 2 more than once$"),
        ({"l2_grid": (1e-3, 0.0, 1e-3)}, "^l2_grid holds 0.001 more than once$"),
    ])
    def test_bad_selector_and_sae_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"repeats": 1.5}, {"repeats": "2"}, {"k": 2.5}, {"base_seed": 0.0},
        {"sae_iterations": 5.0}, {"n_lambdas": 3.5}, {"svm_epochs": 2.5},
        {"svm_cv_epochs": np.float64(10)}, {"k": True}, {"sae_dims": (4.5, 2)},
        {"pca_grid": (2.5,)}, {"ttest_grid": (2.5,)}, {"ttest_grid": (1, 2.0)},
        {"sae_dims": (4, False)},
    ], ids=lambda kwargs: next(iter(kwargs)))
    def test_non_integer_in_an_integer_field_rejected(self, kwargs):
        [(name, value)] = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must be (an integer|integers), got"):
            ExperimentConfig(**kwargs)

    def test_numpy_integers_are_accepted_as_ints(self):
        cfg = ExperimentConfig(k=np.int64(3), repeats=np.int32(2), sae_dims=np.array([4, 2]),
                               pca_grid=(np.int64(2), 3), ttest_grid=np.arange(1, 3))
        assert cfg == ExperimentConfig(k=3, repeats=2, sae_dims=(4, 2), pca_grid=(2, 3),
                                       ttest_grid=(1, 2))
        for name in ("k", "repeats"):
            assert type(getattr(cfg, name)) is int
        for name in ("sae_dims", "pca_grid", "ttest_grid"):
            assert all(type(v) is int for v in getattr(cfg, name)), name

    @pytest.mark.parametrize("kwargs", [
        {"test_frac": "0.2"}, {"test_frac": True}, {"sae_learning_rate": True},
        {"lambda_ratio": None}, {"lambda_ratio": np.True_}, {"l2_grid": (1e-3, False)},
        {"l2_grid": ("0.1",)}, {"c_grid": (True,)}, {"c_grid": (1.0, None)},
        # integers that float() refuses with OverflowError
        *(pytest.param({name: value}, id=f"{name}-past-float-range") for name, value in [
            ("test_frac", 10**400), ("sae_learning_rate", 10**400), ("lambda_ratio", 10**400),
            ("l2_grid", (1e-3, 10**400)), ("c_grid", (10**400,))]),
    ], ids=lambda kwargs: next(iter(kwargs)))
    def test_bool_or_non_number_in_a_float_field_rejected(self, kwargs):
        [(name, value)] = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must be (a number|numbers), got"):
            ExperimentConfig(**kwargs)

    def test_numpy_floats_are_kept_as_floats_and_round_trip(self):
        # float32(0.1) is 0.10000000149011612: the text must rerun that C
        cfg = ExperimentConfig(test_frac=np.float32(0.25), sae_learning_rate=np.float64(0.05),
                               lambda_ratio=np.float32(0.1), l2_grid=np.array([0.0, 1e-3]),
                               c_grid=(np.float32(0.1), 1))
        assert cfg.c_grid == (0.10000000149011612, 1.0)
        parsed = parse_config(config_to_text(cfg))
        assert parsed == cfg
        for got in (cfg, parsed):
            for name in ("test_frac", "sae_learning_rate", "lambda_ratio"):
                assert type(getattr(got, name)) is float, name
            for name in ("l2_grid", "c_grid"):
                assert all(type(v) is float for v in getattr(got, name)), name


class TestParseConfig:
    @pytest.mark.parametrize("text, message", [
        ("k = 3\n# comment\nbogus = 1\n", "config line 3: unknown key 'bogus'"),
        # the worker count is run_experiment's argument, not a config field
        ("jobs = 2", "config line 1: unknown key 'jobs'"),
        ("k = 3\nk 3", "config line 2: expected 'key = value', got 'k 3'"),
        ("stratify = yes", "config line 1: stratify: must be true or false"),
        # the key parses, but every split is stratified
        ("stratify = false", "stratify must be true: every split is stratified by class"),
        ("sae_dims = 40,,15", "config line 1: sae_dims: empty entry"),
        ("k = 3\nc_grid = 0.1,1,", "config line 2: c_grid: empty entry"),
    ])
    def test_bad_line_named(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(text)

    def test_round_trip_default(self):
        cfg = ExperimentConfig()
        assert parse_config(config_to_text(cfg)) == cfg

    def test_round_trip_non_default(self):
        cfg = ExperimentConfig(repeats=7, test_frac=0.3, sae_dims=(12, 4),
                               l2_grid=(0.5, 2.5e-3), c_grid=(3.0, 0.25),
                               pca_grid=(3, 7), ttest_grid=(2, 5, 9), lambda_ratio=0.05)
        parsed = parse_config(config_to_text(cfg))
        assert parsed == cfg
        # each tuple's element type comes from the field's annotation
        for name, elem in (("sae_dims", int), ("l2_grid", float), ("c_grid", float),
                           ("pca_grid", int), ("ttest_grid", int)):
            assert all(type(v) is elem for v in getattr(parsed, name)), name

    # more significant digits than the short form keeps
    @pytest.mark.parametrize("grids", [{"l2_grid": (1.2345678e-4,)}, {"c_grid": (1234567.0,)}])
    def test_round_trip_full_precision(self, grids):
        cfg = ExperimentConfig(**grids)
        assert parse_config(config_to_text(cfg)) == cfg


def _sae_arrays(model):
    arrays = [a for layer in model.layers for a in (layer.W, layer.b)]
    return [a.tobytes() for a in arrays + [model.softmax_W, model.softmax_b]]


class TestRepeatFits:
    def test_test_rows_never_reach_a_fit(self):
        ds = generate_synthetic(TINY_DATA)
        cfg = replace(TINY, sae_learning_rate=0.5, sae_iterations=10, c_grid=(0.1, 10.0),
                      n_lambdas=5, svm_epochs=100, svm_cv_epochs=30)
        split = _checked_split(ds, PipelineSpec.table_cells(), cfg, 0)
        X = ds.features.copy()
        X[split.test] = np.random.default_rng(1).normal(scale=10.0, size=(split.test.size, ds.p))
        noisy = Dataset(X, ds.labels, ds.feature_names)
        clean_fits = _RepeatFits(ds, split, cfg, 0)
        noisy_fits = _RepeatFits(noisy, split, cfg, 0)
        for spec in PipelineSpec.table_cells():
            (clean, _), (other, _) = run_pipeline(clean_fits, spec), run_pipeline(noisy_fits, spec)
            assert other.chosen == clean.chosen, spec
            assert other.svm.w.tobytes() == clean.svm.w.tobytes(), spec
            assert other.svm.bias == clean.svm.bias, spec
            if spec.uses_sae:
                assert _sae_arrays(other.sae) == _sae_arrays(clean.sae)

    @pytest.mark.parametrize("repeat", [0, 1])
    @pytest.mark.parametrize("spec", PipelineSpec.table_cells(), ids=str)
    def test_transform_of_training_rows_is_the_final_svms_input(self, monkeypatch, spec, repeat):
        """Training rows go through ``PipelineFit.transform`` into exactly
        the matrix that the cell's final SVM was trained on."""
        trained = []
        original = harness.svm_train

        def recording(groups, *args, **kwargs):
            trained.append(groups)
            return original(groups, *args, **kwargs)
        monkeypatch.setattr(harness, "svm_train", recording)
        ds = generate_synthetic(TINY_DATA)
        split = _checked_split(ds, [spec], TINY, repeat)
        fit, _ = run_pipeline(_RepeatFits(ds, split, TINY, repeat), spec)
        [[((X,), _, _)]] = trained
        got = fit.transform(ds.features[split.train])
        assert got.shape == X.shape and got.tobytes() == X.tobytes()

    def test_shared_arrays_are_read_only(self):
        ds = generate_synthetic(TINY_DATA)
        fits = _RepeatFits(ds, _checked_split(ds, [], TINY, 0), TINY, 0)
        _, Xtr, ytr01, folds = fits._train
        Ftr = fits._method_stage(PipelineSpec("SAEF"))[2]
        for shared in (Xtr, ytr01, *folds[0], Ftr):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0


# accuracies whose shortest decimal forms need all 17 significant digits
RUNS = {("LLF", "NONE"): (1 / 3, 0.1 + 0.2, 2 / 7), ("LLF", "PCA"): (0.5, 1.0, 0.0)}
RUNS_HEADER = "method,selector,repeat,accuracy\n"
# Results that write_runs_csv cannot have written: the rows after the
# header, the line of the first fault, and what its message says
BAD_RUNS = {
    "duplicate-unknown-and-lone": (
        "LLF,NONE,0,0.5\nLLF,NONE,0,0.9\nBOGUS,NONE,0,0.7\nLLF,TTEST,2,0.6\n", 3,
        "repeat 0 of cell LLF,NONE is already on line 2"),
    "unknown-method": ("LLF,NONE,0,0.5\nBOGUS,NONE,0,0.7\n", 3, "unknown method 'BOGUS'"),
    "unknown-method-in-a-summary": ("LLF,NONE,0,0.5\nBOGUS,NONE,mean,0.7\n", 3,
                                    "unknown method 'BOGUS'"),
    "unknown-selector": ("LLF,RANDOM,0,0.5\n", 2, "unknown selector 'RANDOM'"),
    "undefined-cell": ("LLF,NONE,0,0.5\nSAEF,TTEST,0,0.6\n", 3,
                       "selector 'TTEST' is not defined for method 'SAEF'"),
    "repeat-gap": ("LLF,NONE,0,0.5\nLLF,NONE,2,0.6\n", 3,
                   "cell LLF,NONE has repeat 2, but a cell of 2 rows must number them 0..1"),
    "lone-repeat": ("LLF,NONE,0,0.5\nLLF,TTEST,2,0.6\n", 3,
                    "cell LLF,TTEST has repeat 2, but a cell of 1 rows must number them 0..0"),
    "negative-repeat": ("LLF,NONE,-1,0.5\n", 2, "has repeat -1"),
    "count-mismatch": ("LLF,NONE,0,0.5\nLLF,NONE,1,0.6\nLLF,PCA,0,0.7\n", 4,
                       "cell LLF,PCA has 1 repeats, but cell LLF,NONE has 2"),
    "wrong-mean": ("LLF,NONE,0,0.5\nLLF,NONE,1,0.75\nLLF,NONE,mean,0.99\nLLF,NONE,std,7\n", 4,
                   "mean 0.99 of cell LLF,NONE is not the mean of its repeats, 0.625"),
    "wrong-std": ("LLF,NONE,0,0.5\nLLF,NONE,1,0.75\nLLF,NONE,std,7\nLLF,NONE,mean,0.625\n", 4,
                  "std 7.0 of cell LLF,NONE is not the std of its repeats, 0.1767766952966369"),
    "nonzero-std-of-one-repeat": ("LLF,NONE,0,0.5\nLLF,NONE,std,0.1\n", 3,
                                  "std 0.1 of cell LLF,NONE is not the std of its repeats, 0.0"),
    "summary-without-repeats": ("LLF,LASSO,mean,0.3\n", 2,
                                "mean row for cell LLF,LASSO, which has no repeat rows"),
    "duplicate-summary": ("LLF,NONE,0,0.5\nLLF,NONE,mean,0.5\nLLF,NONE,mean,0.5\n", 4,
                          "mean of cell LLF,NONE is already on line 3"),
    "accuracy-above-1": ("LLF,NONE,0,0.5\nLLF,NONE,1,7\nLLF,NONE,2,nan\n", 3,
                         "repeat 1 of cell LLF,NONE has accuracy 7.0, not a finite value"),
    "accuracy-nan": ("LLF,NONE,0,nan\nLLF,NONE,1,7\n", 2,
                     "repeat 0 of cell LLF,NONE has accuracy nan, not a finite value in [0, 1]"),
    "accuracy-negative": ("LLF,PCA,0,-0.5\nLLF,PCA,1,inf\n", 2,
                          "repeat 0 of cell LLF,PCA has accuracy -0.5, not a finite value"),
    "accuracy-inf": ("LLF,PCA,0,0.25\nLLF,PCA,1,inf\n", 3,
                     "repeat 1 of cell LLF,PCA has accuracy inf, not a finite value"),
    "accuracy-minus-inf": ("LLF,PCA,0,-inf\n", 2,
                           "repeat 0 of cell LLF,PCA has accuracy -inf, not a finite value"),
}


class TestRunsCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = str(tmp_path / "results.csv")
        write_runs_csv(ResultsTable(accuracies=RUNS), path)
        got = read_runs_csv(path).accuracies
        assert list(got) == list(RUNS)
        for key, accs in RUNS.items():
            assert np.array(got[key]).tobytes() == np.array(accs).tobytes()

    def test_chosen_values_are_not_written_or_read(self, tmp_path):
        plain, fitted = tmp_path / "plain.csv", tmp_path / "fitted.csv"
        write_runs_csv(ResultsTable(accuracies=RUNS), str(plain))
        chosen = {key: tuple({"C": 1.0} for _ in accs) for key, accs in RUNS.items()}
        write_runs_csv(ResultsTable(accuracies=RUNS, chosen=chosen), str(fitted))
        assert fitted.read_bytes() == plain.read_bytes()
        assert read_runs_csv(str(fitted)).chosen == {}

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "results.csv"
        write_runs_csv(ResultsTable(accuracies=RUNS), str(path))
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        got = read_runs_csv(str(path)).accuracies
        assert {key: np.array(a).tobytes() for key, a in got.items()} == {
            key: np.array(a).tobytes() for key, a in RUNS.items()}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(RUNS_HEADER + "LLF,NONE,0,0.5\n\nLLF,NONE,1,0.75\nLLF,NONE,mean,0.625\n\n")
        assert read_runs_csv(str(path)).accuracies == {("LLF", "NONE"): (0.5, 0.75)}

    @pytest.mark.parametrize("row, cause", [
        ("LLF,NONE,1", "not enough values to unpack"),
        ("LLF,NONE,1,0.5,7", "too many values to unpack"),
        ("LLF,NONE,1,abc", "could not convert string to float: 'abc'"),
        ("LLF,NONE,one,0.5", "invalid literal for int"),
        ("LLF,NONE,mean,abc", "could not convert string to float: 'abc'"),
    ])
    def test_malformed_row_names_path_and_line(self, tmp_path, row, cause):
        path = tmp_path / "results.csv"
        path.write_text(RUNS_HEADER + "LLF,NONE,0,0.5\n\n" + row + "\n")
        message = rf"{re.escape(str(path))}:4: malformed row '{row}': {cause}"
        with pytest.raises(ValueError, match=message):
            read_runs_csv(str(path))

    @pytest.mark.parametrize("rows, line, message", BAD_RUNS.values(), ids=BAD_RUNS)
    def test_inconsistent_results_name_path_and_line(self, tmp_path, rows, line, message):
        path = tmp_path / "results.csv"
        path.write_text(RUNS_HEADER + rows)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ") + ".*"
                           + re.escape(message)):
            read_runs_csv(str(path))

    def test_bad_header_names_path(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("method,accuracy\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:1: unexpected header"):
            read_runs_csv(str(path))

    @pytest.mark.parametrize("rest", ["", "\n\n"], ids=["header-only", "blank-lines"])
    def test_no_result_rows_names_path(self, tmp_path, rest):
        path = tmp_path / "results.csv"
        path.write_text(RUNS_HEADER + rest)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: no result rows$"):
            read_runs_csv(str(path))


# Blank cells in a present row, a one-repeat cell (std 0), and no t-test row
PINNED = ResultsTable(accuracies={("LLF", "NONE"): (0.75, 0.85), ("SEMI_SAEF", "NONE"): (0.625,),
                                  ("LLF", "PCA"): (0.5, 0.7, 0.9),
                                  ("LLF_SAEF", "LASSO"): (2 / 3, 0.8)})
PINNED_HEADERS = "LLF,LLF+SAEF,LLF+semi-SAEF,SAEF,semi-SAEF"


class TestRenderedOutput:
    """The exact bytes of the rendered tables and of results.csv's summary rows."""

    def test_text_table(self):
        assert render_table(PINNED, "text") == (
            "Mean accuracy (%) over repeats\n"
            "\n"
            "                  LLF       LLF+SAEF  LLF+semi-SAEF           SAEF      semi-SAEF\n"
            "No FS            80.0                                                        62.5\n"
            "Lasso                           73.3\n"
            "PCA              70.0\n"
            "\n"
            "Std dev (%) across repeats (extension)\n"
            "No FS             7.1                                                         0.0\n"
            "Lasso                            9.4\n"
            "PCA              20.0\n")

    def test_csv_table(self):
        assert render_table(PINNED, "csv") == (
            f"selector,{PINNED_HEADERS}\n"
            "No FS,80.0,,,,62.5\n"
            "Lasso,,73.3,,,\n"
            "PCA,70.0,,,,\n"
            "\n"
            "std dev (%) across repeats (extension)\n"
            f"selector,{PINNED_HEADERS}\n"
            "No FS,7.1,,,,0.0\n"
            "Lasso,,9.4,,,\n"
            "PCA,20.0,,,,\n")

    def test_runs_csv_summary_rows(self, tmp_path):
        path = tmp_path / "results.csv"
        write_runs_csv(PINNED, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[-8:] == [
            "LLF,NONE,mean,0.80000000000000004",
            "LLF,NONE,std,0.070710678118654738",
            "SEMI_SAEF,NONE,mean,0.625",
            "SEMI_SAEF,NONE,std,0",
            "LLF,PCA,mean,0.70000000000000007",
            "LLF,PCA,std,0.20000000000000001",
            "LLF_SAEF,LASSO,mean,0.73333333333333339",
            "LLF_SAEF,LASSO,std,0.094280904158206405",
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format 'html'"):
            render_table(PINNED, "html")


class TestRunExperiment:
    @pytest.fixture(params=["fork", "spawn"])
    def start_method(self, request, monkeypatch):
        # a spawned worker inherits nothing, so it must get all it needs
        # through its calls, as under Python 3.14's forkserver default
        context = multiprocessing.get_context(request.param)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            partial(concurrent.futures.ProcessPoolExecutor, mp_context=context))

    def test_jobs_do_not_change_results(self, start_method):
        ds = generate_synthetic(TINY_DATA)
        specs = [PipelineSpec("LLF"), PipelineSpec("SEMI_SAEF"), PipelineSpec("LLF", "LASSO")]
        serial = run_experiment(ds, specs, TINY)
        pooled = run_experiment(ds, specs, TINY, jobs=2)
        assert pooled.accuracies == serial.accuracies
        assert pooled.chosen == serial.chosen

    def test_stage_error_is_the_same_under_a_pool(self, start_method):
        # a constant column fails the standardize stage of every repeat; the
        # pool replaces the error's cause with its remote traceback
        ds = generate_synthetic(replace(TINY_DATA, n_unlabeled=0))
        X = ds.features.copy()
        X[:, 2] = 1.0
        ds = Dataset(X, ds.labels, ds.feature_names)
        errors = []
        for jobs in (1, 2):
            with pytest.raises(PipelineStageError) as info:
                run_experiment(ds, [PipelineSpec("LLF")], TINY, jobs=jobs)
            errors.append((type(info.value), info.value.stage, str(info.value)))
        assert errors[0] == errors[1]
        assert errors[0][1:] == ("standardize", "pipeline stage 'standardize' failed: column "
                                 "'f2' (index 2) is constant over the given rows")

    # CPython forks all of a pool's workers on its first submit, and each is
    # a whole Python process, so a worker without a repeat costs memory
    @pytest.mark.parametrize("jobs, repeats, workers",
                             [(8, 3, [3]), (2, 3, [2]), (8, 1, []), (np.int64(2), 3, [2])])
    def test_pool_has_at_most_one_worker_per_repeat(self, monkeypatch, jobs, repeats, workers):
        pools = []

        class RecordingPool:
            """Records its worker count and runs the repeats in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_run_repeat",
                            lambda ds, specs, cfg, r, split: [({"C": r}, 0.5)] * len(specs))
        results = run_experiment(generate_synthetic(TINY_DATA), [PipelineSpec("LLF")],
                                 replace(TINY, repeats=repeats), jobs=jobs)
        assert pools == workers
        assert results.accuracies[("LLF", "NONE")] == (0.5,) * repeats
        assert results.chosen[("LLF", "NONE")] == tuple({"C": r} for r in range(repeats))

    @pytest.fixture
    def no_fits(self, monkeypatch):
        def fail(repeat, spec):
            raise AssertionError(f"{spec} was fitted")
        monkeypatch.setattr(harness, "run_pipeline", fail)

    @pytest.mark.parametrize("specs, jobs, message", [
        ([], 1, "specs must be nonempty"),
        ([PipelineSpec("LLF")], 0, "jobs must be >= 1"),
        ([PipelineSpec("LLF")], -3, "jobs must be >= 1"),
        ([PipelineSpec("LLF")], 2.5, "jobs must be an integer, got 2.5"),
        ([PipelineSpec("LLF")], 1.0, "jobs must be an integer, got 1.0"),
        ([PipelineSpec("LLF")], "2", "jobs must be an integer, got '2'"),
        ([PipelineSpec("LLF")], True, "jobs must be an integer, got True"),
        ([PipelineSpec("LLF")], None, "jobs must be an integer, got None"),
        ([PipelineSpec("LLF")] * 2, 1, "cell LLF,NONE is repeated in specs"),
        ([PipelineSpec("LLF_SAEF", "LASSO"), PipelineSpec("LLF"),
          PipelineSpec("LLF_SAEF", "LASSO")], 1, "cell LLF_SAEF,LASSO is repeated in specs"),
        ([PipelineSpec("LLF"), PipelineSpec("SAEF"), PipelineSpec("SAEF"), PipelineSpec("LLF")],
         1, "cell SAEF,NONE is repeated in specs"),
    ])
    def test_bad_arguments_rejected_before_any_fit(self, no_fits, specs, jobs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_experiment(generate_synthetic(TINY_DATA), specs, TINY, jobs=jobs)

    @pytest.mark.parametrize("dims", [(6, 2), (4, 4), (7,)])
    def test_sae_dims_checked_before_any_fit(self, no_fits, dims):
        ds = generate_synthetic(TINY_DATA)
        specs = [PipelineSpec("LLF"), PipelineSpec("SAEF")]
        with pytest.raises(ValueError, match="decrease strictly"):
            run_experiment(ds, specs, replace(TINY, sae_dims=dims))

    def test_sae_dims_checked_before_the_k_check(self, no_fits):
        ds = generate_synthetic(TINY_DATA)
        with pytest.raises(ValueError, match="decrease strictly"):
            run_experiment(ds, [PipelineSpec("SAEF")], replace(TINY, k=17, sae_dims=(4, 4)))

    def test_sae_dims_checked_once_per_run(self, monkeypatch):
        """The widths depend on no split, so more repeats add no check."""
        cfg, calls = replace(TINY, repeats=3), []
        monkeypatch.setattr(harness, "check_dims", lambda *args: calls.append(args))
        monkeypatch.setattr(harness, "_run_repeat", lambda *args: [({}, 1.0)])
        run_experiment(generate_synthetic(TINY_DATA), [PipelineSpec("SAEF")], cfg)
        assert calls == [(6, (4, 2))]

    def test_sae_dims_unchecked_without_sae_cells(self):
        ds = generate_synthetic(TINY_DATA)
        run_experiment(ds, [PipelineSpec("LLF")], replace(TINY, sae_dims=(60, 15)))

    def test_k_checked_against_smaller_training_class_before_any_fit(self, no_fits):
        # 20 labeled rows per class, 4 of each in the test split: 16 for training
        ds = generate_synthetic(TINY_DATA)
        with pytest.raises(ValueError, match="k=17 exceeds the 16 training rows"):
            run_experiment(ds, [PipelineSpec("LLF")], replace(TINY, k=17))

    def test_t_test_fold_with_one_row_of_a_class_rejected_before_any_fit(self, no_fits):
        """3 class-0 rows leave 2 for training; k = 2 folds train on 1 of them,
        where two_sample_t would fail after the LLF cell had run."""
        ds = generate_synthetic(SyntheticSpec(3, 12, 0, 6, 2, 1.0, 0.0, seed=0))
        specs = [PipelineSpec("LLF"), PipelineSpec("LLF", "TTEST")]
        with pytest.raises(ValueError, match=r"^k=2 folds leave 1 of the smaller class's m=2 "
                                             r"training rows .* the t-test needs 2$"):
            run_experiment(ds, specs, ExperimentConfig(repeats=1, k=2))

    def test_t_test_fold_check_leaves_other_cells_alone(self):
        ds = generate_synthetic(SyntheticSpec(3, 12, 0, 6, 2, 1.0, 0.0, seed=0))
        results = run_experiment(ds, [PipelineSpec("LLF")], ExperimentConfig(repeats=1, k=2))
        assert results.accuracies[("LLF", "NONE")] == (0.6666666666666666,)

    @pytest.mark.parametrize("n0, k", [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (8, 5)])
    def test_t_test_fold_check_matches_kfold(self, n0, k):
        """A t-test cell is refused exactly when one of kfold's folds trains
        on fewer than 2 rows of a class (n0 - round(n0 / 5) class-0 rows)."""
        ds = generate_synthetic(SyntheticSpec(n0, 12, 0, 6, 2, 1.0, 0.0, seed=0))
        cfg = ExperimentConfig(repeats=1, k=k)
        ytr = ds.labels[_checked_split(ds, [PipelineSpec("LLF")], cfg, 0).train]
        short = any(np.count_nonzero(ytr[mask] == c) < 2
                    for mask, _ in kfold(ytr, k, seed=0) for c in (0, 1))
        with pytest.raises(ValueError, match="the t-test needs 2") if short else nullcontext():
            _checked_split(ds, [PipelineSpec("LLF", "TTEST")], cfg, 0)

    def test_k_equal_to_smaller_training_class_runs(self):
        ds = generate_synthetic(replace(TINY_DATA, n1=10))
        results = run_experiment(ds, [PipelineSpec("LLF")], replace(TINY, k=8, repeats=1))
        assert len(results.accuracies[("LLF", "NONE")]) == 1
