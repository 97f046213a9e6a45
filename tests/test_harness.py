import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from featlearn import harness
from featlearn.data import Dataset, SyntheticSpec, derive_seed, generate_synthetic, kfold
from featlearn.harness import (_TAG_SAE, ExperimentConfig, PipelineSpec, ResultsTable,
                               _fit_pca_selector, _fit_sae_stage, _make_split, _RepeatFits,
                               config_to_text, parse_config, read_runs_csv, run_experiment,
                               write_runs_csv)
from featlearn.sae import TrainConfig, sae_predict, semi_pretrain_finetune
from harness_reference import per_fold_pca_search

TINY_DATA = SyntheticSpec(n0=20, n1=20, n_unlabeled=10, p=6, s=2, delta=1.0, rho=0.2, seed=0)
TINY = ExperimentConfig(repeats=2, k=3, sae_dims=(4, 2), sae_iterations=5)


def _per_l2_reference(Xtr, ytr01, X_extra, folds, cfg, seed):
    """The L2 search with the candidate loop outside the fold loop: every
    fold is pretrained afresh for every L2."""
    base = dict(learning_rate=cfg.sae_learning_rate, iterations=cfg.sae_iterations)
    n = Xtr.shape[0]
    grid = sorted(cfg.l2_grid)
    best_l2, best_acc = grid[0], -1.0
    for l2 in grid:
        score = 0.0
        for f, val in enumerate(folds):
            mask = np.ones(n, dtype=bool)
            mask[val] = False
            model = semi_pretrain_finetune(
                Xtr[mask], ytr01[mask], X_extra, cfg.sae_dims,
                TrainConfig(l2=l2, seed=derive_seed(seed, _TAG_SAE, f), **base))
            score += float(np.mean(sae_predict(model, Xtr[val]) == ytr01[val]))
        if score > best_acc:
            best_l2, best_acc = l2, score
    final = semi_pretrain_finetune(
        Xtr, ytr01, X_extra, cfg.sae_dims,
        TrainConfig(l2=best_l2, seed=derive_seed(seed, _TAG_SAE, len(folds)), **base))
    return final, best_l2


class TestFitSaeStage:
    # Over these seeds the reference picks each of the three L2 values at
    # least once, so the choice itself is under test, not only the final fit.
    @pytest.mark.parametrize("semi", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_l2_pretraining(self, seed, semi):
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
        want, want_l2 = _per_l2_reference(X, y, X_extra, folds, cfg, seed)
        assert got_l2 == want_l2
        for a, b in zip(got.layers, want.layers, strict=True):
            for name in ("W", "b", "d_bias"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert got.softmax_W.tobytes() == want.softmax_W.tobytes()
        assert got.softmax_b.tobytes() == want.softmax_b.tobytes()


class TestFitPcaSelector:
    # The LLF features of an adni-like repeat. At k=10 the folds train on
    # 231, 232 and 233 rows, so each row count stacks several folds' scores;
    # at k=3 on 171, 172 and 173, one fold each. Over these seeds the
    # reference chooses r = 40, 30, 30 and 5.
    @pytest.mark.parametrize("seed, k", [(0, 10), (1, 10), (2, 3), (3, 3)])
    def test_matches_per_fold_reference(self, seed, k):
        ds = generate_synthetic(SyntheticSpec.adni_like(seed))
        cfg = ExperimentConfig(k=k)
        repeat = _RepeatFits(ds, _make_split(ds, cfg, seed), [], cfg, seed)
        _, _, ytr01, folds = repeat._train
        F = repeat._method_stage(PipelineSpec("LLF"))[2]
        _, chosen = _fit_pca_selector(F, ytr01, folds, cfg)
        assert chosen["r"] == per_fold_pca_search(F, ytr01, folds, cfg.pca_grid,
                                                  cfg.svm_cv_epochs)


class TestExperimentConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"svm_epochs": 0}, "svm_epochs and svm_cv_epochs must be >= 1"),
        ({"svm_cv_epochs": 0}, "svm_epochs and svm_cv_epochs must be >= 1"),
        ({"c_grid": (0.1, 0.0)}, "every C in c_grid must be > 0"),
        ({"c_grid": (-1.0,)}, "every C in c_grid must be > 0"),
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
    ])
    def test_bad_selector_and_sae_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)


class TestParseConfig:
    def test_unknown_key_names_line(self):
        with pytest.raises(ValueError, match="config line 3: unknown key 'bogus'"):
            parse_config("k = 3\n# comment\nbogus = 1\n")

    def test_round_trip_default(self):
        cfg = ExperimentConfig()
        assert parse_config(config_to_text(cfg)) == cfg

    def test_round_trip_non_default(self):
        cfg = ExperimentConfig(repeats=7, test_frac=0.3, stratify=False, sae_dims=(12, 4),
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
    arrays = [a for layer in model.layers for a in (layer.W, layer.b, layer.d_bias)]
    return [a.tobytes() for a in arrays + [model.softmax_W, model.softmax_b]]


class TestRepeatFits:
    def test_test_rows_never_reach_a_fit(self):
        ds = generate_synthetic(TINY_DATA)
        cfg = replace(TINY, sae_learning_rate=0.5, sae_iterations=10, c_grid=(0.1, 10.0),
                      n_lambdas=5, svm_epochs=100, svm_cv_epochs=30)
        split = _make_split(ds, cfg, 0)
        X = ds.features.copy()
        X[split.test] = np.random.default_rng(1).normal(scale=10.0, size=(split.test.size, ds.p))
        noisy = Dataset(X, ds.labels, ds.feature_names)
        clean_fits = _RepeatFits(ds, split, ds.unlabeled_indices(), cfg, 0)
        noisy_fits = _RepeatFits(noisy, split, noisy.unlabeled_indices(), cfg, 0)
        for spec in PipelineSpec.table_cells():
            clean, other = clean_fits.fit(spec), noisy_fits.fit(spec)
            assert other.chosen == clean.chosen, spec
            assert other.svm.w.tobytes() == clean.svm.w.tobytes(), spec
            assert other.svm.bias == clean.svm.bias, spec
            if spec.uses_sae:
                assert _sae_arrays(other.method_map.sae) == _sae_arrays(clean.method_map.sae)

    def test_shared_arrays_are_read_only(self):
        ds = generate_synthetic(TINY_DATA)
        fits = _RepeatFits(ds, _make_split(ds, TINY, 0), ds.unlabeled_indices(), TINY, 0)
        _, Xtr, ytr01, folds = fits._train
        Ftr = fits._method_stage(PipelineSpec("SAEF"))[2]
        for shared in (Xtr, ytr01, folds[0], Ftr):
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
}


class TestRunsCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = str(tmp_path / "results.csv")
        write_runs_csv(ResultsTable(accuracies=RUNS), path)
        got = read_runs_csv(path).accuracies
        assert list(got) == list(RUNS)
        for key, accs in RUNS.items():
            assert np.array(got[key]).tobytes() == np.array(accs).tobytes()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(RUNS_HEADER + "LLF,NONE,0,0.5\n\nLLF,NONE,1,0.75\nLLF,NONE,mean,0.625\n\n")
        assert read_runs_csv(str(path)).accuracies == {("LLF", "NONE"): (0.5, 0.75)}

    @pytest.mark.parametrize("row, cause", [
        ("LLF,NONE,1", "not enough values to unpack"),
        ("LLF,NONE,1,0.5,7", "too many values to unpack"),
        ("LLF,NONE,1,abc", "could not convert string to float: 'abc'"),
        ("LLF,NONE,one,0.5", "invalid literal for int"),
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


class TestRunExperiment:
    def test_jobs_do_not_change_results(self):
        ds = generate_synthetic(TINY_DATA)
        specs = [PipelineSpec("LLF"), PipelineSpec("SEMI_SAEF"), PipelineSpec("LLF", "LASSO")]
        serial = run_experiment(ds, specs, TINY)
        pooled = run_experiment(ds, specs, replace(TINY, jobs=2))
        assert pooled.accuracies == serial.accuracies

    def test_tasks_leave_the_dataset_out(self, monkeypatch):
        # a pool gets the dataset once per worker; each task holds the rest
        ds = generate_synthetic(SyntheticSpec.adni_like(0))
        sizes = []

        def record(data, task):
            assert data is ds
            sizes.append(len(pickle.dumps(task)))
            specs, _, r, _ = task
            return r, [0.5] * len(specs)

        monkeypatch.setattr(harness, "_run_repeat", record)
        run_experiment(ds, PipelineSpec.table_cells(), ExperimentConfig(repeats=3))
        assert len(sizes) == 3
        assert max(sizes) < len(pickle.dumps(ds)) / 10

    # CPython forks all of a pool's workers on its first submit, and each
    # worker gets the dataset, so a worker without a repeat costs memory
    @pytest.mark.parametrize("jobs, repeats, workers", [(8, 3, [3]), (2, 3, [2]), (8, 1, [])])
    def test_pool_has_at_most_one_worker_per_repeat(self, monkeypatch, jobs, repeats, workers):
        pools = []

        class RecordingPool:
            """Records its worker count and runs the tasks in this process."""

            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_worker_ds", None)
        monkeypatch.setattr(harness, "_run_repeat",
                            lambda ds, task: (task[2], [0.5] * len(task[0])))
        results = run_experiment(generate_synthetic(TINY_DATA), [PipelineSpec("LLF")],
                                 replace(TINY, jobs=jobs, repeats=repeats))
        assert pools == workers
        assert results.accuracies[("LLF", "NONE")] == (0.5,) * repeats

    @pytest.fixture
    def no_fits(self, monkeypatch):
        def fail(repeat, spec):
            raise AssertionError(f"{spec} was fitted")
        monkeypatch.setattr(harness, "run_pipeline", fail)

    @pytest.mark.parametrize("dims", [(6, 2), (4, 4), (7,)])
    def test_sae_dims_checked_before_any_fit(self, no_fits, dims):
        ds = generate_synthetic(TINY_DATA)
        specs = [PipelineSpec("LLF"), PipelineSpec("SAEF")]
        with pytest.raises(ValueError, match="decrease strictly"):
            run_experiment(ds, specs, replace(TINY, sae_dims=dims))

    def test_sae_dims_unchecked_without_sae_cells(self):
        ds = generate_synthetic(TINY_DATA)
        run_experiment(ds, [PipelineSpec("LLF")], replace(TINY, sae_dims=(60, 15)))

    def test_k_checked_against_smaller_training_class_before_any_fit(self, no_fits):
        # 20 labeled rows per class, 4 of each in the test split: 16 for training
        ds = generate_synthetic(TINY_DATA)
        with pytest.raises(ValueError, match="k=17 exceeds the 16 training rows"):
            run_experiment(ds, [PipelineSpec("LLF")], replace(TINY, k=17))

    def test_k_equal_to_smaller_training_class_runs(self):
        ds = generate_synthetic(replace(TINY_DATA, n1=10))
        results = run_experiment(ds, [PipelineSpec("LLF")], replace(TINY, k=8, repeats=1))
        assert len(results.accuracies[("LLF", "NONE")]) == 1
