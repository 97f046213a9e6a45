from dataclasses import replace

import numpy as np
import pytest

from featlearn.data import Dataset, SyntheticSpec, generate_synthetic, kfold
from featlearn.harness import (_TAG_SAE, ExperimentConfig, PipelineSpec, _derive,
                               _fit_sae_stage, config_to_text, parse_config,
                               run_experiment)
from featlearn.sae import TrainConfig, sae_predict, semi_pretrain_finetune


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
                TrainConfig(l2=l2, seed=_derive(seed, _TAG_SAE, f), **base))
            score += float(np.mean(sae_predict(model, Xtr[val]) == ytr01[val]))
        if score > best_acc:
            best_l2, best_acc = l2, score
    final = semi_pretrain_finetune(
        Xtr, ytr01, X_extra, cfg.sae_dims,
        TrainConfig(l2=best_l2, seed=_derive(seed, _TAG_SAE, len(folds)), **base))
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
        folds = kfold(np.arange(n), Dataset.from_arrays(X, y), 3, seed)
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


class TestRunExperiment:
    def test_jobs_do_not_change_results(self):
        ds = generate_synthetic(SyntheticSpec(n0=20, n1=20, n_unlabeled=10, p=6, s=2,
                                              delta=1.0, rho=0.2, seed=0))
        specs = [PipelineSpec("LLF"), PipelineSpec("SEMI_SAEF"), PipelineSpec("LLF", "LASSO")]
        cfg = ExperimentConfig(repeats=2, k=3, sae_dims=(4, 2), sae_iterations=5)
        serial = run_experiment(ds, specs, cfg)
        pooled = run_experiment(ds, specs, replace(cfg, jobs=2))
        assert pooled.accuracies == serial.accuracies
