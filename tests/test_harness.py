import numpy as np
import pytest

from featlearn.data import Dataset, kfold
from featlearn.harness import _TAG_SAE, ExperimentConfig, _derive, _fit_sae_stage
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
