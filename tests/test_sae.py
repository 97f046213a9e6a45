from dataclasses import replace

import numpy as np
import pytest

from featlearn.harness import ExperimentConfig
from featlearn.sae import (TrainConfig, TrainingDivergedError, ae_train, fine_tune,
                           sae_pretrain, semi_pretrain_finetune, sigmoid)
from sae_reference import ae_train_loop, fine_tune_loop


def _masked_sigmoid(x):
    """Reference: the positive and negative halves evaluated separately."""
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bit_equal_to_masked_form_on_random_arrays(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            shape = (int(rng.integers(1, 60)), int(rng.integers(1, 60)))
            x = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=shape)
            assert sigmoid(x).tobytes() == _masked_sigmoid(x).tobytes()

    @pytest.mark.parametrize("shape", [(500, 40), (515, 56), (1200, 60), (3, 232, 40)])
    def test_bit_equal_to_masked_form_on_training_sized_arrays(self, shape):
        x = np.random.default_rng(shape[0]).normal(scale=5.0, size=shape)
        assert sigmoid(x).tobytes() == _masked_sigmoid(x).tobytes()

    def test_out_buffer_and_in_place_give_the_same_bytes(self):
        x = np.random.default_rng(1).normal(scale=5.0, size=(515, 40))
        x[0, :4] = [np.inf, -np.inf, 0.0, -0.0]
        want = _masked_sigmoid(x).tobytes()
        out = np.full_like(x, np.nan)
        assert sigmoid(x, out=out) is out and out.tobytes() == want
        assert sigmoid(x, out=x) is x and x.tobytes() == want

    @pytest.mark.parametrize("x", [np.array([0, 1, -2]), 3, -800, [0.5, -1.0]])
    def test_integer_scalar_and_list_input(self, x):
        got = sigmoid(x)
        assert isinstance(got, np.ndarray) and got.tobytes() == _masked_sigmoid(x).tobytes()

    def test_bit_equal_to_masked_form_at_extremes(self):
        tiny = np.finfo(float).smallest_subnormal
        x = np.array([np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, tiny, -tiny,
                      1e-310, -1e-310, 709.0, -745.0, 36.7, -36.7])
        got = sigmoid(x)
        assert got.tobytes() == _masked_sigmoid(x).tobytes()
        assert got[0] == 1.0 and got[1] == 0.0 and got[2] == got[3] == 0.5


def _labeled(seed=0):
    X = np.random.default_rng(seed).normal(size=(30, 6))
    return X, (X[:, 0] + X[:, 1] > 0).astype(int)


def _model_bytes(model):
    arrays = [a for layer in model.layers for a in (layer.W, layer.b, layer.d_bias)]
    return [a.tobytes() for a in arrays + [model.softmax_W, model.softmax_b]]


class TestAeTrainMatchesReference:
    """``ae_train`` writes into reused buffers; the reference allocates every
    step anew. Both must give the same bytes."""

    @pytest.mark.parametrize("n, d, h, iterations", [(515, 56, 40, 60), (30, 6, 3, 150)])
    def test_bit_equal_to_reference_loop(self, n, d, h, iterations):
        X = np.random.default_rng(n).normal(size=(n, d))
        cfg = TrainConfig(learning_rate=0.05, iterations=iterations, seed=3)
        got, want = ae_train(X, h, cfg), ae_train_loop(X, h, cfg)
        for name in ("W", "b", "d_bias"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestFineTuneBlock:
    """Each model of a lockstep block must equal the one-L2 reference loop."""

    GRID = sorted(ExperimentConfig().l2_grid)

    @pytest.mark.parametrize("n", [232, 515], ids=["fold-sized", "semi-sized"])
    def test_default_grid_bit_equal_to_per_l2_loops(self, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 56))
        labels = (X[:, 0] - X[:, 3] + 0.5 * rng.normal(size=n) > 0).astype(int)
        cfg = TrainConfig(learning_rate=0.1, iterations=25, seed=9)
        layers = sae_pretrain(X, (40, 15), replace(cfg, iterations=10))
        models = fine_tune(layers, X, labels, cfg, self.GRID)
        assert len(models) == len(self.GRID)
        for l2, model in zip(self.GRID, models):
            want = fine_tune_loop(layers, X, labels, replace(cfg, l2=l2))
            assert _model_bytes(model) == _model_bytes(want), l2

    @pytest.mark.parametrize("l2", [0.0, 1e-2])
    def test_one_l2_fine_tune_bit_equal_to_reference_loop(self, l2):
        X, labels = _labeled(3)
        cfg = TrainConfig(learning_rate=0.5, iterations=40, l2=l2, seed=4)
        layers = sae_pretrain(X, (4, 1), cfg)
        got, = fine_tune(layers, X, labels, cfg, [l2])
        assert _model_bytes(got) == _model_bytes(fine_tune_loop(layers, X, labels, cfg))
        block = fine_tune(layers, X, labels, replace(cfg, l2=123.0), [1.0, l2])
        assert _model_bytes(block[1]) == _model_bytes(got)

    def test_block_raises_when_any_l2_diverges(self):
        X, labels = _labeled()
        cfg = TrainConfig(iterations=5)
        layers = sae_pretrain(X, (4, 2), cfg)
        fine_tune(layers, X, labels, cfg, [1e-4])  # trains on its own
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDivergedError, match="fine-tuning loss non-finite at iteration 0"):
            fine_tune(layers, X, labels, cfg, [1e-4, 1e308])

    @pytest.mark.parametrize("l2s", [[], [1e-3, -1e-4], [1e-3, np.inf], [np.nan]])
    def test_bad_l2_values_rejected(self, l2s):
        X, labels = _labeled()
        layers = sae_pretrain(X, (4, 2), TrainConfig(iterations=2))
        with pytest.raises(ValueError, match="l2s must be nonempty"):
            fine_tune(layers, X, labels, TrainConfig(), l2s)


class TestDivergence:
    def test_ae_train_raises_at_huge_learning_rate(self):
        X, _ = _labeled()
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDivergedError, match="non-finite at iteration 1"):
            ae_train(X, 3, TrainConfig(learning_rate=1e300, iterations=5))

    def test_fine_tune_raises_at_huge_learning_rate(self):
        X, labels = _labeled()
        layers = sae_pretrain(X, (4, 2), TrainConfig(iterations=5))
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDivergedError, match="fine-tuning loss non-finite at iteration 1"):
            fine_tune(layers, X, labels, TrainConfig(learning_rate=1e300, iterations=5), [0.0])

    def test_block_raises_at_huge_learning_rate(self):
        X, labels = _labeled()
        layers = sae_pretrain(X, (4, 2), TrainConfig(iterations=5))
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDivergedError, match="fine-tuning loss non-finite at iteration 1"):
            fine_tune(layers, X, labels, TrainConfig(learning_rate=1e300, iterations=5),
                      sorted(ExperimentConfig().l2_grid))


class TestSemiPretrainFinetune:
    @pytest.mark.parametrize("empty", [np.empty((0, 6)), np.empty(0)])
    def test_no_unlabeled_rows_is_the_supervised_fit(self, empty):
        X, labels = _labeled(1)
        cfg = TrainConfig(learning_rate=0.5, iterations=20, seed=7)
        supervised, = fine_tune(sae_pretrain(X, (4, 2), cfg), X, labels, cfg, [1e-3])
        semi, = semi_pretrain_finetune(X, labels, empty, (4, 2), cfg, [1e-3])
        assert _model_bytes(semi) == _model_bytes(supervised)

    def test_unlabeled_rows_change_the_fit(self):
        X, labels = _labeled(1)
        cfg = TrainConfig(learning_rate=0.5, iterations=20, seed=7)
        extra = np.random.default_rng(2).normal(size=(10, 6))
        supervised, = semi_pretrain_finetune(X, labels, np.empty((0, 6)), (4, 2), cfg, [0.0])
        semi, = semi_pretrain_finetune(X, labels, extra, (4, 2), cfg, [0.0])
        assert _model_bytes(semi) != _model_bytes(supervised)

    @pytest.mark.parametrize("n_extra", [0, 10])
    def test_each_l2_of_a_list_bit_equal_to_its_one_l2_call(self, n_extra):
        X, labels = _labeled(2)
        extra = np.random.default_rng(3).normal(size=(n_extra, 6))
        cfg = TrainConfig(learning_rate=0.5, iterations=20, seed=5)
        l2s = [0.3, 0.0, 0.03]
        # cfg.l2 is not read: the list's models ignore a different one
        models = semi_pretrain_finetune(X, labels, extra, (4, 2), replace(cfg, l2=123.0), l2s)
        assert len(models) == len(l2s)
        for l2, model in zip(l2s, models):
            alone, = semi_pretrain_finetune(X, labels, extra, (4, 2), cfg, [l2])
            assert _model_bytes(model) == _model_bytes(alone), l2
