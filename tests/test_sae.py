import numpy as np
import pytest

from featlearn.sae import (TrainConfig, TrainingDivergedError, ae_train, fine_tune,
                           sae_pretrain, semi_pretrain_finetune, sigmoid)


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
            fine_tune(layers, X, labels, TrainConfig(learning_rate=1e300, iterations=5))


class TestSemiPretrainFinetune:
    @pytest.mark.parametrize("empty", [np.empty((0, 6)), np.empty(0)])
    def test_no_unlabeled_rows_is_the_supervised_fit(self, empty):
        X, labels = _labeled(1)
        cfg = TrainConfig(learning_rate=0.5, iterations=20, l2=1e-3, seed=7)
        supervised = fine_tune(sae_pretrain(X, (4, 2), cfg), X, labels, cfg)
        semi = semi_pretrain_finetune(X, labels, empty, (4, 2), cfg)
        assert _model_bytes(semi) == _model_bytes(supervised)

    def test_unlabeled_rows_change_the_fit(self):
        X, labels = _labeled(1)
        cfg = TrainConfig(learning_rate=0.5, iterations=20, seed=7)
        extra = np.random.default_rng(2).normal(size=(10, 6))
        supervised = semi_pretrain_finetune(X, labels, np.empty((0, 6)), (4, 2), cfg)
        assert _model_bytes(semi_pretrain_finetune(X, labels, extra, (4, 2), cfg)) != \
            _model_bytes(supervised)
