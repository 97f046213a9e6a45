import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from featlearn import sae
from featlearn.harness import ExperimentConfig
from featlearn.sae import (AeLayer, SaeModel, TrainConfig, TrainingDivergedError, ae_train,
                           check_dims, fine_tune, sae_features, sae_predict, sae_pretrain,
                           semi_pretrain_finetune, sigmoid)
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
    arrays = [a for layer in model.layers for a in (layer.W, layer.b)]
    return [a.tobytes() for a in arrays + [model.softmax_W, model.softmax_b]]


class TestAeTrainMatchesReference:
    """``ae_train`` writes into reused buffers; the reference allocates every
    step anew. Both must give the same bytes."""

    @pytest.mark.parametrize("n, d, h, iterations", [(515, 56, 40, 60), (30, 6, 3, 150)])
    def test_bit_equal_to_reference_loop(self, n, d, h, iterations):
        X = np.random.default_rng(n).normal(size=(n, d))
        cfg = TrainConfig(learning_rate=0.05, iterations=iterations, seed=3)
        got, want = ae_train(X, h, cfg), ae_train_loop(X, h, cfg)
        for name in ("W", "b"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestLayersAreEncoders:
    def test_a_layer_holds_its_encoder_weight_and_bias_only(self):
        assert [f.name for f in fields(AeLayer)] == ["W", "b"]

    def test_pretraining_encodes_every_layer_but_the_top(self, monkeypatch):
        # layer k + 1 trains on layer k's encodings; the top layer's train nothing
        trained_on, encoded = [], []
        encode = sae._encode

        def fixed_layer(X, h, cfg):
            trained_on.append(X)
            return AeLayer(W=np.full((h, X.shape[1]), 0.1 * h), b=np.full(h, -0.2))

        def counted_encode(X, W, b, out=None):
            encoded.append(X.shape)
            return encode(X, W, b, out)

        monkeypatch.setattr(sae, "ae_train", fixed_layer)
        monkeypatch.setattr(sae, "_encode", counted_encode)
        X = _labeled()[0]
        layers = sae_pretrain(X, (4, 3, 2), TrainConfig())
        assert [layer.W.shape for layer in layers] == [(4, 6), (3, 4), (2, 3)]
        assert encoded == [(30, 6), (30, 4)]
        assert trained_on[0].tobytes() == X.tobytes()
        for below, rows, above in zip(layers, trained_on, trained_on[1:]):
            assert above.tobytes() == encode(rows, below.W, below.b).tobytes()


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

    def test_one_backward_pass_per_step_and_a_forward_pass_to_end(self, monkeypatch):
        X, labels = _labeled()
        cfg = TrainConfig(iterations=4)
        layers = sae_pretrain(X, (4, 2), cfg)
        want = fine_tune(layers, X, labels, cfg, [1e-3, 0.0])
        calls = []
        for name in ("_ft_forward", "_ft_value_and_grads"):
            monkeypatch.setattr(sae, name, lambda *args, f=getattr(sae, name), name=name:
                                calls.append(name) or f(*args))
        got = fine_tune(layers, X, labels, cfg, [1e-3, 0.0])
        assert calls == ["_ft_value_and_grads", "_ft_forward"] * 4 + ["_ft_forward"]
        assert [_model_bytes(m) for m in got] == [_model_bytes(m) for m in want]

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

    def test_ae_train_raises_after_its_last_iteration(self):
        # the one step's loss is finite; the loss it leaves is not
        X, _ = _labeled()
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDivergedError, match="^reconstruction loss non-finite after iteration 1$"):
            ae_train(X, 3, TrainConfig(learning_rate=1e300, iterations=1))

    def test_fine_tune_raises_after_its_last_iteration(self):
        # the one step's loss is finite; the loss it leaves is not
        X, labels = _labeled()
        layers = sae_pretrain(X, (4, 2), TrainConfig(iterations=5))
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDivergedError, match="^fine-tuning loss non-finite after iteration 1$"):
            fine_tune(layers, X, labels, TrainConfig(learning_rate=1e300, iterations=1), [0.0])

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
    def test_no_unlabeled_rows_is_the_supervised_fit(self):
        X, labels = _labeled(1)
        cfg = TrainConfig(learning_rate=0.5, iterations=20, seed=7)
        supervised, = fine_tune(sae_pretrain(X, (4, 2), cfg), X, labels, cfg, [1e-3])
        semi, = semi_pretrain_finetune(X, labels, np.empty((0, 6)), (4, 2), cfg, [1e-3])
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


def _zero_model():
    """A 6 -> 3 model of zeros with its 2 x 3 softmax head."""
    return SaeModel(layers=(AeLayer(W=np.zeros((3, 6)), b=np.zeros(3)),),
                    softmax_W=np.zeros((2, 3)), softmax_b=np.zeros(2))


def _two_layers():
    """A 6 -> 4 -> 2 stack, trained for two steps on ``_labeled`` rows."""
    return sae_pretrain(_labeled()[0], (4, 2), TrainConfig(iterations=2))


class TestProducedModels:
    """``AeLayer`` and ``SaeModel`` keep their values' shapes unchecked, so
    the shapes are checked here, where ``semi_pretrain_finetune`` makes the
    values through ``ae_train`` and ``fine_tune``."""

    @pytest.mark.parametrize("dims", [(4, 2), (3,)], ids=["4-2", "3"])
    @pytest.mark.parametrize("n_unlabeled", [0, 9], ids=["no-unlabeled", "unlabeled"])
    def test_layers_are_undercomplete_and_chain_under_a_two_output_head(self, dims,
                                                                        n_unlabeled):
        X, y = _labeled()
        X_unlabeled = np.random.default_rng(4).normal(size=(n_unlabeled, X.shape[1]))
        models = semi_pretrain_finetune(X, y, X_unlabeled, dims, TrainConfig(iterations=3),
                                        [0.0, 1e-3, 1e-1])
        widths = [X.shape[1], *dims]
        assert len(models) == 3
        for model in models:
            assert [layer.W.shape for layer in model.layers] == list(zip(widths[1:], widths))
            assert all(layer.h < layer.d and layer.b.shape == (layer.h,)
                       for layer in model.layers)
            assert model.softmax_W.shape == (2, dims[-1]) and model.softmax_b.shape == (2,)
            arrays = [a for layer in model.layers for a in (layer.W, layer.b)]
            assert not any(a.flags.writeable for a in arrays + [model.softmax_W, model.softmax_b])

    def test_an_infinite_bias_leaves_the_loss_finite_and_the_layer_refuses_it(self):
        """Why ``AeLayer`` keeps its finiteness check: sigmoid(+inf) is 1, so
        the reconstruction loss, the only check during training, stays finite."""
        rng = np.random.default_rng(0)
        X, W = rng.normal(size=(8, 5)), rng.normal(size=(3, 5))
        b = np.array([np.inf, 0.0, 0.0])
        assert np.isfinite(sae._ae_forward(W, b, np.zeros(5), X, sae._Work())[0])
        with pytest.raises(ValueError, match="^layer parameters must be finite$"):
            AeLayer(W=W, b=b)


class TestRefusals:
    @pytest.mark.parametrize("make, message", [
        (lambda: AeLayer(W=np.zeros((2, 4)), b=[0.0, np.nan]), "layer parameters must be finite"),
        # numpy's generator refuses the seed at a training call's first draw
        (lambda: ae_train(np.eye(3), 1, TrainConfig(seed=-1)), ValueError),
        (lambda: TrainConfig(l2=-1.0), "l2 must be >= 0 and finite"),
        (lambda: TrainConfig(l2=math.inf), "l2 must be >= 0 and finite"),
        (lambda: TrainConfig(l2=10**400), f"l2 must be a number, got {10**400}"),
        (lambda: TrainConfig(learning_rate=10**400),
         f"learning_rate must be a number, got {10**400}"),
        (lambda: TrainConfig(iterations=2.5), "iterations must be an integer, got 2.5"),
        (lambda: TrainConfig(iterations=True), "iterations must be an integer, got True"),
        (lambda: TrainConfig(seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: TrainConfig(learning_rate=True), "learning_rate must be a number, got True"),
    ], ids=["ae-non-finite", "negative-seed", "negative-l2", "infinite-l2", "l2-past-float-range",
            "learning-rate-past-float-range", "iterations-float", "iterations-bool", "seed-float",
            "learning-rate-bool"])
    def test_bad_model_or_config_rejected(self, make, message):
        typed = isinstance(message, type)  # the refusal of numpy, Python or another check
        with pytest.raises(message if typed else ValueError,
                           match=None if typed else f"^{re.escape(message)}$"):
            make()

    def test_numpy_numbers_are_stored_as_plain_numbers(self):
        cfg = TrainConfig(learning_rate=np.float32(0.5), iterations=np.int64(3), l2=np.int32(0),
                          seed=np.uint8(7))
        assert cfg == TrainConfig(learning_rate=0.5, iterations=3, l2=0.0, seed=7)
        assert [type(getattr(cfg, f.name)) for f in fields(cfg)] == [float, int, float, int]

    @pytest.mark.parametrize("call, message", [
        (lambda X, y: ae_train(X[:0], 3, TrainConfig()), ZeroDivisionError),  # the mean loss
        (lambda X, y: ae_train(X, 6, TrainConfig()),
         "hidden size must satisfy 1 <= h < d=6, got 6"),
        (lambda X, y: ae_train(X, 0, TrainConfig()),
         "hidden size must satisfy 1 <= h < d=6, got 0"),
        (lambda X, y: sae_features(_zero_model(), X[:, :5]),
         "expected 6 columns, got 5"),
        (lambda X, y: sae_features(_zero_model(), X[0]),
         "X must be 2-D, got shape (6,)"),
        (lambda X, y: sae_features(_zero_model(), np.zeros((2, 6, 6))),
         "X must be 2-D, got shape (2, 6, 6)"),
        (lambda X, y: sae_predict(_zero_model(), X[0]),
         "X must be 2-D, got shape (6,)"),
        (lambda X, y: sae_predict(_zero_model(), np.zeros((2, 6, 6))),
         "X must be 2-D, got shape (2, 6, 6)"),
        (lambda X, y: check_dims(6, []), IndexError),
        (lambda X, y: check_dims(6, [3.7]), "dims must be integers, got [3.7]"),
        (lambda X, y: check_dims(6, [True]), "dims must be integers, got [True]"),
        (lambda X, y: check_dims(6, ["3"]), "dims must be integers, got ['3']"),
        (lambda X, y: sae_pretrain(X, [3.7], TrainConfig()), "dims must be integers, got [3.7]"),
        (lambda X, y: fine_tune(_two_layers(), X, y, TrainConfig(), [10**400]),
         f"l2s must be numbers, got [{10**400}]"),
        (lambda X, y: semi_pretrain_finetune(X, y, X[:0], (4, 2), TrainConfig(iterations=2),
                                             [1e-3, 10**400]),
         f"l2s must be numbers, got [0.001, {10**400}]"),
        (lambda X, y: fine_tune(_two_layers(), X, y[1:], TrainConfig(), [0.0]),
         "labels must have shape (30,), got (29,)"),
        (lambda X, y: fine_tune(_two_layers(), X, 2 * y, TrainConfig(), [0.0]),
         "labels must be 0 or 1"),
        (lambda X, y: fine_tune(_two_layers(), X, np.where(y == 0, 0.7, 1.0), TrainConfig(), [0.0]),
         "labels must be 0 or 1"),
        (lambda X, y: fine_tune(_two_layers(), X, np.where(y == 1, 1.5, 0.0), TrainConfig(), [0.0]),
         "labels must be 0 or 1"),
        (lambda X, y: semi_pretrain_finetune(X, np.where(y == 0, 0.7, 1.0), X[:0], (4, 2),
                                             TrainConfig(), [0.0]),
         "labels must be 0 or 1"),
        (lambda X, y: semi_pretrain_finetune(X, np.where(y == 1, 1.5, 0.0), X[:0], (4, 2),
                                             TrainConfig(), [0.0]),
         "labels must be 0 or 1"),
        (lambda X, y: fine_tune(_two_layers(), X[:, :5], y, TrainConfig(), [0.0]),
         "expected 6 columns, got 5"),
        (lambda X, y: fine_tune([], X, y, TrainConfig(), [0.0]), IndexError),
        (lambda X, y: fine_tune(_two_layers(), X[0], y, TrainConfig(), [0.0]),
         "X must be 2-D, got shape (6,)"),
        (lambda X, y: ae_train(X[0], 1, TrainConfig()), "X must be 2-D, got shape (6,)"),
        (lambda X, y: sae_pretrain(X[0], [2], TrainConfig()), "X must be 2-D, got shape (6,)"),
        (lambda X, y: sae_pretrain(X[None], [2], TrainConfig()),
         "X must be 2-D, got shape (1, 30, 6)"),
        # feature_rows refuses the unlabeled rows
        (lambda X, y: semi_pretrain_finetune(X, y, X[:4, :5], (4, 2), TrainConfig(), [0.0]),
         ValueError),
        (lambda X, y: semi_pretrain_finetune(X, y, np.empty(0), (4, 2), TrainConfig(), [0.0]),
         ValueError),
    ], ids=["ae-train-no-rows", "ae-train-h-equals-d", "ae-train-h-zero", "sae-features-width",
            "sae-features-1-d", "sae-features-3-d", "sae-predict-1-d", "sae-predict-3-d",
            "check-dims-empty", "check-dims-float", "check-dims-bool", "check-dims-str",
            "pretrain-dims-float", "fine-tune-l2-past-float-range", "semi-l2-past-float-range",
            "fine-tune-label-count", "fine-tune-label-value",
            "fine-tune-label-0.7", "fine-tune-label-1.5", "semi-label-0.7", "semi-label-1.5",
            "fine-tune-width", "fine-tune-no-layers", "fine-tune-1-d", "ae-train-1-d",
            "pretrain-1-d", "pretrain-3-d", "semi-widths-differ",
            "semi-unlabeled-1-d"])
    def test_bad_input_rejected(self, call, message):
        X, y = _labeled()
        typed = isinstance(message, type)  # the refusal of numpy, Python or another check
        with pytest.raises(message if typed else ValueError,
                           match=None if typed else f"^{re.escape(message)}$"):
            call(X, y)

    @pytest.mark.parametrize("h", [True, 2.5])
    def test_ae_train_hidden_size_must_be_an_integer(self, h):
        """A bool or a non-integer hidden size is refused by name."""
        X, _ = _labeled()
        cfg = TrainConfig(iterations=2)
        with pytest.raises(ValueError, match=f"^h must be an integer, got {h!r}$"):
            ae_train(X, h, cfg)
        assert ae_train(X, np.int64(3), cfg).W.tobytes() == ae_train(X, 3, cfg).W.tobytes()

    def test_check_dims_takes_numpy_integers_as_ints(self):
        dims = check_dims(6, np.array([4, 2]))
        assert dims == [4, 2] and all(type(h) is int for h in dims)
