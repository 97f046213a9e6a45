"""Tied-weight undercomplete auto-encoders: greedy layerwise stacking, a
two-output softmax head, joint fine-tuning with cross-entropy + L2, and a
semi-supervised pretraining variant that also consumes unlabeled rows.

Encoder: h = sigmoid(b + W x), computed by ``_encode`` alone and kept as an
``AeLayer``; decoder, in ``ae_train`` alone: xhat = d_bias + W^T h (tied W).
Training is full-batch gradient descent; gradients are per-sample averages
so that the default learning rate is stable regardless of sample count.
All training is a pure function of (inputs, cfg.seed).

Three things make training cheap without changing a bit of its results.
``sigmoid`` divides max(e, [x >= 0]) by 1 + e, with e = exp(-|x|): the
numerator is 1 where x >= 0 and e elsewhere, the same IEEE division as the
two-sided form, with no choice per element. Each training call writes its
row-sized arrays into buffers made once per call (``_Work``), with the same
operations in the same operand order. ``fine_tune`` trains the L2 values
of one search as a stack, one L2 being a stack of one: a stacked
``np.matmul`` makes the same BLAS call per slice as the 2-D product, and
every other step is elementwise or reduces within a slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import _readonly, class_labels, derive_seed, feature_rows, plain_number, plain_numbers

# Fixed sub-stream tags for deriving per-stage RNG seeds from cfg.seed
_SEED_HEAD = 1
_SEED_LAYER_BASE = 100


class TrainingDivergedError(RuntimeError):
    """The training loss became non-finite."""


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)), overflow-safe across the full float range and
    branch-free (see the module docstring); ``out`` may be ``x`` itself."""
    x = np.asarray(x, dtype=float)
    pos = np.greater_equal(x, 0.0)
    e = np.abs(x, out=np.empty_like(x) if out is None else out)
    np.exp(np.negative(e, out=e), out=e)
    den = 1.0 + e
    return np.divide(np.maximum(e, pos, out=e), den, out=e)


@dataclass(frozen=True)
class AeLayer:
    """The encoder of one tied-weight auto-encoder: W is h x d with h < d and
    b the encoder bias, shape (h,); the decoder bias belongs to ``ae_train``.
    ``ae_train`` (its h check) and ``fine_tune`` (which keeps each layer's
    shapes) guarantee the shapes. Finiteness is checked: an infinite bias can
    leave ``_ae_forward``'s loss finite, so no loss check sees that fault."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("W", "b"):
            arr = _readonly(np.array(getattr(self, name), dtype=float))
            if not np.all(np.isfinite(arr)):
                raise ValueError("layer parameters must be finite")
            object.__setattr__(self, name, arr)

    @property
    def h(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class SaeModel:
    """Encoder layers with strictly decreasing dimensions plus a two-output
    softmax head on the top representation: 2 x h_top, with a length-2 bias.
    ``fine_tune`` guarantees all of it: it refuses an empty stack, trains
    only layers that chain, and makes the head."""

    layers: tuple[AeLayer, ...]
    softmax_W: np.ndarray
    softmax_b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "softmax_W", _readonly(np.array(self.softmax_W, dtype=float)))
        object.__setattr__(self, "softmax_b", _readonly(np.array(self.softmax_b, dtype=float)))


@dataclass(frozen=True)
class TrainConfig:
    """Learning rate, iteration count and seed of one training call.

    No training function reads ``l2``: ``fine_tune`` and
    ``semi_pretrain_finetune`` take their L2 values as ``l2s``. The field
    stays, checked but unread, because the benchmark's self-test
    (``perfbench/selftest.py``) still sets it."""

    learning_rate: float = 0.01
    iterations: int = 150
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        plain_numbers(self)
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be > 0 and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 <= self.l2 < math.inf:
            raise ValueError("l2 must be >= 0 and finite")
        if self.seed < 0:
            raise ValueError("seed must be unsigned")


def _init_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-lim, lim, size=(rows, cols))


class _Work(dict):
    """Arrays that one training call reuses on every iteration, made on first
    request by name; a helper writes every element of one before reading it."""

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        if name not in self:
            self[name] = np.empty(shape)
        return self[name]


def _encode(X, W, b, out=None):
    """sigmoid(X W^T + b) into ``out`` if given, for one layer, W (h, d) and
    b (h,), or a fine-tuning stack, W (L, h, d) and b (L, 1, h)."""
    out = np.matmul(X, np.swapaxes(W, -1, -2), out=out)
    out += b
    return sigmoid(out, out=out)


def _ae_forward(W, b, d_bias, X, work: _Work):
    """Mean squared reconstruction error, the encodings and the residual."""
    H = _encode(X, W, b, work("H", (X.shape[0], W.shape[0])))
    E = np.matmul(H, W, out=work("E", X.shape))
    E += d_bias
    E -= X
    return float(np.sum(np.multiply(E, E, out=work("S", X.shape)))) / X.shape[0], H, E


def _ae_value_and_grads(W, b, d_bias, X, work: _Work):
    """Mean squared reconstruction error and its gradients for W, b and
    d_bias, in that order.

    The tied weight collects both contributions: decoder outer(h, 2e) and
    encoder outer(delta_a, x).
    """
    n = X.shape[0]
    loss, H, E2 = _ae_forward(W, b, d_bias, X, work)
    E2 *= 2.0
    dA = np.matmul(E2, W.T, out=work("A", H.shape))
    T = work("T", H.shape)
    dA *= np.multiply(H, np.subtract(1.0, H, out=T), out=T)
    gW = (H.T @ E2 + dA.T @ X) / n
    gb = dA.sum(axis=0) / n
    gd = E2.sum(axis=0) / n
    return loss, [gW, gb, gd]


def _descend(step, loss, params, cfg: TrainConfig, what: str) -> None:
    """cfg.iterations full-batch steps ``param -= lr * grad`` in place, with
    the gradients that ``step()`` returns after the loss, in parameter order.
    Raises TrainingDivergedError naming the iteration at the first non-finite
    loss, or after the last step if ``loss()[0]``, the loss it leaves, is."""
    for it in range(cfg.iterations):
        value, grads = step()
        if not np.isfinite(value).all():
            raise TrainingDivergedError(f"{what} loss non-finite at iteration {it}")
        for param, grad in zip(params, grads):
            param -= cfg.learning_rate * grad
    if not np.isfinite(loss()[0]).all():
        raise TrainingDivergedError(f"{what} loss non-finite after iteration {cfg.iterations}")


def ae_train(X: np.ndarray, h: int, cfg: TrainConfig) -> AeLayer:
    """Full-batch gradient descent on the reconstruction error for exactly
    cfg.iterations steps.

    Weights start uniform in +/- sqrt(6/(d+h)) from cfg.seed, biases at
    zero. Raises TrainingDivergedError naming the iteration if the loss
    leaves the float range.
    """
    X, h = feature_rows(X), plain_number("h", h, int)
    n, d = X.shape
    if n < 1:
        raise ValueError("need at least one row")
    if not 1 <= h < d:
        raise ValueError(f"hidden size must satisfy 1 <= h < d={d}, got {h}")
    rng = np.random.default_rng(cfg.seed)
    W, b, d_bias = params = [_init_matrix(rng, h, d), np.zeros(h), np.zeros(d)]
    args = (*params, X, _Work())
    _descend(partial(_ae_value_and_grads, *args), partial(_ae_forward, *args), params, cfg, "reconstruction")
    return AeLayer(W=W, b=b)


def check_dims(width: int, dims) -> list[int]:
    """``dims`` as ints; raises ValueError unless they are integers (numpy
    integers included, bools not), nonempty, at least 1, strictly decreasing
    and start below the input width."""
    dims = list(plain_number("dims", dims, tuple[int, ...]))
    if not dims:
        raise ValueError("dims must be nonempty")
    chain = [width] + dims
    if any(b >= a for a, b in zip(chain, chain[1:])):
        raise ValueError(f"hidden sizes must decrease strictly from the input width: {chain}")
    if dims[-1] < 1:
        raise ValueError(f"hidden sizes must be >= 1: {dims}")
    return dims


def sae_pretrain(X: np.ndarray, dims, cfg: TrainConfig) -> list[AeLayer]:
    """Greedy layerwise stack: layer k trains on layer k-1's encodings.

    ``dims`` must be strictly decreasing and start below the input width.
    Each layer gets its own seed derived from cfg.seed.
    """
    X = feature_rows(X)
    dims = check_dims(X.shape[1], dims)
    layers, cur = [], X
    for k, h in enumerate(dims):
        if layers:  # the top layer's encodings would train nothing
            cur = _encode(cur, layers[-1].W, layers[-1].b)
        seed = derive_seed(cfg.seed, _SEED_LAYER_BASE + k)
        layers.append(ae_train(cur, h, replace(cfg, seed=seed)))
    return layers


def _log_softmax(Z):
    m = Z.max(axis=-1, keepdims=True)
    return Z - (m + np.log(np.exp(Z - m).sum(axis=-1, keepdims=True)))


def _ft_forward(Ws, bs, Wh, bh, X, y, l2, work: _Work):
    """Per stack slice i: mean cross-entropy + (l2[i]/2) * sum of squared
    weight-matrix norms (biases unpenalized), as an array of the L losses,
    with every layer's encodings (X first) and the head's log-probabilities.

    Every parameter has a leading axis of one slice per L2 value: Ws[k] is
    (L, h, d), bs[k] (L, 1, h), Wh (L, 2, h_top), bh (L, 1, 2) and l2 is
    (L, 1, 1).
    """
    n = X.shape[0]
    Hs = [X]
    for k, (W, b) in enumerate(zip(Ws, bs)):
        Hs.append(_encode(Hs[-1], W, b, work(f"H{k}", (len(l2), n, W.shape[1]))))
    logP = _log_softmax(np.matmul(Hs[-1], Wh.transpose(0, 2, 1)) + bh)
    penalty = sum((W * W).sum(axis=(1, 2)) for W in Ws + [Wh])
    return -logP[:, np.arange(n), y].sum(axis=1) / n + 0.5 * l2.ravel() * penalty, Hs, logP


def _ft_value_and_grads(Ws, bs, Wh, bh, X, y, l2, work: _Work):
    """The losses of ``_ft_forward`` and their gradients for every encoder
    parameter and the head, in the order Ws, bs, Wh, bh. The input gradient
    of the first layer is never formed."""
    n = X.shape[0]
    losses, Hs, logP = _ft_forward(Ws, bs, Wh, bh, X, y, l2, work)
    G = np.exp(logP)
    G[:, np.arange(n), y] -= 1.0
    G /= n
    gWh = np.matmul(G.transpose(0, 2, 1), Hs[-1]) + l2 * Wh
    gbh = G.sum(axis=1, keepdims=True)
    dH = np.matmul(G, Wh, out=work(f"D{len(Ws) - 1}", Hs[-1].shape))
    gWs, gbs = [None] * len(Ws), [None] * len(Ws)
    for idx in range(len(Ws) - 1, -1, -1):
        H, T = Hs[idx + 1], work(f"T{idx}", Hs[idx + 1].shape)
        dH *= np.multiply(H, np.subtract(1.0, H, out=T), out=T)
        gWs[idx] = np.matmul(dH.transpose(0, 2, 1), Hs[idx]) + l2 * Ws[idx]
        gbs[idx] = dH.sum(axis=1, keepdims=True)
        if idx:
            dH = np.matmul(dH, Ws[idx], out=work(f"D{idx - 1}", Hs[idx].shape))
    return losses, gWs + gbs + [gWh, gbh]


def fine_tune(layers, X: np.ndarray, labels, cfg: TrainConfig, l2s) -> list[SaeModel]:
    """Joint full-batch descent through the encoder stack plus a fresh
    softmax head for exactly cfg.iterations steps, once per value l2 in
    l2s, all from the same layers and the same head seed, trained in
    lockstep as one stack; cfg.l2 is not read.

    Updates every encoder W and b and the head. The loss is mean
    cross-entropy plus (l2 / 2) times the squared Frobenius norms of all
    weight matrices. Model i is bit-equal to ``fine_tune`` with l2s = [l2s[i]].

    Raises TrainingDivergedError at the first iteration where the loss of
    any L2 value is non-finite, even if the others would have trained, and
    after the last iteration if the loss it leaves is.
    """
    if not layers:
        raise ValueError("at least one layer is required")
    X = feature_rows(X, layers[0].d)
    y = class_labels(labels, X.shape[:1])
    l2 = np.array(plain_number("l2s", l2s, tuple[float, ...])).reshape(-1, 1, 1)
    if l2.size == 0 or not np.all((l2 >= 0) & (l2 < math.inf)):
        raise ValueError("l2s must be nonempty and every l2 must be >= 0 and finite")
    stack = len(l2)
    Ws = [np.repeat(layer.W[None], stack, axis=0) for layer in layers]
    bs = [np.repeat(layer.b[None, None], stack, axis=0) for layer in layers]
    rng = np.random.default_rng(derive_seed(cfg.seed, _SEED_HEAD))
    Wh = np.repeat(_init_matrix(rng, 2, layers[-1].h)[None], stack, axis=0)
    bh = np.zeros((stack, 1, 2))
    args = (Ws, bs, Wh, bh, X, y, l2, _Work())
    _descend(partial(_ft_value_and_grads, *args), partial(_ft_forward, *args),
             Ws + bs + [Wh, bh], cfg, "fine-tuning")
    return [SaeModel(layers=tuple(AeLayer(W=W[i], b=b[i, 0]) for W, b in zip(Ws, bs)),
                     softmax_W=Wh[i], softmax_b=bh[i, 0])
            for i in range(stack)]


def sae_features(model: SaeModel, X: np.ndarray) -> np.ndarray:
    """Top-layer encodings (no softmax): the learned feature representation."""
    cur = feature_rows(X, model.layers[0].d)
    for layer in model.layers:
        cur = _encode(cur, layer.W, layer.b)
    return cur


def sae_predict(model: SaeModel, X: np.ndarray) -> np.ndarray:
    """Argmax of the softmax class probabilities per row; exact ties go to
    class 0. The probabilities are compared, not the logits: rounding can
    tie them where the logits differ."""
    Z = sae_features(model, X) @ model.softmax_W.T + model.softmax_b
    P = np.exp(_log_softmax(Z))
    return (P[:, 1] > P[:, 0]).astype(np.int64)


def semi_pretrain_finetune(X_labeled: np.ndarray, labels, X_unlabeled: np.ndarray,
                           dims, cfg: TrainConfig, l2s) -> list[SaeModel]:
    """Pretrain on labeled rows stacked with unlabeled rows, then fine-tune
    on the labeled rows only: one model per l2 in l2s, fine-tuned as one
    ``fine_tune`` block, model i bit-equal to the call with l2s = [l2s[i]].
    cfg.l2 is not read.

    X_unlabeled is 2-D, as wide as X_labeled; with no rows, (0, p), this
    reduces exactly to the supervised path, bit for bit.
    """
    X_labeled = np.asarray(X_labeled, dtype=float)
    X_unlabeled = np.asarray(X_unlabeled, dtype=float)
    if X_unlabeled.shape[1:] != X_labeled.shape[1:]:
        raise ValueError(f"need a 2-D unlabeled X as wide as the labeled X, "
                         f"got labeled {X_labeled.shape} and unlabeled {X_unlabeled.shape}")
    X_pre = np.vstack([X_labeled, X_unlabeled])
    layers = sae_pretrain(X_pre, dims, cfg)
    return fine_tune(layers, X_labeled, labels, cfg, l2s)
