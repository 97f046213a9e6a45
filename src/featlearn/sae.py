"""Tied-weight undercomplete auto-encoders: greedy layerwise stacking, a
two-output softmax head, joint fine-tuning with cross-entropy + L2, and a
semi-supervised pretraining variant that also consumes unlabeled rows.

Encoder: h = sigmoid(b + W x); decoder: xhat = d_bias + W^T h (weights tied).
Training is full-batch gradient descent; gradients are per-sample averages
so that the default learning rate is stable regardless of sample count.
All training is a pure function of (inputs, cfg.seed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Fixed sub-stream tags for deriving per-stage RNG seeds from cfg.seed
_SEED_HEAD = 1
_SEED_LAYER_BASE = 100


class TrainingDivergedError(RuntimeError):
    """The training loss became non-finite."""


def sigmoid(x):
    """1 / (1 + exp(-x)), overflow-safe across the full float range."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class AeLayer:
    """One tied-weight auto-encoder: W is h x d with h < d, b the encoder
    bias, d_bias the decoder bias."""

    W: np.ndarray
    b: np.ndarray
    d_bias: np.ndarray

    def __post_init__(self):
        W = np.array(self.W, dtype=float)
        b = np.array(self.b, dtype=float)
        d_bias = np.array(self.d_bias, dtype=float)
        if W.ndim != 2:
            raise ValueError("W must be 2-D (hidden x input)")
        h, d = W.shape
        if h >= d:
            raise ValueError(f"undercomplete layer requires h < d, got {h} >= {d}")
        if b.shape != (h,) or d_bias.shape != (d,):
            raise ValueError("bias shapes must be (h,) and (d,)")
        for arr in (W, b, d_bias):
            if not np.all(np.isfinite(arr)):
                raise ValueError("layer parameters must be finite")
            arr.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d_bias", d_bias)

    @property
    def h(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class SaeModel:
    """Encoder layers with strictly decreasing dimensions plus a two-output
    softmax head on the top representation."""

    layers: tuple[AeLayer, ...]
    softmax_W: np.ndarray
    softmax_b: np.ndarray

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("at least one layer is required")
        for lo, hi in zip(layers[1:], layers[:-1]):
            if lo.d != hi.h:
                raise ValueError(f"layer input dim {lo.d} does not chain with previous hidden dim {hi.h}")
        W = np.array(self.softmax_W, dtype=float)
        b = np.array(self.softmax_b, dtype=float)
        if W.shape != (2, layers[-1].h) or b.shape != (2,):
            raise ValueError(f"softmax head must be 2 x {layers[-1].h} with a length-2 bias")
        W.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "softmax_W", W)
        object.__setattr__(self, "softmax_b", b)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    iterations: int = 150
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be unsigned")


def _derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _init_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-lim, lim, size=(rows, cols))


def _ae_value_and_grads(W, b, d_bias, X):
    """Mean squared reconstruction error and its gradients.

    The tied weight collects both contributions: decoder outer(h, 2e) and
    encoder outer(delta_a, x).
    """
    n = X.shape[0]
    A = X @ W.T + b
    H = sigmoid(A)
    E = (H @ W + d_bias) - X
    loss = float(np.sum(E * E)) / n
    E2 = 2.0 * E
    dH = E2 @ W.T
    dA = dH * (H * (1.0 - H))
    gW = (H.T @ E2 + dA.T @ X) / n
    gb = dA.sum(axis=0) / n
    gd = E2.sum(axis=0) / n
    return loss, gW, gb, gd


def ae_train(X: np.ndarray, h: int, cfg: TrainConfig) -> AeLayer:
    """Full-batch gradient descent on the reconstruction error for exactly
    cfg.iterations steps.

    Weights start uniform in +/- sqrt(6/(d+h)) from cfg.seed, biases at
    zero. Raises TrainingDivergedError naming the iteration if the loss
    leaves the float range.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n < 1:
        raise ValueError("need at least one row")
    if not 1 <= h < d:
        raise ValueError(f"hidden size must satisfy 1 <= h < d={d}, got {h}")
    rng = np.random.default_rng(cfg.seed)
    W = _init_matrix(rng, h, d)
    b = np.zeros(h)
    d_bias = np.zeros(d)
    lr = cfg.learning_rate
    for it in range(cfg.iterations):
        loss, gW, gb, gd = _ae_value_and_grads(W, b, d_bias, X)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"reconstruction loss non-finite at iteration {it}")
        W -= lr * gW
        b -= lr * gb
        d_bias -= lr * gd
    if not np.isfinite(_ae_value_and_grads(W, b, d_bias, X)[0]):
        raise TrainingDivergedError(f"reconstruction loss non-finite after iteration {cfg.iterations}")
    return AeLayer(W=W, b=b, d_bias=d_bias)


def ae_encode(layer: AeLayer, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != layer.d:
        raise ValueError(f"expected {layer.d} columns, got {X.shape[1]}")
    return sigmoid(X @ layer.W.T + layer.b)


def sae_pretrain(X: np.ndarray, dims, cfg: TrainConfig) -> list[AeLayer]:
    """Greedy layerwise stack: layer k trains on layer k-1's encodings.

    ``dims`` must be strictly decreasing and start below the input width.
    Each layer gets its own seed derived from cfg.seed.
    """
    X = np.asarray(X, dtype=float)
    dims = [int(h) for h in dims]
    if not dims:
        raise ValueError("dims must be nonempty")
    chain = [X.shape[1]] + dims
    if any(b >= a for a, b in zip(chain, chain[1:])):
        raise ValueError(f"hidden sizes must decrease strictly from the input width: {chain}")
    layers = []
    cur = X
    for k, h in enumerate(dims):
        layer = ae_train(cur, h, replace(cfg, seed=_derive_seed(cfg.seed, _SEED_LAYER_BASE + k)))
        layers.append(layer)
        cur = ae_encode(layer, cur)
    return layers


def _log_softmax(Z):
    m = Z.max(axis=1, keepdims=True)
    return Z - (m + np.log(np.exp(Z - m).sum(axis=1, keepdims=True)))


def _ft_value_and_grads(Ws, bs, Wh, bh, X, y, l2):
    """Mean cross-entropy + (l2/2) * sum of squared weight-matrix norms
    (biases unpenalized), with gradients for every encoder parameter and
    the head."""
    n = X.shape[0]
    Hs = [X]
    for W, b in zip(Ws, bs):
        Hs.append(sigmoid(Hs[-1] @ W.T + b))
    Z = Hs[-1] @ Wh.T + bh
    logP = _log_softmax(Z)
    ce = -float(np.sum(logP[np.arange(n), y])) / n
    penalty = 0.5 * l2 * (sum(float(np.sum(W * W)) for W in Ws) + float(np.sum(Wh * Wh)))
    loss = ce + penalty

    P = np.exp(logP)
    G = P.copy()
    G[np.arange(n), y] -= 1.0
    G /= n
    gWh = G.T @ Hs[-1] + l2 * Wh
    gbh = G.sum(axis=0)
    dH = G @ Wh
    gWs, gbs = [], []
    for idx in range(len(Ws) - 1, -1, -1):
        H = Hs[idx + 1]
        dA = dH * (H * (1.0 - H))
        gWs.append(dA.T @ Hs[idx] + l2 * Ws[idx])
        gbs.append(dA.sum(axis=0))
        dH = dA @ Ws[idx]
    gWs.reverse()
    gbs.reverse()
    return loss, gWs, gbs, gWh, gbh


def fine_tune(layers, X: np.ndarray, labels, cfg: TrainConfig) -> SaeModel:
    """Joint full-batch descent through the encoder stack plus a fresh
    softmax head for exactly cfg.iterations steps.

    Updates every encoder W and b and the head; decoder biases take no part
    and are carried over unchanged. The loss is mean cross-entropy plus
    (cfg.l2 / 2) times the squared Frobenius norms of all weight matrices.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (X.shape[0],) or not np.all(np.isin(y, (0, 1))):
        raise ValueError("labels must be one 0/1 value per row")
    if not layers or layers[0].d != X.shape[1]:
        raise ValueError("layer dimensions do not chain with the input")
    Ws = [np.array(layer.W) for layer in layers]
    bs = [np.array(layer.b) for layer in layers]
    rng = np.random.default_rng(_derive_seed(cfg.seed, _SEED_HEAD))
    h_top = layers[-1].h
    Wh = _init_matrix(rng, 2, h_top)
    bh = np.zeros(2)
    lr = cfg.learning_rate
    for it in range(cfg.iterations):
        loss, gWs, gbs, gWh, gbh = _ft_value_and_grads(Ws, bs, Wh, bh, X, y, cfg.l2)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"fine-tuning loss non-finite at iteration {it}")
        for W, gW, b_, gb in zip(Ws, gWs, bs, gbs):
            W -= lr * gW
            b_ -= lr * gb
        Wh -= lr * gWh
        bh -= lr * gbh
    new_layers = tuple(
        AeLayer(W=W, b=b_, d_bias=layer.d_bias)
        for W, b_, layer in zip(Ws, bs, layers))
    return SaeModel(layers=new_layers, softmax_W=Wh, softmax_b=bh)


def sae_features(model: SaeModel, X: np.ndarray) -> np.ndarray:
    """Top-layer encodings (no softmax): the learned feature representation."""
    cur = np.asarray(X, dtype=float)
    for layer in model.layers:
        cur = ae_encode(layer, cur)
    return cur


def sae_predict_proba(model: SaeModel, X: np.ndarray) -> np.ndarray:
    """Softmax class probabilities, one (p0, p1) row per sample."""
    Z = sae_features(model, X) @ model.softmax_W.T + model.softmax_b
    return np.exp(_log_softmax(Z))


def sae_predict(model: SaeModel, X: np.ndarray) -> np.ndarray:
    """Argmax class per row; exact ties go to class 0."""
    P = sae_predict_proba(model, X)
    return (P[:, 1] > P[:, 0]).astype(np.int64)


def semi_pretrain_finetune(X_labeled: np.ndarray, labels, X_unlabeled: np.ndarray,
                           dims, cfg: TrainConfig) -> SaeModel:
    """Pretrain on labeled rows stacked with unlabeled rows, then fine-tune
    on the labeled rows only.

    With an empty unlabeled matrix this reduces exactly to the supervised
    path, bit for bit.
    """
    X_labeled = np.asarray(X_labeled, dtype=float)
    X_unlabeled = np.asarray(X_unlabeled, dtype=float)
    if X_unlabeled.size == 0:
        X_unlabeled = X_unlabeled.reshape(0, X_labeled.shape[1])
    if X_unlabeled.shape[1] != X_labeled.shape[1]:
        raise ValueError("labeled and unlabeled feature widths differ")
    X_pre = np.vstack([X_labeled, X_unlabeled])
    layers = sae_pretrain(X_pre, dims, cfg)
    return fine_tune(layers, X_labeled, labels, cfg)
