"""The per-call auto-encoder and fine-tuning loops, kept as the reference for
``featlearn.sae``: ``ae_train`` must reproduce ``ae_train_loop`` bit for bit,
and every model of ``fine_tune`` must equal ``fine_tune_loop`` at its
L2, weight by weight and bias by bias.

It also holds a tied *linear* auto-encoder, whose global optimum is known in
closed form, as a step and a last-loss function that ``sae._descend`` drives.

Each step allocates its own temporaries, and each L2 value is fine-tuned on
its own; the arithmetic, its operand order and the seeds are the package's.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from featlearn.data import derive_seed
from featlearn.sae import (_SEED_HEAD, AeLayer, SaeModel, TrainConfig, TrainingDivergedError,
                           _descend, _init_matrix, _log_softmax)


def where_sigmoid(x):
    """1 / (1 + exp(-x)), both halves evaluated everywhere and picked by sign."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def ae_value_and_grads(W, b, d_bias, X):
    """Mean squared reconstruction error and its tied-weight gradients."""
    n = X.shape[0]
    A = X @ W.T + b
    H = where_sigmoid(A)
    E = (H @ W + d_bias) - X
    loss = float(np.sum(E * E)) / n
    E2 = 2.0 * E
    dH = E2 @ W.T
    dA = dH * (H * (1.0 - H))
    gW = (H.T @ E2 + dA.T @ X) / n
    gb = dA.sum(axis=0) / n
    gd = E2.sum(axis=0) / n
    return loss, gW, gb, gd


def ae_train_loop(X: np.ndarray, h: int, cfg: TrainConfig) -> AeLayer:
    """Full-batch gradient descent on the reconstruction error for exactly
    cfg.iterations steps, from weights uniform in +/- sqrt(6/(d+h))."""
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    rng = np.random.default_rng(cfg.seed)
    W = _init_matrix(rng, h, d)
    b = np.zeros(h)
    d_bias = np.zeros(d)
    lr = cfg.learning_rate
    for it in range(cfg.iterations):
        loss, gW, gb, gd = ae_value_and_grads(W, b, d_bias, X)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"reconstruction loss non-finite at iteration {it}")
        W -= lr * gW
        b -= lr * gb
        d_bias -= lr * gd
    if not np.isfinite(ae_value_and_grads(W, b, d_bias, X)[0]):
        raise TrainingDivergedError(f"reconstruction loss non-finite after iteration {cfg.iterations}")
    return AeLayer(W=W, b=b)


def ft_value_and_grads(Ws, bs, Wh, bh, X, y, l2):
    """Mean cross-entropy + (l2/2) * sum of squared weight-matrix norms, with
    gradients for every encoder parameter and the head."""
    n = X.shape[0]
    Hs = [X]
    for W, b in zip(Ws, bs):
        Hs.append(where_sigmoid(Hs[-1] @ W.T + b))
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


def fine_tune_loop(layers, X: np.ndarray, labels, cfg: TrainConfig) -> SaeModel:
    """Joint full-batch descent through the encoder stack plus a fresh
    softmax head, at the one L2 value cfg.l2."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    Ws = [np.array(layer.W) for layer in layers]
    bs = [np.array(layer.b) for layer in layers]
    rng = np.random.default_rng(derive_seed(cfg.seed, _SEED_HEAD))
    Wh = _init_matrix(rng, 2, layers[-1].h)
    bh = np.zeros(2)
    lr = cfg.learning_rate
    for it in range(cfg.iterations):
        loss, gWs, gbs, gWh, gbh = ft_value_and_grads(Ws, bs, Wh, bh, X, y, cfg.l2)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"fine-tuning loss non-finite at iteration {it}")
        for W, gW, b_, gb in zip(Ws, gWs, bs, gbs):
            W -= lr * gW
            b_ -= lr * gb
        Wh -= lr * gWh
        bh -= lr * gbh
    new_layers = tuple(AeLayer(W=W, b=b_) for W, b_ in zip(Ws, bs))
    return SaeModel(layers=new_layers, softmax_W=Wh, softmax_b=bh)


def linear_ae_step(W, b, d_bias, X):
    """Mean squared reconstruction error of the tied linear auto-encoder
    xhat = d_bias + W^T (W x + b), summed over columns and averaged over
    rows, and its gradients for W, b and d_bias, in that order."""
    n = X.shape[0]
    H = X @ W.T + b
    E = (H @ W + d_bias) - X
    E2 = 2.0 * E
    dA = E2 @ W.T
    grads = [(H.T @ E2 + dA.T @ X) / n, dA.sum(axis=0) / n, E2.sum(axis=0) / n]
    return float(np.sum(E * E)) / n, grads


def linear_ae_last_loss(W, b, d_bias, X):
    """The loss ``_descend`` checks after its last step, first in a tuple as
    ``sae._ae_forward`` returns it."""
    return linear_ae_step(W, b, d_bias, X)[:1]


def linear_ae_train(X: np.ndarray, h: int, cfg: TrainConfig):
    """``sae._descend`` on the linear auto-encoder from ``ae_train``'s
    initialization; returns the trained W and the loss it leaves."""
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    params = [_init_matrix(np.random.default_rng(cfg.seed), h, d), np.zeros(h), np.zeros(d)]
    _descend(partial(linear_ae_step, *params, X), partial(linear_ae_last_loss, *params, X),
             params, cfg, "linear reconstruction")
    return params[0], linear_ae_last_loss(*params, X)[0]
