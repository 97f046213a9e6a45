"""Oracle checks: the auto-encoder gradients against central finite
differences, the SAE's descent loop against the known optimum of a tied
linear auto-encoder, and the lasso, PCA and SVM solvers against closed
forms, optimality conditions, spectral identities and a brute-force grid.

Every check recomputes its expected answer through an independent route
(finite differences, closed forms, the singular values of the centered
data, brute-force grid search) rather than through the code under test,
and asserts its bound over every instance.
"""

import numpy as np
import pytest

from featlearn.lasso import lambda_max, lasso_path
from featlearn.pca import pca_fit
from featlearn.sae import (TrainConfig, _Work, _ae_value_and_grads, _ft_value_and_grads,
                           _init_matrix)
from featlearn.svm import svm_predict, svm_train
from sae_reference import linear_ae_train
from svm_reference import svm_objective

FD_STEP = 1e-5
GRAD_RTOL = 1e-4


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def _central_diff(loss_of_vec, vec: np.ndarray) -> np.ndarray:
    grad = np.empty_like(vec)
    for i in range(vec.size):
        bumped = vec.copy()
        bumped[i] += FD_STEP
        hi = loss_of_vec(bumped)
        bumped[i] -= 2 * FD_STEP
        lo = loss_of_vec(bumped)
        grad[i] = (hi - lo) / (2 * FD_STEP)
    return grad


def check_reconstruction_gradients():
    """Analytic tied-weight reconstruction gradients vs finite differences
    on 20 random instances, each instance's evaluations reusing one
    ``_Work``, as ``ae_train`` does."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(3, 7))
        h = int(rng.integers(1, d))
        n = int(rng.integers(2, 8))
        X = rng.normal(size=(n, d))
        W = _init_matrix(rng, h, d)
        b = rng.normal(scale=0.1, size=h)
        d_bias = rng.normal(scale=0.1, size=d)
        sizes = (W.size, b.size, d_bias.size)
        work = _Work()

        def unpack(vec):
            w_end, b_end = sizes[0], sizes[0] + sizes[1]
            return vec[:w_end].reshape(h, d), vec[w_end:b_end], vec[b_end:]

        def loss_of(vec):
            Wv, bv, dv = unpack(vec)
            return _ae_value_and_grads(Wv, bv, dv, X, work)[0]

        vec = np.concatenate([W.ravel(), b, d_bias])
        _, grads = _ae_value_and_grads(W, b, d_bias, X, work)
        analytic = np.concatenate([g.ravel() for g in grads])
        worst = max(worst, _rel_err(analytic, _central_diff(loss_of, vec)))
    assert worst < GRAD_RTOL, f"max relative error {worst:g}"


def check_finetune_gradients():
    """Analytic backprop gradients of the cross-entropy + L2 loss vs finite
    differences on 20 random stacks of one or two encoder layers. Each
    instance is a lockstep block of two L2 values with their own weights,
    and the sum of their losses is differentiated, so mixing the slices
    would fail."""
    rng = np.random.default_rng(11)
    worst = 0.0
    stack = 2
    for _ in range(20):
        d = int(rng.integers(4, 7))
        dims = [int(rng.integers(2, d))]
        if rng.integers(0, 2) and dims[0] > 1:
            dims.append(int(rng.integers(1, dims[0])))
        n = int(rng.integers(4, 9))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        l2 = rng.choice([0.0, 1e-3, 1e-2], size=(stack, 1, 1))
        chain = [d] + dims
        Ws = [np.stack([_init_matrix(rng, ho, hi) for _ in range(stack)])
              for hi, ho in zip(chain, chain[1:])]
        bs = [rng.normal(scale=0.1, size=(stack, 1, ho)) for ho in dims]
        Wh = np.stack([_init_matrix(rng, 2, dims[-1]) for _ in range(stack)])
        bh = rng.normal(scale=0.1, size=(stack, 1, 2))
        shapes = [w.shape for w in Ws] + [b.shape for b in bs] + [Wh.shape, bh.shape]
        work = _Work()
        ends = np.cumsum([int(np.prod(s)) for s in shapes])

        def loss_of(vec):
            p = [part.reshape(s) for part, s in zip(np.split(vec, ends[:-1]), shapes)]
            return sum(_ft_value_and_grads(p[:len(dims)], p[len(dims):-2], *p[-2:], X, y, l2,
                                           work)[0])

        vec = np.concatenate([a.ravel() for a in Ws + bs + [Wh, bh]])
        _, grads = _ft_value_and_grads(Ws, bs, Wh, bh, X, y, l2, work)
        analytic = np.concatenate([g.ravel() for g in grads])
        worst = max(worst, _rel_err(analytic, _central_diff(loss_of, vec)))
    assert worst < GRAD_RTOL, f"max relative error {worst:g}"


def check_linear_autoencoder_optimum():
    """``sae._descend`` driving a tied linear auto-encoder, h = 2 of d = 5, on
    a fixed 40 x 5 matrix (uncentered, eigenvalues about 7.6, 4.1, 0.34,
    0.12 and 0.02). Its global optimum is known (Bourlard & Kamp 1988; Baldi
    & Hornik 1989): the loss is the sum of the d - h smallest eigenvalues of
    the covariance (denominator n), and the encoder's row space is the top-h
    principal subspace. After 1,500 steps at lr 0.01 the loss must be within
    a relative 1e-6 of it (measured 3e-8; 500 steps leave 2e-2), and the
    largest principal angle to ``pca_fit``'s top-h components below 1e-3
    radians (measured 5e-5)."""
    rng = np.random.default_rng(25)
    n, d, h = 40, 5, 2
    X = (rng.normal(size=(n, d)) * [3.0, 2.0, 0.6, 0.4, 0.2] + 1.5) @ np.linalg.qr(
        rng.normal(size=(d, d)))[0]
    centered = X - X.mean(axis=0)
    optimum = float(np.sum(np.linalg.eigvalsh(centered.T @ centered / n)[:d - h]))
    W, loss = linear_ae_train(X, h, TrainConfig(learning_rate=0.01, iterations=1500))
    gap = loss / optimum - 1.0
    assert 0.0 <= gap < 1e-6, f"loss {loss!r} vs optimum {optimum!r}"
    model, = pca_fit([X], h)
    cosines = np.linalg.svd(np.linalg.qr(W.T)[0].T @ model.components, compute_uv=False)
    angle = float(np.arccos(min(1.0, float(cosines.min()))))
    assert angle < 1e-3, f"largest principal angle {angle:g} rad"


def check_lasso_lambda_max():
    """At or above lambda_max every coefficient must be exactly zero, on
    100 random instances."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        n, p = int(rng.integers(10, 40)), int(rng.integers(2, 15))
        X = rng.normal(size=(n, p))
        X -= X.mean(axis=0)
        y = rng.normal(size=n)
        y -= y.mean()
        lmax = lambda_max(X, y)
        for lam in (lmax, 1.5 * lmax):
            beta = lasso_path([(X, y)], [lam])[0][:, 0]
            assert np.all(beta == 0.0), f"max |beta| {np.max(np.abs(beta)):g} at lambda {lam:g}"


def check_lasso_orthogonal():
    """With X^T X = n I the solution is the closed form
    soft(X_j^T y / n, lambda/2) coordinate by coordinate, on 50 orthogonal
    designs."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 10))
        n = int(rng.integers(p + 1, 40))
        Q, _ = np.linalg.qr(rng.normal(size=(n, p)))
        X = Q * np.sqrt(n)
        y = rng.normal(size=n)
        y -= y.mean()
        z = X.T @ y / n
        lam = float(rng.uniform(0.05, 1.0)) * 2.0 * float(np.max(np.abs(z)))
        closed = np.sign(z) * np.maximum(np.abs(z) - lam / 2.0, 0.0)
        beta = lasso_path([(X, y)], [lam])[0][:, 0]
        worst = max(worst, float(np.max(np.abs(beta - closed))))
    assert worst < 1e-8, f"max |beta - closed form| {worst:g}"


def check_lasso_kkt():
    """Subgradient optimality of 50 exact fits: |(2/n) X_j^T r| <= lambda
    where beta_j = 0, and equal to lambda*sign(beta_j) elsewhere."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        n, p = int(rng.integers(15, 50)), int(rng.integers(2, 20))
        X = rng.normal(size=(n, p))
        X -= X.mean(axis=0)
        beta_true = np.zeros(p)
        beta_true[: max(1, p // 4)] = rng.normal(size=max(1, p // 4))
        y = X @ beta_true + 0.3 * rng.normal(size=n)
        y -= y.mean()
        lam = float(rng.uniform(0.02, 0.8)) * lambda_max(X, y)
        beta = lasso_path([(X, y)], [lam])[0][:, 0]
        grad = 2.0 * (X.T @ (y - X @ beta)) / n
        zero = beta == 0.0
        viol_zero = float(np.max(np.maximum(np.abs(grad[zero]) - lam, 0.0), initial=0.0))
        viol_active = float(np.max(np.abs(grad[~zero] - lam * np.sign(beta[~zero])), initial=0.0))
        worst = max(worst, viol_zero, viol_active)
    assert worst < 1e-6, f"max subgradient residual {worst:g}"


def check_pca_identities():
    """On 50 random datasets with p <= 20, the mean squared residual of
    projecting onto the top-r components equals trace(S) minus the sum of
    the top r eigenvalues of S, taken as the squared singular values of the
    centered rows over n. The components stay orthonormal, and the residual
    is nonincreasing in r. Each instance is fitted once, at the largest r,
    and cut to each r: the cut is byte-equal to a fit at that r."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 21))
        n = int(rng.integers(p + 2, 60))
        X = rng.normal(size=(n, p)) @ rng.normal(size=(p, p)) * 0.5
        centered = X - X.mean(axis=0)
        S = centered.T @ centered / n
        eigs = np.linalg.svd(centered, compute_uv=False) ** 2 / n
        r_all = min(n - 1, p)
        model, = pca_fit([X], r_all)
        prev = np.inf
        for r in range(1, r_all + 1):
            V = model.components[:, :r]
            resid = centered - centered @ V @ V.T
            err = float(np.sum(resid * resid)) / n
            expected = float(np.trace(S) - np.sum(eigs[:r]))
            worst = max(worst, abs(err - expected))
            gram = V.T @ V
            worst = max(worst, float(np.max(np.abs(gram - np.eye(r)))))
            assert err <= prev + 1e-10, f"residual rises from {prev!r} to {err!r} at r = {r}"
            prev = err
    assert worst < 1e-8, f"max error {worst:g}"


def check_svm_grid():
    """Solver objective vs the closed-form optimum of a 1-D 4-point toy, and
    a brute-force grid over (w, b) in [-3, 3] at step 0.01 that must find no
    point better than the solver.

    The optimum is 25/32 at (w, b) = (1.25, -0.125): the hard margin between
    -0.7 and 0.9 gives w = 2/1.6 with every hinge term 0, and shrinking w by
    d costs (0.7 + 0.9) d of hinge against 1.25 d of norm. b* lies off the
    grid, whose best point is about 0.7848, so the grid bounds from one side
    only."""
    X = np.array([[-2.0], [-0.7], [0.9], [2.0]])
    labels = np.array([0, 0, 1, 1])
    y = 2.0 * labels - 1.0  # the hinge loss's encoding, for the brute-force grid
    C = 1.0
    ax = np.arange(-3.0, 3.0 + 1e-12, 0.01)
    W, B = np.meshgrid(ax, ax, indexing="ij")
    margins = y[None, None, :] * (W[..., None] * X[:, 0][None, None, :] + B[..., None])
    obj = 0.5 * W ** 2 + C * np.sum(np.maximum(0.0, 1.0 - margins), axis=-1)
    grid_best = float(obj.min())
    model, = svm_train([(X[None], labels[None], [C])], tol=0.0, max_epochs=200000)
    got = svm_objective(X, labels, model.w, model.bias, C)
    optimum = 25.0 / 32.0
    assert abs(got - optimum) < 1e-3, f"solver {got:.6f} vs optimum {optimum:.6f}"
    assert grid_best > got - 1e-3, f"grid best {grid_best:.6f} beats solver {got:.6f}"


def check_svm_separable():
    """20 linearly separable instances at C = 100 must reach training
    accuracy 1.0."""
    rng = np.random.default_rng(10)
    for _ in range(20):
        n, q = int(rng.integers(6, 30)), int(rng.integers(1, 5))
        half = n // 2
        X = rng.normal(size=(n, q))
        X[:half] -= 3.0
        X[half:] += 3.0
        y = np.array([0] * half + [1] * (n - half))
        model, = svm_train([(X[None], y[None], [100.0])], 1e-8, 2000)
        acc = float(np.mean(svm_predict(model, X) == y))
        assert acc == 1.0, f"training accuracy {acc} on a separable instance"


@pytest.mark.parametrize("check", [
    check_reconstruction_gradients, check_finetune_gradients, check_linear_autoencoder_optimum,
    check_lasso_lambda_max, check_lasso_orthogonal, check_lasso_kkt, check_pca_identities,
    check_svm_grid, check_svm_separable,
], ids=lambda check: check.__name__)
def test_check_passes(check):
    check()
