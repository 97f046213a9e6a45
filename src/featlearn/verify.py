"""Self-contained verification suites: gradient checks against central
finite differences and algebraic/numerical oracles for the lasso, PCA, and
the SVM solver.

Every check recomputes its expected answer through an independent route
(finite differences, closed forms, numpy's eigensolver, brute-force grid
search) rather than through the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lasso import lambda_max, lasso_fit
from .pca import pca_fit
from .sae import _Work, _ae_value_and_grads, _ft_value_and_grads, _init_matrix
from .svm import svm_objective, svm_predict, svm_train

FD_STEP = 1e-5
GRAD_RTOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float
    detail: str


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


def check_reconstruction_gradients() -> CheckResult:
    """Analytic tied-weight reconstruction gradients vs finite differences,
    each instance's evaluations reusing one ``_Work``, as ``ae_train`` does."""
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
        _, gW, gb, gd = _ae_value_and_grads(W, b, d_bias, X, work)
        analytic = np.concatenate([gW.ravel(), gb, gd])
        worst = max(worst, _rel_err(analytic, _central_diff(loss_of, vec)))
    return CheckResult("reconstruction-gradients", worst < GRAD_RTOL, worst,
                       f"20 random instances, fd step {FD_STEP:g}")


def check_finetune_gradients() -> CheckResult:
    """Analytic backprop gradients of the cross-entropy + L2 loss vs finite
    differences, through stacks of one or two encoder layers. Each instance
    is a lockstep block of two L2 values with their own weights, and the sum
    of their losses is differentiated, so mixing the slices would fail."""
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
        _, gWs, gbs, gWh, gbh = _ft_value_and_grads(Ws, bs, Wh, bh, X, y, l2, work)
        analytic = np.concatenate([g.ravel() for g in gWs + gbs + [gWh, gbh]])
        worst = max(worst, _rel_err(analytic, _central_diff(loss_of, vec)))
    return CheckResult("fine-tune-gradients", worst < GRAD_RTOL, worst,
                       f"20 random stacks of {stack} L2 values, fd step {FD_STEP:g}")


def check_lasso_lambda_max() -> CheckResult:
    """At or above lambda_max every coefficient must be exactly zero."""
    rng = np.random.default_rng(3)
    worst = 0.0
    ok = True
    for _ in range(100):
        n, p = int(rng.integers(10, 40)), int(rng.integers(2, 15))
        X = rng.normal(size=(n, p))
        X -= X.mean(axis=0)
        y = rng.normal(size=n)
        y -= y.mean()
        lmax = lambda_max(X, y)
        for lam in (lmax, 1.5 * lmax):
            fit = lasso_fit(X, y, lam)
            worst = max(worst, float(np.max(np.abs(fit.beta))))
            ok = ok and np.all(fit.beta == 0.0)
    return CheckResult("lasso-lambda-max-zeros", ok, worst,
                       "100 random instances, max |beta| at lambda >= lambda_max")


def check_lasso_orthogonal() -> CheckResult:
    """With X^T X = n I the solution is the closed form
    soft(X_j^T y / n, lambda/2) coordinate by coordinate."""
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
        fit = lasso_fit(X, y, lam)
        worst = max(worst, float(np.max(np.abs(fit.beta - closed))))
    return CheckResult("lasso-orthogonal-closed-form", worst < 1e-8, worst,
                       "50 orthogonal designs")


def check_lasso_kkt() -> CheckResult:
    """Subgradient optimality of converged fits: |(2/n) X_j^T r| <= lambda
    where beta_j = 0, and equal to lambda*sign(beta_j) elsewhere."""
    rng = np.random.default_rng(5)
    worst = 0.0
    ok = True
    for _ in range(50):
        n, p = int(rng.integers(15, 50)), int(rng.integers(2, 20))
        X = rng.normal(size=(n, p))
        X -= X.mean(axis=0)
        beta_true = np.zeros(p)
        beta_true[: max(1, p // 4)] = rng.normal(size=max(1, p // 4))
        y = X @ beta_true + 0.3 * rng.normal(size=n)
        y -= y.mean()
        lam = float(rng.uniform(0.02, 0.8)) * lambda_max(X, y)
        fit = lasso_fit(X, y, lam)
        ok = ok and fit.converged
        grad = 2.0 * (X.T @ (y - X @ fit.beta)) / n
        zero = fit.beta == 0.0
        viol_zero = float(np.max(np.maximum(np.abs(grad[zero]) - lam, 0.0), initial=0.0))
        viol_active = float(np.max(np.abs(grad[~zero] - lam * np.sign(fit.beta[~zero])), initial=0.0))
        worst = max(worst, viol_zero, viol_active)
    return CheckResult("lasso-kkt-certificate", ok and worst < 1e-6, worst,
                       "50 converged fits, subgradient residual")


def check_pca_identities() -> CheckResult:
    """The mean squared residual of projecting onto the top-r components
    equals trace(S) minus the top-r eigenvalue sum (eigenvalues from numpy),
    components stay orthonormal, and the residual is nonincreasing in r.
    Each instance is fitted once, at the largest r, and cut to each r: the
    cut is byte-equal to a fit at that r."""
    rng = np.random.default_rng(8)
    worst = 0.0
    ok = True
    for _ in range(50):
        p = int(rng.integers(2, 21))
        n = int(rng.integers(p + 2, 60))
        X = rng.normal(size=(n, p)) @ rng.normal(size=(p, p)) * 0.5
        centered = X - X.mean(axis=0)
        S = centered.T @ centered / n
        eigs = np.sort(np.linalg.eigvalsh(S))[::-1]
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
            ok = ok and err <= prev + 1e-10
            prev = err
    return CheckResult("pca-spectral-identities", ok and worst < 1e-8, worst,
                       "50 random datasets, p <= 20")


def check_svm_grid() -> CheckResult:
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
    model, = svm_train([(X, labels, [C])], tol=0.0, max_epochs=200000)
    got = svm_objective(X, labels, model.w, model.bias, C)
    optimum = 25.0 / 32.0
    err = abs(got - optimum)
    ok = err < 1e-3 and grid_best > got - 1e-3
    return CheckResult("svm-grid-oracle", ok, err,
                       f"solver {got:.6f} vs optimum {optimum:.6f}, grid best {grid_best:.6f}")


def check_svm_separable() -> CheckResult:
    """Linearly separable instances with C >= 100 must reach training
    accuracy 1.0."""
    rng = np.random.default_rng(10)
    ok = True
    worst = 0.0
    for _ in range(20):
        n, q = int(rng.integers(6, 30)), int(rng.integers(1, 5))
        half = n // 2
        X = rng.normal(size=(n, q))
        X[:half] -= 3.0
        X[half:] += 3.0
        y = np.array([0] * half + [1] * (n - half))
        model, = svm_train([(X, y, [100.0])])
        acc = float(np.mean(svm_predict(model, X) == y))
        worst = max(worst, 1.0 - acc)
        ok = ok and acc == 1.0
    return CheckResult("svm-separable-accuracy", ok, worst,
                       "20 separable instances at C=100")


GRADIENT_CHECKS = (check_reconstruction_gradients, check_finetune_gradients)
ORACLE_CHECKS = (check_lasso_lambda_max, check_lasso_orthogonal, check_lasso_kkt,
                 check_pca_identities, check_svm_grid, check_svm_separable)

SUITES = {
    "gradients": GRADIENT_CHECKS,
    "oracles": ORACLE_CHECKS,
    "all": GRADIENT_CHECKS + ORACLE_CHECKS,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    return [check() for check in SUITES[name]]
