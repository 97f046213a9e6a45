"""Self-contained verification suites: gradient checks against central
finite differences and algebraic/numerical oracles for the lasso, the
optimal-feature-count formula, PCA, and the SVM solver.

Every check recomputes its expected answer through an independent route
(finite differences, closed forms, numpy's eigensolver, brute-force grid
search) rather than through the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lasso import lambda_max, lasso_fit
from .pca import pca_fit, reconstruction_error
from .sae import _ae_value_and_grads, _ft_value_and_grads, _init_matrix
from .svm import svm_objective, svm_predict, svm_train
from .ttest import optimal_m, two_sample_t
from .data import Dataset

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


def check_reconstruction_gradients(instances: int = 20, seed: int = 7) -> CheckResult:
    """Analytic tied-weight reconstruction gradients vs finite differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        d = int(rng.integers(3, 7))
        h = int(rng.integers(1, d))
        n = int(rng.integers(2, 8))
        X = rng.normal(size=(n, d))
        W = _init_matrix(rng, h, d)
        b = rng.normal(scale=0.1, size=h)
        d_bias = rng.normal(scale=0.1, size=d)
        sizes = (W.size, b.size, d_bias.size)

        def unpack(vec):
            w_end, b_end = sizes[0], sizes[0] + sizes[1]
            return vec[:w_end].reshape(h, d), vec[w_end:b_end], vec[b_end:]

        def loss_of(vec):
            Wv, bv, dv = unpack(vec)
            return _ae_value_and_grads(Wv, bv, dv, X)[0]

        vec = np.concatenate([W.ravel(), b, d_bias])
        _, gW, gb, gd = _ae_value_and_grads(W, b, d_bias, X)
        analytic = np.concatenate([gW.ravel(), gb, gd])
        worst = max(worst, _rel_err(analytic, _central_diff(loss_of, vec)))
    return CheckResult("reconstruction-gradients", worst < GRAD_RTOL, worst,
                       f"{instances} random instances, fd step {FD_STEP:g}")


def check_finetune_gradients(instances: int = 20, seed: int = 11) -> CheckResult:
    """Analytic backprop gradients of the cross-entropy + L2 loss vs finite
    differences, through stacks of one or two encoder layers."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        d = int(rng.integers(4, 7))
        dims = [int(rng.integers(2, d))]
        if rng.integers(0, 2) and dims[0] > 1:
            dims.append(int(rng.integers(1, dims[0])))
        n = int(rng.integers(4, 9))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        l2 = float(rng.choice([0.0, 1e-3, 1e-2]))
        chain = [d] + dims
        Ws = [_init_matrix(rng, ho, hi) for hi, ho in zip(chain, chain[1:])]
        bs = [rng.normal(scale=0.1, size=ho) for ho in dims]
        Wh = _init_matrix(rng, 2, dims[-1])
        bh = rng.normal(scale=0.1, size=2)
        shapes = [w.shape for w in Ws]

        def unpack(vec):
            pos = 0
            ws, bs_ = [], []
            for (ho, hi) in shapes:
                ws.append(vec[pos:pos + ho * hi].reshape(ho, hi))
                pos += ho * hi
            for ho, _ in shapes:
                bs_.append(vec[pos:pos + ho])
                pos += ho
            wh = vec[pos:pos + 2 * dims[-1]].reshape(2, dims[-1])
            pos += 2 * dims[-1]
            return ws, bs_, wh, vec[pos:]

        def loss_of(vec):
            ws, bs_, wh, bh_ = unpack(vec)
            return _ft_value_and_grads(ws, bs_, wh, bh_, X, y, l2)[0]

        vec = np.concatenate([w.ravel() for w in Ws] + bs + [Wh.ravel(), bh])
        _, gWs, gbs, gWh, gbh = _ft_value_and_grads(Ws, bs, Wh, bh, X, y, l2)
        analytic = np.concatenate([g.ravel() for g in gWs] + gbs + [gWh.ravel(), gbh])
        worst = max(worst, _rel_err(analytic, _central_diff(loss_of, vec)))
    return CheckResult("fine-tune-gradients", worst < GRAD_RTOL, worst,
                       f"{instances} random instances, fd step {FD_STEP:g}")


def check_lasso_lambda_max(instances: int = 100, seed: int = 3) -> CheckResult:
    """At or above lambda_max every coefficient must be exactly zero."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(instances):
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
                       f"{instances} random instances, max |beta| at lambda >= lambda_max")


def check_lasso_orthogonal(instances: int = 50, seed: int = 4) -> CheckResult:
    """With X^T X = n I the solution is the closed form
    soft(X_j^T y / n, lambda/2) coordinate by coordinate."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
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
                       f"{instances} orthogonal designs")


def check_lasso_kkt(instances: int = 50, seed: int = 5) -> CheckResult:
    """Subgradient optimality of converged fits: |(2/n) X_j^T r| <= lambda
    where beta_j = 0, and equal to lambda*sign(beta_j) elsewhere."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(instances):
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
                       f"{instances} converged fits, subgradient residual")


def check_optimal_m(instances: int = 50, seed: int = 6) -> CheckResult:
    """optimal_m must equal a literal re-evaluation of its score over all m
    using an independent t ranking, numpy's corrcoef, and eigvalsh."""
    rng = np.random.default_rng(seed)
    agree = True
    checked = 0
    for _ in range(instances):
        n, p = 30, 8
        X = rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0, size=p)
        labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
        X[labels == 1, : 3] += rng.uniform(0.0, 1.0)
        stats = two_sample_t(Dataset.from_arrays(X, labels))
        got = optimal_m(stats, X, n0=n // 2, n1=n - n // 2)

        # independent re-evaluation
        n0 = n1 = n // 2
        x0, x1 = X[labels == 0], X[labels == 1]
        t = (x0.mean(0) - x1.mean(0)) / np.sqrt(x0.var(0, ddof=1) / n0 + x1.var(0, ddof=1) / n1)
        order = np.argsort(-t * t, kind="stable")
        t2 = (t * t)[order]
        best_m, best_score = 1, -np.inf
        for m in range(1, p + 1):
            lam = 1.0 if m == 1 else float(np.linalg.eigvalsh(np.corrcoef(X[:, order[:m]].T))[-1])
            s = float(np.sum(t2[:m]))
            score = (n * (s + m * (n0 - n1) / n) ** 2) / (lam * (m * n0 * n1 + n0 * n1 * s))
            if score > best_score:
                best_m, best_score = m, score
        agree = agree and (got == best_m)
        checked += 1
    return CheckResult("optimal-m-literal-reevaluation", agree, 0.0 if agree else 1.0,
                       f"exact argmax agreement on {checked} random 30x8 datasets")


def check_pca_identities(instances: int = 50, seed: int = 8) -> CheckResult:
    """Reconstruction error equals trace(S) minus the top-r eigenvalue sum
    (eigenvalues from numpy), components stay orthonormal, and the error is
    nonincreasing in r."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(instances):
        p = int(rng.integers(2, 21))
        n = int(rng.integers(p + 2, 60))
        X = rng.normal(size=(n, p)) @ rng.normal(size=(p, p)) * 0.5
        centered = X - X.mean(axis=0)
        S = centered.T @ centered / n
        eigs = np.sort(np.linalg.eigvalsh(S))[::-1]
        r_all = min(n - 1, p)
        prev = np.inf
        for r in range(1, r_all + 1):
            model = pca_fit(X, r)
            err = reconstruction_error(model, X)
            expected = float(np.trace(S) - np.sum(eigs[:r]))
            worst = max(worst, abs(err - expected))
            gram = model.components.T @ model.components
            worst = max(worst, float(np.max(np.abs(gram - np.eye(r)))))
            ok = ok and err <= prev + 1e-10
            prev = err
    return CheckResult("pca-spectral-identities", ok and worst < 1e-8, worst,
                       f"{instances} random datasets, p <= 20")


def check_svm_grid(seed: int = 9) -> CheckResult:
    """Solver objective vs the closed-form optimum of a 1-D 4-point toy, and
    a brute-force grid over (w, b) in [-3, 3] at step 0.01 that must find no
    point better than the solver.

    The optimum is 25/32 at (w, b) = (1.25, -0.125): the hard margin between
    -0.7 and 0.9 gives w = 2/1.6 with every hinge term 0, and shrinking w by
    d costs (0.7 + 0.9) d of hinge against 1.25 d of norm. b* lies off the
    grid, whose best point is about 0.7848, so the grid bounds from one side
    only."""
    X = np.array([[-2.0], [-0.7], [0.9], [2.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    C = 1.0
    ax = np.arange(-3.0, 3.0 + 1e-12, 0.01)
    W, B = np.meshgrid(ax, ax, indexing="ij")
    margins = y[None, None, :] * (W[..., None] * X[:, 0][None, None, :] + B[..., None])
    obj = 0.5 * W ** 2 + C * np.sum(np.maximum(0.0, 1.0 - margins), axis=-1)
    grid_best = float(obj.min())
    model = svm_train(X, y, C, tol=0.0, max_epochs=200000)
    got = svm_objective(X, y, model.w, model.bias, C)
    optimum = 25.0 / 32.0
    err = abs(got - optimum)
    ok = err < 1e-3 and grid_best > got - 1e-3
    return CheckResult("svm-grid-oracle", ok, err,
                       f"solver {got:.6f} vs optimum {optimum:.6f}, grid best {grid_best:.6f}")


def check_svm_separable(instances: int = 20, seed: int = 10) -> CheckResult:
    """Linearly separable instances with C >= 100 must reach training
    accuracy 1.0."""
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for _ in range(instances):
        n, q = int(rng.integers(6, 30)), int(rng.integers(1, 5))
        half = n // 2
        X = rng.normal(size=(n, q))
        X[:half] -= 3.0
        X[half:] += 3.0
        y = np.array([-1.0] * half + [1.0] * (n - half))
        model = svm_train(X, y, C=100.0)
        acc = float(np.mean(svm_predict(model, X) == y))
        worst = max(worst, 1.0 - acc)
        ok = ok and acc == 1.0
    return CheckResult("svm-separable-accuracy", ok, worst,
                       f"{instances} separable instances at C=100")


GRADIENT_CHECKS = (check_reconstruction_gradients, check_finetune_gradients)
ORACLE_CHECKS = (check_lasso_lambda_max, check_lasso_orthogonal, check_lasso_kkt,
                 check_optimal_m, check_pca_identities, check_svm_grid,
                 check_svm_separable)

SUITES = {
    "gradients": GRADIENT_CHECKS,
    "oracles": ORACLE_CHECKS,
    "all": GRADIENT_CHECKS + ORACLE_CHECKS,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    return [check() for check in SUITES[name]]
