import numpy as np
import pytest

from featlearn.data import cv_masks, kfold
from featlearn.lasso import (SingularActiveSetError, lambda_max, lambda_path, lasso_cv,
                             lasso_fit, lasso_objective, lasso_path, selected_features)
from lasso_reference import coordinate_descent, running_max_lambda_max


def _centered_problem(rng, n, p, signal=0):
    X = rng.normal(size=(n, p))
    X -= X.mean(axis=0)
    beta = np.zeros(p)
    beta[:signal] = 1.0
    y = X @ beta + rng.normal(size=n)
    y -= y.mean()
    return X, y


def _orthogonal_design(rng, n, p):
    Q, _ = np.linalg.qr(rng.normal(size=(n, p)))
    return Q * np.sqrt(n)  # X^T X = n I


class TestLassoFit:
    @pytest.mark.parametrize("seed", range(10))
    def test_lambda_max_gives_exact_zeros(self, seed):
        rng = np.random.default_rng(seed)
        X, y = _centered_problem(rng, 25, 8)
        fit = lasso_fit(X, y, lambda_max(X, y))
        assert np.all(fit.beta == 0.0)

    def test_zero_lambda_least_squares_on_orthogonal_design(self):
        rng = np.random.default_rng(1)
        X = _orthogonal_design(rng, 30, 5)
        y = rng.normal(size=30)
        y -= y.mean()
        fit = lasso_fit(X, y, 0.0)
        np.testing.assert_allclose(fit.beta, X.T @ y / 30, atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_orthogonal_design_soft_threshold_closed_form(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = int(rng.integers(2, 8))
        X = _orthogonal_design(rng, 20 + p, p)
        y = rng.normal(size=20 + p)
        y -= y.mean()
        z = X.T @ y / X.shape[0]
        lam = float(rng.uniform(0.1, 1.2)) * np.max(np.abs(z))
        expected = np.sign(z) * np.maximum(np.abs(z) - lam / 2.0, 0.0)
        fit = lasso_fit(X, y, lam)
        np.testing.assert_allclose(fit.beta, expected, atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_kkt_certificate(self, seed):
        rng = np.random.default_rng(200 + seed)
        X, y = _centered_problem(rng, 40, 12, signal=3)
        lam = 0.3 * lambda_max(X, y)
        fit = lasso_fit(X, y, lam)
        assert fit.converged
        grad = 2.0 * (X.T @ (y - X @ fit.beta)) / X.shape[0]
        zero = fit.beta == 0.0
        assert np.all(np.abs(grad[zero]) <= lam + 1e-6)
        np.testing.assert_allclose(grad[~zero], lam * np.sign(fit.beta[~zero]), atol=1e-6)

    def test_objective_field_matches_recomputation(self):
        rng = np.random.default_rng(4)
        X, y = _centered_problem(rng, 30, 6, signal=2)
        lam = 0.2 * lambda_max(X, y)
        fit = lasso_fit(X, y, lam)
        assert abs(fit.objective - lasso_objective(X, y, fit.beta, lam)) < 1e-10

    def test_label_flip_negates_beta_exactly(self):
        rng = np.random.default_rng(6)
        X, y = _centered_problem(rng, 30, 8, signal=2)
        lam = 0.2 * lambda_max(X, y)
        a = lasso_fit(X, y, lam)
        b = lasso_fit(X, -y, lam)
        np.testing.assert_array_equal(a.beta, -b.beta)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            lasso_fit(np.zeros((3, 2)), np.zeros(3), -0.1)


class TestCoordinateDescentReference:
    def test_objective_nonincreasing_per_sweep(self):
        rng = np.random.default_rng(5)
        X, y = _centered_problem(rng, 35, 10, signal=4)
        lam = 0.1 * lambda_max(X, y)
        prev = lasso_objective(X, y, np.zeros(10), lam)
        for sweeps in range(1, 15):
            fit = coordinate_descent(X, y, lam, tol=0.0, max_iter=sweeps)
            assert fit.objective <= prev + 1e-12 * (1 + abs(prev))
            prev = fit.objective

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(7)
        X, y = _centered_problem(rng, 40, 10, signal=5)
        fit = coordinate_descent(X, y, 1e-6, tol=0.0, max_iter=3)
        assert not fit.converged
        assert fit.iterations_run == 3


class TestLambdaMaxMatchesReference:
    """lambda_max, the maximum of the path's starting correlations, equals
    the running maximum over raw dot products bit for bit."""

    @staticmethod
    def _same(X, y):
        got, want = lambda_max(X, y), running_max_lambda_max(X, y)
        assert isinstance(got, float)
        assert got.hex() == want.hex()
        return got

    @pytest.mark.parametrize("seed", range(20))
    def test_random_problems(self, seed):
        rng = np.random.default_rng(900 + seed)
        n, p = int(rng.integers(2, 60)), int(rng.integers(1, 80))
        X = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-3, 3, p)
        self._same(X, rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3))

    def test_zero_columns(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(13, 5))
        X[:, [0, 3]] = 0.0
        y = rng.normal(size=13)
        assert self._same(X, y) > 0.0
        assert self._same(np.zeros((13, 5)), y) == 0.0
        assert self._same(np.zeros((13, 0)), y) == 0.0

    def test_maximum_at_a_negative_correlation(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(31, 6))
        y = -3.0 * X[:, 4] + 0.1 * rng.normal(size=31)
        corr = X.T @ y
        assert np.argmax(np.abs(corr)) == 4 and corr[4] < 0.0
        assert self._same(X, y) == 2.0 * abs(float(np.ascontiguousarray(X[:, 4]) @ y)) / 31


class TestLassoPath:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_coordinate_descent(self, seed):
        # coordinate descent stops on a coordinate step of 1e-12, not on the
        # error; on these problems it stays within 2e-10 of the path
        rng = np.random.default_rng(300 + seed)
        p = 71 if seed == 0 else int(rng.integers(2, 72))
        n = int(rng.integers(p + 10, 201))
        X, y = _centered_problem(rng, n, p, signal=int(rng.integers(0, p + 1)))
        lams = lambda_path(X, y, 20, 0.01)
        path = lasso_path(X, y, lams)
        beta = None
        for i, lam in enumerate(lams):
            fit = coordinate_descent(X, y, lam, tol=1e-12, max_iter=100000, beta0=beta)
            beta = fit.beta
            assert fit.converged
            np.testing.assert_allclose(path[:, i], beta, rtol=0, atol=1e-9)
            np.testing.assert_array_equal(np.abs(path[:, i]) > 1e-10, np.abs(beta) > 1e-10)

    def test_columns_follow_lambda_order(self):
        rng = np.random.default_rng(8)
        X, y = _centered_problem(rng, 30, 6, signal=2)
        lams = lambda_max(X, y) * np.array([0.3, 1.2, 0.05, 0.6])
        path = lasso_path(X, y, lams)
        for i, lam in enumerate(lams):
            np.testing.assert_array_equal(path[:, i], lasso_path(X, y, [lam])[:, 0])
        assert np.all(path[:, 1] == 0.0)

    def test_tied_events_join_together(self):
        # Hadamard columns: X^T X = n I exactly, and X_1^T y = -X_2^T y while
        # X_3^T y = X_4^T y, so two pairs of columns join at the same lambdas
        h = np.array([[1.0, 1.0], [1.0, -1.0]])
        hadamard = np.kron(np.kron(h, h), h)
        X = hadamard[:, 1:5]
        y = X @ np.array([3.0, -3.0, 1.0, 1.0]) + 0.5 * hadamard[:, 6]
        z = X.T @ y / X.shape[0]
        np.testing.assert_array_equal(z, [3.0, -3.0, 1.0, 1.0])
        lams = np.geomspace(lambda_max(X, y), 1e-3, 25)
        path = lasso_path(X, y, lams)
        expected = np.sign(z)[:, None] * np.maximum(np.abs(z)[:, None] - lams / 2.0, 0.0)
        np.testing.assert_allclose(path, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(path[0], -path[1])
        np.testing.assert_array_equal(path[2], path[3])
        assert lasso_fit(X, y, 0.5 * lams[0]).iterations_run == 1

    def test_tie_among_correlated_columns_matches_reference(self):
        # two columns reach the bound together at lambda = 0.75 and only one
        # of them may enter; letting both in breaks the optimality conditions
        X = np.array([[-1.0, -1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        y = np.array([-1.0, 0.0, 1.0, 2.0])
        lams = np.linspace(1.5, 0.01, 30)
        path = lasso_path(X, y, lams)
        for i, lam in enumerate(lams):
            beta = coordinate_descent(X, y, lam, tol=1e-13, max_iter=100000).beta
            np.testing.assert_allclose(path[:, i], beta, rtol=0, atol=1e-9)

    def test_column_parallel_to_its_bound_stays_out(self):
        # columns 1 and 2 tie at lambda_max; once column 1 enters, column 2's
        # correlation keeps exactly to the bound, and the walk must not let
        # it in and out again at every step
        X = np.array([[1.0, -1.0, -1.0], [0.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        y = np.array([2.0, -2.0, -1.0, 0.0])
        lams = np.linspace(lambda_max(X, y), 0.01, 12)
        path = lasso_path(X, y, lams)
        assert np.all(path[2] == 0.0)
        for i, lam in enumerate(lams):
            beta = coordinate_descent(X, y, lam, tol=1e-13, max_iter=100000).beta
            np.testing.assert_allclose(path[:, i], beta, rtol=0, atol=1e-9)

    def test_constant_column_stays_zero(self):
        rng = np.random.default_rng(9)
        X, y = _centered_problem(rng, 40, 6, signal=6)
        X[:, 2] = 0.0
        lams = np.append(lambda_path(X, y, 15, 0.001), 0.0)
        path = lasso_path(X, y, lams)
        assert np.all(path[2] == 0.0)
        assert np.all(np.abs(path[[0, 1, 3, 4, 5], -1]) > 0.0)

    @pytest.mark.parametrize("copy_of", [0, 3])
    def test_duplicated_column_raises(self, copy_of):
        rng = np.random.default_rng(10)
        X, y = _centered_problem(rng, 40, 5, signal=5)
        X = np.column_stack([X, X[:, copy_of]])
        with pytest.raises(SingularActiveSetError):
            lasso_path(X, y, lambda_path(X, y, 20, 0.01))
        assert issubclass(SingularActiveSetError, ArithmeticError)

    def test_more_columns_than_rows_raises_at_zero_lambda(self):
        rng = np.random.default_rng(11)
        X, y = _centered_problem(rng, 6, 10, signal=3)
        with pytest.raises(SingularActiveSetError):
            lasso_path(X, y, [0.0])

    @pytest.mark.parametrize("lams", [[-0.1], [np.nan], [[0.1]]])
    def test_bad_lambdas_rejected(self, lams):
        with pytest.raises(ValueError):
            lasso_path(np.eye(3), np.ones(3), lams)


class TestLambdaPath:
    def test_two_point_endpoints(self):
        rng = np.random.default_rng(0)
        X, y = _centered_problem(rng, 20, 4, signal=1)
        path = lambda_path(X, y, 2, 0.01)
        lmax = lambda_max(X, y)
        np.testing.assert_allclose(path, [lmax, 0.01 * lmax])

    def test_head_of_path_gives_zero_fit(self):
        rng = np.random.default_rng(1)
        X, y = _centered_problem(rng, 25, 6, signal=2)
        path = lambda_path(X, y, 10, 0.05)
        assert np.all(lasso_fit(X, y, path[0]).beta == 0.0)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(2)
        X, y = _centered_problem(rng, 25, 6, signal=2)
        path = lambda_path(X, y, 12, 0.01)
        assert np.all(np.diff(path) < 0)

    def test_degenerate_y(self):
        X = np.random.default_rng(3).normal(size=(10, 3))
        X -= X.mean(axis=0)
        path = lambda_path(X, np.zeros(10), 5, 0.1)
        np.testing.assert_array_equal(path, [0.0])


class TestSelectedFeatures:
    def test_all_zero(self):
        fit = lasso_fit(np.zeros((3, 2)) + np.array([[1.0, -1], [0, 1], [-1, 0]]),
                        np.zeros(3), 10.0)
        assert selected_features(fit).size == 0

    def test_direct_readoff(self):
        from featlearn.lasso import LassoFit
        fit = LassoFit(beta=np.array([0.5, 0.0, -0.3]), lam=0.1,
                       iterations_run=1, converged=True, objective=0.0)
        np.testing.assert_array_equal(selected_features(fit, eps=1e-8), [0, 2])

    def test_eps_dominates(self):
        from featlearn.lasso import LassoFit
        fit = LassoFit(beta=np.array([0.5, -0.3]), lam=0.1,
                       iterations_run=1, converged=True, objective=0.0)
        assert selected_features(fit, eps=1.0).size == 0


class TestLassoCv:
    def _folds(self, n, k=5, seed=0):
        return kfold(np.array([0, 1] * (n // 2)), k, seed)

    def test_single_lambda(self):
        rng = np.random.default_rng(0)
        X, y = _centered_problem(rng, 20, 4)
        assert lasso_cv(X, y, self._folds(20), [0.5]) == 0.5

    def _noise_problem(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 40, 10
        X = rng.normal(size=(n, p))
        X -= X.mean(axis=0)
        y = np.array([-1.0, 1.0] * (n // 2))
        lams = lambda_path(X, y - y.mean(), 8, 0.01)
        return X, y, self._folds(n, seed=seed), lams

    def test_pure_noise_prefers_largest_lambda(self):
        # Minimum mean validation error picks lams[0] on about 70% of these
        # problems (699 of seeds 0-999), not on all: the full-data lambda_max
        # need not zero every fold's fit, and a small lambda can beat the null
        # model on a fold by chance. A strict majority is the rule's real
        # preference; at a rate of 0.70, 50 or fewer wins in 100 has
        # probability about 2e-5. Taking the argmax of CV error, scoring
        # training error, or scoring misclassification each fall far below.
        wins = 0
        for seed in range(100):
            X, y, folds, lams = self._noise_problem(seed)
            if lasso_cv(X, y, folds, lams) == lams[0]:
                wins += 1
        assert wins >= 51

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_cold_start_reference(self, seed):
        X, y, folds, lams = self._noise_problem(seed)
        errors = np.zeros(lams.size)
        for fold in folds:
            val = np.asarray(fold)
            train = np.setdiff1d(np.arange(y.size), val)
            col_means = X[train].mean(axis=0)
            y_mean = y[train].mean()
            for i, lam in enumerate(lams):
                beta = coordinate_descent(X[train] - col_means, y[train] - y_mean, lam).beta
                resid = y[val] - ((X[val] - col_means) @ beta + y_mean)
                errors[i] += resid @ resid / val.size
        expected = lams[errors == errors.min()].max()
        assert lasso_cv(X, y, folds, lams) == expected

    def test_equal_fold_errors_pick_larger_lambda(self):
        # above every fold's own lambda_max each fit is all-zero, so every
        # lambda has the same validation error
        X, y, folds, _ = self._noise_problem(0)
        top = max(lambda_max(X[train] - X[train].mean(axis=0), y[train] - y[train].mean())
                  for train, _ in cv_masks(y.size, folds))
        lams = top * np.array([2.0, 8.0, 4.0])
        assert lasso_cv(X, y, folds, lams) == lams[1]

    def test_strong_signal_recovers_support(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            n, p = 60, 20
            X = rng.normal(size=(n, p))
            X -= X.mean(axis=0)
            y = np.sign(X[:, 0] + X[:, 1] + 0.3 * rng.normal(size=n))
            lams = lambda_path(X, y - y.mean(), 10, 0.01)
            best = lasso_cv(X, y, self._folds(n, seed=seed), lams)
            fit = lasso_fit(X, y - y.mean(), best)
            if {0, 1} <= set(selected_features(fit).tolist()):
                wins += 1
        assert wins >= 90

    def test_empty_lambda_list_rejected(self):
        with pytest.raises(ValueError):
            lasso_cv(np.zeros((4, 2)), np.zeros(4), [], [])
