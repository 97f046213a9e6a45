import re
from functools import partial
from unittest import mock

import numpy as np
import pytest

from featlearn import lasso
from featlearn.data import SyntheticSpec, generate_synthetic, kfold
from featlearn.harness import (ExperimentConfig, PipelineSpec, _checked_split, _choose,
                               _RepeatFits)
from featlearn.lasso import (SingularActiveSetError, lambda_max, lambda_path, lasso_cv,
                             lasso_fit, lasso_path, selected_features)
from lasso_reference import (coordinate_descent, lasso_objective, running_max_lambda_max,
                             sequential_walk)


def _one_member(X, y, lam):
    """The solution at one lambda: the one-member path's only column."""
    return lasso_path([(X, y)], [lam])[0][:, 0]


def _segments(X, y, lam):
    """The segments the one-member walk takes to reach lam, counted as its
    ``lasso._solve_active`` calls: one per segment where the natural tie
    choice holds, as it does wherever this is used."""
    with mock.patch.object(lasso, "_solve_active", wraps=lasso._solve_active) as solve:
        lasso_path([(X, y)], [lam])
    return solve.call_count


def _centered_problem(rng, n, p, signal=0):
    X = rng.normal(size=(n, p))
    X -= X.mean(axis=0)
    beta = np.zeros(p)
    beta[:signal] = 1.0
    y = X @ beta + rng.normal(size=n)
    y -= y.mean()
    return X, y


def _random_path(seed):
    X, y = _centered_problem(np.random.default_rng(200 + seed), 40, 12, signal=3)
    return X, y, lambda_path(X, y, 20, 0.01)


def _orthogonal_design(rng, n, p):
    Q, _ = np.linalg.qr(rng.normal(size=(n, p)))
    return Q * np.sqrt(n)  # X^T X = n I


def _hadamard_ties():
    # Hadamard columns: X^T X = n I exactly, and X_1^T y = -X_2^T y while
    # X_3^T y = X_4^T y, so two pairs of columns join at the same lambdas
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    hadamard = np.kron(np.kron(h, h), h)
    X = hadamard[:, 1:5]
    y = X @ np.array([3.0, -3.0, 1.0, 1.0]) + 0.5 * hadamard[:, 6]
    return X, y, np.geomspace(lambda_max(X, y), 1e-3, 25)


def _correlated_tie():
    # two columns reach the bound together at lambda = 0.75 and only one
    # of them may enter; letting both in breaks the optimality conditions
    X = np.array([[-1.0, -1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    y = np.array([-1.0, 0.0, 1.0, 2.0])
    return X, y, np.linspace(1.5, 0.01, 30)


def _singular_choice_tie():
    # column 0 drops at the lambda where columns 2 and 3 reach the bound;
    # letting both in fails, and the next choice, which also keeps column
    # 0, has four active columns on three rows, so its solve is singular
    # and it is skipped; column 3 alone joins
    X = np.array([[-1.0, -1.0, 0.0, 1.0], [2.0, 1.0, -1.0, 0.0], [2.0, 1.0, 0.0, -2.0]])
    y = np.array([-3.0, 3.0, 0.0])
    return X, y, np.linspace(lambda_max(X, y), 0.01, 12)


def _parallel_tie():
    # columns 1 and 2 tie at lambda_max; once column 1 enters, column 2's
    # correlation keeps exactly to the bound, and the walk must not let
    # it in and out again at every step
    X = np.array([[1.0, -1.0, -1.0], [0.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    y = np.array([2.0, -2.0, -1.0, 0.0])
    return X, y, np.linspace(lambda_max(X, y), 0.01, 12)


class TestLassoFit:
    """The solution at one lambda, read from the one-member path."""

    @pytest.mark.parametrize("seed", range(10))
    def test_lambda_max_gives_exact_zeros(self, seed):
        rng = np.random.default_rng(seed)
        X, y = _centered_problem(rng, 25, 8)
        assert np.all(_one_member(X, y, lambda_max(X, y)) == 0.0)

    def test_zero_lambda_least_squares_on_orthogonal_design(self):
        rng = np.random.default_rng(1)
        X = _orthogonal_design(rng, 30, 5)
        y = rng.normal(size=30)
        y -= y.mean()
        np.testing.assert_allclose(_one_member(X, y, 0.0), X.T @ y / 30, atol=1e-10)

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
        np.testing.assert_allclose(_one_member(X, y, lam), expected, atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_kkt_certificate(self, seed):
        rng = np.random.default_rng(200 + seed)
        X, y = _centered_problem(rng, 40, 12, signal=3)
        lam = 0.3 * lambda_max(X, y)
        beta = _one_member(X, y, lam)
        grad = 2.0 * (X.T @ (y - X @ beta)) / X.shape[0]
        zero = beta == 0.0
        assert np.all(np.abs(grad[zero]) <= lam + 1e-6)
        np.testing.assert_allclose(grad[~zero], lam * np.sign(beta[~zero]), atol=1e-6)

    def test_label_flip_negates_beta_exactly(self):
        rng = np.random.default_rng(6)
        X, y = _centered_problem(rng, 30, 8, signal=2)
        lam = 0.2 * lambda_max(X, y)
        np.testing.assert_array_equal(_one_member(X, y, lam), -_one_member(X, -y, lam))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            _one_member(np.zeros((3, 2)), np.zeros(3), -0.1)

    @pytest.mark.parametrize("problem", [*(partial(_random_path, seed) for seed in range(3)),
                                         _hadamard_ties, _correlated_tie, _singular_choice_tie,
                                         _parallel_tie])
    def test_alias_is_the_one_member_path_column(self, problem):
        # lasso_fit stays only for the benchmark tracer, which looks it up by name
        X, y, lams = problem()
        for lam in lams:
            _same_bytes(lasso_fit(X, y, lam), _one_member(X, y, lam))


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
        path, = lasso_path([(X, y)], lams)
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
        path, = lasso_path([(X, y)], lams)
        for i, lam in enumerate(lams):
            np.testing.assert_array_equal(path[:, i], lasso_path([(X, y)], [lam])[0][:, 0])
        assert np.all(path[:, 1] == 0.0)

    def test_tied_events_join_together(self):
        X, y, lams = _hadamard_ties()
        z = X.T @ y / X.shape[0]
        np.testing.assert_array_equal(z, [3.0, -3.0, 1.0, 1.0])
        path, = lasso_path([(X, y)], lams)
        expected = np.sign(z)[:, None] * np.maximum(np.abs(z)[:, None] - lams / 2.0, 0.0)
        np.testing.assert_allclose(path, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(path[0], -path[1])
        np.testing.assert_array_equal(path[2], path[3])
        assert _segments(X, y, 0.5 * lams[0]) == 1

    def test_tie_among_correlated_columns_matches_reference(self):
        X, y, lams = _correlated_tie()
        path, = lasso_path([(X, y)], lams)
        for i, lam in enumerate(lams):
            beta = coordinate_descent(X, y, lam, tol=1e-13, max_iter=100000).beta
            np.testing.assert_allclose(path[:, i], beta, rtol=0, atol=1e-9)

    def test_singular_tie_choice_is_skipped(self, monkeypatch):
        X, y, lams = _singular_choice_tie()
        solves, solve = [], lasso._solve_active

        def recording_solve(blocks, rhs):
            uv, singular = solve(blocks, rhs)
            solves.append((blocks.shape[1], uv is None))
            return uv, singular

        monkeypatch.setattr(lasso, "_solve_active", recording_solve)
        path, = lasso_path([(X, y)], lams)
        # a solve per segment, the tie's natural choice third; then the
        # singular choice and columns 1 and 2, which fail, and 1 and 3
        assert solves == [(1, False), (2, False), (3, False), (4, True), (2, False), (2, False),
                          (3, False)]
        assert np.all(path[2] == 0.0)
        for i, lam in enumerate(lams):
            beta = coordinate_descent(X, y, lam, tol=1e-13, max_iter=100000).beta
            np.testing.assert_allclose(path[:, i], beta, rtol=0, atol=1e-9)

    def test_empty_tie_choice_is_skipped(self):
        # the only active column, 0, leaves as column 1 joins: with column 1
        # alone, column 0's correlation crosses the bound; both together
        # move column 1 toward 0; the next choice is no column at all, which
        # is skipped, and column 0 alone holds
        gram = np.array([[1.0, 1.5], [1.5, 4.0]])
        active, signs, *_, mask = lasso._next_segment(
            gram, np.ones(2), [], np.empty(0), np.array([0, 1]), np.ones(2),
            np.array([False, True]), 0)
        assert active == [0] and signs.tolist() == [1.0]
        assert mask.tolist() == [True, False]

    def test_column_parallel_to_its_bound_stays_out(self):
        X, y, lams = _parallel_tie()
        path, = lasso_path([(X, y)], lams)
        assert np.all(path[2] == 0.0)
        for i, lam in enumerate(lams):
            beta = coordinate_descent(X, y, lam, tol=1e-13, max_iter=100000).beta
            np.testing.assert_allclose(path[:, i], beta, rtol=0, atol=1e-9)

    def test_constant_column_stays_zero(self):
        rng = np.random.default_rng(9)
        X, y = _centered_problem(rng, 40, 6, signal=6)
        X[:, 2] = 0.0
        lams = np.append(lambda_path(X, y, 15, 0.001), 0.0)
        path, = lasso_path([(X, y)], lams)
        assert np.all(path[2] == 0.0)
        assert np.all(np.abs(path[[0, 1, 3, 4, 5], -1]) > 0.0)

    @pytest.mark.parametrize("copy_of", [0, 3])
    def test_duplicated_column_raises(self, copy_of):
        rng = np.random.default_rng(10)
        X, y = _centered_problem(rng, 40, 5, signal=5)
        X = np.column_stack([X, X[:, copy_of]])
        with pytest.raises(SingularActiveSetError):
            lasso_path([(X, y)], lambda_path(X, y, 20, 0.01))
        assert issubclass(SingularActiveSetError, ArithmeticError)

    def test_more_columns_than_rows_raises_at_zero_lambda(self):
        rng = np.random.default_rng(11)
        X, y = _centered_problem(rng, 6, 10, signal=3)
        with pytest.raises(SingularActiveSetError):
            lasso_path([(X, y)], [0.0])

    @pytest.mark.parametrize("lams", [[-0.1], [np.nan], [[0.1]]])
    def test_bad_lambdas_rejected(self, lams):
        with pytest.raises(ValueError):
            lasso_path([(np.eye(3), np.ones(3))], lams)

    @pytest.mark.parametrize("call", [
        lambda lams: lasso_path([(np.eye(3), np.ones(3))], lams),
        lambda lams: lasso_cv(np.eye(4), np.ones(4), kfold([0, 0, 1, 1], 2, seed=0), lams),
    ], ids=["lasso-path", "lasso-cv"])
    def test_integer_past_the_float_range_rejected(self, call):
        message = f"lambdas must be numbers, got [0.5, {10**400}]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call([0.5, 10**400])


def _same_bytes(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestLassoPathBlock:
    """Each member of a lockstep block walks the path it walks alone, byte
    for byte: against the one-problem sequential walk in lasso_reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_one_member_matches_sequential_walk(self, seed):
        rng = np.random.default_rng(1300 + seed)
        p = int(rng.integers(2, 72))
        X, y = _centered_problem(rng, int(rng.integers(p + 10, 201)), p,
                                 signal=int(rng.integers(0, p + 1)))
        lams = np.append(lambda_path(X, y, 20, 0.01), 0.0)
        want, segments = sequential_walk(X, y, lams)
        _same_bytes(lasso_path([(X, y)], lams)[0], want)
        assert _segments(X, y, lams[7]) == sequential_walk(X, y, [lams[7]])[1]
        assert segments >= p

    def test_generator_block_of_mixed_problems(self):
        # each member has its own lambda_max, so its own tie tolerance: the
        # last member's is 1e12 times the first's
        rng = np.random.default_rng(14)
        problems = [_centered_problem(rng, n, 12, signal=s) for n, s in ((40, 3), (25, 12), (90, 0))]
        problems.append((np.zeros((30, 12)), rng.normal(size=30)))  # lambda_max 0: all zeros
        X, y = _centered_problem(rng, 60, 12, signal=5)
        problems.append((X, 1e12 * y))
        lams = np.append(lambda_path(*problems[0], 15, 0.001), 1e12 * np.geomspace(1.0, 1e-3, 15))
        block = lasso_path((problem for problem in problems), lams)
        assert len(block) == 5
        for (X, y), got in zip(problems, block):
            _same_bytes(got, sequential_walk(X, y, lams)[0])
        assert np.all(block[3] == 0.0)

    def test_members_whose_active_sets_differ_in_size(self, monkeypatch):
        # member 0's path drops a column (a coefficient nonzero at one lambda
        # is zero at a smaller one); member 1, an orthogonal design, adds one
        # column per segment. So after the drop their active sets differ in
        # size, and the step solves two groups: more solves than the longer
        # walk has segments.
        rng = np.random.default_rng(13)
        X0, y0 = _centered_problem(rng, 30, 8, signal=3)
        X0[:, 1] = X0[:, 0] + 0.3 * X0[:, 1]
        X1 = _orthogonal_design(rng, 30, 8)
        y1 = rng.normal(size=30)
        y1 -= y1.mean()
        lams = np.append(np.geomspace(max(lambda_max(X0, y0), lambda_max(X1, y1)), 1e-4, 200), 0.0)
        want = [sequential_walk(X, y, lams) for X, y in ((X0, y0), (X1, y1))]
        nonzero = want[0][0] != 0.0
        assert (nonzero[:, :-1] & ~nonzero[:, 1:]).any()
        groups = []
        solve = lasso._solve_active
        monkeypatch.setattr(lasso, "_solve_active",
                            lambda blocks, rhs: groups.append(len(blocks)) or solve(blocks, rhs))
        block = lasso_path([(X0, y0), (X1, y1)], lams)
        assert len(groups) > max(segments for _, segments in want)
        assert groups[0] == 2
        for got, (path, _) in zip(block, want):
            _same_bytes(got, path)

    @pytest.mark.parametrize("tie", [_hadamard_ties, _correlated_tie, _singular_choice_tie,
                                     _parallel_tie])
    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("idle", [None, 0, 1])
    def test_tie_problem_beside_an_untied_member(self, tie, position, idle, monkeypatch):
        """With ``idle`` set, a y = 0 member, which has nothing to walk, sits
        at that position: ahead of both walking members, or between them. It
        retires before the first segment with an all-zero path, and the
        members after it keep their own walks and their own numbers."""
        X, y, lams = tie()
        rng = np.random.default_rng(15)
        untied = _centered_problem(rng, 20, X.shape[1], signal=X.shape[1])
        problems = [untied]
        problems.insert(position, (X, y))
        if idle is not None:
            problems.insert(idle, (untied[0], np.zeros(20)))
        tied_at = position + (idle is not None and idle <= position)
        retries = []
        retry = lasso._next_segment
        monkeypatch.setattr(lasso, "_next_segment",
                            lambda *args: retries.append(args[-1]) or retry(*args))
        block = lasso_path(problems, lams)
        for (Xm, ym), got in zip(problems, block):
            _same_bytes(got, sequential_walk(Xm, ym, lams)[0])
        if idle is not None:
            assert np.all(block[idle] == 0.0)
        # the three ties among correlated columns need choices other than the
        # natural one, tried for the tied member alone
        assert retries == [tied_at] * len(retries)
        assert bool(retries) == (tie is not _hadamard_ties)

    @pytest.mark.parametrize("idle_first", [False, True])
    def test_duplicated_column_names_the_member(self, idle_first):
        """Member 2 follows two walking members; member 1 follows a y = 0
        member, which retires before the first segment."""
        rng = np.random.default_rng(10)
        X, y = _centered_problem(rng, 40, 5, signal=5)
        clean = _centered_problem(rng, 40, 6, signal=2)
        dup = (np.column_stack([X, X[:, 3]]), y)
        lams = lambda_path(*dup, 20, 0.01)
        block = [(clean[0], np.zeros(40)), dup] if idle_first else [clean, clean, dup]
        with pytest.raises(SingularActiveSetError, match=rf"^member {len(block) - 1}: active"
                                                         r" columns \[.*3.*5.*\]"
                                                         r" are linearly dependent$"):
            lasso_path(block, lams)

    def test_failed_stacked_cholesky_is_redone_per_member(self, monkeypatch):
        # member 1's columns 0 and 2 are equal and tie at lambda_max, so its
        # G_AA is [[4, 4], [4, 4]] and its second Cholesky pivot is exactly
        # 0; member 0 also starts with two tied (orthogonal) columns, so both
        # share one stacked call, which raises LinAlgError as a whole
        h = np.array([[1.0, 1.0], [1.0, -1.0]])
        hadamard = np.kron(np.kron(h, h), h)
        a = np.array([2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0])
        clean = (hadamard[:, 1:4], hadamard[:, 1] + hadamard[:, 2] + 0.5 * hadamard[:, 3])
        dup = (np.column_stack([a, hadamard[:, 1], a]), a + 0.5 * hadamard[:, 1])
        sizes = []
        solve = lasso._solve_active
        monkeypatch.setattr(lasso, "_solve_active",
                            lambda blocks, rhs: sizes.append(len(blocks)) or solve(blocks, rhs))
        with pytest.raises(SingularActiveSetError, match=r"^member 1: active columns \[0, 2\]"
                                                         r" are linearly dependent$"):
            lasso_path([clean, dup], [1.0, 0.5])
        assert sizes == [2, 1, 1]  # the stacked call, then each block alone

    @pytest.mark.parametrize("idle_first", [False, True])
    def test_no_consistent_tie_choice_names_the_member(self, idle_first, monkeypatch):
        """The tied member is member 1 after a walking member, and member 2
        when a y = 0 member, which retires before the first segment, leads."""
        # only the natural choice, which fails on this tie, may be tried
        monkeypatch.setattr(lasso, "_MAX_TIE_CHOICES", 1)
        X, y, lams = _correlated_tie()
        rng = np.random.default_rng(15)
        untied = _centered_problem(rng, 20, X.shape[1], signal=X.shape[1])
        block = [(untied[0], np.zeros(20))] * idle_first + [untied, (X, y)]
        with pytest.raises(SingularActiveSetError, match=rf"^member {len(block) - 1}: no"
                                                         r" consistent active set among tied"
                                                         r" columns \[0, 2\]$"):
            lasso_path(block, lams)

    def test_mixed_widths_rejected(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match="member 1 has 3 columns, member 0 has 4"):
            lasso_path([_centered_problem(rng, 10, 4), _centered_problem(rng, 10, 3)], [0.1])

    def test_mixed_widths_rejected_when_a_member_does_not_walk(self):
        """A member with y = 0 never walks, and the width check names it as
        it names any member."""
        X, y = _centered_problem(np.random.default_rng(16), 10, 4)
        with pytest.raises(ValueError, match="member 1 has 3 columns, member 0 has 4"):
            lasso_path([(X, y), (X[:, :3], np.zeros(10))], [0.1])

    def test_empty_block(self):
        assert lasso_path([], [0.5, 0.1]) == []


class TestLassoRejectsBadProblems:
    """A NaN once gave all-zero coefficients (no lambda is below a NaN
    lambda_max), an inf a misleading SingularActiveSetError, and a 1-D X or
    a short y an unpacking or matmul error."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_non_finite_names_the_member(self, bad, where):
        rng = np.random.default_rng(17)
        problems = [_centered_problem(rng, 30, 4, signal=2) for _ in range(3)]
        X, y = problems[2]
        (X if where == "X" else y)[5] = bad
        with pytest.raises(ValueError, match="member 2 has a non-finite entry"):
            lasso_path(problems, [0.5, 0.1, 0.01])
        with pytest.raises(ValueError, match="member 0 has a non-finite entry"):
            _one_member(X, y, 0.1)

    def test_one_dimensional_X(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):  # unpacking its shape
            lasso_path([_centered_problem(rng, 30, 1), (rng.normal(size=30), rng.normal(size=30))],
                       [0.1])

    def test_y_one_row_short(self):
        X, y = _centered_problem(np.random.default_rng(19), 30, 4)
        with pytest.raises(ValueError, match=r"y of member 0 must hold one value per row of X"
                                             r" \(30\), got shape \(29,\)"):
            _one_member(X, y[:-1], 0.1)

    def test_column_of_y_rejected(self):
        X, y = _centered_problem(np.random.default_rng(20), 30, 4)
        with pytest.raises(ValueError, match=r"got shape \(30, 1\)"):
            lasso_path([(X, y[:, None])], [0.1])


class TestLambdaPath:
    @pytest.mark.parametrize("n_lambdas", [2.5, True])
    def test_n_lambdas_must_be_an_integer(self, n_lambdas):
        """A bool or a non-integer grid length is refused by name."""
        X, y = _centered_problem(np.random.default_rng(0), 20, 4, signal=1)
        with pytest.raises(ValueError, match=f"^n_lambdas must be an integer, got {n_lambdas!r}$"):
            lambda_path(X, y, n_lambdas, 0.1)
        assert lambda_path(X, y, np.int64(5), 0.1).tobytes() == lambda_path(X, y, 5, 0.1).tobytes()

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
        assert np.all(_one_member(X, y, path[0]) == 0.0)

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
        beta = _one_member(np.array([[1.0, -1], [0, 1], [-1, 0]]), np.zeros(3), 10.0)
        assert selected_features(beta).size == 0

    def test_direct_readoff(self):
        beta = np.array([0.5, 0.0, -0.3])
        np.testing.assert_array_equal(selected_features(beta), [0, 2])

    def test_fixed_threshold_is_strict(self):
        beta = np.array([1e-10, -1e-10, 2e-10, -2e-10, 1e-300])
        np.testing.assert_array_equal(selected_features(beta), [2, 3])


class TestLassoCv:
    def _folds(self, n, k=5, seed=0):
        return kfold(np.array([0, 1] * (n // 2)), k, seed)

    def test_single_lambda(self):
        rng = np.random.default_rng(0)
        X, y = _centered_problem(rng, 20, 4)
        assert _choose([0.5], lasso_cv(X, y, self._folds(20), [0.5])[0], max) == 0.5

    def _noise_problem(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 40, 10
        X = rng.normal(size=(n, p))
        X -= X.mean(axis=0)
        y = np.array([-1.0, 1.0] * (n // 2))
        lams = lambda_path(X, y - y.mean(), 8, 0.01)
        return X, y, self._folds(n, seed=seed), lams

    def test_pure_noise_prefers_largest_lambda(self):
        # Minimum total validation error picks lams[0] on about 70% of these
        # problems (699 of seeds 0-999), not on all: the full-data lambda_max
        # need not zero every fold's fit, and a small lambda can beat the null
        # model on a fold by chance. A strict majority is the rule's real
        # preference; at a rate of 0.70, 50 or fewer wins in 100 has
        # probability about 2e-5. Taking the argmax of CV error, scoring
        # training error, or scoring misclassification each fall far below.
        wins = 0
        for seed in range(100):
            X, y, folds, lams = self._noise_problem(seed)
            if _choose(lams, lasso_cv(X, y, folds, lams)[0], max) == lams[0]:
                wins += 1
        assert wins >= 51

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_cold_start_reference(self, seed):
        # coordinate descent is another solver, stopped at a tolerance, so its
        # errors agree to about 2e-7 relative over these seeds, not bit for bit
        X, y, folds, lams = self._noise_problem(seed)
        errors = np.zeros(lams.size)
        per_fold = np.zeros((len(folds), lams.size))
        for f, (_, val) in enumerate(folds):
            train = np.setdiff1d(np.arange(y.size), val)
            col_means = X[train].mean(axis=0)
            y_mean = y[train].mean()
            for i, lam in enumerate(lams):
                beta = coordinate_descent(X[train] - col_means, y[train] - y_mean, lam).beta
                resid = y[val] - ((X[val] - col_means) @ beta + y_mean)
                per_fold[f, i] = resid @ resid / val.size
                errors[i] += per_fold[f, i]
        expected = lams[errors == errors.min()].max()
        scores = lasso_cv(X, y, folds, lams)[0]
        np.testing.assert_allclose(scores, -per_fold, rtol=1e-6, atol=0.0)
        assert _choose(lams, scores, max) == expected

    def test_equal_fold_errors_pick_larger_lambda(self):
        # above every fold's own lambda_max each fit is all-zero, so every
        # lambda has the same validation error
        X, y, folds, _ = self._noise_problem(0)
        top = max(lambda_max(X[train] - X[train].mean(axis=0), y[train] - y[train].mean())
                  for train, _ in folds)
        lams = top * np.array([2.0, 8.0, 4.0])
        assert _choose(lams, lasso_cv(X, y, folds, lams)[0], max) == lams[1]

    def test_columns_follow_lambda_order(self):
        X, y, folds, lams = self._noise_problem(3)
        order = [5, 0, 7, 2, 2, 6, 1, 4, 3]
        scores, path = lasso_cv(X, y, folds, lams[order])
        assert scores.shape == (len(folds), 9) and path.shape == (X.shape[1], 9)
        in_order, in_order_path = lasso_cv(X, y, folds, lams)
        # equal up to how the one matrix product rounds each column
        np.testing.assert_allclose(scores, in_order[:, order], rtol=1e-12, atol=0.0)
        _same_bytes(path, in_order_path[:, order])

    def test_strong_signal_recovers_support(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            n, p = 60, 20
            X = rng.normal(size=(n, p))
            X -= X.mean(axis=0)
            y = np.sign(X[:, 0] + X[:, 1] + 0.3 * rng.normal(size=n))
            lams = lambda_path(X, y - y.mean(), 10, 0.01)
            scores, path = lasso_cv(X, y, self._folds(n, seed=seed), lams)
            best = _choose(lams, scores, max)
            if {0, 1} <= set(selected_features(path[:, lams.tolist().index(best)]).tolist()):
                wins += 1
        assert wins >= 90

    def test_empty_lambda_list_rejected(self):
        with pytest.raises(ValueError):
            lasso_cv(np.zeros((4, 2)), np.zeros(4), [], [])

    @pytest.mark.parametrize("X, y, error", [
        (np.ones((10, 3)), np.ones(9), IndexError),  # a fold's training mask
        (np.ones((10, 3)), np.ones((10, 1)), ValueError),  # lasso_path's y refusal
        (np.arange(10.0), np.ones(10), ValueError),  # unpacking a fold copy's shape
    ], ids=["y-short", "y-column", "x-1-d"])
    def test_mismatched_shapes_rejected(self, X, y, error):
        with pytest.raises(error):
            lasso_cv(X, y, self._folds(10), [0.5])

    @pytest.mark.parametrize("grid", ["path", "zero"])
    def test_full_path_is_the_one_member_fit(self, grid):
        """The full problem's path, walked as the block's last member, is
        the one-member path's solution at every grid lambda, byte for byte:
        from lambda_path's top (the full problem's lambda_max, all zeros)
        down, and on the one-value [0.0] grid, where the walk runs to its
        end."""
        X, y, folds, lams = self._noise_problem(5)
        if grid == "zero":
            lams = np.array([0.0])
        else:
            assert lams[0] == lambda_max(X, y - y.mean())
        _, path = lasso_cv(X, y, folds, lams)
        assert path.shape == (X.shape[1], lams.size)
        for i, lam in enumerate(lams):
            _same_bytes(path[:, i], _one_member(X, y - y.mean(), lam))
        assert np.all(path[:, 0] == 0.0) == (grid == "path")


class TestLassoCvBlock:
    """lasso_cv walks its folds and the full problem as one block: its
    scores equal the fold loop of one-member walks, byte for byte, each
    fold's path is the sequential walk's, and the full path is the one-member
    path's."""

    @staticmethod
    def _fold_loop(X, y, folds, lambdas):
        scores = np.zeros((len(folds), lambdas.size))
        for f, (train, val) in enumerate(folds):
            col_means = X[train].mean(axis=0)
            y_mean = y[train].mean()
            Xc, yc = X[train] - col_means, y[train] - y_mean
            betas, = lasso_path([(Xc, yc)], lambdas)
            _same_bytes(betas, sequential_walk(Xc, yc, lambdas)[0])
            resid = y[val, None] - ((X[val] - col_means) @ betas + y_mean)
            scores[f] = -(np.sum(resid * resid, axis=0) / val.size)
        return scores

    # the lasso cells' features: LLF (56 wide) at k = 3 and 10, and the
    # 71-wide LLF+SAEF stack at the reduced table config
    @pytest.mark.parametrize("method, k, sae_iterations", [("LLF", 3, 150), ("LLF", 10, 150),
                                                           ("LLF_SAEF", 3, 50)])
    def test_adni_like_features_match_fold_loop(self, method, k, sae_iterations):
        ds = generate_synthetic(SyntheticSpec.adni_like(0))
        cfg = ExperimentConfig(k=k, sae_iterations=sae_iterations)
        repeat = _RepeatFits(ds, _checked_split(ds, [], cfg, 0), cfg, 0)
        _, _, ytr01, folds = repeat._train
        F = repeat._method_stage(PipelineSpec(method))[2]
        assert F.shape[1] == {"LLF": 56, "LLF_SAEF": 71}[method]
        y_pm = 2.0 * np.asarray(ytr01, dtype=float) - 1.0
        lams = lambda_path(F, y_pm - y_pm.mean(), cfg.n_lambdas, cfg.lambda_ratio)
        scores, path = lasso_cv(F, y_pm, folds, lams)
        _same_bytes(scores, self._fold_loop(F, y_pm, folds, lams))
        for i, lam in enumerate(lams):
            _same_bytes(path[:, i], _one_member(F, y_pm - y_pm.mean(), lam))

    def test_reads_each_fold_copy_once(self, monkeypatch):
        # one lasso_path call takes the centered fold copies, in fold order,
        # and then the full problem, each once
        rng = np.random.default_rng(21)
        X, y = _centered_problem(rng, 40, 6, signal=2)
        folds = kfold(np.array([0, 1] * 20), 4, 0)
        calls = []
        walk = lasso.lasso_path

        def spy(problems, lambdas):
            calls.append(list(problems))
            return walk(calls[-1], lambdas)
        monkeypatch.setattr(lasso, "lasso_path", spy)
        lams = lambda_path(X, y, 8, 0.01)
        scores = lasso_cv(X, y, folds, lams)[0]
        monkeypatch.undo()
        assert len(calls) == 1 and len(calls[0]) == len(folds) + 1
        for (train, _), (Xc, yc) in zip(folds, calls[0]):
            _same_bytes(Xc, X[train] - X[train].mean(axis=0))
            _same_bytes(yc, y[train] - y[train].mean())
        _same_bytes(calls[0][-1][0], X)
        _same_bytes(calls[0][-1][1], y - y.mean())
        _same_bytes(scores, self._fold_loop(X, y, folds, lams))
