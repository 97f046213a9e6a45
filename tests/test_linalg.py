import numpy as np
import pytest

from featlearn.data import (SyntheticSpec, cv_masks, generate_synthetic, kfold,
                            standardize_fit, stratified_split)
from featlearn import linalg
from featlearn.linalg import ConvergenceError, sample_covariance, sym_eigen, sym_eigen_block
from linalg_reference import three_rotation_jacobi


class TestSampleCovariance:
    def test_two_points_1d(self):
        # mean 0, ((-1)^2 + 1^2) / 2 = 1
        S = sample_covariance(np.array([[-1.0], [1.0]]))
        np.testing.assert_allclose(S, [[1.0]])

    def test_identical_rows_zero_matrix(self):
        X = np.tile([2.0, -3.0, 0.5], (6, 1))
        np.testing.assert_array_equal(sample_covariance(X), np.zeros((3, 3)))

    def test_denominator_is_n(self):
        X = np.array([[0.0], [2.0]])
        # mean 1, (1 + 1)/2 = 1 (not 2, which the n-1 denominator would give)
        np.testing.assert_allclose(sample_covariance(X), [[1.0]])

    def test_psd_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            X = rng.normal(size=(rng.integers(3, 30), rng.integers(1, 12)))
            S = sample_covariance(X)
            assert np.max(np.abs(S - S.T)) == 0.0
            assert np.min(np.linalg.eigvalsh(S)) >= -1e-10

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones((1, 3)))


class TestSymEigen:
    def test_diagonal_matrix(self):
        eig = sym_eigen(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(eig.eigenvectors), np.eye(2), atol=1e-12)

    def test_hand_2x2(self):
        # char. polynomial of [[2,1],[1,2]]: (2-t)^2 - 1 -> t = 3, 1
        eig = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 0]), [s, s], atol=1e-10)
        np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 1]), [s, s], atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_random_6x6(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(6, 6))
        M = (M + M.T) / 2
        eig = sym_eigen(M)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.max(np.abs(recon - M)) < 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_random_sizes(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = int(rng.integers(1, 21))
        M = rng.normal(size=(p, p)) * 3.0
        M = (M + M.T) / 2
        eig = sym_eigen(M)
        assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.max(np.abs(gram - np.eye(p))) < 1e-8
        for j in range(p):
            resid = M @ eig.eigenvectors[:, j] - eig.eigenvalues[j] * eig.eigenvectors[:, j]
            assert np.max(np.abs(resid)) < 1e-7 * (1 + abs(eig.eigenvalues[j]))
        assert abs(np.trace(M) - np.sum(eig.eigenvalues)) < 1e-8

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(7, 7))
        M = (M + M.T) / 2
        a, b = sym_eigen(M), sym_eigen(M.copy())
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        for j in range(7):
            col = a.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0


def _assert_same_bytes(M):
    got, want = sym_eigen(M), three_rotation_jacobi(M)
    for a, b in ((got.eigenvalues, want.eigenvalues), (got.eigenvectors, want.eigenvectors)):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestSymEigenMatchesReference:
    """sym_eigen's one stacked rotation reproduces the three-rotation loop."""

    @pytest.mark.parametrize("p", range(1, 72))
    def test_random_covariances(self, p):
        rng = np.random.default_rng(p)
        for n in (p + 1 + p // 2, max(2, p // 2)):  # above and below p
            _assert_same_bytes(sample_covariance(rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, p)))

    @pytest.mark.parametrize("seed", range(3))
    def test_adni_like_fold_covariances(self, seed):
        ds = generate_synthetic(SyntheticSpec.adni_like(seed))
        split = stratified_split(ds, 0.2, seed)
        X = standardize_fit(ds, split.train).apply(ds.features[split.train])
        folds = kfold(ds.labels[split.train], 10, seed)
        for train, _ in list(cv_masks(X.shape[0], folds))[:2]:
            assert X[train].shape[1] == 56
            _assert_same_bytes(sample_covariance(X[train]))

    def test_diagonal_input_is_not_rotated(self):
        M = np.diag([0.5, 3.0, -1.0, 2.0])
        _assert_same_bytes(M)
        eig = sym_eigen(M)
        np.testing.assert_array_equal(eig.eigenvalues, [3.0, 2.0, 0.5, -1.0])
        np.testing.assert_array_equal(eig.eigenvectors, np.eye(4)[:, [1, 3, 0, 2]])

    def test_repeated_eigenvalues(self):
        Q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(9, 9)))
        M = Q @ np.diag([2.0, 2.0, 2.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.0]) @ Q.T
        _assert_same_bytes((M + M.T) / 2.0)

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_outputs_read_only(self, p):
        eig = sym_eigen(np.eye(p) * 2.0)
        assert not eig.eigenvalues.flags.writeable
        assert not eig.eigenvectors.flags.writeable


def _adni_like_fold_covariance(seed=0):
    ds = generate_synthetic(SyntheticSpec.adni_like(seed))
    split = stratified_split(ds, 0.2, seed)
    X = standardize_fit(ds, split.train).apply(ds.features[split.train])
    train, _ = next(cv_masks(X.shape[0], kfold(ds.labels[split.train], 10, seed)))
    return sample_covariance(X[train])


def _repeated_eigenvalues(p, seed=7):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(p, p)))
    M = Q @ np.diag(np.repeat([2.0, 1.0, 0.5, 0.0], -(-p // 4))[:p]) @ Q.T
    return (M + M.T) / 2.0


def _with_negative_zero_row(M):
    """M with row and column 0 set to -0.0: the pairs (0, j) stay inactive
    while the rest rotates, and the eigenvalue -0.0 must keep its sign."""
    M = M.copy()
    M[0, :] = M[:, 0] = -0.0
    return M


def _mixed_stack(p):
    rng = np.random.default_rng(p)
    cov = sample_covariance(rng.normal(size=(p + 3, p)) * rng.uniform(0.5, 3.0, p))
    # the last member's tolerance and threshold are 1e4 times the first's
    return [cov, np.diag(rng.uniform(-2.0, 2.0, p)), _repeated_eigenvalues(p),
            _with_negative_zero_row(cov), cov * 1e4]


class TestSymEigenBlock:
    """Each member of a block is byte-equal to the one-matrix reference."""

    @staticmethod
    def _assert_block_matches(Ms):
        for M, got in zip(Ms, sym_eigen_block(Ms), strict=True):
            want = three_rotation_jacobi(M)
            for a, b in ((got.eigenvalues, want.eigenvalues),
                         (got.eigenvectors, want.eigenvectors)):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            if M.shape[0] > 1:
                assert got.eigenvectors.strides == want.eigenvectors.strides

    @pytest.mark.parametrize("p", [2, 3, 9, 12])
    def test_mixed_stack(self, p):
        self._assert_block_matches(_mixed_stack(p))

    def test_adni_like_mixed_stack(self):
        cov = _adni_like_fold_covariance()
        p = cov.shape[0]
        Ms = [np.diag(np.diag(cov)), cov, _repeated_eigenvalues(p),
              _with_negative_zero_row(cov), _adni_like_fold_covariance(1)]
        self._assert_block_matches(Ms)

    def test_one_by_one_matrices(self):
        self._assert_block_matches([np.array([[3.0]]), np.array([[-0.0]]), np.array([[-2.5]])])

    def test_outputs_read_only(self):
        for eig in sym_eigen_block(_mixed_stack(5)):
            assert not eig.eigenvalues.flags.writeable
            assert not eig.eigenvectors.flags.writeable

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="at least one matrix"):
            sym_eigen_block([])

    def test_mixed_sizes_name_the_matrix(self):
        with pytest.raises(ValueError, match="matrix 2 is 3 x 3, but matrix 0 is 2 x 2"):
            sym_eigen_block([np.eye(2), np.eye(2), np.eye(3)])

    def test_non_square_member_names_the_matrix(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\) for matrix 1"):
            sym_eigen_block([np.eye(2), np.ones((2, 3))])

    def test_asymmetric_member_names_the_matrix(self):
        with pytest.raises(ValueError, match="symmetric.*matrix 1"):
            sym_eigen_block([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_names_the_matrix(self, bad):
        M = np.eye(3)
        M[1, 2] = M[2, 1] = bad
        with pytest.raises(ValueError, match="matrix 2 has a non-finite entry"):
            sym_eigen_block([np.eye(3), np.eye(3), M])

    def test_convergence_error_names_the_matrix(self, monkeypatch):
        # the diagonal member stops before its first sweep; the others need
        # more than one
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        Ms = _mixed_stack(9)
        with pytest.raises(ConvergenceError, match="for matrix 1"):
            sym_eigen_block([Ms[1], Ms[0], Ms[2]])
        sym_eigen_block([Ms[1]])


class TestSymEigenRejectsNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejected_before_any_sweep(self, bad, where):
        M = np.array([[2.0, 0.5], [0.5, 1.0]])
        M[where] = M[where[::-1]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sym_eigen(M)
