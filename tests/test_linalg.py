import numpy as np
import pytest

from featlearn.data import (SyntheticSpec, cv_masks, generate_synthetic, kfold,
                            standardize_fit, stratified_split)
from featlearn.linalg import sample_covariance, sym_eigen
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
