import numpy as np
import pytest

from featlearn.data import (SyntheticSpec, generate_synthetic, kfold,
                            standardize_fit, stratified_split)
from featlearn import linalg
from featlearn.linalg import ConvergenceError, sym_eigen
from featlearn.pca import sample_covariance
from linalg_reference import three_rotation_jacobi


class TestSymEigen:
    def test_diagonal_matrix(self):
        (values,), (vectors,) = sym_eigen([np.diag([3.0, 1.0])])
        np.testing.assert_allclose(values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-12)

    def test_hand_2x2(self):
        # char. polynomial of [[2,1],[1,2]]: (2-t)^2 - 1 -> t = 3, 1
        (values,), (vectors,) = sym_eigen([np.array([[2.0, 1.0], [1.0, 2.0]])])
        np.testing.assert_allclose(np.sort(values), [1.0, 3.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(vectors[:, 0]), [s, s], atol=1e-10)
        np.testing.assert_allclose(np.abs(vectors[:, 1]), [s, s], atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_random_6x6(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(6, 6))
        M = (M + M.T) / 2
        (values,), (vectors,) = sym_eigen([M])
        recon = vectors @ np.diag(values) @ vectors.T
        assert np.max(np.abs(recon - M)) < 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_random_sizes(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = int(rng.integers(1, 21))
        M = rng.normal(size=(p, p)) * 3.0
        M = (M + M.T) / 2
        (values,), (vectors,) = sym_eigen([M])
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(p))) < 1e-8
        for j in range(p):
            resid = M @ vectors[:, j] - values[j] * vectors[:, j]
            assert np.max(np.abs(resid)) < 1e-7 * (1 + abs(values[j]))
        assert abs(np.trace(M) - np.sum(values)) < 1e-8

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigen([np.array([[1.0, 2.0], [0.0, 1.0]])])


def _assert_same_bytes(M):
    (values,), (vectors,) = sym_eigen([M])
    for a, b in zip((values, vectors), three_rotation_jacobi(M), strict=True):
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
        for train, _ in folds[:2]:
            assert X[train].shape[1] == 56
            _assert_same_bytes(sample_covariance(X[train]))

    def test_diagonal_input_is_not_rotated(self):
        M = np.diag([0.5, 3.0, -1.0, 2.0])
        _assert_same_bytes(M)
        (values,), (vectors,) = sym_eigen([M])
        np.testing.assert_array_equal(values, [0.5, 3.0, -1.0, 2.0])
        np.testing.assert_array_equal(vectors, np.eye(4))

    def test_repeated_eigenvalues(self):
        Q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(9, 9)))
        M = Q @ np.diag([2.0, 2.0, 2.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.0]) @ Q.T
        _assert_same_bytes((M + M.T) / 2.0)


def _adni_like_fold_covariance(seed=0):
    ds = generate_synthetic(SyntheticSpec.adni_like(seed))
    split = stratified_split(ds, 0.2, seed)
    X = standardize_fit(ds, split.train).apply(ds.features[split.train])
    train, _ = kfold(ds.labels[split.train], 10, seed)[0]
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
        for M, *got in zip(Ms, *sym_eigen(Ms), strict=True):
            want = three_rotation_jacobi(M)
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            if M.shape[0] > 1:
                assert got[1].strides == want[1].strides

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

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):  # np.stack
            sym_eigen([])

    def test_zero_by_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="^sym_eigen requires p >= 1$"):
            sym_eigen([np.zeros((0, 0))])

    def test_mixed_sizes_name_the_matrix(self):
        with pytest.raises(ValueError):  # np.stack
            sym_eigen([np.eye(2), np.eye(2), np.eye(3)])

    def test_non_square_member_names_the_matrix(self):
        with pytest.raises(ValueError):  # np.stack
            sym_eigen([np.eye(2), np.ones((2, 3))])

    @pytest.mark.parametrize("Ms", [
        [np.ones(3)], [np.ones((3, 1))], [np.ones((1, 3))], [np.eye(3), np.ones((1, 1))],
        [np.eye(3), np.ones(3)],
    ], ids=["1-d", "column", "row", "1-by-1-after-3-by-3", "1-d-after-3-by-3"])
    def test_members_that_would_broadcast_rejected(self, Ms):
        """Each of these passes the symmetry check or broadcasts into the
        block's first size, so without the square check and the stacked
        block it would return a decomposition of some other matrix."""
        with pytest.raises(ValueError, match="square matrices|same shape"):
            sym_eigen(Ms)

    def test_asymmetric_member_names_the_matrix(self):
        with pytest.raises(ValueError, match="symmetric.*matrix 1"):
            sym_eigen([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_names_the_matrix(self, bad):
        M = np.eye(3)
        M[1, 2] = M[2, 1] = bad
        with pytest.raises(ValueError, match="matrix 2 has a non-finite entry"):
            sym_eigen([np.eye(3), np.eye(3), M])

    def test_convergence_error_names_the_matrix(self, monkeypatch):
        # the diagonal member stops before its first sweep; the others need
        # more than one
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        Ms = _mixed_stack(9)
        with pytest.raises(ConvergenceError, match="for matrix 1"):
            sym_eigen([Ms[1], Ms[0], Ms[2]])
        sym_eigen([Ms[1]])


class TestSymEigenRejectsNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejected_before_any_sweep(self, bad, where):
        M = np.array([[2.0, 0.5], [0.5, 1.0]])
        M[where] = M[where[::-1]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sym_eigen([M])
