import re

import numpy as np
import pytest

from featlearn.data import (SyntheticSpec, generate_synthetic, kfold,
                            standardize_fit, stratified_split)
from featlearn.linalg import sample_covariance, sym_eigen
from featlearn.pca import PcaModel, pca_fit, pca_transform


class TestPcaFit:
    def test_diagonal_direction(self):
        X = np.array([[-1.0, -1.0], [1.0, 1.0], [-2.0, -2.0], [2.0, 2.0]])
        model, = pca_fit([X], 1)
        v = model.components[:, 0]
        np.testing.assert_allclose(np.abs(v), [1 / np.sqrt(2)] * 2, atol=1e-10)

    def test_variances_match_sym_eigen_exactly(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 6))
        model, = pca_fit([X], 4)
        eig, = sym_eigen([sample_covariance(X)])
        np.testing.assert_array_equal(model.variances, eig.eigenvalues[:4])
        np.testing.assert_array_equal(model.components, eig.eigenvectors[:, :4])

    def test_isotropic_variances_close(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20000, 4))
        model, = pca_fit([X], 4)
        assert np.max(model.variances) - np.min(model.variances) < 0.1

    def test_variances_equal_score_variance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(25, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        model, = pca_fit([X], 3)
        scores = pca_transform(model, X)
        np.testing.assert_allclose(scores.var(axis=0, ddof=0), model.variances, atol=1e-8)

    def test_r_out_of_range(self):
        X = np.random.default_rng(3).normal(size=(4, 6))
        with pytest.raises(ValueError):
            pca_fit([X], 4)  # r > n - 1
        with pytest.raises(ValueError):
            pca_fit([X], 0)

    @pytest.mark.parametrize("r", [True, 2.5])
    def test_r_must_be_an_integer(self, r):
        """A bool or a non-integer r is refused by name, not used as a slice bound."""
        X = np.random.default_rng(3).normal(size=(6, 4))
        with pytest.raises(ValueError, match=f"^r must be an integer, got {r!r}$"):
            pca_fit([X], r)
        got, = pca_fit([X], np.int64(2))
        want, = pca_fit([X], 2)
        assert got.components.tobytes() == want.components.tobytes()


class TestPcaTransform:
    def test_mean_rows_map_to_zero(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 3))
        model, = pca_fit([X], 2)
        scores = pca_transform(model, np.tile(model.mean, (4, 1)))
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)

    def test_full_rank_isometry(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 4))
        model, = pca_fit([X], 4)
        scores = pca_transform(model, X)
        d_orig = np.linalg.norm(X[:, None] - X[None, :], axis=-1)
        d_proj = np.linalg.norm(scores[:, None] - scores[None, :], axis=-1)
        np.testing.assert_allclose(d_proj, d_orig, atol=1e-8)

    def test_basis_alignment(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 4)) * np.array([4.0, 1.0, 0.3, 0.1])
        model, = pca_fit([X], 3)
        point = model.mean + model.components[:, 0]
        scores = pca_transform(model, point[None, :])
        np.testing.assert_allclose(scores, [[1.0, 0.0, 0.0]], atol=1e-10)

    def test_dimension_mismatch(self):
        model, = pca_fit([np.random.default_rng(7).normal(size=(10, 3))], 2)
        with pytest.raises(ValueError):
            pca_transform(model, np.zeros((2, 4)))

    @pytest.mark.parametrize("X, message", [
        (np.zeros(3), "X must be 2-D, got shape (3,)"),
        (np.zeros((2, 3, 3)), "X must be 2-D, got shape (2, 3, 3)"),
    ], ids=["1-d", "3-d"])
    def test_rows_other_than_2_d_rejected(self, X, message):
        model, = pca_fit([np.random.default_rng(7).normal(size=(10, 3))], 2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pca_transform(model, X)

    def test_inverse_map_full_rank(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(18, 5))
        model, = pca_fit([X], 5)
        recon = model.mean + pca_transform(model, X) @ model.components.T
        assert np.max(np.abs(recon - X)) < 1e-8


def reconstruction_error(model, X):
    """(1/n) sum_i |(x_i - mean) - V V^T (x_i - mean)|^2."""
    centered = X - model.mean
    resid = centered - centered @ model.components @ model.components.T
    return float(np.sum(resid * resid)) / X.shape[0]


class TestReconstructionError:
    def test_full_basis_zero(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 4))
        assert reconstruction_error(pca_fit([X], 4)[0], X) < 1e-10

    def test_monotone_in_r(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 6)) @ rng.normal(size=(6, 6))
        errs = [reconstruction_error(pca_fit([X], r)[0], X) for r in range(1, 7)]
        assert all(a >= b - 1e-10 for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_spectral_identity(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 10))
        X = rng.normal(size=(p + 10, p)) * rng.uniform(0.2, 3.0, size=p)
        S = sample_covariance(X)
        eigs = np.sort(np.linalg.eigvalsh(S))[::-1]
        for r in (1, p // 2 or 1, p):
            err = reconstruction_error(pca_fit([X], r)[0], X)
            assert abs(err - (np.trace(S) - eigs[:r].sum())) < 1e-8

    def test_fitted_components_beat_random_bases(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.2])
        model, = pca_fit([X], 2)
        best = reconstruction_error(model, X)
        centered = X - X.mean(axis=0)
        n = X.shape[0]
        for _ in range(100):
            A, _ = np.linalg.qr(rng.normal(size=(5, 2)))
            resid = centered - centered @ A @ A.T
            assert np.sum(resid * resid) / n >= best - 1e-8


class TestVarianceBudget:
    def test_total_variance_equals_trace(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(25, 6)) @ rng.normal(size=(6, 6))
        model, = pca_fit([X], 6)
        S = sample_covariance(X)
        assert abs(model.variances.sum() - np.trace(S)) < 1e-8


def _assert_same_model(got, want):
    for name in ("mean", "components", "variances"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.strides == b.strides, name
        assert a.tobytes() == b.tobytes(), name


class TestPcaFitBlock:
    def test_adni_like_folds_match_pca_fit(self):
        """The PCA search's block: fold training rows plus all training rows,
        at the largest r; each member, and the last member cut to a smaller
        r, is the one-member pca_fit's model, and so are its scores."""
        ds = generate_synthetic(SyntheticSpec.adni_like(0))
        split = stratified_split(ds, 0.2, 0)
        F = standardize_fit(ds, split.train).apply(ds.features[split.train])
        Xs = [F[train] for train, _ in kfold(ds.labels[split.train], 3, 0)] + [F]
        block = pca_fit(Xs, 40)
        for X, model in zip(Xs, block, strict=True):
            want, = pca_fit([X], 40)
            _assert_same_model(model, want)
            assert pca_transform(model, F).tobytes() == pca_transform(want, F).tobytes()
        final = block[-1]
        for r in (5, 30):
            cut = PcaModel(final.mean, final.components[:, :r], final.variances[:r])
            want, = pca_fit([F], r)
            _assert_same_model(cut, want)
            assert pca_transform(cut, F).tobytes() == pca_transform(want, F).tobytes()

    def test_r_out_of_range_names_the_matrix(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match=r"min\(n-1, p\) = 3, got 4 \(matrix 1\)"):
            pca_fit([rng.normal(size=(9, 6)), rng.normal(size=(4, 6))], 4)

    def test_mixed_widths_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError):  # np.stack, in sym_eigen
            pca_fit([rng.normal(size=(9, 4)), rng.normal(size=(9, 3))], 2)

    def test_bare_matrix_rejected(self):
        """A 2-D X is an iterable of 1-D rows, not a one-member block."""
        X = np.random.default_rng(17).normal(size=(10, 3))
        with pytest.raises(ValueError):  # unpacking a row's shape
            pca_fit(X, 2)


class TestPcaFitRejectsNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, bad):
        """sym_eigen refuses the covariance; an infinity reaches it as the
        NaN of inf - inf, which numpy warns of first."""
        X = np.random.default_rng(15).normal(size=(10, 3))
        X[4, 1] = bad
        with pytest.raises(ValueError, match="matrix 0 has a non-finite entry"), \
                np.errstate(invalid="ignore"):
            pca_fit([X], 2)

    def test_block_names_the_matrix(self):
        rng = np.random.default_rng(16)
        Xs = [rng.normal(size=(10, 3)) for _ in range(3)]
        Xs[2][0, 0] = np.nan
        with pytest.raises(ValueError, match="matrix 2 has a non-finite entry"):
            pca_fit(Xs, 2)
