import re
import weakref

import numpy as np
import pytest

from featlearn.data import (SyntheticSpec, generate_synthetic, kfold,
                            standardize_fit, stratified_split)
from featlearn.linalg import sym_eigen
from featlearn.pca import PcaModel, pca_fit, pca_transform, sample_covariance


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


def _ordered_and_signed(values, vectors):
    """PCA's convention applied to one eigendecomposition: the eigenvalues
    descending by a stable argsort, the eigenvector columns in that order,
    and each column's largest-magnitude entry positive."""
    order = np.argsort(-values, kind="stable")
    V = vectors[:, order]
    return values[order], V * np.where(V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] < 0,
                                       -1.0, 1.0)


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
        (values,), (vectors,) = sym_eigen([sample_covariance(X)])
        want_values, want_vectors = _ordered_and_signed(values, vectors)
        np.testing.assert_array_equal(model.variances, want_values[:4])
        np.testing.assert_array_equal(model.components, want_vectors[:, :4])

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


def _assert_convention(model):
    """Variances descending, each component's largest-magnitude entry
    positive, and both read-only."""
    assert np.all(np.diff(model.variances) <= 0.0)
    V = model.components
    assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] > 0.0)
    assert not model.variances.flags.writeable
    assert not model.components.flags.writeable


def _eigh_oracle(X, r):
    """LAPACK's eigendecomposition of X's covariance under PCA's order and
    sign, cut to r: an oracle that does not run the Jacobi."""
    values, vectors = _ordered_and_signed(
        *np.linalg.eigh(np.atleast_2d(np.cov(X, rowvar=False, bias=True))))
    return values[:r], vectors[:, :r]


def _assert_matches_eigh(model, X):
    """Variances agree with the oracle's to 1e-10, and so does each
    component's cosine with its oracle twin, to 1: a swapped pair or a
    flipped sign moves it by about 1 or 2. The cosine, not each entry, since
    the Jacobi's components are off by up to about 1e-6 entrywise (see
    ``test_adni_like_components_match_eigh_entrywise``)."""
    values, vectors = _eigh_oracle(X, model.variances.shape[0])
    np.testing.assert_allclose(model.variances, values, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(np.sum(model.components * vectors, axis=0), 1.0,
                               rtol=0.0, atol=1e-10)


def _well_separated(rng, n, p):
    """n rows whose covariance is R diag(lams) R^T, R a random rotation and
    the lams spaced 9 / (p - 1) apart in [1, 10], around a random mean."""
    Z = rng.normal(size=(n, p))
    Q, _ = np.linalg.qr(Z - Z.mean(axis=0))
    R, _ = np.linalg.qr(rng.normal(size=(p, p)))
    lams = rng.permutation(np.linspace(1.0, 10.0, p))
    return np.sqrt(n) * (Q * np.sqrt(lams)) @ R.T + rng.normal(size=p)


def _adni_like_block(seed=0):
    """The PCA search's block at k = 10: each fold's training rows, then all
    training rows."""
    ds = generate_synthetic(SyntheticSpec.adni_like(seed))
    split = stratified_split(ds, 0.2, seed)
    F = standardize_fit(ds, split.train).apply(ds.features[split.train])
    return [F[train] for train, _ in kfold(ds.labels[split.train], 10, seed)] + [F]


class TestPcaFitConvention:
    """``pca_fit`` decides the components' order, sign and layout; these
    state that contract apart from the eigensolver."""

    @pytest.mark.parametrize("seed", range(10))
    def test_well_separated_matches_eigh(self, seed):
        rng = np.random.default_rng(200 + seed)
        p = int(rng.integers(1, 21))
        X = _well_separated(rng, p + int(rng.integers(1, 10)), p)
        model, = pca_fit([X], p)
        _assert_convention(model)
        _assert_matches_eigh(model, X)

    def test_adni_like_fold_block_matches_eigh(self):
        Xs = _adni_like_block()
        for X, model in zip(Xs, pca_fit(Xs, Xs[0].shape[1]), strict=True):
            _assert_convention(model)
            _assert_matches_eigh(model, X)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "linalg._off_frobenius loses the off-diagonal mass below about "
        "sqrt(eps) |A|_F to cancellation, so the Jacobi stops early"))
    def test_adni_like_components_match_eigh_entrywise(self):
        X = _adni_like_block()[-1]
        model, = pca_fit([X], X.shape[1])
        np.testing.assert_allclose(model.components, _eigh_oracle(X, X.shape[1])[1],
                                   rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_descending_and_signed_random_sizes(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = int(rng.integers(1, 21))
        X = rng.normal(size=(p + 1 + int(rng.integers(0, 10)), p)) * 3.0
        model, = pca_fit([X], p)
        _assert_convention(model)

    def test_sign_convention_deterministic(self):
        X = np.random.default_rng(5).normal(size=(12, 7))
        (a,), (b,) = pca_fit([X], 7), pca_fit([X.copy()], 7)
        assert a.components.tobytes() == b.components.tobytes()
        _assert_convention(a)

    def test_diagonal_covariance_is_permuted_not_rotated(self):
        """Rows +-a_j e_j have the exact covariance diag(a_j^2 / 4), so the
        components are columns of the identity in variance order."""
        a = np.array([1.0, 4.0, 0.5, 2.0])
        model, = pca_fit([np.vstack([np.diag(a), -np.diag(a)])], 4)
        np.testing.assert_array_equal(model.variances, [4.0, 1.0, 0.25, 0.0625])
        np.testing.assert_array_equal(model.components, np.eye(4)[:, [1, 3, 0, 2]])

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_outputs_read_only(self, p):
        model, = pca_fit([np.vstack([np.eye(p), -np.eye(p)]) * 2.0], p)
        _assert_convention(model)

    def test_block_outputs_read_only(self):
        rng = np.random.default_rng(19)
        for model in pca_fit([rng.normal(size=(n, 5)) for n in (6, 9, 14)], 5):
            _assert_convention(model)


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

    def test_generator_matrices_held_one_at_a_time(self):
        """Each X is released before the iterable makes the next, so a
        generator of fold rows holds one fold's copy at a time."""
        refs, alive = [], []

        def matrices():
            rng = np.random.default_rng(18)
            for _ in range(4):
                alive.append(sum(ref() is not None for ref in refs))
                X = rng.normal(size=(8, 3))
                refs.append(weakref.ref(X))
                yield X
                del X

        assert len(pca_fit(matrices(), 2)) == 4
        assert alive == [0, 0, 0, 0]

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
