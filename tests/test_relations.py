"""The protocol's promises as whole-pipeline relations: how the results must
respond to a transformation of the input. None needs a recorded value, so
each holds across every change that moves a result (metamorphic testing:
Chen, Cheung & Yiu 1998; Xie et al. 2011, "Testing and validating machine
learning classifiers by metamorphic testing").

Every relation runs on one tiny dataset per seed and is checked against one
base run of all ten cells per seed. A relation that fails is a defect in the
program or in the relation, reported with its cause; no bound here is a
tolerance to widen.
"""

import numpy as np
import pytest

from featlearn.data import UNLABELED, Dataset, SyntheticSpec, generate_synthetic
from featlearn.harness import (ExperimentConfig, PipelineSpec, _checked_split, _RepeatFits,
                               run_experiment, run_pipeline)
from featlearn.svm import svm_predict

CONFIG = ExperimentConfig(repeats=3, k=3, sae_dims=(4, 2), sae_iterations=20)
CELLS = PipelineSpec.table_cells()
LLF_CELLS = [spec for spec in CELLS if not spec.uses_sae]
SUPERVISED_CELLS = [spec for spec in CELLS if not spec.semi_supervised]


def _dataset(seed):
    return generate_synthetic(SyntheticSpec(n0=30, n1=30, n_unlabeled=20, p=8, s=2, delta=1.0,
                                            rho=0.2, seed=seed))


@pytest.fixture(scope="module", params=[1])
def base(request):
    """(dataset, results of all ten cells) for one dataset seed."""
    ds = _dataset(request.param)
    return ds, run_experiment(ds, CELLS, CONFIG)


def _assert_same_cells(got, want, specs):
    for spec in specs:
        key = (spec.method, spec.selector)
        assert got.accuracies[key] == want.accuracies[key], key
        assert got.chosen[key] == want.chosen[key], key


def test_positive_affine_map_of_each_column_changes_no_result(base):
    """Scale handling: the training-row standardization absorbs any x -> a x
    + b with a > 0 per column, so every cell's accuracies are equal. So are
    its chosen values, but for the lasso's lambda, which is recomputed from
    the rescaled features and may move by rounding."""
    ds, want = base
    rng = np.random.default_rng(28)
    a = rng.uniform(0.5, 3.0, size=ds.p)
    b = rng.normal(0.0, 5.0, size=ds.p)
    got = run_experiment(Dataset(a * ds.features + b, ds.labels), CELLS, CONFIG)
    assert got.accuracies == want.accuracies
    for key, chosen in want.chosen.items():
        for moved, kept in zip(got.chosen[key], chosen):
            assert moved.keys() == kept.keys(), key
            for name, value in kept.items():
                if name == "lambda":
                    assert moved[name] == pytest.approx(value, rel=1e-12, abs=0.0), key
                else:
                    assert moved[name] == value, (key, name)


def test_column_permutation_moves_only_the_column_indices(base):
    """Column-order independence of the LLF cells: permuting the columns
    leaves their accuracies and chosen values equal, and the columns that
    the lasso and the t-test keep are the same columns under their new
    indices. The SAE cells are left out: the SAE's random initialization is
    tied to column position."""
    ds, want = base
    perm = np.random.default_rng(29).permutation(ds.p)
    permuted = Dataset(ds.features[:, perm], ds.labels)
    _assert_same_cells(run_experiment(permuted, LLF_CELLS, CONFIG), want, LLF_CELLS)
    split = _checked_split(ds, LLF_CELLS, CONFIG, 0)
    fits, permuted_fits = _RepeatFits(ds, split, CONFIG, 0), _RepeatFits(permuted, split, CONFIG, 0)
    for spec in (PipelineSpec("LLF", "LASSO"), PipelineSpec("LLF", "TTEST")):
        (fit, _), (moved, _) = run_pipeline(fits, spec), run_pipeline(permuted_fits, spec)
        assert np.sort(perm[moved.selection]).tolist() == fit.selection.tolist(), spec


@pytest.mark.parametrize("pool", ["deleted", "noise"])
def test_unlabeled_rows_reach_only_the_semi_supervised_cells(base, pool):
    """The labeled/unlabeled boundary: only semi-supervised pretraining reads
    the unlabeled rows, so with those rows deleted, or replaced by N(2, 3^2)
    noise, every other cell's accuracies and chosen values are equal."""
    ds, want = base
    unlabeled = ds.labels == UNLABELED
    if pool == "deleted":
        changed = Dataset(ds.features[~unlabeled], ds.labels[~unlabeled])
    else:
        X = ds.features.copy()
        X[unlabeled] = np.random.default_rng(30).normal(2.0, 3.0, size=(unlabeled.sum(), ds.p))
        changed = Dataset(X, ds.labels)
    _assert_same_cells(run_experiment(changed, SUPERVISED_CELLS, CONFIG), want, SUPERVISED_CELLS)


def test_flipped_test_labels_change_no_fit_and_move_accuracy_exactly(base):
    """The test side's isolation: at a fixed split, flipping some test rows'
    labels changes no fit, so the chosen values and the SVM's weights are
    byte-equal, and the accuracy moves by exactly what the flipped rows
    imply: each one predicted right before is now wrong, and each one
    predicted wrong is now right."""
    ds, _ = base
    split = _checked_split(ds, CELLS, CONFIG, 0)
    flipped = split.test[::3]
    labels = ds.labels.copy()
    labels[flipped] = 1 - labels[flipped]
    fits = _RepeatFits(ds, split, CONFIG, 0)
    flipped_fits = _RepeatFits(Dataset(ds.features, labels), split, CONFIG, 0)
    for spec in CELLS:
        (fit, acc), (moved, moved_acc) = run_pipeline(fits, spec), run_pipeline(flipped_fits, spec)
        assert moved.chosen == fit.chosen, spec
        assert moved.svm.w.tobytes() == fit.svm.w.tobytes(), spec
        assert moved.svm.bias == fit.svm.bias, spec
        right = svm_predict(fit.svm, fit.transform(ds.features[flipped])) == ds.labels[flipped]
        n_test = split.test.size
        assert round(moved_acc * n_test) - round(acc * n_test) == flipped.size - 2 * right.sum()
