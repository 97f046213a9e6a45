"""Frozen end-to-end results: every table cell's test accuracy and every
hyperparameter CV chose, on a small reference experiment, compared bit for
bit with tests/golden_small.json. The fixture was made with every cell
fitted on its own, so it also pins the fits that cells of one repeat share.

A change that is meant to leave results unchanged must pass this test as it
stands. A change that moves results on purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from featlearn.data import SyntheticSpec, generate_synthetic
from featlearn.harness import (ExperimentConfig, PipelineSpec, _RepeatFits, fit_pipeline,
                               run_experiment)

GOLDEN = Path(__file__).with_name("golden_small.json")
DATA_SEED = 0
CONFIG = ExperimentConfig(repeats=2, k=3, sae_learning_rate=0.1,
                          sae_iterations=30)


def _digits(v):
    return v if isinstance(v, int) else format(float(v), ".17g")


def _chosen(fit) -> dict:
    return {k: _digits(v) for k, v in sorted(fit.chosen.items())}


@contextmanager
def _recorded_fits():
    """Collect (repeat seed, PipelineFit) for every cell fitted in the block."""
    fits = []
    fit = _RepeatFits.fit

    def recording(self, spec):
        result = fit(self, spec)
        fits.append((self.seed, result))
        return result

    _RepeatFits.fit = recording
    try:
        yield fits
    finally:
        _RepeatFits.fit = fit


def compute_results() -> dict:
    """Cell label -> one record per repeat: the accuracy run_experiment
    reports and the hyperparameters its repeat's shared fits chose."""
    ds = generate_synthetic(SyntheticSpec.adni_like(DATA_SEED))
    cells = PipelineSpec.table_cells()
    with _recorded_fits() as fits:
        results = run_experiment(ds, cells, CONFIG)
    assert len(fits) == len(cells) * CONFIG.repeats
    out: dict = {}
    for seed, fit in fits:
        key = (fit.spec.method, fit.spec.selector)
        records = out.setdefault("-".join(key), [])
        assert len(records) == seed - CONFIG.base_seed
        records.append({"accuracy": _digits(results.accuracies[key][len(records)]),
                        "chosen": _chosen(fit)})
    return out


def _expected() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cells"]


def test_results_match_golden_fixture():
    expected = _expected()
    got = compute_results()
    assert sorted(got) == sorted(expected)
    for cell, records in expected.items():
        assert got[cell] == records, cell


# The command line's ``run`` fits one cell on its own through fit_pipeline
@pytest.mark.parametrize("spec, r", [(PipelineSpec("SAEF"), 0),
                                     (PipelineSpec("LLF_SEMI_SAEF"), 1)])
def test_one_cell_fit_matches_golden_fixture(spec, r):
    ds = generate_synthetic(SyntheticSpec.adni_like(DATA_SEED))
    fit, acc = fit_pipeline(ds, spec, CONFIG, r)
    assert {"accuracy": _digits(acc), "chosen": _chosen(fit)} == \
        _expected()[f"{spec.method}-{spec.selector}"][r]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "data": f"adni-like seed {DATA_SEED}",
        "config": {"repeats": CONFIG.repeats, "k": CONFIG.k,
                   "sae_learning_rate": CONFIG.sae_learning_rate,
                   "sae_iterations": CONFIG.sae_iterations},
        "cells": compute_results(),
    }, indent=1) + "\n", encoding="utf-8")
