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
from dataclasses import replace
from pathlib import Path

import pytest

from featlearn.data import SyntheticSpec, generate_synthetic
from featlearn.harness import ExperimentConfig, PipelineSpec, run_experiment

GOLDEN = Path(__file__).with_name("golden_small.json")
DATA_SEED = 0
CONFIG = ExperimentConfig(repeats=2, k=3, sae_learning_rate=0.1,
                          sae_iterations=30)


def _digits(v):
    return v if isinstance(v, int) else format(float(v), ".17g")


def _records(results, key) -> list:
    """One record per repeat of a cell: its accuracy and chosen values."""
    return [{"accuracy": _digits(acc), "chosen": {k: _digits(v) for k, v in sorted(chosen.items())}}
            for acc, chosen in zip(results.accuracies[key], results.chosen[key], strict=True)]


def compute_results() -> dict:
    """Cell label -> one record per repeat: the accuracy and the
    hyperparameters that run_experiment reports."""
    ds = generate_synthetic(SyntheticSpec.adni_like(DATA_SEED))
    results = run_experiment(ds, PipelineSpec.table_cells(), CONFIG)
    return {"-".join(key): _records(results, key) for key in results.accuracies}


def _expected() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cells"]


def test_results_match_golden_fixture():
    expected = _expected()
    got = compute_results()
    assert sorted(got) == sorted(expected)
    for cell, records in expected.items():
        assert got[cell] == records, cell


# The command line's ``run`` is an experiment of one cell and one repeat, and
# ``run --seed S`` is repeat r of an experiment at base seed S - r
@pytest.mark.parametrize("spec, r", [(PipelineSpec("SAEF"), 0),
                                     (PipelineSpec("LLF_SEMI_SAEF"), 1)])
def test_one_cell_fit_matches_golden_fixture(spec, r):
    ds = generate_synthetic(SyntheticSpec.adni_like(DATA_SEED))
    cfg = replace(CONFIG, base_seed=CONFIG.base_seed + r, repeats=1)
    key = (spec.method, spec.selector)
    assert _records(run_experiment(ds, [spec], cfg), key) == _expected()["-".join(key)][r:r + 1]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "data": f"adni-like seed {DATA_SEED}",
        "config": {"repeats": CONFIG.repeats, "k": CONFIG.k,
                   "sae_learning_rate": CONFIG.sae_learning_rate,
                   "sae_iterations": CONFIG.sae_iterations},
        "cells": compute_results(),
    }, indent=1) + "\n", encoding="utf-8")
