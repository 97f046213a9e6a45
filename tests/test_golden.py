"""Frozen end-to-end results: every table cell's test accuracy and every
hyperparameter CV chose, on a small reference experiment, compared bit for
bit with tests/golden_small.json. The fixture was made with every cell
fitted on its own, so it also pins the fits that cells of one repeat share.

A change that is meant to leave results unchanged must pass this test as it
stands. A change that moves results on purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md. The fixture records the numpy version that made
it, and a failure names it beside the running one; the check itself stays
exact whatever the versions.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
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


def _fixture() -> tuple[dict, str]:
    """The recorded cells, and the numpy versions that made and run them."""
    fixture = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return fixture["cells"], (f"fixture made with numpy {fixture['numpy']}, "
                              f"running numpy {np.__version__}")


def test_results_match_golden_fixture():
    expected, versions = _fixture()
    got = compute_results()
    assert sorted(got) == sorted(expected), versions
    for cell, records in expected.items():
        assert got[cell] == records, f"{cell}; {versions}"


# The command line's ``run`` is an experiment of one cell and one repeat, and
# ``run --seed S`` is repeat r of an experiment at base seed S - r
@pytest.mark.parametrize("spec, r", [(PipelineSpec("SAEF"), 0),
                                     (PipelineSpec("LLF_SEMI_SAEF"), 1)])
def test_one_cell_fit_matches_golden_fixture(spec, r):
    ds = generate_synthetic(SyntheticSpec.adni_like(DATA_SEED))
    cfg = replace(CONFIG, base_seed=CONFIG.base_seed + r, repeats=1)
    key = (spec.method, spec.selector)
    expected, versions = _fixture()
    assert _records(run_experiment(ds, [spec], cfg), key) == expected["-".join(key)][r:r + 1], \
        versions


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "data": f"adni-like seed {DATA_SEED}",
        "config": {"repeats": CONFIG.repeats, "k": CONFIG.k,
                   "sae_learning_rate": CONFIG.sae_learning_rate,
                   "sae_iterations": CONFIG.sae_iterations},
        "numpy": np.__version__,
        "cells": compute_results(),
    }, indent=1) + "\n", encoding="utf-8")
