"""Frozen end-to-end results: every table cell's test accuracy and every
hyperparameter CV chose, on a small reference experiment, compared bit for
bit with tests/golden_small.json.

A change that is meant to leave results unchanged must pass this test as it
stands. A change that moves results on purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import json
from pathlib import Path

from featlearn.data import SyntheticSpec, generate_synthetic
from featlearn.harness import (ExperimentConfig, PipelineSpec, _make_split,
                               fit_pipeline)
from featlearn.svm import accuracy

GOLDEN = Path(__file__).with_name("golden_small.json")
DATA_SEED = 0
CONFIG = ExperimentConfig(repeats=2, k=3, sae_learning_rate=0.1,
                          sae_iterations=30)


def _digits(v):
    return v if isinstance(v, int) else format(float(v), ".17g")


def compute_results() -> dict:
    """Cell label -> one record per repeat, as run_experiment's repeat r
    computes it (seed base_seed + r, one split shared by every cell)."""
    ds = generate_synthetic(SyntheticSpec.adni_like(DATA_SEED))
    unlabeled = ds.unlabeled_indices()
    out: dict = {}
    for r in range(CONFIG.repeats):
        seed = CONFIG.base_seed + r
        split = _make_split(ds, CONFIG, seed)
        for spec in PipelineSpec.table_cells():
            fit = fit_pipeline(ds, spec, split, unlabeled, CONFIG, seed)
            acc = accuracy(fit.predict01(ds.features[split.test]),
                           ds.labels[split.test].astype(int))
            out.setdefault(f"{spec.method}-{spec.selector}", []).append({
                "accuracy": _digits(acc),
                "chosen": {k: _digits(v) for k, v in sorted(fit.chosen.items())},
            })
    return out


def test_results_match_golden_fixture():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))["cells"]
    got = compute_results()
    assert sorted(got) == sorted(expected)
    for cell, records in expected.items():
        assert got[cell] == records, cell


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "data": f"adni-like seed {DATA_SEED}",
        "config": {"repeats": CONFIG.repeats, "k": CONFIG.k,
                   "sae_learning_rate": CONFIG.sae_learning_rate,
                   "sae_iterations": CONFIG.sae_iterations},
        "cells": compute_results(),
    }, indent=1) + "\n", encoding="utf-8")
