"""The committed reference table in results/adni-like-seed0/: its results.csv
holds every cell's 100 repeats and renders to the committed tables byte for
byte, and the config its README records is today's default config. A change
of a default therefore fails here until the table is regenerated with the
commands in that README."""

import re
from pathlib import Path

import pytest

from featlearn.harness import (ExperimentConfig, PipelineSpec, config_to_text, read_runs_csv,
                               render_table)

RESULTS = Path(__file__).resolve().parent.parent / "results" / "adni-like-seed0"


def test_every_cell_has_100_repeats():
    table = read_runs_csv(str(RESULTS / "results.csv"))
    cells = [(spec.method, spec.selector) for spec in PipelineSpec.table_cells()]
    assert sorted(table.accuracies) == sorted(cells)
    assert {len(accs) for accs in table.accuracies.values()} == {100}


@pytest.mark.parametrize("fmt, name", [("text", "table.txt"), ("csv", "table.csv")])
def test_results_render_to_the_committed_table(fmt, name):
    table = read_runs_csv(str(RESULTS / "results.csv"))
    assert render_table(table, fmt).encode("utf-8") == (RESULTS / name).read_bytes()


def test_readme_config_is_the_default_config():
    readme = (RESULTS / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Config\n.*?^```\n(.*?)^```$", readme, re.M | re.S)
    assert block, "README.md has no fenced block under '## Config'"
    assert block.group(1) == config_to_text(ExperimentConfig())
