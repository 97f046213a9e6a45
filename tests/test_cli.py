from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from featlearn import harness
from featlearn.cli import _METHOD_NAMES, _SELECTOR_NAMES, entry, main
from featlearn.data import Dataset, SyntheticSpec, generate_synthetic, load_csv, save_csv
from featlearn.harness import (PipelineSpec, ResultsTable, parse_config, run_experiment,
                               write_runs_csv)
from test_harness import BAD_RUNS, RUNS_HEADER

# CLI spelling -> PipelineSpec name, written out so that a change of spelling shows
METHODS = {
    "llf": "LLF",
    "saef": "SAEF",
    "semi-saef": "SEMI_SAEF",
    "llf+saef": "LLF_SAEF",
    "llf+semi-saef": "LLF_SEMI_SAEF",
}
SELECTORS = {"none": "NONE", "lasso": "LASSO", "ttest": "TTEST", "pca": "PCA"}


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "d.csv"
    assert main(["gen-data", "--out", str(path), "--n0", "20", "--n1", "20",
                 "--n-unlabeled", "10", "--p", "6", "--s", "2"]) == 0
    return str(path)


@pytest.fixture
def constant_csv(tmp_path):
    """40 labeled rows of 6 columns; column 'c' (index 2) is constant."""
    X = np.random.default_rng(0).normal(size=(40, 6))
    X[:, 2] = 1.5
    path = tmp_path / "constant.csv"
    save_csv(Dataset(X, [0, 1] * 20, tuple("abcdef")), str(path))
    return str(path)


@pytest.fixture
def no_fits(monkeypatch):
    """Fails the test at any fit; main does not catch the AssertionError."""
    def fail(repeat, spec):
        raise AssertionError(f"{spec} was fitted")

    monkeypatch.setattr(harness, "run_pipeline", fail)


@pytest.fixture
def tiny(tmp_path):
    """``--config`` and a config file with few folds and a small, short SAE."""
    path = tmp_path / "tiny.cfg"
    path.write_text("k = 3\nsae_dims = 4,2\nsae_iterations = 5\n", encoding="utf-8")
    return ["--config", str(path)]


def test_name_tables():
    assert _METHOD_NAMES == METHODS
    assert _SELECTOR_NAMES == SELECTORS


@pytest.mark.parametrize("method, selector", [("llf", "lasso"), ("semi-saef", "none")])
def test_gen_data_then_run(data_csv, tiny, capsys, method, selector):
    capsys.readouterr()
    assert main(["run", "--data", data_csv, "--method", method, "--selector", selector,
                 *tiny]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"method={method} selector={selector} accuracy=")
    assert "  chosen C = " in out
    assert ("  chosen lambda = " in out) == (selector == "lasso")
    assert ("  chosen l2 = " in out) == (method != "llf")


def test_gen_data_defaults_are_the_adni_like_preset(tmp_path, capsys):
    path, preset = tmp_path / "adni.csv", tmp_path / "preset.csv"
    assert main(["gen-data", "--out", str(path), "--seed", "3"]) == 0
    assert capsys.readouterr().out == (f"wrote 632 rows x 56 features to {path} "
                                       "(n0=144, n1=179, unlabeled=309)\n")
    save_csv(generate_synthetic(SyntheticSpec.adni_like(seed=3)), str(preset))
    assert path.read_bytes() == preset.read_bytes()


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_gen_data_rejects_non_finite_delta_before_writing(tmp_path, capsys, delta):
    path = tmp_path / "d.csv"
    assert main(["gen-data", "--out", str(path), "--delta", delta]) == 1
    assert "invalid spec: delta must be finite and >= 0" in capsys.readouterr().err
    assert not path.exists()


def test_config_file_with_a_byte_order_mark(data_csv, tmp_path, capsys):
    path = tmp_path / "bom.cfg"
    path.write_bytes("k = 3\nsae_dims = 4,2\nsae_iterations = 5\n".encode("utf-8-sig"))
    capsys.readouterr()
    assert main(["run", "--data", data_csv, "--config", str(path), "--selector", "ttest"]) == 0
    assert capsys.readouterr().out.startswith("method=llf selector=ttest accuracy=")


def test_unknown_method_exits_1(data_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--data", data_csv, "--method", "sae"])
    assert exc.value.code == 1
    assert "invalid choice: 'sae'" in capsys.readouterr().err


def test_undefined_cell_exits_1_before_reading_data(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--data", str(tmp_path / "absent.csv"), "--method", "saef",
              "--selector", "pca"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: selector 'PCA' is not defined for method 'SAEF'" in err
    assert "absent.csv" not in err


def test_missing_data_file_exits_2(tmp_path, capsys):
    assert main(["run", "--data", str(tmp_path / "absent.csv")]) == 2
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["gen-data", "--out", "{dir}/d.csv", "--n0", "4", "--n1", "4", "--n-unlabeled", "0",
      "--p", "3", "--s", "1"], 0),
    (["run", "--data", "{dir}/d.csv", "--method", "sae"], 1),
    (["run", "--data", "{dir}/d.csv"], 2),
], ids=["gen-data", "usage-error", "missing-data"])
def test_console_script_exits_with_mains_code(tmp_path, monkeypatch, capsys, argv, code):
    """``entry``, the installed ``featlearn`` command, reads sys.argv and
    exits with the code that main returns."""
    monkeypatch.setattr("sys.argv", ["featlearn", *(a.format(dir=tmp_path) for a in argv)])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == code
    assert (tmp_path / "d.csv").exists() == (code == 0)


@pytest.mark.parametrize("line, message", [
    ("sae_dims = 8,4", "decrease strictly"),
    ("sae_dims = 4,2\nk = 17", "k=17 exceeds"),
    ("svm_epochs = 0", "svm_epochs and svm_cv_epochs must be >= 1"),
    ("svm_cv_epochs = 0", "svm_epochs and svm_cv_epochs must be >= 1"),
    ("c_grid = 1,0", "every C in c_grid must be > 0"),
    ("c_grid = nan", "every C in c_grid must be > 0 and finite"),
    ("c_grid = 0.1,inf", "every C in c_grid must be > 0 and finite"),
    ("l2_grid = nan", "l2 must be >= 0 and finite"),
    ("sae_learning_rate = inf", "learning_rate must be > 0 and finite"),
    ("n_lambdas = 1", "n_lambdas must be >= 2"),
    ("lambda_ratio = 1.5", "ratio must lie in (0, 1)"),
    ("sae_learning_rate = 0", "learning_rate must be > 0"),
    ("sae_iterations = 0", "iterations must be >= 1"),
    ("l2_grid = 0.001,-0.0001", "l2 must be >= 0"),
    ("pca_grid = 0", "every pca_grid and ttest_grid value must be >= 1"),
    ("ttest_grid = -3", "every pca_grid and ttest_grid value must be >= 1"),
    ("c_grid = 1,0.1,1", "c_grid holds 1.0 more than once"),
    ("pca_grid = 5,2,5", "pca_grid holds 5 more than once"),
    ("ttest_grid = 2,2", "ttest_grid holds 2 more than once"),
    ("l2_grid = 0,0.001,-0", "l2_grid holds -0.0 more than once"),
    ("sae_dims = 4,0", "hidden sizes must be >= 1"),
    ("base_seed = -1", "base_seed must be >= 0"),
    ("k = 3.5", "config line 1: k: invalid literal for int() with base 10: '3.5'"),
    ("k = 3\nk = 5", "config line 2: k is already set on line 1"),
    ("jobs = 2", "config line 1: unknown key 'jobs'"),
    ("k 3", "config line 1: expected 'key = value', got 'k 3'"),
    ("stratify = yes", "config line 1: stratify: must be true or false"),
    ("stratify = false", "stratify must be true: every split is stratified by class"),
])
def test_experiment_rejects_config_before_any_fit(data_csv, tmp_path, capsys, no_fits,
                                                   line, message):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    common = ["--data", data_csv, "--config", str(config)]
    # run fits an SAE cell, so the SAE width check applies to it too
    for argv in (["experiment", *common, "--out", str(tmp_path / "out")],
                 ["run", *common, "--method", "saef"]):
        capsys.readouterr()
        assert main(argv) == 2, argv[0]
        assert message in capsys.readouterr().err, argv[0]


@pytest.mark.parametrize("config, flags, message", [
    ("k = 3\nsae_dims = 4,2\n", ["--jobs", "0"], "jobs must be >= 1"),
    ("k = 17\nsae_dims = 4,2\n", [], "k=17 exceeds the 16 training rows"),
    ("k = 3\nsae_dims = 8,4\n", [], "decrease strictly"),
], ids=["jobs-0", "k-above-smaller-class", "sae-dims-wider-than-data"])
def test_refused_experiment_leaves_no_directory(data_csv, tmp_path, capsys, no_fits,
                                                config, flags, message):
    path = tmp_path / "refused.cfg"
    path.write_text(config, encoding="utf-8")
    out = tmp_path / "new" / "out"
    assert main(["experiment", "--data", data_csv, "--config", str(path), *flags,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_failed_experiment_leaves_no_directory(constant_csv, tmp_path, tiny, capsys):
    assert main(["experiment", "--data", constant_csv, *tiny, "--out", str(tmp_path / "out")]) == 2
    assert "pipeline stage 'standardize' failed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_refused_experiment_leaves_an_existing_directory_as_it_was(data_csv, tmp_path, no_fits):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept", encoding="utf-8")
    empty = tmp_path / "empty"
    empty.mkdir()
    for directory in (out, empty):
        assert main(["experiment", "--data", data_csv, "--jobs", "0",
                     "--out", str(directory)]) == 2
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept"
    assert empty.is_dir() and not any(empty.iterdir())


def test_experiment_out_naming_a_file_fails_before_any_fit(data_csv, tmp_path, capsys, no_fits):
    out = tmp_path / "out"
    out.write_text("a file", encoding="utf-8")
    assert main(["experiment", "--data", data_csv, "--out", str(out)]) == 2
    assert "featlearn experiment: error: " in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "a file"


def test_run_names_the_stage_of_a_constant_column(constant_csv, tiny, capsys):
    assert main(["run", "--data", constant_csv, *tiny]) == 2
    assert capsys.readouterr().err == (
        "featlearn run: error: pipeline stage 'standardize' failed: "
        "column 'c' (index 2) is constant over the given rows\n")


def test_run_is_repeat_0_of_experiment(data_csv, tiny, tmp_path, capsys):
    # run prints a cell's repeat-0 accuracy and chosen values as the full
    # table's experiment at the same seed has them
    out = tmp_path / "out"
    assert main(["experiment", "--data", data_csv, *tiny, "--seed", "2", "--repeats", "1",
                 "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    cfg = replace(parse_config(Path(tiny[1]).read_text(encoding="utf-8")), base_seed=2, repeats=1)
    chosen = run_experiment(load_csv(data_csv), PipelineSpec.table_cells(), cfg).chosen
    for method, selector in [("llf", "pca"), ("llf+semi-saef", "lasso")]:
        capsys.readouterr()
        assert main(["run", "--data", data_csv, *tiny, "--seed", "2",
                     "--method", method, "--selector", selector]) == 0
        first, *printed = capsys.readouterr().out.splitlines()
        cell = (METHODS[method], SELECTORS[selector])
        row = next(line for line in rows if line.startswith(",".join(cell) + ",0,"))
        assert first.rsplit("accuracy=", 1)[1] == f"{float(row.rsplit(',', 1)[1]):.4f}"
        assert printed == [f"  chosen {k} = {v:g}" if isinstance(v, float) else f"  chosen {k} = {v}"
                           for k, v in chosen[cell][0].items()]


def test_label_column_names_where_the_labels_are(data_csv, tiny, tmp_path, capsys):
    """The same data with its label column renamed dx and moved to the front
    gives the same run and experiment under --label-column dx; a name that
    the header lacks exits 2 and is named."""
    header, *rows = [line.split(",") for line in Path(data_csv).read_text().splitlines()]
    assert header[-1] == "label"
    moved = tmp_path / "dx.csv"
    moved.write_text("".join(",".join([row[-1], *row[:-1]]) + "\n"
                             for row in [header[:-1] + ["dx"], *rows]))
    outputs = []
    for path, flags in [(data_csv, []), (str(moved), ["--label-column", "dx"])]:
        capsys.readouterr()
        assert main(["run", "--data", path, *flags, *tiny, "--selector", "lasso"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / f"out{len(outputs)}"
        assert main(["experiment", "--data", path, *flags, *tiny, "--repeats", "2",
                     "--out", str(out)]) == 0
        outputs.append((printed, (out / "results.csv").read_bytes()))
    assert outputs[0][0].startswith("method=llf selector=lasso accuracy=")
    assert outputs[1] == outputs[0]
    for command in (["run"], ["experiment", "--out", str(tmp_path / "out-dx")]):
        capsys.readouterr()
        assert main([*command, "--data", data_csv, "--label-column", "dx", *tiny]) == 2
        assert "header has no column named 'dx'" in capsys.readouterr().err


def test_negative_seed_rejected_before_any_fit(data_csv, tiny, tmp_path, capsys):
    capsys.readouterr()
    assert main(["run", "--data", data_csv, "--seed", "-1", *tiny]) == 2
    assert "featlearn run: error: base_seed must be >= 0" in capsys.readouterr().err
    assert main(["experiment", "--data", data_csv, "--seed", "-1",
                 "--out", str(tmp_path / "out")]) == 2
    assert "featlearn experiment: error: base_seed must be >= 0" in capsys.readouterr().err


def test_verify_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 1
    assert "invalid choice: 'verify'" in capsys.readouterr().err


def test_help_lists_the_four_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{gen-data,run,experiment,report}" in capsys.readouterr().out


@pytest.mark.parametrize("fmt, means_line", [("text", "No FS"), ("csv", "No FS,80.0,,,,")])
def test_report_renders_a_results_csv_with_a_trailing_blank_line(tmp_path, capsys, fmt,
                                                                  means_line):
    path = tmp_path / "results.csv"
    write_runs_csv(ResultsTable(accuracies={("LLF", "NONE"): (0.75, 0.85)}), str(path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert main(["report", "--results", str(path), "--format", fmt]) == 0
    lines = capsys.readouterr().out.splitlines()
    row = next(line for line in lines if line.startswith(means_line))
    assert "80.0" in row


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_report_reads_a_results_csv_with_a_byte_order_mark(tmp_path, capsys, fmt):
    plain, marked = tmp_path / "results.csv", tmp_path / "bom.csv"
    write_runs_csv(ResultsTable(accuracies={("LLF", "NONE"): (0.75, 0.85)}), str(plain))
    marked.write_bytes(plain.read_bytes().decode("utf-8").encode("utf-8-sig"))
    assert main(["report", "--results", str(plain), "--format", fmt]) == 0
    want = capsys.readouterr().out
    assert main(["report", "--results", str(marked), "--format", fmt]) == 0
    assert capsys.readouterr().out == want


def test_report_names_the_malformed_line(tmp_path, capsys):
    path = tmp_path / "results.csv"
    path.write_text("method,selector,repeat,accuracy\nLLF,NONE,0,abc\n")
    assert main(["report", "--results", str(path)]) == 2
    assert f"featlearn report: error: {path}:2: malformed row 'LLF,NONE,0,abc'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("rows, line, message", BAD_RUNS.values(), ids=BAD_RUNS)
def test_report_refuses_inconsistent_results(tmp_path, capsys, rows, line, message):
    path = tmp_path / "results.csv"
    path.write_text(RUNS_HEADER + rows)
    assert main(["report", "--results", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"featlearn report: error: {path}:{line}: ") and message in err


@pytest.mark.parametrize("rest", ["", "\n\n"], ids=["header-only", "blank-lines"])
def test_report_refuses_a_results_csv_with_no_rows(tmp_path, capsys, rest):
    path = tmp_path / "results.csv"
    path.write_text(RUNS_HEADER + rest)
    assert main(["report", "--results", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"featlearn report: error: {path}: no result rows" in err
