import pytest

from featlearn import verify
from featlearn.cli import _METHOD_NAMES, _SELECTOR_NAMES, main
from featlearn.harness import ResultsTable, write_runs_csv
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

TINY = ["--k", "3", "--sae-dims", "4,2", "--sae-iterations", "5"]


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "d.csv"
    assert main(["gen-data", "--out", str(path), "--n0", "20", "--n1", "20",
                 "--n-unlabeled", "10", "--p", "6", "--s", "2"]) == 0
    return str(path)


def test_name_tables():
    assert _METHOD_NAMES == METHODS
    assert _SELECTOR_NAMES == SELECTORS


@pytest.mark.parametrize("method, selector", [("llf", "lasso"), ("semi-saef", "none")])
def test_gen_data_then_run(data_csv, capsys, method, selector):
    capsys.readouterr()
    assert main(["run", "--data", data_csv, "--method", method, "--selector", selector,
                 *TINY]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"method={method} selector={selector} accuracy=")
    assert "  chosen C = " in out
    assert ("  chosen lambda = " in out) == (selector == "lasso")
    assert ("  chosen l2 = " in out) == (method != "llf")


def test_unknown_method_exits_1(data_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--data", data_csv, "--method", "sae"])
    assert exc.value.code == 1
    assert "invalid choice: 'sae'" in capsys.readouterr().err


def test_missing_data_file_exits_2(tmp_path, capsys):
    assert main(["run", "--data", str(tmp_path / "absent.csv")]) == 2
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("sae_dims = 8,4", "decrease strictly"),
    ("sae_dims = 4,2\nk = 17", "k=17 exceeds"),
    ("svm_epochs = 0", "svm_epochs and svm_cv_epochs must be >= 1"),
    ("svm_cv_epochs = 0", "svm_epochs and svm_cv_epochs must be >= 1"),
    ("c_grid = 1,0", "every C in c_grid must be > 0"),
    ("n_lambdas = 1", "n_lambdas must be >= 2"),
    ("lambda_ratio = 1.5", "ratio must lie in (0, 1)"),
    ("sae_learning_rate = 0", "learning_rate must be > 0"),
    ("sae_iterations = 0", "iterations must be >= 1"),
    ("l2_grid = 0.001,-0.0001", "l2 must be >= 0"),
    ("pca_grid = 0", "every pca_grid and ttest_grid value must be >= 1"),
    ("ttest_grid = -3", "every pca_grid and ttest_grid value must be >= 1"),
    ("sae_dims = 4,0", "hidden sizes must be >= 1"),
    ("base_seed = -1", "base_seed must be >= 0"),
])
def test_experiment_rejects_config_before_any_fit(data_csv, tmp_path, capsys, line, message):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["experiment", "--data", data_csv, "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_negative_seed_rejected_before_any_fit(data_csv, tmp_path, capsys):
    capsys.readouterr()
    assert main(["run", "--data", data_csv, "--seed", "-1", *TINY]) == 2
    assert "featlearn run: error: base_seed must be >= 0" in capsys.readouterr().err
    assert main(["experiment", "--data", data_csv, "--seed", "-1",
                 "--out", str(tmp_path / "out")]) == 2
    assert "featlearn experiment: error: base_seed must be >= 0" in capsys.readouterr().err


def test_verify_prints_one_pass_line_per_check(capsys):
    assert main(["verify", "--suite", "gradients"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "PASS reconstruction-gradients", "PASS fine-tune-gradients"]
    assert lines[-1] == "suite 'gradients': all 2 checks passed"


def test_verify_failing_check_exits_2(monkeypatch, capsys):
    def failing():
        return verify.CheckResult("always-fails", False, 1.0, "stub")

    monkeypatch.setitem(verify.SUITES, "gradients", (failing,))
    assert main(["verify", "--suite", "gradients"]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("FAIL always-fails: ")
    assert "FAILED checks: always-fails" in err


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
