import pytest

from featlearn.cli import _METHOD_NAMES, _SELECTOR_NAMES, main

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
