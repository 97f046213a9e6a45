import pytest

from featlearn import verify


@pytest.mark.parametrize("check", verify.SUITES["all"], ids=lambda check: check.__name__)
def test_check_passes(check):
    result = check()
    assert result.passed, f"{result.name}: max error {result.max_err:g} ({result.detail})"
