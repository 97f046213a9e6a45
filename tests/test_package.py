"""The package's surface and the benchmark's recorded configs.

``import featlearn`` loads no submodule: the API is the submodules, each
imported by name, and the package root holds only ``__version__``. The
config lines that ``perfbench/reference.json`` records for each profile
must still parse, and ``config_to_text`` must still write each of them, or
every benchmark cell of that profile fails; this names the key in Tier-1
instead. Nothing under ``perfbench/`` is written.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from featlearn.harness import config_to_text, parse_config

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))

SURFACE = """
import json, sys
import featlearn
loaded = sorted(m for m in sys.modules if m.startswith("featlearn"))
import featlearn.lasso, featlearn.svm
print(json.dumps({"loaded": loaded, "version": featlearn.__version__,
                  "svm_objective": hasattr(featlearn.svm, "svm_objective"),
                  "lasso_fit_type": [name for name in ("LassoFit", "lasso_objective")
                                     if hasattr(featlearn.lasso, name)]}))
"""


def test_import_loads_only_the_package_root():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", SURFACE], env=env, capture_output=True,
                          text=True, check=True)
    got = json.loads(proc.stdout)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.M)
    assert got["loaded"] == ["featlearn"]
    assert version and got["version"] == version.group(1)
    assert not got["svm_objective"], "svm_objective lives in tests/svm_reference.py"
    assert not got["lasso_fit_type"], "coordinate_descent's result type and objective live in" \
                                      " tests/lasso_reference.py"


def test_no_module_but_lasso_names_lasso_fit():
    # lasso_fit stays only as the name the benchmark tracer looks up in
    # featlearn.lasso; a run that called it would hand the tracer an array
    for module in sorted((ROOT / "src" / "featlearn").glob("*.py")):
        if module.name != "lasso.py":
            assert "lasso_fit" not in module.read_text(encoding="utf-8"), module.name


@pytest.mark.parametrize("profile", sorted(REFERENCE))
def test_recorded_config_lines_round_trip(profile):
    lines = REFERENCE[profile]["config"]
    written = config_to_text(parse_config("\n".join(lines))).splitlines()
    missing = [line for line in lines if line not in written]
    assert not missing, f"config_to_text no longer writes {missing} of profile {profile!r}"
