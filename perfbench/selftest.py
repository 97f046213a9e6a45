#!/usr/bin/env python3
"""Self-tests of the benchmark: a tiny config through every workload's code
path, traced and untraced. Run from the repository root:

    python3 perfbench/selftest.py
"""

import functools
import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins the BLAS threads before numpy loads)

run.import_featlearn()

import numpy as np  # noqa: E402
from featlearn import sae  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {"k": 3, "sae_iterations": 2, "sae_dims": (8, 4), "l2_grid": (1e-3, 1e-2),
        "c_grid": (1.0, 10.0), "pca_grid": (2, 5), "ttest_grid": (2, 4), "n_lambdas": 4,
        "svm_epochs": 30, "svm_cv_epochs": 10}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = run.OUT_DIR / "selftest"


def tiny(name: str) -> run.Workload:
    # a profile with no record in reference.json
    return replace(run.WORKLOADS[name], overrides=TINY, profile="selftest")


@functools.lru_cache(maxsize=None)
def result(name: str, trace: bool) -> dict:
    return run.measure(tiny(name), seed=3, seconds=1, trace=trace,
                       run_dir=WORK / f"{name}-trace{int(trace)}")


def ancestors(spans, i):
    while spans[i]["parent"] >= 0:
        i = spans[i]["parent"]
        yield spans[i]


class MetricsTest(unittest.TestCase):
    def check_metrics(self, trace: bool, listed):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                res = result(name, trace)
                line = res["line"]
                self.assertTrue(line["correct"], res["errors"])
                self.assertGreaterEqual(line["attempted"], 1)
                self.assertEqual(line["failed"], 0)
                emitted = {m: v["unit"] for m, v in line["metrics"].items()}
                self.assertEqual(emitted, {m["name"]: m["unit"] for m in listed})
                for m, v in line["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), m)

    def test_end_to_end_metrics_named_with_units(self):
        self.check_metrics(False, SPEC["end_to_end"])
        for name in run.WORKLOADS:
            for m, v in result(name, False)["line"]["metrics"].items():
                self.assertGreater(v["value"], 0, f"{name} {m}")

    def test_per_layer_metrics_named_with_units(self):
        self.check_metrics(True, SPEC["per_layer"])

    def test_manifest_records_environment(self):
        m = result("table", False)["manifest"]
        self.assertEqual(m["env"], {k: "1" for k in
                                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        self.assertIn("sae_iterations = 2\n", m["config"])
        for key in ("nproc", "python", "numpy", "blas", "git_sha", "seed"):
            self.assertIn(key, m)


class TracerTest(unittest.TestCase):
    def test_distinct_ratio_counts_a_duplicated_fit(self):
        X = np.random.default_rng(0).standard_normal((20, 6))
        cfg = sae.TrainConfig(iterations=2, seed=1)
        original = sae.ae_train
        plain = original(X, 3, cfg)
        tracer = Tracer()
        tracer.install()
        try:
            first = sae.ae_train(X, 3, cfg)
            sae.ae_train(X.copy(), 3, replace(cfg, l2=0.5))  # same fit: l2 is not read
            sae.ae_train(X, 3, replace(cfg, seed=2))
        finally:
            tracer.uninstall()
        self.assertIs(sae.ae_train, original)
        np.testing.assert_array_equal(first.W, plain.W)
        self.assertEqual(tracer.layer_totals()["layers"]["sae.ae_train"]["calls"], 3)
        self.assertEqual(len(tracer.ae_keys), 2)

    def test_spans_nest_under_their_cell(self):
        res = result("table", True)
        spans = [json.loads(ln) for ln in
                 (Path(res["run_dir"]) / "spans.jsonl").read_text(encoding="utf-8").splitlines()]
        inside = {"sae.": "SAEF", "lasso.": "-LASSO", "ttest.": "-TTEST", "pca.": "-PCA"}
        seen = set()
        for i, span in enumerate(spans):
            if span["name"].startswith(("data.generate", "data.load", "harness.run_pipeline")):
                continue
            cell = [a for a in ancestors(spans, i) if a["name"] == "harness.run_pipeline"]
            self.assertEqual(len(cell), 1, span)
            self.assertEqual(cell[0]["tag"], span["tag"])
            self.assertLessEqual(cell[0]["start"], span["start"])
            self.assertLessEqual(span["end"], cell[0]["end"])
            for prefix, part in inside.items():
                if span["name"].startswith(prefix):
                    self.assertIn(part, span["tag"], span)
                    seen.add(prefix)
        self.assertEqual(seen, set(inside))


class CorrectnessTest(unittest.TestCase):
    def test_reference_mismatch_counts_as_failure(self):
        out = run.Outcome()
        out.acc = {("LLF-NONE", 0): 0.5, ("LLF-NONE", 1): 0.75}
        drift, unrecorded = run.check_reference(out, {"LLF-NONE": ["0.75"]})
        self.assertEqual(out.failed, 1)
        self.assertEqual(drift, 25.0)
        self.assertEqual(unrecorded, [("LLF-NONE", 1)])

    def test_refuses_to_run_without_the_program(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in run.BENCH_DIR.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
