#!/usr/bin/env python3
"""featlearn benchmark: times the public API on reference workloads and
checks every accuracy it produces.

    python3 perfbench/run.py --workload table --seed 0 --seconds 40 --trace 0

Run from the repository root. Every metric is printed as ``name = value
unit``; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With ``--trace 0`` the metrics are
the end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones of a traced run. The manifest and the full result are
written under perfbench/out/. See perfbench/README.md.
"""

import os

# One BLAS thread, pinned before numpy loads here or in any child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_SAMPLES = 3

# The table workload shrinks the fold count and the SAE iterations so that a
# run holds several repeats; the cells, grids and stack shape stay the
# defaults. --full-config restores the default ExperimentConfig.
BENCH_TABLE = {"k": 3, "sae_iterations": 50}


@dataclass(frozen=True)
class Workload:
    name: str
    llf_only: bool
    # seconds per repeat on a 2-CPU machine; a run measures
    # round(--seconds / nominal_s) repeats, the same work on every commit
    nominal_s: float
    # ExperimentConfig fields that differ from the defaults, and the name
    # under which reference.json records this config's accuracies
    overrides: dict = field(default_factory=dict)
    profile: str = "default"


WORKLOADS = {
    "table": Workload("table", llf_only=False, nominal_s=14.0,
                      overrides=BENCH_TABLE, profile="bench"),
    "llf-selectors": Workload("llf-selectors", llf_only=True, nominal_s=5.0),
}


def import_featlearn() -> None:
    if not (SRC / "featlearn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no featlearn sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import featlearn  # noqa: F401


def data_seed(seed: int, repeat: int) -> int:
    """Repeat r of a run uses its own adni-like dataset and split seed."""
    return seed * 1000 + repeat


def repeats_for(w: Workload, seconds: float) -> int:
    return min(999, max(1, round(seconds / w.nominal_s)))


def workload_config(w: Workload):
    from featlearn.harness import ExperimentConfig
    return replace(ExperimentConfig(), repeats=1, **w.overrides)


def workload_cells(w: Workload):
    from featlearn.harness import PipelineSpec
    cells = PipelineSpec.table_cells()
    return tuple(c for c in cells if c.method == "LLF") if w.llf_only else cells


def set_up(w: Workload, seed: int, repeats: int, data_dir: Path):
    """The run's inputs, built as a user's would be: one adni-like dataset
    per repeat, written to CSV and read back, then the config and cells."""
    from featlearn import data
    data_dir.mkdir(parents=True, exist_ok=True)
    datasets = []
    for r in range(repeats):
        path = str(data_dir / f"data-{r}.csv")
        data.save_csv(data.generate_synthetic(data.SyntheticSpec.adni_like(data_seed(seed, r))),
                      path)
        datasets.append(data.load_csv(path))
    return datasets, workload_config(w), workload_cells(w)


def setup_samples(w: Workload, seed: int, repeats: int, run_dir: Path) -> list[float]:
    """Wall seconds from process start to the first repeat, several times: a
    fresh interpreter imports featlearn and runs set_up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
           "--seed", str(seed), "--repeats", str(repeats), "--setup-probe", str(run_dir / "setup")]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Outcome:
    """Accuracies keyed by (cell label, repeat) plus the failures."""

    def __init__(self):
        self.acc: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, cells: int, message: str) -> None:
        self.failed += cells
        self.errors.append(message)


def run_repeats(datasets, cfg, cells, seed: int, out: Outcome) -> list[float]:
    """One run_experiment call per repeat, so that each repeat is timed;
    returns the per-repeat wall seconds."""
    from featlearn.harness import run_experiment
    times = []
    for r, ds in enumerate(datasets):
        out.attempted += len(cells)
        t0 = time.perf_counter()
        try:
            results = run_experiment(ds, cells, replace(cfg, base_seed=data_seed(seed, r)))
        except Exception as exc:  # a failing repeat is counted, not fatal
            out.fail(len(cells), f"repeat {r}: {type(exc).__name__}: {exc}")
        else:
            for (method, selector), accs in results.accuracies.items():
                out.acc[(f"{method}-{selector}", r)] = accs[0]
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------- correctness


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def config_lines(cfg) -> list[str]:
    """The config text minus the fields each repeat sets for itself."""
    from featlearn.harness import config_to_text
    return [ln for ln in config_to_text(cfg).splitlines()
            if not ln.startswith(("base_seed ", "repeats ", "jobs "))]


def reference_for(w: Workload, cfg, seed: int):
    """Recorded accuracies for this workload's config and seed, or None;
    raises if the recorded config disagrees with this one."""
    entry = load_reference().get(w.profile)
    if entry is None:
        return None
    missing = sorted(set(entry["config"]) - set(config_lines(cfg)))
    if missing:
        raise RuntimeError(f"reference profile {w.profile!r} was recorded with {missing}")
    return entry["seeds"].get(str(seed))


def check_reference(out: Outcome, recorded) -> tuple[float | None, list]:
    """Bit-for-bit comparison with the recorded accuracies. Returns the
    largest cell-mean drift in percentage points (None if nothing was
    recorded) and the (cell, repeat) keys without a record."""
    unrecorded = []
    sums: dict = {}
    for (cell, r), a in sorted(out.acc.items()):
        ref = (recorded or {}).get(cell, [])
        if r >= len(ref):
            unrecorded.append((cell, r))
            continue
        expected = float(ref[r])
        if a != expected:
            out.fail(1, f"{cell} repeat {r}: accuracy {a:.17g} != reference {expected:.17g}")
        s = sums.setdefault(cell, [0.0, 0.0, 0])
        s[0] += a
        s[1] += expected
        s[2] += 1
    if not sums:
        return None, unrecorded
    return max(abs(a - e) / n for a, e, n in sums.values()) * 100.0, unrecorded


def check_sane(out: Outcome) -> None:
    for (cell, r), a in sorted(out.acc.items()):
        if not 0.0 <= a <= 1.0:
            out.fail(1, f"{cell} repeat {r}: accuracy {a!r} outside [0, 1]")


def record_reference(w: Workload, cfg, seed: int, acc: dict) -> None:
    """Append accuracies for repeats that have no record; never rewrites."""
    ref = load_reference()
    entry = ref.setdefault(w.profile, {"config": config_lines(cfg), "seeds": {}})
    per_cell = entry["seeds"].setdefault(str(seed), {})
    for (cell, r), a in sorted(acc.items()):
        values = per_cell.setdefault(cell, [])
        if r == len(values):
            values.append(f"{a:.17g}")
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ------------------------------------------------------------- manifest


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(w: Workload, seed: int, seconds: float, trace: bool, repeats: int, cfg) -> dict:
    import numpy as np
    import featlearn
    from featlearn.harness import config_to_text
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "repeats": repeats, "data_seeds": [data_seed(seed, r) for r in range(repeats)],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": {k: blas.get(k) for k in ("name", "version")},
        "featlearn": featlearn.__version__, "git_sha": git_sha(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "config": config_to_text(cfg),
    }


# ------------------------------------------------------------ measuring


def measure_untraced(w: Workload, seed: int, repeats: int, run_dir: Path, out: Outcome):
    setup = setup_samples(w, seed, repeats, run_dir)
    datasets, cfg, cells = set_up(w, seed, repeats, run_dir / "data")
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    times = run_repeats(datasets, cfg, cells, seed, out)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "repeat_s": (statistics.median(times), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, {"setup_samples_s": setup, "repeat_samples_s": times}


def timed_pass(w: Workload, seed: int, repeats: int, data_dir: Path, out: Outcome) -> float:
    """Set-up plus work, in process; returns the wall seconds."""
    t0 = time.perf_counter()
    datasets, cfg, cells = set_up(w, seed, repeats, data_dir)
    run_repeats(datasets, cfg, cells, seed, out)
    return time.perf_counter() - t0


def measure_traced(w: Workload, seed: int, repeats: int, run_dir: Path, out: Outcome):
    """An untraced pass, then the same pass traced; the traced accuracies
    must equal the untraced ones bit for bit."""
    from tracing import Tracer, cell_label
    from featlearn.harness import PipelineSpec
    plain = Outcome()
    plain_wall = timed_pass(w, seed, repeats, run_dir / "untraced", plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall = timed_pass(w, seed, repeats, run_dir / "traced", out)
    finally:
        tracer.uninstall()
    for key in sorted(set(out.acc) | set(plain.acc)):
        if out.acc.get(key) != plain.acc.get(key):
            out.fail(1, f"{key}: traced {out.acc.get(key)!r} != untraced {plain.acc.get(key)!r}")
    tracer.write_spans(run_dir / "spans.jsonl")

    totals = tracer.layer_totals()
    metrics = {}
    for layer, t in totals["layers"].items():
        metrics[f"{layer}.calls"] = (t["calls"], "count")
        metrics[f"{layer}.s"] = (t["s"], "s")
        metrics[f"{layer}.self_s"] = (t["self_s"], "s")
    for spec in PipelineSpec.table_cells():
        cell = cell_label(spec)
        metrics[f"harness.run_pipeline.s.{cell}"] = (totals["cells"].get(cell, 0.0), "s")
    calls = totals["layers"]["sae.ae_train"]["calls"]
    distinct = len(tracer.ae_keys)
    metrics["sae.ae_train.distinct"] = (distinct, "count")
    metrics["sae.ae_train.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
    for name, value in tracer.counts.items():
        metrics[name] = (value, "count")
    metrics["trace.overhead_pct"] = ((traced_wall / plain_wall - 1.0) * 100.0, "%")
    return metrics, {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                     "spans": len(tracer.spans)}


def measure(w: Workload, seed: int, seconds: float, trace: bool, record: bool = False,
            run_dir: Path | None = None) -> dict:
    """One benchmark run. Returns the full result; its ``line`` is the JSON
    object that run.py prints last."""
    # a traced run makes one repeat per pass: its figures are counts and
    # shares, and it must stay well inside the untraced runs' time
    repeats = 1 if trace else repeats_for(w, seconds)
    if run_dir is None:
        run_dir = OUT_DIR / f"{w.name}-seed{seed}-trace{int(trace)}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    out = Outcome()
    if trace:
        metrics, detail = measure_traced(w, seed, repeats, run_dir, out)
    else:
        metrics, detail = measure_untraced(w, seed, repeats, run_dir, out)
    cfg = workload_config(w)
    check_sane(out)
    try:
        recorded = reference_for(w, cfg, seed)
    except RuntimeError as exc:
        out.fail(len(out.acc), str(exc))
        recorded = None
    drift, unrecorded = check_reference(out, recorded)
    if record and unrecorded and out.failed == 0:
        record_reference(w, cfg, seed, {k: out.acc[k] for k in unrecorded})
    line = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return {
        "line": line,
        "failed_frac": out.failed / out.attempted if out.attempted else 1.0,
        "acc_drift_pp": drift,
        "unrecorded": len(unrecorded),
        "errors": out.errors[:20],
        "detail": detail,
        "manifest": manifest(w, seed, seconds, trace, repeats, cfg),
        "run_dir": str(run_dir),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-config", action="store_true",
                        help="run the default ExperimentConfig (about 110 s per table repeat)")
    parser.add_argument("--record", action="store_true",
                        help="add this run's accuracies to reference.json where none are "
                             "recorded yet")
    parser.add_argument("--repeats", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    w = WORKLOADS[args.workload]
    if args.full_config:
        w = replace(w, overrides={}, profile="default")
    try:
        import_featlearn()
    except FileNotFoundError as exc:
        print(f"run.py: {exc}; run it from the root of a featlearn checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(w, args.seed, args.repeats, args.setup_probe)
        return 0
    result = measure(w, args.seed, args.seconds, bool(args.trace), record=args.record)
    run_dir = Path(result["run_dir"])
    (run_dir / "manifest.json").write_text(json.dumps(result["manifest"], indent=1) + "\n",
                                           encoding="utf-8")
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    line = result["line"]
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    drift = result["acc_drift_pp"]
    print(f"failed_frac = {result['failed_frac']:.6g} ({line['failed']} of "
          f"{line['attempted']} cells); acc_drift_pp = "
          f"{'n/a' if drift is None else format(drift, '.6g')} "
          f"({result['unrecorded']} accuracies without a record)")
    for err in result["errors"]:
        print(f"error: {err}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
