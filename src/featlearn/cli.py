"""Command-line front door: synthetic data generation, single pipeline
runs, full experiments, verification suites, and report rendering.

Exit codes: 0 success, 1 usage error, 2 runtime error. Every subcommand is
deterministic given its flags; all randomness flows from --seed. The split
uses the per-repeat seed itself; the fold and SAE streams are sub-seeds of
it, tagged 2 and 3.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .data import SyntheticSpec, generate_synthetic, load_csv, save_csv
from .harness import (METHOD_LABELS, SELECTORS, ExperimentConfig, PipelineSpec,
                      _make_split, fit_pipeline, parse_config, read_runs_csv,
                      render_table, run_experiment, write_runs_csv)
from .svm import accuracy
from .verify import run_suite

# CLI spelling -> harness name: the table labels, lower-cased
_METHOD_NAMES = {label.lower(): method for method, label in METHOD_LABELS.items()}
_SELECTOR_NAMES = {selector.lower(): selector for selector in SELECTORS}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    preset = SyntheticSpec.adni_like()
    defaults = ExperimentConfig()
    dims = "-".join(map(str, defaults.sae_dims))
    parser = _Parser(prog="featlearn",
                     description="Feature learning and linear-SVM classification toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen-data", help="write a synthetic CSV dataset",
                         description="Generate an equicorrelated-Gaussian two-class dataset. "
                                     f"Defaults mirror the adni-like preset: {preset.n0}/{preset.n1} "
                                     f"labeled rows plus {preset.n_unlabeled} unlabeled, {preset.p} "
                                     f"features of which {preset.s} carry a {preset.delta:g}-std "
                                     f"mean shift at equicorrelation {preset.rho:g}.")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--preset", choices=["adni-like"],
                     help="use the named preset, overriding the shape flags")
    gen.add_argument("--n0", type=int, default=preset.n0, help="class-0 rows (default %(default)s)")
    gen.add_argument("--n1", type=int, default=preset.n1, help="class-1 rows (default %(default)s)")
    gen.add_argument("--n-unlabeled", type=int, default=preset.n_unlabeled,
                     help="unlabeled rows (default %(default)s)")
    gen.add_argument("--p", type=int, default=preset.p, help="feature count (default %(default)s)")
    gen.add_argument("--s", type=int, default=preset.s,
                     help="informative features (default %(default)s)")
    gen.add_argument("--delta", type=float, default=preset.delta,
                     help="mean shift in std units (default %(default)s)")
    gen.add_argument("--rho", type=float, default=preset.rho,
                     help="equicorrelation in [0,1) (default %(default)s)")

    run = sub.add_parser("run", help="run one pipeline on one split",
                         description="Single train/test split, one (method, selector) pipeline; "
                                     "prints the test accuracy and the CV-chosen hyperparameters. "
                                     f"SAE defaults: structure {dims}, learning rate "
                                     f"{defaults.sae_learning_rate:g}, "
                                     f"{defaults.sae_iterations} iterations.")
    run.add_argument("--data", required=True, help="input CSV path")
    run.add_argument("--label-column", default="label")
    run.add_argument("--method", choices=sorted(_METHOD_NAMES), default="llf")
    run.add_argument("--selector", choices=sorted(_SELECTOR_NAMES), default="none")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--test-frac", type=float, default=defaults.test_frac,
                     help="test fraction (default %(default)s)")
    run.add_argument("--k", type=int, default=defaults.k, help="CV folds (default %(default)s)")
    run.add_argument("--no-stratify", action="store_true",
                     help="split without class stratification")
    run.add_argument("--sae-dims", default=",".join(map(str, defaults.sae_dims)),
                     help="comma-separated hidden sizes (default %(default)s)")
    run.add_argument("--sae-iterations", type=int, default=defaults.sae_iterations,
                     help="gradient steps per SAE training (default %(default)s)")
    run.add_argument("--sae-lr", type=float, default=defaults.sae_learning_rate,
                     help="SAE learning rate (default %(default)s)")

    exp = sub.add_parser("experiment", help="run the full repeated-split comparison",
                         description="All populated (method, selector) cells over repeated "
                                     "paired splits; writes per-repeat CSV plus rendered tables. "
                                     f"Defaults: {defaults.repeats} repeats, "
                                     f"{defaults.test_frac:.0%} test split, {defaults.k}-fold CV, "
                                     f"SAE {dims} at lr {defaults.sae_learning_rate:g} for "
                                     f"{defaults.sae_iterations} iterations.")
    exp.add_argument("--data", required=True, help="input CSV path")
    exp.add_argument("--label-column", default="label")
    exp.add_argument("--config", help="key = value config file overriding the defaults")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--seed", type=int, help="override base_seed")
    exp.add_argument("--repeats", type=int, help="override repeat count")
    exp.add_argument("--jobs", type=int, help="worker processes (results identical for any value)")

    rep = sub.add_parser("report", help="render a results CSV as a table")
    rep.add_argument("--results", required=True, help="runs CSV written by 'experiment'")
    rep.add_argument("--format", choices=["text", "csv"], default="text")

    ver = sub.add_parser("verify", help="run the oracle verification suites",
                         description="gradients: finite-difference checks of the auto-encoder "
                                     "losses; oracles: lasso KKT/closed forms, PCA spectral "
                                     "identities, SVM grid search. Exits 2 if a check fails.")
    ver.add_argument("--suite", choices=["gradients", "oracles", "all"], default="all")
    return parser


def _cmd_gen_data(args) -> int:
    try:
        if args.preset == "adni-like":
            spec = SyntheticSpec.adni_like(seed=args.seed)
        else:
            spec = SyntheticSpec(n0=args.n0, n1=args.n1, n_unlabeled=args.n_unlabeled,
                                 p=args.p, s=args.s, delta=args.delta, rho=args.rho,
                                 seed=args.seed)
    except ValueError as exc:
        print(f"featlearn gen-data: invalid spec: {exc}", file=sys.stderr)
        return 1
    ds = generate_synthetic(spec)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} rows x {ds.p} features to {args.out} "
          f"(n0={ds.n0}, n1={ds.n1}, unlabeled={ds.n_unlabeled})")
    return 0


def _cmd_run(args) -> int:
    ds = load_csv(args.data, args.label_column)
    dims = tuple(int(v) for v in args.sae_dims.split(",") if v.strip())
    cfg = ExperimentConfig(repeats=1, test_frac=args.test_frac, k=args.k,
                           base_seed=args.seed, stratify=not args.no_stratify,
                           sae_dims=dims, sae_learning_rate=args.sae_lr,
                           sae_iterations=args.sae_iterations)
    spec = PipelineSpec(method=_METHOD_NAMES[args.method],
                        selector=_SELECTOR_NAMES[args.selector])
    split = _make_split(ds, cfg, args.seed)
    fit = fit_pipeline(ds, spec, split, ds.unlabeled_indices(), cfg, args.seed)
    acc = accuracy(fit.predict01(ds.features[split.test]), ds.labels[split.test])
    print(f"method={args.method} selector={args.selector} accuracy={acc:.4f}")
    for key, value in fit.chosen.items():
        print(f"  chosen {key} = {value:g}" if isinstance(value, float) else f"  chosen {key} = {value}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if overrides:
        cfg = replace(cfg, **overrides)
    ds = load_csv(args.data, args.label_column)
    os.makedirs(args.out, exist_ok=True)
    results = run_experiment(ds, PipelineSpec.table_cells(), cfg)
    write_runs_csv(results, os.path.join(args.out, "results.csv"))
    text = render_table(results, "text")
    with open(os.path.join(args.out, "table.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(os.path.join(args.out, "table.csv"), "w", encoding="utf-8") as fh:
        fh.write(render_table(results, "csv"))
    print(text, end="")
    return 0


def _cmd_report(args) -> int:
    results = read_runs_csv(args.results)
    print(render_table(results, args.format), end="")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: max error {res.max_err:.3g} ({res.detail})")
    if all(r.passed for r in results):
        print(f"suite {args.suite!r}: all {len(results)} checks passed")
        return 0
    failures = [r.name for r in results if not r.passed]
    print(f"suite {args.suite!r}: FAILED checks: {', '.join(failures)}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-data": _cmd_gen_data,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"featlearn {args.command}: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
