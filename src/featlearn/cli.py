"""Command-line front door: synthetic data generation, full experiments,
one cell of an experiment's repeat 0, and report rendering. ``run`` and
``experiment`` build one config the same way (the --config file over the
defaults, then --seed), and ``run`` is the one-repeat experiment of its
cell. A refused or failed ``experiment`` removes the --out directories it made.

Exit codes: 0 success, 1 usage error, 2 runtime error. Every subcommand is
deterministic given its flags and config; all randomness flows from the
seed. The split uses the per-repeat seed itself; the fold and SAE streams
are sub-seeds of it, tagged 2 and 3.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .data import SyntheticSpec, generate_synthetic, load_csv, save_csv
from .harness import (METHOD_LABELS, SELECTORS, ExperimentConfig, PipelineSpec, parse_config,
                      read_runs_csv, render_table, run_experiment, write_runs_csv)

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

    # the data and config arguments that run and experiment share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True, help="input CSV path")
    common.add_argument("--label-column", default="label")
    common.add_argument("--config", help="key = value config file overriding the defaults")
    common.add_argument("--seed", type=int, help="override base_seed")

    run = sub.add_parser("run", parents=[common], help="run one cell of repeat 0 of 'experiment'",
                         description="Repeat 0 of 'experiment' for one (method, selector) cell: "
                                     "it reads the same config and --seed, makes the same split "
                                     "and checks, and prints the cell's test accuracy and the "
                                     "CV-chosen hyperparameters.")
    run.add_argument("--method", choices=sorted(_METHOD_NAMES), default="llf")
    run.add_argument("--selector", choices=sorted(_SELECTOR_NAMES), default="none")

    exp = sub.add_parser("experiment", parents=[common],
                         help="run the full repeated-split comparison",
                         description="All populated (method, selector) cells over repeated "
                                     "paired splits; writes per-repeat CSV plus rendered tables. "
                                     f"Defaults: {defaults.repeats} repeats, "
                                     f"{defaults.test_frac:.0%} test split, {defaults.k}-fold CV, "
                                     f"SAE {dims} at lr {defaults.sae_learning_rate:g} for "
                                     f"{defaults.sae_iterations} iterations.")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--repeats", type=int, help="override repeat count")
    exp.add_argument("--jobs", type=int, default=1,
                     help="worker processes (default %(default)s); never changes results")

    rep = sub.add_parser("report", help="render a results CSV as a table")
    rep.add_argument("--results", required=True, help="runs CSV written by 'experiment'")
    rep.add_argument("--format", choices=["text", "csv"], default="text")
    return parser


def _cmd_gen_data(args) -> int:
    try:
        spec = SyntheticSpec(n0=args.n0, n1=args.n1, n_unlabeled=args.n_unlabeled,
                             p=args.p, s=args.s, delta=args.delta, rho=args.rho, seed=args.seed)
    except ValueError as exc:
        print(f"featlearn gen-data: invalid spec: {exc}", file=sys.stderr)
        return 1
    ds = generate_synthetic(spec)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} rows x {ds.p} features to {args.out} "
          f"(n0={ds.n0}, n1={ds.n1}, unlabeled={ds.n_unlabeled})")
    return 0


def _config(args) -> ExperimentConfig:
    """The --config file (a leading byte-order mark is skipped) over the
    defaults, then the command's overrides."""
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config, encoding="utf-8-sig") as fh:
            cfg = parse_config(fh.read())
    overrides = {"base_seed": args.seed, "repeats": getattr(args, "repeats", None)}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _cmd_run(args) -> int:
    cfg = replace(_config(args), repeats=1)
    ds, spec = load_csv(args.data, args.label_column), args.spec
    results, cell = run_experiment(ds, [spec], cfg), (spec.method, spec.selector)
    (acc,), (chosen,) = results.accuracies[cell], results.chosen[cell]
    print(f"method={args.method} selector={args.selector} accuracy={acc:.4f}")
    for key, value in chosen.items():
        print(f"  chosen {key} = {value:g}" if isinstance(value, float) else f"  chosen {key} = {value}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _config(args)
    ds = load_csv(args.data, args.label_column)
    # the directories this call makes, deepest first, go again if the run fails
    made, path = [], os.path.abspath(args.out)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(args.out, exist_ok=True)
    try:
        results = run_experiment(ds, PipelineSpec.table_cells(), cfg, args.jobs)
    except BaseException:
        for path in made:
            os.rmdir(path)
        raise
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":  # an undefined cell is a usage error, refused before any file is read
        try:
            args.spec = PipelineSpec(method=_METHOD_NAMES[args.method],
                                     selector=_SELECTOR_NAMES[args.selector])
        except ValueError as exc:
            parser.error(str(exc))
    handlers = {
        "gen-data": _cmd_gen_data,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
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
