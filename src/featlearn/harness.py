"""Experiment orchestration: assembles every populated results-table cell
(feature method x selector), runs the leakage-free split/standardize/CV
protocol, repeats it over paired splits, and renders the results.

Per pipeline run: standardization is fitted on training rows only; every
feature learner sees training rows only (semi-supervised SAE pretraining
may additionally use standardized unlabeled rows); all hyperparameters are
tuned by stratified k-fold CV inside the training set; the test rows are
touched exactly once, for the final accuracy.

Once per repeat versus once per cell: every cell of a repeat uses the same
split, so the fits they have in common are made once, on first use, and
kept for that repeat only (``_RepeatFits``). These are the standardization
and the folds for all cells, the SAE stage once per semi flag (shared by
the three cells of its family, such as SAEF, LLF+SAEF and LLF+SAEF +
lasso), and the method features with their scaler once per method. Each
cell fits only its own selector and SVM.

Each repeat makes its folds and 0/1 labels once, in the form every search
reads: ``kfold``'s (training mask, validation rows) pairs, and the labels
that the SVM takes too. Only the lasso re-encodes them, as a +/-1 target.

A fitted cell (``PipelineFit``) is plain data: its spec, the fitted
parameters, and the chosen values. The method and selector names live only
in the spec, and two functions read them there to build a cell's features:
``_method_features`` (LLF rows, SAE encodings, or both) and ``_selected``
(the kept columns or the PCA scores). Training rows and test rows go
through the same two functions.

The searches fit their candidates in blocks, and each block reads its
folds' rows from a generator, one fold at a time. The C search, the
t-test's m and the PCA's r each score theirs in one ``svm_cv`` call over
per-fold features (see ``svm``), and the PCA search fits its k fold PCAs and
the final one on all training rows in one ``pca_fit`` call. The lambda search
walks its k fold lasso paths and then the full problem on all training
rows as one lockstep ``lasso_cv`` block, each member's walk bit for bit the
one it walks alone, and the final fit reads the chosen lambda's column of
the full path. The SAE stage's fold stacks and its final stack are all
``semi_pretrain_finetune`` calls: each fold's stack is pretrained once and
fine-tunes the whole L2 grid as one block, and the final stack the chosen L2.

The five searches (the SAE's L2, the lasso's lambda, the t-test's m, the
PCA's r, the SVM's C) each return (fold, candidate) scores in grid order,
higher being better (minus the MSE for lambda), and ``_choose`` alone picks
from them. Exact ties go to the smallest C, m, r and L2 and the largest lambda.

Inner-CV optimism: the standardization, the SAE and the learned-feature
scaler are fitted once on all training rows, and the selector search reuses
their output on every inner fold; the C search likewise reuses the selector
fitted on all training rows. So each inner fold's validation rows have
already shaped the features they are scored on. The test accuracy stays
clean, but the inner choice is biased towards candidates that fit those
rows (Cawley & Talbot 2010, "On over-fitting in model selection and
subsequent selection bias in performance evaluation", JMLR 11). Refitting
the upstream stages inside each inner fold would remove the bias; its cost
has not been measured.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from typing import get_args

import numpy as np

from .data import (UNLABELED, Dataset, SplitIndices, StandardizationParams, _readonly, derive_seed,
                   field_kinds, first_repeat, kfold, plain_number, plain_numbers, standardize_fit,
                   stratified_split)
from .lasso import check_lambda_grid, lambda_path, lasso_cv, selected_features
from .pca import PcaModel, pca_fit, pca_transform
from .sae import (SaeModel, TrainConfig, check_dims, sae_features, sae_predict,
                  semi_pretrain_finetune)
from .svm import LinearSvmModel, accuracy, svm_cv, svm_predict, svm_train
from .ttest import select_top_m, ttest_cv, two_sample_t

METHODS = ("LLF", "LLF_SAEF", "LLF_SEMI_SAEF", "SAEF", "SEMI_SAEF")
SELECTORS = ("NONE", "LASSO", "TTEST", "PCA")

METHOD_LABELS = {
    "LLF": "LLF",
    "LLF_SAEF": "LLF+SAEF",
    "LLF_SEMI_SAEF": "LLF+semi-SAEF",
    "SAEF": "SAEF",
    "SEMI_SAEF": "semi-SAEF",
}
SELECTOR_LABELS = {"NONE": "No FS", "LASSO": "Lasso", "TTEST": "t-test", "PCA": "PCA"}

# The populated cells: selectors beyond "none" apply only where a learned
# subset makes sense (lasso on any LLF-bearing stack, t-test/PCA on LLF).
_ALLOWED = {
    "NONE": set(METHODS),
    "LASSO": {"LLF", "LLF_SAEF", "LLF_SEMI_SAEF"},
    "TTEST": {"LLF"},
    "PCA": {"LLF"},
}

# Sub-stream tags for deriving stage seeds from the per-repeat seed
_TAG_FOLDS = 2
_TAG_SAE = 3


class PipelineStageError(RuntimeError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.__cause__ = cause

    def __reduce__(self):  # a process pool rebuilds the error from these
        return type(self), (self.stage, self.__cause__)


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


@dataclass(frozen=True)
class PipelineSpec:
    """One results-table cell: a feature method plus an optional selector."""

    method: str
    selector: str = "NONE"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}; expected one of {SELECTORS}")
        if self.method not in _ALLOWED[self.selector]:
            raise ValueError(f"selector {self.selector!r} is not defined for method {self.method!r}")

    @property
    def uses_sae(self) -> bool:
        return self.method != "LLF"

    @property
    def semi_supervised(self) -> bool:
        return self.method in ("SEMI_SAEF", "LLF_SEMI_SAEF")

    @staticmethod
    def table_cells() -> tuple["PipelineSpec", ...]:
        """All populated cells, row by row."""
        cells = []
        for selector in SELECTORS:
            for method in METHODS:
                if method in _ALLOWED[selector]:
                    cells.append(PipelineSpec(method=method, selector=selector))
        return tuple(cells)


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol knobs, which with the data decide every accuracy; the
    defaults are the reference protocol (20% test split, 10-fold CV, 100
    repetitions, 40-15 stack at lr 0.01 for 150 iterations). Every split is
    stratified by class: ``stratify`` must be True, and stays a key only
    because the benchmark's recorded configs hold its line."""

    repeats: int = 100
    test_frac: float = 0.2
    k: int = 10
    base_seed: int = 0
    stratify: bool = True
    sae_dims: tuple[int, ...] = (40, 15)
    sae_learning_rate: float = 0.01
    sae_iterations: int = 150
    l2_grid: tuple[float, ...] = (1e-4, 1e-3, 1e-2)
    c_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    pca_grid: tuple[int, ...] = (2, 5, 10, 15, 20, 30, 40)
    ttest_grid: tuple[int, ...] = (1, 2, 4, 6, 8, 12, 16, 24, 32, 48)
    n_lambdas: int = 20
    lambda_ratio: float = 0.01
    svm_epochs: int = 600
    svm_cv_epochs: int = 150

    def __post_init__(self):
        plain_numbers(self)
        for name in ("sae_dims", "l2_grid", "c_grid", "pca_grid", "ttest_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if not 0.0 < self.test_frac < 1.0:
            raise ValueError("test_frac must lie in (0, 1)")
        if self.stratify is not True:
            raise ValueError("stratify must be true: every split is stratified by class")
        if min(self.svm_epochs, self.svm_cv_epochs) < 1:
            raise ValueError("svm_epochs and svm_cv_epochs must be >= 1")
        if not all(0.0 < C < np.inf for C in self.c_grid):
            raise ValueError("every C in c_grid must be > 0 and finite")
        if min(self.pca_grid + self.ttest_grid) < 1:
            raise ValueError("every pca_grid and ttest_grid value must be >= 1")
        check_lambda_grid(self.n_lambdas, self.lambda_ratio)
        # the input width is not known here, so any width above the first
        # hidden size lets check_dims check the rest
        check_dims(self.sae_dims[0] + 1, self.sae_dims)
        TrainConfig(learning_rate=self.sae_learning_rate, iterations=self.sae_iterations)
        if not all(0.0 <= l2 < np.inf for l2 in self.l2_grid):
            raise ValueError("l2 must be >= 0 and finite")
        # a repeated candidate would be trained twice and change no choice
        for name in ("l2_grid", "c_grid", "pca_grid", "ttest_grid"):
            if (value := first_repeat(getattr(self, name))) is not None:
                raise ValueError(f"{name} holds {value!r} more than once")


def _method_features(spec: PipelineSpec, sae: SaeModel | None, X: np.ndarray) -> np.ndarray:
    """The cell's method features of standardized rows: the rows themselves
    (LLF), their SAE encodings, or both side by side."""
    if not spec.uses_sae:
        return X
    F = sae_features(sae, X)
    return np.hstack([X, F]) if spec.method in ("LLF_SAEF", "LLF_SEMI_SAEF") else F


def _fit_scaler(F: np.ndarray) -> StandardizationParams:
    """Centering/scaling of learned features, fitted on training rows;
    near-constant columns are centered but left unscaled."""
    stds = F.std(axis=0, ddof=1)
    return StandardizationParams(F.mean(axis=0), np.where(stds > 1e-12, stds, 1.0))


def _selected(spec: PipelineSpec, selection: np.ndarray | PcaModel | None,
              F: np.ndarray) -> np.ndarray:
    """The cell's selection applied to scaled features: the kept columns
    (lasso, t-test) or the PCA scores."""
    if spec.selector == "NONE":
        return F
    if spec.selector == "PCA":
        return pca_transform(selection, F)
    return F[:, selection]


@dataclass(frozen=True, eq=False)
class PipelineFit:
    """Everything fitted by one cell on one training set, as plain data: the
    cell's method and selector are only in ``spec``. ``sae`` is the SAE of an
    SAE method (None for LLF), and ``selection`` the kept column indices of a
    lasso or t-test cell, the PCA model of a PCA cell, or None."""

    spec: PipelineSpec
    standardization: StandardizationParams
    sae: SaeModel | None
    feature_scaler: StandardizationParams
    selection: np.ndarray | PcaModel | None
    svm: LinearSvmModel
    chosen: dict

    def transform(self, X_raw: np.ndarray) -> np.ndarray:
        F = _method_features(self.spec, self.sae, self.standardization.apply(X_raw))
        return _selected(self.spec, self.selection, self.feature_scaler.apply(F))


def _fold_rows(F: np.ndarray, folds_local):
    """Each fold's (training rows, validation rows) of F for ``svm_cv``, made
    as it reads them."""
    return ((F[train], F[val]) for train, val in folds_local)


def _choose(grid, scores, ties):
    """The grid value whose column of ``scores`` has the highest total, with
    ``ties`` (min or max) picking among equal totals. The rows are summed in
    fold order and never divided: a mean can merge totals that differ."""
    total = sum(scores, np.zeros(len(grid)))
    return ties(g for g, t in zip(grid, total) if t == total.max())


def _fit_sae_stage(Xtr, ytr01, X_extra, folds_local, cfg: ExperimentConfig, seed: int):
    """Choose the fine-tuning L2 by k-fold CV on the SAE classifier's own
    validation accuracy, then train the final stack on all training rows.

    Each fold's stack and the final one are one ``semi_pretrain_finetune``
    call from the stack's own seed: a fold's stack is pretrained once and
    fine-tunes its whole L2 grid as one block, the final one the chosen L2."""
    def fit(X, y, f, l2s):
        return semi_pretrain_finetune(X, y, X_extra, cfg.sae_dims, TrainConfig(
            cfg.sae_learning_rate, cfg.sae_iterations, seed=derive_seed(seed, _TAG_SAE, f)), l2s)
    scores = [[accuracy(sae_predict(m, Xtr[val]), ytr01[val])
               for m in fit(Xtr[train], ytr01[train], f, cfg.l2_grid)]
              for f, (train, val) in enumerate(folds_local)]
    best_l2 = _choose(cfg.l2_grid, np.array(scores), min)
    final, = fit(Xtr, ytr01, len(folds_local), [best_l2])
    return final, best_l2


def _fit_lasso_selector(F, ytr01, folds_local, cfg: ExperimentConfig):
    y_pm = 2.0 * np.asarray(ytr01, dtype=float) - 1.0
    lambdas = lambda_path(F, y_pm - y_pm.mean(), cfg.n_lambdas, cfg.lambda_ratio)
    scores, path = lasso_cv(F, y_pm, folds_local, lambdas)
    best_lam = _choose(lambdas.tolist(), scores, max)
    idx = selected_features(path[:, lambdas.tolist().index(best_lam)])
    if idx.size == 0:
        # nothing survived the penalty; degrade to no selection
        idx = np.arange(F.shape[1])
    return idx, {"lambda": best_lam, "n_selected": int(idx.size)}


def _fit_ttest_selector(F, ytr01, folds_local, cfg: ExperimentConfig):
    """Choose m by k-fold CV of a C = 1 SVM on each fold's top-m t-test
    columns from ``ttest_cv``, all scored in one ``svm_cv`` block; the final
    C is tuned afterwards on the selected features."""
    q = F.shape[1]
    grid = [m for m in cfg.ttest_grid if m <= q] or [q]
    scores = svm_cv(_fold_rows(F, folds_local), ytr01, folds_local, [1.0],
                    ttest_cv(F, ytr01, folds_local, grid), max_epochs=cfg.svm_cv_epochs)
    m = _choose(grid, scores, min)
    return select_top_m(two_sample_t(F, ytr01), m), {"m": m}


def _fit_pca_selector(F, ytr01, folds_local, cfg: ExperimentConfig):
    """Choose r by k-fold CV of a C = 1 SVM on each fold's top-r PCA scores.

    The k fold PCAs and the final one on all of F are fitted at the largest r
    in one ``pca_fit`` call, which copies one fold's rows at a time from a
    generator, and the final one is cut to the chosen r. One ``svm_cv`` block
    trains each r on the first r columns of each fold's scores, which a
    generator makes one fold at a time as ``svm_cv`` stacks them."""
    n, q = F.shape
    r_cap = min(min(n - len(val) for _, val in folds_local) - 1, q)
    grid = [r for r in cfg.pca_grid if r <= r_cap] or [r_cap]
    every = [train for train, _ in folds_local] + [slice(None)]  # the last: all of F, as a view
    *pcas, final = pca_fit((F[rows] for rows in every), max(grid))
    scores = svm_cv(((pca_transform(pca, F[train]), pca_transform(pca, F[val]))
                     for pca, (train, val) in zip(pcas, folds_local)),
                    ytr01, folds_local, [1.0], grid, max_epochs=cfg.svm_cv_epochs)
    r = _choose(grid, scores, min)
    model = replace(final, components=final.components[:, :r], variances=final.variances[:r])
    return model, {"r": r}


_SELECTOR_FITS = {"LASSO": _fit_lasso_selector, "TTEST": _fit_ttest_selector,
                  "PCA": _fit_pca_selector}


class _RepeatFits:
    """One repeat's shared fits (see the module docstring), each made on
    first use and kept only as long as this object. Shared arrays are
    read-only, so a cell that wrote into one would raise instead of changing
    what the next cell sees."""

    def __init__(self, ds: Dataset, split: SplitIndices, cfg: ExperimentConfig, r: int):
        self.ds = ds
        self.split = split
        self.cfg = cfg
        self.seed = cfg.base_seed + r
        self._sae: dict = {}
        self._methods: dict = {}

    @cached_property
    def _train(self):
        """Standardization, standardized training rows, 0/1 labels, kfold pairs."""
        ds, train = self.ds, self.split.train
        with _stage("standardize"):
            params = standardize_fit(ds, train)
            Xtr = _readonly(params.apply(ds.features[train]))
            ytr01 = _readonly(ds.labels[train])
        with _stage("folds"):
            folds_local = kfold(ytr01, self.cfg.k, derive_seed(self.seed, _TAG_FOLDS))
        return params, Xtr, ytr01, folds_local

    def _sae_stage(self, semi: bool) -> tuple[SaeModel, float]:
        if semi not in self._sae:
            params, Xtr, ytr01, folds_local = self._train
            X_extra = params.apply(self.ds.features[(self.ds.labels == UNLABELED) & semi])
            self._sae[semi] = _fit_sae_stage(Xtr, ytr01, X_extra, folds_local,
                                             self.cfg, self.seed)
        return self._sae[semi]

    def _method_stage(self, spec: PipelineSpec):
        """(SAE or None, feature scaler, scaled training features, chosen)."""
        if spec.method not in self._methods:
            Xtr = self._train[1]
            with _stage("method-features"):
                sae, chosen = None, {}
                if spec.uses_sae:
                    sae, chosen["l2"] = self._sae_stage(spec.semi_supervised)
                Ftr = _method_features(spec, sae, Xtr)
                scaler = _fit_scaler(Ftr)
                self._methods[spec.method] = (sae, scaler, _readonly(scaler.apply(Ftr)), chosen)
        return self._methods[spec.method]


def run_pipeline(repeat: _RepeatFits, spec: PipelineSpec) -> tuple[PipelineFit, float]:
    """Fit one cell's selector and SVM on its repeat's shared fits and score
    the cell; return the fit and its accuracy on the test side of the
    repeat's split."""
    params, _, ytr01, folds_local = repeat._train
    sae, scaler, Ftr, method_chosen = repeat._method_stage(spec)
    chosen, cfg = dict(method_chosen), repeat.cfg

    with _stage("selector"):
        selection = None
        if spec.selector != "NONE":
            selection, picked = _SELECTOR_FITS[spec.selector](Ftr, ytr01, folds_local, cfg)
            chosen.update(picked)
        Gtr = _selected(spec, selection, Ftr)

    with _stage("svm"):
        scores = svm_cv(_fold_rows(Gtr, folds_local), ytr01, folds_local, cfg.c_grid,
                        [Gtr.shape[1]], max_epochs=cfg.svm_cv_epochs)
        chosen["C"] = C = float(_choose(cfg.c_grid, scores, min))
        model, = svm_train([(Gtr[None], ytr01[None], [C])], 1e-7, cfg.svm_epochs)

    fit = PipelineFit(spec=spec, standardization=params, sae=sae, feature_scaler=scaler,
                      selection=selection, svm=model, chosen=chosen)
    with _stage("evaluate"):
        test = repeat.split.test
        return fit, accuracy(svm_predict(model, fit.transform(repeat.ds.features[test])),
                             repeat.ds.labels[test])


@dataclass(frozen=True, eq=False)
class ResultsTable:
    """Per-cell accuracy fractions for every repeat, keyed by (method,
    selector), and under the same keys each repeat's ``PipelineFit.chosen``
    dict. ``read_runs_csv`` gives no chosen values: results.csv has none."""

    accuracies: dict
    chosen: dict = field(default_factory=dict)


def _mean_std(accs) -> tuple[float, float]:
    """A cell's mean accuracy and its sample std dev (0 for one repeat)."""
    a = np.asarray(accs, dtype=float)
    return float(a.mean()), (float(a.std(ddof=1)) if a.size > 1 else 0.0)


def _run_repeat(ds: Dataset, specs, cfg: ExperimentConfig, r: int,
                split: SplitIndices) -> list[tuple[dict, float]]:
    repeat = _RepeatFits(ds, split, cfg, r)
    return [(fit.chosen, acc) for fit, acc in (run_pipeline(repeat, spec) for spec in specs)]


def _checked_split(ds: Dataset, specs, cfg: ExperimentConfig, r: int) -> SplitIndices:
    """Repeat r's split, after checking what would otherwise fail only
    partway through the run: the fold count against the smaller training
    class, and the t-test's two rows per class on every fold's training side.
    The SAE widths depend on no split; ``run_experiment`` checks them once."""
    split = stratified_split(ds, cfg.test_frac, cfg.base_seed + r)
    smaller = int(np.bincount(ds.labels[split.train], minlength=2).min())
    if cfg.k > smaller:
        raise ValueError(f"k={cfg.k} exceeds the {smaller} training rows of the "
                         f"smaller class in repeat {r}")
    # kfold puts ceil(m / k) of a class's m rows in its largest fold, and
    # m - ceil(m / k) grows with m, so the smaller class decides
    left = smaller - -(-smaller // cfg.k)
    if left < 2 and any(spec.selector == "TTEST" for spec in specs):
        raise ValueError(f"k={cfg.k} folds leave {left} of the smaller class's m={smaller} training "
                         f"rows on a fold's training side in repeat {r}; the t-test needs 2")
    return split


def run_experiment(ds: Dataset, specs, cfg: ExperimentConfig, jobs: int = 1) -> ResultsTable:
    """Repeat the split/fit/evaluate protocol cfg.repeats times; return each
    cell's test accuracy and CV-chosen values per repeat (``ResultsTable``).

    Every spec sees the same split within a repeat (paired comparison);
    repeat r uses seed base_seed + r, as repeat 0 at that base_seed does.
    The repeats run in min(jobs, cfg.repeats) worker processes when that is
    more than one, and each worker gets the dataset with every repeat it
    runs. ``jobs`` is an argument, not a config field: it never changes a
    result.
    Raises ValueError before any fit, in this order, if a cell is repeated
    in specs, jobs is not an integer >= 1, the SAE dims do not fit ds (one
    check per run), some repeat's smaller training class has fewer than
    cfg.k rows, or, with a t-test cell, some fold's training side would hold
    fewer than 2 rows of a class.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("specs must be nonempty")
    keys = [(spec.method, spec.selector) for spec in specs]
    if (key := first_repeat(keys)) is not None:
        raise ValueError(f"cell {','.join(key)} is repeated in specs")
    jobs = plain_number("jobs", jobs, int)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if any(spec.uses_sae for spec in specs):
        check_dims(ds.p, cfg.sae_dims)
    splits = [_checked_split(ds, specs, cfg, r) for r in range(cfg.repeats)]
    run = partial(_run_repeat, ds, specs, cfg)
    # a fork-based pool starts all its workers on the first submit
    workers = min(jobs, cfg.repeats)
    if workers > 1:
        # imported here: the pool's modules are a sizeable share of importing featlearn
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run, range(cfg.repeats), splits))
    else:
        outcomes = list(map(run, range(cfg.repeats), splits))
    # both keep repeat order, so outcomes[r][i] is repeat r of spec i
    return ResultsTable(
        accuracies={key: tuple(o[i][1] for o in outcomes) for i, key in enumerate(keys)},
        chosen={key: tuple(o[i][0] for o in outcomes) for i, key in enumerate(keys)})


def render_table(results: ResultsTable, fmt: str = "text") -> str:
    """Rows are selectors, columns are feature methods, means rendered to
    one decimal in percent; unpopulated combinations stay blank. A std-dev
    block (an extension over the mean-only layout) follows the means."""
    if fmt not in ("text", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    stats = {key: _mean_std(accs) for key, accs in results.accuracies.items()}
    selectors = [s for s in SELECTORS if any(key[1] == s for key in stats)]

    def block(i: int) -> list:
        """(selector label, cell strings) per present selector, of the
        means (i = 0) or the std devs (i = 1)."""
        return [(SELECTOR_LABELS[s], [f"{100.0 * stats[m, s][i]:.1f}" if (m, s) in stats
                                      else "" for m in METHODS]) for s in selectors]

    means, stds = block(0), block(1)
    headers = [METHOD_LABELS[m] for m in METHODS]
    if fmt == "csv":
        def row(name, vals):
            return ",".join([name, *vals])

        head = row("selector", headers)
        before_means, before_stds = [head], ["", "std dev (%) across repeats (extension)", head]
    else:
        widths = [max(len(h), 13) for h in headers]
        name_w = max(len(SELECTOR_LABELS[s]) for s in SELECTORS)

        def row(name, vals):
            return (name.ljust(name_w) + "  "
                    + "  ".join(v.rjust(w) for v, w in zip(vals, widths))).rstrip()

        before_means = ["Mean accuracy (%) over repeats", "", row("", headers)]
        before_stds = ["", "Std dev (%) across repeats (extension)"]
    lines = before_means + [row(*r) for r in means] + before_stds + [row(*r) for r in stds]
    return "\n".join(lines) + "\n"


def write_runs_csv(results: ResultsTable, path: str) -> None:
    """One row per (method, selector, repeat) plus mean/std summary rows."""
    lines = ["method,selector,repeat,accuracy"]
    for (method, selector), accs in results.accuracies.items():
        for r, a in enumerate(accs):
            lines.append(f"{method},{selector},{r},{a:.17g}")
    for (method, selector), accs in results.accuracies.items():
        mean, std = _mean_std(accs)
        lines.append(f"{method},{selector},mean,{mean:.17g}")
        lines.append(f"{method},{selector},std,{std:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_runs_csv(path: str) -> ResultsTable:
    """Rebuild a ResultsTable from write_runs_csv output. A byte-order mark
    and blank lines are skipped. Each of these raises ValueError naming
    ``path:line``: a malformed row, a cell that PipelineSpec rejects, a repeat
    accuracy that is not a finite value in [0, 1], a second row for one
    (method, selector, repeat) or one (method, selector) summary, a cell of R
    rows whose repeats are not 0..R-1, and a cell with another repeat count
    than the first cell; a file with no rows names ``path``. A file need not
    have summary rows, but each ``mean`` or ``std`` row it has must belong to
    a cell with repeat rows and equal, exactly, what write_runs_csv computes."""
    per_cell: dict = {}  # (method, selector) -> {repeat: (accuracy, line)}
    summaries: dict = {}  # (method, selector, "mean" or "std") -> (value, line)
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().strip()
        if header != "method,selector,repeat,accuracy":
            raise ValueError(f"{path}:1: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                method, selector, rep, acc = line.split(",")
                PipelineSpec(method, selector)
                summary = rep in ("mean", "std")
                rep, acc = (rep if summary else int(rep)), float(acc)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}: {exc}") from exc
            if summary:
                rows, key = summaries, (method, selector, rep)
            elif not 0.0 <= acc <= 1.0:
                raise ValueError(f"{path}:{lineno}: repeat {rep} of cell {method},{selector} "
                                 f"has accuracy {acc!r}, not a finite value in [0, 1]")
            else:
                rows, key = per_cell.setdefault((method, selector), {}), rep
            if key in rows:
                row = rep if summary else f"repeat {rep}"
                raise ValueError(f"{path}:{lineno}: {row} of cell {method},{selector} "
                                 f"is already on line {rows[key][1]}")
            rows[key] = (acc, lineno)
    cells = list(per_cell.items())
    for (method, selector), runs in cells:
        R = len(runs)
        for rep, (_, lineno) in runs.items():
            if not 0 <= rep < R:
                raise ValueError(f"{path}:{lineno}: cell {method},{selector} has repeat {rep}, "
                                 f"but a cell of {R} rows must number them 0..{R - 1}")
        (m0, s0), first = cells[0]
        if R != len(first):
            lineno = min(line for _, line in runs.values())
            raise ValueError(f"{path}:{lineno}: cell {method},{selector} has {R} repeats, "
                             f"but cell {m0},{s0} has {len(first)}")
    table = {key: tuple(runs[r][0] for r in range(len(runs))) for key, runs in per_cell.items()}
    for (method, selector, kind), (value, lineno) in summaries.items():
        if (method, selector) not in table:
            raise ValueError(f"{path}:{lineno}: {kind} row for cell {method},{selector}, "
                             f"which has no repeat rows")
        expected = _mean_std(table[method, selector])[kind == "std"]
        if value != expected:
            raise ValueError(f"{path}:{lineno}: {kind} {value!r} of cell {method},{selector} "
                             f"is not the {kind} of its repeats, {expected!r}")
    if not table:
        raise ValueError(f"{path}: no result rows")
    return ResultsTable(accuracies=table)


def _float_text(x: float) -> str:
    """The short ``g`` form where it reads back equal, else the exact repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(_float_text(x) if isinstance(x, float) else str(x) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    """Flat key = value format over the defaults; '#' starts a comment, lists
    are comma-separated. Unknown keys, keys set twice and values that do not
    convert are rejected with their line."""
    updates: dict = {}
    set_on: dict = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in field_kinds(ExperimentConfig):
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ValueError(f"config line {lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        kind = field_kinds(ExperimentConfig)[key]
        try:
            if kind is bool:
                if value.lower() not in ("true", "false"):
                    raise ValueError("must be true or false")
                updates[key] = value.lower() == "true"
            elif get_args(kind):  # tuple[elem, ...]
                entries = [p.strip() for p in value.split(",")]
                if not all(entries):
                    raise ValueError("empty entry")
                updates[key] = tuple(map(get_args(kind)[0], entries))
            else:
                updates[key] = kind(value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None
    return ExperimentConfig(**updates)
