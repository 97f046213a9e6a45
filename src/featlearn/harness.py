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
lasso), and the method features with their scaler once per method. Each cell fits only its own
selector and SVM. ``fit_pipeline`` is the one-cell use of the same object.

The SVM searches train their candidates in lockstep blocks
(``svm.svm_train_block``), which give the same models as one fit per
candidate. The C search trains all folds' C grids as one block, a fold's
candidates sharing its training rows. The PCA search fits its k fold
PCAs at the largest r with one ``pca.pca_fit_block``, whose covariances
share one round-robin Jacobi loop (``linalg.sym_eigen_block``), bit for bit
as k ``pca_fit`` calls; the final fit on all training rows is a
``pca_fit`` of its own. It then trains every (fold, r) at C = 1 as one SVM
block: the folds with equal training row counts share one stack of
scores, and each r trains on its first r columns. The t-test search
trains one block per fold. Its candidates are different column subsets,
so they share no operand and each keeps its own matrix products; one block
across folds would only hold every fold's column copies at once (about
2.8 MB at the default config). The SAE's L2 search likewise pretrains each
fold's stack once and fine-tunes the fold's whole L2 grid as one block
(``sae.fine_tune_block``).

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

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from typing import get_args, get_type_hints

import numpy as np

from .data import (Dataset, SplitIndices, StandardizationParams, _readonly, cv_masks,
                   derive_seed, kfold, random_split, standardize_fit, stratified_split)
from .lasso import check_lambda_grid, lambda_path, lasso_cv, lasso_fit, selected_features
from .pca import PcaModel, pca_fit, pca_fit_block, pca_transform
from .sae import (SaeModel, TrainConfig, check_dims, fine_tune_block, sae_features,
                  sae_predict, sae_pretrain, semi_pretrain_finetune)
from .svm import LinearSvmModel, accuracy, svm_cv, svm_predict, svm_train, svm_train_block
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
    """Protocol knobs; the defaults are the reference protocol (20% test
    split, 10-fold CV, 100 repetitions, 40-15 stack at lr 0.01 for 150
    iterations)."""

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
    jobs: int = 1

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if not 0.0 < self.test_frac < 1.0:
            raise ValueError("test_frac must lie in (0, 1)")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for name in ("sae_dims", "l2_grid", "c_grid", "pca_grid", "ttest_grid"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if min(self.svm_epochs, self.svm_cv_epochs) < 1:
            raise ValueError("svm_epochs and svm_cv_epochs must be >= 1")
        if min(self.c_grid) <= 0:
            raise ValueError("every C in c_grid must be > 0")
        if min(self.pca_grid + self.ttest_grid) < 1:
            raise ValueError("every pca_grid and ttest_grid value must be >= 1")
        check_lambda_grid(self.n_lambdas, self.lambda_ratio)
        # the input width is not known here, so any width above the first
        # hidden size lets check_dims check the rest
        check_dims(self.sae_dims[0] + 1, self.sae_dims)
        for l2 in self.l2_grid:
            TrainConfig(learning_rate=self.sae_learning_rate,
                        iterations=self.sae_iterations, l2=l2)


@dataclass(frozen=True, eq=False)
class MethodFeatures:
    """Fitted method stage: raw features, SAE encodings, or both."""

    method: str
    sae: SaeModel | None = None

    def apply(self, X: np.ndarray) -> np.ndarray:
        if self.method == "LLF":
            return X
        F = sae_features(self.sae, X)
        if self.method in ("LLF_SAEF", "LLF_SEMI_SAEF"):
            return np.hstack([X, F])
        return F


def _fit_scaler(F: np.ndarray) -> StandardizationParams:
    """Centering/scaling of learned features, fitted on training rows;
    near-constant columns are centered but left unscaled."""
    stds = F.std(axis=0, ddof=1)
    return StandardizationParams(F.mean(axis=0), np.where(stds > 1e-12, stds, 1.0))


@dataclass(frozen=True, eq=False)
class SelectorTransform:
    """Fitted selector stage: a column subset or a PCA projection."""

    selector: str
    indices: np.ndarray | None = None
    pca: PcaModel | None = None

    def apply(self, F: np.ndarray) -> np.ndarray:
        if self.selector == "NONE":
            return F
        if self.selector == "PCA":
            return pca_transform(self.pca, F)
        return F[:, self.indices]


@dataclass(frozen=True, eq=False)
class PipelineFit:
    """Everything fitted by one pipeline on one training set."""

    spec: PipelineSpec
    standardization: StandardizationParams
    method_map: MethodFeatures
    feature_scaler: StandardizationParams
    selector_map: SelectorTransform
    svm: LinearSvmModel
    chosen: dict

    def transform(self, X_raw: np.ndarray) -> np.ndarray:
        Xs = self.standardization.apply(X_raw)
        return self.selector_map.apply(self.feature_scaler.apply(self.method_map.apply(Xs)))

    def predict01(self, X_raw: np.ndarray) -> np.ndarray:
        return _predict01(self.svm, self.transform(X_raw))


def _cv_svm_predicts(Xtrs, ytr01, max_epochs: int) -> list:
    """Fixed-C classifiers used while tuning the t-test's m, one block over
    a fold's candidate matrices; the final C is tuned afterwards on the
    selected features."""
    y_pm = 2.0 * np.asarray(ytr01) - 1.0
    models = svm_train_block([(X, y_pm, [1.0]) for X in Xtrs], tol=1e-6, max_epochs=max_epochs)
    return [partial(_predict01, model) for model in models]


def _predict01(model: LinearSvmModel, X: np.ndarray) -> np.ndarray:
    return ((svm_predict(model, X) + 1) // 2).astype(np.int64)


def _fit_sae_stage(Xtr, ytr01, X_extra, folds_local, cfg: ExperimentConfig, seed: int):
    """Choose the fine-tuning L2 by k-fold CV on the SAE classifier's own
    validation accuracy, then train the final stack on all training rows.

    Pretraining never reads l2, so each fold's stack is pretrained once and
    its whole L2 grid fine-tuned as one block, all from the fold's seed."""
    base = dict(learning_rate=cfg.sae_learning_rate, iterations=cfg.sae_iterations)
    grid = sorted(cfg.l2_grid)
    scores = np.zeros(len(grid))
    for f, (train, val) in enumerate(cv_masks(Xtr.shape[0], folds_local)):
        fold_cfg = TrainConfig(seed=derive_seed(seed, _TAG_SAE, f), **base)
        layers = sae_pretrain(np.vstack([Xtr[train], X_extra]), cfg.sae_dims, fold_cfg)
        for i, model in enumerate(fine_tune_block(layers, Xtr[train], ytr01[train], fold_cfg, grid)):
            scores[i] += float(np.mean(sae_predict(model, Xtr[val]) == ytr01[val]))
    best_l2 = grid[int(np.argmax(scores))]
    final = semi_pretrain_finetune(
        Xtr, ytr01, X_extra, cfg.sae_dims,
        TrainConfig(l2=best_l2, seed=derive_seed(seed, _TAG_SAE, len(folds_local)), **base))
    return final, best_l2


def _fit_lasso_selector(F, ytr01, folds_local, cfg: ExperimentConfig):
    y_pm = 2.0 * np.asarray(ytr01, dtype=float) - 1.0
    lambdas = lambda_path(F, y_pm - y_pm.mean(), cfg.n_lambdas, cfg.lambda_ratio)
    best_lam = lasso_cv(F, y_pm, folds_local, lambdas)
    fit = lasso_fit(F, y_pm - y_pm.mean(), best_lam)
    idx = selected_features(fit)
    if idx.size == 0:
        # nothing survived the penalty; degrade to no selection
        idx = np.arange(F.shape[1])
    return SelectorTransform(selector="LASSO", indices=idx), {"lambda": best_lam,
                                                              "n_selected": int(idx.size)}


def _fit_ttest_selector(F, ytr01, folds_local, cfg: ExperimentConfig):
    q = F.shape[1]
    grid = sorted({m for m in cfg.ttest_grid if m <= q}) or [q]
    m = ttest_cv(F, ytr01, folds_local, grid,
                 partial(_cv_svm_predicts, max_epochs=cfg.svm_cv_epochs))
    stats = two_sample_t(F, ytr01)
    idx = select_top_m(stats, m)
    return SelectorTransform(selector="TTEST", indices=idx), {"m": m}


def _fit_pca_selector(F, ytr01, folds_local, cfg: ExperimentConfig):
    """Choose r by k-fold CV of a C = 1 SVM on each fold's top-r PCA scores.

    The k fold PCAs are fitted at the largest r in one ``pca_fit_block``,
    and every (fold, r) problem trains in one SVM block. The folds with
    equal training row counts share one stack of scores, and each r trains
    on the stack's first r columns, so no fold's scores are held twice. The
    final fit on all training rows stays a ``pca_fit`` call of its own,
    which is the call that perfbench's tracer records for the PCA cell."""
    n, q = F.shape
    min_train = min(n - len(val) for val in folds_local)
    r_cap = min(min_train - 1, q)
    grid = sorted({r for r in cfg.pca_grid if r <= r_cap}) or [r_cap]
    r_max = grid[-1]
    y_pm = 2.0 * np.asarray(ytr01, dtype=float) - 1.0
    masks = list(cv_masks(n, folds_local))
    pcas = pca_fit_block((F[train] for train, _ in masks), r_max)
    by_rows: dict = {}
    for f, (_, val) in enumerate(masks):
        by_rows.setdefault(n - len(val), []).append(f)
    groups, owners, scores_val = [], [], [None] * len(masks)
    for rows, fs in by_rows.items():
        S, Y = np.empty((len(fs), rows, r_max)), np.empty((len(fs), rows))
        for s, f in enumerate(fs):
            train, val = masks[f]
            S[s], Y[s] = pca_transform(pcas[f], F[train]), y_pm[train]
            scores_val[f] = pca_transform(pcas[f], F[val])
        for i, r in enumerate(grid):
            groups.append((S[:, :, :r], Y, [1.0] * len(fs)))
            owners += [(f, i) for f in fs]
    models = dict(zip(owners, svm_train_block(groups, tol=1e-6,
                                              max_epochs=cfg.svm_cv_epochs)))
    scores = np.zeros(len(grid))
    for f, (_, val) in enumerate(masks):
        for i, r in enumerate(grid):
            pred = _predict01(models[f, i], scores_val[f][:, :r])
            scores[i] += float(np.mean(pred == ytr01[val]))
    r = grid[int(np.argmax(scores))]
    model = pca_fit(F, r)
    return SelectorTransform(selector="PCA", pca=model), {"r": r}


_SELECTOR_FITS = {"LASSO": _fit_lasso_selector, "TTEST": _fit_ttest_selector,
                  "PCA": _fit_pca_selector}


class _RepeatFits:
    """One repeat's shared fits (see the module docstring), each made on
    first use and kept only as long as this object; ``fit`` adds a cell's
    own selector and SVM. Shared arrays are read-only, so a cell that wrote
    into one would raise instead of changing what the next cell sees."""

    def __init__(self, ds: Dataset, split: SplitIndices, unlabeled_rows,
                 cfg: ExperimentConfig, seed: int):
        self.ds = ds
        self.split = split
        self.unlabeled_rows = np.asarray(unlabeled_rows, dtype=np.intp)
        self.cfg = cfg
        self.seed = seed
        self._sae: dict = {}
        self._methods: dict = {}

    @cached_property
    def _train(self):
        """Standardization, standardized training rows, 0/1 labels, local folds."""
        ds, train = self.ds, self.split.train
        with _stage("standardize"):
            params = standardize_fit(ds, train)
            Xtr = _readonly(params.apply(ds.features[train]))
            ytr01 = _readonly(ds.labels[train].astype(np.int64))
        with _stage("folds"):
            folds_local = tuple(_readonly(f) for f in
                                kfold(ytr01, self.cfg.k, derive_seed(self.seed, _TAG_FOLDS)))
        return params, Xtr, ytr01, folds_local

    def _sae_stage(self, semi: bool) -> tuple[SaeModel, float]:
        if semi not in self._sae:
            params, Xtr, ytr01, folds_local = self._train
            if semi:
                X_extra = params.apply(self.ds.features[self.unlabeled_rows])
            else:
                X_extra = np.zeros((0, self.ds.p))
            self._sae[semi] = _fit_sae_stage(Xtr, ytr01, X_extra, folds_local,
                                             self.cfg, self.seed)
        return self._sae[semi]

    def _method_stage(self, spec: PipelineSpec):
        """(method map, feature scaler, scaled training features, chosen)."""
        if spec.method not in self._methods:
            Xtr = self._train[1]
            with _stage("method-features"):
                chosen = {}
                if spec.uses_sae:
                    sae_model, chosen["l2"] = self._sae_stage(spec.semi_supervised)
                    method_map = MethodFeatures(method=spec.method, sae=sae_model)
                else:
                    method_map = MethodFeatures(method="LLF")
                Ftr = method_map.apply(Xtr)
                scaler = _fit_scaler(Ftr)
                self._methods[spec.method] = (method_map, scaler,
                                              _readonly(scaler.apply(Ftr)), chosen)
        return self._methods[spec.method]

    def fit(self, spec: PipelineSpec) -> PipelineFit:
        params, _, ytr01, folds_local = self._train
        method_map, scaler, Ftr, method_chosen = self._method_stage(spec)
        chosen = dict(method_chosen)

        with _stage("selector"):
            if spec.selector == "NONE":
                selector_map = SelectorTransform(selector="NONE")
            else:
                fit_selector = _SELECTOR_FITS[spec.selector]
                selector_map, picked = fit_selector(Ftr, ytr01, folds_local, self.cfg)
                chosen.update(picked)
            Gtr = selector_map.apply(Ftr)

        with _stage("svm"):
            y_pm = 2.0 * ytr01.astype(float) - 1.0
            C = svm_cv(Gtr, y_pm, folds_local, self.cfg.c_grid, tol=1e-6,
                       max_epochs=self.cfg.svm_cv_epochs)
            chosen["C"] = C
            model = svm_train(Gtr, y_pm, C, tol=1e-7, max_epochs=self.cfg.svm_epochs)

        return PipelineFit(spec=spec, standardization=params, method_map=method_map,
                           feature_scaler=scaler, selector_map=selector_map, svm=model,
                           chosen=chosen)


def fit_pipeline(ds: Dataset, spec: PipelineSpec, split: SplitIndices,
                 unlabeled_rows, cfg: ExperimentConfig, seed: int) -> PipelineFit:
    """Fit one pipeline on the training side of ``split``.

    Test rows are never consulted; unlabeled rows feed SAE pretraining only
    when the method is semi-supervised.
    """
    return _RepeatFits(ds, split, unlabeled_rows, cfg, seed).fit(spec)


def run_pipeline(repeat: _RepeatFits, spec: PipelineSpec) -> float:
    """Fit one cell through its repeat's shared fits, return its accuracy on
    the test side of the repeat's split."""
    fit = repeat.fit(spec)
    with _stage("evaluate"):
        test = repeat.split.test
        pred = fit.predict01(repeat.ds.features[test])
        return accuracy(pred, repeat.ds.labels[test].astype(np.int64))


@dataclass(frozen=True)
class CellStats:
    mean_pct: float
    std_pct: float
    repeats: int


@dataclass(frozen=True, eq=False)
class ResultsTable:
    """Per-cell accuracy fractions for every repeat, keyed by
    (method, selector)."""

    accuracies: dict

    def cells(self) -> dict:
        out = {}
        for key, accs in self.accuracies.items():
            a = np.asarray(accs, dtype=float)
            std = float(a.std(ddof=1)) if a.size > 1 else 0.0
            out[key] = CellStats(mean_pct=100.0 * float(a.mean()),
                                 std_pct=100.0 * std, repeats=int(a.size))
        return out


def _make_split(ds: Dataset, cfg: ExperimentConfig, seed: int) -> SplitIndices:
    if cfg.stratify:
        return stratified_split(ds, cfg.test_frac, seed)
    return random_split(ds, cfg.test_frac, seed)


def _run_repeat(ds: Dataset, task) -> tuple[int, list[float]]:
    specs, cfg, r, split = task
    repeat = _RepeatFits(ds, split, ds.unlabeled_indices(), cfg, cfg.base_seed + r)
    return r, [run_pipeline(repeat, spec) for spec in specs]


# a pool worker's dataset, sent once by _init_worker rather than with every task
_worker_ds: Dataset | None = None


def _init_worker(ds: Dataset) -> None:
    global _worker_ds
    _worker_ds = ds


def _repeat_worker(task) -> tuple[int, list[float]]:
    return _run_repeat(_worker_ds, task)


def _checked_splits(ds: Dataset, specs, cfg: ExperimentConfig) -> list[SplitIndices]:
    """Every repeat's split, after checking what would otherwise fail only
    partway through the run: the SAE stack's widths and the fold count."""
    if any(spec.uses_sae for spec in specs):
        check_dims(ds.p, cfg.sae_dims)
    splits = []
    for r in range(cfg.repeats):
        split = _make_split(ds, cfg, cfg.base_seed + r)
        smaller = int(np.bincount(ds.labels[split.train], minlength=2).min())
        if cfg.k > smaller:
            raise ValueError(f"k={cfg.k} exceeds the {smaller} training rows of the "
                             f"smaller class in repeat {r}")
        splits.append(split)
    return splits


def run_experiment(ds: Dataset, specs, cfg: ExperimentConfig) -> ResultsTable:
    """Repeat the split/fit/evaluate protocol cfg.repeats times.

    Every spec sees the same split within a repeat (paired comparison);
    repeat r uses seed base_seed + r. The repeats run in min(cfg.jobs,
    cfg.repeats) worker processes when that is more than one; results are
    identical for any jobs value. Raises ValueError before any fit if the
    SAE dims do not fit ds or some repeat's smaller training class has
    fewer than cfg.k rows.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("specs must be nonempty")
    splits = _checked_splits(ds, specs, cfg)
    tasks = [(specs, cfg, r, split) for r, split in enumerate(splits)]
    # a fork-based pool starts all its workers on the first submit
    workers = min(cfg.jobs, cfg.repeats)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(ds,)) as pool:
            outcomes = list(pool.map(_repeat_worker, tasks))
    else:
        outcomes = [_run_repeat(ds, t) for t in tasks]
    by_repeat = dict(outcomes)
    table: dict = {}
    for i, spec in enumerate(specs):
        key = (spec.method, spec.selector)
        table[key] = tuple(by_repeat[r][i] for r in range(cfg.repeats))
    return ResultsTable(accuracies=table)


def _grid(results: ResultsTable):
    cells = results.cells()
    present_selectors = [s for s in SELECTORS if any(k[1] == s for k in cells)]
    return cells, present_selectors


def render_table(results: ResultsTable, fmt: str = "text") -> str:
    """Rows are selectors, columns are feature methods, means rendered to
    one decimal in percent; unpopulated combinations stay blank. A std-dev
    block (an extension over the mean-only layout) follows the means."""
    if fmt not in ("text", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    cells, selectors = _grid(results)

    def cell_text(selector, method, attr):
        stats = cells.get((method, selector))
        return "" if stats is None else f"{getattr(stats, attr):.1f}"

    headers = [METHOD_LABELS[m] for m in METHODS]
    if fmt == "csv":
        lines = ["selector," + ",".join(headers)]
        for s in selectors:
            lines.append(",".join([SELECTOR_LABELS[s]] +
                                  [cell_text(s, m, "mean_pct") for m in METHODS]))
        lines.append("")
        lines.append("std dev (%) across repeats (extension)")
        lines.append("selector," + ",".join(headers))
        for s in selectors:
            lines.append(",".join([SELECTOR_LABELS[s]] +
                                  [cell_text(s, m, "std_pct") for m in METHODS]))
        return "\n".join(lines) + "\n"

    widths = [max(len(h), 13) for h in headers]
    name_w = max(len(SELECTOR_LABELS[s]) for s in SELECTORS)

    def text_row(name, vals):
        return (name.ljust(name_w) + "  "
                + "  ".join(v.rjust(w) for v, w in zip(vals, widths))).rstrip()

    lines = ["Mean accuracy (%) over repeats", ""]
    lines.append(text_row("", headers))
    for s in selectors:
        lines.append(text_row(SELECTOR_LABELS[s], [cell_text(s, m, "mean_pct") for m in METHODS]))
    lines.append("")
    lines.append("Std dev (%) across repeats (extension)")
    for s in selectors:
        lines.append(text_row(SELECTOR_LABELS[s], [cell_text(s, m, "std_pct") for m in METHODS]))
    return "\n".join(lines) + "\n"


def write_runs_csv(results: ResultsTable, path: str) -> None:
    """One row per (method, selector, repeat) plus mean/std summary rows."""
    lines = ["method,selector,repeat,accuracy"]
    for (method, selector), accs in results.accuracies.items():
        for r, a in enumerate(accs):
            lines.append(f"{method},{selector},{r},{a:.17g}")
    for (method, selector), accs in results.accuracies.items():
        a = np.asarray(accs)
        std = float(a.std(ddof=1)) if a.size > 1 else 0.0
        lines.append(f"{method},{selector},mean,{float(a.mean()):.17g}")
        lines.append(f"{method},{selector},std,{std:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_runs_csv(path: str) -> ResultsTable:
    """Rebuild a ResultsTable from write_runs_csv output. Blank lines are
    skipped. Each of these raises ValueError naming ``path:line``: a
    malformed row, a cell that PipelineSpec rejects, a second row for one
    (method, selector, repeat), a cell of R rows whose repeats are not
    0..R-1, and a cell with another repeat count than the first cell."""
    per_cell: dict = {}  # (method, selector) -> {repeat: (accuracy, line)}
    with open(path, encoding="utf-8") as fh:
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
                if rep in ("mean", "std"):
                    continue
                rep, acc = int(rep), float(acc)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}: {exc}") from exc
            runs = per_cell.setdefault((method, selector), {})
            if rep in runs:
                raise ValueError(f"{path}:{lineno}: repeat {rep} of cell {method},{selector} "
                                 f"is already on line {runs[rep][1]}")
            runs[rep] = (acc, lineno)
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
    return ResultsTable(accuracies=table)


# Field name -> its annotated type, e.g. float or tuple[int, ...]
_CONFIG_FIELDS = get_type_hints(ExperimentConfig)


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


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Flat key = value format; '#' starts a comment, lists are
    comma-separated. Unknown keys are rejected."""
    cfg = base or ExperimentConfig()
    updates: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        kind = _CONFIG_FIELDS[key]
        if kind is bool:
            if value.lower() not in ("true", "false"):
                raise ValueError(f"config line {lineno}: {key} must be true or false")
            updates[key] = value.lower() == "true"
        elif get_args(kind):  # tuple[elem, ...]
            elem = get_args(kind)[0]
            updates[key] = tuple(elem(p.strip()) for p in value.split(",") if p.strip())
        else:
            updates[key] = kind(value)
    return replace(cfg, **updates)
