"""Span tracing for the benchmark's traced run, installed from outside the
program: each public function listed in LAYERS is replaced, in every
namespace that looks it up, by a wrapper that records a span and returns
the callee's result untouched.

A span is (name, start, end, parent, tag). Open spans form a stack, so a
module call nests under the ``harness.run_pipeline`` span of its cell; the
tag names that cell and is shared by every span under it. Spans stay in
memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time

import numpy as np

# layer name -> the featlearn modules whose globals hold the name at call time
LAYERS = {
    "harness.run_pipeline": ("harness",),
    "sae.semi_pretrain_finetune": ("harness", "sae"),
    "sae.ae_train": ("sae",),
    "sae.fine_tune": ("sae",),
    "sae.sigmoid": ("sae",),
    "sae.sae_features": ("harness", "sae"),
    "lasso.lasso_cv": ("harness",),
    "lasso.lasso_fit": ("lasso",),
    "svm.svm_cv": ("harness",),
    "svm.svm_train": ("harness", "svm"),
    "ttest.ttest_cv": ("harness",),
    "pca.pca_fit": ("harness",),
    "linalg.sym_eigen": ("pca", "ttest"),
    "data.generate_synthetic": ("data",),
    "data.load_csv": ("data",),
    "data.standardize_fit": ("harness",),
    "data.kfold": ("harness",),
}


def cell_label(spec) -> str:
    return f"{spec.method}-{spec.selector}"


class Tracer:
    """Installs the wrappers, records spans and counts, and restores the
    original functions on ``uninstall``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {"lasso.lasso_fit.sweeps": 0,
                                       "lasso.lasso_fit.nonconverged": 0}
        self.ae_keys: set = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for layer, namespaces in LAYERS.items():
            home, name = layer.split(".")
            original = getattr(importlib.import_module(f"featlearn.{home}"), name)
            wrapper = self._wrap(layer, original)
            for ns in namespaces:
                module = importlib.import_module(f"featlearn.{ns}")
                if getattr(module, name, None) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if layer == "harness.run_pipeline":
                tag = cell_label(signature.bind(*args, **kwargs).arguments["spec"])
            else:
                tag = self.spans[parent][4] if parent >= 0 else None
            if layer == "sae.ae_train":
                self._observe_ae_train(signature, args, kwargs)
            index = len(self.spans)
            self.spans.append((layer, 0.0, 0.0, parent, tag))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (layer, start, end, parent, tag)
            if layer == "lasso.lasso_fit":
                self._observe_lasso_fit(result)
            return result

        return wrapper

    def _observe_ae_train(self, signature, args, kwargs) -> None:
        """Key a fit on exactly what ae_train reads: X, h, activation and
        the seed, learning rate and iteration count of cfg (not l2)."""
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        X = np.ascontiguousarray(a["X"], dtype=float)
        cfg = a["cfg"]
        self.ae_keys.add((X.shape, hashlib.sha1(X.tobytes()).hexdigest(), a["h"],
                          a.get("activation"), cfg.seed, cfg.learning_rate, cfg.iterations))

    def _observe_lasso_fit(self, fit) -> None:
        self.counts["lasso.lasso_fit.sweeps"] += int(fit.iterations_run)
        self.counts["lasso.lasso_fit.nonconverged"] += int(not fit.converged)

    def layer_totals(self) -> dict:
        """Per layer: calls, total seconds and self seconds (total minus the
        time covered by direct child spans); per cell: run_pipeline seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for layer in LAYERS}
        cells: dict[str, float] = {}
        for i, (name, start, end, parent, tag) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_time[i]
            if name == "harness.run_pipeline":
                cells[tag] = cells.get(tag, 0.0) + end - start
        return {"layers": totals, "cells": cells}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "tag": tag}) + "\n")
