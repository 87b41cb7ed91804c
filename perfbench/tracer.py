"""Span tracing of creditshap's public functions, from outside the program.

`Tracer.patch()` swaps each function in `TARGETS` for a wrapper that
records a span (name, parent, start, end).  The wrapper is installed
wherever a caller looks the name up: every loaded `creditshap` module
that holds the function as a global (so `creditshap.pipeline.fit_model`
and `creditshap.cli.fit_model` are patched, not only
`creditshap.models.fit_model`), and the class attribute for methods.
Spans stay in memory; `summary()` aggregates them at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute or Class.method, span name)
TARGETS = [
    ("creditshap.cli", "main", "cli.main"),
    ("creditshap.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("creditshap.pipeline", "ingest_stage", "pipeline.ingest_stage"),
    ("creditshap.pipeline", "featurize_stage", "pipeline.featurize_stage"),
    ("creditshap.pipeline", "select_stage", "pipeline.select_stage"),
    ("creditshap.pipeline", "run_grid", "pipeline.run_grid"),
    ("creditshap.pipeline", "evaluate_cell", "pipeline.evaluate_cell"),
    ("creditshap.pipeline", "explain_account", "pipeline.explain_account"),
    ("creditshap.tables", "load_table", "tables.load_table"),
    ("creditshap.tables", "join_bundle", "tables.join_bundle"),
    ("creditshap.tables", "reconstruct_bundle_balances", "tables.reconstruct_bundle_balances"),
    ("creditshap.tables", "validate_bundle", "tables.validate_bundle"),
    ("creditshap.features", "build_feature_matrix", "features.build_feature_matrix"),
    ("creditshap.features", "drop_inactive_accounts", "features.drop_inactive_accounts"),
    ("creditshap.features", "median_impute", "features.median_impute"),
    ("creditshap.features", "FeatureMatrix.to_csv", "features.FeatureMatrix.to_csv"),
    ("creditshap.selection", "drop_constant", "selection.drop_constant"),
    ("creditshap.selection", "prune_missing", "selection.prune_missing"),
    ("creditshap.selection", "correlation_prune", "selection.correlation_prune"),
    ("creditshap.resampling", "apply_strategy", "resampling.apply_strategy"),
    ("creditshap.models", "fit_model", "models.fit_model"),
    ("creditshap.models.boosting", "BinnedMatrix.__init__", "boosting.BinnedMatrix"),
    ("creditshap.models.boosting", "grow_tree", "boosting.grow_tree"),
    ("creditshap.models.boosting", "grow_oblivious_tree", "boosting.grow_oblivious_tree"),
    ("creditshap.models.boosting", "fit_gradient_boosting", "boosting.fit_gradient_boosting"),
    ("creditshap.models.boosting", "fit_oblivious_boosting", "boosting.fit_oblivious_boosting"),
    ("creditshap.models.forest", "fit_random_forest", "forest.fit_random_forest"),
    ("creditshap.models.logistic", "fit_logistic", "logistic.fit_logistic"),
    ("creditshap.models.logistic", "fit_binned_logistic", "logistic.fit_binned_logistic"),
    ("creditshap.models.mlp", "fit_mlp", "mlp.fit_mlp"),
    ("creditshap.models.trees", "Tree.predict", "trees.Tree.predict"),
    ("creditshap.models.ensemble", "TreeEnsemble.load", "ensemble.TreeEnsemble.load"),
    ("creditshap.metrics", "cross_validate", "metrics.cross_validate"),
    ("creditshap.metrics", "roc_auc", "metrics.roc_auc"),
    ("creditshap.explain", "tree_shap", "explain.tree_shap"),
    ("creditshap.explain", "global_importance", "explain.global_importance"),
    ("creditshap.explain", "summary_data", "explain.summary_data"),
    ("creditshap.explain", "waterfall_data", "explain.waterfall_data"),
    ("creditshap.plots", "waterfall_svg", "plots.waterfall_svg"),
    ("creditshap.plots", "importance_bar_svg", "plots.importance_bar_svg"),
]
# The entry points: their own time is orchestration, not a layer's work.
ENTRY_LAYERS = ("cli.", "pipeline.")


def _span_name(name, args, kwargs):
    """fit_model spans carry the model family: models.fit_model.<family>."""
    if name == "models.fit_model":
        spec = args[0] if args else kwargs["spec"]
        return f"{name}.{spec.family}"
    return name


class Tracer:
    """In-memory span recorder plus the counters measured at span boundaries."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self._undo = []
        self.rows_synthesized = 0
        self.boosted_trees_kept = 0
        self.shap_rows = set()  # distinct rows explained in the current op
        self.shap_unique_rows = 0  # summed over finished ops

    # -- recording ---------------------------------------------------------
    def end_op(self):
        """Close one benchmark operation: rows count as distinct within it."""
        self.shap_unique_rows += len(self.shap_rows)
        self.shap_rows.clear()

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def _count(self, name, args, kwargs, result):
        if name == "resampling.apply_strategy":
            split = args[1] if len(args) > 1 else kwargs["split"]
            self.rows_synthesized += max(len(result[1]) - len(split.y), 0)
        elif name in ("boosting.fit_gradient_boosting", "boosting.fit_oblivious_boosting"):
            self.boosted_trees_kept += len(result.trees)
        elif name == "explain.tree_shap":
            x = args[1] if len(args) > 1 else kwargs["x"]
            self.shap_rows.add(np.asarray(x, dtype=float).tobytes())

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(_span_name(name, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            self._count(name, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self):
        """Install the wrappers; `unpatch()` restores the originals."""
        for module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "creditshap" or n.startswith("creditshap.")]
        for module_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(raw.__func__, name)))
                else:
                    self._set(cls, meth, self._wrap(raw, name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def unpatch(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------
    def summary(self):
        """Per span name: busy seconds (outermost call of a name only),
        self seconds (busy minus direct children) and call count; plus the
        seconds spent inside spans of the layers below `cli`/`pipeline`
        (root span time minus the self time of the `cli`/`pipeline` spans)."""
        busy = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        in_roots = 0.0
        for name, parent, start, end in self.spans:
            duration = end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += duration
            else:
                in_roots += duration
            ancestor, nested = parent, False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][1]
            if not nested:
                busy[name] += duration
        self_time = defaultdict(float)
        entry_self = 0.0
        for i, (name, _, start, end) in enumerate(self.spans):
            own = (end - start) - child[i]
            self_time[name] += own
            if name.startswith(ENTRY_LAYERS):
                entry_self += own
        return {
            "busy": dict(busy),
            "self": dict(self_time),
            "calls": dict(calls),
            "in_layers": in_roots - entry_self,
        }
