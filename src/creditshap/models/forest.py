"""Bagged random forest with Gini-impurity splits and random feature subsets.
A split's NaN rows join the side whose known rows weigh more (`trees.training_side`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import TreeEnsemble, check_integers
from .trees import Tree, TreeBuilder, training_side


@dataclass
class ForestConfig:
    n_trees: int = 500
    max_depth: int = 12
    min_samples_leaf: int = 5
    max_features: str | int = "sqrt"
    seed: int = 0

    def __post_init__(self):
        check_integers(self, "n_trees", "max_depth", "min_samples_leaf")
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be at least 1, not {self.n_trees}")
        if self.max_features != "sqrt" and not (isinstance(self.max_features, int) and self.max_features >= 1):
            raise ValueError(f"max_features must be 'sqrt' or an integer >= 1, not {self.max_features!r}")


def _gini_impurity(w1, w_total):
    # weighted two-class Gini: 1 - p0^2 - p1^2
    if w_total <= 0:
        return 0.0
    p1 = w1 / w_total
    return 2.0 * p1 * (1.0 - p1)


def _best_gini_split(X, y, w, rows, features, min_leaf):
    best = None
    yb = y[rows].astype(float)
    wb = w[rows]
    for f in features:
        col = X[rows, f]
        finite = ~np.isnan(col)
        if finite.sum() < 2 * min_leaf:
            continue
        vals = col[finite]
        yv = yb[finite]
        wv = wb[finite]
        order = np.argsort(vals, kind="stable")
        vals, yv, wv = vals[order], yv[order], wv[order]
        w1 = np.cumsum(wv * yv)
        wt = np.cumsum(wv)
        W = wt[-1]
        W1 = w1[-1]
        # split between distinct adjacent values; count-based min-leaf guard
        distinct = np.nonzero(np.diff(vals))[0]
        if distinct.size == 0:
            continue
        ok = (distinct + 1 >= min_leaf) & (len(vals) - distinct - 1 >= min_leaf)
        distinct = distinct[ok]
        if distinct.size == 0:
            continue
        wl, w1l = wt[distinct], w1[distinct]
        wr, w1r = W - wl, W1 - w1l
        # an empty-weight child has impurity 0, not 0/0
        pl1 = np.divide(w1l, wl, out=np.zeros_like(wl), where=wl > 0)
        pr1 = np.divide(w1r, wr, out=np.zeros_like(wr), where=wr > 0)
        child = wl * 2 * pl1 * (1 - pl1) + wr * 2 * pr1 * (1 - pr1)
        parent = W * _gini_impurity(W1, W)
        gains = parent - child
        jbest = int(np.argmax(gains))
        if gains[jbest] > 1e-12 and (best is None or gains[jbest] > best[2]):
            thr = (vals[distinct[jbest]] + vals[distinct[jbest] + 1]) / 2.0
            best = (f, float(thr), float(gains[jbest]))
    return best


def _grow_classification_tree(X, y, w, rows, config, rng):
    p = X.shape[1]
    if config.max_features == "sqrt":
        m = max(1, int(np.sqrt(p)))
    else:
        m = min(int(config.max_features), p)
    builder = TreeBuilder()

    def leaf_value(r):
        return float(np.average(y[r], weights=w[r]))

    def emit(r, depth):
        cover = w[r].sum()
        if (
            depth >= config.max_depth
            or len(r) < 2 * config.min_samples_leaf
            or np.unique(y[r]).size < 2
        ):
            return builder.add_leaf(leaf_value(r), cover)
        features = rng.choice(p, size=m, replace=False)
        split = _best_gini_split(X, y, w, r, features, config.min_samples_leaf)
        if split is None:
            return builder.add_leaf(leaf_value(r), cover)
        f, thr, _ = split
        col = X[r, f]
        go_left = training_side(col < thr, np.isnan(col), w[r])
        left_rows, right_rows = r[go_left], r[~go_left]
        if len(left_rows) == 0 or len(right_rows) == 0:
            return builder.add_leaf(leaf_value(r), cover)
        node = builder.add_internal(f, thr, cover)
        lc = emit(left_rows, depth + 1)
        rc = emit(right_rows, depth + 1)
        builder.set_children(node, lc, rc)
        return node

    emit(rows, 0)
    return builder.build()


def fit_random_forest(X, y, feature_names, config: ForestConfig | None = None, sample_weight=None) -> TreeEnsemble:
    """Bootstrap-bagged trees; leaves hold the weighted bad-class fraction.

    The ensemble averages leaf probabilities (learning_rate = 1/n_trees,
    base 0), so margin space for the forest is probability space.
    """
    config = config or ForestConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    rng = np.random.default_rng(config.seed)
    n = len(y)
    trees: list[Tree] = []
    for _ in range(config.n_trees):
        boot = rng.integers(0, n, size=n)
        counts = np.bincount(boot, minlength=n)
        wt = w * counts  # duplicates enter as weight, not repeated rows
        rows = np.nonzero(counts)[0]
        trees.append(_grow_classification_tree(X, y, wt, rows, config, rng))
    ensemble = TreeEnsemble(
        "random_forest", list(feature_names), 0.0, 1.0 / config.n_trees, trees
    )
    ensemble.meta = {"config": {"n_trees": config.n_trees, "max_depth": config.max_depth, "seed": config.seed}}
    return ensemble
