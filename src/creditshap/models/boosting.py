"""Gradient boosting on the weighted cross-entropy loss.

Two tree shapes: plain depth-limited regression trees and oblivious
(symmetric) trees that reuse one (feature, threshold) pair per level.
Both grow level by level on one histogram split finder (`_level_gains`):
a plain tree gives each node its own best split, an oblivious tree sums
the gains over its nodes and takes one split for the level.  Plain trees
honour `min_samples_leaf` (every leaf keeps at least that many training
rows); oblivious trees ignore it, as CatBoost's SymmetricTree growth does.
Pseudo-residuals are p - y in margin space; leaf values take one damped
Newton step.  Optional ordered mode approximates per-individual gradients
with permutation-prefix models over a fixed number of blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics import train_test_split
from .ensemble import TreeEnsemble, check_integers, sigmoid
from .trees import Tree, TreeBuilder, oblivious_tree_from_levels

PROB_CLIP = 1e-9  # cross-entropy diverges at 0/1
MAX_OBLIVIOUS_DEPTH = 16
DEFAULT_OBLIVIOUS_DEPTH = 6


@dataclass
class BoostConfig:
    n_rounds: int = 500
    learning_rate: float = 0.05
    max_depth: int = 3
    min_samples_leaf: int = 5  # plain trees only; oblivious trees ignore it
    reg_lambda: float = 1.0
    max_bins: int = 64
    patience: int = 20
    validation_fraction: float = 0.1
    seed: int = 0
    ordered: bool = False
    ordered_blocks: int = 8

    def __post_init__(self):
        check_integers(self, "n_rounds", "max_depth", "max_bins", "min_samples_leaf", "ordered_blocks")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.reg_lambda <= 0:
            raise ValueError("reg_lambda must be positive")
        if not 0.0 <= self.validation_fraction <= 0.5:
            raise ValueError("validation fraction must lie in [0, 0.5]")


def clip_proba(p):
    return np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)


def cross_entropy(y, p, w=None):
    p = clip_proba(np.asarray(p, dtype=float))
    y = np.asarray(y, dtype=float)
    if w is None:
        w = np.ones_like(y)
    return float(-np.sum(w * (y * np.log(p) + (1 - y) * np.log(1 - p))) / np.sum(w))


def grad_hess(y, p, w):
    """Gradient and hessian of weighted cross-entropy wrt the margin."""
    p = clip_proba(p)
    g = w * (p - y)
    h = w * p * (1.0 - p)
    return g, h


def logit(p: float) -> float:
    p = min(max(p, PROB_CLIP), 1.0 - PROB_CLIP)
    return float(np.log(p / (1.0 - p)))


class BinnedMatrix:
    """Per-feature quantile thresholds and integer codes for histogram splits.

    code = number of thresholds <= x, so the split "x < T[j]" keeps codes
    <= j on the left.  NaNs get the sentinel code n_thresholds + 1 and are
    excluded from split statistics.
    """

    def __init__(self, X: np.ndarray, max_bins: int = 64):
        X = np.asarray(X, dtype=float)
        self.n, self.p = X.shape
        self.thresholds: list[np.ndarray] = []
        codes = np.empty((self.n, self.p), dtype=np.int32)
        for j in range(self.p):
            col = X[:, j]
            finite = col[~np.isnan(col)]
            uniq = np.unique(finite)
            if uniq.size > 1:
                if uniq.size - 1 <= max_bins:
                    t = (uniq[1:] + uniq[:-1]) / 2.0
                else:
                    qs = np.quantile(finite, np.linspace(0, 1, max_bins + 1)[1:-1])
                    t = np.unique(qs)
            else:
                t = np.empty(0)
            self.thresholds.append(t)
            c = np.searchsorted(t, col, side="right")
            c[np.isnan(col)] = len(t) + 1
            codes[:, j] = c
        self.codes = codes
        self.nan_code = np.asarray([len(t) + 1 for t in self.thresholds])


def _level_gains(binned, codes, node, n_nodes, g, h, reg, min_leaf):
    """The one split finder: yield (feature, gains) for every splittable feature.

    codes, g and h hold one level's rows and node[i] is row i's node; gains
    is the (n_nodes × thresholds) Newton gain of splitting each node at each
    threshold, from one bincount pair per feature.  NaN rows are left out.
    With min_leaf > 0, a split leaving fewer than min_leaf rows on a side
    gets -inf.
    """
    for j, t in enumerate(binned.thresholds):
        if len(t) == 0:
            continue
        c = codes[:, j]
        valid = c <= len(t)  # excludes the NaN sentinel
        nb = len(t) + 1
        key = node[valid] * nb + c[valid]
        size = n_nodes * nb
        gh = np.bincount(key, weights=g[valid], minlength=size).reshape(n_nodes, nb)
        hh = np.bincount(key, weights=h[valid], minlength=size).reshape(n_nodes, nb)
        G = gh.sum(axis=1, keepdims=True)
        H = hh.sum(axis=1, keepdims=True)
        gl = np.cumsum(gh, axis=1)[:, :-1]
        hl = np.cumsum(hh, axis=1)[:, :-1]
        gains = gl**2 / (hl + reg) + (G - gl) ** 2 / (H - hl + reg) - G**2 / (H + reg)
        if min_leaf > 0:
            ch = np.bincount(key, minlength=size).reshape(n_nodes, nb)
            nl = np.cumsum(ch, axis=1)[:, :-1]
            N = ch.sum(axis=1, keepdims=True)
            gains = np.where((nl >= min_leaf) & (N - nl >= min_leaf), gains, -np.inf)
        yield j, gains


def _go_left(c, t_idx, nan_code, h):
    """Rows with code <= t_idx go left; NaN rows join the side with the larger hessian sum."""
    go_left = c <= t_idx
    nan = c == nan_code
    if nan.any():
        go_left = np.where(nan, h[go_left & ~nan].sum() >= h[~go_left & ~nan].sum(), go_left)
    return go_left


def grow_tree(binned, rows, g, h, w, config: BoostConfig) -> Tree:
    """Depth-limited regression tree, grown level by level (each node takes
    its own best split) and written in depth-first node order."""
    reg = config.reg_lambda
    node_rows = [rows]  # every node's rows (kept in the given order), by node id
    splits = {}  # node -> (feature, threshold index, left node, right node)
    level = [0]
    for _ in range(config.max_depth):
        if not level:
            break
        n = len(level)
        sub = np.concatenate([node_rows[k] for k in level])
        node = np.repeat(np.arange(n), [len(node_rows[k]) for k in level])
        best_gain, best_j, best_t = np.full(n, 1e-12), np.full(n, -1), np.zeros(n, dtype=np.int64)
        for j, gains in _level_gains(binned, binned.codes[sub], node, n, g[sub], h[sub], reg, config.min_samples_leaf):
            t = np.argmax(gains, axis=1)
            gain = gains[np.arange(n), t]
            better = gain > best_gain
            best_gain[better], best_j[better], best_t[better] = gain[better], j, t[better]
        parents, level = level, []
        for k, j, t_idx in zip(parents, best_j, best_t):
            if j < 0:
                continue
            r = node_rows[k]
            go_left = _go_left(binned.codes[r, j], t_idx, binned.nan_code[j], h[r])
            if go_left.all() or not go_left.any():
                continue  # a split that moves no row stays a leaf
            left, right = len(node_rows), len(node_rows) + 1
            splits[k] = (j, t_idx, left, right)
            level += [left, right]
            node_rows += [r[go_left], r[~go_left]]

    builder = TreeBuilder()

    def emit(k):
        r = node_rows[k]
        if k not in splits:
            return builder.add_leaf(-g[r].sum() / (h[r].sum() + reg), w[r].sum())
        j, t_idx, left, right = splits[k]
        node = builder.add_internal(j, binned.thresholds[j][t_idx], w[r].sum())
        builder.set_children(node, emit(left), emit(right))
        return node

    emit(0)
    return builder.build()


def grow_oblivious_tree(binned, g, h, w, config: BoostConfig) -> Tree:
    """Symmetric tree: one (feature, threshold) per level, chosen by the
    Newton gain summed over all current leaves.  min_samples_leaf is not
    applied (as CatBoost's SymmetricTree growth), so leaves may be empty."""
    leaf = np.zeros(binned.n, dtype=np.int64)
    levels: list[tuple[int, float]] = []
    reg = config.reg_lambda
    for depth in range(config.max_depth):
        best = None
        for j, gains in _level_gains(binned, binned.codes, leaf, 1 << depth, g, h, reg, 0):
            gains = gains.sum(axis=0)
            t_idx = int(np.argmax(gains))
            if gains[t_idx] > 1e-12 and (best is None or gains[t_idx] > best[2]):
                best = (j, t_idx, gains[t_idx])
        if best is None:
            break
        j, t_idx, _ = best
        go_left = _go_left(binned.codes[:, j], t_idx, binned.nan_code[j], h)
        levels.append((j, float(binned.thresholds[j][t_idx])))
        leaf = leaf * 2 + ~go_left
    n_leaves = 1 << len(levels)
    gs = np.bincount(leaf, weights=g, minlength=n_leaves)
    hs = np.bincount(leaf, weights=h, minlength=n_leaves)
    ws = np.bincount(leaf, weights=w, minlength=n_leaves)
    return oblivious_tree_from_levels(levels, -gs / (hs + reg), ws)


def _split_validation(n, y, config, rng_seed):
    if config.validation_fraction <= 0 or n < 20:
        return np.arange(n), np.empty(0, dtype=int)
    counts = np.bincount(y, minlength=2)
    if counts.min() < 2:
        return np.arange(n), np.empty(0, dtype=int)
    train_idx, val_idx = train_test_split(
        np.zeros((n, 1)), y, train_fraction=1.0 - config.validation_fraction, seed=rng_seed
    )
    return train_idx, val_idx


def _fit_boosted(X, y, w, feature_names, config: BoostConfig, oblivious: bool) -> TreeEnsemble:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=float)
    kind = "oblivious_boosting" if oblivious else "gradient_boosting"
    if oblivious and config.max_depth > MAX_OBLIVIOUS_DEPTH:
        raise ValueError(f"oblivious depth {config.max_depth} > {MAX_OBLIVIOUS_DEPTH}")
    prior = float(np.average(y, weights=w))
    base = logit(prior)
    ensemble = TreeEnsemble(kind, list(feature_names), base, config.learning_rate)
    ensemble.meta = {
        "config": {
            "n_rounds": config.n_rounds,
            "learning_rate": config.learning_rate,
            "max_depth": config.max_depth,
            "min_samples_leaf": config.min_samples_leaf,
            "reg_lambda": config.reg_lambda,
            "patience": config.patience,
            "validation_fraction": config.validation_fraction,
            "seed": config.seed,
            "ordered": config.ordered,
        }
    }
    if np.unique(y).size < 2:
        return ensemble
    train_idx, val_idx = _split_validation(len(y), y, config, config.seed)
    Xt, yt, wt = X[train_idx], y[train_idx], w[train_idx]
    binned = BinnedMatrix(Xt, config.max_bins)
    margins = np.full(len(yt), base)
    has_val = val_idx.size > 0
    if has_val:
        Xv, yv = X[val_idx], y[val_idx]
        val_margins = np.full(len(yv), base)
        best_loss = np.inf
        best_round = 0
        stall = 0
    if config.ordered:
        perm_rng = np.random.default_rng(config.seed)
        perm = perm_rng.permutation(len(yt))
        block_of = np.empty(len(yt), dtype=int)
        for b in range(config.ordered_blocks):
            block = perm[b * len(yt) // config.ordered_blocks : (b + 1) * len(yt) // config.ordered_blocks]
            block_of[block] = b
        prefix_margins = np.tile(margins, (config.ordered_blocks, 1))
    rows = np.arange(len(yt))
    for rnd in range(config.n_rounds):
        if config.ordered:
            own = prefix_margins[block_of, rows]
            g, h = grad_hess(yt, sigmoid(own), wt)
        else:
            g, h = grad_hess(yt, sigmoid(margins), wt)
        tree = grow_oblivious_tree(binned, g, h, wt, config) if oblivious else grow_tree(binned, rows, g, h, wt, config)
        if tree.n_nodes == 1:
            break
        update = tree.predict(Xt)
        if config.ordered:
            # each block's prefix model only absorbs leaf values refit on
            # earlier blocks; the stored tree keeps the all-sample values
            for b in range(config.ordered_blocks):
                prefix = block_of < b
                if not prefix.any():
                    prefix_margins[b] += config.learning_rate * update
                    continue
                scale = _prefix_leaf_scale(tree, Xt, g, h, prefix, config.reg_lambda)
                prefix_margins[b] += config.learning_rate * scale
        margins += config.learning_rate * update
        ensemble.trees.append(tree)
        if has_val:
            val_margins += config.learning_rate * tree.predict(Xv)
            loss = cross_entropy(yv, sigmoid(val_margins))
            if loss < best_loss - 1e-12:
                best_loss = loss
                best_round = len(ensemble.trees)
                stall = 0
            else:
                stall += 1
                if stall >= config.patience:
                    break
    if has_val and ensemble.trees:
        ensemble.trees = ensemble.trees[:best_round]
    ensemble.meta["n_trees"] = len(ensemble.trees)
    return ensemble


def _prefix_leaf_scale(tree, X, g, h, prefix_mask, reg):
    """Per-sample update using leaf values refit on the prefix rows only."""
    leaf_of = tree.apply(X)
    values = np.zeros(tree.n_nodes)
    for leaf in np.unique(leaf_of):
        in_leaf = (leaf_of == leaf) & prefix_mask
        if in_leaf.any():
            values[leaf] = -g[in_leaf].sum() / (h[in_leaf].sum() + reg)
        else:
            values[leaf] = tree.value[leaf]
    return values[leaf_of]


def fit_gradient_boosting(X, y, feature_names, config: BoostConfig | None = None, sample_weight=None) -> TreeEnsemble:
    config = config or BoostConfig()
    return _fit_boosted(X, y, sample_weight, feature_names, config, oblivious=False)


def fit_oblivious_boosting(X, y, feature_names, config: BoostConfig | None = None, sample_weight=None) -> TreeEnsemble:
    if config is None:
        config = BoostConfig(max_depth=DEFAULT_OBLIVIOUS_DEPTH)
    return _fit_boosted(X, y, sample_weight, feature_names, config, oblivious=True)
