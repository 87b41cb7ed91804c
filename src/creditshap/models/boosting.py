"""Gradient boosting on the weighted cross-entropy loss, and the one tree grower.

Two tree shapes: plain depth-limited regression trees and oblivious
(symmetric) trees that reuse one (feature, threshold) pair per level.
Both grow level by level on one histogram split finder (`_level_gains`),
and so does the random forest, whose plain trees (`grow_tree` with a
per-node feature draw; a level searches only the features its nodes drew)
fit g = -w·y, h = w with no regularisation.
It takes the features a group at a time, in order of threshold count, and
scores every threshold of a group with one `bincount` pair, one `cumsum`
and one pass of the gain formula over (nodes × features × bins) arrays;
a node's totals are that `cumsum` read at the feature's last real bin.
`ensemble.CHUNK_ELEMENTS` bounds both a group's histograms and its (rows ×
features) keys, so the search builds no array as large as the matrix.
Every sum is taken in the order one feature's own histogram (rows, then
bins, in order) would take it, so the gains, and with them the splits, do
not depend on the grouping.  A plain tree gives each node its own best
split, an oblivious tree sums the gains over its nodes and takes one split
for the level, scoring only the nodes that hold rows (an empty node's
gains are exactly 0.0, and the sums are taken as if its zeros were there);
equal gains go to the lowest feature index.  Plain trees honour
`min_samples_leaf` (every leaf keeps at least that many training rows);
oblivious trees ignore it, as CatBoost's SymmetricTree growth does.  NaN
rows take the larger-cover side, as at prediction (`trees.training_side`),
so the growers return each training row's leaf.  Pseudo-residuals are
p - y in margin space; leaf values take one damped Newton step.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from ..settings import check_setting
from .ensemble import CHUNK_ELEMENTS, TreeEnsemble, sigmoid
from .trees import Tree, depth_first, training_side

PROB_CLIP = 1e-9  # cross-entropy diverges at 0/1
MAX_OBLIVIOUS_DEPTH = 16
DEFAULT_OBLIVIOUS_DEPTH = 6
DEFAULT_MAX_BINS = 64  # quantile thresholds per feature, for the boosters and the forest


@dataclass
class BoostConfig:
    n_rounds: int = 500
    learning_rate: float = 0.05
    max_depth: int = 3
    min_samples_leaf: int = 5  # plain trees only; oblivious trees ignore it
    reg_lambda: float = 1.0
    max_bins: int = DEFAULT_MAX_BINS
    patience: int = 20
    validation_fraction: float = 0.1
    seed: int = 0  # boosting draws nothing; fit_model holds out the validation rows with this seed

    def __post_init__(self):
        check_setting("n_rounds", self.n_rounds, numbers.Integral, least=1)
        check_setting("learning_rate", self.learning_rate, numbers.Real, above=0)
        check_setting("max_depth", self.max_depth, numbers.Integral, least=1)
        check_setting("min_samples_leaf", self.min_samples_leaf, numbers.Integral)
        check_setting("reg_lambda", self.reg_lambda, numbers.Real, above=0)
        check_setting("max_bins", self.max_bins, numbers.Integral, least=1)
        check_setting("patience", self.patience, numbers.Integral)
        check_setting("validation_fraction", self.validation_fraction, numbers.Real, least=0, most=0.5)


def clip_proba(p):
    return np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)


def cross_entropy(y, p):
    p = clip_proba(np.asarray(p, dtype=float))
    y = np.asarray(y, dtype=float)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def grad_hess(y, p, w):
    """Gradient and hessian of weighted cross-entropy wrt the margin."""
    p = clip_proba(p)
    g = w * (p - y)
    h = w * p * (1.0 - p)
    return g, h


def logit(p: float) -> float:
    p = min(max(p, PROB_CLIP), 1.0 - PROB_CLIP)
    return float(np.log(p / (1.0 - p)))


def sort_columns(X):
    """X's columns sorted, NaN last, and each column's count of finite values."""
    return np.sort(X, axis=0), len(X) - np.count_nonzero(np.isnan(X), axis=0)


def quantile_edges(S, finite, cols, n_bins) -> dict[int, np.ndarray]:
    """np.unique(np.quantile(v, inner levels)) of each column j in cols, v
    being its finite[j] > 0 finite values, from `sort_columns`: one
    `np.quantile` per finite count.  The one quantile rule, for the tree
    bins and `logistic.quantile_bin`."""
    levels = np.linspace(0, 1, n_bins + 1)[1:-1]
    edges = {}
    for m in np.unique(finite[cols]).tolist():
        group = cols[finite[cols] == m]
        for j, q in zip(group.tolist(), np.quantile(S[:m, group], levels, axis=0).T):
            edges[j] = np.unique(q)
    return edges


class BinnedMatrix:
    """Per-feature quantile thresholds and integer codes for histogram splits.

    Thresholds come from one sort of the columns: the midpoints between a
    feature's distinct finite values, or `quantile_edges` when it has more
    than max_bins + 1.  code = number of thresholds <= x, so the split
    "x < T[j]" keeps codes <= j on the left.  NaNs get the code n_thresholds
    + 1, a bin of their own that no split statistic reads.  `search_order`
    lists the splittable features by threshold count (stable), the order
    `_level_gains` groups them in.
    """

    def __init__(self, X: np.ndarray, max_bins: int = DEFAULT_MAX_BINS):
        X = np.asarray(X, dtype=float)
        self.n, self.p = X.shape
        S, finite = sort_columns(X)
        # a column's distinct finite values start where its sorted values change
        change = (S[1:] != S[:-1]) & (np.arange(self.n - 1)[:, None] < finite - 1)
        many = np.flatnonzero(change.sum(axis=0) > max_bins)  # more than max_bins + 1 distinct values
        quantiled = quantile_edges(S, finite, many, max_bins)
        midpoints = (S[1:] + S[:-1]) / 2.0  # between a run's last value and the next run's first
        self.thresholds: list[np.ndarray] = [quantiled.get(j, midpoints[change[:, j], j]) for j in range(self.p)]
        self.n_thresholds = np.asarray([len(t) for t in self.thresholds], dtype=np.int64)
        self.nan_code = self.n_thresholds + 1
        self.codes = np.empty((self.n, self.p), dtype=np.int32, order="F")  # a feature's codes are contiguous
        for j, t in enumerate(self.thresholds):
            self.codes[:, j] = np.searchsorted(t, X[:, j], side="right")
        np.copyto(self.codes, self.nan_code, where=np.isnan(X))
        splittable = np.flatnonzero(self.n_thresholds)
        self.search_order = splittable[np.argsort(self.n_thresholds[splittable], kind="stable")]


def _groups(binned, order, n_nodes, n_rows):
    """Runs of `order` (features in search order) whose histograms (nodes ×
    group × W, W = the group's largest threshold count + 2) and keys (rows ×
    group) both stay within CHUNK_ELEMENTS; a feature too large for it
    goes alone."""
    counts = binned.n_thresholds[order].tolist()
    start = 0
    while start < len(counts):
        stop = start + 1
        while stop < len(counts):
            size = stop + 1 - start
            if max(n_rows, n_nodes * (counts[stop] + 2)) * size > CHUNK_ELEMENTS:
                break
            stop += 1
        yield order[start:stop], counts[start:stop]
        start = stop


def _prefix_sums(hist, counts):
    """Each slot's running sums at its thresholds, and its total: the same
    `cumsum` read at its last real bin (slot s has counts[s] + 1)."""
    run = np.cumsum(hist[:, :, :-1], axis=2)
    return run[:, :, :-1], run[:, np.arange(len(counts)), counts][:, :, None]


def _den(H, reg):
    """H + reg, the denominator of a side's Newton term G² / (H + reg).  With
    reg = 0 (the forest) a side with no weight must score 0, not 0/0, so a
    non-positive denominator becomes inf; with reg > 0 a real side's is positive."""
    den = H + reg
    if reg <= 0:
        den[den <= 0] = np.inf
    return den


def _level_gains(binned, rows, node, n_nodes, g, h, reg, min_leaf, oblivious, features=None):
    """The one split finder: every feature's best (gain, threshold index) at one level.

    rows are the level's rows (None: all of them) and node[i] is the node of
    the i-th; g and h are indexed like the matrix.  A feature's gains are the
    (nodes × thresholds) Newton gains of splitting at each threshold, from
    histograms built a group of features at a time (`_groups`); NaN rows fill
    their own bin and are left out.  With min_leaf > 0 a split leaving fewer
    than min_leaf rows on a side gets -inf.  An oblivious level sums the
    gains over its occupied nodes and returns (features,) arrays; otherwise
    they are (nodes × features).  Unsplittable features get -inf, and so do
    the features left out of `features` (None: search them all).
    """
    shape = (binned.p,) if oblivious else (n_nodes, binned.p)
    best_gain, best_t = np.full(shape, -np.inf), np.zeros(shape, dtype=np.int64)
    codes = binned.codes.T  # (features × rows), C-contiguous
    if rows is not None:
        g, h = g[rows], h[rows]
    if oblivious:  # an empty node's gains are exactly 0.0: score only the nodes that hold rows
        occupied, node = np.unique(node, return_inverse=True)
        all_nodes, n_nodes = n_nodes, len(occupied)
    order = binned.search_order
    if features is not None:
        order = order[np.isin(order, features)]
    for feats, counts in _groups(binned, order, n_nodes, len(node)):
        k, W = len(feats), counts[-1] + 2
        key = codes[feats] if rows is None else codes[feats[:, None], rows]
        # slot-major, so each bin adds its rows in row order, as a per-feature bincount does
        key = (key + (np.arange(k) * W)[:, None] + node * (k * W)).ravel()
        size = n_nodes * k * W
        gh = np.bincount(key, weights=np.tile(g, k), minlength=size).reshape(n_nodes, k, W)
        hh = np.bincount(key, weights=np.tile(h, k), minlength=size).reshape(n_nodes, k, W)
        (gl, G), (hl, H) = _prefix_sums(gh, counts), _prefix_sums(hh, counts)
        with np.errstate(divide="ignore", invalid="ignore"):  # past a feature's thresholds the NaN bin joins in
            gains = gl**2 / _den(hl, reg) + (G - gl) ** 2 / _den(H - hl, reg) - G**2 / _den(H, reg)
        valid = np.arange(W - 2) < np.asarray(counts)[:, None]
        if min_leaf > 0:
            nl, N = _prefix_sums(np.bincount(key, minlength=size).reshape(n_nodes, k, W), counts)
            valid = valid & (nl >= min_leaf) & (N - nl >= min_leaf)
        gains = np.where(valid, gains, -np.inf)
        if oblivious:
            total = gains.sum(axis=0)  # node by node, as a (nodes × thresholds) sum over axis 0
            single = counts.count(1)  # a one-threshold feature's (nodes × 1) gains sum pairwise
            if single:  # padded with the empty nodes' zeros, so the pairwise sum groups as before
                padded = np.zeros((single, all_nodes))
                padded[:, occupied] = gains[:, :single, 0].T
                total[:single, 0] = padded.sum(axis=1)
            t = np.argmax(total, axis=1)
            best_gain[feats], best_t[feats] = total[np.arange(k), t], t
        else:
            t = np.argmax(gains, axis=2)
            best_gain[:, feats] = np.take_along_axis(gains, t[:, :, None], axis=2)[:, :, 0]
            best_t[:, feats] = t
    return best_gain, best_t


def grow_tree(binned, rows, g, h, w, config, features=None) -> tuple[Tree, np.ndarray]:
    """Depth-limited regression tree, grown level by level (each node takes
    its own best split) and handed to `trees.depth_first`, the one tree
    writer, in level order; rows' leaves.

    config gives max_depth, min_samples_leaf and reg_lambda (a BoostConfig,
    or the forest's settings with reg_lambda 0).  Nodes with fewer than
    2·min_samples_leaf rows stay leaves unsearched.  features, if given, is
    called once per searched node, in level order, with the node's rows and
    returns the features that node may split on; none keeps it a leaf.  A
    level's search covers the union of its nodes' features, and each node
    then takes its best among its own.
    """
    reg = config.reg_lambda
    node_rows = [rows]  # every node's rows (kept in the given order), by node id
    splits = {}  # node -> (feature, threshold index, left node, right node)
    level = [0] if binned.search_order.size else []
    for _ in range(config.max_depth):
        level = [k for k in level if len(node_rows[k]) >= 2 * config.min_samples_leaf]
        if features is not None:
            allowed = {k: features(node_rows[k]) for k in level}
            level = [k for k in level if len(allowed[k])]
        if not level:
            break
        n = len(level)
        sub = np.concatenate([node_rows[k] for k in level])
        node = np.repeat(np.arange(n), [len(node_rows[k]) for k in level])
        searched = None if features is None else np.concatenate([allowed[k] for k in level])
        gain, t = _level_gains(binned, sub, node, n, g, h, reg, config.min_samples_leaf, False, searched)
        if features is not None:
            drawn = np.zeros(gain.shape, dtype=bool)
            for i, k in enumerate(level):
                drawn[i, allowed[k]] = True
            gain = np.where(drawn, gain, -np.inf)
        best_j = np.argmax(gain, axis=1)  # the lowest-index feature among equal gains
        best_t = t[np.arange(n), best_j]
        best_j[~(gain[np.arange(n), best_j] > 1e-12)] = -1
        parents, level = level, []
        for k, j, t_idx in zip(parents, best_j, best_t):
            if j < 0:
                continue
            r = node_rows[k]
            c = binned.codes[r, j]
            go_left = training_side(c <= t_idx, c == binned.nan_code[j], w[r])
            if go_left.all() or not go_left.any():
                continue  # a split that moves no row stays a leaf
            left, right = len(node_rows), len(node_rows) + 1
            splits[k] = (j, t_idx, left, right)
            level += [left, right]
            node_rows += [r[go_left], r[~go_left]]

    feature, left, right = (np.full(len(node_rows), -1, dtype=np.int64) for _ in range(3))
    threshold, value = np.full(len(node_rows), np.nan), np.zeros(len(node_rows))
    leaf = np.empty(binned.n, dtype=np.int64)
    for k, r in enumerate(node_rows):
        if k in splits:
            j, t_idx, left[k], right[k] = splits[k]
            feature[k], threshold[k] = j, binned.thresholds[j][t_idx]
        else:
            value[k], leaf[r] = -g[r].sum() / (h[r].sum() + reg), k
    cover = np.array([w[r].sum() for r in node_rows])
    tree, at = depth_first(feature, threshold, left, right, value, cover)
    return tree, at[leaf[rows]]


def grow_oblivious_tree(binned, g, h, w, config: BoostConfig) -> tuple[Tree, np.ndarray]:
    """Symmetric tree: one (feature, threshold) per level, chosen by the Newton
    gain summed over all current leaves; every row's leaf.  min_samples_leaf is
    not applied (as CatBoost's SymmetricTree growth), so leaves may be empty.
    The complete tree goes to `trees.depth_first` in heap order."""
    leaf = np.zeros(binned.n, dtype=np.int64)  # the leaf code: bit b set when the row went right at level b
    feats, thresholds = [], []
    reg = config.reg_lambda
    for depth in range(config.max_depth if binned.search_order.size else 0):
        gain, t = _level_gains(binned, None, leaf, 1 << depth, g, h, reg, 0, oblivious=True)
        j = int(np.argmax(gain))  # the lowest-index feature among equal gains
        if not gain[j] > 1e-12:
            break
        c = binned.codes[:, j]
        go_left = training_side(c <= t[j], c == binned.nan_code[j], w, leaf)
        feats.append(j)
        thresholds.append(binned.thresholds[j][t[j]])
        leaf = leaf * 2 + ~go_left
    # heap order: node i's children are 2i + 1 and 2i + 2, and leaf code q is node 2^depth - 1 + q
    depth, n_leaves = len(feats), 1 << len(feats)
    level = np.repeat(np.arange(depth), 1 << np.arange(depth))  # each internal node's level
    inner, none = np.arange(n_leaves - 1), np.full(n_leaves, -1)
    gs, hs, ws = (np.bincount(leaf, weights=v, minlength=n_leaves) for v in (g, h, w))
    tree, at = depth_first(
        np.concatenate([np.asarray(feats, dtype=np.int64)[level], none]),
        np.concatenate([np.asarray(thresholds)[level], np.full(n_leaves, np.nan)]),
        np.concatenate([2 * inner + 1, none]),
        np.concatenate([2 * inner + 2, none]),
        np.concatenate([np.zeros(n_leaves - 1), -gs / (hs + reg)]),
        np.concatenate([ws.reshape(1 << d, -1).sum(axis=1) for d in range(depth)] + [ws]),
        oblivious=True,
    )
    return tree, at[n_leaves - 1 + leaf]


def _fit_boosted(X, y, w, feature_names, config: BoostConfig, oblivious: bool, validation) -> TreeEnsemble:
    """Boost on (X, y, w), stopping early on validation = (X_val, y_val), if given.
    The prior counts each validation row with weight 1: with unit weights its
    sums are integers, so it is exact in any order."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=float)
    kind = "oblivious_boosting" if oblivious else "gradient_boosting"
    if oblivious and config.max_depth > MAX_OBLIVIOUS_DEPTH:
        raise ValueError(f"oblivious depth {config.max_depth} > {MAX_OBLIVIOUS_DEPTH}")
    Xv, yv = (None, np.empty(0, dtype=int)) if validation is None else (np.asarray(v) for v in validation)
    prior = float(np.average(np.concatenate([y, yv]), weights=np.concatenate([w, np.ones(len(yv))])))
    base = logit(prior)
    ensemble = TreeEnsemble(kind, list(feature_names), base, config.learning_rate)
    ensemble.meta = {"config": asdict(config)}
    if np.unique(y).size < 2:
        return ensemble
    binned = BinnedMatrix(X, config.max_bins)
    margins = np.full(len(y), base)
    if validation is not None:
        val_margins = np.full(len(yv), base)
        best_loss = np.inf
        best_round = 0
        stall = 0
    rows = np.arange(len(y))
    for _ in range(config.n_rounds):
        g, h = grad_hess(y, sigmoid(margins), w)
        tree, leaf = grow_oblivious_tree(binned, g, h, w, config) if oblivious else grow_tree(binned, rows, g, h, w, config)
        if tree.n_nodes == 1:
            break
        margins += config.learning_rate * tree.value[leaf]
        ensemble.trees.append(tree)
        if validation is not None:
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
    if validation is not None and ensemble.trees:
        ensemble.trees = ensemble.trees[:best_round]
    ensemble.meta["n_trees"] = len(ensemble.trees)
    return ensemble


def fit_gradient_boosting(
    X, y, feature_names, config: BoostConfig | None = None, sample_weight=None, validation=None
) -> TreeEnsemble:
    config = config or BoostConfig()
    return _fit_boosted(X, y, sample_weight, feature_names, config, False, validation)


def fit_oblivious_boosting(
    X, y, feature_names, config: BoostConfig | None = None, sample_weight=None, validation=None
) -> TreeEnsemble:
    if config is None:
        config = BoostConfig(max_depth=DEFAULT_OBLIVIOUS_DEPTH)
    return _fit_boosted(X, y, sample_weight, feature_names, config, True, validation)
