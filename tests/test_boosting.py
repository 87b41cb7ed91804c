import json
import tracemalloc
import warnings
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from creditshap import pipeline
from creditshap.metrics import validation_split
from creditshap.models import ModelSpec, boosting, ensemble
from creditshap.models.boosting import (
    BinnedMatrix,
    BoostConfig,
    cross_entropy,
    fit_gradient_boosting,
    fit_oblivious_boosting,
    grad_hess,
    grow_oblivious_tree,
    grow_tree,
    logit,
)
from creditshap.models.ensemble import TreeEnsemble, classify, sigmoid
from creditshap.models.forest import ForestConfig, fit_random_forest
from creditshap.models.logistic import quantile_bin
from creditshap.models.trees import Tree, _node_depths, depth_first, stack


def per_column_bins(X, max_bins):
    """Reference for BinnedMatrix: each column's thresholds (midpoints of its
    distinct finite values, or the distinct inner quantiles when it has more
    than max_bins + 1 of them) and codes, one column at a time."""
    thresholds, codes = [], np.empty(X.shape, dtype=np.int32)
    for j in range(X.shape[1]):
        col = X[:, j]
        finite = col[~np.isnan(col)]
        uniq = np.unique(finite)
        if uniq.size > 1:
            if uniq.size - 1 <= max_bins:
                t = (uniq[1:] + uniq[:-1]) / 2.0
            else:
                t = np.unique(np.quantile(finite, np.linspace(0, 1, max_bins + 1)[1:-1]))
        else:
            t = np.empty(0)
        thresholds.append(t)
        c = np.searchsorted(t, col, side="right")
        c[np.isnan(col)] = len(t) + 1
        codes[:, j] = c
    return thresholds, codes


def per_column_quantile_edges(X, n_bins):
    """Reference for logistic.quantile_bin's edges, one column at a time."""
    edges = []
    for j in range(X.shape[1]):
        finite = X[~np.isnan(X[:, j]), j]
        qs = np.quantile(finite, np.linspace(0, 1, n_bins + 1)[1:-1]) if finite.size else np.empty(0)
        edges.append(np.unique(qs))
    return edges


def binning_matrix(seed, n=300):
    """Columns for the binning oracles: with no NaN, a NaN share of 0.3 and
    all NaN; continuous, with more than 64, between 8 and 64 and under 8
    distinct values, exactly max_bins + 1 or + 2 of them for max_bins 8 and
    64, constant, and one finite value; finite counts that differ from
    column to column and a group of columns that share one."""
    rng = np.random.default_rng(seed)
    full = np.column_stack([
        rng.normal(size=n), rng.exponential(size=n) * 1e3,
        rng.integers(0, 200, n), rng.integers(0, 40, n), rng.integers(0, 5, n), np.full(n, 2.5),
        *(rng.permutation(np.arange(n) % k) for k in (9, 10, 65, 66)),
    ])
    holed = full.copy()
    holed[rng.random(full.shape) < 0.3] = np.nan
    shared = full[:, :4].copy()
    shared[rng.random(n) < 0.3] = np.nan
    single = np.full((n, 2), np.nan)
    single[7, 0] = 1.0
    return np.column_stack([full, holed, shared, single])


def naive_leaf(tree, x):
    """Reference traversal: x < threshold goes left; NaN follows larger cover."""
    node = 0
    while tree.feature[node] >= 0:
        f = tree.feature[node]
        lch, rch = tree.left[node], tree.right[node]
        if np.isnan(x[f]):
            node = lch if tree.cover[lch] >= tree.cover[rch] else rch
        elif x[f] < tree.threshold[node]:
            node = lch
        else:
            node = rch
    return node


def tree_from_nodes(nodes, oblivious=False):
    """A Tree from [feature, threshold, left, right, value, cover] lists, one per node, in node order."""
    f, t, l, r, v, c = zip(*nodes)
    return Tree(
        np.array(f, dtype=np.int64), np.array(t, dtype=float), np.array(l, dtype=np.int64),
        np.array(r, dtype=np.int64), np.array(v, dtype=float), np.array(c, dtype=float), oblivious,
    )


def per_node_tree(binned, rows, g, h, w, config):
    """Reference for grow_tree: a recursive search that splits one node at a
    time with its own histograms, in the same arithmetic and row order; nodes
    are written as the recursion visits them."""
    nodes = []
    reg, min_leaf = config.reg_lambda, config.min_samples_leaf

    def best_split(r):
        best = None
        for j, t in enumerate(binned.thresholds):
            if len(t) == 0:
                continue
            gains = node_gains(binned.codes[r, j], len(t), g[r], h[r], reg, min_leaf)
            t_idx = int(np.argmax(gains))
            if gains[t_idx] > max(1e-12, best[2] if best else 0.0):
                best = (j, t_idx, gains[t_idx])
        return best

    def emit(r, depth):
        node = len(nodes)
        nodes.append([-1, np.nan, -1, -1, 0.0, w[r].sum()])
        split = best_split(r) if depth < config.max_depth else None
        if split is None:
            nodes[node][4] = -g[r].sum() / (h[r].sum() + reg)
            return node
        j, t_idx, _ = split
        c = binned.codes[r, j]
        nan = c == binned.nan_code[j]
        left = c <= t_idx
        if nan.any():  # NaN joins the side whose known rows weigh more, ties left
            left = np.where(nan, w[r][left & ~nan].sum() >= w[r][~left & ~nan].sum(), left)
        nodes[node][:2] = j, binned.thresholds[j][t_idx]
        nodes[node][2] = emit(r[left], depth + 1)
        nodes[node][3] = emit(r[~left], depth + 1)
        return node

    emit(rows, 0)
    return tree_from_nodes(nodes)


def running_total(v):
    """A histogram's total as the grower takes it: the last of its running sums."""
    return np.cumsum(v)[-1]


def node_gains(c, n_thresholds, g, h, reg, min_leaf=0, total=running_total):
    """One node's Newton gain at each threshold, from its own histogram; NaN
    codes are left out.  total sums a histogram (np.sum: the pairwise order)."""
    valid = c <= n_thresholds
    gh, hh, ch = (np.bincount(c[valid], weights=v, minlength=n_thresholds + 1) for v in (g[valid], h[valid], None))
    G, H, N = total(gh), total(hh), total(ch)
    gl, hl, nl = np.cumsum(gh)[:-1], np.cumsum(hh)[:-1], np.cumsum(ch)[:-1]
    gains = gl**2 / (hl + reg) + (G - gl) ** 2 / (H - hl + reg) - G**2 / (H + reg)
    gains[(nl < min_leaf) | (N - nl < min_leaf)] = -np.inf
    return gains


def oblivious_level(binned, leaf, n_nodes, g, h, reg, total=running_total):
    """Each splittable feature's gains at one oblivious level, summed over
    its nodes (one histogram each), and the first strictly best (feature,
    threshold index), None when no gain exceeds 1e-12."""
    gains, best = {}, None
    for j, t in enumerate(binned.thresholds):
        if len(t) == 0:
            continue
        c = binned.codes[:, j]
        per_node = [node_gains(c[leaf == k], len(t), g[leaf == k], h[leaf == k], reg, total=total) for k in range(n_nodes)]
        gains[j] = np.sum(per_node, axis=0)
        t_idx = int(np.argmax(gains[j]))
        if gains[j][t_idx] > max(1e-12, gains[best[0]][best[1]] if best else 0.0):
            best = (j, t_idx)
    return gains, best


def oblivious_step(binned, leaf, n_nodes, j, t_idx, w):
    """Leaf codes after splitting every node at (j, t_idx): node by node, NaN
    joins the side whose known rows weigh more, ties left."""
    c = binned.codes[:, j]
    nan = c == binned.nan_code[j]
    left = c <= t_idx
    for k in range(n_nodes):
        at = leaf == k
        left[at & nan] = w[at & left & ~nan].sum() >= w[at & ~left & ~nan].sum()
    return leaf * 2 + ~left


def per_level_oblivious_tree(binned, g, h, w, config):
    """Reference for grow_oblivious_tree: each level tries one feature at a
    time with one histogram per node, sums the nodes' gains and keeps the
    first strictly better split; the tree is written by a recursive walk."""
    reg = config.reg_lambda
    leaf = np.zeros(binned.n, dtype=np.int64)
    levels = []
    for depth in range(config.max_depth):
        _, best = oblivious_level(binned, leaf, 1 << depth, g, h, reg)
        if best is None:
            break
        j, t_idx = best
        levels.append((j, float(binned.thresholds[j][t_idx])))
        leaf = oblivious_step(binned, leaf, 1 << depth, j, t_idx, w)
    gs, hs, ws = (np.bincount(leaf, weights=v, minlength=1 << len(levels)) for v in (g, h, w))
    return symmetric_tree(levels, -gs / (hs + reg), ws)


def symmetric_tree(levels, leaf_values, leaf_covers):
    """An oblivious tree from its (feature, threshold) per level and 2^depth
    leaves in code order, written node by node as a recursive walk visits them."""
    nodes = []

    def emit(prefix, level):
        node = len(nodes)
        if level == len(levels):
            nodes.append([-1, np.nan, -1, -1, leaf_values[prefix], leaf_covers[prefix]])
            return node
        span = 1 << (len(levels) - level)
        nodes.append([*levels[level], -1, -1, 0.0, np.sum(leaf_covers[prefix * span : (prefix + 1) * span])])
        nodes[node][2] = emit(2 * prefix, level + 1)
        nodes[node][3] = emit(2 * prefix + 1, level + 1)
        return node

    emit(0, 0)
    return tree_from_nodes(nodes, oblivious=True)


def dataset(seed=0, n=300, p=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    eta = X[:, 0] - 0.8 * X[:, 1] + 0.6 * X[:, 0] * X[:, p - 1]
    y = (rng.random(n) < sigmoid(eta)).astype(int)
    return X, y


class TestLossPieces:
    def test_grad_hess_hand_values(self):
        g, h = grad_hess(np.array([1.0, 0.0]), np.array([0.25, 0.25]), np.array([1.0, 2.0]))
        assert g.tolist() == [-0.75, 0.5]
        assert h.tolist() == [0.1875, 0.375]

    def test_cross_entropy_matches_formula(self):
        y = np.array([1, 0, 1])
        p = np.array([0.9, 0.2, 0.6])
        expect = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert cross_entropy(y, p) == pytest.approx(expect, abs=1e-12)

    def test_clip_keeps_loss_finite(self):
        assert np.isfinite(cross_entropy([1, 0], [0.0, 1.0]))

    def test_logit_inverts_sigmoid(self):
        for p in (0.1, 0.5, 0.89):
            assert sigmoid(logit(p)) == pytest.approx(p, abs=1e-12)

    def test_sigmoid_saturates_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigmoid(np.array([-1000.0, 0.0, 1000.0])).tolist() == [0.0, 0.5, 1.0]


class TestBoostConfig:
    @pytest.mark.parametrize("name, kind", [
        ("n_rounds", "an integer >= 1"), ("max_depth", "an integer >= 1"), ("max_bins", "an integer >= 1"),
        ("min_samples_leaf", "an integer"), ("patience", "an integer"),
        ("learning_rate", "a number > 0"), ("reg_lambda", "a number > 0"), ("validation_fraction", "a number >= 0 and <= 0.5"),
    ])
    def test_a_bool_fails_every_count_and_number(self, name, kind):
        with pytest.raises(ValueError, match=f"^{name} must be {kind}, not True$"):
            BoostConfig(**{name: True})

    @pytest.mark.parametrize("name", ["ordered", "ordered_blocks"])
    def test_ordered_keys_are_unknown_to_both_boosters(self, name):
        with pytest.raises(TypeError, match=name):
            BoostConfig(**{name: True})
        for family in ("gradient_boosting", "oblivious_boosting"):
            with pytest.raises(ValueError, match=rf"^unknown {family} parameter\(s\) {name}; accepted: "):
                ModelSpec(family, {name: True})


class TestFittedConfigRecord:
    @pytest.mark.parametrize("fit, config", [
        (fit_gradient_boosting, BoostConfig(n_rounds=3, min_samples_leaf=7, max_bins=16, seed=4)),
        (fit_oblivious_boosting, BoostConfig(n_rounds=3, max_depth=4, max_bins=8, patience=2, seed=4)),
        (fit_random_forest, ForestConfig(n_trees=3, max_depth=5, min_samples_leaf=7, max_features=2, seed=4)),
    ])
    def test_model_json_records_every_config_field(self, fit, config):
        X, y = dataset(8, n=120)
        model = fit(X, y, [f"f{j}" for j in range(X.shape[1])], config)
        assert model.meta["config"] == asdict(config)
        assert TreeEnsemble.from_dict(json.loads(json.dumps(model.to_dict()))).meta["config"] == asdict(config)


class TestBinnedMatrix:
    def test_codes_reproduce_threshold_comparisons(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3))
        binned = BinnedMatrix(X, max_bins=8)
        for j in range(3):
            t = binned.thresholds[j]
            for t_idx in range(len(t)):
                # searchsorted(side="right") semantics: code <= t_idx <=> x <= t[t_idx]
                left = binned.codes[:, j] <= t_idx
                assert np.array_equal(left, X[:, j] <= t[t_idx])

    def test_nan_sentinel(self):
        X = np.array([[1.0], [2.0], [np.nan]])
        binned = BinnedMatrix(X)
        assert binned.codes[2, 0] == len(binned.thresholds[0]) + 1

    @pytest.mark.parametrize("max_bins", [8, 64])
    def test_matches_the_per_column_loop(self, max_bins):
        for seed in range(3):
            X = binning_matrix(seed)
            binned = BinnedMatrix(X, max_bins)
            thresholds, codes = per_column_bins(X, max_bins)
            assert len(binned.thresholds) == len(thresholds)
            for ours, ref in zip(binned.thresholds, thresholds):
                assert np.array_equal(ours, ref)
            assert np.array_equal(binned.codes, codes)
            assert binned.codes.flags.f_contiguous

    @pytest.mark.parametrize("n_bins", [8, 10, 64])
    def test_quantile_bin_matches_the_per_column_loop(self, n_bins):
        for seed in range(3):
            X = binning_matrix(seed)
            edges = quantile_bin(X, n_bins).edges
            assert len(edges) == X.shape[1]
            for ours, ref in zip(edges, per_column_quantile_edges(X, n_bins)):
                assert np.array_equal(ours, ref)


class TestGradientBoosting:
    def test_constant_target_yields_no_trees(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        model = fit_gradient_boosting(X, np.ones(30, dtype=int), ["a", "b"])
        assert model.trees == []
        assert model.predict_proba(X)[0] == pytest.approx(1.0, abs=1e-6)

    def test_training_loss_decreases_each_round(self):
        X, y = dataset()
        cfg = BoostConfig(n_rounds=30, validation_fraction=0.0, learning_rate=0.3)
        model = fit_gradient_boosting(X, y, [f"f{i}" for i in range(4)], cfg)
        margins = np.full(len(y), model.base_score)
        losses = [cross_entropy(y, sigmoid(margins))]
        for tree in model.trees:
            margins += model.learning_rate * tree.predict(X)
            losses.append(cross_entropy(y, sigmoid(margins)))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_first_stump_leaves_are_newton_steps(self):
        X, y = dataset(2, n=120, p=2)
        cfg = BoostConfig(n_rounds=1, max_depth=1, min_samples_leaf=1, validation_fraction=0.0)
        model = fit_gradient_boosting(X, y, ["a", "b"], cfg)
        (tree,) = model.trees
        p0 = sigmoid(model.base_score)
        g = p0 - y  # unit weights: residual is p0 - y exactly
        h = np.full(len(y), p0 * (1 - p0))
        f, t = tree.feature[0], tree.threshold[0]
        left = X[:, f] < t
        lval = -g[left].sum() / (h[left].sum() + cfg.reg_lambda)
        rval = -g[~left].sum() / (h[~left].sum() + cfg.reg_lambda)
        assert tree.value[tree.left[0]] == pytest.approx(lval, abs=1e-12)
        assert tree.value[tree.right[0]] == pytest.approx(rval, abs=1e-12)

    def test_predict_matches_naive_traversal(self):
        X, y = dataset(3)
        cfg = BoostConfig(n_rounds=10, validation_fraction=0.0)
        model = fit_gradient_boosting(X, y, [f"f{i}" for i in range(4)], cfg)
        X_test = X[:20].copy()
        X_test[::3, 1] = np.nan
        forest, roots = stack(model.trees)
        stacked = forest.apply(X_test, roots) - roots  # every tree at once, in each tree's own indices
        for t, tree in enumerate(model.trees):
            leaves = np.array([naive_leaf(tree, row) for row in X_test])
            assert np.array_equal(tree.apply(X_test), leaves)
            assert np.array_equal(stacked[:, t], leaves)
            assert np.array_equal(tree.predict(X_test), tree.value[leaves])

    def test_early_stopping_trims_rounds(self):
        X, y = dataset(4, n=200)
        fit, held = validation_split(y, 0.2, seed=1)
        cfg = BoostConfig(n_rounds=400, learning_rate=0.5, patience=5, seed=1)
        names = [f"f{i}" for i in range(4)]
        model = fit_gradient_boosting(X[fit], y[fit], names, cfg, validation=(X[held], y[held]))
        assert 0 < len(model.trees) < 400
        assert model.meta["n_trees"] == len(model.trees)
        # the kept rounds are those of the lowest validation loss
        margins = np.full(len(held), model.base_score)
        losses = []
        for tree in fit_gradient_boosting(X[fit], y[fit], names, cfg).trees[: len(model.trees) + cfg.patience]:
            margins += model.learning_rate * tree.predict(X[held])
            losses.append(cross_entropy(y[held], sigmoid(margins)))
        assert int(np.argmin(losses)) + 1 == len(model.trees)

    def test_serialization_round_trip_bit_identical(self, tmp_path):
        X, y = dataset(5)
        cfg = BoostConfig(n_rounds=8, validation_fraction=0.0)
        model = fit_gradient_boosting(X, y, [f"f{i}" for i in range(4)], cfg)
        path = tmp_path / "model.json"
        pipeline._write_json(path, {**model.to_dict(), "stamp": pipeline.PipelineConfig().stamp()})  # as `train` writes it
        back = TreeEnsemble.load(path)
        assert back.feature_names == model.feature_names
        assert np.array_equal(back.margin(X), model.margin(X))

    @pytest.mark.parametrize("max_depth", [1, 3, 8])
    @pytest.mark.parametrize("min_leaf", [1, 5, 20])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_grow_tree_matches_per_node_search(self, max_depth, min_leaf, weighted):
        # NaN-heavy, one coarse column for shared bins; weighted: random
        # weights (some 0) and margins; else unit weights, so NaN routing
        # meets exact ties
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 6))
        X[:, 2] = np.round(X[:, 2])
        X[rng.random(X.shape) < 0.3] = np.nan
        y = (rng.random(400) < 0.3).astype(int)
        if weighted:
            w = rng.uniform(0.0, 3.0, size=400) * (rng.random(400) > 0.1)
            g, h = grad_hess(y, rng.uniform(0.05, 0.95, size=400), w)
        else:
            w = np.ones(400)
            g, h = grad_hess(y, np.full(400, 0.3), w)
        binned = BinnedMatrix(X, max_bins=16)
        rows = np.arange(100, 400)  # a subset, as the boosting loop may pass
        cfg = BoostConfig(max_depth=max_depth, min_samples_leaf=min_leaf)
        tree, _ = grow_tree(binned, rows, g, h, w, cfg)
        assert tree.n_nodes > 1
        assert tree.to_dict() == per_node_tree(binned, rows, g, h, w, cfg).to_dict()

    @pytest.mark.parametrize("budget", [1, 10**9])
    def test_feature_groups_do_not_change_trees(self, monkeypatch, budget):
        # threshold counts below 8, from 8 to 63, and 64 reach every branch of
        # numpy's pairwise sum; at 10**9 the two one-threshold columns share a group
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.integers(0, k, 600) for k in (2, 2, 3, 6, 9, 30, 64, 65)] + [rng.normal(size=600)])
        X = X.astype(float)
        X[rng.random(X.shape) < 0.2] = np.nan
        binned = BinnedMatrix(X, max_bins=64)
        assert [len(t) for t in binned.thresholds] == [1, 1, 2, 5, 8, 29, 63, 64, 63]
        y = (rng.random(600) < 0.3).astype(int)
        w = rng.uniform(0.0, 3.0, size=600)
        g, h = grad_hess(y, rng.uniform(0.05, 0.95, size=600), w)
        rows = np.arange(50, 600)
        obl, plain = BoostConfig(max_depth=6), BoostConfig(max_depth=6, min_samples_leaf=3)

        def grow():
            return [grow_oblivious_tree(binned, g, h, w, obl)[0], grow_tree(binned, rows, g, h, w, plain)[0]]

        default = [t.to_dict() for t in grow()]
        monkeypatch.setattr(boosting, "CHUNK_ELEMENTS", budget)
        assert [t.to_dict() for t in grow()] == default

    def test_features_callable_restricts_every_split(self):
        X, y = dataset(6, n=300, p=4)
        g, h = grad_hess(y, np.full(len(y), 0.4), np.ones(len(y)))
        binned, rows = BinnedMatrix(X), np.arange(len(y))
        cfg = BoostConfig(max_depth=4, min_samples_leaf=3)
        free, _ = grow_tree(binned, rows, g, h, np.ones(len(y)), cfg)
        searched = []

        def only(r):
            searched.append(len(r))
            return [2]

        tree, leaf = grow_tree(binned, rows, g, h, np.ones(len(y)), cfg, only)
        internal = tree.feature >= 0
        assert free.feature[0] != 2 and internal.sum() > 1
        assert set(tree.feature[internal]) == {2}
        assert np.array_equal(leaf, tree.apply(X))
        assert min(searched) >= 2 * cfg.min_samples_leaf and len(searched) >= internal.sum()

    @pytest.mark.parametrize("oblivious", [True, False])
    @pytest.mark.parametrize("min_leaf", [0, 3])
    def test_level_gains_match_per_node_histograms(self, oblivious, min_leaf):
        # float for float: each feature's best gain per node (per level when
        # oblivious: the (nodes × thresholds) gains summed over axis 0)
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.integers(0, k, 500) for k in (2, 1, 2, 4, 12, 70)] + [rng.normal(size=500)])
        X = X.astype(float)
        X[rng.random(X.shape) < 0.3] = np.nan
        binned = BinnedMatrix(X, max_bins=64)
        g, h = grad_hess((rng.random(500) < 0.3).astype(int), rng.uniform(0.05, 0.95, size=500), rng.uniform(0, 3, 500))
        rows = rng.permutation(500)[:400]
        for n_nodes in (1, 3, 9, 40):
            node = rng.integers(0, n_nodes, len(rows))
            gain, t = boosting._level_gains(binned, rows, node, n_nodes, g, h, 1.0, min_leaf, oblivious)
            for j, th in enumerate(binned.thresholds):
                if len(th) == 0:
                    assert np.all(gain[..., j] == -np.inf)
                    continue
                r = [rows[node == k] for k in range(n_nodes)]
                gains = np.array([node_gains(binned.codes[rk, j], len(th), g[rk], h[rk], 1.0, min_leaf) for rk in r])
                if oblivious:
                    gains = gains.sum(axis=0, keepdims=True)
                best = np.argmax(gains, axis=1)
                assert np.array_equal(t[..., j], best.reshape(t[..., j].shape))
                assert gain[..., j].tobytes() == gains[np.arange(len(gains)), best].tobytes()

    @pytest.mark.parametrize("n_nodes", [8, 16, 64])
    def test_oblivious_level_gains_skip_empty_nodes_exactly(self, n_nodes):
        # rows land in every third node only; each feature's gains summed over
        # all nodes, the empty ones' zeros included, must come out float for float
        rng = np.random.default_rng(n_nodes)
        X = np.column_stack([rng.integers(0, k, 600) for k in (2, 2, 3, 3, 7)] + [rng.normal(size=600)])
        X = X.astype(float)
        X[rng.random(X.shape) < 0.2] = np.nan
        binned = BinnedMatrix(X, max_bins=64)
        assert [len(t) for t in binned.thresholds][:4] == [1, 1, 2, 2]
        w = rng.uniform(0.0, 3.0, 600)
        g, h = grad_hess((rng.random(600) < 0.3).astype(int), rng.uniform(0.05, 0.95, size=600), w)
        occupied = np.arange(0, n_nodes, 3)
        node = rng.choice(occupied, 600)
        gain, t = boosting._level_gains(binned, None, node, n_nodes, g, h, 1.0, 0, True)
        for j, th in enumerate(binned.thresholds):
            gains = np.array([node_gains(binned.codes[node == k, j], len(th), g[node == k], h[node == k], 1.0)
                              for k in range(n_nodes)])
            assert not gains[np.setdiff1d(np.arange(n_nodes), occupied)].any()
            total = gains.sum(axis=0)
            assert t[j] == np.argmax(total)
            assert gain[j].tobytes() == total[t[j]].tobytes()

    def test_running_totals_move_splits_only_at_ties(self):
        # the pairwise node totals (np.sum) the level search took before, kept
        # as a second oracle: along growths that follow the running totals (as
        # grow_oblivious_tree does), wherever the two orders pick different
        # splits, the picks tie in pairwise arithmetic.  A base column's
        # coarsened copies split some rows exactly as it does, over fewer
        # bins, so ties that rounding breaks are common
        moved = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            base = rng.integers(0, 30, (400, 3)).astype(float)
            p = 0.2 + 0.5 * (base[:, 0] < 6) + 0.3 * (base[:, 1] > 22) - 0.15 * (base[:, 2] < 9)
            y = (rng.random(400) < p).astype(int)
            base[rng.random(base.shape) < 0.1] = np.nan
            binned = BinnedMatrix(np.column_stack([base, np.minimum(base, 12), np.maximum(base, 18)]), max_bins=64)
            w = np.ones(400)
            g, h = grad_hess(y, np.full(400, 0.3), w)
            code = np.zeros(400, dtype=np.int64)
            for depth in range(6):
                _, pick = oblivious_level(binned, code, 1 << depth, g, h, 1.0)
                pairwise, pairwise_pick = oblivious_level(binned, code, 1 << depth, g, h, 1.0, total=np.sum)
                assert (pick is None) == (pairwise_pick is None)
                if pick is None:
                    break
                if pick != pairwise_pick:
                    moved += 1
                    a, b = pairwise[pick[0]][pick[1]], pairwise[pairwise_pick[0]][pairwise_pick[1]]
                    assert abs(a - b) <= 1e-12 * abs(b)
                code = oblivious_step(binned, code, 1 << depth, *pick, w)
        assert moved > 0

    @pytest.mark.parametrize("min_leaf", [1, 7, 40])
    def test_every_leaf_holds_min_samples_leaf(self, min_leaf):
        X, y = dataset(12, n=300)  # complete rows: training and prediction route alike
        cfg = BoostConfig(n_rounds=10, max_depth=6, min_samples_leaf=min_leaf, validation_fraction=0.0)
        model = fit_gradient_boosting(X, y, [f"f{i}" for i in range(4)], cfg)
        assert model.trees
        for tree in model.trees:
            rows_per_node = np.bincount(tree.apply(X), minlength=tree.n_nodes)
            assert rows_per_node[tree.feature < 0].min() >= min_leaf

    def test_sample_weights_shift_base_score(self):
        X, y = dataset(6, n=100)
        w = np.where(y == 1, 5.0, 1.0)
        cfg = BoostConfig(n_rounds=1, validation_fraction=0.0)
        model = fit_gradient_boosting(X, y, [f"f{i}" for i in range(4)], cfg, sample_weight=w)
        expect = logit(float(np.average(y, weights=w)))
        assert model.base_score == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("reg_lambda", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_reg_lambda(self, reg_lambda):
        # lambda = 0 makes an empty side's gain 0/0, and a NaN gain loses every comparison
        with pytest.raises(ValueError, match="reg_lambda"):
            BoostConfig(reg_lambda=reg_lambda)


class TestObliviousBoosting:
    def test_structure_invariants(self):
        X, y = dataset(7)
        cfg = BoostConfig(n_rounds=5, max_depth=4, validation_fraction=0.0)
        model = fit_oblivious_boosting(X, y, [f"f{i}" for i in range(4)], cfg)
        assert model.trees
        for tree in model.trees:
            assert tree.oblivious
            depth = tree.max_depth()
            assert 1 <= depth <= 4
            assert int(np.sum(tree.feature < 0)) == 2**depth  # leaf count
            # one (feature, threshold) pair per level, shared by all its nodes
            internal = np.nonzero(tree.feature >= 0)[0]
            assert len({(int(tree.feature[i]), float(tree.threshold[i])) for i in internal}) <= depth

    def test_loss_not_better_than_plain_trees(self):
        # a plain tree of equal depth can represent any oblivious tree
        X, y = dataset(8, n=400)
        names = [f"f{i}" for i in range(4)]
        cfg = BoostConfig(n_rounds=20, max_depth=3, validation_fraction=0.0)
        plain = fit_gradient_boosting(X, y, names, cfg)
        obl = fit_oblivious_boosting(X, y, names, cfg)
        loss_plain = cross_entropy(y, plain.predict_proba(X))
        loss_obl = cross_entropy(y, obl.predict_proba(X))
        assert loss_plain <= loss_obl + 1e-6

    def test_learns_xor(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        cfg = BoostConfig(n_rounds=50, max_depth=2, learning_rate=0.5, validation_fraction=0.0)
        model = fit_oblivious_boosting(X, y, ["a", "b"], cfg)
        pred = classify(model.predict_proba(X))
        assert np.mean(pred == y) > 0.95

    def test_min_samples_leaf_is_ignored(self):
        # symmetric trees split every leaf of a level at once (CatBoost's
        # SymmetricTree growth has no per-leaf row minimum either)
        X, y = dataset(13, n=200)
        fits = [
            fit_oblivious_boosting(
                X, y, [f"f{i}" for i in range(4)],
                BoostConfig(n_rounds=10, max_depth=6, min_samples_leaf=m, validation_fraction=0.0),
            )
            for m in (1, 100)
        ]
        trees = [[t.to_dict() for t in fit.trees] for fit in fits]
        assert trees[0] and trees[0] == trees[1]
        assert min(t.cover[t.feature < 0].min() for t in fits[1].trees) < 100

    @pytest.mark.parametrize("max_depth", [1, 4, 8])
    @pytest.mark.parametrize("nan_share", [0.0, 0.3])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_grow_oblivious_tree_matches_per_level_search(self, max_depth, nan_share, weighted):
        # a constant and a three-valued column; a copy of column 0 (equal
        # gains: the lower index wins) and two-valued columns that cut like a
        # threshold of a coarse column (equal partitions, gains apart by
        # rounding only); unweighted: unit weights, so NaN routing meets
        # exact ties
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 8))
        X[:, 1] = 2.5
        X[:, 2] = rng.integers(0, 3, 400)
        X[:, 4] = rng.integers(0, 5, 400)
        X[rng.random(X.shape) < nan_share] = np.nan
        X[:, 5] = np.where(np.isnan(X[:, 4]), np.nan, X[:, 4] >= 2)
        X[:, 6] = X[:, 0]
        X[:, 7] = np.where(np.isnan(X[:, 2]), np.nan, X[:, 2] >= 1)
        y = (rng.random(400) < sigmoid(np.nan_to_num(X[:, 0] + X[:, 5] - 1))).astype(int)
        if weighted:
            w = rng.uniform(0.0, 3.0, size=400) * (rng.random(400) > 0.1)
            g, h = grad_hess(y, rng.uniform(0.05, 0.95, size=400), w)
        else:
            w = np.ones(400)
            g, h = grad_hess(y, np.full(400, 0.3), w)
        binned = BinnedMatrix(X, max_bins=16)
        cfg = BoostConfig(max_depth=max_depth)
        tree, _ = grow_oblivious_tree(binned, g, h, w, cfg)
        assert tree.max_depth() == max_depth
        assert tree.to_dict() == per_level_oblivious_tree(binned, g, h, w, cfg).to_dict()

    def test_loads_files_that_carry_levels(self):
        # earlier files list each level's (feature, threshold); loading ignores them
        X, y = dataset(7)
        model = fit_oblivious_boosting(X, y, [f"f{i}" for i in range(4)], BoostConfig(n_rounds=5, validation_fraction=0.0))
        d = model.to_dict()
        for t in d["trees"]:
            internal = [i for i, f in enumerate(t["feature"]) if f >= 0]
            t["levels"] = [[t["feature"][i], t["threshold"][i]] for i in internal[: int(np.log2(len(internal) + 1))]]
        back = TreeEnsemble.from_dict(json.loads(json.dumps(d)))
        assert back.to_dict() == model.to_dict()
        assert np.array_equal(back.margin(X), model.margin(X))

    def test_level_search_memory_is_bounded(self):
        # rows × group keys and weights would take about 10 MB here
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5000, 87))
        X[rng.random(X.shape) < 0.3] = np.nan
        binned = BinnedMatrix(X)
        y = (rng.random(5000) < 0.3).astype(int)
        w = np.ones(5000)
        g, h = grad_hess(y, rng.uniform(0.05, 0.95, size=5000), w)
        tracemalloc.start()
        try:
            tree, _ = grow_oblivious_tree(binned, g, h, w, BoostConfig(max_depth=6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tree.max_depth() == 6
        assert peak < 4 * 2**20

    def test_predict_matches_naive_traversal(self):
        X, y = dataset(11)
        cfg = BoostConfig(n_rounds=6, max_depth=4, validation_fraction=0.0)
        model = fit_oblivious_boosting(X, y, [f"f{i}" for i in range(4)], cfg)
        X_test = X[:15].copy()
        X_test[::4, 0] = np.nan
        forest, roots = stack(model.trees)
        stacked = forest.apply(X_test, roots) - roots  # every tree at once, in each tree's own indices
        for t, tree in enumerate(model.trees):
            leaves = np.array([naive_leaf(tree, row) for row in X_test])
            assert np.array_equal(tree.apply(X_test), leaves)
            assert np.array_equal(stacked[:, t], leaves)
            assert np.array_equal(tree.predict(X_test), tree.value[leaves])


def assert_newton_leaves(tree, leaf, g, h, reg):
    """Every leaf value is -sum(g) / (sum(h) + reg) over the rows in leaf."""
    at = np.flatnonzero(tree.feature < 0)
    gs, hs = (np.bincount(leaf, weights=v, minlength=tree.n_nodes)[at] for v in (g, h))
    np.testing.assert_allclose(tree.value[at], -gs / (hs + reg), rtol=1e-12, atol=0)


class TestTreeChecks:
    @staticmethod
    def recursive_depths(tree):
        depths = np.zeros(tree.n_nodes, dtype=int)

        def walk(i, d):
            depths[i] = d
            if tree.feature[i] >= 0:
                walk(tree.left[i], d + 1)
                walk(tree.right[i], d + 1)

        walk(0, 0)
        return depths

    def test_node_depths_match_a_recursive_walk(self):
        X, y = dataset(7)
        g, h = grad_hess(y, np.full(len(y), 0.4), np.ones(len(y)))
        binned = BinnedMatrix(X)
        trees = [
            grow_tree(binned, np.arange(len(y)), g, h, np.ones(len(y)), BoostConfig(max_depth=6, min_samples_leaf=2))[0],
            grow_oblivious_tree(binned, g, h, np.ones(len(y)), BoostConfig(max_depth=5))[0],
            symmetric_tree([], [0.5], [3.0]),
        ]
        for tree in trees:
            assert np.array_equal(_node_depths(tree), self.recursive_depths(tree))

    @pytest.mark.parametrize("field,node", [("feature", 5), ("threshold", 12), ("feature", 8), ("threshold", 9)])
    def test_oblivious_tree_rejects_distinct_splits_at_one_level(self, field, node):
        good = symmetric_tree([(0, 0.5), (1, 1.5), (2, 2.5)], np.arange(8.0), np.ones(8))
        parts = {k: getattr(good, k).copy() for k in ("feature", "threshold", "left", "right", "value", "cover")}
        assert parts["feature"][node] >= 0
        parts[field][node] += 1
        Tree(**parts)  # a plain tree may split each node its own way
        with pytest.raises(ValueError, match="distinct splits"):
            Tree(**parts, oblivious=True)

    def test_cover_mismatch_raises(self):
        tree = symmetric_tree([(0, 0.5)], np.zeros(2), np.ones(2))
        parts = {k: getattr(tree, k).copy() for k in ("feature", "threshold", "left", "right", "value", "cover")}
        parts["cover"][0] = 3.0
        with pytest.raises(ValueError, match="cover"):
            Tree(**parts)


class TestDepthFirst:
    """`depth_first` renumbers any node order as a recursive walk visits it."""

    FIELDS = ("feature", "threshold", "left", "right", "value", "cover")

    @staticmethod
    def recursive_renumbering(feature, left, right):
        """Each node's index in the order a recursive walk (node, left, right) visits it."""
        visited = []

        def walk(i):
            visited.append(i)
            if feature[i] >= 0:
                walk(left[i])
                walk(right[i])

        walk(0)
        new = np.full(len(feature), -1)
        new[visited] = np.arange(len(visited))
        return new

    @staticmethod
    def grown_tree(rng, n_splits, pick):
        """A binary tree grown by splitting the leaf pick(feature) chooses, its nodes then shuffled behind root 0."""
        feature, left, right = [-1], [-1], [-1]
        for _ in range(n_splits):
            k = pick(feature)
            feature[k], left[k], right[k] = rng.integers(0, 5), len(feature), len(feature) + 1
            feature += [-1, -1]
            left += [-1, -1]
            right += [-1, -1]
        feature, left, right = np.array(feature), np.array(left), np.array(right)
        cover = np.where(feature < 0, rng.integers(0, 4, len(feature)), 0).astype(float)
        for k in reversed(range(len(feature))):  # children come after their parent
            if feature[k] >= 0:
                cover[k] = cover[left[k]] + cover[right[k]]
        return TestDepthFirst.shuffled(rng, {
            "feature": feature,
            "threshold": np.where(feature >= 0, rng.normal(size=len(feature)).round(2), np.nan),
            "left": left,
            "right": right,
            "value": np.where(feature < 0, rng.normal(size=len(feature)), 0.0),
            "cover": cover,
        })

    @staticmethod
    def shuffled(rng, parts):
        perm = np.concatenate([[0], 1 + rng.permutation(len(parts["feature"]) - 1)])  # perm[new id] = old id
        old_to_new = np.argsort(perm)
        out = {k: v[perm] for k, v in parts.items()}
        for k in ("left", "right"):
            out[k] = np.where(out[k] >= 0, old_to_new[out[k]], -1)
        return out

    def check(self, parts, oblivious=False):
        tree, at = depth_first(*(parts[k] for k in self.FIELDS), oblivious=oblivious)
        want = self.recursive_renumbering(parts["feature"], parts["left"], parts["right"])
        assert np.array_equal(at, want)
        assert tree.oblivious is oblivious
        for k in ("feature", "threshold", "value", "cover"):  # every node lands at its index, fields intact
            np.testing.assert_array_equal(getattr(tree, k)[at], parts[k])
        for k in ("left", "right"):  # and keeps its children
            np.testing.assert_array_equal(getattr(tree, k)[at], np.where(parts[k] >= 0, at[parts[k]], -1))
        assert tree.feature.dtype == tree.left.dtype == tree.right.dtype == np.int64
        return tree

    @pytest.mark.parametrize("seed", range(20))
    def test_random_trees_in_shuffled_order(self, seed):
        rng = np.random.default_rng(seed)
        self.check(self.grown_tree(rng, int(rng.integers(1, 40)), lambda f: rng.choice(np.flatnonzero(np.array(f) < 0))))

    def test_single_leaf(self):
        parts = {k: np.array([v]) for k, v in zip(self.FIELDS, (-1, np.nan, -1, -1, 0.25, 3.0))}
        tree = self.check(parts)
        assert tree.to_dict()["value"] == [0.25] and tree.n_nodes == 1

    @pytest.mark.parametrize("side", [0, 1])
    def test_one_sided_chain(self, side):
        # every split after the first takes the newest left (side 0) or right (side 1) child
        tree = self.check(self.grown_tree(np.random.default_rng(side), 30, lambda f: max(len(f) - 2 + side, 0)))
        assert tree.max_depth() == 30


class TestOnePartition:
    """Growth routes NaN as prediction does, so the rows a grower fits each
    leaf on are the rows `Tree.apply` sends there."""

    @staticmethod
    def nan_heavy(seed, n=300, p=5):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = (rng.random(n) < sigmoid(X[:, 0] - X[:, 1])).astype(int)
        X[rng.random(X.shape) < 0.3] = np.nan
        w = rng.choice([0.5, 1.0, 2.0, 3.0], size=n)
        g, h = grad_hess(y, rng.uniform(0.05, 0.95, size=n), w)
        return rng, X, y, w, g, h

    @pytest.mark.parametrize("seed", range(50))
    def test_growers_hand_back_the_partition_prediction_routes(self, seed):
        rng, X, y, w, g, h = self.nan_heavy(seed)
        binned = BinnedMatrix(X, max_bins=16)
        for rows in (np.arange(len(y)), np.flatnonzero(rng.random(len(y)) < 0.6)):
            cfg = BoostConfig(max_depth=6, min_samples_leaf=1)
            tree, leaf = grow_tree(binned, rows, g, h, w, cfg)
            assert np.array_equal(leaf, tree.apply(X[rows]))
            assert_newton_leaves(tree, leaf, g[rows], h[rows], cfg.reg_lambda)
        cfg = BoostConfig(max_depth=6)
        tree, leaf = grow_oblivious_tree(binned, g, h, w, cfg)
        assert np.array_equal(leaf, tree.apply(X))
        assert_newton_leaves(tree, leaf, g, h, cfg.reg_lambda)
        internal = tree.feature >= 0
        splits = zip(_node_depths(tree)[internal], tree.feature[internal], tree.threshold[internal])
        assert len(set(splits)) == tree.max_depth()  # one (feature, threshold) per level

    @pytest.mark.parametrize("seed", range(50))
    def test_boosted_leaves_are_newton_steps_on_routed_rows(self, seed):
        _, X, y, w, _, _ = self.nan_heavy(seed)
        cfg = BoostConfig(n_rounds=4, max_depth=4, min_samples_leaf=3, validation_fraction=0.0)
        for fit in (fit_gradient_boosting, fit_oblivious_boosting):
            model = fit(X, y, [f"f{i}" for i in range(X.shape[1])], cfg, sample_weight=w)
            assert model.trees
            margins = np.full(len(y), model.base_score)
            for tree in model.trees:
                g, h = grad_hess(y, sigmoid(margins), w)
                assert_newton_leaves(tree, tree.apply(X), g, h, cfg.reg_lambda)
                margins += model.learning_rate * tree.predict(X)

    @pytest.mark.parametrize("seed", range(50))
    def test_forest_leaves_are_bad_fractions_of_routed_in_bag_rows(self, seed):
        rng, X, y, w, _, _ = self.nan_heavy(seed)
        counts = np.bincount(rng.integers(0, len(y), len(y)), minlength=len(y))
        wt, rows = w * counts, np.flatnonzero(counts)
        forest = SimpleNamespace(max_depth=4, min_samples_leaf=3, reg_lambda=0.0)  # the forest's grow_tree settings

        def draw(r):
            return rng.choice(X.shape[1], size=2, replace=False) if y[r].min() < y[r].max() else []

        tree, _ = grow_tree(BinnedMatrix(X), rows, -wt * y, wt, wt, forest, draw)
        assert tree.n_nodes > 1
        leaf = tree.apply(X[rows])
        at = np.flatnonzero(tree.feature < 0)
        bad, weight = (np.bincount(leaf, weights=v, minlength=tree.n_nodes)[at] for v in (wt[rows] * y[rows], wt[rows]))
        np.testing.assert_allclose(tree.value[at], bad / weight, rtol=1e-12, atol=0)


def margin_by_tree(model, X):
    """Unchunked oracle for TreeEnsemble.margin: every row through one tree at a time, added in tree order."""
    expect = np.full(len(X), model.base_score)
    for tree in model.trees:
        expect += model.learning_rate * tree.predict(X)
    return expect


def margin_models():
    X, y = dataset(5)
    X_test = X[:40].copy()
    X_test[::3, 2] = np.nan
    names = [f"f{i}" for i in range(4)]
    cfg = BoostConfig(n_rounds=12, validation_fraction=0.0)
    deep = fit_random_forest(X, y, names, ForestConfig(n_trees=4, max_depth=4))
    leaves = fit_random_forest(X, y, names, ForestConfig(n_trees=3, max_depth=0))
    assert all(t.n_nodes == 1 for t in leaves.trees)
    models = [
        fit_gradient_boosting(X, y, names, cfg),
        fit_oblivious_boosting(X, y, names, cfg),
        deep,
        TreeEnsemble("random_forest", names, 0.0, 1 / 7, deep.trees[:2] + leaves.trees + deep.trees[2:]),
        TreeEnsemble("gradient_boosting", names, 0.3, 0.1),  # no trees
    ]
    return models, X_test


class TestMargin:
    def test_margin_adds_tree_outputs_in_order(self):
        models, X_test = margin_models()
        for model in models:
            assert model.margin(X_test).tobytes() == margin_by_tree(model, X_test).tobytes()

    @pytest.mark.parametrize("budget", [1, 20, 100])
    def test_row_chunks_add_the_same_bytes(self, budget, monkeypatch):
        monkeypatch.setattr(ensemble, "CHUNK_ELEMENTS", budget)  # 1 to 25 rows per chunk
        models, X_test = margin_models()
        for model in models:
            assert model.margin(X_test).tobytes() == margin_by_tree(model, X_test).tobytes()

    def test_traced_peak_does_not_grow_with_rows(self):
        X, y = dataset(6, n=200)
        model = fit_oblivious_boosting(X, y, [f"f{i}" for i in range(4)], BoostConfig(n_rounds=260, max_depth=3, validation_fraction=0.0))
        assert len(model.trees) >= 250
        big = np.random.default_rng(6).normal(size=(20_000, 4))
        big[::5, 1] = np.nan
        model.margin(big[:10])  # builds the stack, which every later call reads
        peaks = {}
        for n in (2_000, 20_000):
            tracemalloc.start()
            got = model.margin(big[:n])
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert got.tobytes() == margin_by_tree(model, big[:n]).tobytes()
        assert peaks[20_000] - peaks[2_000] < 1 << 20

    def test_warm_call_and_changed_trees_match_a_fresh_ensemble(self):
        models, X_test = margin_models()
        model, other = models[0], models[1]
        first = model.margin(X_test)
        assert model.margin(X_test).tobytes() == first.tobytes()

        def fresh(m):
            return TreeEnsemble(m.kind, list(m.feature_names), m.base_score, m.learning_rate, list(m.trees))

        changes = [
            lambda m: m.trees.append(other.trees[0]),
            lambda m: setattr(m, "trees", m.trees[:5]),
            lambda m: setattr(m, "trees", list(other.trees)),
            lambda m: m.trees.append(m.trees[0]),  # the same Tree object twice
            lambda m: setattr(m, "learning_rate", 0.37),
            lambda m: setattr(m, "base_score", -1.25),
        ]
        for change in changes:
            model.margin(X_test)  # the memo is warm before each change
            change(model)
            assert model.margin(X_test).tobytes() == fresh(model).margin(X_test).tobytes()
            assert model.margin(X_test).tobytes() == margin_by_tree(model, X_test).tobytes()

    def test_memo_is_not_part_of_the_ensemble_value(self):
        models, X_test = margin_models()
        warm = models[1]
        cold = TreeEnsemble(warm.kind, list(warm.feature_names), warm.base_score, warm.learning_rate, warm.trees, dict(warm.meta))
        text = (repr(cold), json.dumps(cold.to_dict()))
        warm.margin(X_test)
        assert warm._prepared is not None and cold._prepared is None
        assert warm == cold
        assert (repr(warm), json.dumps(warm.to_dict())) == text


class TestClassify:
    def test_default_threshold(self):
        assert classify(np.array([0.57, 0.5, 0.001])).tolist() == [1, 0, 0]

    def test_custom_threshold(self):
        assert classify(np.array([0.3, 0.31]), threshold=0.3).tolist() == [0, 1]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            classify(np.array([1.2]))
        with pytest.raises(ValueError):
            classify(np.array([0.5]), threshold=-0.1)
