import warnings

import numpy as np
import pytest

from creditshap.models.boosting import (
    BinnedMatrix,
    BoostConfig,
    cross_entropy,
    fit_gradient_boosting,
    fit_oblivious_boosting,
    grad_hess,
    grow_tree,
    logit,
)
from creditshap.models.ensemble import TreeEnsemble, classify, sigmoid
from creditshap.models.trees import TreeBuilder


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


def per_node_tree(binned, rows, g, h, w, config):
    """Reference for grow_tree: a recursive search that splits one node at a
    time with its own histograms, in the same arithmetic and row order."""
    builder = TreeBuilder()
    reg, min_leaf = config.reg_lambda, config.min_samples_leaf

    def best_split(r):
        best = None
        for j, t in enumerate(binned.thresholds):
            if len(t) == 0:
                continue
            c = binned.codes[r, j]
            valid = c <= len(t)
            gh, hh, ch = (
                np.bincount(c[valid], weights=v, minlength=len(t) + 1)
                for v in (g[r][valid], h[r][valid], None)
            )
            G, H, N = gh.sum(), hh.sum(), ch.sum()
            gl, hl, nl = np.cumsum(gh)[:-1], np.cumsum(hh)[:-1], np.cumsum(ch)[:-1]
            gains = gl**2 / (hl + reg) + (G - gl) ** 2 / (H - hl + reg) - G**2 / (H + reg)
            gains[(nl < min_leaf) | (N - nl < min_leaf)] = -np.inf
            t_idx = int(np.argmax(gains))
            if gains[t_idx] > max(1e-12, best[2] if best else 0.0):
                best = (j, t_idx, gains[t_idx])
        return best

    def emit(r, depth):
        split = best_split(r) if depth < config.max_depth else None
        if split is None:
            return builder.add_leaf(-g[r].sum() / (h[r].sum() + reg), w[r].sum())
        j, t_idx, _ = split
        c = binned.codes[r, j]
        nan = c == binned.nan_code[j]
        left = c <= t_idx
        if nan.any():
            left = np.where(nan, h[r][left & ~nan].sum() >= h[r][~left & ~nan].sum(), left)
        node = builder.add_internal(j, binned.thresholds[j][t_idx], w[r].sum())
        builder.set_children(node, emit(r[left], depth + 1), emit(r[~left], depth + 1))
        return node

    emit(rows, 0)
    return builder.build()


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
        for tree in model.trees:
            leaves = np.array([naive_leaf(tree, row) for row in X_test])
            assert np.array_equal(tree.apply(X_test), leaves)
            assert np.array_equal(tree.predict(X_test), tree.value[leaves])

    def test_early_stopping_trims_rounds(self):
        X, y = dataset(4, n=200)
        cfg = BoostConfig(n_rounds=400, learning_rate=0.5, patience=5, validation_fraction=0.2, seed=1)
        model = fit_gradient_boosting(X, y, [f"f{i}" for i in range(4)], cfg)
        assert 0 < len(model.trees) < 400
        assert model.meta["n_trees"] == len(model.trees)

    def test_serialization_round_trip_bit_identical(self, tmp_path):
        X, y = dataset(5)
        cfg = BoostConfig(n_rounds=8, validation_fraction=0.0)
        model = fit_gradient_boosting(X, y, [f"f{i}" for i in range(4)], cfg)
        path = tmp_path / "model.json"
        model.save(path)
        back = TreeEnsemble.load(path)
        assert back.feature_names == model.feature_names
        assert np.array_equal(back.margin(X), model.margin(X))

    @pytest.mark.parametrize("max_depth", [1, 3, 8])
    @pytest.mark.parametrize("min_leaf", [1, 5, 20])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_grow_tree_matches_per_node_search(self, max_depth, min_leaf, weighted):
        # NaN-heavy, one coarse column for shared bins; weighted: random
        # weights (some 0) and margins; else one hessian for all rows, so
        # NaN routing meets exact ties
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
        tree = grow_tree(binned, rows, g, h, w, cfg)
        assert tree.n_nodes > 1
        assert tree.to_dict() == per_node_tree(binned, rows, g, h, w, cfg).to_dict()

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


class TestObliviousBoosting:
    def test_structure_invariants(self):
        X, y = dataset(7)
        cfg = BoostConfig(n_rounds=5, max_depth=4, validation_fraction=0.0)
        model = fit_oblivious_boosting(X, y, [f"f{i}" for i in range(4)], cfg)
        assert model.trees
        for tree in model.trees:
            assert tree.oblivious
            depth = len(tree.levels)
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

    def test_ordered_mode_still_learns(self):
        X, y = dataset(10, n=300)
        cfg = BoostConfig(n_rounds=30, max_depth=3, validation_fraction=0.0, ordered=True)
        model = fit_oblivious_boosting(X, y, [f"f{i}" for i in range(4)], cfg)
        from creditshap.metrics import roc_auc

        assert roc_auc(y, model.predict_proba(X)).auc > 0.8

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

    def test_predict_matches_naive_traversal(self):
        X, y = dataset(11)
        cfg = BoostConfig(n_rounds=6, max_depth=4, validation_fraction=0.0)
        model = fit_oblivious_boosting(X, y, [f"f{i}" for i in range(4)], cfg)
        X_test = X[:15].copy()
        X_test[::4, 0] = np.nan
        for tree in model.trees:
            leaves = np.array([naive_leaf(tree, row) for row in X_test])
            assert np.array_equal(tree.apply(X_test), leaves)
            assert np.array_equal(tree.predict(X_test), tree.value[leaves])


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
