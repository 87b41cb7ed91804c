import warnings

import numpy as np
import pytest

from creditshap.metrics import roc_auc
from creditshap.models import boosting
from creditshap.models.boosting import BinnedMatrix, _level_gains
from creditshap.models.forest import ForestConfig, fit_random_forest


def small_config(n_trees=25, **kw):
    kw.setdefault("max_depth", 8)
    kw.setdefault("min_samples_leaf", 2)
    return ForestConfig(n_trees=n_trees, **kw)


class TestRandomForest:
    def test_pure_class_predicts_constant(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = np.zeros(40, dtype=int)
        forest = fit_random_forest(X, y, ["a", "b", "c"], small_config())
        assert np.allclose(forest.predict_proba(X), 0.0)

    def test_probabilities_bounded(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 4))
        y = (X[:, 0] > 0).astype(int)
        forest = fit_random_forest(X, y, list("abcd"), small_config())
        p = forest.predict_proba(X)
        assert np.all((0.0 <= p) & (p <= 1.0))

    def test_xor_train_accuracy(self):
        # XOR needs interactions: a single linear model can't do it
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(300, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        forest = fit_random_forest(X, y, ["a", "b"], small_config(n_trees=50, max_features=2))
        pred = (forest.predict_proba(X) > 0.5).astype(int)
        assert np.mean(pred == y) > 0.95

    def test_more_trees_does_not_hurt(self):
        rng = np.random.default_rng(3)
        n = 400
        X = rng.normal(size=(n, 5))
        p = 1 / (1 + np.exp(-(X[:, 0] + 0.5 * X[:, 1] * X[:, 2])))
        y = (rng.random(n) < p).astype(int)
        tr, te = np.arange(0, 300), np.arange(300, n)
        aucs = []
        for n_trees in (10, 100):
            forest = fit_random_forest(X[tr], y[tr], list("abcde"), small_config(n_trees=n_trees, seed=7))
            aucs.append(roc_auc(y[te], forest.predict_proba(X[te])).auc)
        assert aucs[1] >= aucs[0] - 0.02

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(int)
        a = fit_random_forest(X, y, list("abc"), small_config(seed=11))
        b = fit_random_forest(X, y, list("abc"), small_config(seed=11))
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_margin_is_probability_space(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 2))
        y = (X[:, 0] > 0).astype(int)
        forest = fit_random_forest(X, y, ["a", "b"], small_config())
        assert np.allclose(np.clip(forest.margin(X), 0, 1), forest.predict_proba(X))

    def test_nan_rows_still_predict(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(int)
        forest = fit_random_forest(X, y, list("abc"), small_config())
        X_test = X[:5].copy()
        X_test[:, 1] = np.nan
        p = forest.predict_proba(X_test)
        assert np.all(np.isfinite(p))

    def test_sample_weight_shifts_leaf_fractions(self):
        # same rows, huge weight on the positive class pushes probabilities up
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 2))
        y = (X[:, 0] + rng.normal(scale=1.5, size=80) > 0).astype(int)
        cfg = small_config(n_trees=30, seed=0)
        plain = fit_random_forest(X, y, ["a", "b"], cfg)
        w = np.where(y == 1, 10.0, 1.0)
        boosted = fit_random_forest(X, y, ["a", "b"], cfg, sample_weight=w)
        assert boosted.predict_proba(X).mean() > plain.predict_proba(X).mean()


class TestDrawnFeatureSearch:
    """A level searches only the features its nodes drew; the oracle scores
    every feature and masks the rest away."""

    @staticmethod
    def data(seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(400, 40))
        X[:, :6] = np.round(X[:, :6] * 2)  # few thresholds: shared feature groups
        X[rng.random(X.shape) < 0.1] = np.nan
        y = (rng.random(400) < 1 / (1 + np.exp(-np.nan_to_num(X[:, 0] - X[:, 7])))).astype(int)
        return X, y

    @pytest.mark.parametrize("seed", range(3))
    def test_level_gains_of_a_feature_subset(self, seed):
        X, y = self.data(seed)
        rng = np.random.default_rng(seed + 10)
        binned = BinnedMatrix(X)
        w = rng.uniform(0.5, 2.0, 400)
        rows = np.flatnonzero(rng.random(400) < 0.8)
        for n_nodes in (1, 4, 16):
            node = rng.integers(0, n_nodes, len(rows))
            args = (binned, rows, node, n_nodes, -w * y, w, 0.0, 2, False)
            every_gain, every_t = _level_gains(*args)
            features = np.unique(rng.choice(40, size=12))
            gain, t = _level_gains(*args, features)
            assert gain[:, features].tobytes() == every_gain[:, features].tobytes()
            assert t[:, features].tobytes() == every_t[:, features].tobytes()
            assert np.all(np.delete(gain, features, axis=1) == -np.inf)

    @pytest.mark.parametrize("seed", range(3))
    def test_trees_equal_the_masked_search(self, seed, monkeypatch):
        X, y = self.data(seed)
        forest = fit_random_forest(X, y, [f"c{j}" for j in range(40)], small_config(n_trees=8, seed=seed))
        level_gains = boosting._level_gains
        monkeypatch.setattr(boosting, "_level_gains", lambda *args: level_gains(*args[:9]))
        masked = fit_random_forest(X, y, [f"c{j}" for j in range(40)], small_config(n_trees=8, seed=seed))
        assert [t.to_dict() for t in forest.trees] == [t.to_dict() for t in masked.trees]


class TestForestConfig:
    @pytest.mark.parametrize("kw", [
        {"n_trees": 0}, {"max_features": 0}, {"max_features": "log2"},
        {"n_trees": 2.5}, {"max_depth": 3.0}, {"min_samples_leaf": 0.5},
    ])
    def test_rejects_degenerate_settings(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            ForestConfig(**kw)

    @pytest.mark.parametrize("name", ["n_trees", "max_depth", "min_samples_leaf", "max_features"])
    def test_a_bool_fails_every_count(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            ForestConfig(**{name: True})


def gini_decreases(X, y, w, rows, binned, j, min_leaf):
    """Brute-force weighted Gini decrease of splitting rows at each of feature
    j's thresholds (x < T goes left, NaN rows left out); a side with no weight
    has impurity 0, a side with fewer than min_leaf rows gets -inf."""

    def impurity(side):  # total weight × two-class Gini
        total = sum(w[i] for i in side)
        bad = sum(w[i] for i in side if y[i] == 1)
        return 0.0 if total == 0 else total * 2 * (bad / total) * (1 - bad / total)

    known = [i for i in rows if not np.isnan(X[i, j])]
    out = []
    for t in binned.thresholds[j]:
        left = [i for i in known if X[i, j] < t]
        right = [i for i in known if X[i, j] >= t]
        ok = len(left) >= min_leaf and len(right) >= min_leaf
        out.append(impurity(known) - impurity(left) - impurity(right) if ok else -np.inf)
    return np.array(out)


class TestForestSplitGain:
    """With g = -w·y, h = w and reg = 0, the boosters' Newton gain is half the
    weighted Gini decrease, so the forest keeps its split criterion."""

    @staticmethod
    def forest_gains(X, y, w, rows, binned, min_leaf):
        return _level_gains(binned, rows, np.zeros(len(rows), dtype=int), 1, -w * y, w, 0.0, min_leaf, oblivious=False)

    @pytest.mark.parametrize("seed", range(10))
    def test_gains_are_half_the_gini_decrease(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(120, 4))
        X[:, 3] = np.round(X[:, 3])
        X[rng.random(X.shape) < 0.2] = np.nan
        y = (rng.random(120) < 0.4).astype(int)
        w = rng.uniform(0.1, 3.0, size=120)
        rows = np.flatnonzero(rng.random(120) < 0.7)
        binned = BinnedMatrix(X, max_bins=16)
        gain, t = self.forest_gains(X, y, w, rows, binned, 3)
        for j in range(4):
            decrease = gini_decreases(X, y, w, rows, binned, j, 3)
            assert t[0, j] == np.argmax(decrease)
            np.testing.assert_allclose(gain[0, j], decrease.max() / 2, rtol=1e-12, atol=0)

    def test_zero_weight_side_keeps_the_split(self):
        X = np.arange(10.0)[:, None]
        y = (X[:, 0] > 5).astype(int)
        rows = np.arange(10)
        binned = BinnedMatrix(X)
        w = np.ones(10)
        w[:2] = 0.0  # thresholds 0.5 and 1.5 leave a zero-weight left side
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gain, t = self.forest_gains(X, y, w, rows, binned, 1)
        decrease = gini_decreases(X, y, w, rows, binned, 0, 1)
        assert decrease[:2].tolist() == [0.0, 0.0]
        assert binned.thresholds[0][t[0, 0]] == 5.5 == binned.thresholds[0][np.argmax(decrease)]
        assert gain[0, 0] == pytest.approx(decrease.max() / 2) == pytest.approx(2.0)
