import warnings

import numpy as np
import pytest

from creditshap.metrics import roc_auc
from creditshap.models.forest import ForestConfig, _best_gini_split, fit_random_forest


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


class TestForestConfig:
    @pytest.mark.parametrize("kw", [
        {"n_trees": 0}, {"max_features": 0}, {"max_features": "log2"},
        {"n_trees": 2.5}, {"max_depth": 3.0}, {"min_samples_leaf": 0.5},
    ])
    def test_rejects_degenerate_settings(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            ForestConfig(**kw)


class TestBestGiniSplit:
    def test_zero_weight_side_keeps_the_split(self):
        X = np.arange(10.0)[:, None]
        y = (X[:, 0] > 5).astype(int)
        rows = np.arange(10)
        w = np.ones(10)
        assert _best_gini_split(X, y, w, rows, [0], 1) == (0, 5.5, pytest.approx(4.8))
        w[:2] = 0.0  # thresholds 0.5 and 1.5 leave a zero-weight left side
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _best_gini_split(X, y, w, rows, [0], 1) == (0, 5.5, pytest.approx(4.0))
