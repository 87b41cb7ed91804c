import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditshap.metrics import (
    CvResult,
    TrainSplit,
    cross_validate,
    gini,
    roc_auc,
    stratified_kfold,
    train_test_split,
)


def auc_by_pair_counting(y, s):
    """Mann-Whitney oracle: P(score_pos > score_neg) + 0.5 P(tie)."""
    y = np.asarray(y)
    s = np.asarray(s, dtype=float)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = sum(1.0 for p in pos for q in neg if p > q)
    ties = sum(1.0 for p in pos for q in neg if p == q)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_ranking(self):
        curve = roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert curve.auc == 1.0
        assert curve.gini == 1.0

    def test_reversed_ranking(self):
        curve = roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9])
        assert curve.auc == 0.0
        assert curve.gini == -1.0

    def test_perfect_separation_never_rounds_above_one(self):
        # tied negative groups whose trapezoid sum rounds to 1 + 2**-52
        groups = [1, 1, 1, 7, 3, 1, 1, 1, 1, 1, 2, 1, 2]
        neg = np.repeat(-np.arange(len(groups), dtype=float), groups)
        s = np.r_[[10.0, 9.0, 9.0, 9.0, 8.0], neg]
        y = np.r_[np.ones(5, dtype=int), np.zeros(len(neg), dtype=int)]
        curve = roc_auc(y, s)
        assert curve.auc == 1.0
        assert curve.gini == 1.0

    def test_all_tied_is_chance(self):
        curve = roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert curve.auc == pytest.approx(0.5)

    def test_pair_counting_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 200)
        y[:2] = [0, 1]  # guarantee both classes
        s = np.round(rng.random(200), 1)  # coarse grid forces ties
        assert roc_auc(y, s).auc == pytest.approx(auc_by_pair_counting(y, s), abs=1e-12)

    def test_pair_counting_oracle_continuous(self):
        rng = np.random.default_rng(1)
        y = np.array([0] * 40 + [1] * 25)
        s = rng.normal(size=65) + y * 0.8
        assert roc_auc(y, s).auc == pytest.approx(auc_by_pair_counting(y, s), abs=1e-12)

    def test_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(2)
        y = np.array([0] * 30 + [1] * 10)
        s = rng.normal(size=40)
        curve = roc_auc(y, s)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(-50, 50)), min_size=4, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_monotone_transform_invariance(self, pairs):
        y = np.array([p[0] for p in pairs])
        # tenths grid: distinct values stay distinct through exp()
        s = np.array([p[1] for p in pairs]) / 10.0
        if y.sum() in (0, len(y)):
            return
        a = roc_auc(y, s).auc
        b = roc_auc(y, np.exp(s / 2)).auc  # strictly increasing transform
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([1, 1], [0.2, 0.8])

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0, 1], [0.2, np.nan])


class TestGini:
    def test_auc_084_maps_to_068(self):
        assert gini(0.84) == pytest.approx(0.68)

    def test_chance_is_zero(self):
        assert gini(0.5) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gini(1.2)


class TestTrainTestSplit:
    def test_disjoint_exhaustive(self):
        y = np.array([0] * 30 + [1] * 10)
        tr, te = train_test_split(np.zeros((40, 2)), y, train_fraction=0.75, seed=0)
        assert sorted(np.concatenate([tr, te]).tolist()) == list(range(40))
        assert set(tr).isdisjoint(te)

    def test_stratified_proportions(self):
        y = np.array([0] * 80 + [1] * 20)
        tr, _ = train_test_split(np.zeros((100, 2)), y, train_fraction=0.75, seed=1)
        assert int(np.sum(y[tr] == 0)) == 60
        assert int(np.sum(y[tr] == 1)) == 15

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 1)), [0, 0, 1, 1], train_fraction=1.0)


class TestStratifiedKfold:
    def test_partition(self):
        y = np.array([0] * 40 + [1] * 10)
        splits = stratified_kfold(y, k=5, seed=0)
        assert len(splits) == 5
        all_test = np.sort(np.concatenate([te for _, te in splits]))
        assert all_test.tolist() == list(range(50))
        for tr, te in splits:
            assert set(tr).isdisjoint(te)
            assert np.unique(y[te]).size == 2

    def test_class_counts_balanced_across_folds(self):
        y = np.array([0] * 45 + [1] * 10)
        splits = stratified_kfold(y, k=5, seed=3)
        for _, te in splits:
            assert int(np.sum(y[te] == 1)) == 2
            assert int(np.sum(y[te] == 0)) == 9

    def test_fold_without_both_classes_errors(self):
        y = np.array([0] * 10 + [1] * 2)
        with pytest.raises(ValueError):
            stratified_kfold(y, k=5, seed=0)


class TestCrossValidate:
    def test_perfect_scorer_gini_one(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = np.array([0] * 40 + [1] * 20)

        def fit_and_score(split, X_test, y_test):
            assert isinstance(split, TrainSplit)
            return y_test.astype(float)  # cheats on purpose: perfect ranking

        res = cross_validate(fit_and_score, X, y, k=5, seed=0)
        assert res.mean == pytest.approx(1.0)
        assert res.std == 0.0

    def test_constant_scorer_gini_zero(self):
        X = np.zeros((40, 2))
        y = np.array([0] * 30 + [1] * 10)
        res = cross_validate(lambda s, Xt, yt: np.zeros(len(yt)), X, y, k=5, seed=1)
        assert res.mean == pytest.approx(0.0)

    def test_callback_sees_only_train_rows(self):
        X = np.arange(50, dtype=float).reshape(50, 1)
        y = np.array([0, 1] * 25)
        seen = []

        def fit_and_score(split, X_test, y_test):
            seen.append((set(split.X[:, 0].tolist()), set(X_test[:, 0].tolist())))
            return np.zeros(len(y_test))

        cross_validate(fit_and_score, X, y, k=5, seed=2)
        for train_vals, test_vals in seen:
            assert train_vals.isdisjoint(test_vals)
            assert len(train_vals) + len(test_vals) == 50

    def test_formatted(self):
        res = CvResult([0.6, 0.76, 0.68])
        assert res.formatted() == "0.68 (0.08)"
