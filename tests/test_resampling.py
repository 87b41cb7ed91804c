import numpy as np
import pytest

from creditshap.metrics import TrainSplit
from creditshap.models import ModelSpec, fit_model
from creditshap.resampling import (
    ResamplingStrategy,
    apply_strategy,
    borderline_smote,
    class_weights,
    danger_points,
    oversample_minority,
    smote,
    svm_smote,
    undersample_majority,
    _linear_svm_margins,
)
from creditshap.synthetic import imbalanced_blobs


def split_of(X, y):
    return TrainSplit(np.asarray(X, dtype=float), np.asarray(y, dtype=int))


def balanced_counts(y):
    return int(np.sum(y == 0)), int(np.sum(y == 1))


def rows_as_set(X):
    return {tuple(row) for row in np.asarray(X)}


def assert_collinear(child, a, b, tol=1e-9):
    """child must lie on the segment [a, b]."""
    d = b - a
    v = child - a
    denom = np.dot(d, d)
    if denom == 0:
        assert np.allclose(child, a, atol=tol)
        return
    t = np.dot(v, d) / denom
    assert -tol <= t <= 1 + tol
    assert np.max(np.abs(v - t * d)) < tol


def synthetic_rows_collinear(X_out, X_in, minority_rows, tol=1e-9):
    """Every appended row must sit on a segment between two minority parents."""
    n_in = len(X_in)
    for child in X_out[n_in:]:
        ok = False
        for i in range(len(minority_rows)):
            for j in range(len(minority_rows)):
                a, b = minority_rows[i], minority_rows[j]
                d = b - a
                v = child - a
                denom = np.dot(d, d)
                if denom == 0:
                    if np.allclose(child, a, atol=tol):
                        ok = True
                        break
                    continue
                t = np.dot(v, d) / denom
                if -tol <= t <= 1 + tol and np.max(np.abs(v - t * d)) < 1e-8:
                    ok = True
                    break
            if ok:
                break
        assert ok, f"synthetic row {child} not collinear with any parent pair"


class TestUndersample:
    def test_tiny(self):
        X = np.arange(20).reshape(10, 2).astype(float)
        y = np.array([0] * 9 + [1])
        Xb, yb = undersample_majority(split_of(X, y), seed=0)
        assert balanced_counts(yb) == (1, 1)

    def test_balanced_preserved(self):
        X = np.arange(8).reshape(4, 2).astype(float)
        y = np.array([0, 0, 1, 1])
        Xb, yb = undersample_majority(split_of(X, y), seed=1)
        assert rows_as_set(Xb) == rows_as_set(X)

    def test_survey_ratio_keeps_every_minority_row(self):
        X, y = imbalanced_blobs(888, 111, seed=2)
        Xb, yb = undersample_majority(split_of(X, y), seed=3)
        assert balanced_counts(yb) == (111, 111)
        minority = rows_as_set(X[y == 1])
        assert minority <= rows_as_set(Xb)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            undersample_majority(split_of(np.zeros((3, 2)), [0, 0, 0]))


class TestOversample:
    def test_tiny_exact_copies(self):
        X = np.array([[0.0, 0], [1, 1], [2, 2], [9, 9]])
        y = np.array([0, 0, 0, 1])
        Xb, yb = oversample_minority(split_of(X, y), seed=0)
        assert balanced_counts(yb) == (3, 3)
        assert all(tuple(r) == (9.0, 9.0) for r in Xb[yb == 1])

    def test_balanced_unchanged(self):
        X = np.arange(8).reshape(4, 2).astype(float)
        y = np.array([0, 1, 0, 1])
        Xb, yb = oversample_minority(split_of(X, y), seed=0)
        assert rows_as_set(Xb) == rows_as_set(X)

    def test_duplicates_are_members(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 3))
        y = np.array([0] * 10 + [1] * 2)
        Xb, yb = oversample_minority(split_of(X, y), seed=5)
        assert balanced_counts(yb) == (10, 10)
        members = rows_as_set(X[y == 1])
        assert rows_as_set(Xb[yb == 1]) <= members


class TestSmote:
    def test_segment_interpolation(self):
        X = np.array([[0.0, 0], [1, 1], [5, 0], [6, 1], [7, 2]])
        y = np.array([1, 1, 0, 0, 0])
        Xb, yb = smote(split_of(X, y), k=1, seed=0)
        assert balanced_counts(yb) == (3, 3)
        for child in Xb[len(X):]:
            assert child[0] == pytest.approx(child[1], abs=1e-9)
            assert 0 <= child[0] <= 1

    def test_identical_points(self):
        X = np.array([[2.0, 2], [2, 2], [0, 0], [1, 0], [3, 0], [4, 0]])
        y = np.array([1, 1, 0, 0, 0, 0])
        Xb, yb = smote(split_of(X, y), k=1, seed=0)
        assert np.allclose(Xb[len(X):], [2.0, 2.0])

    def test_collinearity_oracle(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(size=(30, 2)), rng.normal(loc=3, size=(8, 2))])
        y = np.array([0] * 30 + [1] * 8)
        Xb, yb = smote(split_of(X, y), k=3, seed=7)
        synthetic_rows_collinear(Xb, X, X[y == 1])

    def test_determinism(self):
        X, y = imbalanced_blobs(60, 10, seed=8)
        a = smote(split_of(X, y), seed=9)
        b = smote(split_of(X, y), seed=9)
        assert np.array_equal(a[0], b[0])


class TestBorderline:
    def _interleaved(self, seed=0):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, np.pi, 60)
        maj = np.c_[np.cos(t), np.sin(t)] + rng.normal(scale=0.08, size=(60, 2))
        t2 = rng.uniform(0, np.pi, 20)
        mino = np.c_[1 - np.cos(t2), 0.4 - np.sin(t2)] + rng.normal(scale=0.08, size=(20, 2))
        X = np.vstack([maj, mino])
        y = np.array([0] * 60 + [1] * 20)
        return X, y

    def test_noise_point_never_seed(self):
        # minority point far inside majority territory with all-majority neighbors
        X = np.vstack([np.random.default_rng(1).normal(size=(20, 2)), [[0.0, 0.0]], [[8.0, 8.0]], [[8.2, 8.1]]])
        y = np.array([0] * 20 + [1, 1, 1])
        d = danger_points(X, y, k=5, minority=1)
        assert 20 not in d  # the isolated point has only majority neighbors

    def test_safe_point_never_seed(self):
        X = np.vstack([np.full((6, 2), 9.0) + np.arange(12).reshape(6, 2) * 0.01, np.zeros((5, 2)) + np.arange(10).reshape(5, 2) * 0.01])
        y = np.array([0] * 6 + [1] * 5)
        d = danger_points(X, y, k=3, minority=1)
        assert len(d) == 0  # all minority points have all-minority neighbors

    def test_danger_set_oracle(self):
        X, y = self._interleaved()
        k = 5
        danger = set(danger_points(X, y, k, minority=1))
        # recompute neighbor labels independently
        from creditshap.resampling import _scaled_view

        Z = _scaled_view(X)
        for i in np.nonzero(y == 1)[0]:
            d2 = ((Z - Z[i]) ** 2).sum(axis=1)
            d2[i] = np.inf
            neigh = np.argsort(d2)[:k]
            frac = np.mean(y[neigh] == 0)
            if 0.5 <= frac < 1.0:
                assert i in danger
            else:
                assert i not in danger

    def test_balanced_output_and_collinearity(self):
        X, y = self._interleaved(2)
        Xb, yb = borderline_smote(split_of(X, y), k=5, seed=3)
        assert balanced_counts(yb)[0] == balanced_counts(yb)[1]
        synthetic_rows_collinear(Xb, X, X[y == 1], tol=1e-7)

    def test_fallback_warns(self):
        X = np.vstack([np.zeros((5, 2)) + np.arange(10).reshape(5, 2) * 0.01, np.full((8, 2), 9.0) + np.arange(16).reshape(8, 2) * 0.01])
        y = np.array([1] * 5 + [0] * 8)
        messages = []
        Xb, yb = borderline_smote(split_of(X, y), k=3, seed=0, warn=messages.append)
        assert messages  # no danger points -> plain-SMOTE fallback
        assert balanced_counts(yb)[0] == balanced_counts(yb)[1]


class TestSvmSmote:
    def test_seeds_near_margin(self):
        rng = np.random.default_rng(5)
        maj = rng.normal(loc=(-3, 0), scale=0.5, size=(40, 2))
        mino = np.vstack([
            rng.normal(loc=(3, 0), scale=0.3, size=(8, 2)),
            [[-1.0, 0.0], [-1.2, 0.1]],  # inside the margin band
        ])
        X = np.vstack([maj, mino])
        y = np.array([0] * 40 + [1] * 10)
        margins = _linear_svm_margins(X, y, minority=1, seed=0)
        min_idx = np.nonzero(y == 1)[0]
        support = min_idx[margins[min_idx] <= 1.0]
        # frontier points must be support vectors; deep interior ones must not be
        assert 48 in support and 49 in support
        deep = min_idx[np.argmax(margins[min_idx])]
        assert deep not in support

    def test_single_minority_seed(self):
        X = np.vstack([np.random.default_rng(0).normal(size=(6, 2)), [[5.0, 5.0]]])
        y = np.array([0] * 6 + [1])
        Xb, yb = svm_smote(split_of(X, y), seed=0)
        assert balanced_counts(yb) == (6, 6)
        assert np.allclose(Xb[yb == 1], [5.0, 5.0])

    def test_balanced_identity(self):
        X = np.arange(12).reshape(6, 2).astype(float)
        y = np.array([0, 1, 0, 1, 0, 1])
        Xb, yb = svm_smote(split_of(X, y), seed=0)
        assert np.array_equal(Xb, X)

    def test_balanced_and_collinear(self):
        X, y = imbalanced_blobs(50, 12, seed=1)
        Xb, yb = svm_smote(split_of(X, y), k=3, seed=2)
        assert balanced_counts(yb)[0] == balanced_counts(yb)[1]
        synthetic_rows_collinear(Xb, X, X[y == 1], tol=1e-7)


class TestClassWeights:
    def test_sqrt_balanced_8_2(self):
        cw = class_weights([0] * 8 + [1] * 2, "sqrt_balanced")
        assert (cw.w0, cw.w1) == (1.0, 2.0)

    def test_equal_counts(self):
        for mode in ("proportional", "sqrt_balanced"):
            cw = class_weights([0, 1, 0, 1], mode)
            assert (cw.w0, cw.w1) == (1.0, 1.0)

    def test_proportional_skewed_ratio(self):
        cw = class_weights([0] * 888 + [1] * 111, "proportional")
        assert cw.w1 == 8.0
        assert cw.w0 == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            class_weights([1, 1, 1], "proportional")


class TestStrategyGuard:
    def test_raw_arrays_rejected(self):
        X = np.zeros((4, 2))
        y = np.array([0, 0, 1, 1])
        with pytest.raises(TypeError):
            apply_strategy(ResamplingStrategy("smote"), (X, y))
        with pytest.raises(TypeError):
            undersample_majority((X, y))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ResamplingStrategy("adasyn")

    def test_dispatch_balances(self):
        X, y = imbalanced_blobs(40, 8, seed=0)
        for kind in ("undersample", "oversample", "smote", "borderline_smote", "svm_smote"):
            Xb, yb, wb = apply_strategy(ResamplingStrategy(kind, seed=1), split_of(X, y))
            assert balanced_counts(yb)[0] == balanced_counts(yb)[1], kind
            assert np.all(wb == 1.0)

    def test_class_weight_dispatch(self):
        X, y = imbalanced_blobs(8, 2, seed=0)
        _, _, w = apply_strategy(ResamplingStrategy("sqrt_balanced"), split_of(X, y))
        assert set(w[y == 1]) == {2.0}
        assert set(w[y == 0]) == {1.0}


class TestFitModelImputation:
    """fit_model fits the medians on the training rows, before resampling,
    and predict_proba fills every family's missing values with them."""

    def _data(self):
        X, y = imbalanced_blobs(60, 12, seed=3)
        X[np.random.default_rng(4).random(X.shape) < 0.25] = np.nan
        return X, y

    def test_medians_come_from_the_training_rows(self):
        X, y = self._data()
        fitted = fit_model(ModelSpec("logistic"), TrainSplit(X, y), ResamplingStrategy("smote"))
        assert np.array_equal(fitted.medians, np.nanmedian(X, axis=0))

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec("random_forest", {"n_trees": 10}),
            ModelSpec("gradient_boosting", {"n_rounds": 10}),
            ModelSpec("oblivious_boosting", {"n_rounds": 10}),
        ],
        ids=lambda spec: spec.family,
    )
    def test_tree_families_score_rows_as_filled(self, spec):
        X, y = self._data()
        fitted = fit_model(spec, TrainSplit(X, y), seed=1)
        assert np.array_equal(fitted.predict_proba(X), fitted.predict_proba(fitted.impute(X)))
        # the rows exercise NaN routing: the trees alone send them elsewhere
        assert not np.array_equal(fitted.model.predict_proba(X), fitted.predict_proba(X))
