import copy
import tracemalloc

import numpy as np
import pytest

from creditshap import models, pipeline, resampling
from creditshap.features import median_impute
from creditshap.metrics import TrainSplit, stratified_kfold, validation_split
from creditshap.models import ModelSpec, fit_model, mlp
from creditshap.models.boosting import DEFAULT_OBLIVIOUS_DEPTH, BoostConfig, fit_oblivious_boosting, logit
from creditshap.resampling import (
    STRATEGY_KINDS,
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
from creditshap.synthetic import imbalanced_blobs, planted_signal_dataset, write_ledger_fixture


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

    def test_fallback_seeds_every_minority_row(self):
        X = np.vstack([np.zeros((5, 2)) + np.arange(10).reshape(5, 2) * 0.01, np.full((8, 2), 9.0) + np.arange(16).reshape(8, 2) * 0.01])
        y = np.array([1] * 5 + [0] * 8)
        assert danger_points(X, y, 3, 1).size == 0
        Xb, yb = borderline_smote(split_of(X, y), k=3, seed=0)
        assert balanced_counts(yb)[0] == balanced_counts(yb)[1]
        Xs, ys = smote(split_of(X, y), k=3, seed=0)  # plain SMOTE seeds from every minority row
        assert np.array_equal(Xb, Xs) and np.array_equal(yb, ys)


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
        margins = _linear_svm_margins(X, y, minority=1)
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


def search_per_sample_synthesize(X, seeds, neighbor_pool, k, n_needed, rng):
    """The SMOTE runner with one neighbor search per synthetic row: the oracle."""
    Z = resampling._scaled_view(X)
    pool = Z[neighbor_pool]
    k_eff = max(1, min(k, len(neighbor_pool) - 1))
    rows = []
    for _ in range(n_needed):
        base = seeds[rng.integers(len(seeds))]
        d2 = ((Z[base][None, None, :] - pool[None, :, :]) ** 2).sum(axis=2)
        nn = np.argsort(d2, axis=1, kind="stable")[0, :k_eff]
        nn = [neighbor_pool[j] for j in nn if neighbor_pool[j] != base]
        partner = nn[rng.integers(len(nn))] if nn else base
        lam = rng.random()
        rows.append(X[base] + lam * (X[partner] - X[base]))
    return np.asarray(rows)


@pytest.fixture(scope="module")
def fold_corpus(tmp_path_factory):
    """25 training folds, each under both minority labels: 150-row folds of
    planted data, folds of a 150-account ledger, and Gaussian blobs."""
    folds = []
    for seed in range(5):
        X, y, _ = planted_signal_dataset(300, 20, seed=seed)
        folds += [(X[tr], y[tr]) for tr, _ in stratified_kfold(y, 2, seed=seed)]
    ledger = write_ledger_fixture(tmp_path_factory.mktemp("ledger"), 150, seed=0)
    matrix = pipeline.featurize_stage(pipeline.ingest_stage(ledger))
    X, _ = median_impute(matrix.values)
    folds += [(X[tr], matrix.y[tr]) for tr, _ in stratified_kfold(matrix.y, 5, seed=0)]
    for seed in range(10):
        folds.append(imbalanced_blobs(40 + 8 * seed, 8 + 2 * seed, p=3 + seed % 5, seed=seed))
    # the second copy relabels the classes and draws from another seed
    return [(X, y, 1, 0) for X, y in folds] + [(X, 1 - y, 0, 1) for X, y in folds]


def svm_inputs(X, y, minority):
    """The SVM's augmented rows [z 1] and ±1 targets, as _linear_svm_margins builds them."""
    Z = resampling._scaled_view(np.asarray(X, dtype=float))
    return np.hstack([Z, np.ones((len(Z), 1))]), np.where(y == minority, 1.0, -1.0)


def support_set(X, y, minority):
    margins = _linear_svm_margins(X, y, minority)
    return np.nonzero((y == minority) & (margins <= 1.0))[0]


class TestNewtonSvm:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        X, y = imbalanced_blobs(60, 15, p=4, seed=3)
        A, t = svm_inputs(X, y, 1)
        h = 1e-6

        def F(theta):
            return resampling._svm_objective(A, t, theta)[0]

        for _ in range(5):
            theta = rng.normal(scale=0.7, size=A.shape[1])
            _, grad, active = resampling._svm_objective(A, t, theta)
            assert 0 < active.sum() < len(t)  # both sides of the hinge are in play
            numeric = [(F(theta + h * e) - F(theta - h * e)) / (2 * h) for e in np.eye(len(theta))]
            np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)

    def test_returned_point_meets_the_optimality_condition(self, fold_corpus):
        for X, y, minority, _ in fold_corpus:
            A, t = svm_inputs(X, y, minority)
            theta = resampling._newton_svm(A, t, np.zeros(A.shape[1]))
            _, grad, _ = resampling._svm_objective(A, t, theta)
            assert np.linalg.norm(grad) <= resampling.SVM_GRAD_TOL
            assert np.array_equal(_linear_svm_margins(X, y, minority), t * (A @ theta))

    def test_row_permutation_keeps_the_support_set(self, fold_corpus):
        for X, y, minority, seed in fold_corpus:
            perm = np.random.default_rng(seed).permutation(len(y))
            support = support_set(X, y, minority)
            assert np.array_equal(np.sort(perm[support_set(X[perm], y[perm], minority)]), support)

    def test_iterate_with_no_active_row(self, monkeypatch):
        X, y = imbalanced_blobs(40, 8, p=3, seed=0)
        X[y == 1] += 20.0  # far apart: separable with room to spare
        A, t = svm_inputs(X, y, 1)
        theta = np.linalg.lstsq(A, 10.0 * t, rcond=None)[0]
        assert (t * (A @ theta) > 1.0).all()  # the start leaves no row active
        objective = resampling._svm_objective
        active_counts = []

        def counted(A, t, theta):
            value, grad, active = objective(A, t, theta)
            active_counts.append(int(active.sum()))
            return value, grad, active

        monkeypatch.setattr(resampling, "_svm_objective", counted)
        fitted = resampling._newton_svm(A, t, theta)
        assert active_counts[0] == 0 and active_counts[-1] > 0
        margins = t * (A @ fitted)
        assert np.isfinite(margins).all()
        # the same optimum as from θ = 0
        np.testing.assert_allclose(margins, _linear_svm_margins(X, y, 1), atol=1e-8)


class TestNeighborsOncePerSeed:
    @pytest.mark.parametrize("variant", [smote, borderline_smote, svm_smote], ids=lambda f: f.__name__)
    def test_rows_equal_one_search_per_sample(self, fold_corpus, variant, monkeypatch):
        synthesize = resampling._synthesize

        def both(X, seeds, neighbor_pool, k, n_needed, rng):
            oracle_rng = copy.deepcopy(rng)
            oracle = search_per_sample_synthesize(X, seeds, neighbor_pool, k, n_needed, oracle_rng)
            rows = synthesize(X, seeds, neighbor_pool, k, n_needed, rng)
            assert rows.tobytes() == oracle.tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            calls.append(n_needed)
            return rows

        calls = []
        monkeypatch.setattr(resampling, "_synthesize", both)
        for X, y, _, seed in fold_corpus:
            variant(split_of(X, y), k=5, seed=seed)
        assert len(calls) == len(fold_corpus)


class TestDangerPointsMemory:
    def test_neighbor_search_memory_is_bounded(self):
        # in one piece the (320 minority × 1 600 rows × 87 features)
        # differences alone would take 356 MB
        X, y, _ = planted_signal_dataset(1600, 87, bad_rate=0.2, seed=0)
        tracemalloc.start()
        try:
            danger = danger_points(X, y, 5, minority=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        Z = resampling._scaled_view(X)
        oracle = []
        for i in np.flatnonzero(y == 1):
            d2 = ((Z - Z[i]) ** 2).sum(axis=1)
            d2[i] = np.inf
            majority = np.sum(y[np.argsort(d2, kind="stable")[:5]] == 0)
            if 2.5 <= majority < 5:
                oracle.append(i)
        assert len(oracle) and np.array_equal(danger, oracle)


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


class TestValidationRowsAreReal:
    """fit_model holds out the early-stopping rows before it resamples: they
    are real rows of split.X, stratified and disjoint from the fit part, and
    no resampled or synthetic row is among them."""

    def _record(self, monkeypatch, name):
        calls = []
        monkeypatch.setattr(models, name, lambda *args: calls.append(args) or "model")
        return calls

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_validation_rows_are_held_out_before_resampling(self, kind, monkeypatch):
        X, y = imbalanced_blobs(180, 30, seed=5)
        calls = self._record(monkeypatch, "fit_oblivious_boosting")
        fit_model(ModelSpec("oblivious_boosting"), TrainSplit(X, y), ResamplingStrategy(kind), seed=2)
        ((X_fit, y_fit, _, _, w, (X_val, y_val)),) = calls
        fit, held = validation_split(y, 0.1, seed=2)
        assert np.array_equal(X_val, X[held]) and np.array_equal(y_val, y[held])
        assert [int(np.sum(y_val == c)) for c in (0, 1)] == [18, 3]  # a tenth of each class
        assert not rows_as_set(X_val) & rows_as_set(X_fit)  # no fit row, copied or synthesized, is held out
        # the fit part is the resampled remainder, its class weights included
        want = apply_strategy(ResamplingStrategy(kind), TrainSplit(X[fit], y[fit]))
        for got, expected in zip((X_fit, y_fit, w), want):
            assert np.array_equal(got, expected)

    def test_mlp_validation_rows_go_through_the_fit_part_scaler(self, monkeypatch):
        X, y = imbalanced_blobs(180, 30, seed=6)
        calls, seen = [], []  # fit_mlp's raw arguments; each epoch's validation scores and AUC
        fit_mlp, roc_auc = models.fit_mlp, mlp.roc_auc
        monkeypatch.setattr(models, "fit_mlp", lambda *args: calls.append(args) or fit_mlp(*args))

        def recording_auc(y_true, scores):
            curve = roc_auc(y_true, scores)
            seen.append((np.array(scores), curve.auc))
            return curve

        monkeypatch.setattr(mlp, "roc_auc", recording_auc)
        fitted = fit_model(ModelSpec("mlp", {"epochs": 3}), TrainSplit(X, y), ResamplingStrategy("smote"), seed=1)
        ((X_arg, _, _, _, _, (X_val, y_val)),) = calls
        fit, held = validation_split(y, 0.1, seed=1)
        X_fit = apply_strategy(ResamplingStrategy("smote"), TrainSplit(X[fit], y[fit]))[0]
        assert np.array_equal(X_arg, X_fit)  # raw rows: fit_mlp scales them itself
        assert np.array_equal(X_val, X[held]) and np.array_equal(y_val, y[held])
        assert np.array_equal(fitted.model.scaler.mean, X_fit.mean(axis=0))
        best = int(np.argmax([auc for _, auc in seen]))  # fit_mlp returns the best epoch's weights
        assert len(seen) == 3 and np.array_equal(seen[best][0], fitted.model.predict_proba(X[held]))

    def test_smote_fits_with_two_minority_rows(self):
        X, y = imbalanced_blobs(38, 2, seed=4)
        fit, held = validation_split(y, 0.1, seed=0)
        assert len(fit) == 40 and len(held) == 0  # holding one out would leave SMOTE a single minority row
        fitted = fit_model(
            ModelSpec("oblivious_boosting", {"n_rounds": 5}), TrainSplit(X, y), ResamplingStrategy("smote"), seed=0
        )
        assert len(fitted.model.trees) == 5
        _, y3 = imbalanced_blobs(37, 3, seed=4)
        assert [int(np.sum(y3[validation_split(y3, 0.1, seed=0)[1]] == c)) for c in (0, 1)] == [4, 1]

    def test_no_resampling_fits_as_a_direct_call(self):
        X, y, names = planted_signal_dataset(400, 8, seed=7)
        y = np.where(np.random.default_rng(8).random(len(y)) < 0.1, 1 - y, y)  # noise makes early stopping fire
        fitted = fit_model(ModelSpec("oblivious_boosting", {"n_rounds": 200}), TrainSplit(X, y, names), seed=3)
        fit, held = validation_split(y, 0.1, seed=3)
        cfg = BoostConfig(n_rounds=200, max_depth=DEFAULT_OBLIVIOUS_DEPTH, seed=3)
        direct = fit_oblivious_boosting(X[fit], y[fit], names, cfg, validation=(X[held], y[held]))
        assert 0 < len(direct.trees) < 200
        assert fitted.model.to_dict() == direct.to_dict()
        assert fitted.model.base_score == logit(y.mean())  # the prior counts the validation rows too
