"""Acceptance gate: nine end-to-end properties with stated tolerances.

Each criterion emits exactly one PASS/FAIL line in the terminal summary
(see conftest.py); the mapping from test to criterion lives in CRITERIA.
"""

import functools
import time

import numpy as np

from creditshap.explain import CoalitionEvaluator, brute_force_shapley, tree_shap
from creditshap.features import FeatureMatrix, build_feature_matrix, standardize
from creditshap.metrics import TrainSplit, gini, roc_auc
from creditshap.models import ModelSpec, TreeEnsemble, fit_model
from creditshap.models.boosting import BoostConfig, fit_gradient_boosting, fit_oblivious_boosting, grad_hess, sigmoid
from creditshap.models.mlp import MlpConfig, MlpModel, _init_params, mlp_gradients, mlp_loss
from creditshap.pipeline import GridSpec, PipelineConfig, _write_json, evaluate_cell, ingest_stage, run_grid
from creditshap.resampling import (
    ResamplingStrategy,
    apply_strategy,
    class_weights,
)
from creditshap.selection import correlation_prune
from creditshap.synthetic import imbalanced_blobs, planted_signal_dataset, write_ledger_fixture


CRITERIA: dict[str, tuple[int, str]] = {}


def criterion(num, name):
    def deco(fn):
        CRITERIA[fn.__name__] = (num, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fn(*args, **kwargs)

        return wrapper

    return deco


def random_ensembles(n_ensembles, rng):
    """Fitted boosted ensembles with <=50 trees, depth <=4, p <=10."""
    out = []
    for i in range(n_ensembles):
        p = int(rng.integers(2, 11))
        n = int(rng.integers(80, 200))
        X = rng.normal(size=(n, p))
        w = rng.normal(size=p)
        eta = X @ w + rng.normal(scale=0.5, size=n) + rng.normal() * X[:, 0] * X[:, p - 1]
        y = (eta > np.median(eta)).astype(int)
        cfg = BoostConfig(
            n_rounds=int(rng.integers(5, 51)),
            max_depth=int(rng.integers(1, 5)),
            min_samples_leaf=int(rng.integers(1, 6)),
            learning_rate=0.3,
            validation_fraction=0.0,
            seed=i,
        )
        fit = fit_oblivious_boosting if i % 3 == 0 else fit_gradient_boosting
        out.append((fit(X, y, [f"f{j}" for j in range(p)], cfg), X))
    return out


@criterion(1, "SHAP exactness vs brute force")
def test_shap_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for model, X in random_ensembles(20, rng):
        assert len(model.trees) <= 50
        assert all(t.max_depth() <= 4 for t in model.trees)
        probes = rng.normal(size=(100, X.shape[1])) * X.std(axis=0) + X.mean(axis=0)
        evaluator = CoalitionEvaluator(model)
        for x in probes:
            fast = tree_shap(model, x).contributions
            slow = brute_force_shapley(evaluator, x).contributions
            worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.monotonic() - start
    assert worst < 1e-8, f"max per-feature gap {worst}"
    assert elapsed < 60.0, f"exactness check took {elapsed:.1f}s"


@criterion(2, "local accuracy: baseline + sum(phi) = margin")
def test_local_accuracy():
    rng = np.random.default_rng(1)
    worst = 0.0
    for model, X in random_ensembles(6, rng):
        probes = np.vstack([X[:30], X[:10]])
        probes = probes.copy()
        probes[-10:, 0] = np.nan  # missing values must not break additivity
        for x in probes:
            sv = tree_shap(model, x)
            assert np.isclose(sv.margin, float(model.margin(x)[0]), atol=1e-12)
            worst = max(worst, sv.additivity_gap())
    assert worst < 1e-9, f"max additivity gap {worst}"


@criterion(3, "metric identities: Gini and pair-counting AUC")
def test_metric_identities():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(4, 26))
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        # mix coarse (tie-heavy) and continuous scores
        s = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
        curve = roc_auc(y, s)
        assert curve.gini == 2.0 * curve.auc - 1.0  # exact identity
        assert gini(curve.auc) == curve.gini
        pos, neg = s[y == 1], s[y == 0]
        wins = float(np.sum(pos[:, None] > neg[None, :]))
        ties = float(np.sum(pos[:, None] == neg[None, :]))
        mw = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert abs(curve.auc - mw) < 1e-12


@criterion(4, "gradient checks: MLP backprop and first boosting round")
def test_gradient_checks():
    # MLP: analytic backprop vs central finite differences
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(int)
    Z, scaler = standardize(X, ["a", "b", "c"])
    w, b = _init_params(3, (6, 4), np.random.default_rng(4))
    model = MlpModel(w, b, ["a", "b", "c"], scaler, MlpConfig(hidden_layers=(6, 4)))
    gw, gb = mlp_gradients(model, Z, y)
    eps = 1e-6
    for layer in range(len(model.weights)):
        W = model.weights[layer]
        for idx in np.ndindex(W.shape):
            orig = W[idx]
            W[idx] = orig + eps
            up = mlp_loss(model, Z, y)
            W[idx] = orig - eps
            down = mlp_loss(model, Z, y)
            W[idx] = orig
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), abs(gw[layer][idx]), 1e-8)
            assert abs(numeric - gw[layer][idx]) / denom < 1e-4

    # boosting: round-1 pseudo-residuals are exactly p0 - y (unit weights)
    Xb = rng.normal(size=(150, 2))
    yb = (Xb[:, 0] + 0.3 * rng.normal(size=150) > 0).astype(int)
    cfg = BoostConfig(n_rounds=1, max_depth=1, min_samples_leaf=1, validation_fraction=0.0)
    booster = fit_gradient_boosting(Xb, yb, ["a", "b"], cfg)
    p0 = sigmoid(booster.base_score)
    g, h = grad_hess(yb, np.full(len(yb), p0), np.ones(len(yb)))
    assert np.max(np.abs(g - (p0 - yb))) < 1e-12
    (tree,) = booster.trees
    left = Xb[:, tree.feature[0]] < tree.threshold[0]
    for mask, child in ((left, tree.left[0]), (~left, tree.right[0])):
        newton = -g[mask].sum() / (h[mask].sum() + cfg.reg_lambda)
        assert abs(tree.value[child] - newton) < 1e-12


@criterion(5, "pipeline counts: 106 features; 27 pruned, 79 kept")
def test_pipeline_counts(tmp_path):
    data_dir = write_ledger_fixture(tmp_path / "ledger", n_accounts=40, seed=5)
    matrix = build_feature_matrix(ingest_stage(data_dir))
    assert len(matrix.columns) == 106

    rng = np.random.default_rng(6)
    base = rng.normal(size=(300, 79))
    values = np.hstack([base, base[:, :27]])  # 27 exact duplicates
    dup = FeatureMatrix(
        [f"r{i}" for i in range(300)],
        [f"k{i}" for i in range(106)],
        values,
        np.zeros(300, dtype=int),
    )
    kept, report = correlation_prune(dup, threshold=0.95)
    assert len(report.removed) == 27
    assert len(kept.columns) == 79


def _assert_synthetic_collinear(children, parents, tol=1e-9):
    """Every child must lie on a segment between two parent rows."""
    diffs = parents[None, :, :] - parents[:, None, :]
    denom = np.einsum("abd,abd->ab", diffs, diffs)
    valid = denom > 0
    for child in children:
        if np.min(np.sum(np.abs(parents - child), axis=1)) < tol:
            continue  # exact copy of a parent (duplicate-point fallback)
        v = child - parents  # (n_par, d)
        t = np.einsum("ad,abd->ab", v, diffs)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(valid, t / np.where(valid, denom, 1.0), np.nan)
        resid = v[:, None, :] - t[..., None] * diffs
        on_segment = valid & (t >= -tol) & (t <= 1 + tol) & (np.max(np.abs(resid), axis=2) < tol)
        assert on_segment.any(), f"child {child} off every parent segment"


@criterion(6, "resampler contracts at the 888/111 ratio")
def test_resampler_contracts():
    X, y = imbalanced_blobs(888, 111, seed=7)
    parents = X[y == 1]
    for kind in ("undersample", "oversample", "smote", "borderline_smote", "svm_smote"):
        strategy = ResamplingStrategy(kind, seed=13)
        Xb, yb, wb = apply_strategy(strategy, TrainSplit(X, y))
        n0, n1 = int(np.sum(yb == 0)), int(np.sum(yb == 1))
        assert n0 == n1, f"{kind}: {n0} vs {n1}"
        if kind in ("smote", "borderline_smote", "svm_smote"):
            _assert_synthetic_collinear(Xb[len(X):], parents)
        Xb2, yb2, _ = apply_strategy(strategy, TrainSplit(X, y))
        assert np.array_equal(Xb, Xb2) and np.array_equal(yb, yb2), f"{kind}: not deterministic"


@criterion(7, "scaled benchmark ordering and runtime")
def test_scaled_benchmark():
    start = time.monotonic()
    X, y, names = planted_signal_dataset(n=2000, p=20, bad_rate=0.111, seed=0)
    assert abs(y.mean() - 0.111) < 0.005
    matrix = FeatureMatrix([f"r{i}" for i in range(len(y))], names, X, y)
    strategy = ResamplingStrategy("none")
    means = {}
    for family, params in (
        ("oblivious_boosting", {"n_rounds": 200}),
        ("gradient_boosting", {"n_rounds": 200}),
        ("logistic", {}),
    ):
        cv = evaluate_cell(ModelSpec(family, params), strategy, matrix, 5, 0)
        means[family] = cv.mean
    elapsed = time.monotonic() - start
    assert means["oblivious_boosting"] >= means["gradient_boosting"], means
    assert means["gradient_boosting"] > means["logistic"], means
    assert means["oblivious_boosting"] > 0.5, means
    assert elapsed < 300.0, f"benchmark took {elapsed:.1f}s"


@criterion(8, "scaling and class-weight spot checks")
def test_scaling_and_weights():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 6)) * [1, 10, 100, 0.01, 3, 7] + [0, 5, -40, 2, 0, 1]
    Z, params = standardize(X, [f"c{i}" for i in range(6)])
    assert np.max(np.abs(Z.mean(axis=0))) < 1e-9
    assert np.max(np.abs(Z.std(axis=0) - 1.0)) < 1e-9
    cw = class_weights([0] * 8 + [1] * 2, "sqrt_balanced")
    assert (cw.w0, cw.w1) == (1.0, 2.0)


@criterion(9, "determinism and model round-trip")
def test_determinism_round_trip(tmp_path):
    X, y, names = planted_signal_dataset(n=300, p=8, seed=9)
    matrix = FeatureMatrix([f"r{i}" for i in range(len(y))], names, X, y)
    config = PipelineConfig(seed=4, cv_folds=3, model_params={"n_rounds": 30})
    grid = GridSpec(models=["logistic", "oblivious_boosting"], resamplers=["none", "undersample"])
    paths = [tmp_path / "grid_a.csv", tmp_path / "grid_b.csv"]
    for path in paths:
        run_grid(grid, {"pruned": matrix}, config, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    spec = ModelSpec("gradient_boosting", {"n_rounds": 25, "validation_fraction": 0.0})
    fitted = fit_model(spec, TrainSplit(X, y, names), seed=0)
    model_path = tmp_path / "model.json"
    _write_json(model_path, {**fitted.model.to_dict(), "stamp": config.stamp()})  # the file `train` writes
    back = TreeEnsemble.load(model_path)
    probe = np.random.default_rng(10).normal(size=(100, 8))
    assert np.array_equal(back.margin(probe), fitted.model.margin(probe))
    assert np.array_equal(back.predict_proba(probe), fitted.model.predict_proba(probe))
