import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditshap import explain, pipeline
from creditshap.explain import (
    CoalitionEvaluator,
    GlobalImportance,
    brute_force_shapley,
    global_importance,
    shap_matrix,
    summary_data,
    tree_shap,
    waterfall_data,
)
from creditshap.features import FeatureMatrix
from creditshap.metrics import TrainSplit
from creditshap.models import FittedModel, ModelSpec, ensemble, fit_model
from creditshap.models.boosting import BoostConfig, fit_gradient_boosting, fit_oblivious_boosting
from creditshap.models.ensemble import CHUNK_ELEMENTS, TreeEnsemble, sigmoid
from creditshap.models.forest import ForestConfig, fit_random_forest
from creditshap.models.trees import Tree
from creditshap.synthetic import planted_signal_dataset


def stump(feature, threshold, left_value, right_value, left_cover, right_cover):
    return Tree(
        feature=np.array([feature, -1, -1], dtype=np.int64),
        threshold=np.array([threshold, np.nan, np.nan]),
        left=np.array([1, -1, -1], dtype=np.int64),
        right=np.array([2, -1, -1], dtype=np.int64),
        value=np.array([0.0, left_value, right_value]),
        cover=np.array([left_cover + right_cover, left_cover, right_cover], dtype=float),
    )


def ensemble_of(trees, n_features, lr=1.0, base=0.0, kind="gradient_boosting"):
    return TreeEnsemble(kind, [f"f{i}" for i in range(n_features)], base, lr, list(trees))


def shapley_by_definition(evaluator, x, p):
    """Direct Shapley formula over all feature subsets (independent oracle)."""
    phi = np.zeros(p)
    players = list(range(p))
    for i in players:
        others = [j for j in players if j != i]
        for size in range(len(others) + 1):
            for S in itertools.combinations(others, size):
                w = math.factorial(size) * math.factorial(p - size - 1) / math.factorial(p)
                phi[i] += w * (evaluator.evaluate(x, set(S) | {i}) - evaluator.evaluate(x, set(S)))
    return phi


class TestSingleStump:
    def test_hand_formula(self):
        # one binary split: phi_0 = leaf(x) - cover-weighted mean; others 0
        tree = stump(0, 0.5, -1.0, 2.0, 30.0, 10.0)
        ens = ensemble_of([tree], 3)
        expected_mean = (30 * -1.0 + 10 * 2.0) / 40
        sv = tree_shap(ens, np.array([0.2, 9.9, -3.0]))
        assert sv.baseline == pytest.approx(expected_mean, abs=1e-12)
        assert sv.contributions[0] == pytest.approx(-1.0 - expected_mean, abs=1e-12)
        assert sv.contributions[1] == 0.0 and sv.contributions[2] == 0.0
        assert sv.additivity_gap() < 1e-12

    def test_other_side(self):
        tree = stump(0, 0.5, -1.0, 2.0, 30.0, 10.0)
        ens = ensemble_of([tree], 1)
        sv = tree_shap(ens, np.array([7.0]))
        assert sv.contributions[0] == pytest.approx(2.0 - (-0.25), abs=1e-12)

    def test_nan_routes_to_larger_cover(self):
        tree = stump(0, 0.5, -1.0, 2.0, 30.0, 10.0)
        ens = ensemble_of([tree], 1)
        sv = tree_shap(ens, np.array([np.nan]))
        # larger-cover child is the left leaf
        assert sv.margin == -1.0
        assert sv.contributions[0] == pytest.approx(-1.0 - (-0.25), abs=1e-12)


class TestOracleAgreement:
    def _model(self, seed=0, p=4, oblivious=False):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, p))
        eta = X[:, 0] - 0.7 * X[:, 1] + 0.5 * X[:, 0] * X[:, p - 1]
        y = (rng.random(300) < sigmoid(eta)).astype(int)
        cfg = BoostConfig(n_rounds=15, max_depth=3, validation_fraction=0.0)
        fit = fit_oblivious_boosting if oblivious else fit_gradient_boosting
        return fit(X, y, [f"f{i}" for i in range(p)], cfg), X

    def test_matches_brute_force_subsets(self):
        model, X = self._model()
        for row in X[:10]:
            fast = tree_shap(model, row)
            slow = brute_force_shapley(CoalitionEvaluator(model), row)
            assert np.max(np.abs(fast.contributions - slow.contributions)) < 1e-10
            assert fast.baseline == pytest.approx(slow.baseline, abs=1e-10)

    def test_matches_definition_oracle(self):
        model, X = self._model(1, p=3)
        ev = CoalitionEvaluator(model)
        for row in X[:5]:
            expect = shapley_by_definition(ev, row, 3)
            got = tree_shap(model, row).contributions
            assert np.max(np.abs(got - expect)) < 1e-10

    def test_oblivious_matches_brute_force(self):
        model, X = self._model(2, oblivious=True)
        for row in X[:8]:
            fast = tree_shap(model, row)
            slow = brute_force_shapley(CoalitionEvaluator(model), row)
            assert np.max(np.abs(fast.contributions - slow.contributions)) < 1e-10

    def test_additivity_over_many_rows(self):
        model, X = self._model(3)
        X = X.copy()
        X[::7, 2] = np.nan  # missing values keep additivity exact
        for row in X[:40]:
            sv = tree_shap(model, row)
            assert sv.additivity_gap() < 1e-10

    @staticmethod
    def _matrix_matches_brute_force(model, X):
        phi = shap_matrix(model, X)
        assert phi.shape == (len(X), model.n_features)
        ev = CoalitionEvaluator(model)
        for row, got in zip(X, phi):
            assert np.max(np.abs(got - brute_force_shapley(ev, row).contributions)) < 1e-10

    @staticmethod
    def _record_tables(monkeypatch):
        """The (paths, depth, quadrature nodes) of every path table built."""
        shapes = []

        class Recording(explain._PathTable):
            def __init__(self, *args):
                super().__init__(*args)
                shapes.append((*self.slot.shape, len(self.t)))

        monkeypatch.setattr(explain, "_PathTable", Recording)
        return shapes

    def test_matrix_batch_spans_chunks(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(600, 6))
        y = (rng.random(600) < sigmoid(X[:, 0] - X[:, 1])).astype(int)
        cfg = ForestConfig(n_trees=40, max_depth=12, min_samples_leaf=1)
        forest = fit_random_forest(X, y, [f"f{i}" for i in range(6)], cfg)
        paths = sum(t.n_leaves for t in forest.trees)
        depth = max(t.max_depth() for t in forest.trees)
        # one row's (paths x quadrature nodes x depth) temporaries alone exceed the budget
        assert paths * depth * ((depth + 1) // 2) > CHUNK_ELEMENTS
        shapes = self._record_tables(monkeypatch)
        self._matrix_matches_brute_force(forest, X[:6])
        assert len(shapes) > 1 and all(P * E * k <= CHUNK_ELEMENTS for P, E, k in shapes)
        assert sum(P for P, _, _ in shapes) == paths

    def test_matrix_tables_split_a_tree(self, monkeypatch):
        model, X = self._model(13, oblivious=True)  # 8 paths of depth 3 per tree
        monkeypatch.setattr(explain, "CHUNK_ELEMENTS", 30)
        shapes = self._record_tables(monkeypatch)
        self._matrix_matches_brute_force(model, X[:6])
        assert len(shapes) > len(model.trees) and all(P * E * k <= 30 for P, E, k in shapes)

    def test_matrix_paths_repeating_a_feature(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(300, 2))
        y = (rng.random(300) < sigmoid(np.sin(2 * X[:, 0]) + X[:, 0] * X[:, 1])).astype(int)
        cfg = BoostConfig(n_rounds=8, max_depth=5, min_samples_leaf=1, validation_fraction=0.0)
        model = fit_gradient_boosting(X, y, ["a", "b"], cfg)
        assert max(t.max_depth() for t in model.trees) > 2  # two features: deeper paths repeat one
        self._matrix_matches_brute_force(model, X[:12])

    def test_matrix_nan_rows(self):
        model, X = self._model(10)
        X = X[:12].copy()
        X[::2, 0] = np.nan
        X[::3, 1:3] = np.nan
        X[5] = np.nan
        self._matrix_matches_brute_force(model, X)

    def test_matrix_zero_cover_children(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 4))
        y = (rng.random(300) < sigmoid(2 * X[:, 0] - X[:, 1])).astype(int)
        weight = np.where(X[:, 0] > 0.5, 0.0, 1.0)
        cfg = BoostConfig(n_rounds=10, max_depth=4, min_samples_leaf=1, validation_fraction=0.0)
        model = fit_oblivious_boosting(X, y, list("abcd"), cfg, sample_weight=weight)
        assert any((t.cover == 0).any() for t in model.trees)
        probes = np.vstack([X[weight == 0][:6], X[weight == 1][:6]])
        self._matrix_matches_brute_force(model, probes)
        # uneven weights give each bootstrapped forest tree its own root cover
        uneven = np.where(weight == 0, 0.25, 1.0)
        forest = fit_random_forest(X, y, list("abcd"), ForestConfig(n_trees=10, max_depth=6), sample_weight=uneven)
        assert len({t.cover[0] for t in forest.trees}) > 1
        self._matrix_matches_brute_force(forest, probes)

    def test_matrix_single_leaf_forest_trees(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        deep = fit_random_forest(X, y, list("abc"), ForestConfig(n_trees=3, max_depth=4))
        leaves = fit_random_forest(X, y, list("abc"), ForestConfig(n_trees=3, max_depth=0))
        assert all(t.n_nodes == 1 for t in leaves.trees)
        self._matrix_matches_brute_force(leaves, X[:3])
        mixed = TreeEnsemble("random_forest", list("abc"), 0.0, 1 / 6, deep.trees + leaves.trees)
        self._matrix_matches_brute_force(mixed, X[:8])

    def test_random_forest_probability_space(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        forest = fit_random_forest(X, y, list("abc"), ForestConfig(n_trees=20, max_depth=4))
        for row in X[:10]:
            sv = tree_shap(forest, row)
            # forest margin is the averaged leaf probability
            assert sv.margin == pytest.approx(forest.predict_proba(row)[0], abs=1e-12)
            assert sv.additivity_gap() < 1e-10


def reference_path_shap(table, X):
    """The path kernel as first written: one fancy-index multiply per edge
    for the indicators, two `np.cumprod` calls for the slot products."""
    slot, zero = table.slot, table.zero
    follows = (table.forest.go_left(X[:, table.split], table.node) == table.goes_left) | table.pad
    one = np.ones(follows.shape)
    for e in range(slot.shape[1]):
        one[:, np.arange(len(slot)), slot[:, e]] *= follows[:, :, e]
    gain = one - zero
    line = gain[:, :, None] * table.t[:, None]  # (rows, paths, nodes, E)
    line += zero[:, None]
    before, after = np.ones_like(line), np.ones_like(line)
    np.cumprod(line[..., :-1], axis=-1, out=before[..., 1:])
    np.cumprod(line[..., :0:-1], axis=-1, out=after[..., -2::-1])
    before *= after
    return table.value[:, None] * gain * (table.w @ before)


class TestPathKernel:
    """`_PathTable.shap` gives the reference kernel's bytes."""

    @staticmethod
    def _models():
        rng = np.random.default_rng(21)
        X = rng.normal(size=(300, 4))
        X[::5, 1] = np.nan
        y = (rng.random(300) < sigmoid(2 * X[:, 0] - X[:, 2] + np.sin(2 * X[:, 3]))).astype(int)
        weight = np.where(X[:, 0] > 0.8, 0.0, 1.0)  # zero-cover nodes
        names = list("abcd")
        deep = BoostConfig(n_rounds=8, max_depth=5, min_samples_leaf=1, validation_fraction=0.0)  # 5 edges, 4 features
        models = {
            "oblivious": fit_oblivious_boosting(X, y, names, deep, sample_weight=weight),
            "plain": fit_gradient_boosting(X, y, names, deep, sample_weight=weight),
            "forest": fit_random_forest(X, y, names, ForestConfig(n_trees=8, max_depth=7), sample_weight=weight + 0.5),
        }
        probes = X[:20].copy()
        probes[::3, 0] = np.nan
        probes[4] = np.nan
        return models, probes

    def test_tables_cover_the_edge_cases(self):
        models, probes = self._models()
        tables = [t for m in models.values() for t in explain._path_tables(m)]
        assert any(t.pad.any() for t in tables)  # unequal-depth paths
        assert any(((t.slot != np.arange(t.slot.shape[1])) & ~t.pad).any() for t in tables)  # a feature split twice on a path
        assert any((t.zero == 0).any() for t in tables)  # a zero-cover node
        assert np.isnan(probes).all(axis=1).any() and np.isnan(probes).any(axis=1).sum() > 1

    @pytest.mark.parametrize("kind", ["oblivious", "plain", "forest"])
    def test_single_rows_and_batches(self, kind):
        models, probes = self._models()
        for table in explain._path_tables(models[kind]):
            for rows in [probes[i : i + 1] for i in range(5)] + [probes]:
                assert table.shap(rows).tobytes() == reference_path_shap(table, rows).tobytes()

    @pytest.mark.parametrize("kind", ["oblivious", "plain", "forest"])
    def test_matrix_in_small_chunks(self, kind, monkeypatch):
        models, probes = self._models()
        monkeypatch.setattr(explain, "CHUNK_ELEMENTS", 40)
        fast = shap_matrix(models[kind], probes)
        assert len(explain._path_tables(models[kind])) > len(models[kind].trees)
        monkeypatch.setattr(explain._PathTable, "shap", reference_path_shap)  # on the same small tables
        assert fast.tobytes() == shap_matrix(models[kind], probes).tobytes()


class TestAxioms:
    def test_null_player_is_exactly_zero(self):
        tree = stump(0, 0.0, -1.0, 1.0, 5.0, 5.0)
        ens = ensemble_of([tree], 5)
        sv = tree_shap(ens, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert all(sv.contributions[j] == 0.0 for j in range(1, 5))

    def test_unused_feature_is_exactly_zero_in_matrix(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.normal(size=(120, 2)), np.ones(120)])  # no tree can split "c"
        y = (X[:, 0] > 0).astype(int)
        cfg = BoostConfig(n_rounds=10, max_depth=2, validation_fraction=0.0)
        model = fit_gradient_boosting(X, y, ["a", "b", "c"], cfg)
        assert 2 not in {f for t in model.trees for f in t.used_features()}
        phi = shap_matrix(model, X[:20])
        assert np.all(phi[:, 2] == 0.0)
        assert np.any(phi[:, 0] != 0.0)

    def test_symmetric_players_get_equal_credit(self):
        # two identical stumps on different features, identical x values
        a = stump(0, 0.0, -1.0, 1.0, 5.0, 5.0)
        b = stump(1, 0.0, -1.0, 1.0, 5.0, 5.0)
        ens = ensemble_of([a, b], 2)
        sv = tree_shap(ens, np.array([0.7, 0.7]))
        assert sv.contributions[0] == pytest.approx(sv.contributions[1], abs=1e-12)

    def test_duplicated_tree_doubles_contributions(self):
        tree = stump(0, 0.0, -2.0, 3.0, 4.0, 6.0)
        single = ensemble_of([tree], 2)
        double = ensemble_of([tree, tree], 2)
        x = np.array([-1.0, 0.0])
        assert np.allclose(
            2 * tree_shap(single, x).contributions, tree_shap(double, x).contributions, atol=1e-12
        )
        single.trees.append(tree)  # the warm memo of one tree must not answer for two
        assert shap_matrix(single, x).tobytes() == shap_matrix(double, x).tobytes()

    def test_empty_ensemble(self):
        ens = ensemble_of([], 3, base=0.4)
        sv = tree_shap(ens, np.zeros(3))
        assert sv.baseline == 0.4
        assert np.all(sv.contributions == 0.0)
        assert sv.margin == pytest.approx(0.4)

    def test_linearity_in_learning_rate(self):
        tree = stump(1, 0.0, 1.0, -1.0, 2.0, 8.0)
        slow = ensemble_of([tree], 2, lr=0.1)
        fast = ensemble_of([tree], 2, lr=0.2)
        x = np.array([0.0, -1.0])
        assert np.allclose(
            2 * tree_shap(slow, x).contributions, tree_shap(fast, x).contributions, atol=1e-12
        )


class TestGlobalImportance:
    def test_planted_signal_ranks_first(self):
        X, y, names = planted_signal_dataset(n=500, p=8, seed=0)
        cfg = BoostConfig(n_rounds=40, max_depth=3, validation_fraction=0.0)
        model = fit_gradient_boosting(X, y, names, cfg)
        imp = global_importance(names, shap_matrix(model, X[:100]))
        # f00 carries the largest planted coefficient
        assert imp.ranking()[0][0] == "f00"

    def test_ties_break_by_column_order(self):
        imp = GlobalImportance(["b_col", "a_col"], np.array([1.0, 1.0]))
        assert [n for n, _ in imp.ranking()] == ["b_col", "a_col"]

    def test_empty_rows_rejected(self):
        tree = stump(0, 0.0, -1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            global_importance(["f0"], shap_matrix(ensemble_of([tree], 1), np.empty((0, 1))))


class TestReportPayloads:
    def _tiny_model(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 3))
        y = (X[:, 0] > 0).astype(int)
        cfg = BoostConfig(n_rounds=10, max_depth=2, validation_fraction=0.0)
        return fit_gradient_boosting(X, y, ["a", "b", "c"], cfg), X

    def test_waterfall_sums_and_probability_labels(self):
        model, X = self._tiny_model()
        wf = waterfall_data(model, X[0])
        total = wf["baseline"] + sum(c["shap"] for c in wf["contributions"])
        assert total == pytest.approx(wf["margin"], abs=1e-10)
        assert wf["probability"] == pytest.approx(float(sigmoid(wf["margin"])), abs=1e-12)
        mags = [abs(c["shap"]) for c in wf["contributions"]]
        assert mags == sorted(mags, reverse=True)

    @pytest.mark.parametrize("kind", ["random_forest", "gradient_boosting", "oblivious_boosting"])
    def test_waterfall_probability_is_predict_proba(self, kind):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 3))
        y = (X[:, 0] + 0.5 * rng.normal(size=120) > 0).astype(int)
        if kind == "random_forest":
            params = {"n_trees": 10, "max_depth": 4}
        else:
            params = {"n_rounds": 10, "max_depth": 2, "validation_fraction": 0.0}
        model = fit_model(ModelSpec(kind, params), TrainSplit(X, y, list("abc"))).model
        space = "probability" if kind == "random_forest" else "log-odds"
        for row in X[:20]:
            wf = waterfall_data(model, row)
            assert wf["probability"] == model.predict_proba(row)[0]
            assert wf["baseline_probability"] == float(model.link(wf["baseline"]))
            assert wf["additivity_space"].startswith(f"margin ({space})")

    def test_waterfall_ties_keep_feature_order(self):
        # f0 and f2 tie at |phi| = 1 with opposite signs; f1 and f3 are unused and get exactly 0.0
        ens = ensemble_of([stump(2, 0.5, 1.0, -1.0, 10.0, 10.0), stump(0, 0.5, -1.0, 1.0, 10.0, 10.0)], 4)
        for x, shap in ((np.zeros(4), [-1.0, 1.0, 0.0, 0.0]), (np.ones(4), [1.0, -1.0, 0.0, 0.0])):
            wf = waterfall_data(ens, x)
            assert [c["feature"] for c in wf["contributions"]] == ["f0", "f2", "f1", "f3"]
            assert [c["shap"] for c in wf["contributions"]] == shap

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0]), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_waterfall_order_is_python_sorted_order(self, phi):
        # exact ties of both signs and ±0.0 keep feature order, as a Python sort with an index key does
        p = len(phi)
        ens = ensemble_of([stump(0, 0.5, -1.0, 1.0, 10.0, 10.0)], p)
        sv = explain.ShapValues(0.0, np.array(phi), sum(phi), np.zeros(p), ens.feature_names)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(explain, "tree_shap", lambda ensemble, x: sv)
            contributions = waterfall_data(ens, np.zeros(p))["contributions"]
        order = sorted(range(p), key=lambda j: (-abs(phi[j]), j))
        assert [c["feature"] for c in contributions] == [f"f{j}" for j in order]
        assert [repr(c["shap"]) for c in contributions] == [repr(phi[j]) for j in order]

    def test_summary_orders_by_importance(self):
        model, X = self._tiny_model()
        data = summary_data(model.feature_names, X[:30], shap_matrix(model, X[:30]))
        means = [np.mean(np.abs(f["shap"])) for f in data["features"]]
        assert means == sorted(means, reverse=True)
        assert data["features"][0]["feature"] == "a"

    def test_brute_force_guard(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(600, 25))
        y = (X.sum(axis=1) > 0).astype(int)
        cfg = BoostConfig(n_rounds=60, max_depth=6, min_samples_leaf=1, validation_fraction=0.0)
        model = fit_gradient_boosting(X, y, [f"f{i}" for i in range(25)], cfg)
        largest = max(len(t.used_features()) for t in model.trees)
        if largest > 20:
            with pytest.raises(ValueError, match="brute force"):
                brute_force_shapley(CoalitionEvaluator(model), X[0])
        else:  # deep trees usually cross 20 distinct features; tolerate luck
            brute_force_shapley(CoalitionEvaluator(model), X[0])


class TestSchema:
    def test_matrix_rejects_other_column_counts(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(120, 4))
        model = fit_gradient_boosting(X, (X[:, 0] > 0).astype(int), list("abcd"), BoostConfig(n_rounds=5, validation_fraction=0.0))
        for width in (8, 2):
            with pytest.raises(ValueError, match=f"expected 4 feature columns, got {width}"):
                shap_matrix(model, rng.normal(size=(3, width)))
            with pytest.raises(ValueError, match=f"expected 4 feature columns, got {width}"):
                model.margin(rng.normal(size=(3, width)))


def tree_shap_bytes(model, x):
    sv = tree_shap(model, x)
    return np.r_[sv.baseline, sv.margin, sv.contributions].tobytes()


class TestPreparedModel:
    """The stack, path tables, zero-cover check and baseline are built once per
    list of trees and read by every later call."""

    def _model(self, seed=14):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 4))
        X[::6, 1] = np.nan
        y = (rng.random(300) < sigmoid(X[:, 0] - X[:, 2])).astype(int)
        cfg = BoostConfig(n_rounds=12, max_depth=3, validation_fraction=0.0)
        return fit_oblivious_boosting(X, y, list("abcd"), cfg), X[:15]

    @staticmethod
    def _fresh(model):
        return TreeEnsemble(model.kind, list(model.feature_names), model.base_score, model.learning_rate, list(model.trees))

    # The bytes of each memo reader on rows X.
    READERS = {
        "shap_matrix": lambda m, X: shap_matrix(m, X).tobytes(),
        "margin": lambda m, X: m.margin(X).tobytes(),
        "tree_shap": lambda m, X: tree_shap_bytes(m, X[0]),
    }

    @staticmethod
    def _account_model(model, X):
        """model as the explain stage sees it, with one account per row of X."""
        matrix = FeatureMatrix([f"A{i:04d}" for i in range(len(X))], list(model.feature_names), X, np.arange(len(X)) % 2)
        return FittedModel(ModelSpec("oblivious_boosting"), model, np.zeros(model.n_features)), matrix

    def _outputs(self, model, X):
        return {name: read(model, X) for name, read in self.READERS.items()}

    def _cold(self, model, X):
        """Each reader's bytes from the first call on its own fresh copy of model."""
        return {name: read(self._fresh(model), X) for name, read in self.READERS.items()}

    def test_warm_calls_give_the_cold_bytes(self):
        model, X = self._model()
        cold = self._cold(model, X)
        assert self._outputs(model, X) == cold
        assert model._prepared is not None and model._prepared.tables
        assert self._outputs(model, X) == cold

    def test_changed_ensemble_matches_a_fresh_one(self):
        model, X = self._model()
        other, _ = self._model(15)
        changes = {
            "append": lambda m: m.trees.append(other.trees[0]),
            "truncate": lambda m: setattr(m, "trees", m.trees[:4]),
            "replace": lambda m: setattr(m, "trees", list(other.trees)),
            "same tree twice": lambda m: m.trees.append(m.trees[0]),
            "learning_rate": lambda m: setattr(m, "learning_rate", 0.37),
            "base_score": lambda m: setattr(m, "base_score", 0.75),
        }
        for name, change in changes.items():
            self._outputs(model, X)  # warm before each change
            change(model)
            assert self._outputs(model, X) == self._cold(model, X), name

    def test_trees_without_cover_are_refused_on_every_call(self):
        ens = ensemble_of([stump(0, 0.0, -1.0, 1.0, 0.0, 0.0)], 1)
        for _ in range(2):
            with pytest.raises(ValueError, match="training cover"):
                shap_matrix(ens, np.zeros((1, 1)))
        assert ens.margin(np.zeros((1, 1)))[0] == 1.0  # prediction needs no cover

    def test_account_files_are_the_same_cold_and_warm(self, tmp_path):
        model, X = self._model()
        fitted, matrix = self._account_model(model, X)
        assert model._prepared is None
        for out in ("cold", "warm"):
            pipeline.explain_account(fitted, matrix, "A0003", tmp_path / out)
        for name in ("waterfall_A0003.json", "waterfall_A0003.svg"):
            assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()

    def test_first_account_stacks_once_and_later_ones_build_nothing(self, tmp_path, monkeypatch):
        model, X = self._model()
        path = tmp_path / "model.json"
        pipeline._write_json(path, {**model.to_dict(), "stamp": pipeline.PipelineConfig().stamp()})  # as `train` writes it
        loaded = TreeEnsemble.load(path)
        counts = {"stack": 0, "tables": 0}
        stack = ensemble.stack

        def counting_stack(trees):
            counts["stack"] += 1
            return stack(trees)

        class CountingTable(explain._PathTable):
            def __init__(self, *args):
                counts["tables"] += 1
                super().__init__(*args)

        monkeypatch.setattr(ensemble, "stack", counting_stack)
        monkeypatch.setattr(explain, "_PathTable", CountingTable)
        fitted, matrix = self._account_model(loaded, X)
        pipeline.explain_account(fitted, matrix, "A0003", tmp_path / "out")
        assert counts == {"stack": 1, "tables": 1}
        pipeline.explain_account(fitted, matrix, "A0004", tmp_path / "out")
        fitted.predict_proba(X)
        assert counts == {"stack": 1, "tables": 1}
