import warnings

import numpy as np
import pytest

from creditshap.features import FeatureMatrix
from creditshap.pipeline import PipelineConfig, select_stage
from creditshap.selection import (
    SCREEN_MARGIN,
    _pairwise_pearson,
    _screened_pearson,
    correlation_prune,
    drop_constant,
    missing_fraction,
    prune_missing,
    select_top_k_by_shap,
)


def matrix(columns, values):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(
        [f"r{i}" for i in range(values.shape[0])], columns, values, np.zeros(values.shape[0], dtype=int)
    )


class TestDropConstant:
    def test_all_sevens_removed(self):
        m = matrix(["c", "v"], [[7, 1], [7, 2], [7, 3]])
        assert drop_constant(m) == {"c": "constant"}

    def test_constant_with_missing_removed(self):
        m = matrix(["c"], [[7], [np.nan], [7]])
        assert "c" in drop_constant(m)

    def test_varying_kept(self):
        m = matrix(["a", "b"], [[1, 2], [2, 2.5], [3, 9]])
        assert drop_constant(m) == {}

    def test_edge_columns_match_a_per_column_unique(self):
        # all-NaN, signed zeros (one distinct value), infinities alone and with a finite value
        nan, inf = np.nan, np.inf
        rows = [[nan, 0.0, inf, -inf, 1.0, 2.0], [nan, -0.0, inf, inf, nan, 2.0], [nan, 0.0, nan, nan, inf, nan]]
        m = matrix(list("abcdef"), rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            removed = drop_constant(m)
        unique = [np.unique(col[~np.isnan(col)]).size for col in m.values.T]
        assert removed == {c: "constant" for c, u in zip(m.columns, unique) if u <= 1}
        assert [c for c in m.columns if c not in removed] == ["d", "e"]


class TestMissingFraction:
    def test_matches_a_per_column_count(self):
        rng = np.random.default_rng(3)
        values = np.where(rng.random((37, 9)) < 0.3, np.nan, rng.integers(-1, 2, size=(37, 9)).astype(float))
        m = matrix([f"c{j}" for j in range(9)], values)
        for zero in (False, True):
            bad = np.isnan(values) | (zero & (values == 0.0))
            want = {c: float(bad[:, j].sum()) / 37 for j, c in enumerate(m.columns)}
            got = missing_fraction(m, treat_zero_as_missing=zero)
            assert got == want and all(type(v) is float for v in got.values())

    def test_zero_as_missing_boundary_kept(self):
        m = matrix(["a"], [[0], [np.nan], [3], [4]])
        fr = missing_fraction(m, treat_zero_as_missing=True)
        assert fr["a"] == 0.5
        assert prune_missing(m, threshold=0.5, treat_zero_as_missing=True) == {}  # strict >, so 0.5 survives

    def test_fully_missing_removed(self):
        m = matrix(["a", "b"], [[np.nan, 1], [np.nan, 2]])
        assert prune_missing(m) == {"a": "missing(fraction=1.0000)"}

    def test_flag_off_ignores_zeros(self):
        m = matrix(["a"], [[0], [0], [0], [4]])
        assert missing_fraction(m, treat_zero_as_missing=False)["a"] == 0.0
        assert missing_fraction(m, treat_zero_as_missing=True)["a"] == 0.75


class TestCorrelationPrune:
    def test_identical_pair_drops_second(self):
        m = matrix(["a", "b"], [[1, 1], [2, 2], [3, 3]])
        out, report = correlation_prune(m)
        assert out.columns == ["a"]
        assert "r=1.0" in report.removed["b"]

    def test_three_identical_keep_first(self):
        # ordered-pair scan hand-trace: (a,b) removes b, (a,c) removes c
        m = matrix(["a", "b", "c"], [[1, 1, 1], [2, 2, 2], [3, 3, 3]])
        out, report = correlation_prune(m)
        assert out.columns == ["a"]
        assert set(report.removed) == {"b", "c"}
        assert "with=a" in report.removed["b"]
        assert "with=a" in report.removed["c"]

    def test_no_surviving_pair_exceeds_threshold(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(60, 4))
        cols = np.hstack([base, base[:, :2] + rng.normal(scale=1e-4, size=(60, 2))])
        m = matrix([f"c{i}" for i in range(6)], cols)
        out, _ = correlation_prune(m, threshold=0.95)
        for i in range(len(out.columns)):
            for j in range(i + 1, len(out.columns)):
                r = np.corrcoef(out.values[:, i], out.values[:, j])[0, 1]
                assert abs(r) <= 0.95

    def test_anticorrelation_counts(self):
        m = matrix(["a", "b"], [[1, -1], [2, -2], [3, -3]])
        out, _ = correlation_prune(m)
        assert out.columns == ["a"]

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(30, 5))
        vals[:, 4] = vals[:, 0]
        m = matrix(list("abcde"), vals)
        r1 = correlation_prune(m)[1].removed
        r2 = correlation_prune(m)[1].removed
        assert r1 == r2

    def test_duplicated_27_removed_79_kept(self):
        # mimic the 106-column grid with 27 duplicate descendants
        rng = np.random.default_rng(7)
        base = rng.normal(size=(200, 79))
        dup = base[:, :27]
        vals = np.hstack([base, dup])
        m = matrix([f"k{i}" for i in range(106)], vals)
        out, report = correlation_prune(m, threshold=0.95)
        assert len(report.removed) == 27
        assert len(out.columns) == 79


def pair_loop_prune(m, threshold):
    """The exact pair loop the screen replaces: every ordered pair scored by _pairwise_pearson."""
    cols = m.columns
    removed, reasons = set(), {}
    for i in range(len(cols)):
        if i in removed:
            continue
        for j in range(i + 1, len(cols)):
            if j in removed:
                continue
            r = _pairwise_pearson(m.values[:, i], m.values[:, j])
            if abs(r) > threshold:
                removed.add(j)
                reasons[cols[j]] = f"correlated(with={cols[i]}, r={r:.4f})"
    return reasons, [c for k, c in enumerate(cols) if k not in removed]


def with_r(x, rho, rng):
    """A column whose Pearson r with x is rho, up to rounding."""
    xc = (x - x.mean()) / np.linalg.norm(x - x.mean())
    e = rng.normal(size=x.size)
    e -= e.mean() + (e @ xc) * xc
    return rho * xc + np.sqrt(1 - rho**2) * e / np.linalg.norm(e)


def adversarial(kind, rng, n=120):
    """Columns built to strain a Gram-matrix screen of pairwise-complete r."""
    if kind == "large_offset":
        base = rng.normal(size=(n, 3))
        cols = [base[:, 0], base[:, 0] + 0.05 * base[:, 1], base[:, 1], base[:, 2] - 0.4 * base[:, 0], base[:, 0]]
        return 1e9 + 1e-3 * np.column_stack(cols)
    if kind == "half_missing":
        vals = rng.normal(size=(n, 6))
        vals[:, 1] = vals[:, 0] + 0.1 * vals[:, 1]
        vals[: n // 2, 0] = np.nan
        vals[n // 2 :, 2] = np.nan  # disjoint from column 0
        vals[: n // 2 - 2, 3] = np.nan  # two rows shared with column 2
        vals[n // 2 - 3 :, 4] = np.nan  # three rows shared with column 3
        vals[rng.random(n) < 0.5, 5] = np.nan
        vals[:, 5] = np.where(np.isnan(vals[:, 5]), np.nan, vals[:, 1])
        return vals
    if kind == "constant_on_joint_rows":
        vals = rng.normal(size=(n, 5))
        vals[: n // 2, 1] = 4.0  # constant where column 2 is present
        vals[n // 2 :, 2] = np.nan
        vals[:, 3] = np.nan
        vals[:3, 3] = [1.0, 1.0, 1.0]
        # nearly constant on the joint rows, far from its column mean, and perfectly correlated there
        vals[-3:, 0] = 30.0 + 1e-7 * np.arange(3)
        vals[:, 4] = np.nan
        vals[-3:, 4] = 2.0 * vals[-3:, 0]
        return vals
    if kind == "duplicated_negated":
        base = rng.normal(size=(n, 3))
        return np.column_stack([base[:, 0], -base[:, 0], base[:, 1], base[:, 0], 3 - 2 * base[:, 1], base[:, 2], -base[:, 2]])
    if kind == "near_threshold":
        x = rng.normal(size=n)
        cols = [x]
        for d in (1e-10, -1e-10, 2e-10, -2e-10):
            cols.append(with_r(x, 0.95 + d, rng))
        vals = np.column_stack(cols)
        gap = rng.random(n) < 0.3  # the pairs' joint rows stop at the NaNs
        vals[gap, 2] = np.nan
        vals[~gap, 2] = with_r(x[~gap], 0.95 - 1e-10, rng)
        return vals
    if kind == "all_missing":
        vals = rng.normal(size=(n, 3))
        vals[:, 1] = np.nan
        vals[:, 2] = vals[:, 0]
        return vals
    raise ValueError(kind)


ADVERSARIAL = ["large_offset", "half_missing", "constant_on_joint_rows", "duplicated_negated", "near_threshold", "all_missing"]


class TestScreenMatchesPairLoop:
    @pytest.mark.parametrize("kind", ADVERSARIAL)
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 0.95, 1.0])
    def test_same_removals_in_order(self, kind, threshold):
        for seed in range(3):
            vals = adversarial(kind, np.random.default_rng(seed))
            m = matrix([f"c{j}" for j in range(vals.shape[1])], vals)
            out, report = correlation_prune(m, threshold)
            reasons, surviving = pair_loop_prune(m, threshold)
            assert list(report.removed.items()) == list(reasons.items()), (kind, threshold, seed)
            assert report.surviving == surviving == out.columns

    @pytest.mark.parametrize("kind", ADVERSARIAL + [1e6, 1e11, 1e13])
    def test_screen_within_margin_where_trusted(self, kind):
        rng = np.random.default_rng(4)
        if isinstance(kind, float):  # an offset this large leaves the exact formula's mean a few ulps off
            base = rng.normal(size=(300, 3))
            vals = kind + 1e-3 * np.column_stack([base[:, 0], base[:, 0] + 0.3 * base[:, 1], base[:, 2]])
        else:
            vals = adversarial(kind, rng)
        screened = _screened_pearson(vals)
        for i in range(vals.shape[1]):
            for j in range(vals.shape[1]):
                if not np.isnan(screened[i, j]):
                    assert abs(screened[i, j] - _pairwise_pearson(vals[:, i], vals[:, j])) <= SCREEN_MARGIN

    def test_near_threshold_pairs_straddle_it(self):
        # the built r = 0.95 ± 1e-10 pairs are decided by the exact r, one each way
        vals = adversarial("near_threshold", np.random.default_rng(0))
        m = matrix([f"c{j}" for j in range(vals.shape[1])], vals)
        _, report = correlation_prune(m, 0.95)
        assert set(report.removed) == {"c1", "c3"}

    def test_ledger_grid_matches(self, tmp_path):
        from creditshap.pipeline import featurize_stage, ingest_stage
        from creditshap.synthetic import write_ledger_fixture

        m = featurize_stage(ingest_stage(write_ledger_fixture(tmp_path, n_accounts=80, seed=2)))
        for threshold in (0.5, 0.95):
            _, report = correlation_prune(m, threshold)
            assert list(report.removed.items()) == list(pair_loop_prune(m, threshold)[0].items())


class TestTopK:
    def test_identity_when_k_is_all(self):
        m = matrix(["a", "b"], [[1, 2], [3, 4]])
        assert select_top_k_by_shap(m, {"a": 1.0, "b": 0.5}, k=2).columns == ["a", "b"]

    def test_largest_importances_win(self):
        m = matrix(["a", "b", "c"], [[1, 2, 3], [4, 5, 6]])
        assert select_top_k_by_shap(m, {"a": 3, "b": 1, "c": 2}, k=2).columns == ["a", "c"]

    def test_order_preserved(self):
        m = matrix(["a", "b", "c"], [[1, 2, 3], [4, 5, 6]])
        assert select_top_k_by_shap(m, {"c": 9, "a": 5, "b": 1}, k=2).columns == ["a", "c"]

    def test_k_too_large(self):
        m = matrix(["a"], [[1], [2]])
        with pytest.raises(ValueError):
            select_top_k_by_shap(m, {"a": 1}, k=2)


def chained_select(m, missing_threshold, zero_as_missing, correlation_threshold):
    """The stage as three reports: each check runs on the previous check's subset, with a
    per-column unique and count, and the reports merge with dict.update in check order."""
    constant = {c: "constant" for c, col in zip(m.columns, m.values.T) if np.unique(col[~np.isnan(col)]).size <= 1}
    m1 = m.subset_columns([c for c in m.columns if c not in constant])
    missing = {}
    for c, col in zip(m1.columns, m1.values.T):
        fraction = float((np.isnan(col) | (zero_as_missing & (col == 0.0))).sum()) / len(col)
        if fraction > missing_threshold:
            missing[c] = f"missing(fraction={fraction:.4f})"
    m2 = m1.subset_columns([c for c in m1.columns if c not in missing])
    correlated, surviving = pair_loop_prune(m2, correlation_threshold)
    removed = {}
    for step in (constant, missing, correlated):
        removed.update(step)
    return m2.subset_columns(surviving), removed


def mixed_columns(rng, n):
    """Columns of every kind the checks remove: constant, all-NaN, constant on few rows,
    zero-heavy, missing-heavy, duplicated and negated ones, among plain normal ones."""
    base = rng.normal(size=(n, 6))
    sparse = np.where(rng.random((n, 2)) < 0.7, np.nan, rng.normal(size=(n, 2)))
    zeros = np.where(rng.random((n, 2)) < 0.6, 0.0, rng.normal(size=(n, 2)))
    few = np.full(n, np.nan)
    few[: max(1, n // 10)] = 3.0
    cols = [base[:, 0], np.full(n, 7.0), base[:, 1], np.full(n, np.nan), sparse[:, 0], zeros[:, 0], base[:, 0] * 2 + 1,
            few, base[:, 2], -base[:, 1], zeros[:, 1], base[:, 3] + 0.3 * base[:, 2], sparse[:, 1], np.zeros(n),
            base[:, 4], base[:, 5], zeros[:, 0]]
    vals = np.column_stack(cols)
    vals[rng.random(vals.shape) < 0.05] = np.nan
    return vals[:, rng.permutation(vals.shape[1])]


class TestSelectStage:
    @pytest.mark.parametrize("zero_as_missing", [False, True])
    @pytest.mark.parametrize("missing_threshold", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("correlation_threshold", [0.7, 0.95])
    def test_matches_the_chained_checks(self, zero_as_missing, missing_threshold, correlation_threshold):
        config = PipelineConfig(
            zero_as_missing=zero_as_missing, missing_threshold=missing_threshold, correlation_threshold=correlation_threshold
        )
        for seed in range(4):
            rng = np.random.default_rng(seed)
            vals = mixed_columns(rng, int(rng.integers(8, 90)))
            m = FeatureMatrix([f"r{i}" for i in range(len(vals))], [f"c{j}" for j in range(vals.shape[1])], vals,
                              rng.integers(0, 2, size=len(vals)))
            pruned, report = select_stage(m, config)
            want, removed = chained_select(m, missing_threshold, zero_as_missing, correlation_threshold)
            assert list(report.removed.items()) == list(removed.items()), seed
            assert report.surviving == pruned.columns == want.columns
            assert pruned.values.tobytes() == want.values.tobytes()
            assert pruned.row_ids == want.row_ids and np.array_equal(pruned.y, want.y)
            assert report.settings == config.settings("selection.json")

    def test_constant_and_missing_column_is_reported_constant(self):
        nan = np.nan
        m = matrix(["m", "c", "v"], [[1, 7, 1], [2, nan, 2], [nan, nan, 0], [nan, nan, 5], [nan, 7, 3]])
        pruned, report = select_stage(m, PipelineConfig(missing_threshold=0.5))
        assert list(report.removed.items()) == [("c", "constant"), ("m", "missing(fraction=0.6000)")]
        assert report.surviving == pruned.columns == ["v"]
