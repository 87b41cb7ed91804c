import datetime
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from creditshap.features import (
    BAL_STATS,
    CANONICAL_WINDOWS,
    DIRECTIONS,
    TRX_STATS,
    FeatureMatrix,
    WindowSpec,
    account_features,
    balance_stats,
    build_feature_matrix,
    drop_inactive_accounts,
    fit_scaler,
    kpi_columns,
    median_impute,
    standardize,
    transaction_stats,
    window_slice,
)
from creditshap.pipeline import ingest_stage
from creditshap.synthetic import write_ledger_fixture
from creditshap.tables import (
    AccountRecord,
    ClientRecord,
    DataError,
    LoanOutcome,
    TransactionRecord,
    join_bundle,
    reconstruct_balances,
    reconstruct_bundle_balances,
)

APP = datetime.date(2024, 6, 1)
SNAPSHOT = APP + datetime.timedelta(days=10)


def days_before(n):
    return APP - datetime.timedelta(days=n)


def make_bundle(per_account_txns, balances=None):
    """per_account_txns: {acc: [(days_before_app, cents), ...]}"""
    accounts, outcomes, txns = [], [], []
    tid = 0
    for acc, events in per_account_txns.items():
        accounts.append(AccountRecord(acc, (balances or {}).get(acc, 0), SNAPSHOT))
        outcomes.append(LoanOutcome(acc, APP, 0))
        for n, cents in events:
            txns.append(TransactionRecord(f"T{tid}", acc, days_before(n), cents))
            tid += 1
    bundle = join_bundle([ClientRecord("C", a.account_id) for a in accounts], accounts, txns, outcomes)
    reconstruct_bundle_balances(bundle)
    return bundle


# The oracle: the featurizer written one column at a time, with a
# (stat, direction) dispatch per column, the window's days as a date list
# and one balance_on call per day.


def aggregate_transactions(amounts, stat: str, direction: str) -> float:
    if direction == "incoming":
        vals = [a for a in amounts if a > 0]
    elif direction == "outgoing":
        vals = [a for a in amounts if a < 0]
    else:
        vals = list(amounts)
    if stat == "count":
        return float(len(vals))
    if not vals:
        return math.nan
    if stat == "min":
        return float(min(vals))
    if stat == "max":
        return float(max(vals))
    if stat == "sum":
        return float(sum(vals))
    if stat == "mean":
        return sum(vals) / len(vals)
    if stat == "std":
        m = sum(vals) / len(vals)
        return math.sqrt(sum((v - m) ** 2 for v in vals) / len(vals))
    raise ValueError(f"unknown transaction stat {stat!r}")


def aggregate_balance(balances, stat: str) -> float:
    if len(balances) == 0:
        return math.nan
    b = [float(v) for v in balances]
    if stat == "var":
        return b[-1] - b[0]
    if stat == "max_pos":
        return max(0.0, max(b))
    if stat == "max_neg":
        return abs(min(0.0, min(b)))
    if stat == "min":
        return min(b)
    if stat == "max":
        return max(b)
    if stat == "mean":
        return sum(b) / len(b)
    if stat == "std":
        m = sum(b) / len(b)
        return math.sqrt(sum((v - m) ** 2 for v in b) / len(b))
    if stat == "slope":
        n = len(b)
        if n == 1:
            return 0.0
        t = np.arange(n, dtype=float)
        t -= t.mean()
        y = np.asarray(b)
        return float(np.dot(t, y - y.mean()) / np.dot(t, t))
    raise ValueError(f"unknown balance stat {stat!r}")


def oracle_row(bundle, acc_id) -> list[float]:
    app_date = bundle.outcomes[acc_id].application_date
    txns = bundle.transactions[acc_id]
    series = bundle.balances[acc_id]
    row = []
    for spec in CANONICAL_WINDOWS:
        amounts = [t.amount for t in txns if spec.lo <= (app_date - t.date).days < spec.hi]
        for stat in TRX_STATS:
            for direction in DIRECTIONS:
                row.append(aggregate_transactions(amounts, stat, direction))
        days = [app_date - datetime.timedelta(days=o) for o in range(spec.hi - 1, spec.lo - 1, -1)]
        in_series = [d for d in days if series.start_date <= d <= series.end_date]
        balances = [series.balance_on(d) for d in in_series]
        for stat in BAL_STATS:
            row.append(aggregate_balance(balances, stat))
    horizon = [t for t in txns if 0 <= (app_date - t.date).days < 120]
    row.append(float(len(horizon)))
    row.append(float(len({t.date for t in horizon})))
    return row


def assert_matches_oracle(bundle, acc_id):
    """Every column bit for bit; float.hex tells -0.0 from 0.0 and makes NaN equal NaN."""
    got, want = account_features(bundle, acc_id), oracle_row(bundle, acc_id)
    assert len(got) == len(want) == len(kpi_columns())
    for name, g, w in zip(kpi_columns(), got, want):
        assert float(g).hex() == float(w).hex(), (acc_id, name, g, w)


class TestFeaturizerOracle:
    def test_every_account_of_a_generated_ledger(self, tmp_path):
        write_ledger_fixture(tmp_path, 150, seed=0)
        bundle = ingest_stage(tmp_path)
        assert len(bundle.labeled_account_ids) == 150
        for acc_id in bundle.labeled_account_ids:
            assert_matches_oracle(bundle, acc_id)

    @pytest.mark.parametrize("events", [
        [],  # every window empty
        [(5, 1000)],  # one transaction; three empty windows
        [(3, 500), (10, 700), (10, 700), (20, 900)],  # only incoming
        [(33, -500), (40, -1250), (58, -1)],  # only outgoing
        [(5, 100), (35, -200), (65, 300), (95, -400)],  # one transaction per window
        [(-10, 3000), (-3, -1000), (0, 70), (2, 250)],  # dated between application and snapshot
        [(29, 11), (30, -13), (59, 17), (60, -19), (89, 23), (90, -29), (119, 31), (120, -37), (140, 41)],
        [(1, 12345), (1, -6789), (7, 333), (44, -98765), (77, 5), (101, -5), (118, 250000)],
    ])
    @pytest.mark.parametrize("snapshot_balance", [0, -5000, 123456])
    def test_hand_built_accounts(self, events, snapshot_balance):
        bundle = make_bundle({"A1": events}, {"A1": snapshot_balance})
        assert_matches_oracle(bundle, "A1")

    @pytest.mark.parametrize("start", [100, 45, 30, 29, 1, 0, -5])
    def test_series_starting_inside_the_horizon(self, start):
        # start days before the application; -5 starts the series after it
        events = [(2, 400), (25, -150), (31, 900), (50, -75), (95, 60)]
        bundle = make_bundle({"A1": events}, {"A1": 2500})
        account = bundle.accounts["A1"]
        series = reconstruct_balances(account, bundle.transactions["A1"], days_before(start))
        bundle.balances["A1"] = series
        assert_matches_oracle(bundle, "A1")

    def test_missing_series_is_data_error(self):
        bundle = make_bundle({"A1": [(5, 1000)]})
        del bundle.balances["A1"]
        with pytest.raises(DataError, match="balances not reconstructed"):
            account_features(bundle, "A1")


class TestWindowSlice:
    # window_slice takes day offsets before the application, so days_before(n) is offset n
    def test_inside_last30(self):
        spec = CANONICAL_WINDOWS[0]
        assert window_slice([15], spec) == [0]

    def test_boundary_goes_to_next_window(self):
        d = [30]
        assert window_slice(d, CANONICAL_WINDOWS[0]) == []
        assert window_slice(d, CANONICAL_WINDOWS[1]) == [0]

    def test_outside_horizon(self):
        d = [121]
        for spec in CANONICAL_WINDOWS:
            assert window_slice(d, spec) == []

    @given(st.integers(min_value=0, max_value=119))
    def test_partition(self, offset):
        d = [offset]
        hits = [spec.label for spec in CANONICAL_WINDOWS if window_slice(d, spec)]
        assert len(hits) == 1

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec("bad", 10, 5)


def trx_stat(amounts, stat: str, direction: str) -> float:
    """One entry of transaction_stats over one direction's amounts."""
    keep = {"incoming": lambda a: a > 0, "outgoing": lambda a: a < 0, "all": lambda a: True}[direction]
    return transaction_stats([a for a in amounts if keep(a)])[TRX_STATS.index(stat)]


def bal_stat(balances, stat: str) -> float:
    return balance_stats(balances)[BAL_STATS.index(stat)]


class TestAggregateTransactions:
    def test_min_incoming(self):
        assert trx_stat([50, -20, 10], "min", "incoming") == 10

    def test_sum_outgoing_signed(self):
        assert trx_stat([50, -20, 10], "sum", "outgoing") == -20

    def test_empty_count_vs_mean(self):
        assert trx_stat([], "count", "all") == 0
        assert math.isnan(trx_stat([], "mean", "all"))

    @given(st.lists(st.integers(min_value=-10000, max_value=10000).filter(bool), min_size=1, max_size=30))
    def test_sum_and_count_identities(self, amounts):
        def get(stat, direction):
            v = trx_stat(amounts, stat, direction)
            return 0.0 if math.isnan(v) else v

        assert get("sum", "all") == get("sum", "incoming") + get("sum", "outgoing")
        assert get("count", "all") == get("count", "incoming") + get("count", "outgoing")


class TestAggregateBalance:
    def test_var_and_maxes(self):
        assert bal_stat([100, 120, 90], "var") == -10
        assert bal_stat([100, 120, 90], "max_pos") == 120
        assert bal_stat([100, 120, 90], "max_neg") == 0

    def test_negative_balances(self):
        assert bal_stat([-50, -10], "max_neg") == 50
        assert bal_stat([-50, -10], "max_pos") == 0

    def test_linear_slope(self):
        assert bal_stat(list(range(30)), "slope") == pytest.approx(1.0, abs=1e-9)

    def test_slope_matches_least_squares_oracle(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=20)
        # closed-form least squares via polyfit
        expect = np.polyfit(np.arange(20), b, 1)[0]
        assert bal_stat(list(b), "slope") == pytest.approx(expect, abs=1e-9)

    def test_no_coverage_is_all_missing(self):
        assert all(math.isnan(v) for v in balance_stats([]))
        assert len(balance_stats([])) == len(BAL_STATS)


class TestBuildMatrix:
    def test_exactly_106_columns(self):
        bundle = make_bundle({"A1": [(5, 1000)], "A2": [(45, -2000), (100, 500)]})
        matrix = build_feature_matrix(bundle)
        assert len(matrix.columns) == 106
        assert len(kpi_columns()) == 106

    def test_canonical_names_present(self):
        cols = kpi_columns()
        assert "trx_min_incoming_90_120" in cols
        assert "acc_bal_max_neg_30_60" in cols
        assert "trx_min_incoming_last30" in cols

    def test_single_txn_account(self):
        bundle = make_bundle({"A1": [(5, 1000)]})
        m = build_feature_matrix(bundle)
        assert m.column("trx_min_incoming_last30")[0] == 1000
        assert m.column("trx_count_all_90_120")[0] == 0
        assert math.isnan(m.column("trx_min_incoming_90_120")[0])

    def test_balance_var_equals_window_txn_sum(self):
        events = [(3, 700), (12, -300), (40, 1500), (70, -800), (95, 250)]
        bundle = make_bundle({"A1": events})
        m = build_feature_matrix(bundle)
        for spec in CANONICAL_WINDOWS:
            var = m.column(f"acc_bal_var_{spec.label}")[0]
            # txns dated strictly inside the window's day range
            inside = sum(c for n, c in events if spec.lo <= n < spec.hi - 1)
            assert var == inside

    def test_no_labeled_accounts(self):
        bundle = join_bundle([], [AccountRecord("A1", 0, SNAPSHOT)], [], [])
        with pytest.raises(DataError):
            build_feature_matrix(bundle)


class TestDropInactive:
    def test_drops_zero_txn_rows(self):
        bundle = make_bundle({"A1": [(5, 1000)], "A2": [(130, 500)]})
        m = build_feature_matrix(bundle)
        trimmed = drop_inactive_accounts(m)
        assert trimmed.row_ids == ["A1"]

    def test_identity_when_all_active(self):
        bundle = make_bundle({"A1": [(5, 1000)], "A2": [(6, 2000)]})
        m = build_feature_matrix(bundle)
        assert drop_inactive_accounts(m) is m

    def test_all_inactive_errors(self):
        bundle = make_bundle({"A1": [(130, 500)]})
        m = build_feature_matrix(bundle)
        with pytest.raises(DataError):
            drop_inactive_accounts(m)


class TestStandardize:
    def test_hand_computed_column(self):
        Z, params = standardize(np.array([[1.0], [2.0], [3.0]]), ["a"])
        assert Z[:, 0] == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)

    def test_constant_column_flagged(self):
        Z, params = standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), ["c", "v"])
        assert params.constant_columns == ["c"]
        assert list(Z[:, 0]) == [5.0, 5.0, 5.0]

    def test_train_params_on_mean_row(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        params = fit_scaler(X, ["a", "b"])
        assert np.allclose(params.transform(X.mean(axis=0)[None, :]), 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 5)) * [1, 10, 100, 0.1, 3]
        Z, params = standardize(X, list("abcde"))
        assert np.max(np.abs(Z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(Z.std(axis=0) - 1)) < 1e-9


class TestMedianImpute:
    def test_fills_with_train_median(self):
        X = np.array([[1.0, np.nan], [3.0, 4.0], [5.0, 8.0]])
        filled, med = median_impute(X)
        assert filled[0, 1] == 6.0
        test, _ = median_impute(np.array([[np.nan, np.nan]]), med)
        assert list(test[0]) == [3.0, 6.0]

    def test_all_nan_column_fills_zero_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filled, med = median_impute(np.array([[np.nan, 1.0], [np.nan, 3.0]]))
        assert med.tolist() == [0.0, 2.0]
        assert filled.tolist() == [[0.0, 1.0], [0.0, 3.0]]


class TestRoundTrips:
    def _matrix(self):
        vals = np.array([[1.0, np.nan], [2.5, -3.0]])
        return FeatureMatrix(["r1", "r2"], ["a", "b"], vals, np.array([0, 1]))

    def test_csv(self, tmp_path):
        m = self._matrix()
        m.to_csv(tmp_path / "m.csv")
        back = FeatureMatrix.from_csv(tmp_path / "m.csv")
        assert back.row_ids == m.row_ids
        assert back.columns == m.columns
        assert np.array_equal(np.isnan(back.values), np.isnan(m.values))
        assert np.allclose(back.values[~np.isnan(back.values)], m.values[~np.isnan(m.values)])
        assert np.array_equal(back.y, m.y)
