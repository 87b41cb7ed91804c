import datetime
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from creditshap.features import (
    CANONICAL_WINDOWS,
    FeatureMatrix,
    WindowSpec,
    aggregate_balance,
    aggregate_transactions,
    build_feature_matrix,
    drop_inactive_accounts,
    fit_scaler,
    kpi_columns,
    median_impute,
    standardize,
    window_slice,
)
from creditshap.tables import (
    AccountRecord,
    ClientRecord,
    DataError,
    LoanOutcome,
    TransactionRecord,
    join_bundle,
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


class TestWindowSlice:
    def test_inside_last30(self):
        spec = CANONICAL_WINDOWS[0]
        assert window_slice([days_before(15)], APP, spec) == [0]

    def test_boundary_goes_to_next_window(self):
        d = [days_before(30)]
        assert window_slice(d, APP, CANONICAL_WINDOWS[0]) == []
        assert window_slice(d, APP, CANONICAL_WINDOWS[1]) == [0]

    def test_outside_horizon(self):
        d = [days_before(121)]
        for spec in CANONICAL_WINDOWS:
            assert window_slice(d, APP, spec) == []

    @given(st.integers(min_value=0, max_value=119))
    def test_partition(self, offset):
        d = [days_before(offset)]
        hits = [spec.label for spec in CANONICAL_WINDOWS if window_slice(d, APP, spec)]
        assert len(hits) == 1

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec("bad", 10, 5)


class TestAggregateTransactions:
    def test_min_incoming(self):
        assert aggregate_transactions([50, -20, 10], "min", "incoming") == 10

    def test_sum_outgoing_signed(self):
        assert aggregate_transactions([50, -20, 10], "sum", "outgoing") == -20

    def test_empty_count_vs_mean(self):
        assert aggregate_transactions([], "count", "all") == 0
        assert math.isnan(aggregate_transactions([], "mean", "all"))

    @given(st.lists(st.integers(min_value=-10000, max_value=10000).filter(bool), min_size=1, max_size=30))
    def test_sum_and_count_identities(self, amounts):
        def get(stat, direction):
            v = aggregate_transactions(amounts, stat, direction)
            return 0.0 if math.isnan(v) else v

        assert get("sum", "all") == get("sum", "incoming") + get("sum", "outgoing")
        assert get("count", "all") == get("count", "incoming") + get("count", "outgoing")


class TestAggregateBalance:
    def test_var_and_maxes(self):
        assert aggregate_balance([100, 120, 90], "var") == -10
        assert aggregate_balance([100, 120, 90], "max_pos") == 120
        assert aggregate_balance([100, 120, 90], "max_neg") == 0

    def test_negative_balances(self):
        assert aggregate_balance([-50, -10], "max_neg") == 50
        assert aggregate_balance([-50, -10], "max_pos") == 0

    def test_linear_slope(self):
        assert aggregate_balance(list(range(30)), "slope") == pytest.approx(1.0, abs=1e-9)

    def test_slope_matches_least_squares_oracle(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=20)
        # closed-form least squares via polyfit
        expect = np.polyfit(np.arange(20), b, 1)[0]
        assert aggregate_balance(list(b), "slope") == pytest.approx(expect, abs=1e-9)


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
