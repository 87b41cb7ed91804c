import datetime
import functools
import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditshap.features import (
    BAL_STATS,
    CANONICAL_WINDOWS,
    DIRECTIONS,
    TRX_STATS,
    FeatureMatrix,
    WindowSpec,
    build_feature_matrix,
    drop_inactive_accounts,
    fit_scaler,
    kpi_columns,
    median_impute,
    standardize,
)
from creditshap.synthetic import write_ledger_fixture
from creditshap.tables import MAX_CENTS, DataError
from ledger_reference import AccountRecord, ClientRecord, LoanOutcome, TransactionRecord, bundles_of, load_both

APP = datetime.date(2024, 6, 1)
SNAPSHOT = APP + datetime.timedelta(days=10)


def days_before(n):
    return APP - datetime.timedelta(days=n)


def make_bundle(per_account_txns, balances=None):
    """per_account_txns: {acc: [(days_before_app, cents), ...]}; balances: {acc: snapshot cents}.
    The ledger written as CSVs and read back as (columnar bundle, reference records)."""
    accounts, outcomes, txns = [], [], []
    tid = 0
    for acc, events in per_account_txns.items():
        accounts.append(AccountRecord(acc, (balances or {}).get(acc, 0), SNAPSHOT))
        outcomes.append(LoanOutcome(acc, APP, 0))
        for n, cents in events:
            txns.append(TransactionRecord(f"T{tid:04d}", acc, days_before(n), cents))
            tid += 1
    return bundles_of([ClientRecord("C", a.account_id) for a in accounts], accounts, txns, outcomes)


# The oracle: the featurizer written one account and one column at a time
# over the reference loader's records,
# with a (stat, direction) dispatch per column, the window's days as a date
# list and each day's balance read straight from the records: the snapshot
# minus the amounts dated after that day. Its float sums are explicit left
# folds: sum() of floats compensates its rounding from Python 3.12 on.


def fold(vals) -> float:
    """Left-to-right float sum, as sum() of floats adds before Python 3.12."""
    return functools.reduce(operator.add, vals, 0.0)


def population_std(vals, mean: float) -> float:
    """The two-pass population std around the list's mean."""
    return math.sqrt(fold([(v - mean) ** 2 for v in vals]) / len(vals))


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
        return sum(vals) / len(vals)  # the amounts are ints: an exact sum
    if stat == "std":
        return population_std(vals, sum(vals) / len(vals))
    raise ValueError(f"unknown transaction stat {stat!r}")


def aggregate_balance(balances, stat: str) -> float:
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
        return fold(b) / len(b)
    if stat == "std":
        return population_std(b, fold(b) / len(b))
    if stat == "slope":
        t = np.arange(len(b), dtype=float)
        t -= t.mean()
        y = np.asarray(b)
        return float(np.dot(t, y - y.mean()) / np.dot(t, t))
    raise ValueError(f"unknown balance stat {stat!r}")


def oracle_row(bundle, acc_id) -> list[float]:
    app_date = bundle.outcomes[acc_id].application_date
    txns = bundle.transactions[acc_id]
    snapshot = bundle.accounts[acc_id].snapshot_balance
    row = []
    for spec in CANONICAL_WINDOWS:
        amounts = [t.amount for t in txns if spec.lo <= (app_date - t.date).days < spec.hi]
        for stat in TRX_STATS:
            for direction in DIRECTIONS:
                row.append(aggregate_transactions(amounts, stat, direction))
        days = [app_date - datetime.timedelta(days=o) for o in range(spec.hi - 1, spec.lo - 1, -1)]
        balances = [snapshot - sum(t.amount for t in txns if t.date > d) for d in days]
        for stat in BAL_STATS:
            row.append(aggregate_balance(balances, stat))
    horizon = [t for t in txns if 0 <= (app_date - t.date).days < 120]
    row.append(float(len(horizon)))
    row.append(float(len({t.date for t in horizon})))
    return row


def assert_matches_oracle(bundle, reference):
    """Every column of every row bit for bit; float.hex tells -0.0 from 0.0 and makes NaN equal NaN."""
    matrix = build_feature_matrix(bundle)
    assert matrix.row_ids == bundle.labeled_account_ids
    assert matrix.columns == kpi_columns() and len(kpi_columns()) == 106
    for acc_id, got in zip(matrix.row_ids, matrix.values.tolist()):
        want = oracle_row(reference, acc_id)
        assert len(got) == len(want)
        for name, g, w in zip(kpi_columns(), got, want):
            assert g.hex() == float(w).hex(), (acc_id, name, g, w)


# Hypothesis ledgers: window-boundary offsets are drawn often, and large
# amounts sit just under MAX_CENTS / 16, so that 12 of them plus a snapshot
# balance stay below MAX_CENTS.
BOUNDARY_OFFSETS = [-10, -1, 0, 1, 29, 30, 59, 60, 89, 90, 119, 120, 121, 140, 141]
offset = st.one_of(st.sampled_from(BOUNDARY_OFFSETS), st.integers(min_value=-10, max_value=141))
magnitude = st.one_of(
    st.integers(min_value=1, max_value=10**7),
    st.integers(min_value=MAX_CENTS // 16 - 10**6, max_value=MAX_CENTS // 16),
)
cents = st.tuples(magnitude, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
events = st.lists(st.tuples(offset, cents), max_size=12)
same_day = st.tuples(offset, st.lists(cents, min_size=2, max_size=6)).map(lambda p: [(p[0], c) for c in p[1]])
one_sided = st.lists(st.tuples(offset, magnitude), max_size=8).flatmap(
    lambda ev: st.sampled_from([ev, [(o, -c) for o, c in ev]])
)
account = st.tuples(
    st.one_of(events, same_day, one_sided),
    st.integers(min_value=-(MAX_CENTS // 16), max_value=MAX_CENTS // 16),  # snapshot balance
)


class TestFeaturizerOracle:
    def test_every_account_of_a_generated_ledger(self, tmp_path):
        bundle, reference = load_both(write_ledger_fixture(tmp_path, 150, seed=0))
        assert len(bundle.labeled_account_ids) == 150
        assert_matches_oracle(bundle, reference)

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
        assert_matches_oracle(*make_bundle({"A1": events}, {"A1": snapshot_balance}))

    @given(st.lists(account, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_multi_account_ledgers(self, accounts):
        names = [f"A{i}" for i in range(len(accounts))]
        assert_matches_oracle(*make_bundle(
            {a: ev for a, (ev, _) in zip(names, accounts)},
            {a: snap for a, (_, snap) in zip(names, accounts)},
        ))

    def test_squares_round_as_pow_does(self):
        # (v - m) ** 2 calls C pow; on these values (v - m) * (v - m) moves the std by a bit
        vals = [1094428206580, -692765664167, 356422872724]
        m = sum(vals) / len(vals)
        assert population_std(vals, m) != math.sqrt(fold([(v - m) * (v - m) for v in vals]) / len(vals))
        assert_matches_oracle(*make_bundle({"A1": [(5, v) for v in vals]}))  # the transaction std
        window = [m] * 27 + vals  # 27 days at the mean add zero squares, so the rounding stays
        assert population_std(window, m) != math.sqrt(fold([(v - m) * (v - m) for v in window]) / 30)
        assert bal_stat(window, "std").hex() == aggregate_balance(window, "std").hex()


def matrix_of(events):
    """The feature matrix of one account with these (days before application, cents) events."""
    return build_feature_matrix(make_bundle({"A1": events})[0])


class TestWindows:
    # a transaction n days before the application has day offset n
    def window_counts(self, offset):
        m = matrix_of([(offset, 100)])
        return {spec.label: m.column(f"trx_count_all_{spec.label}")[0] for spec in CANONICAL_WINDOWS}

    def test_inside_last30(self):
        assert self.window_counts(15) == {"last30": 1, "30_60": 0, "60_90": 0, "90_120": 0}

    def test_boundary_goes_to_next_window(self):
        assert self.window_counts(29)["last30"] == 1
        assert self.window_counts(30) == {"last30": 0, "30_60": 1, "60_90": 0, "90_120": 0}

    @pytest.mark.parametrize("offset", [-1, 120, 121])
    def test_outside_horizon(self, offset):
        assert set(self.window_counts(offset).values()) == {0}
        assert matrix_of([(offset, 100)]).column("trx_count_all_total120")[0] == 0

    @given(st.integers(min_value=0, max_value=119))
    @settings(deadline=None)
    def test_partition(self, offset):
        counts = self.window_counts(offset)
        assert sorted(counts.values()) == [0, 0, 0, 1]

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec("bad", 10, 5)


def trx_stat(amounts, stat: str, direction: str) -> float:
    """One transaction KPI of an account whose amounts all fall in the last 30 days."""
    return matrix_of([(5, a) for a in amounts]).column(f"trx_{stat}_{direction}_last30")[0]


def bal_stat(balances, stat: str) -> float:
    """One balance KPI of the last 30 days, which hold exactly these 30 balances:
    the snapshot is the last, and each day's change is one transaction."""
    assert len(balances) == 30
    changes = [(29 - i, int(b - a)) for i, (a, b) in enumerate(zip(balances, balances[1:]), start=1) if b != a]
    bundle, _ = make_bundle({"A1": changes}, {"A1": int(balances[-1])})
    return build_feature_matrix(bundle).column(f"acc_bal_{stat}_last30")[0]


class TestAggregateTransactions:
    def test_min_incoming(self):
        assert trx_stat([50, -20, 10], "min", "incoming") == 10

    def test_sum_outgoing_signed(self):
        assert trx_stat([50, -20, 10], "sum", "outgoing") == -20

    def test_empty_count_vs_mean(self):
        assert trx_stat([], "count", "all") == 0
        assert math.isnan(trx_stat([], "mean", "all"))

    @given(st.lists(st.integers(min_value=-10000, max_value=10000).filter(bool), min_size=1, max_size=30))
    @settings(deadline=None)
    def test_sum_and_count_identities(self, amounts):
        def get(stat, direction):
            v = trx_stat(amounts, stat, direction)
            return 0.0 if math.isnan(v) else v

        assert get("sum", "all") == get("sum", "incoming") + get("sum", "outgoing")
        assert get("count", "all") == get("count", "incoming") + get("count", "outgoing")


class TestAggregateBalance:
    def test_var_and_maxes(self):
        balances = [100] * 28 + [120, 90]
        assert bal_stat(balances, "var") == -10
        assert bal_stat(balances, "max_pos") == 120
        assert bal_stat(balances, "max_neg") == 0

    def test_negative_balances(self):
        balances = [-50] * 29 + [-10]
        assert bal_stat(balances, "max_neg") == 50
        assert bal_stat(balances, "max_pos") == 0

    def test_linear_slope(self):
        assert bal_stat(list(range(30)), "slope") == pytest.approx(1.0, abs=1e-9)

    def test_slope_matches_least_squares_oracle(self):
        rng = np.random.default_rng(0)
        b = rng.integers(-1000, 1000, size=30)  # balances are integer cents
        # closed-form least squares via polyfit
        expect = np.polyfit(np.arange(30), b.astype(float), 1)[0]
        assert bal_stat(b.tolist(), "slope") == pytest.approx(expect, abs=1e-9)



class TestBuildMatrix:
    def test_exactly_106_columns(self):
        bundle, _ = make_bundle({"A1": [(5, 1000)], "A2": [(45, -2000), (100, 500)]})
        matrix = build_feature_matrix(bundle)
        assert len(matrix.columns) == 106
        assert len(kpi_columns()) == 106

    def test_canonical_names_present(self):
        cols = kpi_columns()
        assert "trx_min_incoming_90_120" in cols
        assert "acc_bal_max_neg_30_60" in cols
        assert "trx_min_incoming_last30" in cols

    def test_single_txn_account(self):
        bundle, _ = make_bundle({"A1": [(5, 1000)]})
        m = build_feature_matrix(bundle)
        assert m.column("trx_min_incoming_last30")[0] == 1000
        assert m.column("trx_count_all_90_120")[0] == 0
        assert math.isnan(m.column("trx_min_incoming_90_120")[0])

    def test_balance_var_equals_window_txn_sum(self):
        events = [(3, 700), (12, -300), (40, 1500), (70, -800), (95, 250)]
        bundle, _ = make_bundle({"A1": events})
        m = build_feature_matrix(bundle)
        for spec in CANONICAL_WINDOWS:
            var = m.column(f"acc_bal_var_{spec.label}")[0]
            # txns dated strictly inside the window's day range
            inside = sum(c for n, c in events if spec.lo <= n < spec.hi - 1)
            assert var == inside

    def test_no_labeled_accounts(self):
        bundle, _ = bundles_of([], [AccountRecord("A1", 0, SNAPSHOT)], [], [])
        with pytest.raises(DataError):
            build_feature_matrix(bundle)


class TestDropInactive:
    def test_drops_zero_txn_rows(self):
        bundle, _ = make_bundle({"A1": [(5, 1000)], "A2": [(130, 500)]})
        m = build_feature_matrix(bundle)
        trimmed = drop_inactive_accounts(m)
        assert trimmed.row_ids == ["A1"]

    def test_identity_when_all_active(self):
        bundle, _ = make_bundle({"A1": [(5, 1000)], "A2": [(6, 2000)]})
        m = build_feature_matrix(bundle)
        assert drop_inactive_accounts(m) is m

    def test_all_inactive_errors(self):
        bundle, _ = make_bundle({"A1": [(130, 500)]})
        m = build_feature_matrix(bundle)
        with pytest.raises(DataError):
            drop_inactive_accounts(m)


class TestStandardize:
    def test_hand_computed_column(self):
        Z, params = standardize(np.array([[1.0], [2.0], [3.0]]), ["a"])
        assert Z[:, 0] == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)

    def test_constant_column_flagged(self):
        Z, params = standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), ["c", "v"])
        assert params.std[0] == 0 and params.std[1] > 0
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
