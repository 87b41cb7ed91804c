import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditshap.tables import (
    MAX_CENTS,
    SCHEMAS,
    AccountRecord,
    ClientRecord,
    DataError,
    LoanOutcome,
    TransactionRecord,
    join_bundle,
    load_table,
    parse_cents,
    reconstruct_bundle_balances,
    validate_bundle,
)
from creditshap.synthetic import write_ledger_fixture

DAY0 = datetime.date(2024, 1, 1)


def day(n):
    return DAY0 + datetime.timedelta(days=n)


def txn(tid, acc, d, cents):
    return TransactionRecord(tid, acc, day(d), cents)


def daily_balances(account, txns, first, last):
    """The balance lookup's answers for one account on days first..last."""
    bundle = join_bundle([], [account], txns, [])
    reconstruct_bundle_balances(bundle)
    days = np.array([day(d).toordinal() for d in range(first, last + 1)])
    return bundle.balances.balance(np.zeros_like(days), days).tolist()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseCents:
    def test_basic(self):
        assert parse_cents("12.34") == 1234
        assert parse_cents("-0.05") == -5
        assert parse_cents("7") == 700

    def test_rejects_three_decimals(self):
        with pytest.raises(DataError):
            parse_cents("1.234")

    def test_range_ends_below_max_cents(self):
        assert MAX_CENTS == 2**53
        assert parse_cents("90071992547409.91") == MAX_CENTS - 1
        assert parse_cents("-90071992547409.91") == 1 - MAX_CENTS
        for text in ("90071992547409.92", "-90071992547409.92", "1" * 20, "9" * 401 + ".5"):
            with pytest.raises(DataError, match="out of range"):
                parse_cents(text)


class TestLoadTable:
    def test_parses_three_rows(self, tmp_path):
        p = write(
            tmp_path,
            "t.csv",
            "transaction_id,account_id,date,amount\n"
            "T1,A1,2024-01-02,10.00\nT2,A1,2024-01-03,-5.50\nT3,A2,2024-01-04,1\n",
        )
        rows = load_table(p, "transactions")
        assert len(rows) == 3
        assert rows[1].amount == -550

    def test_duplicate_key_names_the_id(self, tmp_path):
        p = write(
            tmp_path,
            "t.csv",
            "transaction_id,account_id,date,amount\nT1,A1,2024-01-02,10\nT1,A1,2024-01-03,5\n",
        )
        with pytest.raises(DataError, match="T1"):
            load_table(p, "transactions")

    def test_header_only_is_empty(self, tmp_path):
        p = write(tmp_path, "t.csv", "transaction_id,account_id,date,amount\n")
        assert load_table(p, "transactions") == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_table(tmp_path / "nope.csv", "transactions")

    def test_malformed_row_reports_line(self, tmp_path):
        p = write(tmp_path, "t.csv", "transaction_id,account_id,date,amount\nT1,A1,not-a-date,10\n")
        with pytest.raises(DataError, match=":2"):
            load_table(p, "transactions")

    @pytest.mark.parametrize("kind, row", [
        ("transactions", "T2,A1,2024-01-03,-" + "9" * 20),
        ("accounts", "A2,90071992547409.92,2024-01-03"),
    ])
    def test_out_of_range_amount_names_file_and_line(self, tmp_path, kind, row):
        first = {"transactions": "T1,A1,2024-01-02,10.00", "accounts": "A1,5,2024-01-03"}[kind]
        p = write(tmp_path, "t.csv", ",".join(SCHEMAS[kind]) + f"\n{first}\n{row}\n")
        with pytest.raises(DataError, match=r"t\.csv:3: currency amount .* out of range"):
            load_table(p, kind)


class TestJoinBundle:
    def _accounts(self):
        return [AccountRecord("A1", 10000, day(30))]

    def test_small_join(self):
        from creditshap.tables import ClientRecord, LoanOutcome

        bundle = join_bundle(
            [ClientRecord("C1", "A1")],
            self._accounts(),
            [txn("T1", "A1", 1, 100), txn("T2", "A1", 2, -50)],
            [LoanOutcome("A1", day(20), 0)],
        )
        assert bundle.labeled_account_ids == ["A1"]
        assert len(bundle.transactions["A1"]) == 2

    def test_unknown_account_rejected(self):
        with pytest.raises(DataError, match="unknown account"):
            join_bundle([], self._accounts(), [txn("T1", "AX", 1, 100)], [])

    @pytest.mark.parametrize("snapshot", [-(MAX_CENTS // 2), MAX_CENTS // 2])
    def test_balance_plus_total_amount_must_stay_below_max_cents(self, snapshot):
        quarter = MAX_CENTS // 4
        ok = [AccountRecord("A1", 0, day(30)), AccountRecord("A2", snapshot, day(30))]
        txns = [txn("T1", "A2", 1, quarter), txn("T2", "A2", 2, 1 - quarter)]
        bundle = join_bundle([], ok, txns, [])  # |snapshot| + total |amount| = MAX_CENTS - 1
        assert len(bundle.transactions["A2"]) == 2
        with pytest.raises(DataError, match="account A2: .*out of range"):
            join_bundle([], ok, txns + [txn("T3", "A2", 3, 1)], [])  # one more cent reaches it
        # the amounts alone, with a zero snapshot, count too
        big = [txn("T1", "A1", 1, MAX_CENTS - 1), txn("T2", "A1", 2, -1)]
        with pytest.raises(DataError, match="account A1"):
            join_bundle([], ok, big, [])

    def test_shared_account_joins_once(self):
        from creditshap.tables import ClientRecord

        bundle = join_bundle(
            [ClientRecord("C1", "A1"), ClientRecord("C2", "A1")],
            self._accounts(),
            [],
            [],
        )
        assert list(bundle.accounts) == ["A1"]

    def test_join_idempotent(self):
        from creditshap.tables import ClientRecord, LoanOutcome

        args = (
            [ClientRecord("C1", "A1")],
            self._accounts(),
            [txn("T1", "A1", 1, 100)],
            [LoanOutcome("A1", day(20), 1)],
        )
        assert join_bundle(*args) == join_bundle(*args)


class TestReconstructBalances:
    def test_single_txn(self):
        acc = AccountRecord("A1", 10000, day(10))
        series = daily_balances(acc, [txn("T1", "A1", 5, 3000)], 0, 10)
        assert series[4] == 7000
        assert series[5] == 10000
        assert series[10] == 10000

    def test_no_txns_constant(self):
        acc = AccountRecord("A1", 4200, day(10))
        assert set(daily_balances(acc, [], 3, 10)) == {4200}

    def test_cumulative_sum_oracle(self):
        acc = AccountRecord("A1", 0, day(10))
        txns = [txn("T1", "A1", 3, 36400), txn("T2", "A1", 7, -36400)]
        series = daily_balances(acc, txns, 0, 10)
        # independent oracle: balance(d) = balance(start) + running sum of txns
        start_balance = series[0]
        running = start_balance
        for d in range(0, 11):
            running = start_balance + sum(t.amount for t in txns if 0 < (t.date - day(0)).days <= d)
            assert series[d] == running
        assert series[2] == 0
        assert series[3] == 36400
        assert series[6] == 36400
        assert series[7] == 0

    def test_txn_after_snapshot_rejected(self):
        acc = AccountRecord("A1", 0, day(10))
        with pytest.raises(DataError, match="dated after balance snapshot"):
            join_bundle([], [acc], [txn("T1", "A1", 11, 100)], [])

    def test_running_sum_past_int64_stays_exact(self):
        # 1 100 accounts of one MAX_CENTS - 1 cent transaction each take the running sum past 2**63
        n = 1100
        accounts = [AccountRecord(f"A{i:04d}", 0, day(10)) for i in range(n)]
        txns = [txn(f"T{i:04d}", f"A{i:04d}", 5, MAX_CENTS - 1) for i in range(n)]
        bundle = join_bundle([], accounts, txns, [])
        reconstruct_bundle_balances(bundle)
        rows = np.arange(n)
        assert bundle.balances.balance(rows, np.full(n, day(4).toordinal())).tolist() == [1 - MAX_CENTS] * n
        assert bundle.balances.balance(rows, np.full(n, day(5).toordinal())).tolist() == [0] * n

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=-50000, max_value=50000).filter(bool)),
            max_size=25,
        ),
        st.integers(min_value=-100000, max_value=100000),
    )
    @settings(max_examples=60, deadline=None)
    def test_daily_delta_equals_day_txn_sum(self, events, snapshot_cents):
        acc = AccountRecord("A1", snapshot_cents, day(30))
        txns = [txn(f"T{i}", "A1", d, a) for i, (d, a) in enumerate(events)]
        series = daily_balances(acc, txns, 0, 30)
        for d in range(0, 30):
            delta = series[d + 1] - series[d]
            assert delta == sum(t.amount for t in txns if t.date == day(d + 1))
        assert series[30] == snapshot_cents


def per_day_balances(account, txns, start_date):
    """The per-day builder the lookup replaced, kept as the oracle: balances
    back-propagated from the snapshot down to start_date, one day at a time."""
    n_days = (account.snapshot_date - start_date).days + 1
    balances = [0] * n_days
    balances[-1] = account.snapshot_balance
    day_sums = [0] * n_days
    for t in txns:
        offset = (t.date - start_date).days
        if 1 <= offset <= n_days - 1:
            day_sums[offset] += t.amount
    for i in range(n_days - 2, -1, -1):
        balances[i] = balances[i + 1] - day_sums[i + 1]
    return balances


def per_day_range(bundle):
    """The least and greatest balance of every account's per-day series: a labeled
    account's starts 140 days before its application, any other's at its first
    transaction, or at its snapshot without one."""
    every = []
    for acc_id, account in bundle.accounts.items():
        txns = bundle.transactions[acc_id]
        if acc_id in bundle.outcomes:
            start = bundle.outcomes[acc_id].application_date - datetime.timedelta(days=140)
        elif txns:
            start = min(t.date for t in txns)
        else:
            start = account.snapshot_date
        every += per_day_balances(account, txns, min(start, account.snapshot_date))
    return min(every), max(every)


def mixed_ledger(tmp_path):
    """80 fixture accounts, 30 of them unlabeled, one account of each kind without
    transactions, 400 transactions 100-400 days before the application, and ten
    each on a labeled span's first day and between the application and the snapshot."""
    data = write_ledger_fixture(tmp_path, 80, seed=3)
    accounts = load_table(data / "accounts.csv", "accounts")
    outcomes = load_table(data / "loans.csv", "loans")[30:]
    empty = ("A0007", "A0040")
    txns = [t for t in load_table(data / "transactions.csv", "transactions") if t.account_id not in empty]
    app = outcomes[0].application_date
    rng = np.random.default_rng(0)
    busy = [a.account_id for a in accounts if a.account_id not in empty]
    for i, (lo, hi) in enumerate([(100, 401)] * 400 + [(140, 141), (-14, 0)] * 10):
        acc = busy[rng.integers(0, len(busy))]
        when = app - datetime.timedelta(days=int(rng.integers(lo, hi)))
        txns.append(TransactionRecord(f"X{i:04d}", acc, when, int(rng.integers(-90000, 90000)) or 1))
    bundle = join_bundle([], accounts, txns, outcomes)
    assert len(bundle.outcomes) == 50 and not any(bundle.transactions[a] for a in empty)
    return bundle


class TestValidateBundle:
    def test_echoes_exact_ranges(self):
        bundle = join_bundle(
            [ClientRecord("C1", "A1")],
            [AccountRecord("A1", 5000, day(30))],
            [txn("T1", "A1", 5, 2500), txn("T2", "A1", 9, -1000)],
            [LoanOutcome("A1", day(20), 1)],
        )
        reconstruct_bundle_balances(bundle)
        report = validate_bundle(bundle)
        assert report.max_txn == 2500
        assert report.min_txn == -1000
        assert report.bad_fraction == 1.0
        assert (report.min_balance, report.max_balance) == (3500, 6000)

    @pytest.mark.parametrize("n, seed", [(60, 5), (150, 0), (300, 1), (800, 31)])
    def test_balance_range_matches_per_day_series_on_fixtures(self, n, seed, tmp_path):
        data = write_ledger_fixture(tmp_path, n, seed=seed)
        tables = [load_table(data / f"{name}.csv", name) for name in ("clients", "accounts", "transactions", "loans")]
        bundle = join_bundle(*tables)
        reconstruct_bundle_balances(bundle)
        report = validate_bundle(bundle)
        assert (report.min_balance, report.max_balance) == per_day_range(bundle)

    def test_balance_range_matches_per_day_series_on_mixed_ledger(self, tmp_path):
        bundle = mixed_ledger(tmp_path)
        reconstruct_bundle_balances(bundle)
        report = validate_bundle(bundle)
        assert type(report.min_balance) is int and type(report.max_balance) is int
        assert (report.min_balance, report.max_balance) == per_day_range(bundle)

    @pytest.mark.parametrize("events, labeled, expected", [
        ([(-141, 5000), (-140, -7000), (-139, 4000)], True, (-4000, 0)),  # around a labeled span's first day
        ([(5, 9000)], True, (-9000, 0)),  # between the application and the snapshot
        ([(-100, 500), (-95, 800)], False, (-800, 0)),  # an unlabeled span starts at the first transaction
        ([], False, (0, 0)),  # or at the snapshot, without one
    ])
    def test_balance_range_keeps_each_span(self, events, labeled, expected):
        app = 150  # events are (days after the application, cents); the snapshot is 0 cents 10 days after it
        txns = [txn(f"T{i}", "A1", app + d, cents) for i, (d, cents) in enumerate(events)]
        outcomes = [LoanOutcome("A1", day(app), 0)] if labeled else []
        bundle = join_bundle([], [AccountRecord("A1", 0, day(app + 10))], txns, outcomes)
        reconstruct_bundle_balances(bundle)
        report = validate_bundle(bundle)
        assert (report.min_balance, report.max_balance) == expected == per_day_range(bundle)

    def test_class_proportions(self):
        accounts = [AccountRecord(f"A{i}", 0, day(30)) for i in range(9)]
        outcomes = [LoanOutcome(f"A{i}", day(10), 1 if i == 0 else 0) for i in range(9)]
        bundle = join_bundle([], accounts, [], outcomes)
        report = validate_bundle(bundle)
        assert report.bad_fraction == pytest.approx(1 / 9)
        assert report.good_fraction == pytest.approx(8 / 9)
