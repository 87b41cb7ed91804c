import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditshap.tables import (
    MAX_CENTS,
    SCHEMAS,
    AccountRecord,
    DataError,
    TransactionRecord,
    join_bundle,
    load_table,
    parse_cents,
    reconstruct_balances,
    validate_bundle,
)

DAY0 = datetime.date(2024, 1, 1)


def day(n):
    return DAY0 + datetime.timedelta(days=n)


def txn(tid, acc, d, cents):
    return TransactionRecord(tid, acc, day(d), cents)


def balance_on(series, d):
    """The series' balance on day d, read by calendar date (the oracles' view of a series)."""
    if d < series.start_date or d > series.end_date:
        raise DataError(f"day {d} outside series for {series.account_id}")
    return series.balances[(d - series.start_date).days]


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
        series = reconstruct_balances(acc, [txn("T1", "A1", 5, 3000)], day(0))
        assert balance_on(series, day(4)) == 7000
        assert balance_on(series, day(5)) == 10000
        assert balance_on(series, day(10)) == 10000

    def test_no_txns_constant(self):
        acc = AccountRecord("A1", 4200, day(10))
        series = reconstruct_balances(acc, [], day(3))
        assert set(series.balances) == {4200}

    def test_cumulative_sum_oracle(self):
        acc = AccountRecord("A1", 0, day(10))
        txns = [txn("T1", "A1", 3, 36400), txn("T2", "A1", 7, -36400)]
        series = reconstruct_balances(acc, txns, day(0))
        # independent oracle: balance(d) = balance(start) + running sum of txns
        start_balance = series.balances[0]
        running = start_balance
        for d in range(0, 11):
            running = start_balance + sum(t.amount for t in txns if 0 < (t.date - day(0)).days <= d)
            assert balance_on(series, day(d)) == running
        assert balance_on(series, day(2)) == 0
        assert balance_on(series, day(3)) == 36400
        assert balance_on(series, day(6)) == 36400
        assert balance_on(series, day(7)) == 0

    def test_txn_after_snapshot_rejected(self):
        acc = AccountRecord("A1", 0, day(10))
        with pytest.raises(DataError):
            reconstruct_balances(acc, [txn("T1", "A1", 11, 100)], day(0))

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
        series = reconstruct_balances(acc, txns, day(0))
        for d in range(0, 30):
            delta = balance_on(series, day(d + 1)) - balance_on(series, day(d))
            assert delta == sum(t.amount for t in txns if t.date == day(d + 1))
        assert balance_on(series, day(30)) == snapshot_cents


class TestValidateBundle:
    def test_echoes_exact_ranges(self):
        from creditshap.tables import ClientRecord, LoanOutcome
        from creditshap.tables import reconstruct_bundle_balances

        bundle = join_bundle(
            [ClientRecord("C1", "A1")],
            [AccountRecord("A1", 5000, day(30))],
            [txn("T1", "A1", 5, 2500), txn("T2", "A1", 9, -1000)],
            [LoanOutcome("A1", day(20), 1)],
        )
        reconstruct_bundle_balances(bundle, horizon_days=20)
        report = validate_bundle(bundle)
        assert report.max_txn == 2500
        assert report.min_txn == -1000
        assert report.bad_fraction == 1.0
        assert report.max_balance == max(bundle.balances["A1"].balances)

    def test_class_proportions(self):
        from creditshap.tables import ClientRecord, LoanOutcome

        accounts = [AccountRecord(f"A{i}", 0, day(30)) for i in range(9)]
        outcomes = [LoanOutcome(f"A{i}", day(10), 1 if i == 0 else 0) for i in range(9)]
        bundle = join_bundle([], accounts, [], outcomes)
        report = validate_bundle(bundle)
        assert report.bad_fraction == pytest.approx(1 / 9)
        assert report.good_fraction == pytest.approx(8 / 9)
