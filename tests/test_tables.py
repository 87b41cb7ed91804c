import csv
import dataclasses
import datetime
import shutil
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.dtypes import StringDType
from hypothesis import given, settings
from hypothesis import strategies as st

import ledger_reference as reference
from creditshap import tables
from creditshap.features import FeatureMatrix
from creditshap.pipeline import featurize_stage
from creditshap.synthetic import write_ledger_fixture
from creditshap.tables import (
    MAX_CENTS,
    SCHEMAS,
    BalanceLookup,
    DataError,
    LedgerBundle,
    join_bundle,
    load_table,
    validate_bundle,
)
from ledger_reference import (
    AccountRecord,
    ClientRecord,
    LoanOutcome,
    TransactionRecord,
    bundles_of,
    load_both,
    per_day_range,
    write_ledger,
)

DAY0 = datetime.date(2024, 1, 1)


def day(n):
    return DAY0 + datetime.timedelta(days=n)


def txn(tid, acc, d, cents):
    return TransactionRecord(tid, acc, day(d), cents)


def daily_balances(account, txns, first, last):
    """The balance lookup's answers for one account on days first..last."""
    bundle, _ = bundles_of([], [account], txns, [])
    days = np.array([day(d).toordinal() for d in range(first, last + 1)])
    return bundle.balances.balance(np.zeros_like(days), days).tolist()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def write_rows(path, kind, rows):
    """A CSV of the kind's header and these rows, quoted as csv.writer quotes."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([SCHEMAS[kind], *rows])
    return path


def parse_cents(tmp_path, text):
    """An amount as load_table reads it: the balance of a one-row accounts.csv."""
    return int(load_table(write_rows(tmp_path / "a.csv", "accounts", [("A1", text, "2024-01-01")]), "accounts")["balance"][0])


class TestParseCents:
    def test_basic(self, tmp_path):
        assert parse_cents(tmp_path, "12.34") == 1234
        assert parse_cents(tmp_path, "-0.05") == -5
        assert parse_cents(tmp_path, "7") == 700
        assert parse_cents(tmp_path, " +007.5 ") == 750

    def test_rejects_three_decimals(self, tmp_path):
        with pytest.raises(DataError):
            parse_cents(tmp_path, "1.234")

    def test_range_ends_below_max_cents(self, tmp_path):
        assert MAX_CENTS == 2**53
        assert parse_cents(tmp_path, "90071992547409.91") == MAX_CENTS - 1
        assert parse_cents(tmp_path, "-90071992547409.91") == 1 - MAX_CENTS
        assert parse_cents(tmp_path, "0" * 400 + "1.5") == 150
        for text in ("90071992547409.92", "-90071992547409.92", "1" + "0" * 14, "1" * 20, "9" * 401 + ".5"):
            with pytest.raises(DataError, match="out of range"):
                parse_cents(tmp_path, text)

    @pytest.mark.parametrize("text", [
        "²", "٣.5", "１", "1.", ".5", "-.5", "", "-", "+-1", "--1", "1.2.3", "1e3", "1_000", "1,000",
        "0x10", "nan", "inf", "1 000", "1. 2", "\xa05\xa0x",
    ])
    def test_grammar_rejects(self, text, tmp_path):
        with pytest.raises(DataError, match=r"a\.csv:2: bad currency amount"):
            parse_cents(tmp_path, text)

    @given(st.text(alphabet="0123456789+-. ²٣x", max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_columns_parse_as_the_row_reference(self, text):
        """One text against the reference's regex grammar: the same cents, or the same error."""
        cents, bad, out = tables._cents([text.strip()])
        try:
            expected = reference.parse_cents(text)
        except DataError as exc:
            assert bad[0] or out[0]
            assert ("out of range" in str(exc)) == bool(out[0])
        else:
            assert not bad[0] and not out[0] and cents[0] == expected


class TestLoadTable:
    def test_parses_three_rows(self, tmp_path):
        p = write(
            tmp_path,
            "t.csv",
            "transaction_id,account_id,date,amount\n"
            "T1,A1,2024-01-02,10.00\nT2,A1,2024-01-03,-5.50\nT3,A2,2024-01-04,1\n",
        )
        rows = load_table(p, "transactions")
        assert len(rows["amount"]) == 3
        assert rows["amount"][1] == -550
        assert rows["date"].tolist() == [datetime.date(2024, 1, d).toordinal() for d in (2, 3, 4)]
        assert rows["transaction_id"].tolist() == ["T1", "T2", "T3"]

    def test_duplicate_key_names_the_id(self, tmp_path):
        p = write(
            tmp_path,
            "t.csv",
            "transaction_id,account_id,date,amount\nT1,A1,2024-01-02,10\nT1,A1,2024-01-03,5\n",
        )
        with pytest.raises(DataError, match="t.csv:3: duplicate key 'T1'"):
            load_table(p, "transactions")
        p = write(tmp_path, "t.csv", "account_id,balance,balance_date\nA2,1,2024-01-02\nA1,1,2024-01-02\nA2,1,2024-01-02\nA1,1,2024-01-02\n")
        with pytest.raises(DataError, match="t.csv:4: duplicate key 'A2'"):  # the first line that repeats a key
            load_table(p, "accounts")

    def test_header_only_is_empty(self, tmp_path):
        p = write(tmp_path, "t.csv", "transaction_id,account_id,date,amount\n")
        table = load_table(p, "transactions")
        assert list(table) == list(SCHEMAS["transactions"])
        assert all(len(column) == 0 for column in table.values())

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

    @pytest.mark.parametrize("amount", ["²", "٣.5", "1²"])
    def test_non_ascii_digit_amount_names_file_and_line(self, tmp_path, amount):
        p = write(tmp_path, "t.csv", f"transaction_id,account_id,date,amount\nT1,A1,2024-01-02,1\nT2,A1,2024-01-02,{amount}\n")
        with pytest.raises(DataError, match=rf"t\.csv:3: bad currency amount '{amount}'"):
            load_table(p, "transactions")

    @pytest.mark.parametrize("text", [
        "20240226", "2024-W09-1", "2024-02-30", "2024-2-26", "２０２４-02-26", "2024-02-26T00:00", "2024-02-26 1", "",
    ])
    def test_date_is_exactly_yyyy_mm_dd(self, tmp_path, text):
        p = write_rows(tmp_path / "t.csv", "transactions", [("T1", "A1", " 2024-02-26 ", "1"), ("T2", "A1", text, "1")])
        with pytest.raises(DataError, match=r"t\.csv:3: date: bad date"):
            load_table(p, "transactions")

    @pytest.mark.parametrize("kind, row", [
        ("transactions", ("T2", "A1", "2024-13-01", "1.234")),  # the amount is checked before the date
        ("transactions", ("T2", "A1", "20240101", "0")),  # so is a zero amount
        ("accounts", ("A2", "x", "2024-02-30")),
        ("loans", ("A2", "2024-W09-1", "2")),  # and performance
        ("transactions", ("T1", "A1", "2024-01-01", "1²")),  # a bad row that repeats a key reports its cell
    ])
    def test_one_rows_problems_keep_their_order(self, tmp_path, kind, row):
        first = {"transactions": ("T1", "A1", "2024-01-01", "1"), "accounts": ("A1", "1", "2024-01-01"),
                 "loans": ("A1", "2024-01-01", "0")}[kind]
        path = write_rows(tmp_path / "t.csv", kind, [first, row])
        with pytest.raises(DataError) as expected:
            reference.load_table(path, kind)
        with pytest.raises(DataError, match=r"t\.csv:3: ") as got:
            load_table(path, kind)
        assert str(got.value) == str(expected.value)

    def test_ids_keep_every_character(self, tmp_path):
        ids = ["T1", "T1\0", "T1\0\0", "T\0 1", "Tü", "T" * 1000]
        p = write(tmp_path, "t.csv", "transaction_id,account_id,date,amount\n" + "".join(f"{i},A1,2024-02-26,1\n" for i in ids))
        if sys.version_info < (3, 11):  # csv reads no NUL before Python 3.11
            with pytest.raises(DataError, match=r"t\.csv:3: line contains NUL"):
                load_table(p, "transactions")
        else:
            assert load_table(p, "transactions")["transaction_id"].tolist() == ids

    def test_unreadable_csv_record_names_its_line(self, tmp_path):
        p = write(tmp_path, "t.csv", "account_id,balance,balance_date\nA1,5,2024-01-01\n\nA2," + "1" * 200_000 + ",2024-01-01\n")
        with pytest.raises(DataError, match=r"t\.csv:4: field larger than field limit"):
            load_table(p, "accounts")
        p = write(tmp_path, "t.csv", "account_id,balance,balance_date\nA1,x,2024-01-01\nA2," + "1" * 200_000 + ",2024-01-01\n")
        with pytest.raises(DataError, match=r"t\.csv:2: bad currency amount 'x'"):  # an earlier bad line comes first
            load_table(p, "accounts")

    def test_bad_cell_before_a_short_row_comes_first(self, tmp_path):
        p = write(tmp_path, "t.csv", "account_id,balance,balance_date\nA1,1,2024-01-02\nA2,x,2024-01-02\nA3,1\n")
        with pytest.raises(DataError, match=r"t\.csv:3: bad currency amount 'x'"):
            load_table(p, "accounts")

    def test_blank_records_count_as_lines(self, tmp_path):
        p = write(tmp_path, "t.csv", "account_id,balance,balance_date\n\n , ,\nA1,5,2024-01-01\n,,\nA2,x,2024-01-01\n")
        with pytest.raises(DataError, match=r"t\.csv:6: bad currency amount 'x'"):
            load_table(p, "accounts")

    def test_unreadable_record_is_data_error_after_earlier_lines(self, tmp_path):
        head = "account_id,balance,balance_date\nA1,5,2024-01-01\n"
        p = tmp_path / "t.csv"
        p.write_bytes(head.encode() + b"A2,5,2024-01-01\xff\n")
        with pytest.raises(DataError, match=r"t\.csv: 'utf-8' codec can't decode"):
            load_table(p, "accounts")
        many = "".join(f"B{i},5,2024-01-01\n" for i in range(2000))  # past the first block of text decoded
        p.write_bytes(head.encode() + b"A3,x,2024-01-01\n" + many.encode() + b"A2,5,2024-01-01\xff\n")
        with pytest.raises(DataError, match=r"t\.csv:3: bad currency amount 'x'"):
            load_table(p, "accounts")

    def test_memory_is_bounded(self, tmp_path):
        # Parsed in blocks into arrays, these 200 000 transactions peak at about
        # 18 MB of traced memory; one record object per row peaked at 63 MB.
        # One 1 000-character id must not widen every row's id, as one
        # fixed-width string array would (to 800 MB here), nor a 2 001-digit
        # amount every amount of its block (to 32 MB).
        path = tmp_path / "transactions.csv"
        with open(path, "w") as fh:
            fh.write("transaction_id,account_id,date,amount\n")
            fh.write(f"T{'x' * 999},A00000,2024-01-01,{'0' * 2000}1\n")
            fh.writelines(
                f"T{i:07d},A{i % 12_000:05d},2024-{1 + i % 12:02d}-{1 + i % 28:02d},{'-' if i % 3 else ''}{1 + i % 9_999}.{i % 100:02d}\n"
                for i in range(200_000)
            )
        tracemalloc.start()
        try:
            table = load_table(path, "transactions")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table["amount"]) == 200_001 and table["amount"][0] == 100
        assert peak < 40 * 2**20


class TestJoinBundle:
    def _accounts(self):
        return [AccountRecord("A1", 10000, day(30))]

    def test_small_join(self):
        bundle, _ = bundles_of(
            [ClientRecord("C1", "A1")],
            self._accounts(),
            [txn("T1", "A1", 1, 100), txn("T2", "A1", 2, -50)],
            [LoanOutcome("A1", day(20), 0)],
        )
        assert bundle.labeled_account_ids == ["A1"]
        assert bundle.balances.amounts.tolist() == [100, -50]

    def test_unknown_account_rejected(self):
        with pytest.raises(DataError, match="transaction T1 references unknown account AX"):
            bundles_of([], self._accounts(), [txn("T1", "AX", 1, 100)], [])

    def test_first_bad_transaction_is_reported(self):
        late_first = [txn("T1", "A1", 40, 100), txn("T2", "AX", 1, 100)]
        with pytest.raises(DataError, match="transaction T1 dated after balance snapshot"):
            bundles_of([], self._accounts(), late_first, [])
        with pytest.raises(DataError, match="transaction T1 references unknown account AX"):
            bundles_of([], self._accounts(), [txn("T1", "AX", 1, 100), txn("T2", "A1", 40, 100)], [])

    @pytest.mark.parametrize("snapshot", [-(MAX_CENTS // 2), MAX_CENTS // 2])
    def test_balance_plus_total_amount_must_stay_below_max_cents(self, snapshot):
        quarter = MAX_CENTS // 4
        ok = [AccountRecord("A1", 0, day(30)), AccountRecord("A2", snapshot, day(30))]
        txns = [txn("T1", "A2", 1, quarter), txn("T2", "A2", 2, 1 - quarter)]
        bundle, _ = bundles_of([], ok, txns, [])  # |snapshot| + total |amount| = MAX_CENTS - 1
        assert bundle.balances.end.tolist() == [0, 2]
        with pytest.raises(DataError, match="account A2: .*out of range"):
            bundles_of([], ok, txns + [txn("T3", "A2", 3, 1)], [])  # one more cent reaches it
        # the amounts alone, with a zero snapshot, count too
        big = [txn("T1", "A1", 1, MAX_CENTS - 1), txn("T2", "A1", 2, -1)]
        with pytest.raises(DataError, match="account A1"):
            bundles_of([], ok, big, [])

    def test_total_past_int64_is_rejected(self):
        # 2 048 amounts of MAX_CENTS - 1 cents total 2**64 - 2 048, which an int64 sum wraps to -2 048
        txns = [txn(f"T{i:04d}", "A1", 1, (MAX_CENTS - 1) * (-1) ** i) for i in range(2048)]
        with pytest.raises(DataError, match="account A1: .*out of range"):
            bundles_of([], [AccountRecord("A1", 0, day(30))], txns, [])

    def test_same_day_transactions_follow_their_ids(self):
        # file order T2, T10, T1; id order T1, T10, T2 (strings), then the next day's T0
        txns = [txn("T2", "A1", 3, 200), txn("T10", "A1", 3, 1000), txn("T0", "A1", 4, 7), txn("T1", "A1", 3, 100)]
        bundle, ref = bundles_of([], self._accounts(), txns, [])
        assert bundle.balances.amounts.tolist() == [100, 1000, 200, 7] == [t.amount for t in ref.transactions["A1"]]

    def test_shared_account_joins_once(self):
        bundle, _ = bundles_of(
            [ClientRecord("C1", "A1"), ClientRecord("C2", "A1")],
            self._accounts(),
            [],
            [],
        )
        assert bundle.account_ids.tolist() == ["A1"]
        assert bundle.clients["client_id"].tolist() == ["C1", "C2"]

    def test_join_idempotent(self, tmp_path):
        data = write_ledger(
            tmp_path,
            [ClientRecord("C1", "A1")],
            self._accounts(),
            [txn("T1", "A1", 1, 100)],
            [LoanOutcome("A1", day(20), 1)],
        )
        args = [load_table(data / f"{kind}.csv", kind) for kind in SCHEMAS]
        assert reference.columnar_arrays(join_bundle(*args)) == reference.columnar_arrays(join_bundle(*args))


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
            bundles_of([], [acc], [txn("T1", "A1", 11, 100)], [])

    def test_running_sum_past_int64_stays_exact(self):
        # 1 100 accounts of one MAX_CENTS - 1 cent transaction each take the running sum past 2**63
        n = 1100
        accounts = [AccountRecord(f"A{i:04d}", 0, day(10)) for i in range(n)]
        txns = [txn(f"T{i:04d}", f"A{i:04d}", 5, MAX_CENTS - 1) for i in range(n)]
        bundle, _ = bundles_of([], accounts, txns, [])
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


def mixed_ledger(tmp_path):
    """80 fixture accounts, 30 of them unlabeled, one account of each kind without
    transactions, 400 transactions 100-400 days before the application, and ten
    each on a labeled span's first day and between the application and the snapshot,
    as (columnar bundle, reference bundle)."""
    fixture = reference.load_ledger(write_ledger_fixture(tmp_path / "fixture", 80, seed=3))
    outcomes = list(fixture.outcomes.values())[30:]
    empty = ("A0007", "A0040")
    txns = [t for a, ts in fixture.transactions.items() if a not in empty for t in ts]
    app = outcomes[0].application_date
    rng = np.random.default_rng(0)
    busy = [a for a in fixture.accounts if a not in empty]
    for i, (lo, hi) in enumerate([(100, 401)] * 400 + [(140, 141), (-14, 0)] * 10):
        acc = busy[rng.integers(0, len(busy))]
        when = app - datetime.timedelta(days=int(rng.integers(lo, hi)))
        txns.append(TransactionRecord(f"X{i:04d}", acc, when, int(rng.integers(-90000, 90000)) or 1))
    bundle, ref = load_both(write_ledger(tmp_path / "mixed", fixture.clients, fixture.accounts.values(), txns, outcomes))
    assert int(bundle.labeled.sum()) == 50 and not any(ref.transactions[a] for a in empty)
    return bundle, ref


class TestValidateBundle:
    def test_echoes_exact_ranges(self):
        bundle, _ = bundles_of(
            [ClientRecord("C1", "A1")],
            [AccountRecord("A1", 5000, day(30))],
            [txn("T1", "A1", 5, 2500), txn("T2", "A1", 9, -1000)],
            [LoanOutcome("A1", day(20), 1)],
        )
        report = validate_bundle(bundle)
        assert report.max_txn == 2500
        assert report.min_txn == -1000
        assert report.bad_fraction == 1.0
        assert (report.min_balance, report.max_balance) == (3500, 6000)

    @pytest.mark.parametrize("n, seed", [(60, 5), (150, 0), (300, 1), (800, 31)])
    def test_balance_range_matches_per_day_series_on_fixtures(self, n, seed, tmp_path):
        bundle, ref = load_both(write_ledger_fixture(tmp_path, n, seed=seed))
        report = validate_bundle(bundle)
        assert (report.min_balance, report.max_balance) == per_day_range(ref)

    def test_balance_range_matches_per_day_series_on_mixed_ledger(self, tmp_path):
        bundle, ref = mixed_ledger(tmp_path)
        report = validate_bundle(bundle)
        assert type(report.min_balance) is int and type(report.max_balance) is int
        assert (report.min_balance, report.max_balance) == per_day_range(ref)

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
        bundle, ref = bundles_of([], [AccountRecord("A1", 0, day(app + 10))], txns, outcomes)
        report = validate_bundle(bundle)
        assert (report.min_balance, report.max_balance) == expected == per_day_range(ref)

    def test_class_proportions(self):
        accounts = [AccountRecord(f"A{i}", 0, day(30)) for i in range(9)]
        outcomes = [LoanOutcome(f"A{i}", day(10), 1 if i == 0 else 0) for i in range(9)]
        bundle, _ = bundles_of([], accounts, [], outcomes)
        report = validate_bundle(bundle)
        assert report.bad_fraction == pytest.approx(1 / 9)
        assert report.good_fraction == pytest.approx(8 / 9)


def reference_bundle(ref) -> LedgerBundle:
    """The reference's records as a columnar bundle, for the featurizer."""
    a = {k: np.array(v, dtype=StringDType() if k == "account_ids" else np.int64) for k, v in reference.arrays(ref).items()}
    lookup = BalanceLookup(a["snapshot"], a["acc"], a["days"], a["amounts"])
    labeled = a["labeled"].astype(bool)
    return LedgerBundle({}, a["account_ids"], a["snapshot_days"], labeled, a["application_days"], a["performance"], lookup)


def artifact(step, path):
    """features.csv's bytes, or the DataError that stopped it."""
    try:
        step().to_csv(path)
    except DataError as exc:
        return str(exc)
    return path.read_bytes()


def assert_matches_row_loader(data, tmp_path):
    """Both loaders give the same columns, sanity.json fields and features.csv
    bytes, or raise the same error naming the same line."""
    try:
        ref = reference.load_ledger(data)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_both(data)
        assert str(got.value) == str(exc)
        return
    bundle = load_both(data)[0]
    assert reference.columnar_arrays(bundle) == reference.arrays(ref)
    assert dataclasses.asdict(validate_bundle(bundle)) == reference.sanity(ref)
    got = artifact(lambda: featurize_stage(bundle), tmp_path / "columnar.csv")
    assert got == artifact(lambda: featurize_stage(reference_bundle(ref)), tmp_path / "reference.csv")


# Cells as a hand-written ledger might hold them: padded, quoted, signed,
# with 0-2 decimals and leading zeros, and transactions of one account on
# one day whose ids decide their order.
pad = st.sampled_from(["", " ", "  ", "\t"])
ids = st.one_of(st.integers(0, 99).map("T{}".format), st.sampled_from(["t1", "T 1", "T,1", 'T"1', "Tü", "T1 ", "T" * 70]))
accounts_ids = st.sampled_from(["A1", "A2", "A3", "A,4", "A" * 80])
amount_texts = st.tuples(
    st.sampled_from(["", "+", "-"]), st.sampled_from(["", "0"]), st.integers(0, 99_999), st.sampled_from(["", ".5", ".05", ".50"])
).map(lambda p: "".join(map(str, p)))
dates = st.integers(0, 6).map(lambda d: day(134 + d).isoformat())
blank = st.sampled_from([[], [""], ["", ""], [" ", " ", ""], ["", "", "", ""]])


def padded(cells):
    return st.tuples(*[st.tuples(pad, c if isinstance(c, st.SearchStrategy) else st.just(c), pad) for c in cells]).map(
        lambda t: ["".join(map(str, cell)) for cell in t]
    )


def table_rows(row, max_size, keyed=True):
    """Rows of padded cells, keyed ones unique in their stripped first cell
    (the corruption test below covers repeated keys), with blank rows among them."""
    rows = st.lists(padded(row), max_size=max_size, unique_by=(lambda r: r[0].strip()) if keyed else None)
    return st.tuples(rows, st.lists(st.tuples(st.integers(0, max_size), blank), max_size=3)).map(with_blanks)


def with_blanks(drawn):
    rows, blanks = list(drawn[0]), drawn[1]
    for at, row in blanks:
        rows.insert(at, row)
    return rows


@st.composite
def hand_written_ledger(draw):
    accounts = draw(table_rows([accounts_ids, amount_texts, day(150).isoformat()], 5))
    known = sorted({r[0].strip() for r in accounts if len(r) == 3 and r[0].strip()})
    refs = st.sampled_from(known) if known and draw(st.booleans()) else accounts_ids  # half the ledgers join cleanly
    return {
        "clients": draw(table_rows(["C1", refs], 3, keyed=False)),
        "accounts": accounts,
        "transactions": draw(table_rows([ids, refs, dates, amount_texts], 14)),
        "loans": draw(table_rows([refs, day(140).isoformat(), st.sampled_from(["0", "1"])], 5)),
    }


def write_hand_written(out, ledger, quote_all):
    out.mkdir(parents=True, exist_ok=True)
    for kind, rows in ledger.items():
        with open(out / f"{kind}.csv", "w", newline="") as fh:
            csv.writer(fh).writerow(SCHEMAS[kind])
            for i, row in enumerate(rows):
                csv.writer(fh, quoting=csv.QUOTE_ALL if quote_all[i % len(quote_all)] else csv.QUOTE_MINIMAL).writerow(row)
    return out


# Bad transactions.csv rows: a (column, text) change, a short row, or a blank one (no error).
CORRUPTIONS = {
    "superscript": (3, "²"),
    "three_decimals": (3, "1.234"),
    "zero": (3, "-0.00"),
    "huge": (3, "1" * 20),
    "compact_date": (2, "20240226"),
    "week_date": (2, "2024-W09-1"),
    "unknown_account": (1, "A9999"),
    "after_snapshot": (2, "2024-12-31"),
    "duplicate_id": (0, "T000000"),
    "short": None,
    "blank": (),
}


@pytest.fixture(scope="module")
def fixture_60(tmp_path_factory):
    return write_ledger_fixture(tmp_path_factory.mktemp("fixture"), 60, seed=5)


class TestColumnarMatchesRowLoader:
    @pytest.mark.parametrize("n, seed", [(60, 5), (150, 0), (300, 1), (800, 31), (2000, 0)])
    def test_fixtures(self, n, seed, tmp_path):
        assert_matches_row_loader(write_ledger_fixture(tmp_path / "ledger", n, seed=seed), tmp_path)

    def test_mixed_ledger(self, tmp_path):
        mixed_ledger(tmp_path)
        assert_matches_row_loader(tmp_path / "mixed", tmp_path)

    @given(hand_written_ledger(), st.lists(st.booleans(), min_size=1, max_size=3), st.sampled_from([1, 2, 3, 5, tables.BLOCK_ROWS]))
    @settings(max_examples=200, deadline=None)
    def test_hand_written_ledgers(self, ledger, quote_all, block_rows):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tables, "BLOCK_ROWS", block_rows):
            assert_matches_row_loader(write_hand_written(Path(tmp) / "ledger", ledger, quote_all), Path(tmp))

    @given(
        st.lists(st.sampled_from(sorted(CORRUPTIONS)), min_size=2, max_size=2, unique=True),
        st.lists(st.integers(3, 40), min_size=2, max_size=2, unique=True),
        st.sampled_from([3, 7, tables.BLOCK_ROWS]),
    )
    @settings(max_examples=120, deadline=None)
    def test_two_bad_rows_report_the_reference_line(self, fixture_60, kinds, lines, block_rows):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tables, "BLOCK_ROWS", block_rows):
            data = shutil.copytree(fixture_60, Path(tmp) / "ledger")
            path = data / "transactions.csv"
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            for kind, line in zip(kinds, lines):
                change = CORRUPTIONS[kind]
                if change is None:
                    rows[line - 1] = rows[line - 1][:3]
                elif not change:
                    rows[line - 1] = []
                else:
                    rows[line - 1][change[0]] = change[1]
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            assert_matches_row_loader(data, Path(tmp))


def assert_to_csv_matches_csv_writer(rows):
    """FeatureMatrix.to_csv's bytes against csv.writer writing each cell's repr."""
    matrix = FeatureMatrix([r[0] for r in rows], ["a", "b"], np.array([r[1] for r in rows]), np.array([r[2] for r in rows]))
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle = Path(tmp) / "m.csv", Path(tmp) / "oracle.csv"
        matrix.to_csv(path)
        with open(oracle, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row_id", "a", "b", "performance"])
            for rid, values, y in rows:
                writer.writerow([rid, *["" if v != v else repr(v) for v in values], y])
        assert path.read_bytes() == oracle.read_bytes()


class TestFeatureCsv:
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=6),
                st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, float("nan")])), min_size=2, max_size=2),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_to_csv_writes_what_csv_writer_writes(self, rows):
        assert_to_csv_matches_csv_writer(rows)

    @pytest.mark.parametrize("rid", [
        "a,b", 'say "hi"', "two\nlines", "cr\r", "", " padded ", "ü",
        pytest.param("nul\0", marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="csv writes NUL from Python 3.11 on")),
    ])
    def test_row_ids_quoted_as_csv_writer_quotes(self, rid):
        assert_to_csv_matches_csv_writer([(rid, [float("nan"), -0.0], 1), ("plain", [0.0, 1e300], 0)])
