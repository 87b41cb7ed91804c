"""Source-table loading, joining, and daily balance reconstruction.

Four CSV tables feed the pipeline: clients (client_id,account_id),
accounts (account_id,balance,balance_date), transactions
(transaction_id,account_id,date,amount) and loans
(account_id,application_date,performance).

The tables are held as columns, never as one object per row. `load_table`
reads a CSV in blocks of BLOCK_ROWS records, transposes each block and
parses each column once: ids become variable-width numpy strings, amounts
int64 cents (so balance reconstruction is exact), dates int64 date
ordinals and `performance` 0 or 1. `join_bundle` maps each transaction to
its account's row with array operations and hands the transactions,
ordered by (row, date, id), to `BalanceLookup`: the ledger's one
transaction store, which also answers every balance query.
"""

from __future__ import annotations

import csv
import datetime
import re
from dataclasses import dataclass
from itertools import compress, islice, repeat

import numpy as np
from numpy.dtypes import StringDType


class DataError(Exception):
    """Malformed input data (bad row, duplicate key, broken reference)."""


# Amounts, balances and their totals stay below this many cents, so every
# sum the featurizer takes is exact both in int64 and as a float.
MAX_CENTS = 2**53

# Records parsed per block: bounds how many per-field Python strings are alive at once.
BLOCK_ROWS = 1 << 12

SCHEMAS = {
    "clients": ("client_id", "account_id"),
    "accounts": ("account_id", "balance", "balance_date"),
    "transactions": ("transaction_id", "account_id", "date", "amount"),
    "loans": ("account_id", "application_date", "performance"),
}
AMOUNT_COLUMNS = ("balance", "amount")
DATE_COLUMNS = ("balance_date", "date", "application_date")
DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
FLAGS = {"0": 0, "1": 1}


def _cents(texts: list[str]):
    """The int64 cents of stripped amounts under [+-]?[0-9]+(\\.[0-9]{1,2})?,
    with the masks of the texts that break that grammar and of those whose
    |cents| reach MAX_CENTS.

    The texts are read as one flat array of characters, so memory grows with
    their total length, not with the longest. A digit at place e (2 for the
    last whole digit, 0 for the second decimal) adds d * 10**e to its text's
    cents; a nonzero digit at e > 15 alone reaches MAX_CENTS, so only the
    places up to 15 are summed and no text's sum overflows int64.
    """
    n = len(texts)
    length = np.fromiter(map(len, texts), np.int64, n)
    end = np.cumsum(length)
    row = np.repeat(np.arange(n), length)
    pos = np.arange(row.size) - (end - length)[row]  # each character's place in its text
    c = np.frombuffer("".join(texts).encode("utf-32-le"), "<u4").astype(np.int64)
    digit, point = (c >= ord("0")) & (c <= ord("9")), c == ord(".")
    sign = (pos == 0) & ((c == ord("+")) | (c == ord("-")))
    points = np.bincount(row[point], minlength=n)
    cut = length.copy()  # where the whole digits end: at the point, if any
    cut[row[point]] = pos[point]
    signed = np.bincount(row[sign], minlength=n)
    frac = length - cut - (points > 0)
    stray = np.bincount(row[~(digit | point | sign)], minlength=n) > 0
    bad = stray | (points > 1) | (cut <= signed) | (points > 0) & ((frac < 1) | (frac > 2))
    e = cut[row] + 2 - pos - (pos < cut[row])  # each character's place value, were it a digit
    d = np.where(digit, c - ord("0"), 0)
    big = np.bincount(row[(d > 0) & (e > 15)], minlength=n) > 0
    counted = np.where((e >= 0) & (e <= 15), d * 10 ** np.clip(e, 0, 15), 0)
    running = np.concatenate([[0], np.cumsum(counted)])
    cents = running[end] - running[end - length]  # exact: a valid text's cents are below 10**16
    cents[row[sign & (c == ord("-"))]] *= -1
    return cents, bad, ~bad & (big | (np.abs(cents) >= MAX_CENTS))


def _ordinal(text: str) -> int:
    """The date ordinal of a YYYY-MM-DD text, or 0 (no date's) if it is not one."""
    if DATE.fullmatch(text):
        try:
            return datetime.date(int(text[:4]), int(text[5:7]), int(text[8:])).toordinal()
        except ValueError:
            pass
    return 0


def _first(mask, texts, rank: int, message: str) -> list:
    """[(row, rank, message)] for the first row in mask, or []."""
    rows = np.flatnonzero(mask)
    return [(int(rows[0]), rank, message.format(texts[rows[0]]))] if rows.size else []


def _parse_columns(names, columns):
    """Each column parsed once: the table and its first problem as (row,
    rank, message), or None. The rank orders one row's problems as they
    were checked row by row: amount or flag, zero amount, then date."""
    table, problems = {}, []
    for name, texts in zip(names, columns):
        n = len(texts)
        if name in AMOUNT_COLUMNS:
            values, bad, out = _cents(texts)
            problems += _first(bad, texts, 0, "bad currency amount {!r}")
            problems += _first(out, texts, 0, "currency amount {!r} out of range (|cents| must be below 2**53)")
            if name == "amount":
                problems += _first(~bad & (values == 0), texts, 1, "zero transaction amount")
        elif name in DATE_COLUMNS:
            parsed = {text: _ordinal(text) for text in set(texts)}  # each distinct date once
            values = np.fromiter(map(parsed.__getitem__, texts), np.int64, n)
            problems += _first(values == 0, texts, 2, name + ": bad date {!r}")
        elif name == "performance":
            values = np.fromiter(map(FLAGS.get, texts, repeat(-1)), np.int64, n)
            problems += _first(values < 0, texts, 0, "performance must be 0 or 1, got {!r}")
        else:  # an id, in a variable-width string: one long id widens no other row
            values = np.array(texts, dtype=StringDType())
        table[name] = values
    return table, min(problems, default=None)


def _parse_block(names, records, line: int):
    """One block of CSV records, the first on `line`: its table, the line of
    each of its rows and its first problem as (line, message), or None.
    Blank records are skipped; one of the wrong width ends the block."""
    width, problem = len(names), None
    fits = np.fromiter(map(len, records), np.int64, len(records)) == width
    for i in np.flatnonzero(~fits):
        if "".join(records[i]).strip():
            problem = (line + int(i), f"expected {width} columns")
            fits = fits[:i]
            break
    columns = [list(map(str.strip, c)) for c in zip(*compress(records, fits))] or [[] for _ in names]
    lines = np.flatnonzero(fits) + line
    if "" in columns[0]:  # a blank record of the right width has only empty cells
        filled = [any(cells) for cells in zip(*columns)]
        columns = [list(compress(c, filled)) for c in columns]
        lines = lines[filled]
    table, found = _parse_columns(names, columns)
    if found is not None:  # every parsed row comes before a width problem
        problem = (int(lines[found[0]]), found[2])
    return table, lines, problem


def _checked(path, kind: str, blocks: list) -> dict:
    """The table of the parsed blocks, which it empties. Raises the error of
    its first bad record: the first block problem, or the first repeated key
    if that comes earlier."""
    problem = next((p for _, _, p in blocks if p is not None), None)
    lines = np.concatenate([rows for _, rows, _ in blocks])
    table = {name: np.concatenate([t.pop(name) for t, _, _ in blocks]) for name in SCHEMAS[kind]}
    if kind != "clients":  # the client table is a many-to-many link table
        keys = table[SCHEMAS[kind][0]]  # each other table's first column is its key
        order = np.argsort(keys, kind="stable")  # a key's rows stay in line order
        ranked = keys[order]
        repeats = order[1:][ranked[1:] == ranked[:-1]]
        if repeats.size and (problem is None or lines[repeats.min()] < problem[0]):
            problem = (lines[repeats.min()], f"duplicate key {str(keys[repeats.min()])!r}")
    if problem is not None:
        raise DataError(f"{path}:{problem[0]}: {problem[1]}")
    return table


def load_table(path, kind: str) -> dict:
    """Load one CSV table as columns: {name: values}.

    Ids are arrays of stripped strings, amounts int64 cents, dates int64 date
    ordinals and `performance` int64 0/1. A bad record is a DataError naming
    the file and its line, the first such line in the file; a file that does
    not read as CSV text is a DataError naming the file.
    """
    if kind not in SCHEMAS:
        raise ValueError(f"unknown table kind {kind!r}")
    try:
        fh = open(path, newline="")
    except FileNotFoundError as exc:
        raise DataError(f"missing file {path}") from exc
    try:
        with fh:
            return _read_blocks(path, kind, csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_blocks(path, kind: str, reader) -> dict:
    """The table a csv.reader yields, parsed BLOCK_ROWS records at a time."""
    names = SCHEMAS[kind]
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != names:
        raise DataError(f"{path}: header must be {','.join(names)}")
    blocks, line = [], 2
    while True:
        records = []
        try:
            records.extend(islice(reader, BLOCK_ROWS))
        except (csv.Error, UnicodeDecodeError) as exc:  # a record that does not read: a bad line before it comes first
            blocks.append(_parse_block(names, records, line))
            _checked(path, kind, blocks)
            if isinstance(exc, csv.Error):  # the reader stopped at the record after those it gave
                raise DataError(f"{path}:{line + len(records)}: {exc}") from exc
            raise
        blocks.append(_parse_block(names, records, line))
        if blocks[-1][2] is not None or len(records) < BLOCK_ROWS:
            return _checked(path, kind, blocks)
        line += len(records)


@dataclass(eq=False)
class LedgerBundle:
    """The joined ledger. Row i of each per-account array, and of `balances`,
    is the i-th account of accounts.csv."""

    clients: dict
    account_ids: np.ndarray  # of str
    snapshot_days: np.ndarray  # date ordinal of each balance snapshot
    labeled: np.ndarray  # bool: the account has a loan outcome
    application_days: np.ndarray  # date ordinal of its loan application, where labeled
    performance: np.ndarray  # 1 = bad payer, where labeled
    balances: BalanceLookup

    @property
    def labeled_account_ids(self) -> list[str]:
        return self.account_ids[self.labeled].tolist()


def _rows(index: dict, ids: np.ndarray) -> np.ndarray:
    """The row index gives each id, -1 where it gives none."""
    return np.fromiter(map(index.get, ids, repeat(-1)), np.int64, len(ids))


def join_bundle(clients, accounts, transactions, loans) -> LedgerBundle:
    """Join the four tables on account_id, enforcing referential integrity.

    Accounts with no loan outcome are kept but remain unlabeled; they only
    drop out at feature-matrix construction. An account whose |snapshot
    balance| plus total |amount| reaches MAX_CENTS is rejected, which bounds
    every daily balance below it too. Each check reports the first bad row
    of its table, naming the transaction or account.
    """
    account_ids, snapshot_days = accounts["account_id"], accounts["balance_date"]
    n = len(account_ids)
    index = dict(zip(account_ids, range(n)))  # the account-id index
    tids, days, amounts = transactions["transaction_id"], transactions["date"], transactions["amount"]
    acc = _rows(index, transactions["account_id"])
    unknown = np.flatnonzero(acc < 0)
    known = unknown[0] if unknown.size else len(acc)
    late = np.flatnonzero(days[:known] > snapshot_days[acc[:known]])
    if late.size:
        raise DataError(f"transaction {tids[late[0]]} dated after balance snapshot")
    if unknown.size:
        raise DataError(f"transaction {tids[known]} references unknown account {transactions['account_id'][known]}")
    # Float sums of integers below 2**53 are exact, and rounding never takes a
    # total back below 2**53, so this test is exact.
    over = np.flatnonzero(np.bincount(acc, np.abs(amounts), n) + np.abs(accounts["balance"]) >= MAX_CENTS)
    if over.size:
        raise DataError(f"account {account_ids[over[0]]}: snapshot balance plus total amount out of range (2**53 cents)")
    rows, applied = _rows(index, loans["account_id"]), loans["application_date"]
    unknown = np.flatnonzero(rows < 0)
    known = unknown[0] if unknown.size else len(rows)
    repeated = np.ones(known, bool)
    repeated[np.unique(rows[:known], return_index=True)[1]] = False
    bad = np.flatnonzero(repeated | (snapshot_days[rows[:known]] < applied[:known]))
    if bad.size:
        acc_id = loans["account_id"][bad[0]]
        if repeated[bad[0]]:
            raise DataError(f"multiple loan outcomes for account {acc_id}")
        raise DataError(f"account {acc_id}: balance snapshot predates loan application")
    if unknown.size:
        raise DataError(f"loan outcome references unknown account {loans['account_id'][known]}")
    labeled = np.zeros(n, bool)
    labeled[rows] = True
    application_days, performance = np.zeros(n, np.int64), np.zeros(n, np.int64)
    application_days[rows] = applied
    performance[rows] = loans["performance"]
    balances = reconstruct_bundle_balances(accounts["balance"], acc, days, amounts, tids)
    return LedgerBundle(clients, account_ids, snapshot_days, labeled, application_days, performance, balances)


def reconstruct_bundle_balances(snapshot, acc, days, amounts, ids) -> BalanceLookup:
    """The balance lookup of joined transactions (account row, date ordinal,
    cents, id), ordered by row, then date, then id."""
    order = np.lexsort((ids, days, acc))
    return BalanceLookup(snapshot, acc[order], days[order], amounts[order])


DAY_KEYS = 1 << 22  # above every date ordinal, so row * DAY_KEYS + day sorts by row, then day


class BalanceLookup:
    """Every account's transactions, and its balance on any day up to its
    snapshot from one prefix sum: the ledger's one transaction store.

    Row i holds `snapshot[i]` (int64 cents); its transactions, in date order,
    are one run of `acc` (the row), `days` (date ordinals) and `amounts`
    (int64 cents) that ends before `end[i]`. A balance is the snapshot minus
    a difference of two entries of one running sum, exact in int64 even
    where the sum wraps, since join_bundle keeps the difference below
    MAX_CENTS."""

    def __init__(self, snapshot, acc, days, amounts):
        self.snapshot, self.acc, self.days, self.amounts = snapshot, acc, days, amounts
        self.end = np.cumsum(np.bincount(acc, minlength=len(snapshot)))  # one past each row's last transaction
        self._keys = acc * DAY_KEYS + days
        self._prefix = np.concatenate([[0], np.cumsum(amounts)])

    def balance(self, rows: np.ndarray, days: np.ndarray) -> np.ndarray:
        """The int64 balances of the row arrays `rows` on the date ordinals `days`, broadcast together."""
        after = np.searchsorted(self._keys, rows * DAY_KEYS + days, side="right")  # the row's first transaction after the day
        return self.snapshot[rows] - (self._prefix[self.end[rows]] - self._prefix[after])


@dataclass
class SanityReport:
    n_accounts: int
    n_labeled: int
    min_balance: int | None
    max_balance: int | None
    min_txn: int | None
    max_txn: int | None
    good_fraction: float | None
    bad_fraction: float | None
    warnings: list[str]


# The days of sanity.json's balance range, kept so that its bytes stay: a
# labeled account's span starts SPAN_DAYS before its application, any other
# account's at its first transaction, or at its snapshot if it has none.
SPAN_DAYS = 140


def validate_bundle(bundle: LedgerBundle) -> SanityReport:
    """Summarize ranges and class proportions; warns, never mutates.

    A balance changes only on a transaction's day, so a span's balances are the
    snapshot and, for each transaction day t after its start, day t - 1's.
    """
    lookup = bundle.balances
    count = np.diff(lookup.end, prepend=0)
    first = np.append(lookup.days, 0)[lookup.end - count]  # each row's first transaction day, where it has one
    starts = np.where(
        bundle.labeled, bundle.application_days - SPAN_DAYS, np.where(count > 0, first, bundle.snapshot_days)
    )
    later = lookup.days > starts[lookup.acc]
    balances = np.concatenate([lookup.snapshot, lookup.balance(lookup.acc[later], lookup.days[later] - 1)])
    warnings, amounts = [], lookup.amounts
    n_labeled = int(bundle.labeled.sum())
    if n_labeled:
        bad = int(bundle.performance[bundle.labeled].sum()) / n_labeled
        good = 1.0 - bad
        if bad in (0.0, 1.0):
            warnings.append("single-class labels: stratified evaluation will fail")
    else:
        good = bad = None
        warnings.append("no labeled accounts")
    for acc_id in bundle.account_ids[bundle.labeled & (count == 0)].tolist():
        warnings.append(f"labeled account {acc_id} has no transactions")
    return SanityReport(
        n_accounts=len(bundle.account_ids),
        n_labeled=n_labeled,
        min_balance=int(balances.min()) if balances.size else None,
        max_balance=int(balances.max()) if balances.size else None,
        min_txn=int(amounts.min()) if amounts.size else None,
        max_txn=int(amounts.max()) if amounts.size else None,
        good_fraction=good,
        bad_fraction=bad,
        warnings=warnings,
    )
