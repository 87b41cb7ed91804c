"""Source-table loading, joining, and daily balance reconstruction.

Four CSV tables feed the pipeline: clients (client_id,account_id),
accounts (account_id,balance,balance_date), transactions
(transaction_id,account_id,date,amount) and loans
(account_id,application_date,performance).  Amounts are parsed into
integer cents so balance reconstruction is exact.
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np


class DataError(Exception):
    """Malformed input data (bad row, duplicate key, broken reference)."""


# Amounts, balances and their totals stay below this many cents, so every
# sum the featurizer takes is exact both in int64 and as a float.
MAX_CENTS = 2**53


def parse_cents(text: str) -> int:
    """Parse a decimal currency string (<=2 fraction digits) into integer cents."""
    text = text.strip()
    neg = text.startswith("-")
    if neg or text.startswith("+"):
        text = text[1:]
    if "." in text:
        whole, frac = text.split(".", 1)
        if len(frac) > 2 or not frac.isdigit():
            raise DataError(f"bad currency amount {text!r}")
        frac = frac.ljust(2, "0")
    else:
        whole, frac = text, "00"
    if not whole.isdigit():
        raise DataError(f"bad currency amount {text!r}")
    cents = int(whole) * 100 + int(frac)
    if cents >= MAX_CENTS:
        raise DataError(f"currency amount {text!r} out of range (|cents| must be below 2**53)")
    return -cents if neg else cents


def _parse_date(text: str, where: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"{where}: bad date {text!r}") from exc


@dataclass(frozen=True)
class ClientRecord:
    client_id: str
    account_id: str


@dataclass(frozen=True)
class AccountRecord:
    account_id: str
    snapshot_balance: int  # cents
    snapshot_date: datetime.date


@dataclass(frozen=True)
class TransactionRecord:
    transaction_id: str
    account_id: str
    date: datetime.date
    amount: int  # cents, signed; positive = incoming


@dataclass(frozen=True)
class LoanOutcome:
    account_id: str
    application_date: datetime.date
    performance: int  # 1 = bad payer


SCHEMAS = {
    "clients": ("client_id", "account_id"),
    "accounts": ("account_id", "balance", "balance_date"),
    "transactions": ("transaction_id", "account_id", "date", "amount"),
    "loans": ("account_id", "application_date", "performance"),
}


def load_table(path, kind: str):
    """Load one CSV table; returns a list of records of the matching type."""
    if kind not in SCHEMAS:
        raise ValueError(f"unknown table kind {kind!r}")
    expected = SCHEMAS[kind]
    try:
        fh = open(path, newline="")
    except FileNotFoundError as exc:
        raise DataError(f"missing file {path}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != expected:
            raise DataError(f"{path}: header must be {','.join(expected)}")
        rows = []
        seen = set()
        for lineno, raw in enumerate(reader, start=2):
            if not raw or all(not c.strip() for c in raw):
                continue
            if len(raw) != len(expected):
                raise DataError(f"{path}:{lineno}: expected {len(expected)} columns")
            try:
                rec = _parse_row(kind, raw)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if kind != "clients":  # the client table is a many-to-many link table
                key = raw[0].strip()  # each other table's first column is its key
                if key in seen:
                    raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
                seen.add(key)
            rows.append(rec)
    return rows


def _parse_row(kind, raw):
    if kind == "clients":
        return ClientRecord(raw[0].strip(), raw[1].strip())
    if kind == "accounts":
        return AccountRecord(
            raw[0].strip(), parse_cents(raw[1]), _parse_date(raw[2], "balance_date")
        )
    if kind == "transactions":
        amount = parse_cents(raw[3])
        if amount == 0:
            raise DataError("zero transaction amount")
        return TransactionRecord(
            raw[0].strip(), raw[1].strip(), _parse_date(raw[2], "date"), amount
        )
    perf = raw[2].strip()
    if perf not in ("0", "1"):
        raise DataError(f"performance must be 0 or 1, got {perf!r}")
    return LoanOutcome(raw[0].strip(), _parse_date(raw[1], "application_date"), int(perf))


@dataclass
class LedgerBundle:
    clients: list[ClientRecord]
    accounts: dict[str, AccountRecord]
    transactions: dict[str, list[TransactionRecord]]  # account_id -> txns, date order
    outcomes: dict[str, LoanOutcome]
    balances: BalanceLookup | None = field(default=None, compare=False, repr=False)

    @property
    def labeled_account_ids(self) -> list[str]:
        return [a for a in self.accounts if a in self.outcomes]


def join_bundle(clients, accounts, transactions, outcomes) -> LedgerBundle:
    """Join the four tables on account_id, enforcing referential integrity.

    Accounts with no loan outcome are kept but remain unlabeled; they only
    drop out at feature-matrix construction. An account whose |snapshot
    balance| plus total |amount| reaches MAX_CENTS is rejected, which bounds
    every daily balance below it too.
    """
    acc_map = {a.account_id: a for a in accounts}
    txn_map: dict[str, list[TransactionRecord]] = {a: [] for a in acc_map}
    for t in transactions:
        if t.account_id not in acc_map:
            raise DataError(f"transaction {t.transaction_id} references unknown account {t.account_id}")
        if t.date > acc_map[t.account_id].snapshot_date:
            raise DataError(f"transaction {t.transaction_id} dated after balance snapshot")
        txn_map[t.account_id].append(t)
    for acc_id, txns in txn_map.items():
        txns.sort(key=lambda t: (t.date, t.transaction_id))
        if abs(acc_map[acc_id].snapshot_balance) + sum([abs(t.amount) for t in txns]) >= MAX_CENTS:
            raise DataError(f"account {acc_id}: snapshot balance plus total amount out of range (2**53 cents)")
    out_map: dict[str, LoanOutcome] = {}
    for o in outcomes:
        if o.account_id not in acc_map:
            raise DataError(f"loan outcome references unknown account {o.account_id}")
        if o.account_id in out_map:
            raise DataError(f"multiple loan outcomes for account {o.account_id}")
        if acc_map[o.account_id].snapshot_date < o.application_date:
            raise DataError(
                f"account {o.account_id}: balance snapshot predates loan application"
            )
        out_map[o.account_id] = o
    return LedgerBundle(list(clients), acc_map, txn_map, out_map)


DAY_KEYS = 1 << 22  # above every date ordinal, so row * DAY_KEYS + day sorts by row, then day


class BalanceLookup:
    """Every account's balance on any day up to its snapshot, from one prefix sum.

    Rows follow `bundle.accounts`; their date-ordered transactions are flattened
    row after row into `acc` (the row), `days` (date ordinals) and `amounts`
    (int64 cents). A balance is the snapshot minus a difference of two entries
    of one running sum, exact in int64 even where the sum wraps, since
    join_bundle keeps the difference below MAX_CENTS."""

    def __init__(self, bundle: LedgerBundle):
        txns = [bundle.transactions[a] for a in bundle.accounts]
        flat = list(chain.from_iterable(txns))
        counts = np.array([len(t) for t in txns], dtype=np.int64)
        self.snapshot = np.array([a.snapshot_balance for a in bundle.accounts.values()], dtype=np.int64)
        self.end = np.cumsum(counts)  # one past each row's last transaction
        self.acc = np.repeat(np.arange(len(txns)), counts)
        self.days = np.fromiter(map(datetime.date.toordinal, map(attrgetter("date"), flat)), np.int64, len(flat))
        self.amounts = np.fromiter(map(attrgetter("amount"), flat), np.int64, len(flat))
        self._keys = self.acc * DAY_KEYS + self.days
        self._prefix = np.concatenate([[0], np.cumsum(self.amounts)])

    def balance(self, rows: np.ndarray, days: np.ndarray) -> np.ndarray:
        """The int64 balances of the row arrays `rows` on the date ordinals `days`, broadcast together."""
        after = np.searchsorted(self._keys, rows * DAY_KEYS + days, side="right")  # the row's first transaction after the day
        return self.snapshot[rows] - (self._prefix[self.end[rows]] - self._prefix[after])


def reconstruct_bundle_balances(bundle: LedgerBundle) -> None:
    """Set bundle.balances to the lookup of every account's daily balance."""
    bundle.balances = BalanceLookup(bundle)


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
    lookup = bundle.balances or BalanceLookup(bundle)
    starts = np.array([
        bundle.outcomes[a].application_date.toordinal() - SPAN_DAYS if a in bundle.outcomes
        else (bundle.transactions[a][0].date if bundle.transactions[a] else account.snapshot_date).toordinal()
        for a, account in bundle.accounts.items()
    ], dtype=np.int64)
    later = lookup.days > starts[lookup.acc]
    balances = np.concatenate([lookup.snapshot, lookup.balance(lookup.acc[later], lookup.days[later] - 1)])
    warnings, amounts = [], lookup.amounts
    labels = [o.performance for o in bundle.outcomes.values()]
    n_labeled = len(labels)
    if n_labeled:
        bad = sum(labels) / n_labeled
        good = 1.0 - bad
        if bad in (0.0, 1.0):
            warnings.append("single-class labels: stratified evaluation will fail")
    else:
        good = bad = None
        warnings.append("no labeled accounts")
    for acc_id in bundle.labeled_account_ids:
        if not bundle.transactions[acc_id]:
            warnings.append(f"labeled account {acc_id} has no transactions")
    return SanityReport(
        n_accounts=len(bundle.accounts),
        n_labeled=n_labeled,
        min_balance=int(balances.min()) if balances.size else None,
        max_balance=int(balances.max()) if balances.size else None,
        min_txn=int(amounts.min()) if amounts.size else None,
        max_txn=int(amounts.max()) if amounts.size else None,
        good_fraction=good,
        bad_fraction=bad,
        warnings=warnings,
    )
