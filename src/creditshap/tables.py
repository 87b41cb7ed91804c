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


@dataclass
class DailyBalanceSeries:
    account_id: str
    start_date: datetime.date
    end_date: datetime.date
    balances: list[int]  # cents, one per calendar day


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
            key = _primary_key(kind, rec)
            if key is not None:
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


def _primary_key(kind, rec):
    if kind == "accounts":
        return rec.account_id
    if kind == "transactions":
        return rec.transaction_id
    if kind == "loans":
        return rec.account_id
    return None  # client table is a many-to-many link table


@dataclass
class LedgerBundle:
    clients: list[ClientRecord]
    accounts: dict[str, AccountRecord]
    transactions: dict[str, list[TransactionRecord]]  # account_id -> txns, date order
    outcomes: dict[str, LoanOutcome]
    balances: dict[str, DailyBalanceSeries] = field(default_factory=dict)

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


def reconstruct_balances(account, txns, start_date) -> DailyBalanceSeries:
    """Back-propagate daily balances from the snapshot down to start_date.

    balance(d) = snapshot - sum of txn amounts with d < txn.date <= snapshot_date,
    so the balance on the snapshot day equals the snapshot exactly.
    """
    if start_date > account.snapshot_date:
        raise DataError("start_date after snapshot_date")
    for t in txns:
        if t.account_id != account.account_id:
            raise DataError(f"transaction {t.transaction_id} belongs to another account")
        if t.date > account.snapshot_date:
            raise DataError(f"transaction {t.transaction_id} dated after snapshot")
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
    return DailyBalanceSeries(account.account_id, start_date, account.snapshot_date, balances)


def reconstruct_bundle_balances(bundle: LedgerBundle, horizon_days: int = 140) -> None:
    """Fill bundle.balances covering the feature horizon before each application.

    Unlabeled accounts get a series from their earliest transaction (they may
    serve as SHAP background data later).
    """
    for acc_id, account in bundle.accounts.items():
        txns = bundle.transactions[acc_id]
        if acc_id in bundle.outcomes:
            start = bundle.outcomes[acc_id].application_date - datetime.timedelta(days=horizon_days)
        elif txns:
            start = min(t.date for t in txns)
        else:
            start = account.snapshot_date
        start = min(start, account.snapshot_date)
        bundle.balances[acc_id] = reconstruct_balances(account, txns, start)


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


def validate_bundle(bundle: LedgerBundle) -> SanityReport:
    """Summarize ranges and class proportions; warns, never mutates."""
    warnings = []
    all_balances = [b for s in bundle.balances.values() for b in s.balances]
    all_amounts = [t.amount for txns in bundle.transactions.values() for t in txns]
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
        min_balance=min(all_balances) if all_balances else None,
        max_balance=max(all_balances) if all_balances else None,
        min_txn=min(all_amounts) if all_amounts else None,
        max_txn=max(all_amounts) if all_amounts else None,
        good_fraction=good,
        bad_fraction=bad,
        warnings=warnings,
    )
