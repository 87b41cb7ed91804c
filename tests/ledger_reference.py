"""The per-row ledger loader that `creditshap.tables` replaced, kept as the
reference its columns, errors and artifacts are checked against.

It holds one record object per CSV row. `load_table` walks the rows in file
order and raises the first bad row's error; `join_bundle` joins the records
into per-account dicts, each account's transactions sorted by (date, id).
Amounts follow the grammar [+-]?[0-9]+(\\.[0-9]{1,2})? and dates are exactly
YYYY-MM-DD, both after stripping.

`write_ledger` writes records back as the four CSVs, and `load_both` reads a
ledger directory through both loaders.
"""

from __future__ import annotations

import csv
import datetime
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

from creditshap.pipeline import ingest_stage
from creditshap.tables import MAX_CENTS, SCHEMAS, DataError

AMOUNT = re.compile(r"[+-]?[0-9]+(\.[0-9]{1,2})?")
DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
SPAN_DAYS = 140


def parse_cents(text: str) -> int:
    """Parse a decimal currency string (<=2 fraction digits) into integer cents."""
    text = text.strip()
    if not AMOUNT.fullmatch(text):
        raise DataError(f"bad currency amount {text!r}")
    whole, _, frac = text.lstrip("+-").partition(".")
    cents = int(whole) * 100 + int(frac.ljust(2, "0") or "0")
    if cents >= MAX_CENTS:
        raise DataError(f"currency amount {text!r} out of range (|cents| must be below 2**53)")
    return -cents if text.startswith("-") else cents


def parse_date(text: str, where: str) -> datetime.date:
    text = text.strip()
    try:
        if DATE.fullmatch(text):
            return datetime.date.fromisoformat(text)
    except ValueError:
        pass
    raise DataError(f"{where}: bad date {text!r}")


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


def load_table(path, kind: str):
    """Load one CSV table; returns a list of records of the matching type."""
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
            if kind != "clients":
                key = raw[0].strip()
                if key in seen:
                    raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
                seen.add(key)
            rows.append(rec)
    return rows


def _parse_row(kind, raw):
    if kind == "clients":
        return ClientRecord(raw[0].strip(), raw[1].strip())
    if kind == "accounts":
        return AccountRecord(raw[0].strip(), parse_cents(raw[1]), parse_date(raw[2], "balance_date"))
    if kind == "transactions":
        amount = parse_cents(raw[3])
        if amount == 0:
            raise DataError("zero transaction amount")
        return TransactionRecord(raw[0].strip(), raw[1].strip(), parse_date(raw[2], "date"), amount)
    perf = raw[2].strip()
    if perf not in ("0", "1"):
        raise DataError(f"performance must be 0 or 1, got {perf!r}")
    return LoanOutcome(raw[0].strip(), parse_date(raw[1], "application_date"), int(perf))


@dataclass
class RecordBundle:
    clients: list[ClientRecord]
    accounts: dict[str, AccountRecord]
    transactions: dict[str, list[TransactionRecord]]  # account_id -> txns, date order
    outcomes: dict[str, LoanOutcome]

    @property
    def labeled_account_ids(self) -> list[str]:
        return [a for a in self.accounts if a in self.outcomes]


def join_bundle(clients, accounts, transactions, outcomes) -> RecordBundle:
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
            raise DataError(f"account {o.account_id}: balance snapshot predates loan application")
        out_map[o.account_id] = o
    return RecordBundle(list(clients), acc_map, txn_map, out_map)


def load_ledger(data) -> RecordBundle:
    data = Path(data)
    return join_bundle(*(load_table(data / f"{kind}.csv", kind) for kind in SCHEMAS))


def load_both(data):
    """The ledger in `data` as (columnar LedgerBundle, RecordBundle)."""
    return ingest_stage(data), load_ledger(data)


def money(cents: int) -> str:
    return f"{'-' if cents < 0 else ''}{abs(cents) // 100}.{abs(cents) % 100:02d}"


def write_ledger(out, clients=(), accounts=(), transactions=(), outcomes=()) -> Path:
    """Write records as the four CSVs of a ledger directory."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rows = {
        "clients": [(c.client_id, c.account_id) for c in clients],
        "accounts": [(a.account_id, money(a.snapshot_balance), a.snapshot_date.isoformat()) for a in accounts],
        "transactions": [(t.transaction_id, t.account_id, t.date.isoformat(), money(t.amount)) for t in transactions],
        "loans": [(o.account_id, o.application_date.isoformat(), o.performance) for o in outcomes],
    }
    for kind, table in rows.items():
        with open(out / f"{kind}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([SCHEMAS[kind], *table])
    return out


def bundles_of(clients=(), accounts=(), transactions=(), outcomes=()):
    """Records written as CSVs and read back through both loaders."""
    with tempfile.TemporaryDirectory() as tmp:
        return load_both(write_ledger(tmp, clients, accounts, transactions, outcomes))


def arrays(bundle: RecordBundle) -> dict:
    """The reference bundle as the lists the columnar bundle holds."""
    ids = list(bundle.accounts)
    txns = [(row, t) for row, a in enumerate(ids) for t in bundle.transactions[a]]
    outcomes = [bundle.outcomes.get(a) for a in ids]
    return {
        "account_ids": ids,
        "snapshot": [a.snapshot_balance for a in bundle.accounts.values()],
        "snapshot_days": [a.snapshot_date.toordinal() for a in bundle.accounts.values()],
        "labeled": [o is not None for o in outcomes],
        "application_days": [o.application_date.toordinal() if o else 0 for o in outcomes],
        "performance": [o.performance if o else 0 for o in outcomes],
        "acc": [row for row, _ in txns],
        "days": [t.date.toordinal() for _, t in txns],
        "amounts": [t.amount for _, t in txns],
    }


def columnar_arrays(bundle) -> dict:
    """The same lists, read from a columnar LedgerBundle."""
    lookup = bundle.balances
    return {
        "account_ids": bundle.account_ids.tolist(),
        "snapshot": lookup.snapshot.tolist(),
        "snapshot_days": bundle.snapshot_days.tolist(),
        "labeled": bundle.labeled.tolist(),
        "application_days": bundle.application_days.tolist(),
        "performance": bundle.performance.tolist(),
        "acc": lookup.acc.tolist(),
        "days": lookup.days.tolist(),
        "amounts": lookup.amounts.tolist(),
    }


def per_day_balances(account, txns, start_date):
    """The per-day builder the balance lookup replaced: balances
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


def per_day_range(bundle: RecordBundle):
    """The least and greatest balance of every account's per-day series: a labeled
    account's starts 140 days before its application, any other's at its first
    transaction, or at its snapshot without one."""
    every = []
    for acc_id, account in bundle.accounts.items():
        txns = bundle.transactions[acc_id]
        if acc_id in bundle.outcomes:
            start = bundle.outcomes[acc_id].application_date - datetime.timedelta(days=SPAN_DAYS)
        elif txns:
            start = min(t.date for t in txns)
        else:
            start = account.snapshot_date
        every += per_day_balances(account, txns, min(start, account.snapshot_date))
    return min(every), max(every)


def sanity(bundle: RecordBundle) -> dict:
    """The fields of sanity.json, from the records and the per-day series."""
    low, high = per_day_range(bundle) if bundle.accounts else (None, None)
    amounts = [t.amount for txns in bundle.transactions.values() for t in txns]
    labels = [o.performance for o in bundle.outcomes.values()]
    warnings = []
    if labels:
        bad = sum(labels) / len(labels)
        good = 1.0 - bad
        if bad in (0.0, 1.0):
            warnings.append("single-class labels: stratified evaluation will fail")
    else:
        good = bad = None
        warnings.append("no labeled accounts")
    warnings += [f"labeled account {a} has no transactions" for a in bundle.labeled_account_ids if not bundle.transactions[a]]
    return {
        "n_accounts": len(bundle.accounts),
        "n_labeled": len(labels),
        "min_balance": low,
        "max_balance": high,
        "min_txn": min(amounts, default=None),
        "max_txn": max(amounts, default=None),
        "good_fraction": good,
        "bad_fraction": bad,
        "warnings": warnings,
    }
