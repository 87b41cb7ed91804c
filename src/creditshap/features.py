"""Windowed KPI feature matrix and the standard-normal scaler.

Per labeled account, four half-open day-offset windows before the
application date ([0,30), [30,60), [60,90), [90,120)) each yield
6 transaction stats x 3 directions + 8 balance stats = 26 KPIs, plus
two whole-horizon activity KPIs, for 106 columns total.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .tables import DataError, LedgerBundle

HORIZON_DAYS = 120

WINDOWS = (
    ("last30", 0, 30),
    ("30_60", 30, 60),
    ("60_90", 60, 90),
    ("90_120", 90, 120),
)

TRX_STATS = ("min", "max", "mean", "sum", "count", "std")
DIRECTIONS = ("incoming", "outgoing", "all")
BAL_STATS = ("var", "max_pos", "max_neg", "min", "max", "mean", "std", "slope")

GLOBAL_KPIS = ("trx_count_all_total120", "trx_active_days_total120")


@dataclass(frozen=True)
class WindowSpec:
    label: str
    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo < self.hi):
            raise ValueError(f"bad window [{self.lo}, {self.hi})")


CANONICAL_WINDOWS = tuple(WindowSpec(*w) for w in WINDOWS)


def kpi_columns() -> list[str]:
    cols = []
    for label, _, _ in WINDOWS:
        for stat in TRX_STATS:
            for direction in DIRECTIONS:
                cols.append(f"trx_{stat}_{direction}_{label}")
        for stat in BAL_STATS:
            cols.append(f"acc_bal_{stat}_{label}")
    cols.extend(GLOBAL_KPIS)
    return cols


def window_slice(dates, application_date, spec: WindowSpec):
    """Indices of events with lo <= (application_date - date).days < hi."""
    out = []
    for i, d in enumerate(dates):
        offset = (application_date - d).days
        if spec.lo <= offset < spec.hi:
            out.append(i)
    return out


def aggregate_transactions(amounts, stat: str, direction: str) -> float:
    """Stat over signed amounts filtered by direction; NaN marks missing.

    count is 0 (not missing) on an empty filter; every other stat is missing.
    """
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
    """Balance stat over the window's daily series; NaN when no coverage."""
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


@dataclass
class FeatureMatrix:
    row_ids: list[str]
    columns: list[str]
    values: np.ndarray  # float64, NaN = missing
    y: np.ndarray  # int labels, aligned with row_ids

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")
        if self.values.shape != (len(self.row_ids), len(self.columns)):
            raise ValueError("values shape mismatch")
        if len(self.y) != len(self.row_ids):
            raise ValueError("label length mismatch")

    @property
    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.values)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]

    def subset_columns(self, names) -> "FeatureMatrix":
        idx = [self.columns.index(n) for n in names]
        return FeatureMatrix(list(self.row_ids), list(names), self.values[:, idx].copy(), self.y.copy())

    def subset_rows(self, idx) -> "FeatureMatrix":
        idx = np.asarray(idx)
        return FeatureMatrix(
            [self.row_ids[i] for i in idx], list(self.columns), self.values[idx].copy(), self.y[idx].copy()
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row_id", *self.columns, "performance"])
            for i, rid in enumerate(self.row_ids):
                row = [rid]
                for v in self.values[i]:
                    row.append("" if math.isnan(v) else repr(float(v)))
                row.append(int(self.y[i]))
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path) -> "FeatureMatrix":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[0] != "row_id" or header[-1] != "performance":
                raise DataError(f"{path}: not a feature-matrix CSV")
            columns = header[1:-1]
            row_ids, rows, ys = [], [], []
            for raw in reader:
                row_ids.append(raw[0])
                rows.append([float(c) if c else math.nan for c in raw[1:-1]])
                ys.append(int(raw[-1]))
        return cls(row_ids, columns, np.asarray(rows, dtype=float), np.asarray(ys, dtype=int))

    def to_json(self, path) -> None:
        payload = {
            "row_ids": self.row_ids,
            "columns": self.columns,
            "values": [[None if math.isnan(v) else v for v in row] for row in self.values.tolist()],
            "performance": self.y.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def from_json(cls, path) -> "FeatureMatrix":
        with open(path) as fh:
            payload = json.load(fh)
        values = np.asarray(
            [[math.nan if v is None else v for v in row] for row in payload["values"]], dtype=float
        )
        if values.size == 0:
            values = values.reshape(len(payload["row_ids"]), len(payload["columns"]))
        return cls(payload["row_ids"], payload["columns"], values, np.asarray(payload["performance"], dtype=int))


def account_features(bundle: LedgerBundle, acc_id: str) -> list[float]:
    outcome = bundle.outcomes[acc_id]
    app_date = outcome.application_date
    txns = bundle.transactions[acc_id]
    series = bundle.balances.get(acc_id)
    if series is None:
        raise DataError(f"account {acc_id}: balances not reconstructed")
    row: list[float] = []
    txn_dates = [t.date for t in txns]
    for spec in CANONICAL_WINDOWS:
        idx = window_slice(txn_dates, app_date, spec)
        amounts = [txns[i].amount for i in idx]
        for stat in TRX_STATS:
            for direction in DIRECTIONS:
                row.append(aggregate_transactions(amounts, stat, direction))
        # window days, chronological: offsets hi-1 .. lo before the application
        days = [app_date - datetime.timedelta(days=o) for o in range(spec.hi - 1, spec.lo - 1, -1)]
        in_series = [d for d in days if series.start_date <= d <= series.end_date]
        balances = [series.balance_on(d) for d in in_series]
        for stat in BAL_STATS:
            row.append(aggregate_balance(balances, stat))
    horizon = [t for t in txns if 0 <= (app_date - t.date).days < HORIZON_DAYS]
    row.append(float(len(horizon)))
    row.append(float(len({t.date for t in horizon})))
    return row


def build_feature_matrix(bundle: LedgerBundle) -> FeatureMatrix:
    """One row per labeled account application; 106 KPI columns."""
    acc_ids = bundle.labeled_account_ids
    if not acc_ids:
        raise DataError("no labeled accounts to featurize")
    columns = kpi_columns()
    values = np.asarray([account_features(bundle, a) for a in acc_ids], dtype=float)
    y = np.asarray([bundle.outcomes[a].performance for a in acc_ids], dtype=int)
    return FeatureMatrix(acc_ids, columns, values, y)


def drop_inactive_accounts(matrix: FeatureMatrix) -> FeatureMatrix:
    """Remove rows with zero transactions over the whole 120-day horizon."""
    total = matrix.column("trx_count_all_total120")
    keep = np.where(total > 0)[0]
    if keep.size == 0:
        raise DataError("all accounts inactive over the feature horizon")
    if keep.size == len(matrix.row_ids):
        return matrix
    return matrix.subset_rows(keep)


@dataclass
class ScalerParams:
    columns: list[str]
    mean: np.ndarray
    std: np.ndarray  # population std; 0 marks a constant (pass-through) column

    @property
    def constant_columns(self) -> list[str]:
        return [c for c, s in zip(self.columns, self.std) if s == 0.0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        # zero-variance columns pass through unscaled
        const = self.std == 0.0
        std = np.where(const, 1.0, self.std)
        mean = np.where(const, 0.0, self.mean)
        return (X - mean) / std

    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        const = self.std == 0.0
        std = np.where(const, 1.0, self.std)
        mean = np.where(const, 0.0, self.mean)
        return Z * std + mean

    def to_dict(self) -> dict:
        return {"columns": self.columns, "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerParams":
        return cls(list(d["columns"]), np.asarray(d["mean"], dtype=float), np.asarray(d["std"], dtype=float))


def fit_scaler(X: np.ndarray, columns) -> ScalerParams:
    """Population mean/std per column; constant columns flagged with std 0."""
    if np.isnan(X).any():
        raise ValueError("impute missing values before scaling")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    return ScalerParams(list(columns), mean, std)


def standardize(X: np.ndarray, columns) -> tuple[np.ndarray, ScalerParams]:
    params = fit_scaler(X, columns)
    return params.transform(X), params


def median_impute(X: np.ndarray, medians: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Fill NaNs with per-column medians (fit on train, reuse on test)."""
    X = np.array(X, dtype=float, copy=True)
    if medians is None:
        with warnings.catch_warnings():  # an all-NaN column warns; it is filled with 0
            warnings.simplefilter("ignore", RuntimeWarning)
            medians = np.nanmedian(X, axis=0)
        medians = np.where(np.isnan(medians), 0.0, medians)
    nan_rows, nan_cols = np.nonzero(np.isnan(X))
    X[nan_rows, nan_cols] = medians[nan_cols]
    return X, medians
