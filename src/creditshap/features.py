"""Windowed KPI feature matrix and the standard-normal scaler.

Per labeled account, four half-open day-offset windows before the
application date ([0,30), [30,60), [60,90), [90,120)) each yield
6 transaction stats x 3 directions + 8 balance stats = 26 KPIs, plus
two whole-horizon activity KPIs, for 106 columns total.

`account_features` makes one pass per window: each transaction's day
offset is computed once, `window_slice` picks the window's amounts,
`transaction_stats` turns each direction's amounts into its whole stat
vector, and `balance_stats` does the same for the window's daily
balances, one clamped slice of the account's balance series.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .tables import DataError, LedgerBundle

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


CANONICAL_WINDOWS = (
    WindowSpec("last30", 0, 30),
    WindowSpec("30_60", 30, 60),
    WindowSpec("60_90", 60, 90),
    WindowSpec("90_120", 90, 120),
)
HORIZON = WindowSpec("total120", 0, 120)


def kpi_columns() -> list[str]:
    cols = []
    for spec in CANONICAL_WINDOWS:
        for stat in TRX_STATS:
            for direction in DIRECTIONS:
                cols.append(f"trx_{stat}_{direction}_{spec.label}")
        for stat in BAL_STATS:
            cols.append(f"acc_bal_{stat}_{spec.label}")
    cols.extend(GLOBAL_KPIS)
    return cols


def window_slice(offsets, spec: WindowSpec) -> list[int]:
    """Indices of the day offsets (days before the application) with lo <= offset < hi."""
    return [i for i, offset in enumerate(offsets) if spec.lo <= offset < spec.hi]


def _mean_std(vals) -> tuple[float, float]:
    """Mean and two-pass population std of a non-empty list."""
    m = sum(vals) / len(vals)
    return m, math.sqrt(sum((v - m) ** 2 for v in vals) / len(vals))


def transaction_stats(amounts) -> list[float]:
    """The TRX_STATS of signed amounts, in that order; NaN marks missing.

    count is 0 (not missing) on an empty list; every other stat is missing.
    """
    if not amounts:
        return [math.nan, math.nan, math.nan, math.nan, 0.0, math.nan]
    mean, std = _mean_std(amounts)
    return [float(min(amounts)), float(max(amounts)), mean, float(sum(amounts)), float(len(amounts)), std]


def balance_stats(balances) -> list[float]:
    """The BAL_STATS of a window's daily balances, in that order; all NaN when no coverage."""
    if len(balances) == 0:
        return [math.nan] * len(BAL_STATS)
    b = [float(v) for v in balances]
    lo, hi = min(b), max(b)
    mean, std = _mean_std(b)
    if len(b) == 1:
        slope = 0.0
    else:
        t = np.arange(len(b), dtype=float)
        t -= t.mean()
        y = np.asarray(b)
        slope = float(np.dot(t, y - y.mean()) / np.dot(t, t))
    return [b[-1] - b[0], max(0.0, hi), abs(min(0.0, lo)), lo, hi, mean, std, slope]


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


def account_features(bundle: LedgerBundle, acc_id: str) -> list[float]:
    """The account's 106 KPIs in kpi_columns() order."""
    app_date = bundle.outcomes[acc_id].application_date
    txns = bundle.transactions[acc_id]
    series = bundle.balances.get(acc_id)
    if series is None:
        raise DataError(f"account {acc_id}: balances not reconstructed")
    offsets = [(app_date - t.date).days for t in txns]
    app_day = (app_date - series.start_date).days  # the application's index in the series
    row: list[float] = []
    for spec in CANONICAL_WINDOWS:
        amounts = [txns[i].amount for i in window_slice(offsets, spec)]
        by_direction = (
            transaction_stats([a for a in amounts if a > 0]),
            transaction_stats([a for a in amounts if a < 0]),
            transaction_stats(amounts),
        )
        for stat_values in zip(*by_direction):  # stat-major, as in kpi_columns()
            row.extend(stat_values)
        # the window's days run from hi - 1 to lo days before the application; the slice
        # clamps them to the series (it starts at index 0, and a slice stops at its end)
        first, stop = max(app_day - spec.hi + 1, 0), max(app_day - spec.lo + 1, 0)
        row.extend(balance_stats(series.balances[first:stop]))
    horizon = window_slice(offsets, HORIZON)
    row.append(float(len(horizon)))
    row.append(float(len({offsets[i] for i in horizon})))
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
