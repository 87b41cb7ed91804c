"""Windowed KPI feature matrix and the standard-normal scaler.

Per labeled account, four half-open day-offset windows before the
application date ([0,30), [30,60), [60,90), [90,120)) each yield
6 transaction stats x 3 directions + 8 balance stats = 26 KPIs, plus
two whole-horizon activity KPIs, for 106 columns total.

`build_feature_matrix` is one columnar pass over the ledger. The bundle's
balance lookup (`tables.BalanceLookup`), its one transaction store, gives
the labeled accounts' transactions as day offsets, int64 cents and row
indices, and each window's daily balances as one (accounts x 30) matrix.
Each window then yields its KPIs for every account at once: transaction
stats from grouped int64 reductions, balance stats from row-wise
reductions over that matrix. Float sums run in list and day order, so
every KPI keeps the bits of a per-account left fold.
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


def _quote(field: str) -> str:
    """field as csv.writer's minimal quoting writes it in a row of several fields."""
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


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
        """The bytes csv.writer writes. A number never needs quoting, so each
        row's cells are joined once; only the row id is quoted, minimally."""
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["row_id", *self.columns, "performance"])
            for rid, values, y in zip(self.row_ids, self.values, self.y.tolist()):
                cells = ",".join(map(repr, values.tolist())).replace("nan", "")  # a missing cell is empty
                fh.write(f"{_quote(rid)},{cells},{int(y)}\r\n")

    @classmethod
    def from_csv(cls, path) -> "FeatureMatrix":
        """The matrix `to_csv` wrote; a malformed file is a DataError naming it and the line."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "row_id" or header[-1] != "performance":
                raise DataError(f"{path}: not a feature-matrix CSV")
            columns = header[1:-1]
            row_ids, rows, ys = [], [], []
            for lineno, raw in enumerate(reader, start=2):
                if len(raw) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(raw)}")
                try:
                    rows.append([float(c) if c else math.nan for c in raw[1:-1]])
                    ys.append(int(raw[-1]))
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from exc
                row_ids.append(raw[0])
        if not rows:
            raise DataError(f"{path}: no rows below the header")
        return cls(row_ids, columns, np.array(rows, dtype=float).reshape(len(rows), len(columns)), np.array(ys, dtype=int))


def _transaction_stats(acc, amounts, n: int) -> np.ndarray:
    """The TRX_STATS of each of n accounts, one row per stat; NaN marks missing.

    `amounts` are int64 cents grouped into runs by `acc`, each account's in
    list order. count is 0 (not missing) for an account with no amount; every
    other stat is missing. min, max and sum are exact int64 reductions, and
    the std adds its squares in list order, as a left fold does.
    """
    count = np.bincount(acc, minlength=n)
    has = count > 0
    starts = (np.cumsum(count) - count)[has]  # where each non-empty run begins
    total = np.add.reduceat(amounts, starts)
    mean = total / count[has]
    d = amounts - np.repeat(mean, count[has])
    # float_power squares with C pow, as `(v - m) ** 2` does; `d * d` and np.power round otherwise
    squares = np.bincount(acc, weights=np.float_power(d, 2.0), minlength=n)[has]
    out = np.full((len(TRX_STATS), n), math.nan)
    out[4] = count
    out[:, has] = [
        np.minimum.reduceat(amounts, starts),
        np.maximum.reduceat(amounts, starts),
        mean,
        total,
        count[has],
        np.sqrt(squares / count[has]),
    ]
    return out


def _balance_stats(balances: np.ndarray) -> np.ndarray:
    """The BAL_STATS of each row of daily balances (accounts x days), one row per stat.

    Means and squares are added along each row in day order, and the slope
    takes one dot product per row, so each account gets the bits of its own
    left folds and `np.dot`.
    """
    days = balances.shape[1]
    lo, hi = balances.min(axis=1), balances.max(axis=1)
    mean = np.cumsum(balances, axis=1)[:, -1] / days
    d = balances - mean[:, None]
    std = np.sqrt(np.cumsum(np.float_power(d, 2.0), axis=1)[:, -1] / days)
    t = np.arange(days, dtype=float)
    t -= t.mean()
    centered = balances - balances.mean(axis=1, keepdims=True)
    # a stack of vector-vector products, each the np.dot of one row (Y @ t rounds otherwise)
    slope = np.matmul(t, centered[:, :, None])[:, 0] / np.dot(t, t)
    var = balances[:, -1] - balances[:, 0]
    return np.array([var, np.maximum(0.0, hi), np.abs(np.minimum(0.0, lo)), lo, hi, mean, std, slope])


def build_feature_matrix(bundle: LedgerBundle) -> FeatureMatrix:
    """One row per labeled account application; 106 KPI columns."""
    acc_ids = bundle.labeled_account_ids
    if not acc_ids:
        raise DataError("no labeled accounts to featurize")
    lookup = bundle.balances
    n, columns = len(acc_ids), kpi_columns()
    rows = np.flatnonzero(bundle.labeled)  # the lookup's rows of the matrix's accounts
    app_days = bundle.application_days[rows]
    labeled = bundle.labeled[lookup.acc]
    acc = np.searchsorted(rows, lookup.acc[labeled])  # each labeled transaction's matrix row
    offsets = app_days[acc] - lookup.days[labeled]  # days before the application
    amounts = lookup.amounts[labeled]
    blocks = []  # the columns of kpi_columns(), one row each
    for spec in CANONICAL_WINDOWS:
        inside = (spec.lo <= offsets) & (offsets < spec.hi)
        by_direction = [
            _transaction_stats(acc[keep], amounts[keep], n)
            for keep in (inside & (amounts > 0), inside & (amounts < 0), inside)
        ]
        blocks.append(np.stack(by_direction, axis=1).reshape(-1, n))  # stat-major
        # column j: the balance spec.hi - 1 - j days before the application
        days = app_days[:, None] - np.arange(spec.hi - 1, spec.lo - 1, -1)
        blocks.append(_balance_stats(lookup.balance(rows[:, None], days).astype(float)))
    in_horizon = (HORIZON.lo <= offsets) & (offsets < HORIZON.hi)
    active_days = np.unique(acc[in_horizon] * HORIZON.hi + offsets[in_horizon])  # distinct (row, day) pairs
    blocks.append([np.bincount(acc[in_horizon], minlength=n), np.bincount(active_days // HORIZON.hi, minlength=n)])
    values = np.hstack([np.asarray(b, dtype=float).T for b in blocks])  # C order, one copy
    return FeatureMatrix(acc_ids, columns, values, bundle.performance[rows])


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
