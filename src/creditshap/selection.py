"""Feature pruning: constants, missing-heavy columns, correlated pairs, SHAP top-k."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureMatrix


@dataclass
class SelectionReport:
    original: list[str]
    removed: dict[str, str] = field(default_factory=dict)  # column -> reason
    surviving: list[str] = field(default_factory=list)
    settings: dict = field(default_factory=dict)  # the thresholds that chose these columns

    def record(self, column: str, reason: str) -> None:
        self.removed[column] = reason

    def finish(self) -> None:
        self.surviving = [c for c in self.original if c not in self.removed]

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "original": self.original,
                    "removed": self.removed,
                    "surviving": self.surviving,
                    "settings": self.settings,
                    "note": "correlation threshold is a Pearson coefficient, not a percentage",
                },
                fh,
                indent=2,
            )

    def table(self) -> str:
        lines = [f"{'column':40s} reason"]
        for col, reason in self.removed.items():
            lines.append(f"{col:40s} {reason}")
        lines.append(f"kept {len(self.surviving)} of {len(self.original)} columns")
        return "\n".join(lines)


def drop_constant(matrix: FeatureMatrix) -> tuple[FeatureMatrix, SelectionReport]:
    """Remove columns with a single distinct non-missing value."""
    report = SelectionReport(list(matrix.columns))
    keep = []
    for j, col in enumerate(matrix.columns):
        vals = matrix.values[:, j]
        finite = vals[~np.isnan(vals)]
        if finite.size == 0 or np.unique(finite).size <= 1:
            report.record(col, "constant")
        else:
            keep.append(col)
    report.finish()
    return matrix.subset_columns(keep), report


def missing_fraction(
    matrix: FeatureMatrix, treat_zero_as_missing: bool = False
) -> dict[str, float]:
    """Per-column fraction of missing (optionally also zero) values."""
    n = len(matrix.row_ids)
    fractions = {}
    for j, col in enumerate(matrix.columns):
        vals = matrix.values[:, j]
        bad = np.isnan(vals)
        if treat_zero_as_missing:
            bad = bad | (vals == 0.0)
        fractions[col] = float(bad.sum()) / n
    return fractions


def prune_missing(
    matrix: FeatureMatrix,
    threshold: float = 0.5,
    treat_zero_as_missing: bool = False,
) -> tuple[FeatureMatrix, SelectionReport]:
    """Remove columns whose missing fraction is strictly above threshold."""
    report = SelectionReport(list(matrix.columns))
    fractions = missing_fraction(matrix, treat_zero_as_missing)
    keep = []
    for col in matrix.columns:
        if fractions[col] > threshold:
            report.record(col, f"missing(fraction={fractions[col]:.4f})")
        else:
            keep.append(col)
    report.finish()
    return matrix.subset_columns(keep), report


def _pairwise_pearson(a: np.ndarray, b: np.ndarray) -> float:
    both = ~np.isnan(a) & ~np.isnan(b)
    if both.sum() < 2:
        return 0.0
    x, y = a[both], b[both]
    xd, yd = x - x.mean(), y - y.mean()
    denom = np.sqrt(np.dot(xd, xd) * np.dot(yd, yd))
    if denom == 0.0:
        return 0.0
    return float(np.dot(xd, yd) / denom)


def correlation_prune(
    matrix: FeatureMatrix, threshold: float = 0.95
) -> tuple[FeatureMatrix, SelectionReport]:
    """Scan ordered column pairs; drop the later member of each |r|>threshold pair."""
    report = SelectionReport(list(matrix.columns))
    cols = matrix.columns
    removed: set[int] = set()
    for i in range(len(cols)):
        if i in removed:
            continue
        for j in range(i + 1, len(cols)):
            if j in removed:
                continue
            r = _pairwise_pearson(matrix.values[:, i], matrix.values[:, j])
            if abs(r) > threshold:
                removed.add(j)
                report.record(cols[j], f"correlated(with={cols[i]}, r={r:.4f})")
    keep = [c for k, c in enumerate(cols) if k not in removed]
    report.finish()
    return matrix.subset_columns(keep), report


def select_top_k_by_shap(
    matrix: FeatureMatrix, importance: dict[str, float], k: int = 20
) -> tuple[FeatureMatrix, SelectionReport]:
    """Keep the k columns with largest mean-|phi| importance, in original order.

    Ties break toward earlier columns.
    """
    if k > len(matrix.columns):
        raise ValueError(f"k={k} exceeds {len(matrix.columns)} columns")
    report = SelectionReport(list(matrix.columns))
    order = sorted(
        range(len(matrix.columns)),
        key=lambda j: (-importance.get(matrix.columns[j], 0.0), j),
    )
    chosen = set(order[:k])
    keep = [c for j, c in enumerate(matrix.columns) if j in chosen]
    for j, c in enumerate(matrix.columns):
        if j not in chosen:
            report.record(c, "not_in_top_k")
    report.finish()
    return matrix.subset_columns(keep), report
