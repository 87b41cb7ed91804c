"""Feature pruning: constants, missing-heavy columns, correlated pairs, SHAP top-k.

`correlation_prune` screens every column pair at once: four matrix
products give each pair's pairwise-complete Pearson r (`_screened_pearson`).
Only pairs whose screened |r| is not below the threshold by SCREEN_MARGIN,
or whose screen is too ill-conditioned to trust, go to `_pairwise_pearson`,
which alone decides a removal and writes its reason, so the scan removes
the same columns in the same order as scoring every pair exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureMatrix


@dataclass
class SelectionReport:
    original: list[str]
    removed: dict[str, str] = field(default_factory=dict)  # column -> reason
    settings: dict = field(default_factory=dict)  # the thresholds that chose these columns

    @property
    def surviving(self) -> list[str]:
        return [c for c in self.original if c not in self.removed]

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


def drop_constant(matrix: FeatureMatrix) -> dict[str, str]:
    """column -> "constant" for each column with a single distinct non-missing value (or none)."""
    lo = np.fmin.reduce(matrix.values, axis=0, initial=np.nan)  # NaN only for an all-NaN column
    hi = np.fmax.reduce(matrix.values, axis=0, initial=np.nan)
    return {col: "constant" for col, varies in zip(matrix.columns, (lo < hi).tolist()) if not varies}


def missing_fraction(matrix: FeatureMatrix, treat_zero_as_missing: bool = False) -> dict[str, float]:
    """Per-column fraction of missing (optionally also zero) values."""
    bad = np.isnan(matrix.values)
    if treat_zero_as_missing:
        bad |= matrix.values == 0.0
    return dict(zip(matrix.columns, (np.count_nonzero(bad, axis=0) / len(matrix.row_ids)).tolist()))


def prune_missing(
    matrix: FeatureMatrix,
    threshold: float = 0.5,
    treat_zero_as_missing: bool = False,
) -> dict[str, str]:
    """column -> reason for each column whose missing fraction is strictly above threshold."""
    fractions = missing_fraction(matrix, treat_zero_as_missing)
    return {col: f"missing(fraction={f:.4f})" for col, f in fractions.items() if f > threshold}


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


SCREEN_MARGIN = 1e-6  # a skipped pair's screened |r| lies at least this far below the threshold


def _screened_pearson(values: np.ndarray) -> np.ndarray:
    """(columns × columns) pairwise-complete Pearson r, from four matrix products.

    Each column is centred by its own mean and scaled by its own std over its
    non-missing rows, with missing rows set to 0 (Z).  With P the presence
    mask, n = PᵀP counts a pair's joint rows, S = ZᵀP and Q = (Z∘Z)ᵀP hold
    column i's sum and sum of squares over them, and C = ZᵀZ their cross
    products, so cov = C − S∘Sᵀ/n and var = Q − S∘S/n.

    A pair is NaN unless both of its columns pass two rounding bounds, which
    together keep the screened r within SCREEN_MARGIN of `_pairwise_pearson`'s
    (ε = rows × machine eps): var keeps at least 8ε / SCREEN_MARGIN of Q (the
    screen's own cancellation), and the joint std is at least
    √(8 / SCREEN_MARGIN) · ε times the column's largest |value| (the rounding
    of the exact formula's mean).  Pairs with fewer than two joint rows or no
    variance are NaN as well.
    """
    present = ~np.isnan(values)
    P = present.astype(float)
    count = P.sum(axis=0)
    Z = np.where(present, values, 0.0)
    eps = len(values) * np.finfo(float).eps
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        peak = np.maximum(Z.max(axis=0, initial=0.0), -Z.min(axis=0, initial=0.0))
        Z -= np.divide(Z.sum(axis=0), count, out=np.zeros_like(count), where=count > 0)
        Z *= P
        std = np.sqrt(np.divide(np.einsum("ij,ij->j", Z, Z), count, out=np.zeros_like(count), where=count > 0))
        scale = np.where(std > 0, std, 1.0)
        Z /= scale
        n = P.T @ P
        C = Z.T @ Z
        S = Z.T @ P
        Z *= Z
        Q = Z.T @ P
        var = Q - S * S / n
        r = (C - S * S.T / n) / np.sqrt(var * var.T)
        bound = 8 / SCREEN_MARGIN
        trusted = (var >= bound * eps * Q) & (var >= bound * n * (eps * peak / scale)[:, None] ** 2)
    r[~(trusted & trusted.T)] = np.nan
    return r


def correlation_prune(
    matrix: FeatureMatrix, threshold: float = 0.95
) -> tuple[FeatureMatrix, SelectionReport]:
    """Scan ordered column pairs; drop the later member of each |r|>threshold pair.

    Pairs the screen places at or below threshold − SCREEN_MARGIN are skipped;
    NaN screen values count as candidates.
    """
    report = SelectionReport(list(matrix.columns))
    cols = matrix.columns
    screened = _screened_pearson(matrix.values)
    candidate = ~(np.abs(screened) <= threshold - SCREEN_MARGIN)
    for i in range(len(cols)):
        if cols[i] in report.removed:
            continue
        for j in (np.flatnonzero(candidate[i, i + 1 :]) + i + 1).tolist():
            if cols[j] in report.removed:
                continue
            r = _pairwise_pearson(matrix.values[:, i], matrix.values[:, j])
            if abs(r) > threshold:
                report.removed[cols[j]] = f"correlated(with={cols[i]}, r={r:.4f})"
    return matrix.subset_columns(report.surviving), report


def select_top_k_by_shap(matrix: FeatureMatrix, importance: dict[str, float], k: int = 20) -> FeatureMatrix:
    """Keep the k columns with largest mean-|phi| importance, in original order.

    Ties break toward earlier columns.
    """
    if k > len(matrix.columns):
        raise ValueError(f"k={k} exceeds {len(matrix.columns)} columns")
    order = sorted(
        range(len(matrix.columns)),
        key=lambda j: (-importance.get(matrix.columns[j], 0.0), j),
    )
    return matrix.subset_columns([matrix.columns[j] for j in sorted(order[:k])])
