"""Evaluation: ROC/AUC/Gini, splits, stratified k-fold CV.

Positive class is the bad payer (label 1), matching the credit-risk
convention that a true positive is a correctly flagged defaulter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    @property
    def gini(self) -> float:
        return gini(self.auc)

    def points(self) -> list[dict]:
        return [{"fpr": float(f), "tpr": float(t)} for f, t in zip(self.fpr, self.tpr)]


def roc_auc(y_true, scores) -> RocCurve:
    """Threshold-sweep ROC with tied scores grouped into one step; trapezoid AUC."""
    y_true = np.asarray(y_true, dtype=int)
    scores = np.asarray(scores, dtype=float)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    n_pos = int(y_true.sum())
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    y_sorted = y_true[order]
    s_sorted = scores[order]
    # collapse runs of equal scores into single threshold steps
    distinct = np.nonzero(np.diff(s_sorted))[0]
    idx = np.r_[distinct, len(s_sorted) - 1]
    tps = np.cumsum(y_sorted)[idx]
    fps = (idx + 1) - tps
    tpr = np.r_[0.0, tps / n_pos]
    fpr = np.r_[0.0, fps / n_neg]
    # The trapezoid sum can round a few ulps above 1 on a perfectly separated
    # sample (1.0000000000000002), which gini() rejects; the true area is at
    # most 1.  Capping leaves every other AUC bit-identical.
    auc = min(float(np.trapezoid(tpr, fpr)), 1.0)
    return RocCurve(fpr, tpr, auc)


def gini(auc: float) -> float:
    if not 0.0 <= auc <= 1.0:
        raise ValueError(f"auc {auc} outside [0, 1]")
    return 2.0 * auc - 1.0


@dataclass
class TrainSplit:
    """Handle over the training partition; resamplers accept only this type.

    The wrapper makes leaking test rows into resampling inexpressible
    through the public API.
    """

    X: np.ndarray
    y: np.ndarray
    columns: list[str] = field(default_factory=list)


def train_test_split(X, y, train_fraction: float = 0.75, seed: int = 0):
    """Disjoint exhaustive split that preserves per-class proportions."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    X = np.asarray(X)
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    n = len(y)
    train_idx = []
    for cls in np.unique(y):
        cls_idx = np.nonzero(y == cls)[0]
        perm = rng.permutation(cls_idx)
        k = int(round(train_fraction * len(cls_idx)))
        k = min(max(k, 1), len(cls_idx) - 1) if len(cls_idx) > 1 else k
        train_idx.append(perm[:k])
    train_idx = np.sort(np.concatenate(train_idx))
    mask = np.zeros(n, dtype=bool)
    mask[train_idx] = True
    test_idx = np.nonzero(~mask)[0]
    return train_idx, test_idx


def validation_split(y, fraction: float, seed: int = 0):
    """(fit, validation) row indices for early stopping: a stratified split
    holding out `fraction` of the rows, or no row when fraction is 0, there
    are fewer than 20 rows or a class has fewer than 3 (so that the fit part
    keeps at least 2 of each class, as SMOTE needs)."""
    y = np.asarray(y, dtype=int)
    if fraction <= 0 or len(y) < 20 or np.bincount(y, minlength=2).min() < 3:
        return np.arange(len(y)), np.empty(0, dtype=int)
    return train_test_split(y, y, train_fraction=1.0 - fraction, seed=seed)


def stratified_kfold(y, k: int = 5, seed: int = 0):
    """Yield (train_idx, test_idx) pairs; every fold must see both classes."""
    if k < 2:
        raise ValueError("k must be >= 2")
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for cls in np.unique(y):
        cls_idx = rng.permutation(np.nonzero(y == cls)[0])
        for i, idx in enumerate(cls_idx):
            folds[i % k].append(idx)
    folds = [np.sort(np.asarray(f, dtype=int)) for f in folds]
    splits = []
    for i in range(k):
        test_idx = folds[i]
        if np.unique(y[test_idx]).size < 2:
            raise ValueError(f"fold {i} lacks a class; lower k or add data")
        train_idx = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        splits.append((train_idx, test_idx))
    return splits


@dataclass
class CvResult:
    fold_ginis: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_ginis))

    @property
    def std(self) -> float:
        # sample std over the k fold Ginis (ddof=1), as reported in parentheses
        if len(self.fold_ginis) < 2:
            return 0.0
        return float(np.std(self.fold_ginis, ddof=1))

    def formatted(self) -> str:
        return f"{self.mean:.2f} ({self.std:.2f})"


def cross_validate(fit_and_score, X, y, k: int = 5, seed: int = 0) -> CvResult:
    """Stratified k-fold CV.

    fit_and_score(train_split: TrainSplit, X_test, y_test) -> test scores.
    All preprocessing (imputation, scaling, resampling) must happen inside
    the callback using only the TrainSplit it receives.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    fold_ginis = []
    for train_idx, test_idx in stratified_kfold(y, k=k, seed=seed):
        split = TrainSplit(X[train_idx], y[train_idx])
        scores = fit_and_score(split, X[test_idx], y[test_idx])
        fold_ginis.append(roc_auc(y[test_idx], scores).gini)
    return CvResult(fold_ginis)
