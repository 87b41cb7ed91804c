"""Training-set rebalancing: random under/over-sampling, the SMOTE family,
and class-weight computation.

Every resampler consumes a TrainSplit handle, never a full dataset, so test
rows cannot leak into synthesis.  The three SMOTE variants share one runner
and differ only in the minority rows they seed synthesis from: every
minority row (SMOTE), the danger points (Borderline-SMOTE-1) or the
minority support vectors of a linear SVM (SVM-SMOTE).  Neighbor searches
run on standardized copies of the features; emitted rows stay in original
units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import TrainSplit

STRATEGY_KINDS = (
    "none",
    "undersample",
    "oversample",
    "smote",
    "borderline_smote",
    "svm_smote",
    "class_weight",
    "sqrt_balanced",
)


@dataclass(frozen=True)
class ResamplingStrategy:
    kind: str = "none"
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown resampling strategy {self.kind!r}")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


@dataclass(frozen=True)
class ClassWeights:
    w0: float
    w1: float

    def per_sample(self, y: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(y) == 1, self.w1, self.w0)


def class_weights(y, mode: str = "proportional") -> ClassWeights:
    """proportional: w0=1, w1=n0/n1.  sqrt_balanced: CW_k = sqrt(max_c n_c / n_k)."""
    y = np.asarray(y, dtype=int)
    n0 = int(np.sum(y == 0))
    n1 = int(np.sum(y == 1))
    if n0 == 0 or n1 == 0:
        raise ValueError("class weights need both classes present")
    if mode == "proportional":
        return ClassWeights(1.0, n0 / n1)
    if mode == "sqrt_balanced":
        top = max(n0, n1)
        return ClassWeights(float(np.sqrt(top / n0)), float(np.sqrt(top / n1)))
    raise ValueError(f"unknown class-weight mode {mode!r}")


def _check_split(split):
    if not isinstance(split, TrainSplit):
        raise TypeError(
            "resamplers accept a TrainSplit (training partition handle) only; "
            "split your data first"
        )
    X = np.asarray(split.X, dtype=float)
    y = np.asarray(split.y, dtype=int)
    if np.isnan(X).any():
        raise ValueError("impute missing values before resampling")
    if np.unique(y).size < 2:
        raise ValueError("resampling needs both classes present")
    return X, y


def _classes(y):
    n1 = int(np.sum(y == 1))
    n0 = len(y) - n1
    minority = 1 if n1 <= n0 else 0
    return minority, 1 - minority


def undersample_majority(split: TrainSplit, seed: int = 0):
    """Keep all minority rows; sample majority rows without replacement to match."""
    X, y = _check_split(split)
    rng = np.random.default_rng(seed)
    minority, majority = _classes(y)
    min_idx = np.nonzero(y == minority)[0]
    maj_idx = np.nonzero(y == majority)[0]
    chosen = rng.choice(maj_idx, size=len(min_idx), replace=False)
    keep = np.concatenate([min_idx, chosen])
    keep = rng.permutation(keep)
    return X[keep], y[keep]


def oversample_minority(split: TrainSplit, seed: int = 0):
    """Duplicate minority rows (with replacement) up to the majority count."""
    X, y = _check_split(split)
    rng = np.random.default_rng(seed)
    minority, majority = _classes(y)
    min_idx = np.nonzero(y == minority)[0]
    maj_idx = np.nonzero(y == majority)[0]
    deficit = len(maj_idx) - len(min_idx)
    if deficit == 0:
        return X.copy(), y.copy()
    extra = rng.choice(min_idx, size=deficit, replace=True)
    keep = np.concatenate([np.arange(len(y)), extra])
    return X[keep], y[keep]


def _scaled_view(X):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (X - mean) / std


def _knn_indices(points, query, k, exclude_self=False):
    """Indices of the k nearest rows of `points` for each row of `query`."""
    d2 = ((query[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    if exclude_self:
        np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k]


def _synthesize(X, seeds, neighbor_pool, k, n_needed, rng):
    """Interpolate n_needed rows between seed points and minority neighbors."""
    Z = _scaled_view(X)
    pool = Z[neighbor_pool]
    k_eff = max(1, min(k, len(neighbor_pool) - 1))
    rows = []
    for _ in range(n_needed):
        base = seeds[rng.integers(len(seeds))]
        nn = _knn_indices(pool, Z[base][None, :], k_eff)[0]
        # drop the base itself when it sits in the pool
        nn = [neighbor_pool[j] for j in nn if neighbor_pool[j] != base]
        partner = nn[rng.integers(len(nn))] if nn else base
        lam = rng.random()
        rows.append(X[base] + lam * (X[partner] - X[base]))
    return np.asarray(rows)


def _smote_family(split: TrainSplit, k: int, seed: int, seed_rows):
    """Balance classes with synthetic minority rows, each on the segment from
    a row of seed_rows(X, y, minority, min_idx) to a minority neighbor."""
    X, y = _check_split(split)
    minority, majority = _classes(y)
    min_idx = np.nonzero(y == minority)[0]
    n_needed = int(np.sum(y == majority)) - len(min_idx)
    if n_needed == 0:
        return X.copy(), y.copy()
    seeds = seed_rows(X, y, minority, min_idx)
    synth = _synthesize(X, seeds, min_idx, k, n_needed, np.random.default_rng(seed))
    return np.vstack([X, synth]), np.concatenate([y, np.full(n_needed, minority, dtype=int)])


def smote(split: TrainSplit, k: int = 5, seed: int = 0):
    """Balance classes with synthetic minority rows on minority-neighbor segments."""

    def every_minority_row(X, y, minority, min_idx):
        if len(min_idx) < 2:
            raise ValueError("SMOTE needs at least 2 minority samples")
        return min_idx

    return _smote_family(split, k, seed, every_minority_row)


def danger_points(X, y, k: int, minority: int):
    """Borderline-SMOTE-1 danger set: >= k/2 but not all of the k neighbors are majority."""
    Z = _scaled_view(X)
    min_idx = np.nonzero(y == minority)[0]
    nn = _knn_indices(Z, Z[min_idx], k + 1)  # includes self at distance 0
    danger = []
    for row, base in zip(nn, min_idx):
        neigh = [j for j in row if j != base][:k]
        maj = sum(1 for j in neigh if y[j] != minority)
        if k / 2 <= maj < k:
            danger.append(base)
    return np.asarray(danger, dtype=int)


def borderline_smote(split: TrainSplit, k: int = 5, seed: int = 0, warn=None):
    """SMOTE seeded only from borderline (danger) minority points."""

    def danger(X, y, minority, min_idx):
        if len(min_idx) < 2:
            raise ValueError("Borderline-SMOTE needs at least 2 minority samples")
        seeds = danger_points(X, y, min(k, len(y) - 1), minority)
        if seeds.size == 0:
            if warn is not None:
                warn("no borderline minority points; falling back to plain SMOTE")
            return min_idx
        return seeds

    return _smote_family(split, k, seed, danger)


def _linear_svm_margins(X, y, minority, c: float = 1.0, epochs: int = 200, seed: int = 0):
    """Hinge-loss linear SVM by subgradient descent; returns per-sample margins y*(wx+b)."""
    Z = _scaled_view(X)
    t = np.where(y == minority, 1.0, -1.0)
    rng = np.random.default_rng(seed)
    n, p = Z.shape
    w = np.zeros(p)
    b = 0.0
    for epoch in range(1, epochs + 1):
        lr = 1.0 / epoch
        for i in rng.permutation(n):
            margin = t[i] * (Z[i] @ w + b)
            if margin < 1.0:
                w = (1 - lr / epochs) * w + lr * c * t[i] * Z[i]
                b = b + lr * c * t[i]
            else:
                w = (1 - lr / epochs) * w
    return t * (Z @ w + b)


def svm_smote(split: TrainSplit, k: int = 5, seed: int = 0):
    """SMOTE seeded from minority support vectors of an internal linear SVM;
    every minority row seeds when none is a support vector."""

    def support_vectors(X, y, minority, min_idx):
        margins = _linear_svm_margins(X, y, minority, seed=seed)
        support = min_idx[margins[min_idx] <= 1.0]
        return support if support.size else min_idx

    return _smote_family(split, k, seed, support_vectors)


def apply_strategy(strategy: ResamplingStrategy, split: TrainSplit):
    """Dispatch a strategy; returns (X, y, sample_weights)."""
    if not isinstance(split, TrainSplit):
        raise TypeError("apply_strategy requires a TrainSplit; split your data first")
    kind = strategy.kind
    if kind in ("class_weight", "sqrt_balanced"):
        y = np.asarray(split.y, dtype=int)
        mode = "proportional" if kind == "class_weight" else "sqrt_balanced"
        return np.asarray(split.X, dtype=float), y, class_weights(y, mode).per_sample(y)
    if kind == "none":
        X, y = np.asarray(split.X, dtype=float), np.asarray(split.y, dtype=int)
    elif kind == "undersample":
        X, y = undersample_majority(split, seed=strategy.seed)
    elif kind == "oversample":
        X, y = oversample_minority(split, seed=strategy.seed)
    else:
        smote_variant = {"smote": smote, "borderline_smote": borderline_smote, "svm_smote": svm_smote}[kind]
        X, y = smote_variant(split, k=strategy.k_neighbors, seed=strategy.seed)
    return X, y, np.ones(len(y))
