"""Training-set rebalancing: random under/over-sampling, the SMOTE family,
and class-weight computation.

Every resampler consumes a TrainSplit handle, never a full dataset, so test
rows cannot leak into synthesis.  The three SMOTE variants share one runner
and differ only in the minority rows they seed synthesis from: every
minority row (SMOTE), the danger points (Borderline-SMOTE-1) or the
minority support vectors of a linear SVM (SVM-SMOTE).  Neighbor searches
run on standardized copies of the features, a chunk of query rows at a
time under KNN_BLOCK_ELEMENTS, and the runner searches each seed row's
neighbors once however often it is drawn; emitted rows stay in original
units.  The SVM is the squared-hinge primal (λ = 1/200, unregularised
bias), solved to convergence by Newton steps with a generalized Hessian
and a backtracking line search; svm_smote's seed rows are that optimum's
minority support vectors, where 200 epochs of per-row subgradient steps
used to choose them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .metrics import TrainSplit
from .settings import check_setting

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
KNN_BLOCK_ELEMENTS = 1 << 20  # bound on one chunk's (query × points × features) differences
SVM_LAMBDA = 1.0 / 200  # the SVM-SMOTE fit's weight penalty
SVM_GRAD_TOL = 1e-10  # its Newton solver stops once ‖∇F‖ is this small
SVM_MAX_ITER = 50


@dataclass(frozen=True)
class ResamplingStrategy:
    kind: str = "none"
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown resampling strategy {self.kind!r}")
        check_setting("k_neighbors", self.k_neighbors, numbers.Integral, least=1)
        check_setting("seed", self.seed, numbers.Integral, least=0)


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


def _knn_indices(points, query, k):
    """Indices of the k nearest rows of `points` for each row of `query`.

    Query rows go KNN_BLOCK_ELEMENTS // (points × features) at a time, so the
    (query × points × features) difference stays under the budget; each row's
    distances are the same floats whatever the chunk.
    """
    step = max(1, KNN_BLOCK_ELEMENTS // points.size)
    order = np.empty((len(query), min(k, len(points))), dtype=np.int64)
    for start in range(0, len(query), step):
        d2 = ((query[start : start + step, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        order[start : start + step] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return order


def _synthesize(X, seeds, neighbor_pool, k, n_needed, rng):
    """Interpolate n_needed rows between seed points and minority neighbors."""
    Z = _scaled_view(X)
    pool = Z[neighbor_pool]
    k_eff = max(1, min(k, len(neighbor_pool) - 1))
    partners = {}  # base row -> its minority neighbors, searched once per base
    rows = []
    for _ in range(n_needed):
        base = seeds[rng.integers(len(seeds))]
        if base not in partners:
            nn = _knn_indices(pool, Z[base][None, :], k_eff)[0]
            # drop the base itself when it sits in the pool
            partners[base] = [neighbor_pool[j] for j in nn if neighbor_pool[j] != base]
        nn = partners[base]
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


def borderline_smote(split: TrainSplit, k: int = 5, seed: int = 0):
    """SMOTE seeded only from borderline (danger) minority points, or from
    every minority point when none is borderline."""

    def danger(X, y, minority, min_idx):
        if len(min_idx) < 2:
            raise ValueError("Borderline-SMOTE needs at least 2 minority samples")
        seeds = danger_points(X, y, min(k, len(y) - 1), minority)
        if seeds.size == 0:
            return min_idx
        return seeds

    return _smote_family(split, k, seed, danger)


def _svm_objective(A, t, theta):
    """F(w, b) = (λ/2)‖w‖² + (1/n) Σ max(0, 1 − tᵢ aᵢ·θ)² at θ = (w, b), with
    A = [Z 1] and λ = SVM_LAMBDA; returns F, its gradient and the active rows
    (margin below 1), the only rows whose squared hinge is not 0."""
    slack = 1.0 - t * (A @ theta)
    active = slack > 0.0
    s = slack[active]
    w = theta[:-1]
    grad = (-2.0 / len(t)) * ((t[active] * s) @ A[active])
    grad[:-1] += SVM_LAMBDA * w
    return 0.5 * SVM_LAMBDA * w.dot(w) + s.dot(s) / len(t), grad, active


def _newton_svm(A, t, theta):
    """Minimise _svm_objective's F from θ: Newton steps with the generalized
    Hessian λI + (2/n) A_Iᵀ A_I over the active rows I, each with a
    backtracking (Armijo) line search, until ‖∇F‖ ≤ SVM_GRAD_TOL or
    SVM_MAX_ITER steps.  The bias entry is damped to 1e-12, so an iterate
    with no active row still gives a solvable system; never raises.  From
    θ = 0 no step empties I in exact arithmetic: a full step leaves a row
    active, and a shorter one keeps some row of the previous I active."""
    n = len(t)
    ridge = np.diag(np.append(np.full(A.shape[1] - 1, SVM_LAMBDA), 1e-12))  # the bias's is only damping
    value, grad, active = _svm_objective(A, t, theta)
    for _ in range(SVM_MAX_ITER):
        if np.linalg.norm(grad) <= SVM_GRAD_TOL:
            break
        B = A[active]
        try:
            step = np.linalg.solve((2.0 / n) * (B.T @ B) + ridge, -grad)
        except np.linalg.LinAlgError:
            break
        slope = grad.dot(step)
        rate = 1.0
        for _ in range(40):  # halve the step until F falls enough
            trial = theta + rate * step
            trial_value, trial_grad, trial_active = _svm_objective(A, t, trial)
            if trial_value <= value + 1e-4 * rate * slope:
                break
            rate /= 2.0
        else:
            break  # no decrease left to find in floats
        theta, value, grad, active = trial, trial_value, trial_grad, trial_active
    return theta


def _linear_svm_margins(X, y, minority):
    """Squared-hinge linear SVM on the standardized rows; returns per-sample
    margins t·(w·z + b), with t = +1 on the minority class.

    The fit is _svm_objective's minimiser (λ = 1/200, the bias
    unregularised), found by _newton_svm from w = 0, b = 0.  F has one
    minimiser, so the support rows (margin ≤ 1) that seed svm_smote are the
    same under any row order and need no rng draw; until this solver they
    came from 200 epochs of per-row hinge-loss subgradient steps.
    """
    Z = _scaled_view(X)
    t = np.where(y == minority, 1.0, -1.0)
    A = np.hstack([Z, np.ones((len(Z), 1))])
    return t * (A @ _newton_svm(A, t, np.zeros(A.shape[1])))


def svm_smote(split: TrainSplit, k: int = 5, seed: int = 0):
    """SMOTE seeded from minority support vectors of an internal linear SVM;
    every minority row seeds when none is a support vector."""

    def support_vectors(X, y, minority, min_idx):
        margins = _linear_svm_margins(X, y, minority)
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
