"""Logistic regression by Newton-Raphson, plus the quantile-binned variant."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boosting import quantile_edges, sort_columns
from .ensemble import sigmoid

RIDGE = 1e-6  # damping on non-intercept terms keeps the Hessian invertible
GRAD_TOL = 1e-8
MAX_ITER = 100


@dataclass
class LogisticModel:
    intercept: float
    coef: np.ndarray
    feature_names: list[str]
    converged: bool
    n_iter: int
    binning: "BinningMap | None" = None

    def margin(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.binning is not None:
            X = self.binning.transform(X)
        if X.shape[1] != len(self.coef):
            raise ValueError(f"expected {len(self.coef)} columns, got {X.shape[1]}")
        return self.intercept + X @ self.coef

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.margin(X))


def fit_logistic(X, y, feature_names=None, sample_weight=None) -> LogisticModel:
    """Ridge-damped Newton iterations on the log-likelihood.

    Stops when the gradient infinity-norm drops below 1e-8 or after 100
    iterations; perfect separation yields the best iterate flagged
    non-converged rather than an error.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isnan(X).any():
        raise ValueError("impute missing values before logistic fitting")
    n, p = X.shape
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    names = list(feature_names) if feature_names is not None else [f"x{j}" for j in range(p)]
    Z = np.hstack([np.ones((n, 1)), X])
    beta = np.zeros(p + 1)
    ridge = np.full(p + 1, RIDGE)
    ridge[0] = 0.0
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        eta = Z @ beta
        mu = sigmoid(eta)
        grad = Z.T @ (w * (y - mu)) - ridge * beta
        if np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
        s = w * mu * (1.0 - mu)
        H = (Z * s[:, None]).T @ Z + np.diag(np.maximum(ridge, 1e-12))
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        # halve the step while it overshoots into non-finite territory
        for _ in range(30):
            candidate = beta + step
            if np.all(np.isfinite(sigmoid(Z @ candidate))) and np.max(np.abs(candidate)) < 1e8:
                break
            step = step / 2.0
        beta = beta + step
    return LogisticModel(float(beta[0]), beta[1:].copy(), names, converged, it)


@dataclass
class BinningMap:
    """Equal-frequency binning: each column becomes one-hot bin indicators.

    Values outside the training range clamp into the edge bins; NaN gets a
    dedicated indicator per source column.
    """

    edges: list[np.ndarray]
    source_names: list[str] = field(default_factory=list)

    @property
    def output_names(self) -> list[str]:
        names = []
        for j, e in enumerate(self.edges):
            src = self.source_names[j] if self.source_names else f"x{j}"
            names.extend(f"{src}_bin{b}" for b in range(len(e) + 1))
            names.append(f"{src}_missing")
        return names

    def transform(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        outs = []
        for j, e in enumerate(self.edges):
            col = X[:, j]
            nb = len(e) + 1
            idx = np.searchsorted(e, col, side="right")
            onehot = np.zeros((len(col), nb + 1))
            nan = np.isnan(col)
            idx = np.where(nan, nb, idx)
            onehot[np.arange(len(col)), idx] = 1.0
            outs.append(onehot)
        return np.hstack(outs)


def quantile_bin(X, n_bins: int = 10, feature_names=None) -> BinningMap:
    """Fit per-column equal-frequency bin edges on training data (`boosting.quantile_edges`)."""
    X = np.asarray(X, dtype=float)
    S, finite = sort_columns(X)
    found = quantile_edges(S, finite, np.flatnonzero(finite), n_bins)
    edges = [found.get(j, np.empty(0)) for j in range(X.shape[1])]
    names = list(feature_names) if feature_names is not None else [f"x{j}" for j in range(X.shape[1])]
    return BinningMap(edges, names)


def fit_binned_logistic(X, y, n_bins: int = 10, feature_names=None, sample_weight=None) -> LogisticModel:
    binning = quantile_bin(X, n_bins, feature_names)
    Xb = binning.transform(np.asarray(X, dtype=float))
    model = fit_logistic(Xb, y, binning.output_names, sample_weight)
    model.binning = binning
    return model
