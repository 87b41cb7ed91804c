"""Logistic regression by Newton-Raphson, plus the quantile-binned variant.

Both fit with one Newton loop that reads its design Z (a leading column of
ones, then the features) only through three products: the margin Z @ beta,
the gradient part Z.T @ r and the Hessian part (Z * s).T @ Z.  The plain
fit's design is the dense matrix; the binned fit's is each row's active
columns (the intercept and one bin per source column), so its products are
gathers and bincounts and no one-hot matrix is built.

The loop maximises the log-likelihood minus a ridge on every coefficient
but the intercept, of a strength its caller gives.  The plain fit takes
RIDGE, a numerical damping only.  The binned fit is a penalised scorecard
(le Cessie & van Houwelingen, Applied Statistics 1992): BIN_RIDGE on the
bin coefficients makes its objective strictly convex, so its optimum is
unique and finite even when a bin separates the classes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from ..settings import check_setting
from .boosting import quantile_edges, sort_columns
from .ensemble import sigmoid

RIDGE = 1e-6  # damping on non-intercept terms keeps the Hessian invertible
BIN_RIDGE = 10.0  # ridge on the binned fit's bin coefficients: the best CV Gini of 1, 3, 10, 30, 100 on label-flip ledgers
GRAD_TOL = 1e-8
MAX_ITER = 100
PAIR_BUDGET = 1 << 18  # active pairs the binned Hessian indexes at once (2 MB of int64)


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
            return self.intercept + self.coef[self.binning.codes(X)].sum(axis=1)
        if X.shape[1] != len(self.coef):
            raise ValueError(f"expected {len(self.coef)} columns, got {X.shape[1]}")
        return self.intercept + X @ self.coef

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.margin(X))


class DenseDesign:
    """The design as a dense matrix Z."""

    def __init__(self, Z: np.ndarray):
        self.Z = Z
        self.width = Z.shape[1]

    def margin(self, beta):
        return self.Z @ beta

    def gradient(self, r):
        return self.Z.T @ r

    def hessian(self, s):
        return (self.Z * s[:, None]).T @ self.Z


class CodeDesign:
    """A 0/1 design given by its active columns: row i of Z is 1 at A[i]
    and 0 elsewhere, each row of A holding distinct columns in ascending
    order.  The Hessian part is one bincount over every row's active column
    pairs (a <= b), mirrored.  The pairs are grouped by their two positions
    in A, in blocks of at most PAIR_BUDGET pairs: a single block's cells are
    indexed once, more blocks' again on each call, so that a long, wide
    design never holds all its pairs at once."""

    def __init__(self, A: np.ndarray, width: int):
        self.A, self.width = A, width
        self.columns = np.ascontiguousarray(A.T)  # per position, every row's active column
        first, second = np.triu_indices(A.shape[1])
        step = max(1, PAIR_BUDGET // max(len(A), 1))
        self.blocks = [(first[i : i + step], second[i : i + step]) for i in range(0, len(first), step)]
        self.cells = self._cells(*self.blocks[0]) if len(self.blocks) == 1 else None

    def _cells(self, first, second):
        """The Hessian cells (a * width + b) of these position pairs' active pairs."""
        return (self.columns[first] * self.width + self.columns[second]).ravel()

    def margin(self, beta):
        return beta[self.A].sum(axis=1)

    def gradient(self, r):
        return np.bincount(self.A.ravel(), np.repeat(r, self.A.shape[1]), self.width)

    def hessian(self, s):
        k = self.width
        upper = np.zeros(k * k)
        for first, second in self.blocks:
            cells = self._cells(first, second) if self.cells is None else self.cells
            upper += np.bincount(cells, np.tile(s, len(first)), k * k)
        upper = upper.reshape(k, k)
        H = upper + upper.T
        H.flat[:: k + 1] = upper.flat[:: k + 1]  # the diagonal, counted once
        return H


def newton(design, y, penalty: float, sample_weight=None) -> tuple[np.ndarray, bool, int]:
    """Newton iterations on the log-likelihood minus penalty / 2 times the
    squared coefficients; coefficient 0 is the unpenalised intercept.

    Stops when the gradient infinity-norm drops below 1e-8 or after 100
    iterations.  Under the plain fit's tiny RIDGE, perfectly separated data
    have no finite optimum: the loop then returns its last iterate flagged
    non-converged rather than an error.  Under BIN_RIDGE every data set has
    one, which the binned fit reaches in a handful of steps.
    """
    y = np.asarray(y, dtype=float)
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    k = design.width
    beta = np.zeros(k)
    ridge = np.full(k, penalty)
    ridge[0] = 0.0
    mu = sigmoid(design.margin(beta))
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        grad = design.gradient(w * (y - mu)) - ridge * beta
        if np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
        s = w * mu * (1.0 - mu)
        H = design.hessian(s) + np.diag(np.maximum(ridge, 1e-12))
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        # halve the step while it overshoots into non-finite territory; the
        # accepted candidate's probabilities serve the next iteration
        for _ in range(30):
            candidate = beta + step
            mu = sigmoid(design.margin(candidate))
            if np.all(np.isfinite(mu)) and np.max(np.abs(candidate)) < 1e8:
                beta = candidate
                break
            step = step / 2.0
        else:  # no halving was accepted: take the last, unchecked step
            beta = beta + step
            mu = sigmoid(design.margin(beta))
    return beta, converged, it


def fit_logistic(X, y, feature_names=None, sample_weight=None) -> LogisticModel:
    """`newton` on the dense design [1 | X], under RIDGE."""
    X = np.asarray(X, dtype=float)
    if np.isnan(X).any():
        raise ValueError("impute missing values before logistic fitting")
    n, p = X.shape
    names = list(feature_names) if feature_names is not None else [f"x{j}" for j in range(p)]
    beta, converged, it = newton(DenseDesign(np.hstack([np.ones((n, 1)), X])), y, RIDGE, sample_weight)
    return LogisticModel(float(beta[0]), beta[1:].copy(), names, converged, it)


@dataclass
class BinningMap:
    """Equal-frequency binning: each value becomes the code of its bin.

    Source column j owns len(edges[j]) + 2 output columns: its bins, then a
    missing slot that NaN activates.  `codes` gives each row's active output
    column per source column.  Values outside the training range clamp into
    the edge bins.
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

    def codes(self, X) -> np.ndarray:
        """Each row's active output column per source column: the column's
        offset plus its bin index, or plus its missing slot for NaN."""
        X = np.asarray(X, dtype=float)
        if X.shape[1] != len(self.edges):
            raise ValueError(f"expected {len(self.edges)} columns, got {X.shape[1]}")
        codes = np.empty(X.shape, dtype=np.intp)
        offset = 0
        for j, e in enumerate(self.edges):
            col = X[:, j]
            codes[:, j] = offset + np.where(np.isnan(col), len(e) + 1, np.searchsorted(e, col, side="right"))
            offset += len(e) + 2
        return codes


def quantile_bin(X, n_bins: int = 10, feature_names=None) -> BinningMap:
    """Fit per-column equal-frequency bin edges on training data (`boosting.quantile_edges`)."""
    check_setting("n_bins", n_bins, numbers.Integral, least=2)
    X = np.asarray(X, dtype=float)
    S, finite = sort_columns(X)
    found = quantile_edges(S, finite, np.flatnonzero(finite), n_bins)
    edges = [found.get(j, np.empty(0)) for j in range(X.shape[1])]
    names = list(feature_names) if feature_names is not None else [f"x{j}" for j in range(X.shape[1])]
    return BinningMap(edges, names)


def fit_binned_logistic(X, y, n_bins: int = 10, feature_names=None, sample_weight=None) -> LogisticModel:
    """`newton` on the binned design, given by codes, under BIN_RIDGE.
    Only the output columns some training row activates enter the system;
    the others keep a coefficient of exactly 0."""
    binning = quantile_bin(X, n_bins, feature_names)
    codes = binning.codes(X)
    used, active = np.unique(codes, return_inverse=True)
    A = np.hstack([np.zeros((len(codes), 1), dtype=np.intp), active.reshape(codes.shape) + 1])
    beta, converged, it = newton(CodeDesign(A, len(used) + 1), y, BIN_RIDGE, sample_weight)
    names = binning.output_names
    coef = np.zeros(len(names))
    coef[used] = beta[1:]
    return LogisticModel(float(beta[0]), coef, names, converged, it, binning)
