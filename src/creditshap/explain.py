"""Exact Shapley attributions for tree ensembles.

Coalition semantics are path-dependent: descending a tree, a split on a
feature inside the coalition follows x; outside it, both children are
taken weighted by training cover.  Two routes compute the same values:
a 2^m subset enumeration (oracle, small m only) and the polynomial
path-walking algorithm.  Attributions live in margin (log-odds) space,
where the additive decomposition is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models.ensemble import TreeEnsemble, sigmoid
from .models.trees import Tree

BRUTE_FORCE_MAX_FEATURES = 20


@dataclass
class ShapValues:
    baseline: float  # phi_0, margin space
    contributions: np.ndarray  # phi_i per feature
    margin: float  # reconstructed model output
    feature_values: np.ndarray
    feature_names: list[str]

    def additivity_gap(self) -> float:
        return abs(self.baseline + self.contributions.sum() - self.margin)


class CoalitionEvaluator:
    """Computes f_S(x) for one tree ensemble under cover-weighted descent."""

    def __init__(self, ensemble: TreeEnsemble):
        if any(t.cover.sum() == 0 for t in ensemble.trees):
            raise ValueError("trees need training cover counts")
        self.ensemble = ensemble

    def baseline(self) -> float:
        e = self.ensemble
        return e.base_score + e.learning_rate * sum(t.expected_value() for t in e.trees)

    def evaluate(self, x, coalition: set[int]) -> float:
        """f_S(x): follow x on coalition features, cover-average elsewhere."""
        e = self.ensemble
        total = e.base_score
        for tree in e.trees:
            total += e.learning_rate * _tree_coalition_value(tree, x, coalition)
        return total


def _tree_coalition_value(tree: Tree, x, coalition) -> float:
    def walk(node: int) -> float:
        f = int(tree.feature[node])
        if f < 0:
            return float(tree.value[node])
        l, r = int(tree.left[node]), int(tree.right[node])
        if f in coalition:
            xv = x[f]
            if np.isnan(xv):
                hot = l if tree.cover[l] >= tree.cover[r] else r
            else:
                hot = l if xv < tree.threshold[node] else r
            return walk(hot)
        c = tree.cover[node]
        if c == 0:
            return 0.0
        return (tree.cover[l] * walk(l) + tree.cover[r] * walk(r)) / c

    return walk(0)


def _leaf_paths(tree: Tree, x):
    """Per leaf: (value, {feature: (one_fraction, zero_fraction)}).

    one_fraction multiplies the indicators of x following every split on
    that feature along the path; zero_fraction multiplies the cover
    fractions.  Grouping per distinct feature is exact because the
    recursive descent factorizes over path nodes.
    """
    out = []

    def walk(node, factors):
        f = int(tree.feature[node])
        if f < 0:
            out.append((float(tree.value[node]), dict(factors)))
            return
        l, r = int(tree.left[node]), int(tree.right[node])
        cov = tree.cover[node]
        xv = x[f]
        if np.isnan(xv):
            hot = l if tree.cover[l] >= tree.cover[r] else r
        else:
            hot = l if xv < tree.threshold[node] else r
        for child in (l, r):
            one, zero = factors.get(f, (1.0, 1.0))
            ind = 1.0 if child == hot else 0.0
            frac = tree.cover[child] / cov if cov > 0 else 0.0
            new = dict(factors)
            new[f] = (one * ind, zero * frac)
            if new[f] == (0.0, 0.0):
                continue  # this subtree contributes to no coalition
            walk(child, new)

    walk(0, {})
    return out


def _tree_brute_force(tree: Tree, x, p: int) -> np.ndarray:
    """Exact Shapley contributions of one tree via subset enumeration.

    Enumerates subsets of the tree's own feature set; features the tree
    never splits on are null players and receive zero.
    """
    phi = np.zeros(p)
    used = tree.used_features()
    m = len(used)
    if m == 0:
        return phi
    paths = _leaf_paths(tree, x)
    n_sub = 1 << m
    # f_S for every subset of `used`
    fvals = np.zeros(n_sub)
    subset_bits = np.arange(n_sub)
    masks = [(subset_bits >> i) & 1 for i in range(m)]
    for value, factors in paths:
        weight = np.full(n_sub, value)
        for i, f in enumerate(used):
            one, zero = factors.get(f, (1.0, 1.0))
            weight *= np.where(masks[i] == 1, one, zero)
        fvals += weight
    sizes = np.zeros(n_sub, dtype=int)
    for i in range(m):
        sizes += masks[i]
    fact = [math.factorial(k) for k in range(m + 1)]
    size_weight = np.array([fact[s] * fact[m - s - 1] / fact[m] if s < m else 0.0 for s in range(m + 1)])
    for i, f in enumerate(used):
        without = subset_bits[((subset_bits >> i) & 1) == 0]
        with_i = without | (1 << i)
        wts = size_weight[sizes[without]]
        phi[f] = float(np.sum(wts * (fvals[with_i] - fvals[without])))
    return phi


def brute_force_shapley(evaluator: CoalitionEvaluator, x) -> ShapValues:
    """Eq.-(5)-style exact enumeration; guards against exponential blowup."""
    e = evaluator.ensemble
    x = np.asarray(x, dtype=float)
    p = e.n_features
    largest = max((len(t.used_features()) for t in e.trees), default=0)
    if min(p, largest) > BRUTE_FORCE_MAX_FEATURES:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_FEATURES} features")
    phi = np.zeros(p)
    for tree in e.trees:
        phi += e.learning_rate * _tree_brute_force(tree, x, p)
    baseline = evaluator.baseline()
    return ShapValues(baseline, phi, float(e.margin(x)[0]), x, list(e.feature_names))


class _PathElement:
    __slots__ = ("feature", "zero", "one", "weight")

    def __init__(self, feature, zero, one, weight):
        self.feature = feature
        self.zero = zero
        self.one = one
        self.weight = weight


def _extend(path, zero, one, feature):
    l = len(path)
    path.append(_PathElement(feature, zero, one, 1.0 if l == 0 else 0.0))
    for i in range(l - 1, -1, -1):
        path[i + 1].weight += one * path[i].weight * (i + 1) / (l + 1)
        path[i].weight = zero * path[i].weight * (l - i) / (l + 1)


def _unwind(path, i):
    l = len(path) - 1
    n = path[l].weight
    one, zero = path[i].one, path[i].zero
    for j in range(l - 1, -1, -1):
        if one != 0:
            t = path[j].weight
            path[j].weight = n * (l + 1) / ((j + 1) * one)
            n = t - path[j].weight * zero * (l - j) / (l + 1)
        else:
            path[j].weight = path[j].weight * (l + 1) / (zero * (l - j))
    for j in range(i, l):
        path[j].feature = path[j + 1].feature
        path[j].zero = path[j + 1].zero
        path[j].one = path[j + 1].one
    path.pop()


def _unwound_sum(path, i):
    l = len(path) - 1
    one, zero = path[i].one, path[i].zero
    total = 0.0
    if one != 0:
        n = path[l].weight
        for j in range(l - 1, -1, -1):
            t = n * (l + 1) / ((j + 1) * one)
            total += t
            n = path[j].weight - t * zero * (l - j) / (l + 1)
    else:
        for j in range(l - 1, -1, -1):
            total += path[j].weight * (l + 1) / (zero * (l - j))
    return total


def _tree_shap_single(tree: Tree, x, phi: np.ndarray) -> None:
    def recurse(node, path, zero, one, feature):
        path = [_PathElement(e.feature, e.zero, e.one, e.weight) for e in path]
        _extend(path, zero, one, feature)
        f = int(tree.feature[node])
        if f < 0:
            value = float(tree.value[node])
            for i in range(1, len(path)):
                w = _unwound_sum(path, i)
                phi[path[i].feature] += w * (path[i].one - path[i].zero) * value
            return
        l, r = int(tree.left[node]), int(tree.right[node])
        xv = x[f]
        if np.isnan(xv):
            hot = l if tree.cover[l] >= tree.cover[r] else r
        else:
            hot = l if xv < tree.threshold[node] else r
        cold = r if hot == l else l
        iz = io = 1.0
        k = next((i for i in range(1, len(path)) if path[i].feature == f), None)
        if k is not None:
            iz, io = path[k].zero, path[k].one
            _unwind(path, k)
        cov = tree.cover[node]
        hot_frac = tree.cover[hot] / cov if cov > 0 else 0.0
        cold_frac = tree.cover[cold] / cov if cov > 0 else 0.0
        if iz * hot_frac > 0.0 or io != 0.0:
            recurse(hot, path, iz * hot_frac, io, f)
        if iz * cold_frac > 0.0:  # zero-cover cold branches carry no weight
            recurse(cold, path, iz * cold_frac, 0.0, f)

    recurse(0, [], 1.0, 1.0, -1)


def tree_shap(ensemble: TreeEnsemble, x) -> ShapValues:
    """Polynomial-time path-dependent TreeSHAP over the whole ensemble."""
    x = np.asarray(x, dtype=float)
    if any(t.cover.sum() == 0 for t in ensemble.trees):
        raise ValueError("trees need training cover counts")
    phi = np.zeros(ensemble.n_features)
    baseline = ensemble.base_score
    for tree in ensemble.trees:
        tree_phi = np.zeros(ensemble.n_features + 1)
        _tree_shap_single(tree, x, tree_phi)
        phi += ensemble.learning_rate * tree_phi[:-1]
        baseline += ensemble.learning_rate * tree.expected_value()
    return ShapValues(baseline, phi, float(ensemble.margin(x)[0]), x, list(ensemble.feature_names))


@dataclass
class GlobalImportance:
    feature_names: list[str]
    mean_abs_shap: np.ndarray

    def ranking(self) -> list[tuple[str, float]]:
        order = sorted(
            range(len(self.feature_names)),
            key=lambda j: (-self.mean_abs_shap[j], j),
        )
        return [(self.feature_names[j], float(self.mean_abs_shap[j])) for j in order]

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.feature_names, self.mean_abs_shap)}


def shap_matrix(ensemble: TreeEnsemble, X) -> np.ndarray:
    """(rows x features) TreeSHAP contributions, one row per row of X."""
    X = np.asarray(X, dtype=float)
    phi = np.zeros((X.shape[0], ensemble.n_features))
    for i, row in enumerate(X):
        phi[i] = tree_shap(ensemble, row).contributions
    return phi


def global_importance(feature_names, phi) -> GlobalImportance:
    """Mean |phi_i| over the rows of a SHAP matrix."""
    if phi.shape[0] == 0:
        raise ValueError("global importance needs at least one row")
    return GlobalImportance(list(feature_names), np.abs(phi).mean(axis=0))


def summary_data(feature_names, X, phi) -> dict:
    """Per (feature, row) pairs of (shap value, feature-value percentile),
    features ordered by global importance; phi is X's SHAP matrix."""
    X = np.asarray(X, dtype=float)
    imp = global_importance(feature_names, phi)
    order = [imp.feature_names.index(n) for n, _ in imp.ranking()]
    features = []
    for j in order:
        col = X[:, j]
        finite = col[~np.isnan(col)]
        if finite.size:
            pct = np.array(
                [np.mean(finite <= v) if not np.isnan(v) else np.nan for v in col]
            )
        else:
            pct = np.full(len(col), np.nan)
        features.append(
            {
                "feature": imp.feature_names[j],
                "shap": phi[:, j].tolist(),
                "value_percentile": [None if np.isnan(v) else float(v) for v in pct],
            }
        )
    return {"schema": "summary/v1", "features": features}


def dependence_data(ensemble: TreeEnsemble, X, feature: str, color_feature: str | None = None) -> dict:
    X = np.asarray(X, dtype=float)
    names = ensemble.feature_names
    if feature not in names:
        raise ValueError(f"unknown feature {feature!r}")
    if color_feature is not None and color_feature not in names:
        raise ValueError(f"unknown feature {color_feature!r}")
    j = names.index(feature)
    cj = names.index(color_feature) if color_feature else None
    rows = []
    for row in X:
        sv = tree_shap(ensemble, row)
        rows.append(
            {
                "value": None if np.isnan(row[j]) else float(row[j]),
                "shap": float(sv.contributions[j]),
                "color_value": None
                if cj is None or np.isnan(row[cj])
                else float(row[cj]),
            }
        )
    return {"schema": "dependence/v1", "feature": feature, "color_feature": color_feature, "rows": rows}


def waterfall_data(ensemble: TreeEnsemble, x) -> dict:
    """Sorted contributions with margin-space endpoints and their probabilities.

    Additivity is exact in margin space; probability labels are the sigmoid
    of the endpoints.
    """
    sv = tree_shap(ensemble, x)
    order = sorted(range(len(sv.contributions)), key=lambda j: (-abs(sv.contributions[j]), j))
    return {
        "schema": "waterfall/v1",
        "additivity_space": "margin (log-odds); probabilities are transformed endpoints",
        "baseline": sv.baseline,
        "baseline_probability": float(sigmoid(sv.baseline)),
        "margin": sv.margin,
        "probability": float(sigmoid(sv.margin)),
        "contributions": [
            {
                "feature": sv.feature_names[j],
                "value": None if np.isnan(sv.feature_values[j]) else float(sv.feature_values[j]),
                "shap": float(sv.contributions[j]),
            }
            for j in order
        ],
    }
