"""Exact Shapley attributions for tree ensembles.

Coalition semantics are path-dependent: descending a tree, a split on a
feature inside the coalition follows x; outside it, both children are
taken weighted by training cover.  Two routes compute the same values:
a 2^m subset enumeration (oracle, small m only) and `shap_matrix`, which
cuts the stack of all trees that `TreeEnsemble.margin` routes rows through
(`trees.stack`) into tables of root-to-leaf paths (GPUTreeShap, Mitchell
et al. 2020) and scores each path as a product game over its distinct
features with numpy, rows and paths in bounded chunks.  Every
other entry point (`tree_shap`, `waterfall_data`) goes through
`shap_matrix`.  Attributions live in margin space (log-odds for the
boosters, probability for the forest), where the additive decomposition
is exact.

The stack, the path tables and the baseline are built once per ensemble
and kept in its memo (`TreeEnsemble.prepared`), which every later call
reads.  The tables keep 30 bytes per path edge (five int32 index arrays,
the float64 zero-fractions and two flags) and 8 per path: about 6.0 MB for
the default 500-round depth-6 oblivious model (32 000 paths of 6 edges),
beside the stack's 48 bytes per node (3.0 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models.ensemble import CHUNK_ELEMENTS, TreeEnsemble
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


class _PathTable:
    """The root-to-leaf paths of some leaves of a stacked forest as rows of E =
    depth edges, leaf first; shorter paths end in padding edges.  A path's
    slots are its distinct features: an edge's slot is the column of the
    first edge on the path that splits on the same feature.  Slots that no
    edge opens (padding, repeated features) have one = zero = 1: null
    players that get exactly 0."""

    def __init__(self, ensemble: TreeEnsemble, forest: Tree, parent: np.ndarray, leaves: np.ndarray):
        self.forest = f = forest
        edges, child = [], leaves
        while (parent[child] >= 0).any():  # one step up every path at once
            edges.append((parent[child], child))
            child = np.where(parent[child] >= 0, parent[child], child)
        node, child = (np.column_stack(a) for a in zip(*edges))
        self.pad = node < 0
        self.node = node = np.where(self.pad, 0, node).astype(np.int32)  # the kept index arrays are int32
        self.goes_left = f.left[node] == child
        self.split = np.where(self.pad, -1, f.feature[node]).astype(np.int32)  # padding reads column -1, masked by pad
        cover = f.cover[node]  # a zero-cover node passes on ratio 0, padding 1
        ratio = np.divide(f.cover[child], cover, out=np.where(self.pad, 1.0, 0.0), where=~self.pad & (cover > 0))
        P, E = node.shape
        slot = np.broadcast_to(np.arange(E, dtype=np.int32), (P, E))
        for e in range(E - 1, -1, -1):  # ends at each feature's first edge
            slot = np.where(self.split == self.split[:, e : e + 1], np.int32(e), slot)
        self.slot = slot
        self.cell = np.arange(0, P * E, E, dtype=np.int32)[:, None] + slot  # the edge's (path, slot) cell in a (P, E) array
        self.zero = np.ones((P, E))  # per slot: the product of its edges' cover ratios
        for e in range(E):
            self.zero[np.arange(P), slot[:, e]] *= ratio[:, e]
        opens = (slot == np.arange(E)) & ~self.pad
        self.feature = np.where(opens, self.split, np.int32(ensemble.n_features))  # the slot's feature, or a spare column
        self.value = ensemble.learning_rate * f.value[leaves]
        # Gauss-Legendre nodes and weights on [0, 1], exact to degree E-1 (Golub-Welsch)
        k = np.arange(1, (E + 1) // 2)
        beta = k / np.sqrt(4.0 * k * k - 1)
        t, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
        self.t, self.w = (t + 1) / 2, v[0] ** 2

    def shap(self, X: np.ndarray) -> np.ndarray:
        """(rows x paths x E) Shapley value of every slot of every path.

        A path is a product game over its slots, f(S) = value * prod(one_j if
        j in S else zero_j), one_j being 1 when x follows all the slot's
        edges.  Slot i gets value * (one_i - zero_i) * sum_k w_k
        coef_k(prod_{j!=i}(zero_j + one_j t)) with w_k = k!(E-1-k)!/E!, the
        integral of t^k (1-t)^(E-1-k) over [0, 1].  So the sum is the integral
        of prod_{j!=i}(zero_j + (one_j - zero_j) t), of degree E-1, which
        Gauss-Legendre quadrature computes exactly (Linear TreeSHAP).

        one_j is 0 exactly when some edge of slot j is not followed, so one
        `bincount` over the unfollowed edges' (path, slot) cells gives it; a
        product of 0s and 1s is exact in any order.  The products before and
        after slot i grow one slot column at a time, each step one
        whole-array multiply of the running product by the next column: the
        order `np.cumprod` multiplies in, so the floats are a cumprod's.
        """
        zero, E = self.zero, self.zero.shape[1]
        misses = (self.forest.go_left(X[:, self.split], self.node) != self.goes_left) & ~self.pad
        cells = (np.arange(len(X))[:, None, None] * zero.size + self.cell)[misses]
        gain = (np.bincount(cells, minlength=len(X) * zero.size) == 0).reshape(misses.shape) - zero
        line = gain[:, :, None] * self.t[:, None]  # (rows, paths, nodes, E)
        line += zero[:, None]
        before, after = np.empty_like(line), np.empty_like(line)
        before[..., 0] = after[..., E - 1] = 1.0
        for e in range(1, E):
            np.multiply(before[..., e - 1], line[..., e - 1], out=before[..., e])
            np.multiply(after[..., E - e], line[..., E - e], out=after[..., E - e - 1])
        before *= after
        return self.value[:, None] * gain * (self.w @ before)


def _path_tables(ensemble: TreeEnsemble) -> list[_PathTable]:
    """The path tables of the ensemble's stacked forest, kept in its Prepared
    memo: built on the first call, one per batch of leaves whose temporaries
    fit CHUNK_ELEMENTS, and read by every later one."""
    prep = ensemble.prepared()
    if prep.tables is None:
        if any(t.cover.sum() == 0 for t in prep.trees):
            raise ValueError("trees need training cover counts")
        prep.tables = []
        forest = prep.forest
        if forest is not None:
            internal = np.nonzero(forest.feature >= 0)[0]
            parent = np.full(forest.n_nodes, -1)
            parent[forest.left[internal]] = parent[forest.right[internal]] = internal
            leaves = np.nonzero((forest.feature < 0) & (parent >= 0))[0]  # a root leaf attributes nothing
            E, up = 0, parent[leaves]
            while up.size:  # one step up every path at once
                E, up = E + 1, parent[up]
                up = up[up >= 0]
            batch = max(1, CHUNK_ELEMENTS // max(1, E * ((E + 1) // 2)))  # a path's temporaries hold E x ceil(E / 2) quadrature nodes
            prep.tables = [_PathTable(ensemble, forest, parent, leaves[b : b + batch]) for b in range(0, len(leaves), batch)]
    return prep.tables


def shap_matrix(ensemble: TreeEnsemble, X) -> np.ndarray:
    """(rows x features) path-dependent TreeSHAP of every row of X, in margin space."""
    X = ensemble._check_schema(X)
    p = ensemble.n_features
    phi = np.zeros((len(X), p + 1))  # column p collects the null slots
    for table in _path_tables(ensemble):
        rows_per = max(1, CHUNK_ELEMENTS // (table.slot.size * len(table.t)))
        for r in range(0, len(X), rows_per):
            rows = X[r : r + rows_per]
            at = np.arange(len(rows))[:, None, None] * (p + 1)
            flat = np.bincount((at + table.feature).ravel(), table.shap(rows).ravel(), len(rows) * (p + 1))
            phi[r : r + len(rows)] += flat.reshape(len(rows), p + 1)
    return phi[:, :p]


def tree_shap(ensemble: TreeEnsemble, x) -> ShapValues:
    """TreeSHAP of one row, with the baseline and the model's margin."""
    x = np.asarray(x, dtype=float)
    phi = shap_matrix(ensemble, x[None])[0]
    return ShapValues(ensemble.prepared().baseline, phi, float(ensemble.margin(x)[0]), x, list(ensemble.feature_names))


def global_importance(feature_names, phi) -> list[tuple[str, float]]:
    """The feature ranking: (column, mean |phi_i|) over the rows of a SHAP
    matrix, largest first, ties to the lower column index."""
    if phi.shape[0] == 0:
        raise ValueError("global importance needs at least one row")
    mean = np.abs(phi).mean(axis=0)
    order = sorted(range(len(mean)), key=lambda j: (-mean[j], j))
    return [(feature_names[j], float(mean[j])) for j in order]


def _or_none(values) -> list:
    """JSON-ready floats, NaN as None."""
    return [None if v != v else v for v in np.asarray(values, dtype=float).tolist()]


def summary_data(feature_names, X, phi, ranking) -> dict:
    """Per (feature, row) pairs of (shap value, feature-value percentile),
    features in `ranking`'s order; phi is X's SHAP matrix and ranking its
    `global_importance`."""
    X = np.asarray(X, dtype=float)
    column = {name: j for j, name in enumerate(feature_names)}
    features = []
    for name, _ in ranking:
        j = column[name]
        col = X[:, j]
        missing = np.isnan(col)
        finite = np.sort(col[~missing])
        pct = np.searchsorted(finite, col, side="right") / max(finite.size, 1)
        features.append(
            {
                "feature": name,
                "shap": phi[:, j].tolist(),
                "value_percentile": _or_none(np.where(missing, np.nan, pct)),
            }
        )
    return {"schema": "summary/v1", "features": features}


def waterfall_data(ensemble: TreeEnsemble, x) -> dict:
    """Sorted contributions with margin-space endpoints and their probabilities.

    Additivity is exact in margin space; probability labels are the
    ensemble's link of the endpoints.
    """
    sv = tree_shap(ensemble, x)
    phi, values = sv.contributions.tolist(), sv.feature_values.tolist()
    order = np.argsort(-np.abs(sv.contributions), kind="stable").tolist()  # ties in feature order
    space = "probability" if ensemble.kind == "random_forest" else "log-odds"
    return {
        "schema": "waterfall/v1",
        "additivity_space": f"margin ({space}); probabilities are transformed endpoints",
        "baseline": sv.baseline,
        "baseline_probability": float(ensemble.link(sv.baseline)),
        "margin": sv.margin,
        "probability": float(ensemble.link(sv.margin)),
        "contributions": [
            {"feature": sv.feature_names[j], "value": None if values[j] != values[j] else values[j], "shap": phi[j]}
            for j in order
        ],
    }
