"""Regression-tree structure shared by the forest, boosters and TreeSHAP.

Trees are stored as flat node arrays in depth-first order; `depth_first`, the
one tree writer, sets that order for both growers.  `stack` joins an
ensemble's trees into one (as GPUTreeShap does) and `Tree.apply`, the one
router, takes rows down from one root or many.  Routing rule
(`Tree.go_left`): x[f] < threshold goes left; NaN follows the larger-cover
child.  Growth routes its training rows by the same rule (`training_side`),
so every leaf holds the rows it was fitted on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Tree:
    feature: np.ndarray  # int64; -1 marks a leaf
    threshold: np.ndarray  # float64; NaN at leaves
    left: np.ndarray  # int64 child index; -1 at leaves
    right: np.ndarray
    value: np.ndarray  # float64 leaf value; 0 at internal nodes
    cover: np.ndarray  # float64 weighted training sample count
    oblivious: bool = False

    def __post_init__(self):
        internal = self.feature >= 0
        child_sum = self.cover[self.left] + self.cover[self.right]
        mismatch = ~np.isclose(child_sum, self.cover, rtol=1e-9, atol=1e-6)
        bad = internal & (mismatch | (self.left < 0) | (self.right < 0))
        if bad.any():
            raise ValueError("node cover must equal the sum of child covers")
        if self.oblivious:  # every internal node takes the split of its level's first one
            depth = _node_depths(self)[internal]
            first = np.flatnonzero(internal)[np.unique(depth, return_index=True)[1]][depth]
            f, t = self.feature, self.threshold
            if (f[internal] != f[first]).any() or (t[internal] != t[first]).any():
                raise ValueError("oblivious tree has distinct splits at one level")

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    def max_depth(self) -> int:
        return int(max(_node_depths(self))) if self.n_nodes > 1 else 0

    def used_features(self) -> list[int]:
        return sorted(set(int(f) for f in self.feature if f >= 0))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The leaf value of every row."""
        return self.value[self.apply(X)]

    def go_left(self, x, node):
        """The routing rule: x < threshold goes left, NaN follows the larger-cover child; x and node broadcast."""
        go_left = x < self.threshold[node]
        nan = np.isnan(x)
        if nan.any():
            node = np.broadcast_to(node, nan.shape)[nan]
            go_left[nan] = self.cover[self.left[node]] >= self.cover[self.right[node]]
        return go_left

    def apply(self, X: np.ndarray, roots=0) -> np.ndarray:
        """Every row's leaf index from roots (a node or a 1-D array of them), shaped (rows,) + roots.shape."""
        X = np.ascontiguousarray(X, dtype=float)
        node = np.repeat(np.ravel(roots), len(X))  # flat (root, row) pairs, root-major: neighbours walk one tree
        start = np.tile(np.arange(len(X)) * X.shape[1], np.size(roots))  # where the pair's row starts in X.ravel()
        pending = np.arange(node.size)
        while pending.size:
            at = node[pending]
            inner = self.feature[at] >= 0
            pending, at = pending[inner], at[inner]
            go_left = self.go_left(X.ravel()[start[pending] + self.feature[at]], at)
            node[pending] = np.where(go_left, self.left[at], self.right[at])
        return node.reshape(*np.shape(roots), len(X)).T

    def expected_value(self) -> float:
        """Cover-weighted mean of leaf values (the tree's SHAP baseline)."""
        leaves = self.feature < 0
        total = self.cover[leaves].sum()
        if total == 0:
            return 0.0
        return float(np.dot(self.value[leaves], self.cover[leaves]) / total)

    def to_dict(self) -> dict:
        return {
            "oblivious": self.oblivious,
            "feature": self.feature.tolist(),
            "threshold": [None if np.isnan(t) else t for t in self.threshold.tolist()],
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "cover": self.cover.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(
            feature=np.asarray(d["feature"], dtype=np.int64),
            threshold=np.asarray(
                [np.nan if t is None else t for t in d["threshold"]], dtype=float
            ),
            left=np.asarray(d["left"], dtype=np.int64),
            right=np.asarray(d["right"], dtype=np.int64),
            value=np.asarray(d["value"], dtype=float),
            cover=np.asarray(d["cover"], dtype=float),
            oblivious=bool(d.get("oblivious", False)),
        )


def training_side(go_left, nan, w, node=0):
    """Growth's routing: known values take go_left; NaN rows join, per node (each
    row's, or one for all), the side whose known rows weigh more by w, ties left:
    a child's cover is its rows' weight, so `Tree.go_left` picks the same child."""
    if not nan.any():
        return go_left
    node, known = np.broadcast_to(node, nan.shape), ~nan
    weight = np.bincount(2 * node[known] + ~go_left[known], weights=w[known], minlength=2 * node.max() + 2)
    return np.where(nan, weight[2 * node] >= weight[2 * node + 1], go_left)


def stack(trees: list[Tree]) -> tuple[Tree, np.ndarray]:
    """Every tree in one node array, child indices shifted, and each tree's root index."""
    sizes = [t.n_nodes for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    names = ("feature", "threshold", "left", "right", "value", "cover")
    parts = {k: np.concatenate([getattr(t, k) for t in trees]) for k in names}
    for k in ("left", "right"):
        parts[k] = np.where(parts[k] >= 0, parts[k] + np.repeat(roots, sizes), -1)
    return Tree(**parts), roots


def _levels(feature, left, right) -> list[np.ndarray]:
    """The nodes at each depth, root first, found one level of nodes at a time."""
    levels = [np.zeros(1, dtype=np.int64)]
    while True:
        inner = levels[-1][feature[levels[-1]] >= 0]
        if not inner.size:
            return levels
        levels.append(np.concatenate([left[inner], right[inner]]))


def _node_depths(tree: Tree) -> np.ndarray:
    """Every node's depth."""
    depths = np.zeros(tree.n_nodes, dtype=int)
    for d, level in enumerate(_levels(tree.feature, tree.left, tree.right)):
        depths[level] = d
    return depths


def depth_first(feature, threshold, left, right, value, cover, oblivious=False) -> tuple[Tree, np.ndarray]:
    """The one tree writer: renumbers a tree given as node arrays in any order
    (root 0) the way a recursive walk visits it (node, left subtree, right
    subtree); returns the Tree and each input node's new index.  Subtree sizes
    come from the bottom level up, positions from the root down: a left child
    follows its parent, a right child its left sibling's subtree."""
    inner = [level[feature[level] >= 0] for level in _levels(feature, left, right)]
    size = np.ones(len(feature), dtype=np.int64)
    for k in reversed(inner):
        size[k] += size[left[k]] + size[right[k]]
    at = np.zeros(len(feature), dtype=np.int64)
    for k in inner:
        at[left[k]] = at[k] + 1
        at[right[k]] = at[k] + 1 + size[left[k]]
    order = np.argsort(at)
    left, right = (np.where(c[order] >= 0, at[c[order]], -1) for c in (left, right))
    return Tree(feature[order], threshold[order], left, right, value[order], cover[order], oblivious), at
