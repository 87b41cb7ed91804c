"""Regression-tree structure shared by the forest, boosters and TreeSHAP.

Trees are stored as flat node arrays; `stack` joins an ensemble's trees into one
(as GPUTreeShap does) and `Tree.apply`, the one router, takes rows down from one
root or many.  Routing rule (`Tree.go_left`): x[f] < threshold goes left; NaN
follows the larger-cover child.  Growth routes its training rows by the same
rule (`training_side`), so every leaf holds the rows it was fitted on.
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


def _node_depths(tree: Tree) -> np.ndarray:
    """Every node's depth, found one level of nodes at a time."""
    depths = np.zeros(tree.n_nodes, dtype=int)
    level, d = np.zeros(1, dtype=np.int64), 0
    while level.size:
        depths[level] = d
        level = level[tree.feature[level] >= 0]
        level, d = np.concatenate([tree.left[level], tree.right[level]]), d + 1
    return depths


class TreeBuilder:
    """Append-only builder producing the flat node arrays."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.cover: list[float] = []

    def add_leaf(self, value: float, cover: float) -> int:
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(value))
        self.cover.append(float(cover))
        return len(self.feature) - 1

    def add_internal(self, feature: int, threshold: float, cover: float) -> int:
        self.feature.append(int(feature))
        self.threshold.append(float(threshold))
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.cover.append(float(cover))
        return len(self.feature) - 1

    def set_children(self, node: int, left: int, right: int) -> None:
        self.left[node] = left
        self.right[node] = right

    def build(self) -> Tree:
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=float),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=np.asarray(self.value, dtype=float),
            cover=np.asarray(self.cover, dtype=float),
        )


def oblivious_tree_from_levels(levels, leaf_values, leaf_covers) -> Tree:
    """Materialize a symmetric tree from per-level splits and 2^depth leaves.

    Leaf index bit b (from the most significant) is 1 when x >= threshold at
    level b.  Nodes are laid out depth first, as a recursive walk adds them:
    the node with prefix q at level l sits at l plus, for each right turn
    of q at a level i < l, the 2^(depth - i) - 1 nodes of the left subtree
    it passes.  An internal node's cover is the sum of its leaves' covers.
    """
    depth = len(levels)
    n_leaves = 1 << depth
    assert len(leaf_values) == n_leaves and len(leaf_covers) == n_leaves
    n_nodes = 2 * n_leaves - 1
    feature, left, right = (np.full(n_nodes, -1, dtype=np.int64) for _ in range(3))
    threshold, value, cover = np.full(n_nodes, np.nan), np.zeros(n_nodes), np.empty(n_nodes)

    def index(level):
        i = np.arange(level)
        turns = (np.arange(1 << level)[:, None] >> (level - 1 - i)) & 1
        return level + turns @ ((1 << (depth - i)) - 1)

    for level, (f, t) in enumerate(levels):
        at, span = index(level), 1 << (depth - level)  # span: the leaves under each node
        feature[at], threshold[at] = f, t
        left[at], right[at] = at + 1, at + span
        cover[at] = np.reshape(leaf_covers, (-1, span)).sum(axis=1)
    leaves = index(depth)
    value[leaves], cover[leaves] = leaf_values, leaf_covers
    return Tree(feature, threshold, left, right, value, cover, oblivious=True)
