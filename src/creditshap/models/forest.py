"""Bagged random forest on the boosters' tree grower, with random feature subsets.

Each tree is `boosting.grow_tree` on the forest's one `BinnedMatrix`, with
g = -w·y, h = w and no regularisation: the Newton gain is then half the
weighted Gini decrease, and a leaf's value -ΣG/ΣH is its weighted bad
fraction.  Every searched node draws its own feature subset; pure nodes
stay leaves without a draw.  A split's NaN rows join the side whose known
rows weigh more (`trees.training_side`).
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from ..settings import check_setting
from .boosting import DEFAULT_MAX_BINS, BinnedMatrix, grow_tree
from .ensemble import TreeEnsemble


@dataclass
class ForestConfig:
    n_trees: int = 500
    max_depth: int = 12
    min_samples_leaf: int = 5
    max_features: str | int = "sqrt"
    seed: int = 0

    def __post_init__(self):
        check_setting("n_trees", self.n_trees, numbers.Integral, least=1)
        check_setting("max_depth", self.max_depth, numbers.Integral)
        check_setting("min_samples_leaf", self.min_samples_leaf, numbers.Integral)
        if self.max_features != "sqrt":
            check_setting("max_features", self.max_features, numbers.Integral, least=1)


def fit_random_forest(X, y, feature_names, config: ForestConfig | None = None, sample_weight=None) -> TreeEnsemble:
    """Bootstrap-bagged trees; leaves hold the weighted bad-class fraction.

    The ensemble averages leaf probabilities (learning_rate = 1/n_trees,
    base 0), so margin space for the forest is probability space.
    """
    config = config or ForestConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    rng = np.random.default_rng(config.seed)
    n, p = X.shape
    m = max(1, int(np.sqrt(p))) if config.max_features == "sqrt" else min(int(config.max_features), p)
    binned = BinnedMatrix(X, DEFAULT_MAX_BINS)
    growth = SimpleNamespace(max_depth=config.max_depth, min_samples_leaf=config.min_samples_leaf, reg_lambda=0.0)

    def draw(rows):  # only nodes holding both classes are searched
        return rng.choice(p, size=m, replace=False) if y[rows].min() < y[rows].max() else []

    trees = []
    for _ in range(config.n_trees):
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        wt = w * counts  # duplicates enter as weight, not repeated rows
        trees.append(grow_tree(binned, np.flatnonzero(counts), -wt * y, wt, wt, growth, draw)[0])
    ensemble = TreeEnsemble("random_forest", list(feature_names), 0.0, 1.0 / config.n_trees, trees)
    ensemble.meta = {"config": asdict(config)}
    return ensemble
