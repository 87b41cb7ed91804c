"""Additive tree-ensemble container shared by the forest and the boosters."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ..tables import DataError
from .trees import Tree, stack

ENSEMBLE_KINDS = ("random_forest", "gradient_boosting", "oblivious_boosting")

FORMAT_VERSION = 1

# Largest number of elements any one temporary of `TreeEnsemble.margin`,
# `explain.shap_matrix` or the level search (`boosting._groups`) may hold:
# margin routes rows in chunks of CHUNK_ELEMENTS // trees, shap_matrix cuts
# its path tables and row chunks to it, and the level search its feature
# groups' histograms and keys.  Only what an ensemble's Prepared memo keeps
# grows with the ensemble (see `explain`).
CHUNK_ELEMENTS = 1 << 14


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class Prepared:
    """An ensemble's trees made ready to route and explain, built once and
    read by every later call: the stack of all trees and its roots, the
    TreeSHAP baseline, and the path tables, which `explain.shap_matrix`
    builds (checking the trees' cover) on its first call.
    `TreeEnsemble.prepared` keys it on the trees' identity and order and on
    the fields these values read; a tree is not changed in place once it is
    in an ensemble."""

    def __init__(self, trees: list[Tree], key: tuple):
        self.key, self.trees = key, list(trees)  # holding the trees keeps their ids out of reuse
        _, self.learning_rate, _, self.base_score = key
        self.forest, self.roots = stack(self.trees) if self.trees else (None, None)
        self.tables = None  # explain.shap_matrix's path tables

    @cached_property
    def baseline(self) -> float:
        """phi_0 of TreeSHAP: base_score plus lr * each tree's expected value, in tree order."""
        total = self.base_score
        for tree in self.trees:
            total += self.learning_rate * tree.expected_value()
        return total


@dataclass
class TreeEnsemble:
    kind: str
    feature_names: list[str]
    base_score: float  # raw-space prior (log-odds for boosters)
    learning_rate: float
    trees: list[Tree] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    _prepared: Prepared | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def _check_schema(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} feature columns, got {X.shape[1]}"
            )
        return X

    def prepared(self) -> Prepared:
        """The memo of this ensemble's prepared trees, built on the first call
        and again whenever the trees (by identity and order), learning_rate,
        n_features or base_score differ from those it was built from."""
        key = (tuple(map(id, self.trees)), self.learning_rate, self.n_features, self.base_score)
        if self._prepared is None or self._prepared.key != key:
            self._prepared = Prepared(self.trees, key)
        return self._prepared

    def margin(self, X) -> np.ndarray:
        """Raw additive output, base + lr * sum of tree outputs, routed through all trees' stack at once.

        Log-odds for the boosters; mean leaf probability for the forest
        (learning_rate = 1/n_trees there).  Rows go in chunks of at most
        CHUNK_ELEMENTS (row, tree) pairs.
        """
        X = self._check_schema(X)
        if not self.trees:
            return np.full(X.shape[0], self.base_score, dtype=float)
        prep = self.prepared()
        out = np.empty(X.shape[0])
        step = max(1, CHUNK_ELEMENTS // len(prep.roots))
        for r in range(0, len(X), step):
            terms = self.learning_rate * prep.forest.value[prep.forest.apply(X[r : r + step], prep.roots)]
            terms[:, 0] += self.base_score
            out[r : r + step] = np.cumsum(terms, axis=1)[:, -1]  # a running sum adds the trees in order
        return out

    def link(self, margin) -> np.ndarray:
        """Bad-class probability of a margin: the sigmoid of the boosters'
        log-odds; the forest's margin already is a probability, only clipped."""
        if self.kind == "random_forest":
            return np.clip(margin, 0.0, 1.0)
        return sigmoid(margin)

    def predict_proba(self, X) -> np.ndarray:
        return self.link(self.margin(X))

    def to_dict(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "kind": self.kind,
            "feature_names": self.feature_names,
            "base_score": self.base_score,
            "learning_rate": self.learning_rate,
            "trees": [t.to_dict() for t in self.trees],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeEnsemble":
        if d.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {d.get('version')}")
        return cls(
            kind=d["kind"],
            feature_names=list(d["feature_names"]),
            base_score=float(d["base_score"]),
            learning_rate=float(d["learning_rate"]),
            trees=[Tree.from_dict(t) for t in d["trees"]],
            meta=dict(d.get("meta", {})),
        )

    @classmethod
    def load(cls, path, data=None) -> "TreeEnsemble":
        try:  # a file that holds no ensemble (`data`, if its JSON is read already) is a DataError naming it
            return cls.from_dict(json.loads(Path(path).read_text()) if data is None else data)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:  # bad JSON is a ValueError too
            raise DataError(f"{path}: not a model file ({type(exc).__name__}: {exc})") from exc


def classify(p, threshold: float = 0.5) -> np.ndarray:
    """Bad-payer flag: 1 iff probability strictly exceeds the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    p = np.asarray(p, dtype=float)
    if ((p < 0) | (p > 1)).any():
        raise ValueError("probabilities must lie in [0, 1]")
    return (p > threshold).astype(int)
