"""Additive tree-ensemble container shared by the forest and the boosters."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .trees import Tree

ENSEMBLE_KINDS = ("random_forest", "gradient_boosting", "oblivious_boosting")

FORMAT_VERSION = 1


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class TreeEnsemble:
    kind: str
    feature_names: list[str]
    base_score: float  # raw-space prior (log-odds for boosters)
    learning_rate: float
    trees: list[Tree] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

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

    def margin(self, X) -> np.ndarray:
        """Raw additive output: base + lr * sum of tree outputs.

        Log-odds for the boosters; mean leaf probability for the forest
        (learning_rate = 1/n_trees there).
        """
        X = self._check_schema(X)
        out = np.full(X.shape[0], self.base_score, dtype=float)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
        return out

    def predict_proba(self, X) -> np.ndarray:
        m = self.margin(X)
        if self.kind == "random_forest":
            return np.clip(m, 0.0, 1.0)
        return sigmoid(m)

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

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "TreeEnsemble":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def classify(p, threshold: float = 0.5) -> np.ndarray:
    """Bad-payer flag: 1 iff probability strictly exceeds the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    p = np.asarray(p, dtype=float)
    if ((p < 0) | (p > 1)).any():
        raise ValueError("probabilities must lie in [0, 1]")
    return (p > threshold).astype(int)
