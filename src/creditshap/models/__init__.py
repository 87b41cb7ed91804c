"""Model families behind one fit/predict surface.

Families: logistic, logistic_binned, random_forest, gradient_boosting,
oblivious_boosting, mlp.  Every fitted model exposes predict_proba; tree
ensembles also expose margin() for SHAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features import fit_scaler, median_impute
from .boosting import DEFAULT_OBLIVIOUS_DEPTH, BoostConfig, fit_gradient_boosting, fit_oblivious_boosting
from .ensemble import TreeEnsemble, classify, sigmoid
from .forest import ForestConfig, fit_random_forest
from .logistic import LogisticModel, fit_binned_logistic, fit_logistic, quantile_bin
from .mlp import MlpConfig, MlpModel, fit_mlp
from .trees import Tree

MODEL_FAMILIES = (
    "logistic",
    "logistic_binned",
    "random_forest",
    "gradient_boosting",
    "oblivious_boosting",
    "mlp",
)


@dataclass(frozen=True)
class ModelSpec:
    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")


@dataclass
class FittedModel:
    """A model plus the preprocessing state fitted on its training rows."""

    spec: ModelSpec
    model: object
    medians: np.ndarray

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        family = self.spec.family
        if family in ("logistic", "logistic_binned", "mlp"):
            X, _ = median_impute(X, self.medians)
        return self.model.predict_proba(X)


def fit_model(spec: ModelSpec, X, y, feature_names, sample_weight=None, seed: int = 0) -> FittedModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    params = dict(spec.params)
    Ximp, medians = median_impute(X)
    if spec.family == "logistic":
        model = fit_logistic(Ximp, y, feature_names, sample_weight)
    elif spec.family == "logistic_binned":
        model = fit_binned_logistic(
            Ximp, y, params.get("n_bins", 10), feature_names, sample_weight
        )
    elif spec.family == "random_forest":
        cfg = ForestConfig(seed=seed, **params)
        model = fit_random_forest(X, y, feature_names, cfg, sample_weight)
    elif spec.family == "gradient_boosting":
        cfg = BoostConfig(seed=seed, **params)
        model = fit_gradient_boosting(X, y, feature_names, cfg, sample_weight)
    elif spec.family == "oblivious_boosting":
        cfg = BoostConfig(seed=seed, max_depth=params.pop("max_depth", DEFAULT_OBLIVIOUS_DEPTH), **params)
        model = fit_oblivious_boosting(X, y, feature_names, cfg, sample_weight)
    elif spec.family == "mlp":
        scaler = fit_scaler(Ximp, feature_names)
        cfg = MlpConfig(seed=seed, **params)
        model = fit_mlp(scaler.transform(Ximp), y, feature_names, scaler, cfg, sample_weight)
    else:  # pragma: no cover - guarded by ModelSpec
        raise ValueError(spec.family)
    return FittedModel(spec, model, medians)


__all__ = [
    "BoostConfig",
    "FittedModel",
    "ForestConfig",
    "LogisticModel",
    "MlpConfig",
    "MlpModel",
    "MODEL_FAMILIES",
    "ModelSpec",
    "Tree",
    "TreeEnsemble",
    "classify",
    "fit_binned_logistic",
    "fit_gradient_boosting",
    "fit_logistic",
    "fit_mlp",
    "fit_model",
    "fit_oblivious_boosting",
    "fit_random_forest",
    "quantile_bin",
    "sigmoid",
]
