"""Model families behind one fit/predict surface.

Families: logistic, logistic_binned, random_forest, gradient_boosting,
oblivious_boosting, mlp.  `fit_model` is the one training path: it fits
column medians on the training rows, fills them in, resamples and fits
the family.  The FittedModel keeps those medians and fills every row it
scores with them; tree ensembles also expose margin() for SHAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features import fit_scaler, median_impute
from ..metrics import TrainSplit
from ..resampling import ResamplingStrategy, apply_strategy
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
    """A model plus the column medians fitted on its training rows."""

    spec: ModelSpec
    model: object
    medians: np.ndarray

    def impute(self, X) -> np.ndarray:
        return median_impute(X, self.medians)[0]

    def predict_proba(self, X) -> np.ndarray:
        return self.model.predict_proba(self.impute(X))


def fit_model(spec: ModelSpec, split: TrainSplit, strategy=ResamplingStrategy(), seed: int = 0) -> FittedModel:
    """Fill split.X with its column medians, resample with strategy and fit
    the family on the result."""
    X, medians = median_impute(split.X)
    X, y, w = apply_strategy(strategy, TrainSplit(X, split.y))
    names = split.columns or [f"f{j}" for j in range(X.shape[1])]
    params = dict(spec.params)
    if spec.family == "logistic":
        model = fit_logistic(X, y, names, w)
    elif spec.family == "logistic_binned":
        model = fit_binned_logistic(X, y, params.get("n_bins", 10), names, w)
    elif spec.family == "random_forest":
        cfg = ForestConfig(seed=seed, **params)
        model = fit_random_forest(X, y, names, cfg, w)
    elif spec.family == "gradient_boosting":
        cfg = BoostConfig(seed=seed, **params)
        model = fit_gradient_boosting(X, y, names, cfg, w)
    elif spec.family == "oblivious_boosting":
        cfg = BoostConfig(seed=seed, max_depth=params.pop("max_depth", DEFAULT_OBLIVIOUS_DEPTH), **params)
        model = fit_oblivious_boosting(X, y, names, cfg, w)
    elif spec.family == "mlp":
        scaler = fit_scaler(X, names)
        cfg = MlpConfig(seed=seed, **params)
        model = fit_mlp(scaler.transform(X), y, names, scaler, cfg, w)
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
