"""Model families behind one fit/predict surface.

Families: logistic, logistic_binned, random_forest, gradient_boosting,
oblivious_boosting, mlp.  `fit_model` is the one training path: it fits
column medians on the training rows, fills them in, holds out the
early-stopping rows, resamples the rest and fits the family.  The
FittedModel keeps those medians and fills every row it scores with them;
tree ensembles also expose margin() for SHAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..features import median_impute
from ..metrics import TrainSplit, validation_split
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
FAMILY_CONFIGS = {  # the logistic families have none
    "random_forest": ForestConfig, "gradient_boosting": BoostConfig, "oblivious_boosting": BoostConfig, "mlp": MlpConfig
}


@dataclass(frozen=True)
class ModelSpec:
    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        accepted = self.accepted_params()
        unknown = sorted(set(self.params) - set(accepted))
        if unknown:
            raise ValueError(
                f"unknown {self.family} parameter(s) {', '.join(unknown)}; accepted: {', '.join(accepted) or 'none'}"
            )

    def accepted_params(self) -> list[str]:
        """The names params may hold: the family's config fields less seed and,
        for oblivious growth, which ignores it, min_samples_leaf."""
        if self.family.startswith("logistic"):
            return ["n_bins"] if self.family == "logistic_binned" else []
        fixed = {"seed", "min_samples_leaf"} if self.family == "oblivious_boosting" else {"seed"}
        return sorted(f.name for f in fields(FAMILY_CONFIGS[self.family]) if f.name not in fixed)


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
    """Fill split.X with its column medians, hold out the family's
    early-stopping rows (`validation_split`), resample the rest with strategy
    and fit the family on it, so the held-out rows are real rows."""
    X, medians = median_impute(split.X)
    y = np.asarray(split.y, dtype=int)
    names = split.columns or [f"f{j}" for j in range(X.shape[1])]
    params = dict(spec.params)
    if spec.family == "oblivious_boosting":
        params.setdefault("max_depth", DEFAULT_OBLIVIOUS_DEPTH)
    cfg = FAMILY_CONFIGS[spec.family](seed=seed, **params) if spec.family in FAMILY_CONFIGS else None
    fit, held = validation_split(y, getattr(cfg, "validation_fraction", 0.0), seed)
    X_fit, y_fit, w = apply_strategy(strategy, TrainSplit(X[fit], y[fit]))
    validation = (X[held], y[held]) if held.size else None
    if spec.family == "logistic":
        model = fit_logistic(X_fit, y_fit, names, w)
    elif spec.family == "logistic_binned":
        model = fit_binned_logistic(X_fit, y_fit, feature_names=names, sample_weight=w, **params)
    elif spec.family == "random_forest":
        model = fit_random_forest(X_fit, y_fit, names, cfg, w)
    elif spec.family == "gradient_boosting":
        model = fit_gradient_boosting(X_fit, y_fit, names, cfg, w, validation)
    elif spec.family == "oblivious_boosting":
        model = fit_oblivious_boosting(X_fit, y_fit, names, cfg, w, validation)
    elif spec.family == "mlp":
        model = fit_mlp(X_fit, y_fit, names, cfg, w, validation)
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
