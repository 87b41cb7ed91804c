"""One table of every numeric setting and its rule (`settings.check_setting`):
a bool, a str, a float for an integer, NaN for a number and a value just
outside each bound fail, naming the field and the value; each bound itself
and a value just inside an open bound pass."""

import math
import numbers

import numpy as np
import pytest

from creditshap.models import BoostConfig, ForestConfig, MlpConfig, quantile_bin
from creditshap.pipeline import ConfigError, PipelineConfig
from creditshap.resampling import ResamplingStrategy

INTEGER, NUMBER = numbers.Integral, numbers.Real


SETTINGS = [  # (owner, the field its error names, kind, bounds)
    (PipelineConfig, "seed", INTEGER, {"least": 0}),
    (PipelineConfig, "correlation_threshold", NUMBER, {"least": 0, "most": 1}),
    (PipelineConfig, "missing_threshold", NUMBER, {"least": 0, "most": 1}),
    (PipelineConfig, "k_neighbors", INTEGER, {"least": 1}),
    (PipelineConfig, "top_k", INTEGER, {"least": 1}),
    (PipelineConfig, "cv_folds", INTEGER, {"least": 2}),
    (ResamplingStrategy, "k_neighbors", INTEGER, {"least": 1}),
    (ResamplingStrategy, "seed", INTEGER, {"least": 0}),
    (BoostConfig, "n_rounds", INTEGER, {"least": 1}),
    (BoostConfig, "learning_rate", NUMBER, {"above": 0}),
    (BoostConfig, "max_depth", INTEGER, {"least": 1}),
    (BoostConfig, "min_samples_leaf", INTEGER, {}),
    (BoostConfig, "reg_lambda", NUMBER, {"above": 0}),
    (BoostConfig, "max_bins", INTEGER, {"least": 1}),
    (BoostConfig, "patience", INTEGER, {}),
    (BoostConfig, "validation_fraction", NUMBER, {"least": 0, "most": 0.5}),
    (ForestConfig, "n_trees", INTEGER, {"least": 1}),
    (ForestConfig, "max_depth", INTEGER, {}),
    (ForestConfig, "min_samples_leaf", INTEGER, {}),
    (ForestConfig, "max_features", INTEGER, {"least": 1}),
    (MlpConfig, "hidden_layers[1]", INTEGER, {"least": 1}),
    (MlpConfig, "learning_rate", NUMBER, {"above": 0}),
    (MlpConfig, "momentum", NUMBER, {"least": 0, "below": 1}),
    (MlpConfig, "batch_size", INTEGER, {"least": 1}),
    (MlpConfig, "epochs", INTEGER, {"least": 1}),
    (MlpConfig, "patience", INTEGER, {}),
    (MlpConfig, "validation_fraction", NUMBER, {"least": 0, "most": 0.5}),
    (quantile_bin, "n_bins", INTEGER, {"least": 2}),
]


def build(owner, name, value):
    if owner is quantile_bin:
        return quantile_bin(np.zeros((10, 1)), value)
    if name == "hidden_layers[1]":  # each layer width is checked on its own
        return MlpConfig(hidden_layers=(8, value))
    return owner(**{name: value})


def step(value, kind, toward):
    """The next value past `value` toward `toward`: 1 for an integer, one float ulp for a number."""
    if kind is INTEGER:
        return value + (1 if toward > value else -1)
    return float(np.nextafter(float(value), toward))


def bad_values(kind, bounds):
    values = [True, "x", bounds.get("least", 0) + 1.5 if kind is INTEGER else math.nan]  # the float passes the bounds
    if "least" in bounds:
        values.append(step(bounds["least"], kind, -math.inf))
    if "most" in bounds:
        values.append(step(bounds["most"], kind, math.inf))
    values += [bounds[key] for key in ("above", "below") if key in bounds]
    return values


def good_values(kind, bounds):
    values = [bounds[key] for key in ("least", "most") if key in bounds]
    if "above" in bounds:
        values.append(step(bounds["above"], kind, math.inf))
    if "below" in bounds:
        values.append(step(bounds["below"], kind, -math.inf))
    return values


@pytest.mark.parametrize("owner, name, kind, bounds", SETTINGS, ids=[f"{row[0].__name__}.{row[1]}" for row in SETTINGS])
def test_every_bad_value_fails_naming_the_field(owner, name, kind, bounds):
    error = ConfigError if owner is PipelineConfig else ValueError
    for value in bad_values(kind, bounds):
        with pytest.raises(error) as got:
            build(owner, name, value)
        message = str(got.value)
        assert message.startswith(f"{name} must be ") and message.endswith(f", not {value!r}"), (value, message)
    for value in good_values(kind, bounds):
        build(owner, name, value)
