"""Feed-forward network trained by mini-batch SGD with momentum.

`fit_mlp` standardizes its own training rows (`features.fit_scaler`); the
fitted ScalerParams travel with the model so unseen rows are scaled the
same way.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from ..features import ScalerParams, fit_scaler
from ..metrics import roc_auc
from ..settings import check_setting
from .boosting import clip_proba
from .ensemble import sigmoid


@dataclass
class MlpConfig:
    hidden_layers: tuple[int, ...] = (64, 32)
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 200
    patience: int = 20
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.hidden_layers, (list, tuple)):  # an empty one is logistic regression
            raise ValueError(f"hidden_layers must be a list of integers >= 1, not {self.hidden_layers!r}")
        for i, units in enumerate(self.hidden_layers):
            check_setting(f"hidden_layers[{i}]", units, numbers.Integral, least=1)
        check_setting("learning_rate", self.learning_rate, numbers.Real, above=0)
        check_setting("momentum", self.momentum, numbers.Real, least=0, below=1)
        check_setting("batch_size", self.batch_size, numbers.Integral, least=1)
        check_setting("epochs", self.epochs, numbers.Integral, least=1)
        check_setting("patience", self.patience, numbers.Integral)
        check_setting("validation_fraction", self.validation_fraction, numbers.Real, least=0, most=0.5)


def _relu(z):
    return np.maximum(z, 0.0)


@dataclass
class MlpModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    feature_names: list[str]
    scaler: ScalerParams
    config: MlpConfig = field(default_factory=MlpConfig)

    def _forward(self, X):
        """Activations per layer; hidden layers ReLU, output sigmoid."""
        acts = [X]
        a = X
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W + b
            a = sigmoid(z) if i == len(self.weights) - 1 else _relu(z)
            acts.append(a)
        return acts

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        return self._forward(self.scaler.transform(X))[-1][:, 0]


def _init_params(p, hidden, rng):
    sizes = [p, *hidden, 1]
    weights, biases = [], []
    for a, b in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / a)
        weights.append(rng.normal(0.0, scale, size=(a, b)))
        biases.append(np.zeros(b))
    return weights, biases


def mlp_gradients(model: MlpModel, X, y, sample_weight=None):
    """Backprop gradients of mean weighted cross-entropy over the batch."""
    y = np.asarray(y, dtype=float)
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    acts = model._forward(np.asarray(X, dtype=float))
    n = len(y)
    p = clip_proba(acts[-1][:, 0])
    # d(mean CE)/d(logit) for the sigmoid output
    delta = (w * (p - y) / n)[:, None]
    grads_w, grads_b = [], []
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w.append(acts[i].T @ delta)
        grads_b.append(delta.sum(axis=0))
        if i > 0:
            delta = (delta @ model.weights[i].T) * (acts[i] > 0)
    return grads_w[::-1], grads_b[::-1]


def mlp_loss(model: MlpModel, X, y, sample_weight=None) -> float:
    y = np.asarray(y, dtype=float)
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    p = clip_proba(model._forward(np.asarray(X, dtype=float))[-1][:, 0])
    return float(np.sum(w * -(y * np.log(p) + (1 - y) * np.log(1 - p))) / len(y))


def fit_mlp(X, y, feature_names, config: MlpConfig | None = None, sample_weight=None, validation=None) -> MlpModel:
    """Standardize X by its own column means and stds and train on it.  With
    validation = (X_val, y_val), holding both classes, scale those rows alike
    and stop when their AUC has not risen for `patience` epochs; return the
    best epoch's weights."""
    config = config or MlpConfig()
    X = np.asarray(X, dtype=float)
    scaler = fit_scaler(X, feature_names)
    X = scaler.transform(X)
    y = np.asarray(y, dtype=int)
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    if validation is not None:
        validation = (scaler.transform(validation[0]), validation[1])
    rng = np.random.default_rng(config.seed)
    weights, biases = _init_params(X.shape[1], config.hidden_layers, rng)
    model = MlpModel(weights, biases, list(feature_names), scaler, config)
    vel_w = [np.zeros_like(W) for W in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    best_auc = -np.inf
    best_params = None
    stall = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            gw, gb = mlp_gradients(model, X[batch], y[batch], w[batch])
            for i in range(len(weights)):
                vel_w[i] = config.momentum * vel_w[i] - config.learning_rate * gw[i]
                vel_b[i] = config.momentum * vel_b[i] - config.learning_rate * gb[i]
                model.weights[i] = model.weights[i] + vel_w[i]
                model.biases[i] = model.biases[i] + vel_b[i]
        if validation is not None:
            auc = roc_auc(validation[1], model._forward(validation[0])[-1][:, 0]).auc
            if auc > best_auc + 1e-9:
                best_auc = auc
                best_params = ([W.copy() for W in model.weights], [b.copy() for b in model.biases])
                stall = 0
            else:
                stall += 1
                if stall >= config.patience:
                    break
    if best_params is not None:
        model.weights, model.biases = best_params
    return model
