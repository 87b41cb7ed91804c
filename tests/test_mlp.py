import numpy as np
import pytest

from creditshap.features import fit_scaler
from creditshap.metrics import roc_auc
from creditshap.models import mlp
from creditshap.models.logistic import fit_logistic
from creditshap.models.mlp import MlpConfig, MlpModel, _init_params, fit_mlp, mlp_gradients, mlp_loss


def raw_dataset(seed=0, n=200, p=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * [1.0, 5.0, 0.2][:p] + [3.0, -40.0, 0.5][:p]
    eta = (X[:, 0] - 3.0) - 0.4 * (X[:, 1] + 40.0)
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(int)
    return X, y, [f"f{i}" for i in range(p)]


def standardized_dataset(seed=0, n=200, p=3):
    X, y, names = raw_dataset(seed, n, p)
    scaler = fit_scaler(X, names)
    return scaler.transform(X), y, scaler


def fresh_model(p, hidden, scaler, seed=0):
    rng = np.random.default_rng(seed)
    w, b = _init_params(p, hidden, rng)
    return MlpModel(w, b, scaler.columns, scaler, MlpConfig(hidden_layers=hidden))


class TestGradients:
    def test_matches_central_finite_differences(self):
        Z, y, scaler = standardized_dataset(1, n=40)
        model = fresh_model(3, (5, 4), scaler, seed=2)
        gw, gb = mlp_gradients(model, Z, y)
        eps = 1e-6
        for layer in range(len(model.weights)):
            W = model.weights[layer]
            for idx in [(0, 0), (W.shape[0] - 1, W.shape[1] - 1)]:
                orig = W[idx]
                W[idx] = orig + eps
                up = mlp_loss(model, Z, y)
                W[idx] = orig - eps
                down = mlp_loss(model, Z, y)
                W[idx] = orig
                numeric = (up - down) / (2 * eps)
                analytic = gw[layer][idx]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / denom < 1e-4

    def test_bias_gradient_finite_difference(self):
        Z, y, scaler = standardized_dataset(3, n=30)
        model = fresh_model(3, (4,), scaler, seed=1)
        _, gb = mlp_gradients(model, Z, y)
        eps = 1e-6
        b = model.biases[0]
        orig = b[0]
        b[0] = orig + eps
        up = mlp_loss(model, Z, y)
        b[0] = orig - eps
        down = mlp_loss(model, Z, y)
        b[0] = orig
        assert (up - down) / (2 * eps) == pytest.approx(gb[0][0], rel=1e-4, abs=1e-8)

    def test_no_hidden_layer_matches_logistic_gradient_direction(self):
        # with zero hidden layers the network is logistic regression; its
        # gradient at init 0 must align with the Newton model's fitted direction
        Z, y, scaler = standardized_dataset(4, n=300)
        model = fresh_model(3, (), scaler, seed=0)
        model.weights[0][:] = 0.0
        model.biases[0][:] = 0.0
        gw, gb = mlp_gradients(model, Z, y)
        ref = fit_logistic(Z, y)
        g = -gw[0][:, 0]
        cos = g @ ref.coef / (np.linalg.norm(g) * np.linalg.norm(ref.coef))
        assert cos > 0.9

    def test_zero_valued_constant_column_gets_zero_gradient(self):
        # a column that is identically zero cannot move first-layer weights
        Z, y, scaler = standardized_dataset(5, n=50)
        Z = np.hstack([Z, np.zeros((50, 1))])
        from creditshap.features import ScalerParams

        scaler4 = ScalerParams(scaler.columns + ["zero"], np.r_[scaler.mean, 0.0], np.r_[scaler.std, 0.0])
        model = fresh_model(4, (6,), scaler4, seed=3)
        gw, _ = mlp_gradients(model, Z, y)
        assert np.allclose(gw[0][3, :], 0.0)


class TestFit:
    def test_learns_linear_signal(self):
        X, y, names = raw_dataset(6, n=400)
        cfg = MlpConfig(hidden_layers=(16,), epochs=60, seed=0)
        model = fit_mlp(X, y, names, cfg)
        assert roc_auc(y, model.predict_proba(X)).auc > 0.8

    def test_learns_xor(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(500, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        cfg = MlpConfig(hidden_layers=(16, 8), epochs=150, learning_rate=0.05, seed=1)
        model = fit_mlp(X, y, ["a", "b"], cfg)
        pred = (model.predict_proba(X) > 0.5).astype(int)
        assert np.mean(pred == y) > 0.9

    def test_deterministic_given_seed(self):
        X, y, names = raw_dataset(9, n=150)
        cfg = MlpConfig(hidden_layers=(8,), epochs=20, seed=5)
        a = fit_mlp(X, y, names, cfg)
        b = fit_mlp(X, y, names, cfg)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_unscaled_rows_pass_through_scaler(self):
        # the model keeps the scaler fitted on its training rows and scales every row it scores
        rng = np.random.default_rng(10)
        X = rng.normal(loc=3.0, scale=2.0, size=(200, 2))
        y = (X[:, 0] > 3).astype(int)
        cfg = MlpConfig(hidden_layers=(8,), epochs=30, seed=0)
        model = fit_mlp(X, y, ["a", "b"], cfg)
        scaler = fit_scaler(X, ["a", "b"])
        Z = scaler.transform(X)
        assert model.scaler.columns == ["a", "b"]
        assert np.array_equal(model.scaler.mean, scaler.mean) and np.array_equal(model.scaler.std, scaler.std)
        assert np.array_equal(model.predict_proba(X), model._forward(Z)[-1][:, 0])

    def test_early_stopping_returns_the_best_validation_epoch(self, monkeypatch):
        X, y, names = raw_dataset(11, n=200)
        X_val, y_val, _ = raw_dataset(12, n=100)
        seen = []  # each epoch's validation scores and AUC

        def recording_auc(y_true, scores):
            curve = roc_auc(y_true, scores)
            seen.append((np.array(scores), curve.auc))
            return curve

        monkeypatch.setattr(mlp, "roc_auc", recording_auc)
        cfg = MlpConfig(hidden_layers=(32,), epochs=200, patience=3, learning_rate=0.05, seed=0)
        model = fit_mlp(X, y, names, cfg, validation=(X_val, y_val))
        aucs = [auc for _, auc in seen]
        best = int(np.argmax(aucs))  # the first epoch to reach the highest AUC
        assert len(aucs) == best + 1 + cfg.patience < cfg.epochs  # stopped `patience` epochs later
        assert np.array_equal(model.predict_proba(X_val), seen[best][0])  # the validation rows take the fit rows' scaler


class TestMlpConfig:
    @pytest.mark.parametrize("name, kind", [
        ("batch_size", "an integer"), ("epochs", "an integer"), ("patience", "an integer"),
        ("learning_rate", "a number"), ("momentum", "a number"), ("validation_fraction", "a number"),
    ])
    def test_a_bool_fails_every_count_and_number(self, name, kind):
        with pytest.raises(ValueError, match=f"^{name} must be {kind}, not True$"):
            MlpConfig(**{name: True})

    @pytest.mark.parametrize("name", ["batch_size", "epochs"])
    def test_a_count_below_one_fails(self, name):
        # no epoch at all would return the randomly initialised network
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, not 0$"):
            MlpConfig(**{name: 0})
