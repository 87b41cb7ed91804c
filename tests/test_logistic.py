import numpy as np
import pytest

from creditshap.models import logistic
from creditshap.models.logistic import (
    LogisticModel,
    fit_binned_logistic,
    fit_logistic,
    quantile_bin,
)
from creditshap.synthetic import planted_signal_dataset


def one_hot(binning, X):
    """The dense design the binned fit is defined on: per source column its
    bin indicators, then its missing indicator."""
    X = np.asarray(X, dtype=float)
    outs = []
    for j, e in enumerate(binning.edges):
        col = X[:, j]
        nb = len(e) + 1
        idx = np.where(np.isnan(col), nb, np.searchsorted(e, col, side="right"))
        onehot = np.zeros((len(col), nb + 1))
        onehot[np.arange(len(col)), idx] = 1.0
        outs.append(onehot)
    return np.hstack(outs)


def dense_binned_oracle(X, y, n_bins, sample_weight=None):
    """The binned fit the dense way: newton on [1 | one-hot matrix] under the
    bin penalty, every output column in the system."""
    T = one_hot(quantile_bin(X, n_bins), X)
    Z = np.hstack([np.ones((len(T), 1)), T])
    beta, converged, it = logistic.newton(logistic.DenseDesign(Z), y, logistic.BIN_RIDGE, sample_weight)
    return LogisticModel(float(beta[0]), beta[1:], [f"t{j}" for j in range(T.shape[1])], converged, it), T


def penalized_loglik(beta, Z, y, w, ridge):
    eta = Z @ beta
    ll = np.sum(w * (y * eta - np.log1p(np.exp(eta))))
    pen = np.zeros_like(beta)
    pen[1:] = ridge
    return ll - 0.5 * np.sum(pen * beta**2)


def grid_refine_maximizer(Z, y, w, ridge, start, span=0.5, rounds=40):
    """Independent oracle: coordinate-wise golden-section style refinement."""
    beta = np.asarray(start, dtype=float).copy()
    for _ in range(rounds):
        for j in range(len(beta)):
            lo, hi = beta[j] - span, beta[j] + span
            for _ in range(60):
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                b1, b2 = beta.copy(), beta.copy()
                b1[j], b2[j] = m1, m2
                if penalized_loglik(b1, Z, y, w, ridge) < penalized_loglik(b2, Z, y, w, ridge):
                    lo = m1
                else:
                    hi = m2
            beta[j] = (lo + hi) / 2
        span = max(span * 0.5, 1e-7)
    return beta


class TestFitLogistic:
    def _dataset(self, seed=0, n=200):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        eta = 0.4 - 1.2 * X[:, 0] + 0.7 * X[:, 1]
        p = 1 / (1 + np.exp(-eta))
        y = (rng.random(n) < p).astype(int)
        return X, y

    def test_matches_independent_maximizer(self):
        X, y = self._dataset()
        model = fit_logistic(X, y)
        assert model.converged
        Z = np.hstack([np.ones((len(y), 1)), X])
        beta_hat = np.r_[model.intercept, model.coef]
        oracle = grid_refine_maximizer(Z, y.astype(float), np.ones(len(y)), 1e-6, beta_hat + 0.3)
        assert np.max(np.abs(beta_hat - oracle)) < 1e-5

    @pytest.mark.parametrize("binned", [False, True])
    def test_fitted_point_is_stationary(self, binned):
        X, y = self._dataset(1)
        model = fit_binned_logistic(X, y, n_bins=6) if binned else fit_logistic(X, y)
        Z = np.hstack([np.ones((len(y), 1)), one_hot(model.binning, X) if binned else X])
        beta = np.r_[model.intercept, model.coef]
        mu = 1 / (1 + np.exp(-(Z @ beta)))
        ridge = np.r_[0.0, np.full(len(model.coef), logistic.BIN_RIDGE if binned else logistic.RIDGE)]
        grad = Z.T @ (y - mu) - ridge * beta
        assert model.converged
        assert np.max(np.abs(grad)) < 1e-7

    def test_label_flip_negates_coefficients(self):
        X, y = self._dataset(2)
        a = fit_logistic(X, y)
        b = fit_logistic(X, 1 - y)
        assert a.intercept == pytest.approx(-b.intercept, abs=1e-6)
        assert np.allclose(a.coef, -b.coef, atol=1e-6)

    def test_monotone_feature_gets_positive_weight(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        y = (x + rng.normal(scale=0.5, size=300) > 0).astype(int)
        model = fit_logistic(x[:, None], y)
        assert model.coef[0] > 0

    def test_intercept_only_recovers_log_odds(self):
        y = np.array([1] * 30 + [0] * 70)
        model = fit_logistic(np.zeros((100, 1)), y)
        assert model.intercept == pytest.approx(np.log(30 / 70), abs=1e-6)
        assert model.coef[0] == pytest.approx(0.0, abs=1e-6)

    def test_sample_weights_equal_row_duplication(self):
        X, y = self._dataset(4, n=60)
        w = np.ones(60)
        w[:10] = 3.0
        weighted = fit_logistic(X, y, sample_weight=w)
        X_dup = np.vstack([X, X[:10], X[:10]])
        y_dup = np.concatenate([y, y[:10], y[:10]])
        duplicated = fit_logistic(X_dup, y_dup)
        assert np.allclose(
            np.r_[weighted.intercept, weighted.coef],
            np.r_[duplicated.intercept, duplicated.coef],
            atol=1e-5,
        )

    def test_separable_data_flagged_not_converged(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_logistic(X, y)
        assert np.all(np.isfinite(model.coef))
        assert (model.predict_proba(X) > 0.5).astype(int).tolist() == y.tolist()

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic(np.array([[np.nan], [1.0]]), [0, 1])

    def test_predict_shape_guard(self):
        model = LogisticModel(0.0, np.zeros(2), ["a", "b"], True, 1)
        with pytest.raises(ValueError):
            model.margin(np.zeros((3, 5)))
        X, y = self._dataset(5, n=80)  # a binned model counts its source columns, not its bins
        binned = fit_binned_logistic(X, y, n_bins=4)
        for width in (5, 2):
            with pytest.raises(ValueError, match=f"^expected 3 columns, got {width}$"):
                binned.predict_proba(np.zeros((4, width)))


class TestBinning:
    def test_codes_pick_one_column_per_source(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        bm = quantile_bin(X, n_bins=4)
        codes = bm.codes(X)
        n_out0 = len(bm.edges[0]) + 2  # bins + missing slot
        assert codes.shape == (50, 2)
        assert np.all(codes[:, 0] < n_out0) and np.all(codes[:, 1] >= n_out0)
        T = one_hot(bm, X)
        assert np.all(T[np.arange(50)[:, None], codes] == 1.0)
        assert np.all(T.sum(axis=1) == 2.0)

    def test_out_of_range_clamps_to_edge_bins(self):
        X = np.linspace(0, 1, 20)[:, None]
        bm = quantile_bin(X, n_bins=4)
        codes = bm.codes(np.array([[-100.0], [100.0]]))
        assert codes[0, 0] == 0  # far left -> first bin
        assert codes[1, 0] == len(bm.edges[0])  # far right -> last bin

    def test_nan_gets_missing_slot(self):
        X = np.linspace(0, 1, 20)[:, None]
        bm = quantile_bin(X, n_bins=4)
        assert bm.codes(np.array([[np.nan]]))[0, 0] == len(bm.output_names) - 1

    def test_output_names_align_with_columns(self):
        X = np.linspace(0, 1, 30).reshape(15, 2)
        bm = quantile_bin(X, n_bins=3, feature_names=["a", "b"])
        names = bm.output_names
        assert len(names) == one_hot(bm, X).shape[1]
        assert names[-1] == "b_missing"
        assert bm.codes(np.array([[0.5, np.nan]]))[0, 1] == len(names) - 1

    @pytest.mark.parametrize("n_bins", [1.5, "x", True, 0, 1, -3])
    def test_n_bins_must_be_an_integer_of_at_least_2(self, n_bins):
        with pytest.raises(ValueError, match="^n_bins must be"):
            quantile_bin(np.zeros((10, 1)), n_bins)

    def test_binned_fit_handles_nan_and_nonlinearity(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, 400)
        y = (np.abs(x) > 1).astype(int)  # U-shape: plain logistic can't separate
        X = x[:, None].copy()
        X[::17] = np.nan
        model = fit_binned_logistic(X, y, n_bins=8)
        mask = ~np.isnan(X[:, 0])
        pred = (model.predict_proba(X[mask]) > 0.5).astype(int)
        assert np.mean(pred == y[mask]) > 0.9


class TestBinnedFitMatchesDenseOracle:
    """fit_binned_logistic on codes against fit_logistic on the one-hot matrix."""

    def _dataset(self, seed):
        X, y, _ = planted_signal_dataset(240, 8, 0.2, seed=seed)
        X[:, 7] = np.maximum(X[:, 7], 0.0)  # half the rows at the minimum: the first bin stays empty
        X[::9, 2] = np.nan  # a direct call may carry NaN: it activates the missing slot
        w = np.random.default_rng(seed).uniform(0.5, 2.0, len(y))
        return X, y, w

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("budget", [logistic.PAIR_BUDGET, 500])  # one block of pairs, or many
    def test_same_fit_as_the_dense_one_hot_newton(self, seed, budget, monkeypatch):
        monkeypatch.setattr(logistic, "PAIR_BUDGET", budget)
        X, y, w = self._dataset(seed)
        model = fit_binned_logistic(X, y, 10, sample_weight=w)
        oracle, T = dense_binned_oracle(X, y, 10, w)
        count, positive = T.sum(axis=0), T[y == 1].sum(axis=0)
        assert np.any(count == 0) and np.any((count > 0) & (positive == 0))  # an empty bin, a bin of negatives
        assert (model.n_iter, model.converged) == (oracle.n_iter, oracle.converged)
        assert model.converged
        assert abs(model.intercept - oracle.intercept) < 1e-9
        assert np.max(np.abs(model.coef - oracle.coef)) < 1e-9
        assert np.max(np.abs(model.predict_proba(X) - oracle.predict_proba(T))) < 1e-12
        assert model.feature_names == quantile_bin(X, 10).output_names

    @pytest.mark.parametrize("seed", [3, 4])
    def test_same_iterate_when_a_bin_separates(self, seed):
        # under the plain fit's tiny ridge these data separate: it runs to MAX_ITER
        # with coefficients of order 1e7; under BIN_RIDGE the optimum is finite
        X, y, w = self._dataset(seed)
        oracle, T = dense_binned_oracle(X, y, 10, w)
        unpenalised = fit_logistic(T, y, sample_weight=w)
        assert (unpenalised.n_iter, unpenalised.converged) == (logistic.MAX_ITER, False)
        assert np.max(np.abs(unpenalised.coef)) > 1e6
        model = fit_binned_logistic(X, y, 10, sample_weight=w)
        assert (model.n_iter, model.converged) == (oracle.n_iter, oracle.converged)
        assert model.converged and model.n_iter < 10
        assert np.max(np.abs(np.r_[model.intercept, model.coef])) < 2.0
        assert abs(model.intercept - oracle.intercept) < 1e-9
        assert np.max(np.abs(model.coef - oracle.coef)) < 1e-9
        assert np.max(np.abs(model.predict_proba(X) - oracle.predict_proba(T))) < 1e-12

    def test_unused_columns_keep_a_zero_coefficient(self):
        X, y, w = self._dataset(0)
        model = fit_binned_logistic(X, y, 10, sample_weight=w)
        unused = one_hot(model.binning, X).sum(axis=0) == 0
        names = np.array(model.feature_names)
        assert "x7_bin0" in names[unused] and "x0_missing" in names[unused] and "x2_missing" not in names[unused]
        assert np.all(model.coef[unused] == 0.0)
        assert np.all(model.coef[~unused] != 0.0)


class TestBinnedFitHasOneOptimum:
    """The bin penalty makes the binned objective strictly convex, so the fit
    is its one maximiser, whatever the order of the source columns."""

    def test_matches_independent_maximizer(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 2))
        y = (rng.random(80) < 1 / (1 + np.exp(-(X[:, 0] - X[:, 1] ** 2)))).astype(int)
        w = rng.uniform(0.5, 2.0, 80)
        model = fit_binned_logistic(X, y, 4, sample_weight=w)
        assert model.converged
        Z = np.hstack([np.ones((len(y), 1)), one_hot(model.binning, X)])
        beta_hat = np.r_[model.intercept, model.coef]
        # penalized_loglik leaves coefficient 0, the intercept, unpenalised
        oracle = grid_refine_maximizer(Z, y.astype(float), w, logistic.BIN_RIDGE, beta_hat + 0.3)
        assert np.max(np.abs(beta_hat - oracle)) < 1e-5

    # under the plain fit's tiny ridge, seed 9 separates and seed 26 converges with
    # coefficients that move by 8.6e-10 when the columns are permuted
    @pytest.mark.parametrize("seed", [9, 26])
    def test_permuted_columns_permute_the_coefficients(self, seed):
        X, y, names = planted_signal_dataset(240, 8, 0.2, seed=seed)
        X[::9, 2] = np.nan
        w = np.random.default_rng(seed).uniform(0.5, 2.0, len(y))
        perm = np.random.default_rng(seed + 1).permutation(X.shape[1])
        model = fit_binned_logistic(X, y, 10, names, w)
        permuted = fit_binned_logistic(X[:, perm], y, 10, [names[j] for j in perm], w)
        assert model.converged and permuted.converged
        assert abs(model.intercept - permuted.intercept) < 1e-10
        by_name = dict(zip(permuted.feature_names, permuted.coef))
        assert np.max(np.abs(model.coef - [by_name[n] for n in model.feature_names])) < 1e-10
