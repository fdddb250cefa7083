import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiscalsvar.dgp import DgpSpec, reference_spec, simulate_var
from fiscalsvar.errors import DofError, RankError, SampleSizeError, ShapeError
from fiscalsvar.ingest import TransformedPanel
from fiscalsvar.series import Quarter
from fiscalsvar.var import (
    companion_matrix,
    design_blocks,
    estimate_var,
    lagged_design,
    least_squares,
    rank_deficient,
    residual_cov,
    split_coefficients,
    stability,
    var_recursion,
)


def panel_from(X, Z=None, labels=None):
    X = np.asarray(X, dtype=float)
    if Z is None:
        Z = np.zeros((X.shape[0], 0))
    labels = labels or tuple(f"x{j}" for j in range(X.shape[1]))
    z_labels = tuple(f"z{j}" for j in range(np.asarray(Z).shape[1]))
    return TransformedPanel(Quarter(2000, 1), X, Z, labels, z_labels)


class TestCompanionMatrix:
    def test_two_lag_layout(self):
        g1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        g2 = np.array([[5.0, 6.0], [7.0, 8.0]])
        F = companion_matrix(np.stack([g1, g2]))
        expected = np.array(
            [
                [1.0, 2.0, 5.0, 6.0],
                [3.0, 4.0, 7.0, 8.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
            ]
        )
        assert np.array_equal(F, expected)

    def test_single_lag_is_gamma(self):
        g = np.array([[[0.5, 0.1], [0.0, 0.3]]])
        assert np.array_equal(companion_matrix(g), g[0])

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_block_structure(self, p, k, seed):
        gammas = np.random.default_rng(seed).normal(size=(p, k, k))
        F = companion_matrix(gammas)
        assert F.shape == (k * p, k * p)
        for lag in range(p):
            assert np.array_equal(F[:k, lag * k : (lag + 1) * k], gammas[lag])
        if p > 1:
            assert np.array_equal(F[k:, :-k], np.eye(k * (p - 1)))
            assert np.all(F[k:, -k:] == 0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            companion_matrix(np.zeros((2, 3)))


class TestLaggedDesign:
    def test_columns_ordered_lag1_first(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        Z = np.array([[9.0], [10.0], [11.0], [12.0]])
        Y, W = lagged_design(panel_from(X, Z), p=2)
        assert np.array_equal(Y, X[2:])
        expected_W = np.array(
            [
                [1.0, 3.0, 4.0, 1.0, 2.0, 11.0],
                [1.0, 5.0, 6.0, 3.0, 4.0, 12.0],
            ]
        )
        assert np.array_equal(W, expected_W)

    def test_too_short_sample(self):
        X = np.ones((3, 2)) + np.arange(6).reshape(3, 2)
        with pytest.raises(SampleSizeError):
            lagged_design(panel_from(X), p=3)


class TestEstimateVar:
    def test_matches_pinv_solution(self):
        # independent oracle: SVD pseudo-inverse instead of QR
        panel = simulate_var(reference_spec(T=120, seed=5))
        est = estimate_var(panel, p=2)
        Y, W = lagged_design(panel, 2)
        coef = np.linalg.pinv(W) @ Y
        k = panel.X.shape[1]
        assert est.intercept == pytest.approx(coef[0], rel=1e-9, abs=1e-12)
        assert est.gammas[0] == pytest.approx(coef[1 : 1 + k].T, rel=1e-9, abs=1e-12)
        assert est.gammas[1] == pytest.approx(coef[1 + k : 1 + 2 * k].T, rel=1e-9, abs=1e-12)
        assert est.residuals == pytest.approx(Y - W @ coef, abs=1e-10)

    def test_exogenous_coefficients_recovered(self):
        rng = np.random.default_rng(7)
        T, k = 300, 2
        Z = rng.normal(size=(T, 1))
        D = np.array([[2.0], [-1.0]])
        X = np.empty((T, k))
        X[0] = 0.0
        gamma = np.array([[0.4, 0.0], [0.1, 0.2]])
        eps = 0.05 * rng.normal(size=(T, k))
        for t in range(1, T):
            X[t] = gamma @ X[t - 1] + D @ Z[t] + eps[t]
        est = estimate_var(panel_from(X, Z), p=1)
        assert est.exog_coef == pytest.approx(D, abs=0.05)
        assert est.gammas[0] == pytest.approx(gamma, abs=0.1)

    def test_sample_size_guard(self):
        # 8 rows, p=4 leaves 4 effective rows for 17+ regressors
        panel = simulate_var(reference_spec(T=8, seed=0))
        with pytest.raises(SampleSizeError):
            estimate_var(panel, p=4)

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(60, 1))
        X = np.hstack([base, 2.0 * base])  # collinear pair
        with pytest.raises(RankError):
            estimate_var(panel_from(X), p=1)

    def test_residuals_orthogonal_to_design(self):
        panel = simulate_var(reference_spec(T=150, seed=11))
        est = estimate_var(panel, p=4)
        _, W = lagged_design(panel, 4)
        assert np.max(np.abs(W.T @ est.residuals)) < 1e-8

    def test_sigma_positive_semidefinite_symmetric(self):
        panel = simulate_var(reference_spec(T=100, seed=2))
        est = estimate_var(panel, p=4)
        assert np.array_equal(est.sigma, est.sigma.T)
        assert np.min(np.linalg.eigvalsh(est.sigma)) > -1e-18


class TestStackedFit:
    """A stack of fits gives each member exactly the numbers of its own
    single fit."""

    def panels(self):
        return [simulate_var(reference_spec(T=84, seed=s)) for s in range(3)]

    def test_stacked_fit_matches_single_fits(self):
        panels = self.panels()
        X = np.stack([pn.X for pn in panels])
        Y, W = design_blocks(X, panels[0].Z, 4)
        coef, residuals, rdiag = least_squares(W, Y)
        assert not rank_deficient(rdiag).any()
        sigma = residual_cov(residuals, W.shape[-1])
        _, gammas, _ = split_coefficients(coef, 4, 4)
        for i, pn in enumerate(panels):
            est = estimate_var(pn, p=4)
            assert np.array_equal(residuals[i], est.residuals)
            assert np.array_equal(sigma[i], est.sigma)
            assert np.array_equal(gammas[i], est.gammas)

    def test_per_panel_exogenous_columns(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(3, 30, 2))
        Z = rng.normal(size=(3, 30, 2))
        Y, W = design_blocks(X, Z, 2)
        for i in range(3):
            Y_i, W_i = design_blocks(X[i], Z[i], 2)
            assert np.array_equal(Y[i], Y_i)
            assert np.array_equal(W[i], W_i)
        assert np.array_equal(W[:, :, -2:], Z[:, 2:])

    def test_rank_deficient_member_leaves_stack_usable(self):
        panels = self.panels()
        X = np.stack([pn.X for pn in panels])
        X[1, :, 1] = 2.0 * X[1, :, 0]  # collinear pair in one member
        Y, W = design_blocks(X, panels[0].Z, 4)
        coef, residuals, rdiag = least_squares(W, Y)
        assert rank_deficient(rdiag).tolist() == [False, True, False]
        assert np.isfinite(coef).all()
        for i in (0, 2):
            assert np.array_equal(residuals[i], estimate_var(panels[i], p=4).residuals)

    def test_recursion_stack_matches_single_runs(self):
        rng = np.random.default_rng(8)
        gammas = reference_spec().gammas
        base = 0.01 * rng.normal(size=(4, 30, 4))
        presample = rng.normal(size=(4, 1, 4))
        X = var_recursion(gammas, base, presample)
        assert np.array_equal(X[:, :1], presample)
        for b, pre, x in zip(base, presample, X):
            assert np.array_equal(var_recursion(gammas, b, pre), x)
        # one step by hand
        step = base[:, 0] + presample[:, 0] @ gammas[0].T
        assert X[:, 1] == pytest.approx(step, rel=1e-14, abs=1e-16)


class TestResidualCov:
    def test_exact_small_case(self):
        U = np.array([[2.0, 0.0], [0.0, 1.0], [-2.0, -1.0]])
        sigma = residual_cov(U, n_regressors=1)
        assert np.array_equal(sigma, np.array([[4.0, 1.0], [1.0, 1.0]]))

    def test_dof_guard(self):
        with pytest.raises(DofError):
            residual_cov(np.ones((3, 2)), n_regressors=3)


class TestStability:
    def test_stable_half_identity(self):
        panel = simulate_var(reference_spec(T=60, seed=4))
        est = estimate_var(panel, p=1)
        top, stable = stability(est)
        assert 0.0 < top < 1.0 and stable

    def test_explosive_flagged_not_rejected(self):
        rng = np.random.default_rng(0)
        T = 80
        X = np.empty((T, 1))
        X[0] = 0.1
        for t in range(1, T):
            X[t] = 1.05 * X[t - 1] + 0.01 * rng.normal()
        est = estimate_var(panel_from(X), p=1)
        top, stable = stability(est)
        assert top > 1.0 and not stable
