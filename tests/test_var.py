import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiscalsvar.var as var_mod
from fiscalsvar.bootstrap import BootstrapConfig, bootstrap_inference
from fiscalsvar.cli import load_panels, load_run_config
from fiscalsvar.dgp import (
    DgpSpec,
    RecoveryConfig,
    monte_carlo_recovery,
    reference_spec,
    simulate_var,
)
from fiscalsvar.errors import RankError, SampleSizeError, ShapeError
from fiscalsvar.ingest import TransformedPanel
from fiscalsvar.series import Quarter
from fiscalsvar.var import (
    below_unit_radius,
    companion_matrix,
    design_blocks,
    estimate_var,
    least_squares,
    rank_deficient,
    simulate,
    spectral_radius,
    split_coefficients,
    stability,
    var_recursion,
)

SNAPSHOT_CONFIG = Path(__file__).resolve().parent.parent / "data" / "v4_config.json"


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
        A = design_blocks(X, Z, p=2)
        expected_A = np.array(
            [
                [1.0, 3.0, 4.0, 1.0, 2.0, 11.0, 5.0, 6.0],
                [1.0, 5.0, 6.0, 3.0, 4.0, 12.0, 7.0, 8.0],
            ]
        )
        assert np.array_equal(A, expected_A)
        assert np.array_equal(A[:, -2:], X[2:])

    def test_too_short_sample(self):
        X = np.ones((3, 2)) + np.arange(6).reshape(3, 2)
        with pytest.raises(SampleSizeError, match="^need more than 3 rows to form lags, have 3$"):
            estimate_var(panel_from(X), p=3)

    def test_lag_order_below_one(self):
        X = np.ones((3, 2)) + np.arange(6).reshape(3, 2)
        with pytest.raises(ShapeError, match="^lag order must be >= 1$"):
            estimate_var(panel_from(X), p=0)


class TestEstimateVar:
    def test_matches_pinv_solution(self):
        # independent oracle: SVD pseudo-inverse instead of QR
        panel = simulate_var(reference_spec(T=120, seed=5))
        est = estimate_var(panel, p=2)
        k = panel.X.shape[1]
        A = design_blocks(panel.X, panel.Z, 2)
        W, Y = A[:, :-k], A[:, -k:]
        coef = np.linalg.pinv(W) @ Y
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

    def test_sample_size_counts_the_responses(self):
        # 17 regressors and 4 responses: 21 usable rows fit, 20 leave a
        # residual covariance of rank 3 at most and are refused
        est = estimate_var(simulate_var(reference_spec(T=25, seed=0)), p=4)
        assert est.sample_size == 21
        with pytest.raises(SampleSizeError, match=(
            "^20 usable rows for 17 regressors; need T - p >= n_regressors [+] k$"
        )):
            estimate_var(simulate_var(reference_spec(T=24, seed=0)), p=4)

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(60, 1))
        X = np.hstack([base, 2.0 * base])  # collinear pair
        with pytest.raises(RankError):
            estimate_var(panel_from(X), p=1)

    def test_residuals_orthogonal_to_design(self):
        panel = simulate_var(reference_spec(T=150, seed=11))
        est = estimate_var(panel, p=4)
        W = design_blocks(panel.X, panel.Z, 4)[:, :-4]
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
        coef, sigma, rdiag = least_squares(design_blocks(X, panels[0].Z, 4), 4)
        assert not rank_deficient(rdiag).any()
        intercept, gammas, exog_coef = split_coefficients(coef, 4, 4)
        for i, pn in enumerate(panels):
            est = estimate_var(pn, p=4)
            assert np.array_equal(sigma[i], est.sigma)
            assert np.array_equal(intercept[i], est.intercept)
            assert np.array_equal(gammas[i], est.gammas)
            assert np.array_equal(exog_coef[i], est.exog_coef)

    def test_per_panel_exogenous_columns(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(3, 30, 2))
        Z = rng.normal(size=(3, 30, 2))
        A = design_blocks(X, Z, 2)
        for i in range(3):
            assert np.array_equal(A[i], design_blocks(X[i], Z[i], 2))
        assert np.array_equal(A[:, :, -4:-2], Z[:, 2:])

    def test_rank_deficient_member_leaves_stack_usable(self):
        panels = self.panels()
        X = np.stack([pn.X for pn in panels])
        X[1, :, 1] = 2.0 * X[1, :, 0]  # collinear pair in one member
        coef, sigma, rdiag = least_squares(design_blocks(X, panels[0].Z, 4), 4)
        assert rank_deficient(rdiag).tolist() == [False, True, False]
        assert np.isfinite(coef).all()
        for i in (0, 2):
            assert np.array_equal(sigma[i], estimate_var(panels[i], p=4).sigma)

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
        # one regressor, an indicator of row 1, so the fit takes row 1 of
        # Y and leaves the other rows as residuals; every Householder
        # reflection of this design is exact in binary
        A = np.array([
            [0.0, 0.0, 0.0],
            [1.0, 3.0, 5.0],
            [0.0, 2.0, 1.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0],
        ])
        coef, sigma, rdiag = least_squares(A, k=2)
        assert np.array_equal(coef, np.array([[3.0, 5.0]]))
        # U'U / (5 - 1) with U = Y less row 1
        assert np.array_equal(sigma, np.array([[1.0, 0.5], [0.5, 1.25]]))
        assert np.array_equal(rdiag, np.array([1.0]))


class TestFactorization:
    """Every fit reads its numbers off one R-only QR of the augmented
    design."""

    def test_no_fit_forms_q(self, monkeypatch):
        modes = []
        real = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr",
                            lambda a, mode="reduced": modes.append(mode) or real(a, mode=mode))
        panel = load_panels(load_run_config(SNAPSHOT_CONFIG))["cz"]
        bootstrap_inference(panel, BootstrapConfig(replications=30))
        monte_carlo_recovery(reference_spec(seed=1), 3,
                             RecoveryConfig(bootstrap=BootstrapConfig(replications=20)))
        assert modes and set(modes) == {"r"}

    @pytest.mark.parametrize("source", ["cz", "hu", "pl", "sk", "reference"])
    def test_matches_lstsq(self, source):
        # independent oracle: LAPACK's SVD-based least squares and the
        # covariance of its residuals
        if source == "reference":
            panel = simulate_var(reference_spec())
        else:
            panel = load_panels(load_run_config(SNAPSHOT_CONFIG))[source]
        est = estimate_var(panel, p=4)
        k = panel.X.shape[1]
        A = design_blocks(panel.X, panel.Z, 4)
        W, Y = A[:, :-k], A[:, -k:]
        coef = np.linalg.lstsq(W, Y, rcond=None)[0]
        U = Y - W @ coef
        got = np.concatenate([est.intercept[None], *(g.T for g in est.gammas), est.exog_coef.T])
        assert np.abs(got - coef).max() <= 1e-12 * np.abs(coef).max()
        sigma = U.T @ U / (W.shape[0] - W.shape[1])
        assert np.abs(est.sigma - sigma).max() <= 1e-12 * np.abs(sigma).max()


class TestSimulate:
    @pytest.mark.parametrize("call", [
        # one presample row would broadcast to the p = 4 the law needs
        lambda est, X, Z: simulate(est, est.residuals, Z[4:], X[:1]),
        # one shock column would broadcast to the law's k = 4
        lambda est, X, Z: simulate(est, est.residuals[:, :1], Z[4:], X[:4]),
        # a law with m = 0 would silently drop Z's three columns
        lambda est, X, Z: simulate(
            reference_spec(), np.zeros((10, 4)), np.zeros((10, 3)), np.zeros((1, 4))
        ),
    ], ids=["presample", "shocks", "exog"])
    def test_mismatched_shapes_refused(self, call):
        panel = load_panels(load_run_config(SNAPSHOT_CONFIG))["cz"]
        est = estimate_var(panel, p=4)
        X, Z = panel.X, panel.Z
        assert simulate(est, est.residuals, Z[4:], X[:4]).shape == X.shape
        with pytest.raises(ShapeError):
            call(est, X, Z)


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


# companion moduli by kind: near_unit within 5e-3 of one, overflow so
# large that F^256 overflows
MODULI = {
    "stable": (0.05, 0.99),
    "near_unit": (0.995, 1.005),
    "explosive": (1.01, 3.0),
    "overflow": (1e2, 1e60),
}


def random_companion(kind, seed, p, k):
    """A random (kp, kp) companion whose spectral radius is drawn from
    the kind's range."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p, k, k))
    lo, hi = MODULI[kind]
    modulus = np.exp(rng.uniform(np.log(lo), np.log(hi)))
    # scaling lag l by c**l scales every companion eigenvalue by c
    c = modulus / spectral_radius(companion_matrix(A))
    return companion_matrix(A * c ** np.arange(1, p + 1)[:, None, None])


class TestBelowUnitRadius:
    """The squaring proof of stability against eigenvalues."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.sampled_from(sorted(MODULI)), st.integers(0, 2**32 - 1)),
                      min_size=1, max_size=8),
        p=st.integers(1, 4),
        k=st.integers(1, 4),
    )
    def test_equals_eigenvalue_check(self, rows, p, k):
        F = np.stack([random_companion(kind, seed, p, k) for kind, seed in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning escapes
            got = below_unit_radius(F)
        assert np.array_equal(got, spectral_radius(F) < 1.0)

    def test_both_paths_and_an_empty_stack(self, monkeypatch):
        F = np.stack([random_companion(kind, seed, 4, 4)
                      for kind in ("stable", "overflow", "explosive") for seed in range(20)])
        rows = []
        real = var_mod.spectral_radius
        monkeypatch.setattr(var_mod, "spectral_radius", lambda F: rows.append(len(F)) or real(F))
        assert np.array_equal(below_unit_radius(F), real(F) < 1.0)
        # every unstable companion and at most a few stable ones need eigenvalues
        assert 40 <= sum(rows) < 45
        assert below_unit_radius(np.zeros((0, 4, 4))).shape == (0,)
