from dataclasses import replace

import numpy as np
import pytest

import fiscalsvar.bootstrap as bootstrap_mod
import fiscalsvar.dgp as dgp_mod
from fiscalsvar.bootstrap import BootstrapConfig, substream
from fiscalsvar.dgp import (
    DgpSpec,
    RecoveryConfig,
    analytic_irf,
    analytic_multipliers,
    monte_carlo_recovery,
    reference_spec,
    simulate_var,
)
from fiscalsvar.errors import (
    DomainError,
    InferenceError,
    ShapeError,
    UnstableDgpError,
)
from fiscalsvar.svar import identify_cholesky, irf, multiplier_path
from fiscalsvar.var import estimate_var


def small_spec(**overrides):
    base = dict(
        intercept=np.zeros(2),
        gammas=np.array([[[0.5, 0.0], [0.2, 0.3]]]),
        B=np.array([[1.0, 0.0], [0.5, 2.0]]),
        exog_coef=None,
        T=50,
        seed=1,
        labels=("G", "Y"),
    )
    base.update(overrides)
    return DgpSpec(**base)


def exog_spec(seed=0):
    loadings = 0.001 * np.array([[0.5, 0.0], [0.2, 1.0], [1.0, -0.5], [0.0, 30.0]])
    return replace(reference_spec(seed=seed), exog_coef=loadings)


def per_trial_estimates(spec, n_trials, horizons=20):
    """The reference for the stacked trials: each trial simulated on its
    own stream and fitted by the public single-fit functions."""
    paths = []
    for t in range(n_trials):
        panel = simulate_var(spec, substream(spec.seed, t, 0))
        irfs = irf(identify_cholesky(estimate_var(panel, 4), spec.labels), "G", horizons)
        paths.append(multiplier_path(irfs, "Y", "G", horizons).values)
    return np.stack(paths)


def fail_trials(monkeypatch, failing):
    """Make the stacked classification fail ``failing`` trials at the rank
    check, as if their designs had lost rank."""
    real = dgp_mod._trial_batch

    def batch(ts, *args):
        fit = real(ts, *args)
        for i in np.flatnonzero(np.isin(ts, sorted(failing))):
            fit.failures[int(i)] = ("rank", 0, 0.0)
        return fit

    monkeypatch.setattr(dgp_mod, "_trial_batch", batch)


class TestDgpSpec:
    def test_rejects_explosive(self):
        with pytest.raises(UnstableDgpError):
            small_spec(gammas=np.array([[[1.05, 0.0], [0.0, 0.2]]]))

    def test_rejects_upper_triangle(self):
        with pytest.raises(ShapeError):
            small_spec(B=np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_rejects_nonpositive_diagonal(self):
        # a singular impact matrix would make identification meaningless
        with pytest.raises(DomainError):
            small_spec(B=np.array([[0.0, 0.0], [0.5, 1.0]]))

    def test_dict_roundtrip(self):
        spec = reference_spec(T=84, seed=9)
        clone = DgpSpec.from_dict(spec.to_dict())
        assert np.array_equal(clone.gammas, spec.gammas)
        assert np.array_equal(clone.B, spec.B)
        assert (clone.T, clone.seed, clone.labels) == (spec.T, spec.seed, spec.labels)

    @pytest.mark.parametrize("sizes", [{"T": 10**13}, {"burn_in": 10**13}, {"T": 39_801}])
    def test_oversized_chain_rejected(self, sizes):
        with pytest.raises(DomainError, match="T \\+ burn_in"):
            replace(reference_spec(), **sizes)

    def test_unknown_field_rejected(self):
        payload = reference_spec().to_dict()
        payload["rho"] = 0.5
        with pytest.raises(DomainError, match="rho"):
            DgpSpec.from_dict(payload)


class TestSimulateVar:
    def test_same_seed_identical(self):
        a = simulate_var(small_spec())
        b = simulate_var(small_spec())
        assert np.array_equal(a.X, b.X)

    def test_different_seed_differs(self):
        a = simulate_var(small_spec(seed=1))
        b = simulate_var(small_spec(seed=2))
        assert not np.array_equal(a.X, b.X)

    def test_row_count_after_burn_in(self):
        panel = simulate_var(small_spec(T=37, burn_in=100))
        assert panel.rows == 37

    def test_iid_covariance_lln(self):
        # Gamma = 0 and B = 0.01 I leave pure noise with cov 1e-4 I
        spec = DgpSpec(
            intercept=np.zeros(3),
            gammas=np.zeros((1, 3, 3)),
            B=0.01 * np.eye(3),
            exog_coef=None,
            T=5000,
            seed=4,
            labels=("a", "b", "c"),
        )
        panel = simulate_var(spec)
        cov = np.cov(panel.X.T, bias=True)
        assert cov == pytest.approx(1e-4 * np.eye(3), abs=5e-6)

    def test_exogenous_columns_present(self):
        spec = small_spec(exog_coef=np.array([[0.3], [0.0]]))
        panel = simulate_var(spec)
        assert panel.Z.shape == (50, 1)


class TestAnalyticIrf:
    def test_closed_form_geometric(self):
        spec = small_spec(gammas=np.array([[[0.5, 0.0], [0.0, 0.5]]]))
        out = analytic_irf(spec, 20, "G")
        for h in range(21):
            assert out.responses[h] == pytest.approx(0.5**h * spec.B[:, 0], rel=1e-13)

    def test_impact_is_b_column(self):
        spec = small_spec()
        out = analytic_irf(spec, 5, "Y")
        assert np.array_equal(out.responses[0], spec.B[:, 1])

    def test_zero_gamma_vanishes(self):
        spec = small_spec(gammas=np.zeros((1, 2, 2)))
        out = analytic_irf(spec, 6, "G")
        assert np.all(out.responses[1:] == 0.0)

    def test_multiplier_path_matches_direct_ratio(self):
        spec = reference_spec()
        irfs = analytic_irf(spec, 20, "G")
        m = analytic_multipliers(spec, 20)
        cum_y = np.cumsum(irfs.series("Y"))
        cum_g = np.cumsum(irfs.series("G"))
        assert m.values == pytest.approx(cum_y[:20] / cum_g[:20], rel=1e-15)


class TestRecovery:
    def test_report_deterministic(self):
        spec = reference_spec(T=84, seed=13)
        a = monte_carlo_recovery(spec, 3)
        b = monte_carlo_recovery(spec, 3)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.median_bias, b.median_bias)

    def test_error_shrinks_with_sample_size(self):
        errs = []
        for T in (200, 1000, 5000):
            spec = reference_spec(T=T, seed=6)
            rep = monte_carlo_recovery(spec, 30)
            errs.append(rep.median_abs_error[19])
        assert errs[0] > errs[1] > errs[2]

    def test_b_recovered_at_large_t(self):
        spec = reference_spec(T=5000, seed=8)
        panel = simulate_var(spec)
        est = estimate_var(panel, p=4)
        model = identify_cholesky(est, spec.labels)
        scale = np.max(np.abs(spec.B))
        assert np.max(np.abs(model.B - spec.B)) < 0.05 * scale

    def test_coverage_fields_populated(self):
        spec = reference_spec(T=84, seed=3)
        cfg = RecoveryConfig(bootstrap=BootstrapConfig(replications=60, seed=0))
        rep = monte_carlo_recovery(spec, 4, cfg)
        assert set(rep.coverage) == {68, 90}
        for cov in rep.coverage.values():
            assert cov.shape == (20,)
            assert np.all((0.0 <= cov) & (cov <= 1.0))

    def test_trial_count_validated(self):
        with pytest.raises(DomainError):
            monte_carlo_recovery(reference_spec(), 0)


class TestStackedTrials:
    """Point-estimate trials run in stacked chunks yet equal the
    single-trial path bit for bit; the stack alone decides which fail."""

    @pytest.mark.parametrize("spec", [reference_spec(seed=11), exog_spec(seed=4)],
                             ids=["reference", "exogenous"])
    def test_estimates_equal_per_trial_path(self, spec, monkeypatch):
        want = per_trial_estimates(spec, 53)
        for chunk in (1, 7, 25, 64):
            monkeypatch.setattr(bootstrap_mod, "CHUNK", chunk)
            rep = monte_carlo_recovery(spec, 53)
            assert rep.failures == 0
            assert np.array_equal(rep.estimates, want), chunk

    def test_failed_trials_counted_in_order(self, monkeypatch):
        spec = reference_spec(seed=5)
        want = per_trial_estimates(spec, 30)
        monkeypatch.setattr(bootstrap_mod, "CHUNK", 7)
        fail_trials(monkeypatch, {3, 29})
        rep = monte_carlo_recovery(spec, 30)
        assert rep.failures == 2
        assert np.array_equal(rep.estimates, np.delete(want, [3, 29], axis=0))

    def test_every_trial_failing_raises(self, monkeypatch):
        monkeypatch.setattr(bootstrap_mod, "CHUNK", 2)
        fail_trials(monkeypatch, range(5))
        with pytest.raises(InferenceError, match="all 5 trials failed"):
            monte_carlo_recovery(reference_spec(seed=1), 5)

    def test_sample_too_short_for_lags(self):
        # 10 rows leave 6 for 17 regressors: the stack fails every trial
        # at its sample-size check
        with pytest.raises(InferenceError, match="all 3 trials failed"):
            monte_carlo_recovery(reference_spec(T=10), 3)
