import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiscalsvar.bootstrap as bootstrap_mod
import fiscalsvar.dgp as dgp_mod
from conftest import SIZES, fail_draws, pin_workers
from fiscalsvar.bootstrap import (
    BootstrapConfig,
    ModelSpec,
    bootstrap_inference,
    derive_seed,
    stream_generators,
)
from fiscalsvar.dgp import (
    DgpSpec,
    RecoveryConfig,
    analytic_irf,
    analytic_multipliers,
    monte_carlo_recovery,
    reference_spec,
    simulate_var,
)
from fiscalsvar.errors import ConfigError, InferenceError, UnstableDgpError
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


def degenerate_spec():
    """G_t = -G_{t-1} - 0.5 G_{t-2} plus its shock, Y its own shock: the
    roots have modulus 0.707, so the system is stable, yet the cumulative
    G response is exactly zero at quarter 2, where no multiplier exists."""
    gammas = np.zeros((2, 2, 2))
    gammas[0, 0, 0], gammas[1, 0, 0] = -1.0, -0.5
    return DgpSpec(intercept=np.zeros(2), gammas=gammas, B=np.eye(2), exog_coef=None, T=84,
                   labels=("G", "Y"))


def exog_spec(seed=0):
    loadings = 0.001 * np.array([[0.5, 0.0], [0.2, 1.0], [1.0, -0.5], [0.0, 30.0]])
    return replace(reference_spec(seed=seed), exog_coef=loadings)


def trial_stream(seed, t):
    """Trial t's generator, spelled with numpy alone."""
    return np.random.default_rng(np.random.SeedSequence([seed, t, 0]))


def per_trial_estimates(spec, n_trials, horizons=20):
    """The reference for the stacked trials: each trial simulated on its
    own stream and fitted by the public single-fit functions."""
    paths = []
    for t in range(n_trials):
        panel = simulate_var(spec, trial_stream(spec.seed, t))
        irfs = irf(identify_cholesky(estimate_var(panel, 4), spec.labels), "G", horizons)
        paths.append(multiplier_path(irfs, "Y", "G", horizons).values)
    return np.stack(paths)


def per_trial_coverage(spec, n_trials, config):
    """The reference for stacked coverage trials: each trial simulated on
    its own stream and bootstrapped from the public one-panel form.
    Returns the estimate rows and the per-level coverage."""
    truth = analytic_multipliers(spec, config.horizons).values
    rows, hits = [], {}
    for t in range(n_trials):
        panel = simulate_var(spec, trial_stream(spec.seed, t))
        boot = replace(config.bootstrap, seed=derive_seed(spec.seed, t, 1))
        result = bootstrap_inference(panel, boot)
        rows.append(result.point_multipliers.values)
        for level, band in result.multiplier_bands.items():
            hits.setdefault(level, []).append((band[0] <= truth) & (truth <= band[1]))
    coverage = {level: np.mean(np.stack(h), axis=0) for level, h in hits.items()}
    return np.stack(rows), coverage


class TestDgpSpec:
    def test_rejects_explosive(self):
        with pytest.raises(UnstableDgpError):
            small_spec(gammas=np.array([[[1.05, 0.0], [0.0, 0.2]]]))

    def test_rejects_upper_triangle(self):
        with pytest.raises(ConfigError, match="^B must be lower triangular$"):
            small_spec(B=np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_rejects_nonpositive_diagonal(self):
        # a singular impact matrix would make identification meaningless
        with pytest.raises(ConfigError, match="^B must have a strictly positive diagonal$"):
            small_spec(B=np.array([[0.0, 0.0], [0.5, 1.0]]))

    def test_dict_roundtrip(self):
        spec = reference_spec(T=84, seed=9)
        clone = DgpSpec.from_dict(spec.to_dict())
        assert np.array_equal(clone.gammas, spec.gammas)
        assert np.array_equal(clone.B, spec.B)
        assert (clone.T, clone.seed, clone.labels) == (spec.T, spec.seed, spec.labels)

    @pytest.mark.parametrize("sizes", [{"T": 10**13}, {"burn_in": 10**13}, {"T": 39_801}])
    def test_oversized_chain_rejected(self, sizes):
        with pytest.raises(ConfigError, match="^T \\+ burn_in must not exceed 40000 quarters$"):
            replace(reference_spec(), **sizes)

    @pytest.mark.parametrize(
        "field, message",
        [({"T": 84.5}, "T, burn_in and seed must be integers"),
         ({"labels": "GTYi"}, "labels must be a list")],
    )
    def test_field_types_checked_by_the_spec(self, field, message):
        # built in Python, not read from JSON
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            replace(reference_spec(), **field)

    def test_unknown_field_rejected(self):
        payload = reference_spec().to_dict()
        payload["rho"] = 0.5
        with pytest.raises(ConfigError, match="^unknown DGP fields: rho$"):
            DgpSpec.from_dict(payload)

    @pytest.mark.parametrize("labels", [("G", "G"), ("G", ""), ("G", 5), ("G", None)])
    def test_labels_are_distinct_strings(self, labels):
        message = f"labels {list(labels)} must be distinct, non-empty strings"
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            small_spec(labels=labels)

    @given(st.lists(st.one_of(st.sampled_from(["G", "Y", "T", "i", ""]), st.integers(0, 2)),
                    min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_accepted_labels_name_one_g_and_one_y_column(self, labels):
        # what a montecarlo run accepts: the spec, then its trials' model
        k = len(labels)
        try:
            spec = DgpSpec(np.zeros(k), 0.5 * np.eye(k)[None], np.eye(k), None, T=84,
                           labels=labels)
            ModelSpec(ordering=spec.labels)
        except ConfigError:
            return
        assert all(isinstance(name, str) for name in spec.labels)
        assert spec.labels.count("G") == 1 and spec.labels.count("Y") == 1


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
        cum_y = np.cumsum(irfs.responses[:, spec.labels.index("Y")])
        cum_g = np.cumsum(irfs.responses[:, spec.labels.index("G")])
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
        for n_trials in (0, 100_001):
            with pytest.raises(ConfigError, match="n_trials must be between 1 and 100000"):
                monte_carlo_recovery(reference_spec(), n_trials)

    def test_horizons_validated(self):
        spec = reference_spec()
        with pytest.raises(ConfigError, match="^horizons must be >= 1$"):
            monte_carlo_recovery(spec, 3, RecoveryConfig(horizons=0))
        for horizons in (spec.T, 10**13):
            message = rf"horizons \({horizons}\) must be below the DGP's T \(84\)"
            with pytest.raises(ConfigError, match=message):
                monte_carlo_recovery(spec, 3, RecoveryConfig(horizons=horizons))

    def test_bootstrap_runs_at_the_recovery_horizons(self):
        # each trial bootstraps on its own model, so the bands cover the
        # recovery horizons and nothing else sets them
        config = RecoveryConfig(horizons=8, bootstrap=BootstrapConfig(replications=50))
        rep = monte_carlo_recovery(reference_spec(seed=3), 2, config)
        assert rep.analytic.shape == rep.median_bias.shape == (8,)
        assert set(rep.coverage) == {68, 90}
        assert all(cov.shape == (8,) for cov in rep.coverage.values())

    def test_degenerate_true_path_is_config_error(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a trial was simulated")

        monkeypatch.setattr(dgp_mod, "fit_draws", never)
        message = ("the DGP has no true multiplier path: "
                   "cumulative G response is 0.000e+00 at quarter 2")
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            monte_carlo_recovery(degenerate_spec(), 3, RecoveryConfig(horizons=4))

    def test_labels_without_g_or_y_are_config_error(self):
        spec = small_spec(labels=("G", "X"))
        message = "ordering ['G', 'X'] must hold the shock 'G' and the response 'Y'"
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            monte_carlo_recovery(spec, 3, RecoveryConfig(horizons=4))


class TestStackedTrials:
    """Trials run in blocks and fit stacks yet equal the single-trial path bit
    for bit; the stack alone decides which fail."""

    @pytest.mark.parametrize("spec", [reference_spec(seed=11), exog_spec(seed=4)],
                             ids=["reference", "exogenous"])
    def test_estimates_equal_per_trial_path(self, spec, monkeypatch):
        want = per_trial_estimates(spec, 53)
        for chunk, budget in SIZES:
            monkeypatch.setattr(bootstrap_mod, "CHUNK", chunk)
            monkeypatch.setattr(bootstrap_mod, "ROWS", budget)
            rep = monte_carlo_recovery(spec, 53)
            assert rep.failures == 0
            assert np.array_equal(rep.estimates, want), (chunk, budget)

    def test_failed_trials_counted_in_order(self, monkeypatch):
        spec = reference_spec(seed=5)
        want = per_trial_estimates(spec, 30)
        monkeypatch.setattr(bootstrap_mod, "CHUNK", 7)
        fail_draws(monkeypatch, dgp_mod, {3, 29})
        rep = monte_carlo_recovery(spec, 30)
        assert rep.failures == 2
        assert np.array_equal(rep.estimates, np.delete(want, [3, 29], axis=0))

    def test_every_trial_failing_raises(self, monkeypatch):
        monkeypatch.setattr(bootstrap_mod, "CHUNK", 2)
        fail_draws(monkeypatch, dgp_mod, range(5))
        with pytest.raises(InferenceError, match="all 5 trials failed"):
            monte_carlo_recovery(reference_spec(seed=1), 5)

    def test_all_failed_error_names_first_failure(self, monkeypatch):
        # the stack fails trials 1 and 2 before trial 0 fails in its
        # bootstrap; the message quotes trial 0, the first by index
        def failing(panel, boot, model):
            raise InferenceError("2 of 20 replications failed")

        monkeypatch.setattr(dgp_mod, "bootstrap_inference", failing)
        fail_draws(monkeypatch, dgp_mod, {1, 2})
        config = RecoveryConfig(bootstrap=BootstrapConfig(replications=20))
        message = "all 3 trials failed; first: InferenceError: 2 of 20 replications failed$"
        with pytest.raises(InferenceError, match=message):
            monte_carlo_recovery(reference_spec(seed=3), 3, config)

    def test_sample_too_short_for_lags(self):
        # 10 rows leave 6 for 17 regressors: the stack fails every trial
        # at its sample-size check
        message = "all 3 trials failed; first: SampleSizeError: 6 usable rows for 17 regressors"
        with pytest.raises(InferenceError, match=message):
            monte_carlo_recovery(reference_spec(T=10), 3, RecoveryConfig(horizons=5))

    def test_coverage_trials_equal_per_trial_path(self, monkeypatch):
        spec = reference_spec(seed=2)
        config = RecoveryConfig(bootstrap=BootstrapConfig(replications=30))
        want, want_coverage = per_trial_coverage(spec, 9, config)
        for chunk, budget in SIZES:
            monkeypatch.setattr(bootstrap_mod, "CHUNK", chunk)
            monkeypatch.setattr(bootstrap_mod, "ROWS", budget)
            rep = monte_carlo_recovery(spec, 9, config)
            assert rep.failures == 0
            assert np.array_equal(rep.estimates, want), (chunk, budget)
            assert rep.coverage.keys() == want_coverage.keys()
            for level, cov in want_coverage.items():
                assert np.array_equal(rep.coverage[level], cov), (chunk, budget, level)

    def test_stack_failed_trials_not_bootstrapped(self, monkeypatch):
        # at one worker every bootstrap runs in this process, where seeds
        # records it
        pin_workers(monkeypatch, 1)
        spec = reference_spec(seed=5)
        config = RecoveryConfig(bootstrap=BootstrapConfig(replications=20))
        want, _ = per_trial_coverage(spec, 8, config)
        seeds = []

        def recording(panel, boot, model):
            seeds.append(boot.seed)
            return bootstrap_inference(panel, boot, model)

        monkeypatch.setattr(bootstrap_mod, "CHUNK", 3)
        monkeypatch.setattr(dgp_mod, "bootstrap_inference", recording)
        fail_draws(monkeypatch, dgp_mod, {1, 6})
        rep = monte_carlo_recovery(spec, 8, config)
        assert rep.failures == 2
        assert seeds == [derive_seed(spec.seed, t, 1) for t in (0, 2, 3, 4, 5, 7)]
        assert np.array_equal(rep.estimates, np.delete(want, [1, 6], axis=0))

    def test_stack_failed_trials_counted_across_workers(self, monkeypatch):
        # trials 0-2, 3-5 and 6-7, one range per process: the failures in
        # the first and last range are counted and their rows dropped
        pin_workers(monkeypatch, 3)
        spec = reference_spec(seed=5)
        config = RecoveryConfig(bootstrap=BootstrapConfig(replications=20))
        want, _ = per_trial_coverage(spec, 8, config)
        monkeypatch.setattr(bootstrap_mod, "CHUNK", 3)
        fail_draws(monkeypatch, dgp_mod, {1, 6})
        rep = monte_carlo_recovery(spec, 8, config)
        assert rep.failures == 2
        assert np.array_equal(rep.estimates, np.delete(want, [1, 6], axis=0))

    def test_a_trial_result_dies_before_the_next_bootstrap(self, monkeypatch):
        # only a coverage trial's bands outlive its bootstrap, so each
        # process holds one trial's draws at a time; at one worker every
        # trial runs in this process, where refs sees it
        pin_workers(monkeypatch, 1)
        refs = []

        def tracked(panel, boot, model):
            assert all(ref() is None for ref in refs), "an earlier trial's result is alive"
            result = bootstrap_inference(panel, boot, model)
            refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(dgp_mod, "bootstrap_inference", tracked)
        config = RecoveryConfig(bootstrap=BootstrapConfig(replications=20))
        assert monte_carlo_recovery(reference_spec(seed=5), 3, config).failures == 0
        assert len(refs) == 3


@pytest.mark.parametrize("spec", [reference_spec(seed=4), exog_spec(seed=4)], ids=["m0", "m2"])
def test_trial_generators_equal_per_trial_streams(spec):
    # one generator reseeded per trial draws what a fresh default_rng on
    # SeedSequence([seed, t, 0]) draws, shocks then exogenous columns
    ts = np.arange(3, 12)
    X, Z = dgp_mod._simulate_panels(spec, len(ts), stream_generators(spec.seed, ts, (0,)))
    for i, t in enumerate(ts.tolist()):
        panel = simulate_var(spec, trial_stream(spec.seed, t))
        assert np.array_equal(X[i], panel.X) and np.array_equal(Z[i], panel.Z)
    assert Z.shape[2] == spec.exog_coef.shape[1]


@pytest.mark.parametrize("T, stack", [(3000, 2), (8000, 1)])
def test_large_t_stacks_stay_within_the_row_budget(monkeypatch, T, stack):
    # 27 trials of T + 200 rows: blocks of CHUNK draws (the budget alone
    # would give 2 or 0), fitted in stacks of ROWS // T panels, or one
    # at one worker every block is drawn in this process, where blocks
    # records it
    pin_workers(monkeypatch, 1)
    spec = reference_spec(T=T, seed=2)
    blocks, stacks = [], []
    simulate_panels, stacked_fit = dgp_mod._simulate_panels, bootstrap_mod.stacked_fit

    def recording_simulate(spec, n, rngs):
        blocks.append(n)
        return simulate_panels(spec, n, rngs)

    def recording_fit(X, Z, model):
        stacks.append(X.shape)
        return stacked_fit(X, Z, model)

    monkeypatch.setattr(dgp_mod, "_simulate_panels", recording_simulate)
    monkeypatch.setattr(bootstrap_mod, "stacked_fit", recording_fit)
    rep = monte_carlo_recovery(spec, 27, RecoveryConfig(horizons=4))
    assert rep.failures == 0
    assert blocks == [25, 2]
    remaining = 27
    for size in blocks:
        assert size >= min(bootstrap_mod.CHUNK, remaining)
        remaining -= size
    for C, rows, _ in stacks:
        assert rows == T and (C == 1 or C * (T - spec.p) <= bootstrap_mod.ROWS)
    sizes = [C for C, _, _ in stacks]
    assert sizes == [stack] * (25 // stack) + [1] * (25 % stack) + [stack] * (2 // stack)
