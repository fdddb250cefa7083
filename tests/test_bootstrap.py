import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiscalsvar.bootstrap as bootstrap_mod
from fiscalsvar.bootstrap import (
    BootstrapConfig,
    ModelSpec,
    bootstrap_inference,
    derive_seed,
    quantile_bands,
    resample_residuals,
    significance_flags,
    simulate_bootstrap_series,
    substream,
)
from fiscalsvar.dgp import reference_spec, simulate_var
from fiscalsvar.errors import (
    DecompositionError,
    DegenerateDenominatorError,
    DomainError,
    EstimationError,
    InferenceError,
    RankError,
    ShapeError,
)
from fiscalsvar.ingest import TransformedPanel
from fiscalsvar.series import Quarter
from fiscalsvar.var import VarEstimate, estimate_var


@pytest.fixture(scope="module")
def panel():
    return simulate_var(reference_spec(T=84, seed=21))


@pytest.fixture(scope="module")
def estimate(panel):
    return estimate_var(panel, p=4)


def _scalar_replication(r, estimate, panel, config):
    return bootstrap_mod._one_replication(
        r, estimate, panel.X[: estimate.p], panel.Z, ModelSpec(), config, panel
    )


def _force_scalar_path(monkeypatch, replications):
    """Flag ``replications`` in the stacked kernel, as if they had tripped
    a failure check, so that the single-fit routine re-runs them."""
    real = bootstrap_mod._replication_batch

    def batch(rs, *args):
        responses, paths, stable, flagged = real(rs, *args)
        return responses, paths, stable, flagged | np.isin(rs, sorted(replications))

    monkeypatch.setattr(bootstrap_mod, "_replication_batch", batch)


def _fail_on_scalar_path(monkeypatch, replications):
    """Send ``replications`` down the per-replication failure path and make
    the single-fit re-run raise a synthetic RankError there."""
    _force_scalar_path(monkeypatch, replications)
    real = bootstrap_mod._one_replication

    def flaky(r, *args):
        if r in replications:
            raise RankError("synthetic failure")
        return real(r, *args)

    monkeypatch.setattr(bootstrap_mod, "_one_replication", flaky)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_streams(self):
        seen = {derive_seed(0, r) for r in range(100)}
        assert len(seen) == 100

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_substream_is_the_seed_sequence_stream(self):
        # replication r of master seed s draws from SeedSequence([s, r])
        a = substream(7, np.int64(3)).integers(0, 1 << 30, size=8)
        b = np.random.default_rng(np.random.SeedSequence([7, 3])).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)


class TestResampleResiduals:
    def test_single_row_fixed_point(self):
        U = np.array([[1.5, -2.0]])
        out = resample_residuals(U, np.random.default_rng(0))
        assert np.array_equal(out, U)

    def test_same_seed_same_draw(self):
        U = np.random.default_rng(5).normal(size=(40, 3))
        a = resample_residuals(U, np.random.default_rng(123))
        b = resample_residuals(U, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_rows_kept_intact(self):
        U = np.column_stack([np.arange(30.0), 100.0 + np.arange(30.0)])
        out = resample_residuals(U, np.random.default_rng(9))
        # each output row must be one of the input rows, never a remix
        assert np.array_equal(out[:, 1] - out[:, 0], np.full(30, 100.0))

    def test_draw_frequencies_near_uniform(self):
        U = np.array([[0.0], [1.0]])
        rng = np.random.default_rng(7)
        draws = np.concatenate(
            [resample_residuals(np.repeat(U, 2500, 0), rng)[:, 0] for _ in range(1)]
        )
        share = draws.mean()
        assert 0.45 <= share <= 0.55

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            resample_residuals(np.empty((0, 2)), np.random.default_rng(0))


class TestSimulateBootstrapSeries:
    def test_identity_resample_reconstructs_panel(self, panel, estimate):
        rebuilt = simulate_bootstrap_series(
            estimate,
            estimate.residuals,
            panel.X[:4],
            panel.Z,
            start=panel.start,
            x_labels=panel.x_labels,
            z_labels=panel.z_labels,
        )
        assert np.max(np.abs(rebuilt.X - panel.X)) < 1e-10
        assert np.array_equal(rebuilt.Z, panel.Z)
        assert rebuilt.start == panel.start

    def test_zero_residuals_hold_fixed_point(self):
        # VAR(1) fixed point x* = (I - Gamma)^{-1} c stays exactly put
        gamma = np.array([[0.5, 0.0], [0.2, 0.3]])
        c = np.array([1.0, 2.0])
        fixed = np.linalg.solve(np.eye(2) - gamma, c)
        est = VarEstimate(
            p=1,
            k=2,
            intercept=c,
            gammas=gamma[np.newaxis],
            exog_coef=np.zeros((2, 0)),
            residuals=np.zeros((10, 2)),
            sigma=np.eye(2),
            sample_size=10,
        )
        out = simulate_bootstrap_series(
            est,
            np.zeros((10, 2)),
            fixed[np.newaxis],
            np.zeros((11, 0)),
            x_labels=("a", "b"),
        )
        assert out.X == pytest.approx(np.tile(fixed, (11, 1)), rel=1e-14)

    def test_shape_mismatch(self, panel, estimate):
        with pytest.raises(ShapeError):
            simulate_bootstrap_series(
                estimate, estimate.residuals, panel.X[:3], panel.Z
            )


class TestQuantileBands:
    def test_stated_interpolation_rule(self):
        samples = np.arange(1.0, 1001.0)[:, np.newaxis]
        band = quantile_bands(samples, (90,))[90]
        assert band[0, 0] == pytest.approx(50.95, rel=1e-12)
        assert band[1, 0] == pytest.approx(950.05, rel=1e-12)

    def test_degenerate_samples(self):
        samples = np.full((17, 3), 2.5)
        bands = quantile_bands(samples, (68, 90))
        for band in bands.values():
            assert np.array_equal(band, np.full((2, 3), 2.5))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            quantile_bands(np.empty((0, 4)), (68,))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_nesting(self, seed):
        samples = np.random.default_rng(seed).normal(size=(200, 6))
        bands = quantile_bands(samples, (68, 90))
        assert np.all(bands[90][0] <= bands[68][0])
        assert np.all(bands[68][1] <= bands[90][1])


class TestSignificanceFlags:
    def test_strong_band_excludes_zero(self):
        bands = {90: np.array([[0.2], [1.5]]), 68: np.array([[0.4], [1.2]])}
        assert significance_flags(bands, np.array([0.8])) == ("**",)

    def test_weak_only(self):
        bands = {90: np.array([[-0.1], [1.2]]), 68: np.array([[0.1], [0.9]])}
        assert significance_flags(bands, np.array([0.5])) == ("*",)

    def test_straddling_unstarred(self):
        bands = {90: np.array([[-0.5], [0.6]]), 68: np.array([[-0.2], [0.3]])}
        assert significance_flags(bands, np.array([0.034])) == ("",)

    def test_negative_side(self):
        bands = {90: np.array([[-1.5], [-0.2]]), 68: np.array([[-1.2], [-0.4]])}
        assert significance_flags(bands, np.array([-0.8])) == ("**",)

    def test_boundary_touching_zero_not_excluded(self):
        bands = {90: np.array([[0.0], [1.0]]), 68: np.array([[0.0], [0.8]])}
        assert significance_flags(bands, np.array([0.5])) == ("",)


class TestBootstrapInference:
    def test_chunk_size_invariance(self, panel, monkeypatch):
        cfg = BootstrapConfig(replications=64, seed=5)
        runs = []
        for chunk in (1, 7, 25, 64):
            monkeypatch.setattr(bootstrap_mod, "CHUNK", chunk)
            runs.append(bootstrap_inference(panel, cfg, ModelSpec()))
        a = runs[0]
        for b in runs[1:]:
            assert np.array_equal(a.replication_index, b.replication_index)
            assert np.array_equal(a.multipliers, b.multipliers)
            assert np.array_equal(a.irf_draws, b.irf_draws)
            for lv in cfg.levels:
                assert np.array_equal(a.multiplier_bands[lv], b.multiplier_bands[lv])
                assert np.array_equal(a.irf_bands[lv], b.irf_bands[lv])
            assert a.stars == b.stars
            assert a.unstable == b.unstable

    def test_result_carries_point_estimate(self, panel, estimate):
        res = bootstrap_inference(panel, BootstrapConfig(replications=5, seed=1))
        assert np.array_equal(res.estimate.gammas, estimate.gammas)
        assert np.array_equal(res.estimate.sigma, estimate.sigma)

    def test_band_monotonicity_and_bookkeeping(self, panel):
        res = bootstrap_inference(panel, BootstrapConfig(replications=80, seed=2))
        assert np.all(res.multiplier_bands[90][0] <= res.multiplier_bands[68][0])
        assert np.all(res.multiplier_bands[68][1] <= res.multiplier_bands[90][1])
        assert res.n_failed + res.multipliers.shape[0] == 80
        assert list(res.replication_index) == sorted(res.replication_index)

    def test_seed_changes_bands(self, panel):
        a = bootstrap_inference(panel, BootstrapConfig(replications=40, seed=1))
        b = bootstrap_inference(panel, BootstrapConfig(replications=40, seed=2))
        assert not np.array_equal(a.multipliers, b.multipliers)

    def test_deterministic_panel_rejected(self):
        # an all-deterministic recursion leaves a singular covariance; the
        # pipeline refuses rather than emitting collapsed bands
        T, k = 40, 2
        X = np.empty((T, k))
        X[0] = [1.0, 0.5]
        gamma = np.array([[0.7, 0.1], [0.0, 0.6]])
        for t in range(1, T):
            X[t] = gamma @ X[t - 1] + np.array([0.3, 0.1])
        panel = TransformedPanel(
            Quarter(2000, 1), X, np.zeros((T, 0)), ("G", "Y"), ()
        )
        with pytest.raises(
            (DecompositionError, DegenerateDenominatorError, RankError)
        ):
            bootstrap_inference(
                panel,
                BootstrapConfig(replications=10, seed=0, horizons=4),
                ModelSpec(lags=1, ordering=("G", "Y"), shock="G", response="Y"),
            )

    def test_failure_budget_enforced(self, panel, monkeypatch):
        _fail_on_scalar_path(monkeypatch, set(range(0, 100, 10)))
        with pytest.raises(InferenceError, match="failed"):
            bootstrap_inference(panel, BootstrapConfig(replications=100, seed=3))

    def test_few_failures_tolerated(self, panel, monkeypatch):
        _fail_on_scalar_path(monkeypatch, {3, 15})
        res = bootstrap_inference(panel, BootstrapConfig(replications=100, seed=3))
        assert res.n_failed == 2
        assert sorted(res.failed) == [3, 15]
        assert res.multipliers.shape[0] == 98
        assert all("RankError" in msg for msg in res.failed.values())

    def test_batched_draws_match_scalar_routine(self, panel, estimate, monkeypatch):
        cfg = BootstrapConfig(replications=60, seed=4)
        _force_scalar_path(monkeypatch, {24})
        res = bootstrap_inference(panel, cfg)
        assert list(res.replication_index) == list(range(60))
        unstable = 0
        for r in range(60):
            responses, path, stable = _scalar_replication(r, estimate, panel, cfg)
            assert np.array_equal(res.irf_draws[r], responses), r
            assert np.array_equal(res.multipliers[r], path), r
            unstable += not stable
        assert res.unstable == unstable

    def test_fallback_failure_reported_as_by_scalar_path(self, panel, estimate, monkeypatch):
        cfg = BootstrapConfig(replications=40, seed=6)
        _force_scalar_path(monkeypatch, {7})
        # only re-run draws resample through this function; repeating one
        # residual row makes the rebuilt panel deterministic, which the
        # scalar pipeline rejects with one of its typed errors
        monkeypatch.setattr(
            bootstrap_mod,
            "resample_residuals",
            lambda U, rng: np.repeat(U[:1], U.shape[0], axis=0),
        )
        with pytest.raises((EstimationError, FloatingPointError)) as scalar:
            _scalar_replication(7, estimate, panel, cfg)
        res = bootstrap_inference(panel, cfg)
        assert res.failed == {7: f"{type(scalar.value).__name__}: {scalar.value}"}
        assert 7 not in res.replication_index
        assert res.multipliers.shape[0] == 39

    def test_config_validation(self):
        with pytest.raises(DomainError):
            BootstrapConfig(replications=0)
        with pytest.raises(DomainError):
            BootstrapConfig(levels=(0, 90))
        with pytest.raises(DomainError):
            BootstrapConfig(seed=-1)
        with pytest.raises(DomainError):
            ModelSpec(shock="X")
