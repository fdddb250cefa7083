import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fiscalsvar.bootstrap as bootstrap_mod
from conftest import fail_draws
from fiscalsvar.bootstrap import (
    BootstrapConfig,
    ModelSpec,
    bootstrap_inference,
    derive_seed,
    fit_draws,
    point_fit,
    quantile_bands,
    resample_residuals,
    significance_flags,
    simulate_bootstrap_series,
    stacked_fit,
    substream,
)
from fiscalsvar.dgp import reference_spec, simulate_var
from fiscalsvar.errors import (
    ConfigError,
    DecompositionError,
    DegenerateDenominatorError,
    EstimationError,
    InferenceError,
    NonFiniteError,
    RankError,
    ShapeError,
    fit_error,
)
from fiscalsvar.ingest import TransformedPanel
from fiscalsvar.series import Quarter
from fiscalsvar.svar import identify_cholesky, irf, multiplier_path
from fiscalsvar.var import (
    VarEstimate,
    companion_matrix,
    estimate_var,
    spectral_radius,
    stability,
    var_recursion,
)


@pytest.fixture(scope="module")
def panel():
    return simulate_var(reference_spec(T=84, seed=21))


@pytest.fixture(scope="module")
def estimate(panel):
    return estimate_var(panel, p=4)


def single_fit(panel, model):
    """One panel through the public single-fit functions: its estimate,
    responses and multiplier path."""
    est = estimate_var(panel, model.lags)
    irfs = irf(identify_cholesky(est, model.ordering), "G", model.horizons)
    return est, irfs.responses, multiplier_path(irfs, "Y", "G", model.horizons)


def reference_draw(r, estimate, panel, config, model=ModelSpec()):
    """Replication r alone through the public single-fit functions: its
    responses, multiplier path and whether the refit is stable."""
    u_star = resample_residuals(estimate.residuals, substream(config.seed, r))
    panel_star = simulate_bootstrap_series(
        estimate, u_star, panel.X[: estimate.p], panel.Z, x_labels=panel.x_labels
    )
    est, responses, path = single_fit(panel_star, model)
    return responses, path.values, stability(est)[1]


def explosive_panel():
    """84 quarters from a system whose G equation has a root of 1.02: the
    point estimate's companion modulus is about 1.01, and its draws fall
    on both sides of one."""
    spec = reference_spec()
    gammas = np.array(spec.gammas)
    gammas[0, 0, 0] = 1.02
    rng = np.random.default_rng(1)
    X = var_recursion(gammas, rng.normal(size=(84, 4)) @ spec.B.T, np.zeros((1, 4)))[1:]
    return TransformedPanel(Quarter(2000, 1), X, np.zeros((84, 0)), spec.labels, ())


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
        assert significance_flags(bands) == ("**",)

    def test_weak_only(self):
        bands = {90: np.array([[-0.1], [1.2]]), 68: np.array([[0.1], [0.9]])}
        assert significance_flags(bands) == ("*",)

    def test_straddling_unstarred(self):
        bands = {90: np.array([[-0.5], [0.6]]), 68: np.array([[-0.2], [0.3]])}
        assert significance_flags(bands) == ("",)

    def test_negative_side(self):
        bands = {90: np.array([[-1.5], [-0.2]]), 68: np.array([[-1.2], [-0.4]])}
        assert significance_flags(bands) == ("**",)

    def test_boundary_touching_zero_not_excluded(self):
        bands = {90: np.array([[0.0], [1.0]]), 68: np.array([[0.0], [0.8]])}
        assert significance_flags(bands) == ("",)

    def test_single_level_is_the_narrow_tier(self):
        bands = {68: np.array([[0.1, -0.1], [0.5, 0.2]])}
        assert significance_flags(bands) == ("*", "")

    @given(st.integers(0, 10_000), st.integers(1, 3))
    @settings(max_examples=50)
    def test_matches_quarter_by_quarter_rule(self, seed, n_levels):
        # bounds on a grid that holds zero, so touching bands occur
        rng = np.random.default_rng(seed)
        bands = {lv: np.sort(rng.integers(-2, 3, size=(2, 12)) / 2.0, axis=0)
                 for lv in (50, 68, 90)[:n_levels]}
        weak, strong = bands[min(bands)], bands[max(bands)] if n_levels > 1 else None

        def excludes_zero(band, h):
            return band[0, h] > 0.0 or band[1, h] < 0.0

        want = tuple("**" if strong is not None and excludes_zero(strong, h)
                     else "*" if excludes_zero(weak, h) else "" for h in range(12))
        assert significance_flags(bands) == want


class TestFitDraws:
    """The one chunked simulate-and-fit loop behind replications and
    trials."""

    @pytest.mark.parametrize(
        "n, chunk",
        [(1, bootstrap_mod.CHUNK), (bootstrap_mod.CHUNK, bootstrap_mod.CHUNK),
         (bootstrap_mod.CHUNK + 1, bootstrap_mod.CHUNK), (53, 7)],
    )
    def test_each_draw_once_in_order(self, panel, monkeypatch, n, chunk):
        monkeypatch.setattr(bootstrap_mod, "CHUNK", chunk)
        # draws on both sides of the first two chunk edges, and the last
        bad = {0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, n - 1} & set(range(n))
        seen = []

        def simulate(indices):
            seen.append(indices.tolist())
            X = np.repeat(panel.X[None], len(indices), axis=0)
            X[np.isin(indices, sorted(bad)), 0, 0] = np.nan
            return X, panel.Z

        _, _, point = point_fit(panel, ModelSpec())
        failed = {}
        for indices, X, Z, fit, chunk_failed in fit_draws(n, simulate, ModelSpec()):
            assert X.shape[0] == fit.paths.shape[0] == len(indices) <= chunk
            assert list(chunk_failed) == sorted(bad & set(indices.tolist()))
            for i, t in enumerate(indices.tolist()):
                if t not in chunk_failed:
                    assert np.array_equal(fit.paths[i], point.values), t
            failed.update(chunk_failed)
        assert [t for indices in seen for t in indices] == list(range(n))
        assert all(len(indices) == chunk for indices in seen[:-1])
        assert list(failed) == sorted(bad)
        assert set(failed.values()) == {
            "NonFiniteError: simulated panel holds non-finite values"
        }


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
                BootstrapConfig(replications=10, seed=0),
                ModelSpec(lags=1, ordering=("G", "Y"), horizons=4),
            )

    def test_failure_budget_enforced(self, panel, monkeypatch):
        fail_draws(monkeypatch, bootstrap_mod, set(range(0, 100, 10)))
        with pytest.raises(InferenceError, match="failed"):
            bootstrap_inference(panel, BootstrapConfig(replications=100, seed=3))

    def test_few_failures_tolerated(self, panel, monkeypatch):
        fail_draws(monkeypatch, bootstrap_mod, {3, 15})
        res = bootstrap_inference(panel, BootstrapConfig(replications=100, seed=3))
        assert res.n_failed == 2
        assert sorted(res.failed) == [3, 15]
        assert res.multipliers.shape[0] == 98
        assert all("RankError" in msg for msg in res.failed.values())

    def test_batched_draws_match_scalar_routine(self, panel, estimate):
        cfg = BootstrapConfig(replications=60, seed=4)
        res = bootstrap_inference(panel, cfg)
        assert list(res.replication_index) == list(range(60))
        unstable = 0
        for r in range(60):
            responses, path, stable = reference_draw(r, estimate, panel, cfg)
            assert np.array_equal(res.irf_draws[r], responses), r
            assert np.array_equal(res.multipliers[r], path), r
            unstable += not stable
        assert res.unstable == unstable

    def test_unstable_count_with_explosive_draws(self, monkeypatch):
        panel = explosive_panel()
        cfg = BootstrapConfig(replications=64, seed=1)
        estimate = estimate_var(panel, 4)
        assert not stability(estimate)[1]
        want = sum(not reference_draw(r, estimate, panel, cfg)[2] for r in range(64))
        assert 0 < want < 64
        for chunk in (1, 7, 25, 64):
            monkeypatch.setattr(bootstrap_mod, "CHUNK", chunk)
            res = bootstrap_inference(panel, cfg)
            assert res.n_failed == 0
            assert res.unstable == want, chunk

    def test_config_validation(self):
        for build, message in [
            (lambda: BootstrapConfig(replications=0), "replications must be between 1 and 100000"),
            (lambda: BootstrapConfig(replications=10**13), "replications must be between"),
            (lambda: BootstrapConfig(seed=-1), "seed must be non-negative"),
            (lambda: BootstrapConfig(levels=(0, 90)), "band levels"),
            (lambda: BootstrapConfig(levels=()), "band levels must be non-empty"),
            (lambda: BootstrapConfig(levels=(90, 90)), "distinct"),
            (lambda: ModelSpec(horizons=0), "horizons must be >= 1"),
            (lambda: ModelSpec(lags=0), "lags must be >= 1"),
            (lambda: ModelSpec(ordering=("T", "Y", "i")), "must hold the shock 'G'"),
            (lambda: ModelSpec(ordering=("G", "T", "i")), "the response 'Y'"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(message)):
                build()


KINDS = ("stable", "near_unit", "overflow", "collinear", "predictable_g", "collinear_residuals")


def make_panel(kind, seed, exponent, T, k, p):
    """A (T, k) panel of one kind, columns ordered as ORDERINGS[k]:

    - stable: a random VAR(p) with companion modulus 0.2 to 0.9;
    - near_unit: modulus 0.95 to 1.05;
    - overflow: modulus 1e100, so the recursion overflows within 4 steps;
    - collinear: column 1 is twice column 0 plus noise of scale
      10**-exponent, which puts the design on either side of the rank
      tolerance;
    - predictable_g: G is half of last quarter's Y plus noise of scale
      10**-exponent, so G's own shock and cumulative response are near
      zero (and, with two lags, G's first lag nearly collinear);
    - collinear_residuals: Y is twice G plus its own lag and noise of scale
      10**-exponent, so the residual covariance is nearly singular.
    """
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p, k, k))
    modulus = {"near_unit": 0.95 + 0.1 * rng.random(), "overflow": 1e100}.get(
        kind, 0.2 + 0.7 * rng.random()
    )
    # scaling lag l by c**l scales every companion eigenvalue by c
    c = modulus / spectral_radius(companion_matrix(A))
    gammas = A * c ** np.arange(1, p + 1)[:, None, None]
    X = var_recursion(gammas, rng.normal(size=(T, k)), rng.normal(size=(p, k)))[p:]
    noise = 10.0 ** -exponent * rng.normal(size=T)
    y = k - 1
    if kind == "collinear":
        X[:, 1] = 2.0 * X[:, 0] + noise
    elif kind == "predictable_g":
        X[1:, 0] = 0.5 * X[:-1, y] + noise[1:]
    elif kind == "collinear_residuals":
        X[1:, y] = 2.0 * X[1:, 0] + 0.3 * X[:-1, y] + noise[1:]
    return X


ORDERINGS = {2: ("G", "Y"), 3: ("G", "T", "Y")}

rows_strategy = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32 - 1), st.floats(6.0, 17.0)),
    min_size=1,
    max_size=5,
)


def wrapper_chain(row, T, k, model):
    """One panel built and fitted by the single-fit functions under
    errstate(over="raise", invalid="raise"): its estimate, responses and
    path, or the error that stops it, a FloatingPointError standing for
    the non-finite failure."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            X = make_panel(*row, T, k, model.lags)
            panel = TransformedPanel(Quarter(2000, 1), X, np.zeros((T, 0)), model.ordering, ())
            return single_fit(panel, model)
    except FloatingPointError:
        return NonFiniteError
    except EstimationError as exc:
        return exc


class TestStackedFit:
    """The stacked fit decides every failure itself: per row it gives the
    single-fit functions' numbers, or their first failing check and
    error."""

    def test_read_only_stack_of_one_left_unchanged(self, panel):
        X = panel.X[None]
        assert not X.flags.writeable
        fit = stacked_fit(X, panel.Z, ModelSpec())
        assert fit.failures == {}
        est, responses, path = single_fit(panel, ModelSpec())
        assert np.array_equal(fit.responses[0], responses)
        assert np.array_equal(fit.paths[0], path.values)
        assert np.array_equal(fit.sigma[0], est.sigma)

    def test_non_finite_member_zeroed_in_a_copy(self, panel):
        X = np.stack([panel.X, panel.X, panel.X])
        X[1, 40, 2] = np.inf
        before = X.copy()
        fit = stacked_fit(X, panel.Z, ModelSpec())
        assert np.array_equal(X, before)
        assert fit.failures == {1: ("non-finite panel", 0, 0.0)}
        assert np.array_equal(fit.paths[0], fit.paths[2])
        assert np.isfinite(spectral_radius(fit.companion)).all()

    def test_point_fit_equals_single_fit(self, panel):
        est, irfs, path = point_fit(panel, ModelSpec())
        want, responses, want_path = single_fit(panel, ModelSpec())
        for name in ("intercept", "gammas", "exog_coef", "residuals", "sigma"):
            assert np.array_equal(getattr(est, name), getattr(want, name)), name
        assert est.sample_size == want.sample_size
        assert np.array_equal(irfs.responses, responses)
        assert np.array_equal(path.values, want_path.values)
        assert stability(est) == stability(want)

    def test_failed_member_reports_wrapper_error(self, panel, estimate):
        # repeating one residual row makes the rebuilt panel deterministic,
        # which the single-fit functions reject with one of their errors
        rebuilt = simulate_bootstrap_series(
            estimate,
            np.repeat(estimate.residuals[:1], estimate.residuals.shape[0], axis=0),
            panel.X[:4],
            panel.Z,
        )
        with pytest.raises(EstimationError) as single:
            single_fit(rebuilt, ModelSpec())
        fit = stacked_fit(np.stack([panel.X, rebuilt.X]), panel.Z, ModelSpec())
        assert list(fit.failures) == [1]
        exc = fit_error(*fit.failures[1])
        assert type(exc) is type(single.value)
        assert str(exc) == str(single.value)
        with pytest.raises(type(single.value), match="^" + re.escape(str(exc)) + "$"):
            point_fit(rebuilt, ModelSpec())

    @given(
        rows=rows_strategy,
        T=st.integers(1, 60),
        k=st.sampled_from([2, 3]),
        p=st.integers(1, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_wrapper_chain(self, rows, T, k, p):
        model = ModelSpec(lags=p, ordering=ORDERINGS[k], horizons=8)
        short = T - p <= 1 + k * p
        # the stack checks the sample size before it looks at a panel; the
        # chain simulates first, so a short overflowing panel is left out
        assume(not (short and any(kind == "overflow" for kind, *_ in rows)))
        with np.errstate(all="ignore"):
            X = np.stack([make_panel(*row, T, k, p) for row in rows])
        fit = stacked_fit(X, np.zeros((T, 0)), model)
        for i, row in enumerate(rows):
            want = wrapper_chain(row, T, k, model)
            if want is NonFiniteError:
                assert fit.failures[i][0].startswith("non-finite"), (row, fit.failures.get(i))
            elif isinstance(want, EstimationError):
                assert i in fit.failures, (row, want)
                got = fit_error(*fit.failures[i], "G")
                assert type(got) is type(want)
                assert str(got) == str(want)
                assert getattr(got, "pivot", None) == getattr(want, "pivot", None)
                assert getattr(got, "horizon", None) == getattr(want, "horizon", None)
            else:
                est, responses, path = want
                assert i not in fit.failures, (row, fit.failures[i])
                assert np.array_equal(fit.responses[i], responses)
                assert np.array_equal(fit.paths[i], path.values)
                assert spectral_radius(fit.companion[i]) == stability(est)[0]
