import pickle
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fiscalsvar.bootstrap as bootstrap_mod
import fiscalsvar.var as var_mod
from conftest import SIZES, fail_draws
from fiscalsvar.bootstrap import (
    BootstrapConfig,
    ModelSpec,
    bootstrap_inference,
    MAX_REPLICATIONS,
    derive_seed,
    fit_draws,
    point_fit,
    quantile_bands,
    significance_flags,
    simulate_bootstrap_series,
    stacked_fit,
    stream_generators,
    stream_integers,
)
from fiscalsvar.cli import country_seed, load_panels, load_run_config
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
from fiscalsvar.ingest import X_LABELS, TransformedPanel
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


SNAPSHOT_CONFIG = Path(__file__).resolve().parent.parent / "data" / "v4_config.json"


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


def numpy_stream(*parts):
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def reference_draw(r, estimate, panel, config, model=ModelSpec()):
    """Replication r alone through the public single-fit functions: its
    responses, multiplier path and whether the refit is stable. The
    stream contract: replication r resamples whole residual rows, with
    row indices from ``SeedSequence([seed, r])``, spelled with numpy
    alone."""
    U = estimate.residuals
    u_star = U[numpy_stream(config.seed, r).integers(0, len(U), size=len(U))]
    panel_star = simulate_bootstrap_series(
        estimate, u_star, panel.X[: estimate.p], panel.Z, x_labels=panel.x_labels
    )
    est, responses, path = single_fit(panel_star, model)
    return responses, path.values, stability(est)[1]


def described(failed):
    """A failure record, {index: error}, as {index: (type, message)}."""
    return {i: (type(exc), str(exc)) for i, exc in failed.items()}


def count_eigvals_rows(monkeypatch):
    """Record, per call, how many companions reach ``spectral_radius``."""
    rows = []
    real = var_mod.spectral_radius

    def counting(F):
        rows.append(len(F))
        return real(F)

    monkeypatch.setattr(var_mod, "spectral_radius", counting)
    return rows


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



# master seeds of 1, 2, 4 and 7 uint32 words; a derive_seed output is a
# coverage trial's bootstrap seed, so [seed, r] is 5 words, more than the
# hash's pool of 4
STREAM_SEEDS = [0, 2**32, derive_seed(0, 5, 1), derive_seed(3, 17, 1), 2**200]
SEED_IDS = ["zero", "2^32", "derived-a", "derived-b", "2^200"]
# a Monte Carlo trial's suffix, a multi-word one and none
STREAM_SUFFIXES = [(0,), (1, 2**40), ()]


class TestStreams:
    """The stream layer against the installed numpy, piece by piece, so
    that a numpy whose streams change fails here."""

    def test_seeds_span_the_word_counts(self):
        words = [max(1, -(-seed.bit_length() // 32)) for seed in STREAM_SEEDS]
        assert words == [1, 2, 4, 4, 7]

    def test_indices_fit_one_word(self):
        # each replication or trial index is one uint32 word of its entropy
        assert MAX_REPLICATIONS < 2**32

    @pytest.mark.parametrize("suffix", STREAM_SUFFIXES)
    @pytest.mark.parametrize("seed", STREAM_SEEDS, ids=SEED_IDS)
    def test_words_are_numpys_entropy(self, seed, suffix):
        # stream_generators hands SeedSequence the words of [seed, r, *suffix]
        tail = [w for part in suffix for w in bootstrap_mod._words(part)]
        for r in [0, 1, 2**31, MAX_REPLICATIONS - 1]:
            words = np.array([*bootstrap_mod._words(seed), r, *tail], dtype=np.uint32)
            want = np.random.SeedSequence([seed, r, *suffix]).pool
            assert np.array_equal(np.random.SeedSequence(words).pool, want)

    @pytest.mark.parametrize("suffix", STREAM_SUFFIXES)
    @pytest.mark.parametrize("seed", STREAM_SEEDS, ids=SEED_IDS)
    def test_bit_generators_equal_numpy(self, seed, suffix):
        rs = np.arange(200)
        for r, rng in zip(rs.tolist(), stream_generators(seed, rs, suffix)):
            got = rng.bit_generator
            want = np.random.PCG64(np.random.SeedSequence([seed, r, *suffix]))
            assert got.state == want.state
            assert np.array_equal(got.random_raw(3), want.random_raw(3))

    @pytest.mark.parametrize("bound", [80, 83])
    @pytest.mark.parametrize("seed", STREAM_SEEDS, ids=SEED_IDS)
    def test_integers_equal_numpy_at_the_bootstrap_bounds(self, seed, bound):
        # the snapshot's residual counts; odd and even sizes end a stream
        # on either half of its last 64-bit output
        rs = np.arange(0, 3000, 3)
        got = stream_integers(seed, rs, bound, bound)
        assert got.dtype == np.int64
        want = [numpy_stream(seed, r).integers(0, bound, size=bound) for r in rs.tolist()]
        assert np.array_equal(got, np.stack(want))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**130), start=st.integers(0, MAX_REPLICATIONS - 40),
           bound=st.integers(2, 40001), size=st.integers(1, 300))
    def test_integers_equal_numpy(self, seed, start, bound, size):
        rs = np.arange(start, start + 40)
        want = [numpy_stream(seed, r).integers(0, bound, size=size) for r in rs.tolist()]
        assert np.array_equal(stream_integers(seed, rs, bound, size), np.stack(want))

    def test_rejected_streams_are_redrawn(self):
        # at this bound numpy's bounded sampler rejects a quarter of all
        # values and redraws them, so every stream runs past size outputs
        bound, rs = 3 * 2**30 + 1, np.arange(50)
        want = [numpy_stream(7, r).integers(0, bound, size=64) for r in rs.tolist()]
        assert np.array_equal(stream_integers(7, rs, bound, 64), np.stack(want))

    @pytest.mark.parametrize("suffix", STREAM_SUFFIXES)
    def test_generators_equal_per_index_streams(self, suffix):
        ts = np.arange(5, 30)
        for seed in STREAM_SEEDS:
            for t, rng in zip(ts.tolist(), stream_generators(seed, ts, suffix)):
                want = numpy_stream(seed, t, *suffix)
                assert np.array_equal(rng.standard_normal((7, 3)), want.standard_normal((7, 3)))
                assert np.array_equal(rng.integers(0, 83, size=5), want.integers(0, 83, size=5))


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

    @pytest.mark.parametrize("shape", [(1000, 21, 4), (1000, 20), (7, 3)])
    def test_equals_one_quantile_call_per_level(self, shape):
        samples = np.random.default_rng(len(shape)).normal(size=shape)
        levels = (50, 68, 90)
        bands = quantile_bands(samples, levels)
        assert list(bands) == list(levels)
        for level in levels:
            q = [(100 - level) / 200.0, (100 + level) / 200.0]
            assert np.array_equal(bands[level], np.quantile(samples, q, axis=0))


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


def steps(start, n, chunk, budget, rows, T):
    """The draw blocks and the fit stacks, as index lists, of
    ``fit_draws`` over draws start..n-1 at sizes (CHUNK, ROWS) = (chunk,
    budget), for draws that simulate ``rows`` rows into panels of T
    rows."""
    block = max(1, budget // rows // chunk) * chunk
    size = min(chunk, max(1, budget // T))
    blocks = [list(range(b, min(b + block, n))) for b in range(start, n, block)]
    return blocks, [b[i:i + size] for b in blocks for i in range(0, len(b), size)]


class TestFitDraws:
    """The one simulate-and-fit loop behind replications and trials."""

    @pytest.mark.parametrize(
        "start, n, chunk, budget",
        [pytest.param(start, n, chunk, budget,
                      id=bool(start) * f"{start}:" + f"{n}-{chunk}"
                      + (budget != 8192) * f"-{budget}")
         for start, n, chunk, budget in [(0, *sizes) for sizes in [
             # blocks of 100 at the defaults (98 at CHUNK = 7), in stacks
             # of CHUNK: both sides of the first stack and block edges
             (1, 25, 8192), (25, 25, 8192), (26, 25, 8192), (53, 7, 8192),
             (99, 25, 8192), (100, 25, 8192), (101, 25, 8192), (205, 25, 8192),
             # blocks of 12 in stacks of 4
             (4, 4, 1000), (5, 4, 1000), (11, 4, 1000), (12, 4, 1000), (13, 4, 1000),
             (25, 4, 1000),
             # blocks of 25 in stacks of 2 and a last one, and blocks of 7
             # in stacks of 1
             (2, 25, 200), (3, 25, 200), (25, 25, 200), (26, 25, 200), (8, 7, 50),
         ]] + [
             # a range that starts past 0, as a worker's trials do: blocks
             # and stacks count from its start
             (13, 53, 7, 8192), (3, 25, 4, 1000), (150, 251, 25, 8192),
         ]],
    )
    def test_each_draw_once_in_order(self, panel, monkeypatch, start, n, chunk, budget):
        monkeypatch.setattr(bootstrap_mod, "CHUNK", chunk)
        monkeypatch.setattr(bootstrap_mod, "ROWS", budget)
        blocks, stacks = steps(start, n, chunk, budget, 80, panel.rows)
        # draws on both sides of every block and stack edge
        bad = {t for stack in stacks for t in (stack[0], stack[-1])}
        seen = []

        def simulate(indices):
            seen.append(indices.tolist())
            X = np.repeat(panel.X[None], len(indices), axis=0)
            X[np.isin(indices, sorted(bad)), 0, 0] = np.nan
            return X, panel.Z

        _, _, point = point_fit(panel, ModelSpec())
        failed, got = {}, []
        for indices, X, Z, fit, stack_failed in fit_draws(range(start, n), simulate, ModelSpec(), 80):
            assert X.shape[0] == fit.paths.shape[0] == len(indices)
            assert Z is panel.Z
            assert list(stack_failed) == sorted(bad & set(indices.tolist()))
            for i, t in enumerate(indices.tolist()):
                if t not in stack_failed:
                    assert np.array_equal(fit.paths[i], point.values), t
            failed.update(stack_failed)
            got.append(indices.tolist())
        assert seen == blocks
        assert got == stacks
        assert described(failed) == dict.fromkeys(
            sorted(bad), (NonFiniteError, "simulated panel holds non-finite values"))

    def test_per_draw_z_sliced_with_x(self, panel, monkeypatch):
        monkeypatch.setattr(bootstrap_mod, "CHUNK", 4)
        monkeypatch.setattr(bootstrap_mod, "ROWS", 1000)

        def simulate(indices):
            # one exogenous column per draw, its presample row holding the
            # draw's index
            X = np.repeat(panel.X[None], len(indices), axis=0)
            Z = np.random.default_rng(0).normal(size=(len(indices), panel.rows, 1))
            Z[:, 0, 0] = indices
            return X, Z

        got = []
        for indices, X, Z, fit, failed in fit_draws(range(11), simulate, ModelSpec(), 80):
            assert Z.shape == (len(indices), panel.rows, 1) and not failed
            assert np.array_equal(Z[:, 0, 0], indices)
            got.append(len(indices))
        assert got == [4, 4, 3]


class TestBootstrapInference:
    def test_chunk_size_invariance(self, panel, monkeypatch):
        cfg = BootstrapConfig(replications=64, seed=5)
        runs = []
        for chunk, budget in SIZES:
            monkeypatch.setattr(bootstrap_mod, "CHUNK", chunk)
            monkeypatch.setattr(bootstrap_mod, "ROWS", budget)
            runs.append(bootstrap_inference(panel, cfg, ModelSpec()))
        a = runs[0]
        for b in runs[1:]:
            assert described(a.failed) == described(b.failed)
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
        assert list(res.failed) == sorted(res.failed)
        assert all(isinstance(exc, EstimationError) for exc in res.failed.values())

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
        # the one place a failed draw is written out as "Type: message"
        message = ("10 of 100 replications failed (limit 5%); first: RankError: "
                   "regressor matrix is rank deficient (min |R_ii| = 0.000e+00)")
        with pytest.raises(InferenceError, match="^" + re.escape(message) + "$"):
            bootstrap_inference(panel, BootstrapConfig(replications=100, seed=3))

    def test_few_failures_tolerated(self, panel, monkeypatch):
        fail_draws(monkeypatch, bootstrap_mod, {3, 15})
        res = bootstrap_inference(panel, BootstrapConfig(replications=100, seed=3))
        assert res.n_failed == 2
        assert sorted(res.failed) == [3, 15]
        assert res.multipliers.shape[0] == 98
        message = "regressor matrix is rank deficient (min |R_ii| = 0.000e+00)"
        assert described(res.failed) == dict.fromkeys([3, 15], (RankError, message))

    def test_batched_draws_match_scalar_routine(self, panel, estimate):
        cfg = BootstrapConfig(replications=60, seed=4)
        res = bootstrap_inference(panel, cfg)
        assert res.failed == {}
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
        eigvals_rows = count_eigvals_rows(monkeypatch)
        for chunk, budget in SIZES:
            monkeypatch.setattr(bootstrap_mod, "CHUNK", chunk)
            monkeypatch.setattr(bootstrap_mod, "ROWS", budget)
            eigvals_rows.clear()
            res = bootstrap_inference(panel, cfg)
            assert res.n_failed == 0
            assert res.unstable == want, (chunk, budget)
            # every unstable draw, and some stable ones, reach eigvals;
            # the other stable draws are proved by squaring
            assert want < sum(eigvals_rows) < 64, (chunk, budget)

    def test_snapshot_draws_rarely_reach_eigvals(self, monkeypatch):
        # the 4000 draws of the snapshot estimate: squaring proves all but
        # two stable (both pl, with moduli 0.979 and 0.982, whose F^256
        # still has norm 0.51 and 1.04), so eigvals runs on two companions
        config = load_run_config(SNAPSHOT_CONFIG)
        eigvals_rows = count_eigvals_rows(monkeypatch)
        for code, panel in load_panels(config).items():
            boot = replace(config.bootstrap, seed=country_seed(config.seed, code))
            res = bootstrap_inference(panel, boot, config.model)
            assert res.unstable == 0 and res.n_failed == 0, code
        assert eigvals_rows == [1, 1]

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
            (lambda: ModelSpec(ordering=("G", "Y", "Y")),
             "ordering ['G', 'Y', 'Y'] must be distinct, non-empty strings"),
            (lambda: ModelSpec(ordering=("G", "Y", "")),
             "ordering ['G', 'Y', ''] must be distinct, non-empty strings"),
            (lambda: ModelSpec(ordering=("G", "Y", 5)),
             "ordering ['G', 'Y', 5] must be distinct, non-empty strings"),
            # each class checks its fields' types, however it is built
            (lambda: BootstrapConfig(replications=2.5), "replications must be an integer"),
            (lambda: BootstrapConfig(levels=(68, "90")), "levels must be a list of integers"),
            (lambda: ModelSpec(lags="4"), "lags must be an integer"),
            (lambda: ModelSpec(ordering="GTYi"), "ordering must be a list of variable names"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(message)):
                build()


@pytest.fixture(scope="module")
def cz_bootstrap():
    """The snapshot's cz panel, 300 replications at its country seed, and
    the model: the inputs of the power-of-two scaling cases."""
    config = load_run_config(SNAPSHOT_CONFIG)
    boot = replace(config.bootstrap, seed=country_seed(config.seed, "cz"), replications=300)
    return load_panels(config)["cz"], boot, config.model


@pytest.mark.parametrize("exponent", [-20, 20])
def test_power_of_two_data_scaling_leaves_the_bootstrap_bit_identical(cz_bootstrap, exponent):
    # scaling every endogenous column by 2**j is exact in floating point;
    # multipliers are ratios of responses, so no draw, band, star or
    # failure may move
    panel, boot, model = cz_bootstrap
    want = bootstrap_inference(panel, boot, model)
    got = bootstrap_inference(replace(panel, X=panel.X * 2.0**exponent), boot, model)
    assert np.array_equal(got.point_multipliers.values, want.point_multipliers.values)
    assert np.array_equal(got.multipliers, want.multipliers)
    for level in boot.levels:
        assert np.array_equal(got.multiplier_bands[level], want.multiplier_bands[level]), level
    assert got.stars == want.stars
    assert described(got.failed) == described(want.failed)
    assert got.unstable == want.unstable


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
        assert described(fit.failures) == {
            1: (NonFiniteError, "simulated panel holds non-finite values")}
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
        exc = fit.failures[1]
        assert type(exc) is type(single.value)
        assert str(exc) == str(single.value)
        with pytest.raises(type(single.value), match="^" + re.escape(str(exc)) + "$"):
            point_fit(rebuilt, ModelSpec())

    def test_overflowing_responses_are_a_non_finite_fit(self):
        # a root of 1.06 takes the responses past the float range long
        # before quarter 20000; no earlier check trips
        rng = np.random.default_rng(0)
        X = var_recursion(1.06 * np.eye(4)[None], rng.normal(size=(84, 4)), np.zeros((1, 4)))
        panel = TransformedPanel(Quarter(2000, 1), X[1:], np.zeros((84, 0)), X_LABELS, ())
        model = ModelSpec(horizons=20000)
        fit = stacked_fit(panel.X[None], panel.Z, model)
        message = "fit produced non-finite coefficients or responses"
        assert described(fit.failures) == {0: (NonFiniteError, message)}
        with pytest.raises(NonFiniteError, match="^" + re.escape(message) + "$"):
            point_fit(panel, model)

    @pytest.mark.parametrize("check, index, value", [
        ("lags", 3, 4), ("sample size", 10, 17), ("rank", 0, 1e-14), ("pivot", 2, -1e-3),
        ("denominator", 5, 1e-13), ("non-finite panel", 0, 0.0), ("non-finite fit", 0, 0.0),
    ])
    def test_failure_records_survive_pickling(self, check, index, value):
        # a Monte Carlo worker's failed trials cross back to the parent
        # through a pickle
        exc = fit_error(check, index, value)
        got = pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(got) is type(exc) and str(got) == str(exc)
        assert getattr(got, "pivot", None) == getattr(exc, "pivot", None)
        assert getattr(got, "horizon", None) == getattr(exc, "horizon", None)

    @given(
        rows=rows_strategy,
        T=st.integers(1, 60),
        k=st.sampled_from([2, 3]),
        p=st.integers(1, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_wrapper_chain(self, rows, T, k, p):
        model = ModelSpec(lags=p, ordering=ORDERINGS[k], horizons=8)
        short = T - p < 1 + k * p + k
        # the stack checks the sample size before it looks at a panel; the
        # chain simulates first, so a short overflowing panel is left out
        assume(not (short and any(kind == "overflow" for kind, *_ in rows)))
        with np.errstate(all="ignore"):
            X = np.stack([make_panel(*row, T, k, p) for row in rows])
        fit = stacked_fit(X, np.zeros((T, 0)), model)
        for i, row in enumerate(rows):
            want = wrapper_chain(row, T, k, model)
            if want is NonFiniteError:
                assert type(fit.failures.get(i)) is NonFiniteError, (row, fit.failures.get(i))
            elif isinstance(want, EstimationError):
                assert i in fit.failures, (row, want)
                got = fit.failures[i]
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
