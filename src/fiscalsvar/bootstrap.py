"""Residual-resampling inference for IRFs and cumulative multipliers.

Each replication resamples whole residual rows with replacement, rebuilds
an artificial panel from the estimated coefficients with
:func:`~fiscalsvar.var.simulate` (initial observations and exogenous
values held at their actual values), re-estimates and re-identifies, and
records the replication's IRF and multiplier path. Percentile bands are
read off the pooled replication draws.

Replications and Monte Carlo trials alike run through :func:`fit_draws`,
the one loop that knows the chunk size: it simulates ``CHUNK`` draws at
a time and fits them with :func:`stacked_fit`, which chains the
stack-native stages of :mod:`fiscalsvar.var` and :mod:`fiscalsvar.svar`;
the point estimate is the same function on a stack of one. The stack
reports, per draw, the first check that fails (sample size, a non-finite
panel, rank, pivot, multiplier denominator, a non-finite result) in the
order the single-fit functions run them, and that report alone decides
which draws fail and with which error.

Determinism contract: replication r draws its residual rows from its own
stream seeded by ``SeedSequence([seed, r])``, and every stacked stage
runs the single-fit routine matrix by matrix. So every draw equals the
single-fit path bit for bit, the chunk size never changes a number, and
results are a pure function of the data, the model and the config.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InferenceError, ShapeError, fit_error
from .ingest import X_LABELS, TransformedPanel
from .series import Quarter
from .svar import (
    DENOMINATOR_TOL,
    RESPONSE,
    SHOCK,
    IrfSet,
    MultiplierPath,
    cholesky_factor,
    cumulative_ratio,
    propagate_impulse,
)
from .var import (
    VarEstimate,
    companion_matrix,
    design_blocks,
    least_squares,
    rank_deficient,
    residual_cov,
    simulate,
    spectral_radius,
    split_coefficients,
)

# cap on replications and on Monte Carlo trials, 100 times the paper's
# 1000; every kept draw stays in memory until the bands are read, so a
# larger count is refused before the run starts
MAX_REPLICATIONS = 100_000

MAX_FAILURE_SHARE = 0.05

# draws per step of fit_draws; a chunk holds the designs and Q factors
# of all its draws at once, so memory grows with chunk size times T
CHUNK = 25


def derive_seed(*parts: int) -> int:
    """Collapse integer parts into one substream seed via seed hashing.

    Wraps :class:`numpy.random.SeedSequence` so that (master, index) pairs
    map to well-separated streams regardless of scheduling.
    """
    state = np.random.SeedSequence(list(parts)).generate_state(2, np.uint64)
    return int(state[0]) ^ (int(state[1]) << 64)


def substream(*parts: int) -> np.random.Generator:
    """Generator on the stream that ``SeedSequence(parts)`` seeds: one per
    (master, replication) or (master, trial, ...) tuple."""
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


@dataclass(frozen=True)
class ModelSpec:
    """What to estimate: lag order, identification ordering and
    ``horizons``, the quarters of the multiplier path; the responses run
    from impact to horizon ``horizons``. The multiplier is always the
    response of ``svar.RESPONSE`` to a shock in ``svar.SHOCK``, so the
    ordering must hold both."""

    lags: int = 4
    ordering: tuple[str, ...] = X_LABELS
    horizons: int = 20

    def __post_init__(self):
        object.__setattr__(self, "ordering", tuple(self.ordering))
        if self.lags < 1:
            raise ConfigError("lags must be >= 1")
        if self.horizons < 1:
            raise ConfigError("horizons must be >= 1")
        if SHOCK not in self.ordering or RESPONSE not in self.ordering:
            raise ConfigError(
                f"ordering {list(self.ordering)} must hold the shock '{SHOCK}' "
                f"and the response '{RESPONSE}'"
            )


@dataclass(frozen=True)
class BootstrapConfig:
    replications: int = 1000
    seed: int = 0
    levels: tuple[int, ...] = (68, 90)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(sorted(self.levels)))
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ConfigError(f"replications must be between 1 and {MAX_REPLICATIONS}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        levels = self.levels
        if not levels or any(not 0 < lv < 100 for lv in levels) or len(set(levels)) != len(levels):
            raise ConfigError(f"band levels must be non-empty, distinct and in (0, 100): {levels}")


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimates, per-replication draws, bands, and bookkeeping.

    ``estimate`` is the point fit the replications resample from.
    ``multipliers`` holds one row per successful replication (sorted by
    replication index); band dicts map level -> array with rows
    (lower, upper). ``stars`` follows the two-tier marking convention.
    """

    estimate: VarEstimate
    point_irf: IrfSet
    point_multipliers: MultiplierPath
    multipliers: np.ndarray  # (S, H)
    irf_draws: np.ndarray  # (S, H + 1, k)
    replication_index: np.ndarray  # (S,)
    multiplier_bands: dict[int, np.ndarray]  # level -> (2, H)
    irf_bands: dict[int, np.ndarray]  # level -> (2, H + 1, k)
    stars: tuple[str, ...]
    replications: int
    failed: dict[int, str] = field(default_factory=dict)
    unstable: int = 0

    def __post_init__(self):
        for name in ("multipliers", "irf_draws", "replication_index"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.failed) + self.multipliers.shape[0] != self.replications:
            raise ShapeError("failure count plus success count must equal replications")

    @property
    def n_failed(self) -> int:
        return len(self.failed)


class StackedFit(NamedTuple):
    """A stack of C fits, row by row; see :func:`stacked_fit`.

    ``failures`` maps each failed row to its first failing check as the
    ``(check, index, value)`` arguments of
    :func:`~fiscalsvar.errors.fit_error`; the arrays are meaningless in
    those rows.
    """

    coef: np.ndarray  # (C, n_reg, k), ordered as the design's columns
    residuals: np.ndarray  # (C, T - p, k)
    sigma: np.ndarray  # (C, k, k)
    companion: np.ndarray  # (C, kp, kp)
    responses: np.ndarray  # (C, H + 1, k)
    paths: np.ndarray  # (C, H)
    failures: dict[int, tuple]


@np.errstate(all="ignore")
def stacked_fit(X: np.ndarray, Z: np.ndarray, model: ModelSpec) -> StackedFit:
    """A stack of panels X (C, T, k), columns in ``model.ordering``, through
    VAR estimation, Cholesky identification, the responses to a ``SHOCK``
    shock and the multiplier path; Z is (T, m) or (C, T, m), see
    :func:`~fiscalsvar.var.design_blocks`.

    Each row gets exactly the numbers of its own single fit, or fails at
    the first check that trips, in the order the single-fit functions run
    them: sample size, a non-finite panel, rank, Cholesky pivot,
    multiplier denominator, non-finite results. X is never written to; a
    non-finite panel is fitted as zeros in a copy, so no stage meets a nan.
    """
    C, T, k = X.shape
    p, H = model.lags, model.horizons
    n_reg = 1 + k * p + Z.shape[-1]
    if T - p <= n_reg:
        failure = ("lags", T, p) if T <= p else ("sample size", T - p, n_reg)
        shapes = (n_reg, k), (max(T - p, 0), k), (k, k), (k * p, k * p), (H + 1, k), (H,)
        blank = (np.full((C, *shape), np.nan) for shape in shapes)
        return StackedFit(*blank, dict.fromkeys(range(C), failure))
    finite = np.isfinite(X).all(axis=(1, 2))
    if not finite.all():
        X = np.where(finite[:, None, None], X, 0.0)

    Y, W = design_blocks(X, Z, p)
    coef, residuals, rdiag = least_squares(W, Y)
    sigma = residual_cov(residuals, n_reg)
    L, pivots = cholesky_factor(sigma)
    F = companion_matrix(split_coefficients(coef, p, k)[1])
    shock = model.ordering.index(SHOCK)
    responses = propagate_impulse(F, L[:, :, shock], H)
    paths, cum_g = cumulative_ratio(responses, model.ordering.index(RESPONSE), shock, H)

    rows, zero = np.arange(C), np.zeros(C)
    bad_pivot = pivots <= 0.0
    small = np.abs(cum_g) <= DENOMINATOR_TOL
    j, q = bad_pivot.argmax(axis=1), small.argmax(axis=1)
    results = np.concatenate([a.reshape(C, -1) for a in (coef, sigma, responses, paths)], axis=1)
    failures: dict[int, tuple] = {}
    for check, failed, index, value in (
        ("non-finite panel", ~finite, zero, zero),
        ("rank", rank_deficient(rdiag), zero, rdiag.min(axis=1)),
        ("pivot", bad_pivot.any(axis=1), j + 1, pivots[rows, j]),
        ("denominator", small.any(axis=1), q + 1, cum_g[rows, q]),
        ("non-finite fit", ~np.isfinite(results).all(axis=1), zero, zero),
    ):
        for i in np.flatnonzero(failed):
            failures.setdefault(int(i), (check, int(index[i]), float(value[i])))
    return StackedFit(coef, residuals, sigma, F, responses, paths, failures)


def point_fit(
    panel: TransformedPanel, model: ModelSpec
) -> tuple[VarEstimate, IrfSet, MultiplierPath]:
    """One panel through :func:`stacked_fit` as a stack of one: the VAR
    estimate, the responses to a ``SHOCK`` shock and the multiplier path.
    The panel's columns must already follow ``model.ordering``. A failed
    check raises its typed error, as the single-fit functions would."""
    fit = stacked_fit(panel.X[None], panel.Z, model)
    if fit.failures:
        raise fit_error(*fit.failures[0], SHOCK)
    estimate = VarEstimate.from_fit(fit.coef[0], fit.residuals[0], fit.sigma[0], model.lags)
    irfs = IrfSet(shock=SHOCK, ordering=model.ordering, responses=fit.responses[0])
    return estimate, irfs, MultiplierPath(values=fit.paths[0])


def resample_residuals(residuals: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw residual rows i.i.d. with replacement, keeping rows intact.

    Whole rows preserve the contemporaneous covariance the identification
    step factorises.
    """
    U = np.asarray(residuals, dtype=float)
    if U.ndim != 2 or U.shape[0] < 1:
        raise ShapeError("residuals must have at least one row")
    idx = rng.integers(0, U.shape[0], size=U.shape[0])
    return U[idx]


def simulate_bootstrap_series(
    estimate: VarEstimate,
    resampled: np.ndarray,
    initial: np.ndarray,
    exog: np.ndarray,
    *,
    start: Quarter = Quarter(2000, 1),
    x_labels: tuple[str, ...] = X_LABELS,
    z_labels: tuple[str, ...] | None = None,
) -> TransformedPanel:
    """Rebuild an artificial panel from coefficients and resampled rows.

    :func:`~fiscalsvar.var.simulate` runs x*_t = c + sum Gamma_i x*_{t-i}
    + D z_t + u*_t from the actual first p observations; ``exog`` must
    cover the full panel (p initial rows plus one per resampled row).
    """
    p, k = estimate.p, estimate.k
    resampled = np.asarray(resampled, dtype=float)
    initial = np.asarray(initial, dtype=float)
    exog = np.asarray(exog, dtype=float)
    m = estimate.exog_coef.shape[1]
    if resampled.ndim != 2 or resampled.shape[1] != k:
        raise ShapeError(f"resampled must be (T_eff, {k})")
    if initial.shape != (p, k):
        raise ShapeError(f"initial must be ({p}, {k}), got {initial.shape}")
    T_eff = resampled.shape[0]
    if exog.shape != (p + T_eff, m):
        raise ShapeError(f"exog must be ({p + T_eff}, {m}), got {exog.shape}")

    X = simulate(estimate, resampled, exog[p:], initial)
    if z_labels is None:
        z_labels = tuple(f"z{j}" for j in range(m))
    return TransformedPanel(start, X, exog, x_labels, z_labels)


def quantile_bands(samples: np.ndarray, levels: tuple[int, ...]) -> dict[int, np.ndarray]:
    """Percentile band per level: lower at (100-L)/2 %, upper at (100+L)/2 %.

    Quantiles interpolate linearly between order statistics at position
    q*(n-1)+1, i.e. numpy's default rule.
    """
    a = np.asarray(samples, dtype=float)
    if a.size == 0 or a.shape[0] == 0:
        raise ShapeError("no samples to take quantiles over")
    bands = {}
    for level in levels:
        lo = (100 - level) / 200.0
        hi = (100 + level) / 200.0
        bands[level] = np.quantile(a, [lo, hi], axis=0, method="linear")
    return bands


def significance_flags(bands: dict[int, np.ndarray]) -> tuple[str, ...]:
    """Two-tier stars per quarter of bands shaped (2, H): '**' when the
    widest band excludes zero, '*' when only the narrowest does, ''
    otherwise. Exclusion is strict. A single band is the narrow tier: its
    exclusions get '*'.
    """
    if not bands:
        raise ShapeError("need at least one band level")
    excludes = {level: (band[0] > 0.0) | (band[1] < 0.0) for level, band in bands.items()}
    weak = excludes[min(bands)]
    strong = excludes[max(bands)] if len(bands) > 1 else np.zeros_like(weak)
    return tuple(np.where(strong, "**", np.where(weak, "*", "")).tolist())


def fit_draws(n: int, draw, model: ModelSpec):
    """Draws 0..n-1 in chunks of ``CHUNK``: for each chunk, its indices,
    the panels X (C, T, k) and Z that ``draw(indices)`` returns, their
    :class:`StackedFit` and the failed draws as {index: "Type: message"},
    in index order. Each chunk is simulated only when the caller asks."""
    for start in range(0, n, CHUNK):
        indices = np.arange(start, min(start + CHUNK, n))
        with np.errstate(all="ignore"):  # an overflowing draw fails as non-finite
            X, Z = draw(indices)
            fit = stacked_fit(X, Z, model)
        failed = {}
        for i, failure in sorted(fit.failures.items()):
            exc = fit_error(*failure, SHOCK)
            failed[int(indices[i])] = f"{type(exc).__name__}: {exc}"
        yield indices, X, Z, fit, failed


def bootstrap_inference(
    panel: TransformedPanel,
    config: BootstrapConfig,
    model: ModelSpec = ModelSpec(),
) -> BootstrapResult:
    """Full resampling loop around the point pipeline.

    Failed replications (rank loss, covariance not PD, degenerate
    denominator, numeric overflow) are recorded with the typed error of
    their first failing check and excluded; more than 5% failures aborts.
    Unstable re-estimates are kept and counted.
    """
    if panel.x_labels != model.ordering:
        panel = panel.reordered(model.ordering)
    estimate, point_irf, point_m = point_fit(panel, model)

    U = estimate.residuals

    def resample(rs):
        idx = np.stack([substream(config.seed, r).integers(0, len(U), size=len(U)) for r in rs])
        return simulate(estimate, U[idx], panel.Z[estimate.p:], panel.X[:estimate.p]), panel.Z

    chunks, failed = [], {}
    draws = fit_draws(config.replications, resample, model)
    for rs, _, _, fit, chunk_failed in draws:
        failed.update(chunk_failed)
        keep = ~np.isin(rs, list(chunk_failed))
        stable = spectral_radius(fit.companion[keep]) < 1.0
        chunks.append((rs[keep], fit.responses[keep], fit.paths[keep], stable))

    if len(failed) > MAX_FAILURE_SHARE * config.replications:
        raise InferenceError(
            f"{len(failed)} of {config.replications} replications failed "
            f"(limit {MAX_FAILURE_SHARE:.0%}); first: {next(iter(failed.values()))}"
        )
    order, irf_draws, multipliers, stable = map(np.concatenate, zip(*chunks))
    unstable = int(np.count_nonzero(~stable))

    m_bands = quantile_bands(multipliers, config.levels)
    i_bands = quantile_bands(irf_draws, config.levels)
    stars = significance_flags(m_bands)

    return BootstrapResult(
        estimate=estimate,
        point_irf=point_irf,
        point_multipliers=point_m,
        multipliers=multipliers,
        irf_draws=irf_draws,
        replication_index=order,
        multiplier_bands=m_bands,
        irf_bands=i_bands,
        stars=stars,
        replications=config.replications,
        failed=failed,
        unstable=unstable,
    )
