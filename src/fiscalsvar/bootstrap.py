"""Residual-resampling inference for IRFs and cumulative multipliers.

Each replication resamples whole residual rows with replacement, rebuilds
an artificial panel from the estimated coefficients (initial observations
and exogenous values held at their actual values), re-estimates and
re-identifies, and records the replication's IRF and multiplier path.
Percentile bands are read off the pooled replication draws.

Replications run in chunks of ``CHUNK`` draws through
:func:`stacked_fit`, which chains the stack-native stages of
:mod:`fiscalsvar.var` and :mod:`fiscalsvar.svar`; the point estimate is
the same function on a stack of one, and Monte Carlo trials use it as
well. The stack reports, per draw, the first check that fails (sample
size, a non-finite panel, rank, pivot, multiplier denominator, a
non-finite result) in the order the single-fit functions run them, and
that report alone decides which draws fail and with which error.

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

from .errors import DomainError, InferenceError, ShapeError, fit_error
from .ingest import TransformedPanel
from .series import Quarter
from .svar import (
    DENOMINATOR_TOL,
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
    spectral_radius,
    split_coefficients,
    var_recursion,
)

MAX_FAILURE_SHARE = 0.05

# replications per stacked step; larger chunks buy little speed and cost
# memory for the stacked designs
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
    """What to estimate: lag order, identification ordering, shock pair."""

    lags: int = 4
    ordering: tuple[str, ...] = ("G", "T", "Y", "i")
    shock: str = "G"
    response: str = "Y"

    def __post_init__(self):
        object.__setattr__(self, "ordering", tuple(self.ordering))
        if self.lags < 1:
            raise DomainError("lag order must be >= 1")
        if self.shock not in self.ordering or self.response not in self.ordering:
            raise DomainError(
                f"shock '{self.shock}' and response '{self.response}' must be in {self.ordering}"
            )


@dataclass(frozen=True)
class BootstrapConfig:
    replications: int = 1000
    seed: int = 0
    levels: tuple[int, ...] = (68, 90)
    horizons: int = 20

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(sorted(self.levels)))
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        if not self.levels or any(not 0 < lv < 100 for lv in self.levels):
            raise DomainError(f"band levels must lie strictly in (0, 100): {self.levels}")
        if self.horizons < 1:
            raise DomainError("horizons must be >= 1")


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
def stacked_fit(X: np.ndarray, Z: np.ndarray, model: ModelSpec, horizons: int) -> StackedFit:
    """A stack of panels X (C, T, k), columns in ``model.ordering``, through
    VAR estimation, Cholesky identification, the responses to the model's
    shock and its multiplier path; Z is (T, m) or (C, T, m), see
    :func:`~fiscalsvar.var.design_blocks`.

    Each row gets exactly the numbers of its own single fit, or fails at
    the first check that trips, in the order the single-fit functions run
    them: sample size, a non-finite panel, rank, Cholesky pivot,
    multiplier denominator, non-finite results. X is never written to; a
    non-finite panel is fitted as zeros in a copy, so no stage meets a nan.
    """
    C, T, k = X.shape
    p, H = model.lags, horizons
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
    shock = model.ordering.index(model.shock)
    responses = propagate_impulse(F, L[:, :, shock], H)
    paths, cum_g = cumulative_ratio(responses, model.ordering.index(model.response), shock, H)

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
    panel: TransformedPanel, model: ModelSpec, horizons: int
) -> tuple[VarEstimate, IrfSet, MultiplierPath]:
    """One panel through :func:`stacked_fit` as a stack of one: the VAR
    estimate, the responses to the model's shock and its multiplier path.
    The panel's columns must already follow ``model.ordering``. A failed
    check raises its typed error, as the single-fit functions would."""
    fit = stacked_fit(panel.X[None], panel.Z, model, horizons)
    if fit.failures:
        raise fit_error(*fit.failures[0], model.shock)
    k = panel.X.shape[1]
    intercept, gammas, exog_coef = split_coefficients(fit.coef[0], model.lags, k)
    estimate = VarEstimate(
        p=model.lags,
        k=k,
        intercept=intercept,
        gammas=gammas,
        exog_coef=exog_coef,
        residuals=fit.residuals[0],
        sigma=fit.sigma[0],
        sample_size=fit.residuals.shape[1],
    )
    irfs = IrfSet(shock=model.shock, ordering=model.ordering, responses=fit.responses[0])
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


def _simulate(estimate, resampled, initial, exog):
    """Artificial panels (..., p + T_eff, k) from a stack of resampled
    residual blocks (..., T_eff, k)."""
    base = resampled + estimate.intercept
    if estimate.exog_coef.shape[1]:
        base = base + exog[estimate.p:] @ estimate.exog_coef.T
    return var_recursion(estimate.gammas, base, initial)


def simulate_bootstrap_series(
    estimate: VarEstimate,
    resampled: np.ndarray,
    initial: np.ndarray,
    exog: np.ndarray,
    *,
    start: Quarter = Quarter(2000, 1),
    x_labels: tuple[str, ...] = ("G", "T", "Y", "i"),
    z_labels: tuple[str, ...] | None = None,
) -> TransformedPanel:
    """Rebuild an artificial panel from coefficients and resampled rows.

    The recursion x*_t = c + sum Gamma_i x*_{t-i} + D z_t + u*_t starts
    from the actual first p observations; ``exog`` must cover the full
    panel (p initial rows plus one per resampled row).
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

    X = _simulate(estimate, resampled, initial, exog)
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


def significance_flags(
    bands: dict[int, np.ndarray], point: np.ndarray | MultiplierPath
) -> tuple[str, ...]:
    """Two-tier stars: '**' when the widest band excludes zero, '*' when
    only the narrowest does, '' otherwise. Exclusion is strict.
    """
    if not bands:
        raise ShapeError("need at least one band level")
    values = point.values if isinstance(point, MultiplierPath) else np.asarray(point)
    strong = bands[max(bands)]
    weak = bands[min(bands)]
    if strong.shape[-1] != values.shape[-1]:
        raise ShapeError("bands and point estimate disagree on horizon count")

    def excludes_zero(band, h):
        return band[0, h] > 0.0 or band[1, h] < 0.0

    flags = []
    for h in range(values.shape[-1]):
        if excludes_zero(strong, h):
            flags.append("**")
        elif excludes_zero(weak, h):
            flags.append("*")
        else:
            flags.append("")
    return tuple(flags)


def _replication_batch(rs, estimate, panel, model, config):
    """Replications ``rs`` simulated and fitted as one stack: their
    :class:`StackedFit`."""
    U = estimate.residuals
    n = U.shape[0]
    idx = np.stack([substream(config.seed, r).integers(0, n, size=n) for r in rs])
    X = _simulate(estimate, U[idx], panel.X[: estimate.p], panel.Z)
    return stacked_fit(X, panel.Z, model, config.horizons)


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
    estimate, point_irf, point_m = point_fit(panel, model, config.horizons)

    chunks = []
    failed: dict[int, str] = {}
    for start in range(0, config.replications, CHUNK):
        rs = np.arange(start, min(start + CHUNK, config.replications))
        with np.errstate(all="ignore"):  # an overflowing draw fails as non-finite
            fit = _replication_batch(rs, estimate, panel, model, config)
        keep = np.ones(len(rs), dtype=bool)
        for i, failure in sorted(fit.failures.items()):
            exc = fit_error(*failure, model.shock)
            failed[int(rs[i])] = f"{type(exc).__name__}: {exc}"
            keep[i] = False
        stable = spectral_radius(fit.companion[keep]) < 1.0
        chunks.append((rs[keep], fit.responses[keep], fit.paths[keep], stable))

    if len(failed) > MAX_FAILURE_SHARE * config.replications:
        raise InferenceError(
            f"{len(failed)} of {config.replications} replications failed "
            f"(limit {MAX_FAILURE_SHARE:.0%}); first: {next(iter(failed.values()))}"
        )
    order, irf_draws, multipliers, stable = (
        np.concatenate(parts) for parts in zip(*chunks)
    )
    if not order.size:
        raise InferenceError("no successful replications")
    unstable = int(np.count_nonzero(~stable))

    m_bands = quantile_bands(multipliers, config.levels)
    i_bands = quantile_bands(irf_draws, config.levels)
    stars = significance_flags(m_bands, point_m)

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
