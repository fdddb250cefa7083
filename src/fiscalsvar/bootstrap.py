"""Residual-resampling inference for IRFs and cumulative multipliers.

Each replication resamples whole residual rows with replacement, rebuilds
an artificial panel from the estimated coefficients (initial observations
and exogenous values held at their actual values), re-estimates and
re-identifies, and records the replication's IRF and multiplier path.
Percentile bands are read off the pooled replication draws.

Replications run in chunks of ``CHUNK`` draws through the stack-native
stages of :mod:`fiscalsvar.var` and :mod:`fiscalsvar.svar`, the same
functions that compute the point estimate. A draw that trips a failure
check (rank, pivot, multiplier denominator, a non-finite value) or lies
near one of those thresholds is re-run alone through the single-fit
pipeline, which decides whether it fails and with which error.

Determinism contract: replication r draws its residual rows from its own
stream seeded by ``SeedSequence([seed, r])``, and every stacked stage
runs the single-fit routine matrix by matrix. So every draw equals the
single-fit path bit for bit, the chunk size never changes a number, and
results are a pure function of the data, the model and the config.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DecompositionError,
    DegenerateDenominatorError,
    DomainError,
    InferenceError,
    RankError,
    SampleSizeError,
    ShapeError,
)
from .ingest import TransformedPanel
from .series import Quarter
from .svar import (
    DENOMINATOR_TOL,
    IrfSet,
    MultiplierPath,
    cholesky_factor,
    cumulative_ratio,
    identify_cholesky,
    irf,
    multiplier_path,
    propagate_impulse,
)
from .var import (
    RANK_RTOL,
    VarEstimate,
    companion_matrix,
    design_blocks,
    estimate_var,
    least_squares,
    rank_deficient,
    residual_cov,
    spectral_radius,
    split_coefficients,
    stability,
    var_recursion,
)

FAILURE_KINDS = (
    RankError,
    SampleSizeError,
    DecompositionError,
    DegenerateDenominatorError,
    ShapeError,
    FloatingPointError,
)

MAX_FAILURE_SHARE = 0.05

# replications per stacked step; larger chunks buy little speed and cost
# memory for the stacked designs
CHUNK = 25

# A stacked draw this close to a single-fit threshold is re-run on the
# single-fit path as well, so that path alone decides every failure and
# its message: rank and denominator checks use twice their tolerance, a
# pivot is flagged below PIVOT_GUARD times its diagonal entry, a companion
# eigenvalue modulus within EIGEN_GUARD of one re-checks stability.
GUARD = 2.0
PIVOT_GUARD = 1e-12
EIGEN_GUARD = 1e-9


def derive_seed(*parts: int) -> int:
    """Collapse integer parts into one substream seed via seed hashing.

    Wraps :class:`numpy.random.SeedSequence` so that (master, index) pairs
    map to well-separated streams regardless of scheduling.
    """
    state = np.random.SeedSequence(list(parts)).generate_state(2, np.uint64)
    return int(state[0]) ^ (int(state[1]) << 64)


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


def point_fit(
    panel: TransformedPanel, model: ModelSpec, horizons: int
) -> tuple[VarEstimate, IrfSet, MultiplierPath]:
    """One panel through the single-fit pipeline: the VAR estimate, the
    responses to the model's shock and its multiplier path. The panel's
    columns must already follow ``model.ordering``."""
    estimate = estimate_var(panel, model.lags)
    structural = identify_cholesky(estimate, model.ordering)
    irfs = irf(structural, model.shock, horizons)
    return estimate, irfs, multiplier_path(irfs, model.response, model.shock, horizons)


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


def _one_replication(r, estimate, initial, exog, model, config, panel):
    """Replication r alone through the single-fit pipeline: the reference
    for the stacked draws, and the path that decides every flagged draw."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, r]))
    with np.errstate(over="raise", invalid="raise"):
        u_star = resample_residuals(estimate.residuals, rng)
        panel_star = simulate_bootstrap_series(
            estimate,
            u_star,
            initial,
            exog,
            start=panel.start,
            x_labels=panel.x_labels,
            z_labels=panel.z_labels,
        )
        est_star, irfs, m_star = point_fit(panel_star, model, config.horizons)
    _, stable = stability(est_star)
    return irfs.responses, m_star.values, stable


def _replication_batch(rs, estimate, panel, model, config):
    """Replications ``rs`` as one stack through the stages of
    :func:`_one_replication`.

    Returns responses (C, H + 1, k), multiplier paths (C, H), stability
    flags (C,) and a mask of the draws that must be re-run on the
    single-fit path; the other outputs are meaningless in masked rows.
    """
    p, k, H = estimate.p, estimate.k, config.horizons
    U = estimate.residuals
    n = U.shape[0]
    idx = np.stack([
        np.random.default_rng(np.random.SeedSequence([config.seed, r])).integers(0, n, size=n)
        for r in rs
    ])
    X = _simulate(estimate, U[idx], panel.X[:p], panel.Z)
    flagged = ~np.isfinite(X).all(axis=(1, 2))
    X[flagged] = panel.X  # keeps the linear algebra below well defined

    Y, W = design_blocks(X, panel.Z, p)
    coef, residuals, rdiag = least_squares(W, Y)
    flagged |= rank_deficient(rdiag, GUARD * RANK_RTOL)
    sigma = residual_cov(residuals, W.shape[-1])
    L, pivots = cholesky_factor(sigma)
    flagged |= ~(pivots > PIVOT_GUARD * np.diagonal(sigma, axis1=1, axis2=2)).all(axis=1)

    _, gammas, _ = split_coefficients(coef, p, k)
    F = companion_matrix(gammas)
    responses = propagate_impulse(F, L[:, :, model.ordering.index(model.shock)], H)
    paths, cum_g = cumulative_ratio(
        responses, model.ordering.index(model.response), model.ordering.index(model.shock), H
    )
    flagged |= np.any(np.abs(cum_g) <= GUARD * DENOMINATOR_TOL, axis=1)
    flagged |= ~(
        np.isfinite(coef).all(axis=(1, 2))
        & np.isfinite(sigma).all(axis=(1, 2))
        & np.isfinite(responses).all(axis=(1, 2))
        & np.isfinite(paths).all(axis=1)
    )

    top = np.ones(len(rs))
    top[~flagged] = spectral_radius(F[~flagged])
    flagged |= np.abs(top - 1.0) <= EIGEN_GUARD
    return responses, paths, top < 1.0, flagged


def bootstrap_inference(
    panel: TransformedPanel,
    config: BootstrapConfig,
    model: ModelSpec = ModelSpec(),
) -> BootstrapResult:
    """Full resampling loop around the point pipeline.

    Failed replications (rank loss, covariance not PD, degenerate
    denominator, numeric overflow) are recorded with the single-fit
    path's error and excluded; more than 5% failures aborts. Unstable
    re-estimates are kept and counted.
    """
    if panel.x_labels != model.ordering:
        panel = panel.reordered(model.ordering)
    estimate, point_irf, point_m = point_fit(panel, model, config.horizons)

    initial = panel.X[: model.lags]
    exog = panel.Z

    chunks = []
    failed: dict[int, str] = {}
    for start in range(0, config.replications, CHUNK):
        rs = np.arange(start, min(start + CHUNK, config.replications))
        with np.errstate(all="ignore"):
            responses, paths, stable, flagged = _replication_batch(
                rs, estimate, panel, model, config
            )
        keep = np.ones(len(rs), dtype=bool)
        for i in np.flatnonzero(flagged):
            r = int(rs[i])
            try:
                responses[i], paths[i], stable[i] = _one_replication(
                    r, estimate, initial, exog, model, config, panel
                )
            except FAILURE_KINDS as exc:
                failed[r] = f"{type(exc).__name__}: {exc}"
                keep[i] = False
        chunks.append((rs[keep], responses[keep], paths[keep], stable[keep]))

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
