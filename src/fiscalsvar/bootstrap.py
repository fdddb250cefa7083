"""Residual-resampling inference for IRFs and cumulative multipliers.

Each replication resamples whole residual rows with replacement, rebuilds
an artificial panel from the estimated coefficients with
:func:`~fiscalsvar.var.simulate` (initial observations and exogenous
values held at their actual values), re-estimates and re-identifies, and
records the replication's IRF and multiplier path. Percentile bands are
read off the pooled replication draws.

Replications and Monte Carlo trials alike run through :func:`fit_draws`,
the one loop that knows the two sizes, both set by panel rows: it
simulates a block of draws at a time, never fewer than ``CHUNK`` and
more when the draws are short, and fits each block in stacks of at most
``CHUNK`` draws and ``ROWS`` panel rows with :func:`stacked_fit`, which
chains the stack-native stages of :mod:`fiscalsvar.var` and
:mod:`fiscalsvar.svar`; the point estimate is the same function on a
stack of one. :func:`~fiscalsvar.var.below_unit_radius` counts the
unstable refits, proving most stable ones by squaring.

The draw record: each draw's checks run in the order the single-fit
functions run them (sample size, a non-finite panel, rank, Cholesky
pivot, multiplier denominator, a non-finite result); the first that
trips fails the draw with the typed error
:func:`~fiscalsvar.errors.fit_error` writes, the one its single fit
raises. That error, keyed by row or draw index, is the only record of a
failed draw, in ``StackedFit.failures``, :func:`fit_draws`,
``BootstrapResult.failed`` and the Monte Carlo harness. A failed draw is
counted and dropped; only the :class:`~fiscalsvar.errors.InferenceError`
that ends a run with too many quotes the first, as ``Type: message``.

Determinism contract, kept by every command: each draw has its own
stream, ``default_rng(SeedSequence([seed, i, *suffix]))`` for draw i.
Replication r draws its residual rows as
``default_rng(SeedSequence([seed, r])).integers(0, n, size=n)``, and
every stacked stage runs the single-fit routine matrix by matrix. So
every draw equals the single-fit path bit for bit, no block or stack
size and no worker count ever changes a number, and results are a pure
function of the data, the model and the config. :func:`stream_generators`
builds those streams with numpy's own SeedSequence, PCG64 and Generator,
from the seed's uint32 words split once per block, so they are numpy's
exactly; the tests pin each step against the installed numpy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EstimationError, InferenceError, ShapeError, fit_error, json_int
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
    below_unit_radius,
    companion_matrix,
    design_blocks,
    least_squares,
    rank_deficient,
    simulate,
    split_coefficients,
)

# cap on replications and on Monte Carlo trials, 100 times the paper's
# 1000; every kept draw stays in memory until the bands are read, so a
# larger count is refused before the run starts. It must stay below
# 2**32: stream_generators writes each index as one uint32 word of its
# entropy, as SeedSequence reads an integer below 2**32
MAX_REPLICATIONS = 100_000

MAX_FAILURE_SHARE = 0.05

# draws per fit stack at most, and fewest draws per simulated block; a
# stack holds the augmented designs and R factors of all its draws at once
CHUNK = 25

# panel rows per simulated block and per fit stack, so that neither
# grows with the sample length; a block still holds CHUNK draws, and so
# more than ROWS rows, once a draw is longer than ROWS / CHUNK rows
ROWS = 8192


def derive_seed(*parts: int) -> int:
    """Collapse integer parts into one substream seed via seed hashing.

    Wraps :class:`numpy.random.SeedSequence` so that (master, index) pairs
    map to well-separated streams regardless of scheduling.
    """
    state = np.random.SeedSequence(list(parts)).generate_state(2, np.uint64)
    return int(state[0]) ^ (int(state[1]) << 64)


_U32 = 2**32 - 1


def _words(n: int) -> list[int]:
    """An entropy integer as SeedSequence reads it: little-endian uint32
    words, 0 as one word."""
    words = [n & _U32]
    while n > _U32:
        n >>= 32
        words.append(n & _U32)
    return words


def stream_generators(seed: int, indices: np.ndarray, suffix: tuple[int, ...] = ()):
    """Yield ``default_rng(SeedSequence([seed, i, *suffix]))`` for every
    index i in turn.

    Each index's entropy is its own row of uint32 words, exactly what
    numpy coerces that list to, with the index as one word (see
    ``MAX_REPLICATIONS``): numpy reads an array in one step, a list word
    by word in Python. No row is written after its SeedSequence is made,
    which keeps a reference to it as ``.entropy``."""
    head, tail = _words(seed), [w for part in suffix for w in _words(part)]
    entropy = np.empty((len(indices), len(head) + 1 + len(tail)), dtype=np.uint32)
    entropy[:] = [*head, 0, *tail]
    entropy[:, len(head)] = indices
    for row in entropy:
        yield np.random.Generator(np.random.PCG64(np.random.SeedSequence(row)))


def stream_integers(seed: int, indices: np.ndarray, bound: int, size: int) -> np.ndarray:
    """Row i is ``default_rng(SeedSequence([seed, i])).integers(0, bound,
    size=size)``: (C, size) int64."""
    values = np.empty((len(indices), size), dtype=np.int64)
    for row, rng in zip(values, stream_generators(seed, indices)):
        row[:] = rng.integers(0, bound, size=size)
    return values


def check_names(names: tuple, what: str) -> None:
    """Variable names are distinct, non-empty strings: each picks one column."""
    if not all(isinstance(n, str) and n for n in names) or len(set(names)) != len(names):
        raise ConfigError(f"{what} {list(names)} must be distinct, non-empty strings")


@dataclass(frozen=True)
class ModelSpec:
    """What to estimate: lag order, identification ordering and
    ``horizons``, the quarters of the multiplier path; the responses run
    from impact to horizon ``horizons``. The multiplier is always the
    response of ``svar.RESPONSE`` to a shock in ``svar.SHOCK``, so the
    ordering, whose names follow :func:`check_names`, must hold both."""

    lags: int = 4
    ordering: tuple[str, ...] = X_LABELS
    horizons: int = 20

    def __post_init__(self):
        for name in ("lags", "horizons"):
            if not json_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        if not isinstance(self.ordering, (list, tuple)):
            raise ConfigError("ordering must be a list of variable names")
        object.__setattr__(self, "ordering", tuple(self.ordering))
        check_names(self.ordering, "ordering")
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
        for name in ("replications", "seed"):
            if not json_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        if not (isinstance(self.levels, (list, tuple)) and all(map(json_int, self.levels))):
            raise ConfigError("levels must be a list of integers")
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
    ``multipliers`` and ``irf_draws`` hold one row per successful
    replication (sorted by replication index), the largest arrays of a
    run; band dicts map level -> (lower, upper) rows. ``stars`` follows
    the two-tier marking convention.
    """

    estimate: VarEstimate
    point_irf: IrfSet
    point_multipliers: MultiplierPath
    multipliers: np.ndarray  # (S, H)
    irf_draws: np.ndarray  # (S, H + 1, k)
    multiplier_bands: dict[int, np.ndarray]  # level -> (2, H)
    irf_bands: dict[int, np.ndarray]  # level -> (2, H + 1, k)
    stars: tuple[str, ...]
    replications: int
    failed: dict[int, EstimationError] = field(default_factory=dict)
    unstable: int = 0

    def __post_init__(self):
        for name in ("multipliers", "irf_draws"):
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

    ``failures`` is the draw record of the module docstring, by row; the
    arrays are meaningless in those rows. No fit keeps residuals:
    :func:`point_fit` forms its own.
    """

    coef: np.ndarray  # (C, n_reg, k), ordered as the design's columns
    sigma: np.ndarray  # (C, k, k)
    companion: np.ndarray  # (C, kp, kp)
    responses: np.ndarray  # (C, H + 1, k)
    paths: np.ndarray  # (C, H)
    failures: dict[int, EstimationError]


@np.errstate(all="ignore")
def stacked_fit(X: np.ndarray, Z: np.ndarray, model: ModelSpec) -> StackedFit:
    """A stack of panels X (C, T, k), columns in ``model.ordering``, through
    VAR estimation, Cholesky identification, the responses to a ``SHOCK``
    shock and the multiplier path; Z is (T, m) or (C, T, m), see
    :func:`~fiscalsvar.var.design_blocks`.

    Each row gets exactly the numbers of its own single fit, or fails at
    its first failing check (the draw record of the module docstring;
    the sample size needs T - p >= n_reg + k). X is never written to; a
    non-finite panel is fitted as zeros in a copy, so no stage meets a
    nan.
    """
    C, T, k = X.shape
    p, H = model.lags, model.horizons
    n_reg = 1 + k * p + Z.shape[-1]
    if T - p < n_reg + k:
        check, index, value = ("lags", T, p) if T <= p else ("sample size", T - p, n_reg)
        shapes = (n_reg, k), (k, k), (k * p, k * p), (H + 1, k), (H,)
        blank = (np.full((C, *shape), np.nan) for shape in shapes)
        return StackedFit(*blank, {i: fit_error(check, index, value, SHOCK) for i in range(C)})
    finite = np.isfinite(X).all(axis=(1, 2))
    if not finite.all():
        X = np.where(finite[:, None, None], X, 0.0)

    coef, sigma, rdiag = least_squares(design_blocks(X, Z, p), k)
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
    failures: dict[int, EstimationError] = {}
    for check, failed, index, value in (
        ("non-finite panel", ~finite, zero, zero),
        ("rank", rank_deficient(rdiag), zero, rdiag.min(axis=1)),
        ("pivot", bad_pivot.any(axis=1), j + 1, pivots[rows, j]),
        ("denominator", small.any(axis=1), q + 1, cum_g[rows, q]),
        ("non-finite fit", ~np.isfinite(results).all(axis=1), zero, zero),
    ):
        for i in np.flatnonzero(failed).tolist():
            if i not in failures:
                failures[i] = fit_error(check, int(index[i]), float(value[i]), SHOCK)
    return StackedFit(coef, sigma, F, responses, paths, failures)


def point_fit(
    panel: TransformedPanel, model: ModelSpec
) -> tuple[VarEstimate, IrfSet, MultiplierPath]:
    """One panel through :func:`stacked_fit` as a stack of one: the VAR
    estimate, the responses to a ``SHOCK`` shock and the multiplier path.
    The panel's columns must already follow ``model.ordering``. A failed
    check raises its typed error, as the single-fit functions would."""
    fit = stacked_fit(panel.X[None], panel.Z, model)
    if fit.failures:
        raise fit.failures[0]
    A = design_blocks(panel.X, panel.Z, model.lags)
    estimate = VarEstimate.from_fit(A, fit.coef[0], fit.sigma[0], model.lags)
    irfs = IrfSet(ordering=model.ordering, responses=fit.responses[0])
    return estimate, irfs, MultiplierPath(values=fit.paths[0])


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
    """Rebuild an artificial panel from a law and resampled rows.

    :func:`~fiscalsvar.var.simulate` runs x*_t = c + sum Gamma_i x*_{t-i}
    + D z_t + u*_t from the actual first p observations; ``exog`` covers
    the full panel (p initial rows plus one per resampled row), and
    ``simulate`` refuses any shape that does not match the law.
    """
    exog = np.asarray(exog, dtype=float)
    X = simulate(estimate, np.asarray(resampled, dtype=float), exog[estimate.p:],
                 np.asarray(initial, dtype=float))
    if z_labels is None:
        z_labels = tuple(f"z{j}" for j in range(exog.shape[1]))
    return TransformedPanel(start, X, exog, x_labels, z_labels)


def quantile_bands(samples: np.ndarray, levels: tuple[int, ...]) -> dict[int, np.ndarray]:
    """Percentile band per level: lower at (100-L)/2 %, upper at (100+L)/2 %.

    Quantiles interpolate linearly between order statistics at position
    q*(n-1)+1, i.e. numpy's default rule.
    """
    a = np.asarray(samples, dtype=float)
    if a.size == 0 or a.shape[0] == 0:
        raise ShapeError("no samples to take quantiles over")
    # every level's pair in one call; each quantile is read on its own
    qs = [q for level in levels for q in ((100 - level) / 200.0, (100 + level) / 200.0)]
    values = np.quantile(a, qs, axis=0, method="linear")
    return {level: values[2 * j:2 * j + 2] for j, level in enumerate(levels)}


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


def fit_draws(draws: range, draw, model: ModelSpec, rows: int):
    """The draws a unit-step range of indices names, in index order, one
    fit stack per step: its indices, the panels X (C, T, k) and Z that
    ``draw(indices)`` returned for them, their :class:`StackedFit` and
    its draw record by draw index. A draw's numbers depend on its index
    alone, so a range may start anywhere: Monte Carlo trials run in
    contiguous ranges, one per worker process.

    ``draw`` simulates ``rows`` rows per draw, and is called on the
    most draws that stay within ``ROWS`` rows, rounded down to a whole
    number of ``CHUNK`` but never below it, only when the caller asks for
    a stack of that block; each stack fits min(``CHUNK``,
    max(1, ``ROWS`` // T)) of them. A per-draw Z (C, T, m) is sliced
    with X."""
    # whole stacks of CHUNK: a short stack at every block's end would
    # cost a stacked_fit call's fixed overhead for a few draws
    block = max(1, ROWS // rows // CHUNK) * CHUNK
    for start in range(draws.start, draws.stop, block):
        indices = np.arange(start, min(start + block, draws.stop))
        with np.errstate(all="ignore"):  # an overflowing draw fails as non-finite
            X, Z = draw(indices)
        size = min(CHUNK, max(1, ROWS // X.shape[1]))
        for lo in range(0, len(indices), size):
            part = slice(lo, lo + size)
            Xs, Zs = X[part], Z[part] if Z.ndim == 3 else Z
            fit = stacked_fit(Xs, Zs, model)
            failed = {int(indices[lo + i]): exc for i, exc in sorted(fit.failures.items())}
            yield indices[part], Xs, Zs, fit, failed


def bootstrap_inference(
    panel: TransformedPanel,
    config: BootstrapConfig,
    model: ModelSpec = ModelSpec(),
) -> BootstrapResult:
    """Full resampling loop around the point pipeline.

    Each stack's draws are written in place, at their replication
    indices, into arrays allocated once. Failed replications are kept in
    ``failed`` and dropped in one copy at the end; more than 5% failures
    aborts. Unstable re-estimates are kept and counted.
    """
    if panel.x_labels != model.ordering:
        panel = panel.reordered(model.ordering)
    estimate, point_irf, point_m = point_fit(panel, model)

    U = estimate.residuals

    def resample(rs):
        idx = stream_integers(config.seed, rs, len(U), len(U))
        return simulate(estimate, U[idx], panel.Z[estimate.p:], panel.X[:estimate.p]), panel.Z

    R = config.replications
    irf_draws = np.empty((R, *point_irf.responses.shape))
    multipliers = np.empty((R, model.horizons))
    failed, unstable = {}, 0
    for rs, _, _, fit, stack_failed in fit_draws(range(R), resample, model, len(U)):
        failed.update(stack_failed)
        irf_draws[rs], multipliers[rs] = fit.responses, fit.paths
        keep = ~np.isin(rs, list(stack_failed))
        unstable += int(np.count_nonzero(~below_unit_radius(fit.companion[keep])))

    if len(failed) > MAX_FAILURE_SHARE * R:
        first = next(iter(failed.values()))
        raise InferenceError(
            f"{len(failed)} of {R} replications failed "
            f"(limit {MAX_FAILURE_SHARE:.0%}); first: {type(first).__name__}: {first}"
        )
    if failed:
        drop = list(failed)
        irf_draws, multipliers = np.delete(irf_draws, drop, 0), np.delete(multipliers, drop, 0)

    m_bands = quantile_bands(multipliers, config.levels)
    i_bands = quantile_bands(irf_draws, config.levels)
    stars = significance_flags(m_bands)

    return BootstrapResult(
        estimate=estimate,
        point_irf=point_irf,
        point_multipliers=point_m,
        multipliers=multipliers,
        irf_draws=irf_draws,
        multiplier_bands=m_bands,
        irf_bands=i_bands,
        stars=stars,
        replications=R,
        failed=failed,
        unstable=unstable,
    )
