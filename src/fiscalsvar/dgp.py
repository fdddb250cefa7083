"""Synthetic data generation and closed-form oracles.

A :class:`DgpSpec` carries true coefficients, so simulated panels come
with exact impulse responses and multiplier paths to check the whole
estimation chain against: least-squares recovery, identification,
band coverage. A spec is a law, as a fitted
:class:`~fiscalsvar.var.VarEstimate` is, so the code that reads a fit
reads it too: :func:`~fiscalsvar.var.simulate` (which refuses mismatched
shapes), :func:`~fiscalsvar.var.stability` and :func:`~fiscalsvar.svar.irf`.

Monte Carlo trials run in contiguous ranges, one forked worker process
per usable CPU, each range through the bootstrap's draw loop,
:func:`~fiscalsvar.bootstrap.fit_draws` (its module docstring describes
the block and stack sizes): :func:`~fiscalsvar.var.simulate`, as for
replications, draws a block of trials, burn-in included, each with its
own exogenous columns Z, and a trial fails when its fit stack reports a
failing check for it. Coverage trials then bootstrap only the trials the
stack kept, each from its own row of the stack.

Determinism contract: trial t draws its shocks, then its exogenous
columns, from its own stream, ``default_rng(SeedSequence([seed, t, 0]))``,
so every trial equals the single-trial path bit for bit and neither
size in the draw loop, nor the worker count, ever changes a number. Each trial's generator is
numpy's own SeedSequence, PCG64 and Generator on its entropy words
(:func:`~fiscalsvar.bootstrap.stream_generators`); the draws are numpy's
own ``standard_normal`` on exactly that stream.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bootstrap import (
    MAX_REPLICATIONS,
    BootstrapConfig,
    ModelSpec,
    bootstrap_inference,
    check_names,
    derive_seed,
    fit_draws,
    stream_generators,
)
from . import fanout
from .errors import (
    ConfigError,
    DegenerateDenominatorError,
    EstimationError,
    InferenceError,
    UnstableDgpError,
    json_int,
    reject_unknown_keys,
)
from .ingest import X_LABELS, TransformedPanel
from .series import Quarter
from .svar import RESPONSE, SHOCK, IrfSet, MultiplierPath, StructuralModel, irf, multiplier_path
from .var import simulate, stability

SYNTHETIC_START = Quarter(2000, 1)


@dataclass(frozen=True)
class DgpSpec:
    """True parameters of a simulated system plus sampling directives: the
    ``montecarlo`` run's config, so a bad field is a :class:`ConfigError`
    and an explosive system an :class:`UnstableDgpError`."""

    intercept: np.ndarray  # (k,)
    gammas: np.ndarray  # (p, k, k)
    B: np.ndarray  # (k, k) lower triangular, positive diagonal
    exog_coef: np.ndarray | None  # (k, m); None means m = 0, stored as (k, 0)
    T: int
    burn_in: int = 200
    seed: int = 0
    labels: tuple[str, ...] = X_LABELS

    def __post_init__(self):
        gammas = np.array(self.gammas, dtype=float)
        B = np.array(self.B, dtype=float)
        intercept = np.array(self.intercept, dtype=float)
        if gammas.ndim != 3 or gammas.shape[1] != gammas.shape[2]:
            raise ConfigError(f"gammas must be (p, k, k), got {gammas.shape}")
        k = gammas.shape[1]
        if B.shape != (k, k):
            raise ConfigError(f"B must be {k} x {k}")
        if intercept.shape != (k,):
            raise ConfigError(f"intercept must have length {k}")
        if len(self.labels) != k:
            raise ConfigError("labels must name every column")
        check_names(self.labels, "labels")
        if np.any(np.triu(B, 1) != 0.0):
            raise ConfigError("B must be lower triangular")
        if np.any(np.diag(B) <= 0.0):
            raise ConfigError("B must have a strictly positive diagonal")
        exog = self.exog_coef
        exog = np.zeros((k, 0)) if exog is None else np.array(exog, dtype=float)
        if exog.ndim != 2 or exog.shape[0] != k:
            raise ConfigError(f"exog_coef must be ({k}, m)")
        if not all(np.isfinite(a).all() for a in (gammas, B, intercept, exog)):
            raise ConfigError("DGP parameters must be finite")
        if self.T < 1:
            raise ConfigError("T must be >= 1")
        if self.burn_in < 0:
            raise ConfigError("burn-in must be >= 0")
        # the 40000 quarters a YYYY-Qn label spans dwarf any macro sample;
        # the cap rejects a size that would exhaust memory before anything
        # is allocated
        if self.T + self.burn_in > 40_000:
            raise ConfigError("T + burn_in must not exceed 40000 quarters")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

        for name, arr in (("gammas", gammas), ("B", B), ("intercept", intercept),
                          ("exog_coef", exog)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "labels", tuple(self.labels))
        top, stable = stability(self)
        if not stable:
            raise UnstableDgpError(
                f"companion eigenvalue modulus {top:.4f} >= 1; spec is explosive"
            )

    @property
    def p(self) -> int:
        return self.gammas.shape[0]

    @property
    def k(self) -> int:
        return self.gammas.shape[1]

    def to_dict(self) -> dict:
        return {
            "intercept": self.intercept.tolist(),
            "gammas": self.gammas.tolist(),
            "B": self.B.tolist(),
            "exog_coef": self.exog_coef.tolist() if self.exog_coef.shape[1] else None,
            "T": self.T,
            "burn_in": self.burn_in,
            "seed": self.seed,
            "labels": list(self.labels),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DgpSpec":
        """Spec from its :meth:`to_dict` form, as read from a JSON file.

        Every malformed payload raises a :class:`ConfigError`.
        """
        if not isinstance(payload, dict):
            raise ConfigError("a DGP spec must be a JSON object")
        reject_unknown_keys(payload, cls.__dataclass_fields__, "unknown DGP fields")
        if not all(json_int(payload.get(name, 0)) for name in ("T", "burn_in", "seed")):
            raise ConfigError("T, burn_in and seed must be integers")
        if not isinstance(payload.get("labels", []), list):
            raise ConfigError("labels must be a list")
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed DGP spec: {exc}") from None


def _simulate_panels(spec: DgpSpec, n: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Draw n panels from the spec's law, one per generator that ``rngs``
    yields, as one stack: endogenous columns (n, T, k) and exogenous
    columns (n, T, m).

    Each generator draws its shocks, then its exogenous columns, so a
    panel depends on its own generator alone.
    """
    k, p, m = spec.k, spec.p, spec.exog_coef.shape[1]
    total = spec.burn_in + spec.T
    eps = np.empty((n, total, k))
    Z = np.zeros((n, total, m))
    for i, rng in enumerate(rngs):
        eps[i] = rng.standard_normal((total, k))
        Z[i] = rng.standard_normal((total, m))  # at m = 0 the stream is untouched
    X = simulate(spec, eps @ spec.B.T, Z, np.zeros((n, p, k)))
    return X[:, p + spec.burn_in:], Z[:, spec.burn_in:]


def simulate_var(spec: DgpSpec, rng: np.random.Generator | None = None) -> TransformedPanel:
    """Draw a panel from the spec's law.

    Shocks are i.i.d. standard normal mapped through B; exogenous columns
    (when the spec has them) are i.i.d. standard normal as well. The chain
    starts at zeros and the burn-in rows are discarded.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    X, Z = _simulate_panels(spec, 1, [rng])
    return _panel(spec, X[0], Z[0])


def _panel(spec: DgpSpec, X: np.ndarray, Z: np.ndarray) -> TransformedPanel:
    """One simulated panel, labelled as the spec's columns."""
    z_labels = tuple(f"z{j}" for j in range(Z.shape[1]))
    return TransformedPanel(SYNTHETIC_START, X, Z, spec.labels, z_labels)


def analytic_irf(spec: DgpSpec, horizons: int, shock: str = SHOCK) -> IrfSet:
    """Exact responses from the true parameters, no estimation involved:
    :func:`~fiscalsvar.svar.irf` of the spec as its own law, with its own
    B."""
    return irf(StructuralModel(spec, spec.B, spec.labels), shock, horizons)


def analytic_multipliers(spec: DgpSpec, horizons: int) -> MultiplierPath:
    """True cumulative multiplier path implied by the spec."""
    return multiplier_path(analytic_irf(spec, horizons), RESPONSE, SHOCK, horizons)


@dataclass(frozen=True)
class RecoveryConfig:
    """How each Monte Carlo trial is scored: the multiplier horizons, and
    the bootstrap each trial runs for band coverage, or None for point
    estimates alone. Every trial, and its bootstrap, fits one
    :class:`ModelSpec`: the default lags on the spec's own ordering, at
    these horizons. :func:`monte_carlo_recovery` checks the values."""

    horizons: int = ModelSpec.horizons
    bootstrap: BootstrapConfig | None = None


@dataclass(frozen=True)
class RecoveryReport:
    """Estimated-vs-true multiplier paths across simulated trials.

    ``estimates`` has one row per successful trial; ``coverage`` (present
    only when trials ran a bootstrap) maps band level -> per-horizon share
    of trials whose band contained the true value.
    """

    analytic: np.ndarray  # (H,)
    estimates: np.ndarray  # (S, H)
    n_trials: int
    failures: int
    median_bias: np.ndarray  # (H,)
    median_abs_error: np.ndarray  # (H,)
    rmse: np.ndarray  # (H,)
    coverage: dict[int, np.ndarray] | None

    def __post_init__(self):
        for name in ("analytic", "estimates", "median_bias", "median_abs_error", "rmse"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def monte_carlo_recovery(
    spec: DgpSpec, n_trials: int, config: RecoveryConfig = RecoveryConfig()
) -> RecoveryReport:
    """Repeatedly simulate at the spec's T, estimate, and compare to truth.

    The run is checked before anything is allocated, each check a
    :class:`ConfigError`: the trial count, the horizons against the
    spec's T, the trials' :class:`ModelSpec` on the spec's labels, and
    the true path, whose cumulative G response must stay off zero.

    Trial t simulates with a substream hashed from (spec.seed, t); when a
    bootstrap config is supplied its master seed is re-derived per trial
    the same way, so the whole report is a pure function of the spec and
    config. The trials run in contiguous ranges, one forked worker
    process per usable CPU (:func:`~fiscalsvar.fanout.fan_out`; ``taskset
    -c 0`` runs them all in one); each range returns its estimate rows,
    failed trials and coverage hits in trial order, and they are joined
    in range order, so the report is the same for any worker count.
    Estimation failures are counted, not fatal; a trial the stacked fit
    fails is never bootstrapped. Paths are written in place by trial
    index, and a coverage trial keeps only its bootstrap's bands, so each
    process frees a trial's draws before its next trial's bootstrap.
    """
    if not 1 <= n_trials <= MAX_REPLICATIONS:
        raise ConfigError(f"n_trials must be between 1 and {MAX_REPLICATIONS}")
    if config.horizons >= spec.T:
        raise ConfigError(f"horizons ({config.horizons}) must be below the DGP's T ({spec.T})")
    model = ModelSpec(ordering=spec.labels, horizons=config.horizons)
    try:
        truth = analytic_multipliers(spec, config.horizons)
    except DegenerateDenominatorError as exc:
        raise ConfigError(f"the DGP has no true multiplier path: {exc}") from None

    def draw(ts):
        return _simulate_panels(spec, len(ts), stream_generators(spec.seed, ts, (0,)))

    def run_trials(trials: range):
        estimates = np.empty((len(trials), config.horizons))
        covered, failed = {}, {}
        for ts, X, Z, fit, stack_failed in fit_draws(trials, draw, model, spec.burn_in + spec.T):
            failed.update(stack_failed)
            estimates[ts - trials.start] = fit.paths
            if config.bootstrap is None:
                continue
            for i, t in enumerate(ts.tolist()):
                if t in stack_failed:
                    continue
                boot = replace(config.bootstrap, seed=derive_seed(spec.seed, t, 1))
                panel = _panel(spec, X[i], Z[i])
                try:
                    bands = bootstrap_inference(panel, boot, model).multiplier_bands
                except EstimationError as exc:
                    failed[t] = f"{type(exc).__name__}: {exc}"
                    continue
                for level, band in bands.items():
                    hit = (band[0] <= truth.values) & (truth.values <= band[1])
                    covered.setdefault(level, []).append(hit)
        return estimates, failed, covered

    parts = fanout.fan_out(run_trials, fanout.ranges(n_trials, fanout.usable_cpus()))
    estimates = np.concatenate([part[0] for part in parts])
    covered, failed = {}, {}
    for _, part_failed, part_covered in parts:
        failed.update(part_failed)
        for level, hits in part_covered.items():
            covered.setdefault(level, []).extend(hits)

    if len(failed) == n_trials:  # trial 0 among them
        raise InferenceError(f"all {n_trials} trials failed; first: {failed[0]}")
    estimates = np.delete(estimates, list(failed), axis=0)
    errors = estimates - truth.values
    coverage = None
    if covered:
        coverage = {
            level: np.mean(np.stack(hits), axis=0) for level, hits in covered.items()
        }
    return RecoveryReport(
        analytic=truth.values,
        estimates=estimates,
        n_trials=n_trials,
        failures=len(failed),
        median_bias=np.median(errors, axis=0),
        median_abs_error=np.median(np.abs(errors), axis=0),
        rmse=np.sqrt(np.mean(errors**2, axis=0)),
        coverage=coverage,
    )


def reference_spec(T: int = 84, seed: int = 0) -> DgpSpec:
    """A stable 4-variable system sized like the quarterly samples.

    Calibrated so the true 20-quarter multiplier sits near one and the
    shock scales resemble the transformed data: ratio-type columns move a
    few tenths of a percent per quarter, the rate column a few tenths of
    a point.
    """
    gamma1 = np.array(
        [
            [0.45, 0.00, 0.00, 0.00],
            [0.10, 0.30, 0.00, 0.00],
            [0.15, 0.05, 0.30, 0.00],
            [0.00, 0.00, 8.00, 0.40],
        ]
    )
    B = np.array(
        [
            [0.0050, 0.0, 0.0, 0.0],
            [0.0004, 0.0018, 0.0, 0.0],
            [0.0025, 0.0002, 0.0020, 0.0],
            [0.0100, 0.0050, 0.0300, 0.1400],
        ]
    )
    return DgpSpec(
        intercept=np.zeros(4),
        gammas=gamma1[np.newaxis],
        B=B,
        exog_coef=None,
        T=T,
        burn_in=200,
        seed=seed,
    )
