"""Synthetic data generation and closed-form oracles.

A :class:`DgpSpec` carries true coefficients, so simulated panels come
with exact impulse responses and multiplier paths to check the whole
estimation chain against: least-squares recovery, identification,
band coverage.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    ModelSpec,
    bootstrap_inference,
    derive_seed,
    point_fit,
)
from .errors import (
    DecompositionError,
    DegenerateDenominatorError,
    DomainError,
    InferenceError,
    RankError,
    SampleSizeError,
    ShapeError,
    UnstableDgpError,
)
from .ingest import TransformedPanel
from .series import Quarter
from .svar import IrfSet, MultiplierPath, multiplier_path, propagate_impulse
from .var import companion_matrix, spectral_radius, var_recursion

SYNTHETIC_START = Quarter(2000, 1)


@dataclass(frozen=True)
class DgpSpec:
    """True parameters of a simulated system plus sampling directives."""

    intercept: np.ndarray  # (k,)
    gammas: np.ndarray  # (p, k, k)
    B: np.ndarray  # (k, k) lower triangular, positive diagonal
    exog_coef: np.ndarray | None  # (k, m) or None
    T: int
    burn_in: int = 200
    seed: int = 0
    labels: tuple[str, ...] = ("G", "T", "Y", "i")

    def __post_init__(self):
        gammas = np.array(self.gammas, dtype=float)
        B = np.array(self.B, dtype=float)
        intercept = np.array(self.intercept, dtype=float)
        if gammas.ndim != 3 or gammas.shape[1] != gammas.shape[2]:
            raise ShapeError(f"gammas must be (p, k, k), got {gammas.shape}")
        k = gammas.shape[1]
        if B.shape != (k, k):
            raise ShapeError(f"B must be {k} x {k}")
        if intercept.shape != (k,):
            raise ShapeError(f"intercept must have length {k}")
        if len(self.labels) != k:
            raise ShapeError("labels must name every column")
        if np.any(np.triu(B, 1) != 0.0):
            raise ShapeError("B must be lower triangular")
        if np.any(np.diag(B) <= 0.0):
            raise DomainError("B must have a strictly positive diagonal")
        exog = self.exog_coef
        if exog is not None:
            exog = np.array(exog, dtype=float)
            if exog.ndim != 2 or exog.shape[0] != k:
                raise ShapeError(f"exog_coef must be ({k}, m)")
            exog.setflags(write=False)
        if self.T < 1:
            raise DomainError("T must be >= 1")
        if self.burn_in < 0:
            raise DomainError("burn-in must be >= 0")

        top = float(spectral_radius(companion_matrix(gammas)))
        if top >= 1.0:
            raise UnstableDgpError(
                f"companion eigenvalue modulus {top:.4f} >= 1; spec is explosive"
            )
        for name, arr in (("gammas", gammas), ("B", B), ("intercept", intercept)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "exog_coef", exog)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def p(self) -> int:
        return self.gammas.shape[0]

    @property
    def k(self) -> int:
        return self.gammas.shape[1]

    @property
    def m(self) -> int:
        return 0 if self.exog_coef is None else self.exog_coef.shape[1]

    def to_dict(self) -> dict:
        return {
            "intercept": self.intercept.tolist(),
            "gammas": self.gammas.tolist(),
            "B": self.B.tolist(),
            "exog_coef": None if self.exog_coef is None else self.exog_coef.tolist(),
            "T": self.T,
            "burn_in": self.burn_in,
            "seed": self.seed,
            "labels": list(self.labels),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DgpSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise DomainError(f"unknown DGP fields: {', '.join(unknown)}")
        kwargs = dict(payload)
        if "labels" in kwargs:
            kwargs["labels"] = tuple(kwargs["labels"])
        return cls(**kwargs)


def simulate_var(spec: DgpSpec, rng: np.random.Generator | None = None) -> TransformedPanel:
    """Draw a panel from the spec's law.

    Shocks are i.i.d. standard normal mapped through B; exogenous columns
    (when the spec has them) are i.i.d. standard normal as well. The chain
    starts at zeros and the burn-in rows are discarded.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    k, p, m = spec.k, spec.p, spec.m
    total = spec.burn_in + spec.T

    eps = rng.standard_normal((total, k))
    base = eps @ spec.B.T + spec.intercept
    Z = np.zeros((total, 0))
    if m:
        Z = rng.standard_normal((total, m))
        base = base + Z @ spec.exog_coef.T

    X = var_recursion(spec.gammas, base, np.zeros((p, k)))[p:]
    z_labels = tuple(f"z{j}" for j in range(m))
    return TransformedPanel(
        SYNTHETIC_START, X[spec.burn_in:], Z[spec.burn_in:], spec.labels, z_labels
    )


def analytic_irf(spec: DgpSpec, horizons: int, shock: str) -> IrfSet:
    """Exact responses from the true parameters, no estimation involved."""
    if shock not in spec.labels:
        raise ShapeError(f"unknown shock '{shock}', labels are {spec.labels}")
    F = companion_matrix(spec.gammas)
    impact = spec.B[:, spec.labels.index(shock)]
    responses = propagate_impulse(F, impact, horizons)
    return IrfSet(shock=shock, ordering=spec.labels, responses=responses)


def analytic_multipliers(
    spec: DgpSpec, horizons: int = 20, shock: str = "G", response: str = "Y"
) -> MultiplierPath:
    """True cumulative multiplier path implied by the spec."""
    irfs = analytic_irf(spec, horizons, shock)
    return multiplier_path(irfs, response, shock, horizons)


@dataclass(frozen=True)
class RecoveryConfig:
    """How each Monte Carlo trial estimates the model."""

    lags: int = 4
    horizons: int = 20
    shock: str = "G"
    response: str = "Y"
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

    Trial t simulates with a substream hashed from (spec.seed, t); when a
    bootstrap config is supplied its master seed is re-derived per trial
    the same way, so the whole report is a pure function of the spec and
    config. Estimation failures are counted, not fatal.
    """
    if n_trials < 1:
        raise DomainError("n_trials must be >= 1")
    truth = analytic_multipliers(spec, config.horizons, config.shock, config.response)
    model = ModelSpec(
        lags=config.lags,
        ordering=spec.labels,
        shock=config.shock,
        response=config.response,
    )

    rows = []
    covered: dict[int, list[np.ndarray]] = {}
    failures = 0
    for t in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, t, 0]))
        panel = simulate_var(spec, rng)
        try:
            if config.bootstrap is not None:
                boot_cfg = replace(
                    config.bootstrap, seed=derive_seed(spec.seed, t, 1)
                )
                result = bootstrap_inference(panel, boot_cfg, model)
                rows.append(result.point_multipliers.values)
                for level, band in result.multiplier_bands.items():
                    hit = (band[0] <= truth.values) & (truth.values <= band[1])
                    covered.setdefault(level, []).append(hit)
            else:
                _, _, path = point_fit(panel, model, config.horizons)
                rows.append(path.values)
        except (
            RankError,
            SampleSizeError,
            DecompositionError,
            DegenerateDenominatorError,
            InferenceError,
        ):
            failures += 1

    if not rows:
        raise InferenceError(f"all {n_trials} trials failed")
    estimates = np.stack(rows)
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
        failures=failures,
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
