"""Reduced-form VAR estimation by equation-by-equation least squares.

The model for the k endogenous columns x_t of a panel is

    x_t = c + Gamma_1 x_{t-1} + ... + Gamma_p x_{t-p} + D z_t + u_t

with z_t the exogenous columns entering contemporaneously. All equations
share the same regressors, so the coefficients solve a single multi-target
least-squares problem. :func:`simulate` runs the law forward from shocks:
it draws every artificial panel, replication, trial or snapshot country.

Every stage also runs over a leading stack of fits: the bootstrap fits a
chunk of artificial panels with the same functions that fit one panel.
A stacked operation applies the single-fit routine matrix by matrix, so
a fit's numbers never depend on the rest of its stack.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DofError, ShapeError, fit_error
from .ingest import TransformedPanel

# relative tolerance on the diagonal of R in the QR factorisation
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class VarEstimate:
    """Least-squares estimate of a VAR(p) with exogenous regressors.

    ``gammas`` stacks the lag matrices as shape (p, k, k), ``exog_coef`` is
    (k, m), ``residuals`` is (T - p, k) aligned to the regression sample.
    """

    p: int
    k: int
    intercept: np.ndarray
    gammas: np.ndarray
    exog_coef: np.ndarray
    residuals: np.ndarray
    sigma: np.ndarray
    sample_size: int

    def __post_init__(self):
        for name in ("intercept", "gammas", "exog_coef", "residuals", "sigma"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.gammas.shape != (self.p, self.k, self.k):
            raise ShapeError(f"gammas shape {self.gammas.shape} != {(self.p, self.k, self.k)}")
        if self.sigma.shape != (self.k, self.k):
            raise ShapeError("sigma must be k x k")
        if self.intercept.shape != (self.k,):
            raise ShapeError("intercept must have length k")

    @classmethod
    def from_fit(
        cls, coef: np.ndarray, residuals: np.ndarray, sigma: np.ndarray, p: int
    ) -> "VarEstimate":
        """The estimate of one fit from its coefficients (n_reg, k), ordered
        as the columns of :func:`design_blocks`, its residuals and its
        residual covariance."""
        k = coef.shape[-1]
        intercept, gammas, exog_coef = split_coefficients(coef, p, k)
        return cls(p, k, intercept, gammas, exog_coef, residuals, sigma, residuals.shape[0])

    @property
    def n_regressors(self) -> int:
        return 1 + self.p * self.k + self.exog_coef.shape[1]

    def companion(self) -> np.ndarray:
        return companion_matrix(self.gammas)


def companion_matrix(gammas: np.ndarray) -> np.ndarray:
    """Stack lag matrices (..., p, k, k) into companion form (..., k*p, k*p).

    The top block row is [Gamma_1 ... Gamma_p]; below sits a shifted
    identity so that powers of the result propagate the lag state.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim < 3 or gammas.shape[-1] != gammas.shape[-2]:
        raise ShapeError(f"gammas must be (p, k, k), got {gammas.shape}")
    *lead, p, k, _ = gammas.shape
    F = np.zeros((*lead, k * p, k * p))
    F[..., :k, :] = gammas.swapaxes(-3, -2).reshape(*lead, k, k * p)
    F[..., k:, :-k] = np.eye(k * (p - 1))
    return F


def var_recursion(gammas: np.ndarray, base: np.ndarray, presample: np.ndarray) -> np.ndarray:
    """Run x_t = base_t + Gamma_1 x_{t-1} + ... + Gamma_p x_{t-p} forward.

    ``base`` (..., T, k) carries every term but the lags (intercept,
    exogenous part, shock) and ``presample`` (..., p, k) the p rows before
    it. Returns a C-ordered (..., p + T, k), presample rows first.
    """
    p, k = gammas.shape[-3], gammas.shape[-1]
    g_stack = companion_matrix(gammas)[..., :k, :]
    *lead, T, _ = base.shape
    # rows run backwards in time, so the lag state [x_{t-1}, ..., x_{t-p}]
    # of every step is one contiguous block
    R = np.empty((*lead, p + T, k))
    R[..., T:, :] = presample[..., ::-1, :]
    for t in range(T - 1, -1, -1):
        state = R[..., t + 1:t + 1 + p, :].reshape(*lead, k * p, 1)
        R[..., t, :] = base[..., T - 1 - t, :] + (g_stack @ state)[..., 0]
    # forward order and the memory layout of a single panel, so the
    # stages after the recursion meet the same strides stacked or not
    return np.ascontiguousarray(R[..., ::-1, :])


def simulate(law, shocks: np.ndarray, Z: np.ndarray, presample: np.ndarray) -> np.ndarray:
    """Panels (..., p + T, k), presample rows first, from the law of a
    :class:`VarEstimate` or a :class:`~fiscalsvar.dgp.DgpSpec`, shocks u_t
    (..., T, k), z_t (T, m) or (..., T, m), and the p rows before them."""
    base = shocks + law.intercept
    # skipped at m = 0 (the reference system): a zero-width Z @ D.T costs as much as a small one
    if law.exog_coef.shape[1]:
        base = base + Z @ law.exog_coef.T
    return var_recursion(law.gammas, base, presample)


def design_blocks(X: np.ndarray, Z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Response block Y (..., T-p, k) and regressor block W of a stack of
    panels X (..., T, k) with exogenous columns Z: either one (T, m) block
    every panel shares, as in the bootstrap, or one block per panel
    (..., T, m), as in Monte Carlo trials that each draw their own.

    W columns: constant, then lag 1 through lag p of X (each lag keeps the
    panel's column order), then the contemporaneous exogenous columns.
    """
    *lead, T, k = X.shape
    W = np.empty((*lead, T - p, 1 + k * p + Z.shape[-1]))
    W[..., 0] = 1.0
    for lag in range(1, p + 1):
        W[..., 1 + (lag - 1) * k:1 + lag * k] = X[..., p - lag:T - lag, :]
    W[..., 1 + k * p:] = Z[..., p:, :]
    return X[..., p:, :], W


def lagged_design(panel: TransformedPanel, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Build the response block Y (T-p, k) and regressor block W of one
    panel; see :func:`design_blocks`.
    """
    if p < 1:
        raise ShapeError("lag order must be >= 1")
    T = panel.X.shape[0]
    if T <= p:
        raise fit_error("lags", T, p)
    return design_blocks(panel.X, panel.Z, p)


def rank_deficient(rdiag: np.ndarray) -> np.ndarray:
    """Whether the smallest |R_ii| of each fit falls below
    :data:`RANK_RTOL` times its largest."""
    return rdiag.min(axis=-1) < RANK_RTOL * rdiag.max(axis=-1)


def least_squares(W: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QR least squares of Y on W over a stack of fits.

    Returns coefficients (..., n_reg, k), residuals (..., T_eff, k) and
    |diag R| (..., n_reg). A fit that :func:`rank_deficient` rejects is
    solved against an identity R instead, so it leaves the rest of its
    stack usable; its coefficients mean nothing.
    """
    Q, R = np.linalg.qr(W)
    rdiag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    R[rank_deficient(rdiag)] = np.eye(R.shape[-1])
    coef = np.linalg.solve(R, Q.swapaxes(-1, -2) @ Y)
    return coef, Y - W @ coef, rdiag


def split_coefficients(
    coef: np.ndarray, p: int, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intercept (..., k), lag matrices (..., p, k, k) and exogenous
    loadings (..., k, m) from coefficients (..., n_reg, k) ordered as the
    columns of :func:`design_blocks`.
    """
    B = coef.swapaxes(-1, -2)
    lags = B[..., 1:1 + p * k].reshape(*B.shape[:-2], k, p, k)
    return B[..., 0], lags.swapaxes(-3, -2), B[..., 1 + p * k:]


def estimate_var(panel: TransformedPanel, p: int = 4) -> VarEstimate:
    """Fit the VAR(p) by QR-based least squares.

    Raises :class:`SampleSizeError` when there are not strictly more usable
    rows than regressors, and :class:`RankError` when the regressor matrix
    is numerically rank-deficient.
    """
    Y, W = lagged_design(panel, p)
    T_eff, n_reg = W.shape
    if T_eff <= n_reg:
        raise fit_error("sample size", T_eff, n_reg)
    coef, residuals, rdiag = least_squares(W, Y)
    if rank_deficient(rdiag):
        raise fit_error("rank", value=float(rdiag.min()))
    return VarEstimate.from_fit(coef, residuals, residual_cov(residuals, n_reg), p)


def residual_cov(residuals: np.ndarray, n_regressors: int) -> np.ndarray:
    """Degrees-of-freedom adjusted residual covariance U'U / (T_eff - n_reg)
    of each residual block in a stack (..., T_eff, k).

    The result is explicitly symmetrised so downstream factorisations never
    see rounding-level asymmetry.
    """
    U = np.asarray(residuals, dtype=float)
    if U.ndim < 2:
        raise ShapeError("residuals must be at least 2-d")
    T_eff = U.shape[-2]
    dof = T_eff - n_regressors
    if dof <= 0:
        raise DofError(f"non-positive degrees of freedom: {T_eff} rows, {n_regressors} regressors")
    sigma = (U.swapaxes(-1, -2) @ U) / dof
    return (sigma + sigma.swapaxes(-1, -2)) / 2.0


def spectral_radius(F: np.ndarray) -> np.ndarray:
    """Largest eigenvalue modulus of each matrix in a stack (..., n, n)."""
    return np.abs(np.linalg.eigvals(F)).max(axis=-1)


def stability(estimate: VarEstimate) -> tuple[float, bool]:
    """Largest companion eigenvalue modulus and whether it is below one.

    Reported only; estimation never rejects an explosive fit.
    """
    top = float(spectral_radius(estimate.companion()))
    return top, top < 1.0
