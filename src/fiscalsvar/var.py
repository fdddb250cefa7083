"""Reduced-form VAR estimation by equation-by-equation least squares.

The model for the k endogenous columns x_t of a panel is

    x_t = c + Gamma_1 x_{t-1} + ... + Gamma_p x_{t-p} + D z_t + u_t

with z_t the exogenous columns entering contemporaneously. All equations
share the same regressors, so the coefficients solve a single multi-target
least-squares problem. One R-only QR of the augmented design [W | Y]
gives the coefficients, the residual covariance and the rank check
(Golub & Van Loan, *Matrix Computations*, 5.3); a fit needs
T - p >= n_reg + k rows, so that covariance can have full rank.
:func:`simulate` runs a *law* forward from shocks:
anything with ``intercept``, ``gammas`` and ``exog_coef``, a fitted
:class:`VarEstimate` or a true :class:`~fiscalsvar.dgp.DgpSpec`. It
refuses mismatched shapes and draws every artificial panel, replication,
trial or snapshot country.

Every stage also runs over a leading stack of fits: the bootstrap fits a
stack of artificial panels with the same functions that fit one panel.
A stacked operation applies the single-fit routine matrix by matrix, so
a fit's numbers never depend on the rest of its stack.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, fit_error
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
        cls, A: np.ndarray, coef: np.ndarray, sigma: np.ndarray, p: int
    ) -> "VarEstimate":
        """The estimate of one fit from its design A (T - p, n_reg + k) of
        :func:`design_blocks`, its coefficients (n_reg, k) and its residual
        covariance; the residuals are A's response block less the fit."""
        n_reg, k = coef.shape
        residuals = A[:, n_reg:] - A[:, :n_reg] @ coef
        intercept, gammas, exog_coef = split_coefficients(coef, p, k)
        return cls(p, k, intercept, gammas, exog_coef, residuals, sigma, residuals.shape[0])


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
    """Panels (..., p + T, k), presample rows first, from a law (a
    :class:`VarEstimate` or a :class:`~fiscalsvar.dgp.DgpSpec`), shocks u_t
    (..., T, k), z_t (T, m) or (..., T, m), and the p rows (..., p, k)
    before them. Leading stack axes broadcast; any other mismatch with the
    law's p, k and m is a :class:`ShapeError`, never a broadcast."""
    p, k, _ = law.gammas.shape
    T = shocks.shape[-2] if shocks.ndim > 1 else 0
    for name, arr, want in (("shocks", shocks, (T, k)), ("presample", presample, (p, k)),
                            ("Z", Z, (T, law.exog_coef.shape[1]))):
        if arr.shape[-2:] != want:
            raise ShapeError(f"{name} must end in {want}, got {arr.shape}")
    base = shocks + law.intercept
    # skipped at m = 0 (the reference system): a zero-width Z @ D.T costs as much as a small one
    if law.exog_coef.shape[1]:
        base = base + Z @ law.exog_coef.T
    return var_recursion(law.gammas, base, presample)


def design_blocks(X: np.ndarray, Z: np.ndarray, p: int) -> np.ndarray:
    """The augmented design A = [W | Y] (..., T-p, n_reg + k) of a stack
    of panels X (..., T, k) with exogenous columns Z: either one (T, m)
    block every panel shares, as in the bootstrap, or one block per panel
    (..., T, m), as in Monte Carlo trials that each draw their own.

    Columns: constant, lag 1 through lag p of X (each lag keeps the
    panel's column order), the contemporaneous exogenous columns, and
    last the responses Y, lag 0 of X.
    """
    *lead, T, k = X.shape
    n_reg = 1 + k * p + Z.shape[-1]
    A = np.empty((*lead, T - p, n_reg + k))
    A[..., 0] = 1.0
    for lag in range(1, p + 1):
        A[..., 1 + (lag - 1) * k:1 + lag * k] = X[..., p - lag:T - lag, :]
    A[..., 1 + k * p:n_reg] = Z[..., p:, :]
    A[..., n_reg:] = X[..., p:, :]
    return A


def rank_deficient(rdiag: np.ndarray) -> np.ndarray:
    """Whether the smallest |R_ii| of each fit falls below
    :data:`RANK_RTOL` times its largest."""
    return rdiag.min(axis=-1) < RANK_RTOL * rdiag.max(axis=-1)


def least_squares(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares of the last k columns Y of designs A (..., T_eff,
    n_reg + k) on the rest, W, from A's R factor alone; every caller
    ensures T_eff >= n_reg + k, so R = [[R_WW, R_WY], [0, R_YY]] is
    square. The coefficients (..., n_reg, k) solve R_WW B = R_WY, and the
    residuals' U'U is R_YY'R_YY. Returns them, the symmetrised
    U'U / (T_eff - n_reg) (..., k, k) and |diag R_WW|. A fit that
    :func:`rank_deficient` rejects is solved against an identity R_WW
    instead, so it leaves the rest of its stack usable; its coefficients
    mean nothing.
    """
    R = np.linalg.qr(A, mode="r")
    n_reg = A.shape[-1] - k
    R_WW, R_YY = R[..., :n_reg, :n_reg], R[..., n_reg:, n_reg:]
    rdiag = np.abs(np.diagonal(R_WW, axis1=-2, axis2=-1))
    R_WW[rank_deficient(rdiag)] = np.eye(n_reg)
    coef = np.linalg.solve(R_WW, R[..., :n_reg, n_reg:])
    sigma = (R_YY.swapaxes(-1, -2) @ R_YY) / (A.shape[-2] - n_reg)
    return coef, (sigma + sigma.swapaxes(-1, -2)) / 2.0, rdiag


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
    """Fit the VAR(p) by :func:`least_squares`.

    Raises :class:`SampleSizeError` when there are fewer usable rows than
    regressors plus variables, T - p < n_reg + k, and :class:`RankError`
    when the regressor matrix is numerically rank-deficient.
    """
    if p < 1:
        raise ShapeError("lag order must be >= 1")
    if panel.rows <= p:
        raise fit_error("lags", panel.rows, p)
    k = panel.X.shape[1]
    A = design_blocks(panel.X, panel.Z, p)
    T_eff, n_reg = A.shape[0], A.shape[1] - k
    if T_eff < n_reg + k:
        raise fit_error("sample size", T_eff, n_reg)
    coef, sigma, rdiag = least_squares(A, k)
    if rank_deficient(rdiag):
        raise fit_error("rank", value=float(rdiag.min()))
    return VarEstimate.from_fit(A, coef, sigma, p)


def spectral_radius(F: np.ndarray) -> np.ndarray:
    """Largest eigenvalue modulus of each matrix in a stack (..., n, n)."""
    return np.abs(np.linalg.eigvals(F)).max(axis=-1)


def below_unit_radius(F: np.ndarray) -> np.ndarray:
    """Whether ``spectral_radius(F) < 1.0`` for each companion in a
    stack (C, n, n), mostly without eigenvalues.

    rho(F)^256 <= ||F^256|| in any induced norm (Horn & Johnson, *Matrix
    Analysis*, 5.6), so eight squarings prove rho(F) < 1 whenever
    ||F^256||_inf < 0.5. Only the matrices that bound cannot settle, an
    overflowing power among them, go to :func:`spectral_radius`.
    """
    P = F
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(8):
            P = P @ P
        stable = np.abs(P).sum(axis=-1).max(axis=-1) < 0.5
    rest = ~stable
    if rest.any():
        stable[rest] = spectral_radius(F[rest]) < 1.0
    return stable


def stability(law) -> tuple[float, bool]:
    """Largest companion eigenvalue modulus of a law, a fit or a
    :class:`~fiscalsvar.dgp.DgpSpec`, and whether it is below one.

    Reported only for a fit; estimation never rejects an explosive one.
    """
    top = float(spectral_radius(companion_matrix(law.gammas)))
    return top, top < 1.0
