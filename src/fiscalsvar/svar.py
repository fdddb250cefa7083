"""Recursive identification, impulse responses, and cumulative multipliers.

Structural shocks are recovered from reduced-form residuals through
u_t = B eps_t with B lower triangular, i.e. the Cholesky factor of the
residual covariance in the panel's column order. A shock ordered earlier
moves every later variable on impact but not vice versa.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, fit_error
from .var import VarEstimate, companion_matrix

# the multiplier's pair: the cumulative response of output to a
# government-spending shock
SHOCK = "G"
RESPONSE = "Y"

# a cumulative shock-variable response this close to zero has no ratio
DENOMINATOR_TOL = 1e-12


def column_of(ordering: tuple[str, ...], variable: str) -> int:
    """Position of ``variable`` in ``ordering``; ShapeError if absent."""
    try:
        return ordering.index(variable)
    except ValueError:
        raise ShapeError(f"unknown variable '{variable}', ordering is {ordering}") from None


class StructuralModel(NamedTuple):
    """A law, a fitted :class:`VarEstimate` or a true
    :class:`~fiscalsvar.dgp.DgpSpec`, with its impact matrix B and column
    names; its builder has already shaped B as k x k."""

    law: object
    B: np.ndarray
    ordering: tuple[str, ...]


@dataclass(frozen=True)
class IrfSet:
    """Responses of every variable to one structural shock, horizons 0..H."""

    ordering: tuple[str, ...]
    responses: np.ndarray  # (H + 1, k)

    def __post_init__(self):
        resp = np.array(self.responses, dtype=float)
        if resp.ndim != 2 or resp.shape[1] != len(self.ordering):
            raise ShapeError("responses must be (H + 1, k)")
        resp.setflags(write=False)
        object.__setattr__(self, "responses", resp)
        object.__setattr__(self, "ordering", tuple(self.ordering))

    @property
    def horizons(self) -> int:
        return self.responses.shape[0] - 1


@dataclass(frozen=True)
class MultiplierPath:
    """Cumulative multiplier estimates by horizon (1-based quarters)."""

    values: np.ndarray  # (H,)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] == 0:
            raise ShapeError("values must be a non-empty vector")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]

    def at_quarter(self, q: int) -> float:
        if not 1 <= q <= len(self):
            raise IndexError(f"quarter {q} outside 1..{len(self)}")
        return float(self.values[q - 1])


def cholesky_factor(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of symmetric matrices (..., n, n)
    and the pivot met at each step (..., n).

    A factor is valid only when all its pivots are positive. Past a
    non-positive pivot the recurrence goes on with a unit diagonal entry,
    so the rest of the stack is unaffected.
    """
    A = np.asarray(sigma, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ShapeError("sigma must be square")
    n = A.shape[-1]
    L = np.zeros(A.shape)
    pivots = np.empty(A.shape[:-1])
    for j in range(n):
        # one vector dot per row i >= j: row i of L with row j
        dots = (L[..., j:, None, :j] @ L[..., j, None, :j, None])[..., 0, 0]
        pivot = A[..., j, j] - dots[..., 0]
        pivots[..., j] = pivot
        L[..., j, j] = np.sqrt(np.where(pivot <= 0.0, 1.0, pivot))
        L[..., j + 1:, j] = (A[..., j + 1:, j] - dots[..., 1:]) / L[..., j, j, None]
    return L, pivots


def lower_cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric PD matrix.

    Fails with :class:`DecompositionError` naming the 1-based pivot when a
    diagonal entry is non-positive. Values within rounding of zero are not
    repaired; a covariance that close to singular has no usable ordering.
    """
    A = np.asarray(sigma, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError("sigma must be square")
    L, pivots = cholesky_factor(A)
    bad = np.flatnonzero(pivots <= 0.0)
    if bad.size:
        raise fit_error("pivot", int(bad[0]) + 1, float(pivots[bad[0]]))
    return L


def identify_cholesky(estimate: VarEstimate, ordering: tuple[str, ...]) -> StructuralModel:
    """Impact matrix from the Cholesky factor of the residual covariance.

    The estimate's columns must already be arranged in ``ordering``; this
    function does not permute, it only factorises.
    """
    if len(ordering) != estimate.k:
        raise ShapeError("ordering length must equal k")
    return StructuralModel(estimate, lower_cholesky(estimate.sigma), tuple(ordering))


def propagate_impulse(F: np.ndarray, impact: np.ndarray, horizons: int) -> np.ndarray:
    """Iterate the companion map: row h is the top k entries of F^h applied
    to the impact vector. Avoids forming explicit matrix powers.

    Runs over a stack of companions (..., kp, kp) and impact vectors
    (..., k); the result is (..., horizons + 1, k).
    """
    F = np.asarray(F, dtype=float)
    impact = np.asarray(impact, dtype=float)
    k = impact.shape[-1]
    if F.shape[-1] != F.shape[-2] or F.shape[-1] % k != 0:
        raise ShapeError(f"companion shape {F.shape} incompatible with k = {k}")
    states = np.zeros((*F.shape[:-2], horizons + 1, F.shape[-1], 1))
    states[..., 0, :k, 0] = impact
    for h in range(1, horizons + 1):
        np.matmul(F, states[..., h - 1, :, :], out=states[..., h, :, :])
    return states[..., :k, 0]


def irf(model: StructuralModel, shock: str, horizons: int) -> IrfSet:
    """Responses to a one-standard-deviation structural shock, from a
    fitted or a true law alike.

    Horizon h response is the top-left k x k block of F^h, F the law's
    companion, applied to the shock's column of B.
    """
    if horizons < 0:
        raise ShapeError("horizons must be >= 0")
    impact = model.B[:, column_of(model.ordering, shock)]
    responses = propagate_impulse(companion_matrix(model.law.gammas), impact, horizons)
    return IrfSet(ordering=model.ordering, responses=responses)


def cumulative_ratio(
    responses: np.ndarray, numerator: int, denominator: int, horizons: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative response of column ``numerator`` over that of column
    ``denominator`` for quarters 1..horizons, with the denominators.

    Runs over a stack of responses (..., H + 1, k); both results are
    (..., horizons). Quarter h sums horizons 0..h-1. A quarter whose
    denominator lies within DENOMINATOR_TOL of zero has no ratio: nan.
    """
    cum_num = np.cumsum(responses[..., :horizons, numerator], axis=-1)
    cum_den = np.cumsum(responses[..., :horizons, denominator], axis=-1)
    ratio = np.full(cum_num.shape, np.nan)
    np.divide(cum_num, cum_den, out=ratio, where=np.abs(cum_den) > DENOMINATOR_TOL)
    return ratio, cum_den


def multiplier_path(
    irfs: IrfSet,
    response: str = RESPONSE,
    shock_variable: str = SHOCK,
    horizons: int = 20,
) -> MultiplierPath:
    """Cumulative multiplier: summed output response over summed G response.

    Quarter h covers impact through horizon h - 1, so quarter 1 is the
    impact ratio alone. A denominator within 1e-12 of zero at any quarter
    aborts with the 1-based quarter attached.
    """
    if horizons < 1:
        raise ShapeError("need at least one quarter")
    if irfs.horizons < horizons - 1:
        raise ShapeError(
            f"IRF covers horizons 0..{irfs.horizons}, need 0..{horizons - 1}"
        )
    ratio, cum_g = cumulative_ratio(
        irfs.responses,
        column_of(irfs.ordering, response),
        column_of(irfs.ordering, shock_variable),
        horizons,
    )
    small = np.abs(cum_g) <= DENOMINATOR_TOL
    if np.any(small):
        q = int(np.argmax(small)) + 1
        raise fit_error("denominator", q, float(cum_g[q - 1]), shock_variable)
    return MultiplierPath(values=ratio)
