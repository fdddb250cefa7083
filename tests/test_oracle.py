"""The point chain against a textbook reference that shares none of its code.

The reference builds the lagged design row by row, solves it with
``np.linalg.lstsq`` (SVD, not QR), factors the dof-adjusted residual
covariance with ``np.linalg.cholesky``, propagates responses with
``matrix_power`` and forms cumulative ratios with ``cumsum``. It runs on
the four snapshot panels and on 40 replications of each, rebuilt from
numpy's ``SeedSequence([seed, r])`` streams as the bootstrap draws them, against :func:`point_fit` and
:func:`stacked_fit`. Largest deviations measured at seed 7: 7.7e-14 for
responses (relative to the largest response) and 3.1e-12 for multipliers
(elementwise relative); the tolerances leave about a hundredfold margin.
"""
from pathlib import Path

import numpy as np
import pytest

from fiscalsvar.bootstrap import ModelSpec, point_fit, stacked_fit
from fiscalsvar.cli import load_panels, load_run_config
from fiscalsvar.var import simulate

SNAPSHOT_CONFIG = Path(__file__).resolve().parent.parent / "data" / "v4_config.json"
RESPONSE_RTOL = 1e-11
MULTIPLIER_RTOL = 1e-9


def textbook_chain(X, Z, p, H, g, y):
    """Responses (H + 1, k) to a shock in column g, and the cumulative
    multipliers of column y over column g for quarters 1..H."""
    T, k = X.shape
    rows = []
    for t in range(p, T):
        lags = [X[t - lag] for lag in range(1, p + 1)]
        rows.append(np.concatenate([[1.0], *lags, Z[t]]))
    W = np.array(rows)
    coef = np.linalg.lstsq(W, X[p:], rcond=None)[0]
    U = X[p:] - W @ coef
    B = np.linalg.cholesky(U.T @ U / (T - p - W.shape[1]))
    F = np.eye(k * p, k=-k)
    F[:k] = coef[1:1 + k * p].T
    responses = np.array([np.linalg.matrix_power(F, h)[:k, :k] @ B[:, g] for h in range(H + 1)])
    cum = np.cumsum(responses[:H], axis=0)
    return responses, cum[:, y] / cum[:, g]


@pytest.mark.parametrize("code", ["cz", "hu", "pl", "sk"])
def test_point_and_stacked_fits_match_the_textbook_chain(code):
    model = ModelSpec()
    p, H = model.lags, model.horizons
    g, y = model.ordering.index("G"), model.ordering.index("Y")
    panel = load_panels(load_run_config(SNAPSHOT_CONFIG))[code]
    estimate, irfs, path = point_fit(panel, model)
    U = estimate.residuals
    idx = np.stack([
        np.random.default_rng(np.random.SeedSequence([7, r])).integers(0, len(U), size=len(U))
        for r in range(40)
    ])
    draws = simulate(estimate, U[idx], panel.Z[p:], panel.X[:p])
    fit = stacked_fit(draws, panel.Z, model)
    assert not fit.failures
    cases = [(panel.X, irfs.responses, path.values), *zip(draws, fit.responses, fit.paths)]
    for X, responses, multipliers in cases:
        want_responses, want_multipliers = textbook_chain(X, panel.Z, p, H, g, y)
        scale = np.abs(want_responses).max()
        assert np.abs(responses - want_responses).max() <= RESPONSE_RTOL * scale
        assert multipliers == pytest.approx(want_multipliers, rel=MULTIPLIER_RTOL, abs=0)
