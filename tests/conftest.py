import csv

import numpy as np

import fiscalsvar.fanout as fanout_mod
from fiscalsvar.errors import fit_error
from fiscalsvar.ingest import SERIES
from fiscalsvar.series import Quarter


def synthetic_levels(start: Quarter, n: int, seed: int) -> dict[str, list]:
    """Plausible raw level series for pipeline tests; no economics implied."""
    rng = np.random.default_rng(seed)
    cpi = 100.0 * 1.005 ** np.arange(n)
    real_gdp = 100.0 * np.cumprod(
        np.concatenate([[1.0], 1.0 + 0.005 + 0.01 * rng.standard_normal(n - 1)])
    )
    gdp = real_gdp * cpi
    total = 0.45 * gdp * (1.0 + 0.01 * rng.standard_normal(n))
    subsidies = 0.05 * gdp * (1.0 + 0.02 * rng.standard_normal(n))
    vat = 0.12 * gdp * (1.0 + 0.015 * rng.standard_normal(n))
    short_rate = 4.0 + np.cumsum(0.2 * rng.standard_normal(n))
    us_gdp = 90.0 * np.cumprod(
        np.concatenate([[1.0], 1.0 + 0.005 + 0.008 * rng.standard_normal(n - 1)])
    )
    us_inflation = 0.005 + 0.003 * rng.standard_normal(n)
    us_short_rate = 3.0 + np.cumsum(0.15 * rng.standard_normal(n))
    return {
        "date": [str(start + i) for i in range(n)],
        "total_expenditure": total.tolist(),
        "subsidies": subsidies.tolist(),
        "vat": vat.tolist(),
        "gdp": gdp.tolist(),
        "cpi": cpi.tolist(),
        "short_rate": short_rate.tolist(),
        "us_gdp": us_gdp.tolist(),
        "us_inflation": us_inflation.tolist(),
        "us_short_rate": us_short_rate.tolist(),
    }


def write_country_csv(path, columns: dict[str, list], header: list[str] | None = None):
    """Write a raw country file; column order follows the canonical schema."""
    names = header or ["date"] + list(SERIES)
    n = len(columns["date"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for i in range(n):
            writer.writerow(
                [columns[name][i] if name in columns else "" for name in names]
            )


def pin_workers(monkeypatch, n):
    """Make :func:`~fiscalsvar.fanout.fan_out` see ``n`` usable CPUs, so
    it runs at most ``n`` processes at once; at 1 it runs the plain loop,
    and what a test records in this process covers every unit."""
    monkeypatch.setattr(fanout_mod, "usable_cpus", lambda: n)


def fail_draws(monkeypatch, module, failing):
    """Make the shared draw loop, as ``module`` looks it up, fail the draws
    ``failing`` at the rank check, as if their designs had lost rank; the
    loop other modules call is left as it is."""
    real = module.fit_draws
    exc = fit_error("rank", 0, 0.0)

    def draws(*args):
        for indices, X, Z, fit, failed in real(*args):
            for t in indices.tolist():
                if t in failing:
                    failed[t] = f"{type(exc).__name__}: {exc}"
            yield indices, X, Z, fit, dict(sorted(failed.items()))

    monkeypatch.setattr(module, "fit_draws", draws)


# (CHUNK, ROWS) pairs for the size-invariance tests. For bootstrap draws
# of the 84-row reference panel (80 rows each) they give blocks and fit
# stacks of: 100 and 25 (the defaults); 1 and 1; 12 and 4; 25 and 2 with
# a last stack of 1 (the row budget binds); 7 and 1 (one panel exceeds
# the budget); 64 and 64. For Monte Carlo trials (284 rows each): 25 and
# 25; 1 and 1; 4 and 4; 25 and 2, 1; 7 and 1; 64 and 64.
SIZES = [(25, 8192), (1, 1), (4, 1000), (25, 200), (7, 50), (64, 8192)]
