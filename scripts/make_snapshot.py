#!/usr/bin/env python3
"""Build the vendored synthetic V4 dataset under data/.

For each country this script

1. fits a small true system (one or two lags, recursive impact matrix)
   whose closed-form cumulative multiplier path tracks the country's
   reference column,
2. simulates the transformed variables at the working sample length
   with shared synthetic US controls, through the library's
   ``fiscalsvar.var.simulate``, the simulator of every bootstrap
   replication and Monte Carlo trial,
3. inverts the variable construction back to raw levels (nominal
   expenditure, subsidies, VAT, GDP, CPI, interest rates) so the files
   look like ordinary statistical-office exports, and
4. keeps the first data seed whose full-pipeline estimates, at the run
   seed pinned in data/v4_config.json, land in per-country acceptance
   boxes: long-run ordering pl > hu > cz > sk, three positive paths, a
   negative Slovak path that loses significance after the fourth quarter.

Determinism: everything is derived from the constants below, so
rerunning the script reproduces data/ byte for byte;
tests/test_cli.py::TestSnapshotScript rebuilds every country's file from
its seed in data/manifest.json to check that. Requires scipy (for the
least-squares fit) on top of the package's own dependencies.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from fiscalsvar.bootstrap import BootstrapConfig, ModelSpec, bootstrap_inference
from fiscalsvar.cli import country_seed, csv_text
from fiscalsvar.dgp import DgpSpec, analytic_multipliers
from fiscalsvar.ingest import SERIES, build_panel, load_csv
from fiscalsvar.series import Quarter
from fiscalsvar.var import simulate

N_QUARTERS = 84
T = N_QUARTERS - 1  # transformed rows
START = Quarter(1999, 1)
END = START + (N_QUARTERS - 1)
BURN = 200
RUN_SEED = 0  # pinned in v4_config.json
US_SEED = 20240
VINTAGE = "synthetic-v4-2026-08"

# reference cumulative multiplier columns the fits aim at
TARGETS = {
    "cz": [0.335, 1.405, 0.709, 0.780, 0.859, 0.546, 1.030, 0.730, 0.894, 0.796,
           0.699, 0.912, 0.777, 0.843, 0.789, 0.787, 0.856, 0.788, 0.830, 0.806],
    "hu": [1.420, 1.396, 1.177, 1.072, 1.036, 1.114, 1.160, 1.156, 1.159, 1.156,
           1.164, 1.173, 1.170, 1.162, 1.150, 1.145, 1.146, 1.147, 1.147, 1.144],
    "pl": [1.753, 1.876, 1.692, 1.595, 1.569, 1.572, 1.551, 1.552, 1.598, 1.631,
           1.660, 1.687, 1.709, 1.725, 1.737, 1.746, 1.752, 1.757, 1.761, 1.764],
    "sk": [0.386, 0.398, 0.315, 0.199, 0.034, -0.064, -0.082, -0.126, -0.192, -0.171,
           -0.185, -0.167, -0.173, -0.182, -0.180, -0.172, -0.169, -0.179, -0.175, -0.175],
}

NAMES = {"cz": "Czechia", "hu": "Hungary", "pl": "Poland", "sk": "Slovakia"}

# (b11, b33): spending-shock and output-noise scales. Slovakia gets a
# noisier output equation so its long-run band stays wide enough to
# straddle zero.
NOISE = {
    "cz": (0.005, 0.0020),
    "hu": (0.005, 0.0020),
    "pl": (0.005, 0.0020),
    "sk": (0.003, 0.0040),
}

# acceptance box per country: long-run (Q20) estimate range; SK must also
# be unstarred from Q5 on
ACCEPT_Q20 = {
    "cz": (0.55, 1.00),
    "hu": (1.02, 1.30),
    "pl": (1.55, 2.00),
    "sk": (-0.40, -0.05),
}

# exogenous loadings: US growth, US inflation, US rate change
EXOG_COEF = np.array(
    [
        [0.05, 0.00, 0.000],
        [0.08, 0.02, 0.000],
        [0.15, -0.05, -0.001],
        [0.50, 2.00, 0.300],
    ]
)

INTERCEPT = np.array([0.0004, 0.0003, 0.006, 0.0])

# initial real levels at 1999-Q1 and rate starting points
INITS = {
    "cz": dict(gdp=1000.0, net_share=0.19, vat_share=0.11, rate=5.5, infl=0.009),
    "hu": dict(gdp=900.0, net_share=0.21, vat_share=0.12, rate=9.0, infl=0.011),
    "pl": dict(gdp=2400.0, net_share=0.20, vat_share=0.11, rate=8.5, infl=0.010),
    "sk": dict(gdp=420.0, net_share=0.18, vat_share=0.10, rate=6.0, infl=0.008),
}


def _gamma_one(r0, a, rho_g, rho_y, b11, b33):
    g1 = np.array(
        [
            [rho_g, 0.00, 0.00, 0.00],
            [0.08, 0.25, 0.00, 0.00],
            [a, 0.05, rho_y, 0.00],
            [0.00, 0.00, 4.00, 0.35],
        ]
    )
    B = np.array(
        [
            [b11, 0.0, 0.0, 0.0],
            [0.1 * b11, 0.0018, 0.0, 0.0],
            [r0 * b11, 0.0002, b33, 0.0],
            [0.0100, 0.0050, 0.0300, 0.1200],
        ]
    )
    return g1[np.newaxis], B


def _gamma_two(r0, a1, a2, rho_g, r1, r2, b11, b33):
    g1, B = _gamma_one(r0, a1, rho_g, r1, b11, b33)
    g2 = np.zeros((4, 4))
    g2[2, 0] = a2
    g2[2, 2] = r2
    return np.concatenate([g1, g2[np.newaxis]]), B


def _spec(gammas, B):
    return DgpSpec(
        intercept=INTERCEPT, gammas=gammas, B=B, exog_coef=EXOG_COEF, T=T, seed=0
    )


def fit_country(code: str) -> DgpSpec:
    """Least-squares fit of the true dynamics to the reference column."""
    target = np.array(TARGETS[code])
    b11, b33 = NOISE[code]
    two_lags = code == "cz"  # the spiky column needs oscillatory dynamics

    def build(theta):
        if two_lags:
            return _spec(*_gamma_two(*theta, b11, b33))
        return _spec(*_gamma_one(*theta, b11, b33))

    weights = np.ones(20)
    weights[[0, 1]] = 4.0
    weights[19] = 8.0

    def residual(theta):
        try:
            m = analytic_multipliers(build(theta), 20).values
        except Exception:
            return 1e3 * np.ones(20)
        return (m - target) * weights

    if two_lags:
        x0 = [0.34, 0.9, -0.5, 0.3, 0.4, -0.3]
        bounds = ([-2, -2, -2, 0.05, -1.5, -0.95], [3, 2, 2, 0.92, 1.5, 0.95])
    else:
        x0 = [target[0], -0.1, 0.5, 0.5]
        bounds = ([-2, -0.6, 0.05, 0.05], [3, 0.6, 0.92, 0.92])
    sol = least_squares(residual, x0, bounds=bounds)
    return build(sol.x)


def us_block(total: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Shared US controls: levels over ``total`` quarters plus the
    transformed (growth, inflation, rate-change) matrix, one row per
    transformed quarter.
    """
    rng = np.random.default_rng(US_SEED)
    growth = np.empty(total)
    infl = np.empty(total)
    dr = np.empty(total)
    g, p, d = 0.005, 0.005, 0.0
    for t in range(total):
        g = 0.005 + 0.6 * (g - 0.005) + 0.004 * rng.standard_normal()
        p = 0.005 + 0.5 * (p - 0.005) + 0.002 * rng.standard_normal()
        d = 0.3 * d + 0.15 * rng.standard_normal()
        growth[t], infl[t], dr[t] = g, p, d
    gdp = 100.0 * np.cumprod(1.0 + growth)
    rate = 4.0 + np.cumsum(dr)
    levels = {"us_gdp": gdp, "us_inflation": infl, "us_short_rate": rate}
    z = np.column_stack(
        [np.diff(gdp) / gdp[:-1], infl[1:], np.diff(rate)]
    )  # row tt-1 is the transformed value at quarter tt
    return levels, z


def simulate_country(spec: DgpSpec, z_full: np.ndarray, data_seed: int) -> np.ndarray:
    """Simulate the transformed columns with the library's simulator from a
    zero presample, keeping the last T rows."""
    eps = np.random.default_rng(data_seed).standard_normal((z_full.shape[0], spec.k))
    return simulate(spec, eps @ spec.B.T, z_full, np.zeros((spec.p, spec.k)))[-T:]


def invert_levels(code: str, X: np.ndarray, us_levels: dict[str, np.ndarray]) -> dict:
    """Rebuild raw level columns whose transforms reproduce X exactly."""
    ini = INITS[code]
    rng = np.random.default_rng(country_seed(902, code))

    # smooth country CPI; only positivity matters downstream
    pi = np.empty(N_QUARTERS)
    level = ini["infl"]
    for t in range(N_QUARTERS):
        level = ini["infl"] + 0.6 * (level - ini["infl"]) + 0.0015 * rng.standard_normal()
        pi[t] = level
    cpi = 100.0 * np.cumprod(1.0 + pi)

    real_gdp = np.empty(N_QUARTERS)
    real_net = np.empty(N_QUARTERS)
    real_vat = np.empty(N_QUARTERS)
    rate = np.empty(N_QUARTERS)
    real_gdp[0] = ini["gdp"]
    real_net[0] = ini["net_share"] * ini["gdp"]
    real_vat[0] = ini["vat_share"] * ini["gdp"]
    rate[0] = ini["rate"]
    for t in range(1, N_QUARTERS):
        g_t, t_t, y_t, i_t = X[t - 1]
        real_gdp[t] = real_gdp[t - 1] * (1.0 + y_t)
        real_net[t] = real_net[t - 1] + g_t * real_gdp[t - 1]
        real_vat[t] = real_vat[t - 1] + t_t * real_gdp[t - 1]
        rate[t] = rate[t - 1] + i_t

    for name, series in (("gdp", real_gdp), ("net", real_net), ("vat", real_vat)):
        if np.any(series <= 0.0):
            raise RuntimeError(f"{code}: reconstructed real {name} went non-positive")

    gdp = real_gdp * cpi
    net = real_net * cpi
    vat = real_vat * cpi
    subsidies = 0.05 * gdp * (1.0 + 0.03 * np.sin(np.arange(N_QUARTERS) / 6.0))
    total = net + subsidies

    keep = slice(-N_QUARTERS, None)
    return {
        "date": [str(START + i) for i in range(N_QUARTERS)],
        "total_expenditure": total,
        "subsidies": subsidies,
        "vat": vat,
        "gdp": gdp,
        "cpi": cpi,
        "short_rate": rate,
        "us_gdp": us_levels["us_gdp"][keep],
        "us_inflation": us_levels["us_inflation"][keep],
        "us_short_rate": us_levels["us_short_rate"][keep],
    }


def write_csv(path: Path, columns: dict) -> None:
    """One country's snapshot file: the date, then SERIES in canonical order."""
    names = ("date", *SERIES)
    path.write_text(csv_text({name: columns[name] for name in names}), encoding="utf-8")


def evaluate(csv_path: Path, code: str, replications: int):
    """Run the real ingest + inference path exactly as the CLI would."""
    data = load_csv(csv_path, country=code)
    panel = build_panel(data, (START, END))
    config = BootstrapConfig(
        replications=replications, seed=country_seed(RUN_SEED, code)
    )
    return bootstrap_inference(panel, config, ModelSpec())


def acceptable(code: str, result) -> bool:
    lo, hi = ACCEPT_Q20[code]
    q20 = result.point_multipliers.at_quarter(20)
    if not lo <= q20 <= hi:
        return False
    if result.n_failed:
        return False
    if code == "sk":
        if any(result.stars[h] for h in range(4, 20)):
            return False
        if result.point_multipliers.at_quarter(1) <= 0.1:
            return False
    return True


def check_roundtrip(csv_path: Path, code: str, X: np.ndarray) -> None:
    data = load_csv(csv_path, country=code)
    panel = build_panel(data, (START, END))
    err = np.max(np.abs(panel.X - X))
    if err > 1e-10:
        raise RuntimeError(f"{code}: level inversion drifted ({err:.2e})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=Path(__file__).resolve().parent.parent / "data")
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--max-seeds", type=int, default=400)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    us_levels, z_full = us_block(BURN + N_QUARTERS)
    chosen: dict[str, int] = {}
    results = {}

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for code in TARGETS:
            spec = fit_country(code)
            truth = analytic_multipliers(spec, 20)
            print(f"{code}: true m1={truth.at_quarter(1):+.3f} m20={truth.at_quarter(20):+.3f}")
            for data_seed in range(args.max_seeds):
                X = simulate_country(spec, z_full, derive_data_seed(code, data_seed))
                columns = invert_levels(code, X, us_levels)
                csv_path = tmp / f"{code}.csv"
                write_csv(csv_path, columns)
                result = evaluate(csv_path, code, args.reps)
                if acceptable(code, result):
                    check_roundtrip(csv_path, code, X)
                    write_csv(out / f"{code}.csv", columns)
                    chosen[code] = data_seed
                    results[code] = result
                    q20 = result.point_multipliers.at_quarter(20)
                    print(f"{code}: seed {data_seed} accepted, "
                          f"q20={q20:+.3f}{result.stars[19]}")
                    break
            else:
                print(f"{code}: no acceptable seed in 0..{args.max_seeds - 1}",
                      file=sys.stderr)
                return 1

    config = {
        "countries": [
            {"code": code, "csv": f"{code}.csv", "name": NAMES[code]}
            for code in TARGETS
        ],
        "window": {"start": str(START), "end": str(END)},
        "replications": args.reps,
        "seed": RUN_SEED,
    }
    (out / "v4_config.json").write_text(
        json.dumps(config, indent=2) + "\n", encoding="utf-8"
    )
    manifest = {
        "vintage": VINTAGE,
        "generator": "scripts/make_snapshot.py",
        "note": "Simulated from per-country data-generating processes; "
        "not statistical-office data.",
        "window": f"{START}..{END}",
        "us_seed": US_SEED,
        "data_seeds": chosen,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print("\nlong-run column:")
    for code in TARGETS:
        m = results[code].point_multipliers
        print(f"  {code}: q20={m.at_quarter(20):+.3f}{results[code].stars[19]}")
    return 0


def derive_data_seed(code: str, index: int) -> int:
    return country_seed(701 + index, code)


if __name__ == "__main__":
    sys.exit(main())
