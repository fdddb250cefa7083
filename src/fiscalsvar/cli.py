"""Batch front end: config parsing, per-country runs, report emission.

Everything the command line produces lands in one output directory:
per-country IRF and multiplier CSVs, a combined multiplier table in text
and CSV form, SVG band plots, and a manifest recording the seed, a hash
of the semantically meaningful config fields, and per-country failure
counts. Outputs carry no timestamps, so a rerun with the same config and
seed reproduces the bundle byte for byte.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dgp as dgp_mod
from .bootstrap import (
    BootstrapConfig,
    BootstrapResult,
    ModelSpec,
    bootstrap_inference,
    derive_seed,
)
from .errors import ConfigError, DataError, EstimationError, FiscalSvarError, ShapeError
from .ingest import X_LABELS, build_panel, load_csv
from .plots import render_band_plot
from .series import Quarter
from .svar import MultiplierPath
from .var import stability

OUT_ENV_VAR = "FISCALSVAR_OUT"

DEFAULT_WINDOW = (Quarter(1999, 1), Quarter(2019, 4))

# 100 times the paper's 1000; every kept draw stays in memory until the
# bands are read, so a larger count is refused before the run starts
MAX_REPLICATIONS = 100_000

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ESTIMATION = 4


@dataclass(frozen=True)
class CountryEntry:
    code: str
    csv: Path
    name: str = ""
    schema: dict | None = None

    @property
    def display(self) -> str:
        return self.name or self.code.upper()


@dataclass(frozen=True)
class RunConfig:
    countries: tuple[CountryEntry, ...]
    window: tuple[Quarter, Quarter] = DEFAULT_WINDOW
    lags: int = 4
    horizons: int = 20
    ordering: tuple[str, ...] = ("G", "T", "Y", "i")
    replications: int = 1000
    seed: int = 0
    levels: tuple[int, ...] = (68, 90)
    output_dir: Path = Path("out")
    plots: bool = True

    def __post_init__(self):
        if not self.countries:
            raise ConfigError("countries must be non-empty")
        codes = [c.code for c in self.countries]
        if len(set(codes)) != len(codes):
            raise ConfigError(f"duplicate country codes: {codes}")
        if self.horizons < 1:
            raise ConfigError("horizons must be >= 1")
        if self.lags < 1:
            raise ConfigError("lags must be >= 1")
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ConfigError(f"replications must be between 1 and {MAX_REPLICATIONS}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if sorted(self.ordering) != sorted(X_LABELS):
            raise ConfigError(
                f"ordering {list(self.ordering)} is not a permutation of {list(X_LABELS)}"
            )
        if self.window[0] > self.window[1]:
            raise ConfigError(
                f"window start {self.window[0]} is after end {self.window[1]}"
            )
        quarters = self.window[1] - self.window[0] + 1
        if self.lags >= quarters or self.horizons >= quarters:
            raise ConfigError(
                f"lags ({self.lags}) and horizons ({self.horizons}) must be below "
                f"the window's {quarters} quarters"
            )
        if any(not 0 < lv < 100 for lv in self.levels) or len(set(self.levels)) != len(
            self.levels
        ):
            raise ConfigError(f"band levels must be distinct and in (0, 100): {self.levels}")
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "ordering", tuple(self.ordering))
        object.__setattr__(self, "levels", tuple(sorted(self.levels)))
        object.__setattr__(self, "output_dir", Path(self.output_dir))


_COUNTRY_KEYS = {"code", "csv", "name", "schema"}
_CONFIG_KEYS = {
    "countries",
    "window",
    "lags",
    "horizons",
    "ordering",
    "replications",
    "seed",
    "levels",
    "output_dir",
    "plots",
    "workers",
}


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_run_config(path) -> RunConfig:
    """Parse the strict JSON config; unknown keys are hard errors.

    Relative CSV paths are resolved against the config file's directory.
    A minimal config is just {"countries": [{"code": ..., "csv": ...}]}.
    """
    path = Path(path)
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")

    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    if "countries" not in raw:
        raise ConfigError(f"{path}: missing required key 'countries'")
    if not isinstance(raw["countries"], list):
        raise ConfigError(f"{path}: countries must be a list of objects")

    entries = []
    for i, item in enumerate(raw["countries"]):
        if not isinstance(item, dict):
            raise ConfigError(f"{path}: countries[{i}] must be an object")
        bad = sorted(set(item) - _COUNTRY_KEYS)
        if bad:
            raise ConfigError(f"{path}: countries[{i}]: unknown key(s): {', '.join(bad)}")
        for req in ("code", "csv"):
            if req not in item:
                raise ConfigError(f"{path}: countries[{i}]: missing '{req}'")
        schema = item.get("schema")
        if schema is not None and not isinstance(schema, dict):
            raise ConfigError(f"{path}: countries[{i}]: schema must be an object")
        try:
            csv_path = (path.parent / item["csv"]).resolve()
        except (TypeError, ValueError):  # not a string, a NUL byte, a lone surrogate
            raise ConfigError(f"{path}: countries[{i}]: csv must be a path string") from None
        entries.append(
            CountryEntry(
                code=str(item["code"]),
                csv=csv_path,
                name=str(item.get("name", "")),
                schema=schema,
            )
        )

    kwargs: dict = {"countries": tuple(entries)}
    if "window" in raw:
        win = raw["window"]
        if not (isinstance(win, dict) and set(win) == {"start", "end"}):
            raise ConfigError(f"{path}: window must be {{'start': ..., 'end': ...}}")
        try:
            kwargs["window"] = (Quarter.parse(win["start"]), Quarter.parse(win["end"]))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad window: {exc}") from None
    # workers is still parsed so older configs load, then discarded
    for key in ("lags", "horizons", "replications", "seed", "workers"):
        if key in raw:
            if not _is_int(raw[key]):
                raise ConfigError(f"{path}: {key} must be an integer")
            kwargs[key] = raw[key]
    kwargs.pop("workers", None)
    if "ordering" in raw:
        if not isinstance(raw["ordering"], list):
            raise ConfigError(f"{path}: ordering must be a list of variable names")
        kwargs["ordering"] = tuple(str(s) for s in raw["ordering"])
    if "levels" in raw:
        levels = raw["levels"]
        if not (isinstance(levels, list) and all(_is_int(lv) for lv in levels)):
            raise ConfigError(f"{path}: levels must be a list of integers")
        kwargs["levels"] = tuple(levels)
    if "plots" in raw:
        if not isinstance(raw["plots"], bool):
            raise ConfigError(f"{path}: plots must be true or false")
        kwargs["plots"] = raw["plots"]
    output_dir = raw.get("output_dir", os.environ.get(OUT_ENV_VAR, "out"))
    if not isinstance(output_dir, str):
        raise ConfigError(f"{path}: output_dir must be a path string")
    kwargs["output_dir"] = Path(output_dir)
    return RunConfig(**kwargs)


def config_hash(config: RunConfig) -> str:
    """SHA-256 over the canonical JSON of the fields that change results.

    The output directory is deliberately excluded: it does not affect a
    single number in the bundle.
    """
    payload = {
        "countries": [
            {
                "code": c.code,
                "csv": str(c.csv),
                "name": c.name,
                "schema": c.schema or {},
            }
            for c in config.countries
        ],
        "window": [str(config.window[0]), str(config.window[1])],
        "lags": config.lags,
        "horizons": config.horizons,
        "ordering": list(config.ordering),
        "replications": config.replications,
        "seed": config.seed,
        "levels": list(config.levels),
        "plots": config.plots,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _g17(v: float) -> str:
    return f"{float(v):.17g}"


def country_seed(master: int, code: str) -> int:
    """Per-country substream: master seed mixed with the code's bytes."""
    return derive_seed(master, *code.encode("utf-8"))


def _run_country(entry: CountryEntry, config: RunConfig) -> tuple[BootstrapResult, dict]:
    data = load_csv(entry.csv, entry.schema, country=entry.code)
    panel = build_panel(data, config.window)
    model = ModelSpec(
        lags=config.lags, ordering=config.ordering, shock="G", response="Y"
    )
    boot = BootstrapConfig(
        replications=config.replications,
        seed=country_seed(config.seed, entry.code),
        levels=config.levels,
        horizons=config.horizons,
    )
    result = bootstrap_inference(panel, boot, model)
    max_mod, stable = stability(result.estimate)
    info = {
        "rows": panel.rows,
        "failed_replications": result.n_failed,
        "unstable_replications": result.unstable,
        "max_companion_eigenvalue": round(max_mod, 12),
        "stable": stable,
    }
    return result, info


@contextmanager
def _for_country(code: str):
    """Name the country in any package error raised inside, once; the
    error keeps its type and attributes."""
    try:
        yield
    except FiscalSvarError as exc:
        prefix = f"country {code}: "
        if not str(exc).startswith(prefix):
            exc.args = (prefix + str(exc),)
        raise


def _output_dir(out: Path) -> Path:
    """Create the output directory; a path that cannot be one is a
    config error."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    return out


def run_pipeline(config: RunConfig) -> dict:
    """Run every country, one after another, and write the full report
    bundle.

    Returns the manifest dict (also written to manifest.json).
    """
    out = _output_dir(config.output_dir)

    results = {}
    for entry in config.countries:
        with _for_country(entry.code):
            results[entry.code] = _run_country(entry, config)

    written = []
    for entry in config.countries:
        result, _ = results[entry.code]
        written.append(_write_irf_csv(out, entry.code, result, config))
        written.append(_write_multiplier_csv(out, entry.code, result, config))
        if config.plots:
            written.extend(_write_plots(out, entry, result, config))

    table_txt, table_csv = emit_table(
        {e.code: results[e.code][0] for e in config.countries},
        labels={e.code: e.display for e in config.countries},
    )
    (out / "table1.txt").write_text(table_txt, encoding="utf-8")
    (out / "table1.csv").write_text(table_csv, encoding="utf-8")
    written += ["table1.txt", "table1.csv"]

    manifest = {
        "seed": config.seed,
        "config_hash": config_hash(config),
        "replications": config.replications,
        "horizons": config.horizons,
        "window": [str(config.window[0]), str(config.window[1])],
        "countries": {code: info for code, (_, info) in results.items()},
        "outputs": sorted(written + ["manifest.json"]),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return manifest


def _write_irf_csv(out: Path, code: str, result: BootstrapResult, config: RunConfig) -> str:
    name = f"irf_{code}.csv"
    irfs = result.point_irf
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    band_cols = [f"{side}{lv}" for lv in config.levels for side in ("lo", "hi")]
    writer.writerow(["h", "variable", "response", "cumulative"] + band_cols)
    for var_idx, variable in enumerate(irfs.ordering):
        cumulative = irfs.cumulative(variable)
        for h in range(config.horizons + 1):
            row = [h, variable, _g17(irfs.responses[h, var_idx]), _g17(cumulative[h])]
            for lv in config.levels:
                band = result.irf_bands[lv]
                row += [_g17(band[0, h, var_idx]), _g17(band[1, h, var_idx])]
            writer.writerow(row)
    (out / name).write_text(buf.getvalue(), encoding="utf-8")
    return name


def _write_multiplier_csv(
    out: Path, code: str, result: BootstrapResult, config: RunConfig
) -> str:
    name = f"multipliers_{code}.csv"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    band_cols = [f"{side}{lv}" for lv in config.levels for side in ("lo", "hi")]
    writer.writerow(["h", "m"] + band_cols + ["stars"])
    for h in range(config.horizons):
        row = [h + 1, _g17(result.point_multipliers.values[h])]
        for lv in config.levels:
            band = result.multiplier_bands[lv]
            row += [_g17(band[0, h]), _g17(band[1, h])]
        row.append(result.stars[h])
        writer.writerow(row)
    (out / name).write_text(buf.getvalue(), encoding="utf-8")
    return name


def _write_plots(
    out: Path, entry: CountryEntry, result: BootstrapResult, config: RunConfig
) -> list[str]:
    m_name = f"multipliers_{entry.code}.svg"
    m = result.point_multipliers.values
    render_band_plot(
        np.arange(1, len(m) + 1),
        m,
        result.multiplier_bands,
        title=f"{entry.display}: cumulative spending multiplier",
        path=out / m_name,
    )

    y_idx = result.point_irf.ordering.index("Y")
    irf_name = f"irf_{entry.code}.svg"
    y = result.point_irf.responses[:, y_idx]
    render_band_plot(
        np.arange(y.shape[0]),
        y,
        {lv: band[:, :, y_idx] for lv, band in result.irf_bands.items()},
        title=f"{entry.display}: output response to a spending shock",
        path=out / irf_name,
    )
    return [m_name, irf_name]


def emit_table(
    results: dict[str, BootstrapResult | tuple[MultiplierPath, tuple[str, ...]]],
    labels: dict[str, str] | None = None,
) -> tuple[str, str]:
    """Combined multiplier table, one column per country, rows Q1..QH.

    Returns (text, csv) renderings. Text cells are 3-decimal values with
    star suffixes; the CSV keeps full precision and splits stars into a
    separate column so it parses back losslessly.
    """
    prepared = {}
    for code, res in results.items():
        if isinstance(res, BootstrapResult):
            prepared[code] = (res.point_multipliers, res.stars)
        else:
            prepared[code] = res
    horizons = {len(path) for path, _ in prepared.values()}
    if len(horizons) != 1:
        raise ShapeError(f"countries disagree on horizon count: {sorted(horizons)}")
    H = horizons.pop()
    labels = labels or {code: code.upper() for code in prepared}

    codes = list(prepared)
    cells = {
        code: [
            f"{prepared[code][0].values[h]:.3f}{prepared[code][1][h]}" for h in range(H)
        ]
        for code in codes
    }
    widths = {
        code: max(len(labels[code]), max(len(c) for c in cells[code])) for code in codes
    }
    lines = []
    header = "    " + "  ".join(labels[code].rjust(widths[code]) for code in codes)
    lines.append(header.rstrip())
    for h in range(H):
        row = f"Q{h + 1}".ljust(4) + "  ".join(
            cells[code][h].rjust(widths[code]) for code in codes
        )
        lines.append(row.rstrip())
    text = "\n".join(lines) + "\n"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    head = ["quarter"]
    for code in codes:
        head += [f"{code}_m", f"{code}_stars"]
    writer.writerow(head)
    for h in range(H):
        row = [f"Q{h + 1}"]
        for code in codes:
            path, stars = prepared[code]
            row += [_g17(path.values[h]), stars[h]]
        writer.writerow(row)
    return text, buf.getvalue()


def validate(config_path) -> RunConfig:
    """Parse the config and check every input loads and covers the window.

    No estimation runs; raises the same errors run_pipeline would.
    """
    config = load_run_config(config_path)
    for entry in config.countries:
        with _for_country(entry.code):
            data = load_csv(entry.csv, entry.schema, country=entry.code)
            build_panel(data, config.window)
    return config


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    updates = {}
    if args.out is not None:
        updates["output_dir"] = Path(args.out)
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.reps is not None:
        updates["replications"] = args.reps
    if args.horizon is not None:
        updates["horizons"] = args.horizon
    if args.countries:
        keep = [c.strip() for c in args.countries.split(",") if c.strip()]
        chosen = tuple(c for c in config.countries if c.code in keep)
        missing = sorted(set(keep) - {c.code for c in chosen})
        if missing:
            raise ConfigError(f"--countries names unknown code(s): {', '.join(missing)}")
        updates["countries"] = chosen
    return replace(config, **updates) if updates else config


def _cmd_validate(args) -> int:
    config = validate(args.config)
    w0, w1 = config.window
    print(f"config ok: {len(config.countries)} countries "
          f"({', '.join(c.code for c in config.countries)})")
    print(f"window {w0}..{w1}, lags={config.lags}, horizons={config.horizons}, "
          f"replications={config.replications}, seed={config.seed}, "
          f"levels={list(config.levels)}")
    print(f"output_dir={config.output_dir}")
    return 0


def _cmd_estimate(args) -> int:
    config = _apply_overrides(load_run_config(args.config), args)
    manifest = run_pipeline(config)
    print(f"wrote {len(manifest['outputs'])} files to {config.output_dir}")
    for code, info in manifest["countries"].items():
        print(
            f"  {code}: rows={info['rows']} failed={info['failed_replications']} "
            f"unstable={info['unstable_replications']} "
            f"max|eig|={info['max_companion_eigenvalue']:.3f}"
        )
    return 0


def _cmd_montecarlo(args) -> int:
    path = Path(args.config)
    payload = _read_json(path, "DGP file")
    if args.seed is not None and isinstance(payload, dict):
        payload = {**payload, "seed": args.seed}
    trials = args.reps if args.reps is not None else 100
    horizons = args.horizon if args.horizon is not None else 20
    if trials < 1 or horizons < 1:
        raise ConfigError("--reps and --horizon must be >= 1")
    if trials > MAX_REPLICATIONS:
        raise ConfigError(f"--reps must not exceed {MAX_REPLICATIONS}")
    try:
        spec = dgp_mod.DgpSpec.from_dict(payload)
        if horizons >= spec.T:
            raise ConfigError(f"--horizon {horizons} must be below the DGP's T ({spec.T})")
        # the true path needs the spec to have G and Y columns
        dgp_mod.analytic_multipliers(spec, horizons)
    except FiscalSvarError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    report = dgp_mod.monte_carlo_recovery(
        spec, trials, dgp_mod.RecoveryConfig(horizons=horizons)
    )
    print(f"{trials} trials at T={spec.T}, failures {report.failures}")
    print("  h   true m   med bias   med |err|     rmse")
    for h in range(horizons):
        print(
            f"{h + 1:>3}  {report.analytic[h]:>7.3f}  {report.median_bias[h]:>+9.4f}"
            f"  {report.median_abs_error[h]:>9.4f}  {report.rmse[h]:>7.4f}"
        )
    if args.out is not None:
        out = _output_dir(Path(args.out))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["h", "analytic", "median_bias", "median_abs_error", "rmse"])
        for h in range(horizons):
            writer.writerow(
                [h + 1, _g17(report.analytic[h]), _g17(report.median_bias[h]),
                 _g17(report.median_abs_error[h]), _g17(report.rmse[h])]
            )
        (out / "recovery.csv").write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {out / 'recovery.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiscalsvar",
        description="Spending multipliers from small quarterly VARs with bootstrap bands",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "parse a run config and check the input files"),
        ("estimate", "run the full per-country pipeline and write reports"),
        ("montecarlo", "simulate a known system and report estimator recovery"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--reps", type=int, default=None,
            help="bootstrap replications (estimate) or trials (montecarlo)",
        )
        p.add_argument("--horizon", type=int, default=None, help="multiplier horizon H")
        p.add_argument(
            "--countries", default=None,
            help="comma-separated country codes to keep (estimate only)",
        )
        p.add_argument(
            "--workers", type=int, default=None,
            help="ignored; still accepted so existing command lines parse "
                 "(the program runs on one thread)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "validate": _cmd_validate,
        "estimate": _cmd_estimate,
        "montecarlo": _cmd_montecarlo,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
