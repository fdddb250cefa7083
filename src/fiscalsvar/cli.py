"""Batch front end: config parsing, per-country runs, report emission.

``validate`` and ``estimate`` share one run path: :func:`_run_config`
applies the command-line overrides to the config file, and
:func:`load_panels` reads every input. ``validate`` stops there and
checks, creating nothing, that the output directory could be created, so
it rejects what ``estimate`` would reject before its first bootstrap.

Everything ``estimate`` produces lands in one output directory:
per-country IRF and multiplier CSVs, a combined multiplier table in text
and CSV form, SVG band plots, and a manifest recording the seed, a hash
of the semantically meaningful config fields, and per-country failure
counts. Each country draws from its own seed (:func:`country_seed`) and
no output holds a timestamp, so the bundle keeps the determinism
contract stated in :mod:`fiscalsvar.bootstrap`; :func:`write_bundle`
states the output rule.

Every process pays for its imports at start-up, so :mod:`fiscalsvar.dgp`,
:mod:`fiscalsvar.plots` and ``hashlib`` are imported where they are
used, and ``validate`` loads none of them.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    ModelSpec,
    bootstrap_inference,
    derive_seed,
)
from .errors import ConfigError, DataError, EstimationError, FiscalSvarError, ShapeError
from .errors import json_int, reject_unknown_keys
from .fanout import fan_out
from .ingest import X_LABELS, TransformedPanel, build_panel, load_csv
from .series import Quarter
from .svar import RESPONSE, MultiplierPath
from .var import stability

OUT_ENV_VAR = "FISCALSVAR_OUT"

DEFAULT_WINDOW = (Quarter(1999, 1), Quarter(2019, 4))

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ESTIMATION = 4


# a country code names the country's output files, so it is held to
# characters that are a plain file-name fragment on every platform
_CODE_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-.")


@dataclass(frozen=True)
class CountryEntry:
    code: str
    csv: Path
    name: str = ""
    # a copy of the caller's map, left out of the hash as a dict has none;
    # equal entries still hash equal
    schema: dict | None = field(default=None, hash=False)

    def __post_init__(self):
        if not (isinstance(self.code, str) and self.code and set(self.code) <= _CODE_CHARS):
            raise ConfigError(
                f"country code {self.code!r} must be a non-empty string of ASCII "
                "letters, digits, '_', '-' or '.'"
            )
        # the name titles the SVG plots and heads the table: XML allows no
        # C0 control character, U+FFFE or U+FFFF, and UTF-8 no lone surrogate
        name = self.name
        if not isinstance(name, str) or any(
            c < " " or "\ud7ff" < c < "\ue000" or c in "\ufffe\uffff" for c in name
        ):
            raise ConfigError(
                f"country {self.code}: name {name!r} must be a string without control "
                "characters, U+FFFE, U+FFFF or lone surrogates"
            )
        if not isinstance(self.csv, (str, Path)):
            raise ConfigError(f"country {self.code}: csv must be a path string")
        object.__setattr__(self, "csv", Path(self.csv))
        if isinstance(self.schema, dict):  # load_csv checks any other value
            object.__setattr__(self, "schema", dict(self.schema))

    @property
    def display(self) -> str:
        return self.name or self.code.upper()


@dataclass(frozen=True)
class RunConfig:
    """One run's settings. ``__post_init__`` builds ``model``, the
    :class:`ModelSpec`, and ``bootstrap``, the :class:`BootstrapConfig` at
    the master seed; each checks its own fields, and this class checks
    only what needs the whole run."""

    countries: tuple[CountryEntry, ...]
    window: tuple[Quarter, Quarter] = DEFAULT_WINDOW
    lags: int = ModelSpec.lags
    horizons: int = ModelSpec.horizons
    ordering: tuple[str, ...] = ModelSpec.ordering
    replications: int = BootstrapConfig.replications
    seed: int = BootstrapConfig.seed
    levels: tuple[int, ...] = BootstrapConfig.levels
    output_dir: Path = Path("out")
    plots: bool = True

    def __post_init__(self):
        if not isinstance(self.plots, bool):
            raise ConfigError("plots must be true or false")
        if not isinstance(self.output_dir, (str, Path)):
            raise ConfigError("output_dir must be a path string")
        if not (isinstance(self.countries, (list, tuple))
                and all(isinstance(c, CountryEntry) for c in self.countries)):
            raise ConfigError("countries must be a list of CountryEntry values")
        if not self.countries:
            raise ConfigError("countries must be non-empty")
        if not (isinstance(self.window, (list, tuple)) and len(self.window) == 2
                and all(isinstance(q, Quarter) for q in self.window)):
            raise ConfigError("window must be a pair of quarters")
        # a code names output files, and cz and CZ clash where file names ignore case
        codes = [c.code for c in self.countries]
        if len({c.lower() for c in codes}) != len(codes):
            raise ConfigError(f"duplicate country codes (ignoring case): {codes}")
        model = ModelSpec(self.lags, self.ordering, self.horizons)
        if sorted(model.ordering) != sorted(X_LABELS):
            raise ConfigError(
                f"ordering {list(model.ordering)} is not a permutation of {list(X_LABELS)}"
            )
        boot = BootstrapConfig(self.replications, self.seed, self.levels)
        if self.plots and len(boot.levels) != 2:
            raise ConfigError(f"plots need exactly two band levels, got {list(boot.levels)}")
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
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "window", tuple(self.window))
        object.__setattr__(self, "ordering", model.ordering)
        object.__setattr__(self, "levels", boot.levels)
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "bootstrap", boot)


_COUNTRY_KEYS = {"code", "csv", "name", "schema"}
# workers is still parsed so older configs load, then discarded
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} | {"workers"}


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


@contextmanager
def _prefixed(prefix: str):
    """Put ``prefix`` in front of the message of any package error raised
    inside, once; the error keeps its type and attributes."""
    try:
        yield
    except FiscalSvarError as exc:
        if not str(exc).startswith(prefix):
            exc.args = (prefix + str(exc),)
        raise


def _country_entry(path: Path, i: int, item) -> CountryEntry:
    """``countries[i]`` of the config at ``path``: its keys are checked and
    a relative CSV path resolved here, its fields by :class:`CountryEntry`."""
    with _prefixed(f"{path}: "):
        if not isinstance(item, dict):
            raise ConfigError(f"countries[{i}] must be an object")
        with _prefixed(f"countries[{i}]: "):
            reject_unknown_keys(item, _COUNTRY_KEYS, "unknown key(s)")
            for req in ("code", "csv"):
                if req not in item:
                    raise ConfigError(f"missing '{req}'")
            csv_path = item["csv"]
            if isinstance(csv_path, str):  # CountryEntry refuses any other type
                try:
                    csv_path = (path.parent / csv_path).resolve()
                except ValueError:  # a NUL byte, a lone surrogate
                    raise ConfigError("csv is not a valid path") from None
    return CountryEntry(item["code"], csv_path, item.get("name", ""), item.get("schema"))


def load_run_config(path) -> RunConfig:
    """Parse the strict JSON config into a :class:`RunConfig`.

    Only what needs the file is checked here: the JSON shape, unknown and
    required keys, relative CSV paths (resolved against the config file's
    directory), the window's {"start", "end"} text form and ``workers``.
    Every other value goes to the constructors as it was read, and each
    class checks its own fields; their messages do not name the file.
    ``load_csv`` checks a ``schema`` map when it reads that country's CSV.
    A minimal config is just {"countries": [{"code": ..., "csv": ...}]}.
    """
    path = Path(path)
    raw = _read_json(path, "config")
    with _prefixed(f"{path}: "):
        if not isinstance(raw, dict):
            raise ConfigError("top level must be an object")
        reject_unknown_keys(raw, _CONFIG_KEYS, "unknown config key(s)")
        if "countries" not in raw:
            raise ConfigError("missing required key 'countries'")
        if not isinstance(raw["countries"], list):
            raise ConfigError("countries must be a list of objects")
    kwargs = dict(raw, countries=tuple(
        _country_entry(path, i, item) for i, item in enumerate(raw["countries"])))
    with _prefixed(f"{path}: "):
        if "window" in kwargs:
            win = kwargs["window"]
            if not (isinstance(win, dict) and set(win) == {"start", "end"}):
                raise ConfigError("window must be {'start': ..., 'end': ...}")
            try:
                kwargs["window"] = (Quarter.parse(win["start"]), Quarter.parse(win["end"]))
            except ValueError as exc:
                raise ConfigError(f"bad window: {exc}") from None
        if not json_int(kwargs.pop("workers", 0)):
            raise ConfigError("workers must be an integer")
    kwargs.setdefault("output_dir", os.environ.get(OUT_ENV_VAR, "out"))
    return RunConfig(**kwargs)


def config_hash(config: RunConfig) -> str:
    """SHA-256 over the canonical JSON of every :class:`RunConfig` field
    but the output directory, with each country's CSV as the SHA-256 of
    its bytes, not its path. Where the output or the checkout lies does
    not affect a single number in the bundle, and any edit to the data
    does. A CSV that cannot be read is a :class:`DataError`.
    """
    import hashlib

    payload = {f.name: getattr(config, f.name) for f in fields(RunConfig)}
    del payload["output_dir"]
    payload["countries"] = []
    for c in config.countries:
        try:
            digest = hashlib.sha256(Path(c.csv).read_bytes()).hexdigest()
        except OSError as exc:
            raise DataError(f"cannot read {c.csv}: {exc.strerror}") from None
        payload["countries"].append(
            {"code": c.code, "csv": digest, "name": c.name, "schema": c.schema or {}})
    payload["window"] = [str(config.window[0]), str(config.window[1])]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def country_seed(master: int, code: str) -> int:
    """Per-country substream: master seed mixed with the code's bytes."""
    return derive_seed(master, *code.encode("utf-8"))


def _run_country(
    entry: CountryEntry, panel: TransformedPanel, config: RunConfig
) -> tuple[dict[str, str], tuple[MultiplierPath, tuple[str, ...]], dict]:
    """Bootstrap one country and render its files. Returns {file name:
    text}, its table column (multiplier path, stars) and its manifest
    entry; the result, draws and all, dies on return."""
    boot = replace(config.bootstrap, seed=country_seed(config.seed, entry.code))
    result = bootstrap_inference(panel, boot, config.model)
    max_mod, stable = stability(result.estimate)
    info = {
        "rows": panel.rows,
        "failed_replications": result.n_failed,
        "unstable_replications": result.unstable,
        "max_companion_eigenvalue": round(max_mod, 12),
        "stable": stable,
    }
    irfs, m = result.point_irf, result.point_multipliers.values
    steps = range(config.horizons + 1)
    files = {
        f"irf_{entry.code}.csv": csv_text({
            "h": [h for _ in irfs.ordering for h in steps],
            "variable": [v for v in irfs.ordering for _ in steps],
            "response": irfs.responses.T.ravel(),
            "cumulative": np.cumsum(irfs.responses, axis=0).T.ravel(),
            **_band_columns(result.irf_bands, config.levels),
        }),
        f"multipliers_{entry.code}.csv": csv_text({
            "h": steps[1:],
            "m": m,
            **_band_columns(result.multiplier_bands, config.levels),
            "stars": result.stars,
        }),
    }
    if config.plots:
        from .plots import render_band_plot

        y = irfs.ordering.index(RESPONSE)
        files[f"multipliers_{entry.code}.svg"] = render_band_plot(
            steps[1:], m, result.multiplier_bands,
            title=f"{entry.display}: cumulative spending multiplier",
        )
        files[f"irf_{entry.code}.svg"] = render_band_plot(
            steps, irfs.responses[:, y],
            {lv: band[:, :, y] for lv, band in result.irf_bands.items()},
            title=f"{entry.display}: output response to a spending shock",
        )
    return files, (result.point_multipliers, result.stars), info


def load_panels(config: RunConfig) -> dict[str, TransformedPanel]:
    """Read every country's CSV and build its panel over the window."""
    panels = {}
    for entry in config.countries:
        with _prefixed(f"country {entry.code}: "):
            data = load_csv(entry.csv, entry.schema, country=entry.code)
            panels[entry.code] = build_panel(data, config.window)
    return panels


def check_output_dir(out: Path) -> None:
    """Refuse, creating nothing, an output directory that
    :func:`write_bundle` could not create: the nearest existing ancestor
    of ``out`` must be a writable directory. Every command calls it
    before its work and :func:`write_bundle` after it."""
    for path in (out, *out.parents):
        try:
            path.stat()
        except FileNotFoundError:
            continue
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from None
        if not (path.is_dir() and os.access(path, os.W_OK | os.X_OK)):
            raise ConfigError(
                f"cannot create output directory {out}: {path} is not a writable directory"
            )
        return


def run_pipeline(config: RunConfig) -> dict:
    """Read every input, then run and render every country, keeping only
    its files' text, and write the full report bundle after the last
    country. The output directory is checked before the first country
    and created after the last, so a failed run leaves none behind. The
    countries run in contiguous runs, one forked worker
    process per usable CPU (:func:`~fiscalsvar.fanout.fan_out`); the
    first failing country in config order is the one reported. Returns
    the manifest dict (also written to manifest.json).
    """
    panels = load_panels(config)
    check_output_dir(config.output_dir)

    def run(entry: CountryEntry):
        with _prefixed(f"country {entry.code}: "):
            return _run_country(entry, panels[entry.code], config)

    files, columns, countries = {}, {}, {}
    for entry, (texts, column, info) in zip(config.countries,
                                             fan_out(run, config.countries)):
        files.update(texts)
        columns[entry.code], countries[entry.code] = column, info

    files["table1.txt"], files["table1.csv"] = emit_table(
        columns, labels={e.code: e.display for e in config.countries})
    manifest = {
        "seed": config.seed,
        "config_hash": config_hash(config),
        "replications": config.replications,
        "horizons": config.horizons,
        "window": [str(config.window[0]), str(config.window[1])],
        "countries": countries,
        "outputs": sorted([*files, "manifest.json"]),
    }
    files["manifest.json"] = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    write_bundle(config.output_dir, files)
    return manifest


def csv_text(columns: dict) -> str:
    """CSV of equal-length named columns: a header of the names, then one
    row per index. Float cells get 17 significant digits, so they parse
    back exactly; other cells are written as they are."""
    cells = [[f"{v:.17g}" if isinstance(v, float) else v for v in col]
             for col in columns.values()]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([list(columns), *zip(*cells, strict=True)])
    return buf.getvalue()


def write_bundle(out: Path, files: dict[str, str]) -> None:
    """Publish ``files``, {name: text}, into ``out`` as UTF-8, creating
    ``out`` and its parents; every output directory and file is made
    here. The last file is the bundle's index, as ``manifest.json`` is
    ``estimate``'s. Its old copy is removed first, and each file is
    written to a temporary name beside its own and renamed into place in
    order, so a directory holds an index only when every file it lists
    came from the run that wrote it. A directory that cannot be created,
    or a file that cannot be written, is a config error naming it; the
    temporary file is removed on any exception, an interrupt included.
    """
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    name = next(reversed(files))  # the index, until the loop names each file
    try:
        (out / name).unlink(missing_ok=True)
        for name, text in files.items():
            partial = out / f".{name}.partial"
            try:
                partial.write_text(text, encoding="utf-8")
                os.replace(partial, out / name)
            except BaseException:
                partial.unlink(missing_ok=True)
                raise
    except OSError as exc:
        raise ConfigError(f"cannot write {out / name}: {exc.strerror or exc}") from None


def _band_columns(bands: dict[int, np.ndarray], levels) -> dict:
    """lo/hi columns per level of bands shaped (2, H) or (2, H + 1, k); an
    IRF band is read variable by variable, as the IRF file's rows are."""
    columns = {}
    for lv in levels:
        lo, hi = bands[lv]
        columns[f"lo{lv}"], columns[f"hi{lv}"] = lo.T.ravel(), hi.T.ravel()
    return columns


def emit_table(
    results: dict[str, tuple[MultiplierPath, tuple[str, ...]]],
    labels: dict[str, str] | None = None,
) -> tuple[str, str]:
    """Combined multiplier table, one column per country, rows Q1..QH,
    from each country's (multiplier path, stars).

    Returns (text, csv) renderings. Text cells are 3-decimal values with
    star suffixes; the CSV keeps full precision and splits stars into a
    separate column so it parses back losslessly.
    """
    horizons = {len(path) for path, _ in results.values()}
    if len(horizons) != 1:
        raise ShapeError(f"countries disagree on horizon count: {sorted(horizons)}")
    H = horizons.pop()
    labels = labels or {code: code.upper() for code in results}

    cells = {code: [f"{m:.3f}{s}" for m, s in zip(path.values, stars)]
             for code, (path, stars) in results.items()}
    widths = {code: max(map(len, [labels[code], *col])) for code, col in cells.items()}
    lines = ["    " + "  ".join(labels[code].rjust(w) for code, w in widths.items())]
    for h in range(H):
        lines.append(f"Q{h + 1}".ljust(4)
                     + "  ".join(cells[code][h].rjust(w) for code, w in widths.items()))
    text = "".join(line.rstrip() + "\n" for line in lines)

    columns = {"quarter": [f"Q{h + 1}" for h in range(H)]}
    for code, (path, stars) in results.items():
        columns[f"{code}_m"], columns[f"{code}_stars"] = path.values, stars
    return text, csv_text(columns)


def _run_config(args) -> RunConfig:
    """The run the flags ask for: the config file with ``--out``,
    ``--seed``, ``--reps``, ``--horizon`` and ``--countries`` applied."""
    config = load_run_config(args.config)
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
    config = _run_config(args)
    load_panels(config)
    check_output_dir(config.output_dir)
    w0, w1 = config.window
    print(f"config ok: {len(config.countries)} countries "
          f"({', '.join(c.code for c in config.countries)})")
    print(f"window {w0}..{w1}, lags={config.lags}, horizons={config.horizons}, "
          f"replications={config.replications}, seed={config.seed}, "
          f"levels={list(config.levels)}")
    print(f"output_dir={config.output_dir}")
    return 0


def _cmd_estimate(args) -> int:
    config = _run_config(args)
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
    from . import dgp as dgp_mod

    path = Path(args.config)
    payload = _read_json(path, "DGP file")
    if args.seed is not None and isinstance(payload, dict):
        payload = {**payload, "seed": args.seed}
    trials = args.reps if args.reps is not None else 100
    horizons = args.horizon if args.horizon is not None else dgp_mod.RecoveryConfig.horizons
    with _prefixed(f"{path}: "):
        spec = dgp_mod.DgpSpec.from_dict(payload)
    out = None if args.out is None else Path(args.out)
    if out is not None:  # refused before the study, created after it
        check_output_dir(out)
    report = dgp_mod.monte_carlo_recovery(spec, trials, dgp_mod.RecoveryConfig(horizons))
    # the file first, so a reader that closes stdout early cannot lose it
    if out is not None:
        write_bundle(out, {"recovery.csv": csv_text({
            "h": range(1, horizons + 1),
            "analytic": report.analytic,
            "median_bias": report.median_bias,
            "median_abs_error": report.median_abs_error,
            "rmse": report.rmse,
        })})
    print(f"{trials} trials at T={spec.T}, failures {report.failures}")
    print("  h   true m   med bias   med |err|     rmse")
    for h in range(horizons):
        print(
            f"{h + 1:>3}  {report.analytic[h]:>7.3f}  {report.median_bias[h]:>+9.4f}"
            f"  {report.median_abs_error[h]:>9.4f}  {report.rmse[h]:>7.4f}"
        )
    if out is not None:
        print(f"wrote {out / 'recovery.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiscalsvar",
        description="Spending multipliers from small quarterly VARs with bootstrap bands",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "check the run estimate would make and read its input files"),
        ("estimate", "run the full per-country pipeline and write reports"),
        ("montecarlo", "simulate a known system and report estimator recovery"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--reps", type=int, default=None,
            help="bootstrap replications (validate, estimate) or trials (montecarlo)",
        )
        p.add_argument("--horizon", type=int, default=None, help="multiplier horizon H")
        if name == "montecarlo":
            continue
        p.add_argument(
            "--countries", default=None, help="comma-separated country codes to keep"
        )
        p.add_argument(
            "--workers", type=int, default=None,
            help="ignored; still accepted so existing command lines parse "
                 "(countries run in one worker process per usable CPU, so "
                 "'taskset -c 0' runs them on one core; the bundle is the same "
                 "for any count)",
        )
    return parser


# every character str.splitlines breaks at, as its escape
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Report a failed run on one stderr line, even when the message
    quotes a line break from an input (a JSON key, say)."""
    print(f"{kind} error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
    return code


def run_guarded(run, args) -> int:
    """Exit code of ``run(args)``, the one place a command or script ends:
    a reader that closed stdout gives 1, and an error of the package one
    stderr line and its exit code (config 2, data 3, estimation 4), never
    a traceback."""
    try:
        code = run(args)
        sys.stdout.flush()  # a closed stdout fails here, inside the try
        return code
    except BrokenPipeError:
        # every file is written; stdout goes to the null device, as the
        # Python ``signal`` docs advise, so the interpreter's own flush at
        # exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1  # Python's own exit status on EPIPE
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except DataError as exc:
        return _fail("data", exc, EXIT_DATA)
    except EstimationError as exc:
        return _fail("estimation", exc, EXIT_ESTIMATION)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "validate": _cmd_validate,
        "estimate": _cmd_estimate,
        "montecarlo": _cmd_montecarlo,
    }[args.command]
    return run_guarded(handler, args)


if __name__ == "__main__":
    sys.exit(main())
