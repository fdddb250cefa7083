"""Raw country CSV loading and construction of the analysis-ready panel.

Input files are comma-separated UTF-8 with a header row, one column per
series, and a date column in ``YYYY-Qn`` format. Rows may arrive in any
order; they are sorted by quarter and then checked for gaps.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    CsvParseError,
    DataError,
    DomainError,
    InsufficientDataError,
    QuarterGapError,
    SchemaError,
    ShapeError,
    WindowCoverageError,
    reject_unknown_keys,
)
from .series import Quarter

DATE_COLUMN = "date"

# canonical raw series names, in a canonical file's column order: cpi is
# an index, short_rate and the two US rates are rates, the rest currency
SERIES = (
    "total_expenditure",
    "subsidies",
    "vat",
    "gdp",
    "cpi",
    "short_rate",
    "us_gdp",
    "us_inflation",
    "us_short_rate",
)

X_LABELS = ("G", "T", "Y", "i")
Z_LABELS = ("us_gdp_growth", "us_inflation", "us_short_rate_diff")

# |quarterly growth| above this on sane macro data points at a unit problem
GROWTH_SANITY_BOUND = 0.25


@dataclass(frozen=True)
class MacroDataset:
    """All raw series for one country on one contiguous quarterly index:
    ``values[name][i]`` is series ``name`` at quarter ``start + i``, for
    every name in :data:`SERIES`, as a read-only float array."""

    country: str
    start: Quarter
    values: dict[str, np.ndarray]


@dataclass(frozen=True)
class TransformedPanel:
    """Endogenous matrix X and exogenous matrix Z on a shared quarter index.

    Column order of X is the identification ordering.
    """

    start: Quarter
    X: np.ndarray
    Z: np.ndarray
    x_labels: tuple[str, ...]
    z_labels: tuple[str, ...]

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        Z = np.array(self.Z, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ShapeError("X must be a non-empty 2-d array")
        if Z.ndim != 2 or Z.shape[0] != X.shape[0]:
            raise ShapeError(
                f"Z rows ({Z.shape[0] if Z.ndim == 2 else '?'}) must match X rows ({X.shape[0]})"
            )
        if len(self.x_labels) != X.shape[1] or len(self.z_labels) != Z.shape[1]:
            raise ShapeError("label count must match column count")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Z))):
            raise ShapeError("panel contains non-finite cells")
        X.setflags(write=False)
        Z.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "x_labels", tuple(self.x_labels))
        object.__setattr__(self, "z_labels", tuple(self.z_labels))

    @property
    def rows(self) -> int:
        return self.X.shape[0]

    def reordered(self, labels: tuple[str, ...]) -> "TransformedPanel":
        """Return a panel with X columns permuted into the given ordering."""
        if sorted(labels) != sorted(self.x_labels):
            raise ShapeError(f"ordering {labels} is not a permutation of {self.x_labels}")
        perm = [self.x_labels.index(lab) for lab in labels]
        return TransformedPanel(self.start, self.X[:, perm], self.Z, tuple(labels), self.z_labels)


def load_csv(path, schema: dict[str, str] | None = None, country: str = "") -> MacroDataset:
    """Read one country file into a :class:`MacroDataset`.

    ``schema`` maps canonical series names (plus ``date``) to the column
    headers actually present in the file; omitted entries default to the
    canonical name itself. The map is checked before the file is opened,
    for every caller: a bad map is a ``ConfigError``, a bad file a ``DataError``.
    """
    path = Path(path)
    schema = {} if schema is None else schema
    if not isinstance(schema, dict):
        raise ConfigError("schema must be an object")
    reject_unknown_keys(schema, (DATE_COLUMN, *SERIES), "unknown schema key(s)")
    if not all(isinstance(column, str) and column for column in schema.values()):
        raise ConfigError("schema values must be non-empty strings")
    full_schema = {name: schema.get(name, name) for name in (DATE_COLUMN, *SERIES)}
    owners: dict[str, str] = {}
    for name, column in full_schema.items():
        if owners.setdefault(column, name) != name:
            raise ConfigError(f"schema maps both '{owners[column]}' and '{name}' "
                              f"to column '{column}'")

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    # not UTF-8, a path the OS cannot take, a cell over the csv size limit
    except (ValueError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not table:
        raise SchemaError(f"{path}: file is empty, expected a header row")
    header, records = table[0], table[1:]
    positions = {}
    for canonical, column in full_schema.items():
        if column not in header:
            raise SchemaError(f"{path}: missing column '{column}' (for {canonical})")
        if header.count(column) > 1:
            raise SchemaError(f"{path}: column '{column}' (for {canonical}) appears more than once")
        positions[canonical] = header.index(column)

    rows = []
    for lineno, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) < len(header):
            raise CsvParseError(
                f"{path}:{lineno}: row has {len(row)} cells, header has {len(header)}"
            )
        raw_date = row[positions[DATE_COLUMN]]
        try:
            quarter = Quarter.parse(raw_date)
        except ValueError as exc:
            raise CsvParseError(f"{path}:{lineno}: bad date cell: {exc}") from None
        values = {}
        for name in SERIES:
            cell = row[positions[name]]
            try:
                values[name] = float(cell)
            except ValueError:
                raise CsvParseError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in column "
                    f"'{full_schema[name]}'"
                ) from None
            if not math.isfinite(values[name]):
                raise CsvParseError(
                    f"{path}:{lineno}: non-finite value {cell!r} in column "
                    f"'{full_schema[name]}'"
                )
        rows.append((quarter, values))

    if not rows:
        raise SchemaError(f"{path}: no data rows")

    rows.sort(key=lambda item: item[0])
    quarters = [q for q, _ in rows]
    for prev, cur in zip(quarters, quarters[1:]):
        if cur == prev:
            raise QuarterGapError(f"{path}: duplicate quarter {cur}")
        if cur != prev + 1:
            raise QuarterGapError(f"{path}: gap in quarters, missing {prev + 1}")

    columns = {}
    for name in SERIES:
        columns[name] = np.array([vals[name] for _, vals in rows])
        columns[name].setflags(write=False)
    return MacroDataset(country, quarters[0], columns)


def _require_positive(values: np.ndarray, start: Quarter, what: str):
    if np.any(values <= 0.0):
        bad = int(np.argmax(values <= 0.0))
        raise DomainError(f"{what} must be strictly positive, got {values[bad]} at {start + bad}")


def build_panel(data: MacroDataset, window: tuple[Quarter, Quarter]) -> TransformedPanel:
    """Apply all variable transformations over the analysis window.

    The endogenous columns are, in identification order:

    * G: real net expenditure (total minus subsidies, divided by the CPI),
      first-differenced and scaled by lagged real GDP
    * T: real VAT revenue, same transform
    * Y: real GDP quarterly growth rate
    * i: first difference of the short-term interest rate

    Exogenous columns are the US GDP growth rate, US inflation as given,
    and the first difference of the US short rate, aligned to the same
    (post-differencing) index. The panel has one row fewer than the window.
    """
    start, end = window
    country = data.country or "?"
    first, stop = start - data.start, end - data.start + 1
    rows = len(data.values["cpi"])
    if first < 0 or stop > rows:
        raise WindowCoverageError(
            f"country {country}: window {start}..{end} not covered by series "
            f"{data.start}..{data.start + (rows - 1)}"
        )
    win = {name: data.values[name][first:stop] for name in SERIES}

    cpi = win["cpi"]
    _require_positive(cpi, start, "CPI")
    if cpi.size < 2:
        raise InsufficientDataError("need at least 2 observations to difference")
    # an overflow here is reported below as a non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        real_gdp = win["gdp"] / cpi
        real_net = (win["total_expenditure"] - win["subsidies"]) / cpi
        real_vat = win["vat"] / cpi
        _require_positive(real_gdp, start, "real GDP")
        _require_positive(win["us_gdp"], start, "US GDP")
        scale = real_gdp[:-1]
        X = np.column_stack([
            np.diff(real_net) / scale,
            np.diff(real_vat) / scale,
            np.diff(real_gdp) / scale,
            np.diff(win["short_rate"]),
        ])
        Z = np.column_stack([
            np.diff(win["us_gdp"]) / win["us_gdp"][:-1],
            win["us_inflation"][1:],
            np.diff(win["us_short_rate"]),
        ])
    bad = ~np.isfinite(np.column_stack([X, Z]))
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), bad.shape[1])
        raise DomainError(f"{(X_LABELS + Z_LABELS)[col]} is not finite at {start + 1 + row}")

    growth = np.max(np.abs(X[:, 2]))
    if growth >= GROWTH_SANITY_BOUND:
        warnings.warn(
            f"country {country}: |quarterly GDP growth| reaches {growth:.3f}; check units",
            stacklevel=2,
        )
    return TransformedPanel(start + 1, X, Z, X_LABELS, Z_LABELS)
