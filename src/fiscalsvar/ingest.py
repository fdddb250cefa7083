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
    CsvParseError,
    DataError,
    QuarterGapError,
    SchemaError,
    ShapeError,
    WindowCoverageError,
)
from .series import (
    Quarter,
    QuarterlySeries,
    Unit,
    deflate,
    first_difference,
    hall_transform,
    net_expenditure,
)

DATE_COLUMN = "date"

# canonical series name -> unit of the raw column
SERIES_UNITS = {
    "total_expenditure": Unit.LEVEL,
    "subsidies": Unit.LEVEL,
    "vat": Unit.LEVEL,
    "gdp": Unit.LEVEL,
    "cpi": Unit.INDEX,
    "short_rate": Unit.RATE,
    "us_gdp": Unit.LEVEL,
    "us_inflation": Unit.RATE,
    "us_short_rate": Unit.RATE,
}

X_LABELS = ("G", "T", "Y", "i")
Z_LABELS = ("us_gdp_growth", "us_inflation", "us_short_rate_diff")

# |quarterly growth| above this on sane macro data points at a unit problem
GROWTH_SANITY_BOUND = 0.25


@dataclass(frozen=True)
class MacroDataset:
    """All raw series for one country, on a common quarterly index."""

    country: str
    total_expenditure: QuarterlySeries
    subsidies: QuarterlySeries
    vat: QuarterlySeries
    gdp: QuarterlySeries
    cpi: QuarterlySeries
    short_rate: QuarterlySeries
    us_gdp: QuarterlySeries
    us_inflation: QuarterlySeries
    us_short_rate: QuarterlySeries


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

    def quarters(self) -> list[Quarter]:
        return [self.start + i for i in range(self.rows)]

    def reordered(self, labels: tuple[str, ...]) -> "TransformedPanel":
        """Return a panel with X columns permuted into the given ordering."""
        if sorted(labels) != sorted(self.x_labels):
            raise ShapeError(f"ordering {labels} is not a permutation of {self.x_labels}")
        perm = [self.x_labels.index(lab) for lab in labels]
        return TransformedPanel(self.start, self.X[:, perm], self.Z, tuple(labels), self.z_labels)


def default_schema() -> dict[str, str]:
    """Identity column map: canonical names are used as CSV headers."""
    schema = {DATE_COLUMN: DATE_COLUMN}
    schema.update({name: name for name in SERIES_UNITS})
    return schema


def load_csv(path, schema: dict[str, str] | None = None, country: str = "") -> MacroDataset:
    """Read one country file into a :class:`MacroDataset`.

    ``schema`` maps canonical series names (plus ``date``) to the column
    headers actually present in the file; omitted entries default to the
    canonical name itself.
    """
    path = Path(path)
    full_schema = default_schema()
    if schema:
        unknown = sorted(set(schema) - set(full_schema))
        if unknown:
            raise SchemaError(f"unknown schema keys: {', '.join(unknown)}")
        full_schema.update(schema)

    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
        for name in SERIES_UNITS:
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

    start = quarters[0]
    series = {
        name: QuarterlySeries(
            start, np.array([vals[name] for _, vals in rows]), SERIES_UNITS[name]
        )
        for name in SERIES_UNITS
    }
    return MacroDataset(country=country, **series)


def build_panel(data: MacroDataset, window: tuple[Quarter, Quarter]) -> TransformedPanel:
    """Apply all variable transformations over the analysis window.

    The endogenous columns are, in identification order:

    * G: real net expenditure (total minus subsidies, CPI-deflated),
      first-differenced and scaled by lagged real GDP
    * T: real VAT revenue, same transform
    * Y: real GDP quarterly growth rate
    * i: first difference of the short-term interest rate

    Exogenous columns are the US GDP growth rate, US inflation as given,
    and the first difference of the US short rate, aligned to the same
    (post-differencing) index. The panel has one row fewer than the window.
    """
    start, end = window
    try:
        win = {
            name: getattr(data, name).window(start, end)
            for name in SERIES_UNITS
        }
    except WindowCoverageError as exc:
        raise WindowCoverageError(f"country {data.country or '?'}: {exc}") from None

    real_gdp = deflate(win["gdp"], win["cpi"])
    real_net = deflate(net_expenditure(win["total_expenditure"], win["subsidies"]), win["cpi"])
    real_vat = deflate(win["vat"], win["cpi"])

    g = hall_transform(real_net, real_gdp)
    t = hall_transform(real_vat, real_gdp)
    y = hall_transform(real_gdp, real_gdp)
    i = first_difference(win["short_rate"])

    us_growth = hall_transform(win["us_gdp"], win["us_gdp"])
    us_inflation = win["us_inflation"].values[1:]
    us_rate_diff = first_difference(win["us_short_rate"])

    if np.max(np.abs(y.values)) >= GROWTH_SANITY_BOUND:
        warnings.warn(
            f"country {data.country or '?'}: |quarterly GDP growth| reaches "
            f"{np.max(np.abs(y.values)):.3f}; check units",
            stacklevel=2,
        )

    X = np.column_stack([g.values, t.values, y.values, i.values])
    Z = np.column_stack([us_growth.values, us_inflation, us_rate_diff.values])
    return TransformedPanel(start + 1, X, Z, X_LABELS, Z_LABELS)
