"""Quarterly time-series container and variable-construction transforms.

All series are contiguous by construction: a start quarter plus an ordered
value array, so position ``i`` is quarter ``start + i``. Transform outputs
that involve a first difference drop the first observation and advance the
start by one quarter.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    DomainError,
    InsufficientDataError,
    UnitError,
    WindowCoverageError,
)


class Unit(enum.Enum):
    LEVEL = "level-currency"
    RATE = "rate-percent"
    INDEX = "index"


_QUARTER_RE = re.compile(r"^(\d{4})-Q([1-4])$")


@dataclass(frozen=True, order=True)
class Quarter:
    """A calendar quarter, ordered chronologically."""

    year: int
    quarter: int

    def __post_init__(self):
        if not 1 <= self.quarter <= 4:
            raise ValueError(f"quarter must be in 1..4, got {self.quarter}")

    @classmethod
    def parse(cls, text: str) -> "Quarter":
        m = _QUARTER_RE.match(text.strip()) if isinstance(text, str) else None
        if m is None:
            raise ValueError(f"expected a YYYY-Qn quarter, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def __add__(self, quarters: int) -> "Quarter":
        idx = self.year * 4 + (self.quarter - 1) + int(quarters)
        return Quarter(idx // 4, idx % 4 + 1)

    def __sub__(self, other: "Quarter") -> int:
        return (self.year * 4 + self.quarter) - (other.year * 4 + other.quarter)

    def __str__(self) -> str:
        return f"{self.year}-Q{self.quarter}"


@dataclass(frozen=True)
class QuarterlySeries:
    """Contiguous quarterly observations with an immutable unit tag."""

    start: Quarter
    values: np.ndarray
    unit: Unit

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise DomainError("values must be a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(values)):
            raise DomainError("values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> Quarter:
        return self.start + (len(self) - 1)

    def quarters(self) -> list[Quarter]:
        return [self.start + i for i in range(len(self))]

    def window(self, start: Quarter, end: Quarter) -> "QuarterlySeries":
        """Slice to the inclusive quarter range [start, end]."""
        if end < start:
            raise ValueError(f"window end {end} precedes start {start}")
        if start < self.start or self.end < end:
            raise WindowCoverageError(
                f"window {start}..{end} not covered by series {self.start}..{self.end}"
            )
        i = start - self.start
        return QuarterlySeries(start, self.values[i : i + (end - start) + 1], self.unit)


def _require_aligned(a: QuarterlySeries, b: QuarterlySeries):
    if a.start != b.start or len(a) != len(b):
        raise AlignmentError(
            f"series are misaligned: {a.start} x{len(a)} vs {b.start} x{len(b)}"
        )


def net_expenditure(
    total_expenditure: QuarterlySeries, subsidies: QuarterlySeries
) -> QuarterlySeries:
    """Total government expenditure minus subsidies, element-wise."""
    if total_expenditure.unit is not Unit.LEVEL or subsidies.unit is not Unit.LEVEL:
        raise UnitError(
            "net_expenditure expects level-currency series, got "
            f"{total_expenditure.unit.value} and {subsidies.unit.value}"
        )
    _require_aligned(total_expenditure, subsidies)
    return QuarterlySeries(
        total_expenditure.start,
        total_expenditure.values - subsidies.values,
        Unit.LEVEL,
    )


def deflate(nominal: QuarterlySeries, cpi: QuarterlySeries) -> QuarterlySeries:
    """Convert a nominal series to real terms by dividing by the CPI."""
    _require_aligned(nominal, cpi)
    if np.any(cpi.values <= 0.0):
        bad = int(np.argmax(cpi.values <= 0.0))
        raise DomainError(f"CPI must be strictly positive, got {cpi.values[bad]} at {cpi.start + bad}")
    return QuarterlySeries(nominal.start, nominal.values / cpi.values, nominal.unit)


def hall_transform(
    x_level: QuarterlySeries, y_level: QuarterlySeries
) -> QuarterlySeries:
    """First difference of ``x_level`` scaled by lagged ``y_level``.

    Output value at quarter t is (x_t - x_{t-1}) / y_{t-1}, so all
    transformed variables end up in the same output-relative unit. The
    result is one observation shorter and starts one quarter later.
    """
    _require_aligned(x_level, y_level)
    if len(x_level) < 2:
        raise InsufficientDataError("need at least 2 observations to difference")
    if np.any(y_level.values <= 0.0):
        bad = int(np.argmax(y_level.values <= 0.0))
        raise DomainError(
            f"scaling series must be strictly positive, got {y_level.values[bad]} at {y_level.start + bad}"
        )
    out = np.diff(x_level.values) / y_level.values[:-1]
    return QuarterlySeries(x_level.start + 1, out, Unit.RATE)


def first_difference(x: QuarterlySeries) -> QuarterlySeries:
    """One-quarter change x_t - x_{t-1}; unit preserved."""
    if len(x) < 2:
        raise InsufficientDataError("need at least 2 observations to difference")
    return QuarterlySeries(x.start + 1, np.diff(x.values), x.unit)
