"""Calendar quarters: parsing, ordering and quarter arithmetic.

A quarterly series is a start quarter plus an ordered value array, so
position ``i`` is quarter ``start + i``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass


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
