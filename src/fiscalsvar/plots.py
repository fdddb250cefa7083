"""Minimal deterministic SVG line plots for IRFs and multiplier paths.

Hand-rolled on purpose: the output must be byte-stable across runs and
platforms, so no plotting library (font discovery, version-dependent
defaults) sits in the path. Layout is fixed: solid black point estimate,
blue dashed narrow band, red dashed wide band, grey axes and a zero line.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ShapeError

WIDTH = 640.0
HEIGHT = 400.0
MARGIN_LEFT = 62.0
MARGIN_RIGHT = 18.0
MARGIN_TOP = 34.0
MARGIN_BOTTOM = 46.0
TICKS = 5  # tick marks per axis, at most

NARROW_STYLE = 'stroke="#1f4fd0" stroke-dasharray="5,3"'
WIDE_STYLE = 'stroke="#d03030" stroke-dasharray="5,3"'
POINT_STYLE = 'stroke="#000000"'


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5 step."""
    span = hi - lo
    raw = span / (TICKS - 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= TICKS:
            break
    first = np.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 else float(t))
        t += step
    return ticks


def _tick_label(v: float) -> str:
    return f"{v:g}"


def render_band_plot(
    x: np.ndarray,
    point: np.ndarray,
    bands: dict[int, np.ndarray],
    *,
    title: str = "",
    path: str | Path | None = None,
) -> str:
    """Serialize one statistic with its two band levels to SVG 1.1 text.

    Exactly five polylines are emitted: the point estimate plus lower and
    upper bounds of the narrow and wide bands. Axes, ticks, the x-axis
    label "quarter" and the zero reference line use separate line/text
    elements.
    """
    x = np.asarray(x, dtype=float)
    point = np.asarray(point, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ShapeError("x must be a non-empty vector")
    if point.shape != x.shape:
        raise ShapeError(f"point shape {point.shape} != x shape {x.shape}")
    if len(bands) != 2:
        raise ShapeError(f"need exactly two band levels, got {sorted(bands)}")
    for level, band in bands.items():
        if np.asarray(band).shape != (2, x.size):
            raise ShapeError(f"band {level} must have shape (2, {x.size})")

    narrow, wide = sorted(bands)
    all_y = np.concatenate([point] + [np.asarray(bands[lv]).ravel() for lv in bands])
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    y_lo, y_hi = min(y_lo, 0.0), max(y_hi, 0.0)  # keep the zero line on-canvas
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(x[0]), float(x[-1])
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v):
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    def polyline(xs, ys, style):
        pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(xs, ys))
        return f'<polyline fill="none" {style} stroke-width="1.5" points="{pts}"/>'

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
        f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        f'<rect width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="#ffffff"/>',
    ]
    if title:
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(
            f'<text x="{_fmt(WIDTH / 2)}" y="20" font-family="sans-serif" '
            f'font-size="14" text-anchor="middle">{title}</text>'
        )

    # frame
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
    axis = 'stroke="#444444" stroke-width="1"'
    out.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y1)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" {axis}/>')
    out.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" {axis}/>')

    # zero reference
    zy = sy(0.0)
    out.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(zy)}" x2="{_fmt(x1)}" y2="{_fmt(zy)}" '
        f'stroke="#999999" stroke-width="0.8"/>'
    )

    tick = 'font-family="sans-serif" font-size="11" fill="#222222"'
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y1)}" x2="{_fmt(px)}" y2="{_fmt(y1 + 4)}" {axis}/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y1 + 18)}" {tick} '
            f'text-anchor="middle">{_tick_label(tv)}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
        out.append(
            f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" y2="{_fmt(py)}" {axis}/>'
        )
        out.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" {tick} '
            f'text-anchor="end">{_tick_label(tv)}</text>'
        )
    out.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(HEIGHT - 10)}" {tick} '
        f'text-anchor="middle">quarter</text>'
    )

    wide_band = np.asarray(bands[wide], dtype=float)
    narrow_band = np.asarray(bands[narrow], dtype=float)
    out.append(polyline(x, wide_band[0], WIDE_STYLE))
    out.append(polyline(x, wide_band[1], WIDE_STYLE))
    out.append(polyline(x, narrow_band[0], NARROW_STYLE))
    out.append(polyline(x, narrow_band[1], NARROW_STYLE))
    out.append(polyline(x, point, POINT_STYLE))
    out.append("</svg>")
    text = "\n".join(out) + "\n"

    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
