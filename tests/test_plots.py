import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fiscalsvar.errors import ShapeError
from fiscalsvar.plots import render_band_plot


def sample_args(n=20, seed=0):
    rng = np.random.default_rng(seed)
    x = np.arange(1, n + 1)
    point = rng.normal(size=n).cumsum() * 0.1
    bands = {
        68: np.vstack([point - 0.3, point + 0.3]),
        90: np.vstack([point - 0.6, point + 0.6]),
    }
    return x, point, bands


class TestRenderBandPlot:
    def test_exactly_five_polylines(self):
        x, point, bands = sample_args()
        svg = render_band_plot(x, point, bands)
        assert svg.count("<polyline") == 5

    def test_band_colors_and_dashes(self):
        x, point, bands = sample_args()
        svg = render_band_plot(x, point, bands)
        assert svg.count('stroke="#1f4fd0" stroke-dasharray') == 2  # narrow level
        assert svg.count('stroke="#d03030" stroke-dasharray') == 2  # wide level
        assert svg.count('stroke="#000000"') == 1  # point estimate

    def test_zero_reference_line_present(self):
        x, point, bands = sample_args()
        svg = render_band_plot(x, point, bands)
        assert 'stroke="#999999"' in svg

    def test_deterministic_bytes(self):
        x, point, bands = sample_args(seed=5)
        a = render_band_plot(x, point, bands, title="t")
        b = render_band_plot(x, point, bands, title="t")
        assert a.encode("utf-8") == b.encode("utf-8")

    def test_title_escaped(self):
        x, point, bands = sample_args()
        title = "Bosnia & Herzegovina: <m> > 1"
        root = ET.fromstring(render_band_plot(x, point, bands, title=title))
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == title

    def test_svg_11_header(self):
        x, point, bands = sample_args()
        svg = render_band_plot(x, point, bands)
        assert svg.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in svg and svg.rstrip().endswith("</svg>")

    def test_empty_x_rejected(self):
        with pytest.raises(ShapeError):
            render_band_plot(np.array([]), np.array([]), {})

    def test_requires_two_levels(self):
        x, point, bands = sample_args()
        with pytest.raises(ShapeError):
            render_band_plot(x, point, {68: bands[68]})

    def test_band_shape_checked(self):
        x, point, bands = sample_args()
        bands[90] = bands[90][:, :-1]
        with pytest.raises(ShapeError):
            render_band_plot(x, point, bands)

    def test_title_escaping_not_needed_for_plain_labels(self):
        x, point, bands = sample_args()
        svg = render_band_plot(x, point, bands, title="CZ multiplier")
        assert ">CZ multiplier</text>" in svg
