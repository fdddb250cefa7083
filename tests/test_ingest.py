from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import synthetic_levels, write_country_csv
from fiscalsvar.errors import (
    ConfigError,
    CsvParseError,
    DomainError,
    InsufficientDataError,
    QuarterGapError,
    SchemaError,
    ShapeError,
    WindowCoverageError,
)
from fiscalsvar.ingest import (
    SERIES,
    MacroDataset,
    TransformedPanel,
    build_panel,
    load_csv,
)
from fiscalsvar.series import Quarter

START = Quarter(1999, 1)


def tiny_columns():
    return {
        "date": ["1999-Q1", "1999-Q2", "1999-Q3", "1999-Q4"],
        "total_expenditure": [2000.0, 2050.0, 2030.0, 2100.0],
        "subsidies": [100.0, 110.0, 105.0, 120.0],
        "vat": [1200.0, 1230.0, 1210.0, 1260.0],
        "gdp": [10000.0, 10100.0, 10000.0, 10200.0],
        "cpi": [100.0, 100.0, 100.0, 100.0],
        "short_rate": [4.0, 4.25, 4.1, 4.3],
        "us_gdp": [5000.0, 5050.0, 5100.0, 5080.0],
        "us_inflation": [0.004, 0.005, 0.006, 0.0055],
        "us_short_rate": [3.0, 3.1, 3.0, 2.9],
    }


def three_quarters(**cols):
    """A dataset of three quarters from START: every series is 1.0 unless given."""
    values = {name: [1.0, 1.0, 1.0] for name in SERIES}
    values.update(cols)
    return MacroDataset("x", START, {name: np.array(v, dtype=float) for name, v in values.items()})


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "cz.csv"
        write_country_csv(path, tiny_columns())
        data = load_csv(path, country="cz")
        assert data.country == "cz"
        assert data.start == START
        assert tuple(data.values) == SERIES
        assert list(data.values["gdp"]) == [10000.0, 10100.0, 10000.0, 10200.0]
        assert list(data.values["short_rate"]) == [4.0, 4.25, 4.1, 4.3]

    def test_values_read_only(self, tmp_path):
        path = tmp_path / "x.csv"
        write_country_csv(path, tiny_columns())
        data = load_csv(path)
        with pytest.raises(ValueError):
            data.values["cpi"][0] = 9.0

    def test_rows_sorted_before_validation(self, tmp_path):
        cols = tiny_columns()
        order = [2, 0, 3, 1]
        shuffled = {name: [vals[i] for i in order] for name, vals in cols.items()}
        path = tmp_path / "x.csv"
        write_country_csv(path, shuffled)
        data = load_csv(path)
        assert list(data.values["gdp"]) == [10000.0, 10100.0, 10000.0, 10200.0]

    def test_gap_detected(self, tmp_path):
        cols = tiny_columns()
        cols["date"][2] = "2000-Q1"  # skips 1999-Q3
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        with pytest.raises(QuarterGapError, match="1999-Q3"):
            load_csv(path)

    def test_duplicate_quarter(self, tmp_path):
        cols = tiny_columns()
        cols["date"][1] = "1999-Q1"
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        with pytest.raises(QuarterGapError, match="duplicate"):
            load_csv(path)

    def test_bad_date_names_line(self, tmp_path):
        cols = tiny_columns()
        cols["date"][2] = "1999Q3"
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        with pytest.raises(CsvParseError, match=":4"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        cols = tiny_columns()
        cols["gdp"][1] = "n/a"
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        with pytest.raises(CsvParseError, match="n/a"):
            load_csv(path)

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "x.csv"
        write_country_csv(path, tiny_columns())
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:3])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvParseError, match=r"x\.csv:4: row has 3 cells, header has 10"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        cols = tiny_columns()
        cols["gdp"][1] = cell
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        with pytest.raises(CsvParseError, match=r"x\.csv:3: non-finite .* column 'gdp'"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        cols = tiny_columns()
        del cols["vat"]
        path = tmp_path / "x.csv"
        write_country_csv(path, cols, header=["date"] + [c for c in cols if c != "date"])
        with pytest.raises(SchemaError, match="vat"):
            load_csv(path)

    @pytest.mark.parametrize("schema", [None, {"gdp": "gdp_lcu"}], ids=["canonical", "renamed"])
    def test_duplicate_column(self, tmp_path, schema):
        # a second column of 1000x the values must not be silently ignored
        cols = tiny_columns()
        column = (schema or {}).get("gdp", "gdp")
        cols[column] = cols.pop("gdp")
        cols["copy"] = [1000 * v for v in cols[column]]
        path = tmp_path / "x.csv"
        write_country_csv(path, cols, header=list(cols))
        path.write_text(path.read_text().replace(",copy\n", f",{column}\n", 1))
        message = f"x\\.csv: column '{column}' \\(for gdp\\) appears more than once"
        with pytest.raises(SchemaError, match=message):
            load_csv(path, schema=schema)

    def test_schema_renames_columns(self, tmp_path):
        cols = tiny_columns()
        cols["gdp_lcu"] = cols.pop("gdp")
        header = ["date"] + [c for c in cols if c != "date"]
        path = tmp_path / "x.csv"
        write_country_csv(path, cols, header=header)
        data = load_csv(path, schema={"gdp": "gdp_lcu"})
        assert list(data.values["gdp"]) == [10000.0, 10100.0, 10000.0, 10200.0]

    @pytest.mark.parametrize(
        "schema, message",
        [
            ({"gdp": "vat"}, "schema maps both 'vat' and 'gdp' to column 'vat'"),
            ({"so_wrong": "gdp"}, "unknown schema key(s): so_wrong"),
            ({"date": 5}, "schema values must be non-empty strings"),
            ({"date": ""}, "schema values must be non-empty strings"),
            (["x"], "schema must be an object"),
            ({5: "gdp", "so_wrong": "x"}, "unknown schema key(s): 5, so_wrong"),
        ],
        ids=["shared_column", "unknown_key", "int_column", "empty_column", "list", "int_key"],
    )
    def test_bad_schema_refused_before_the_file_is_opened(self, tmp_path, schema, message):
        # every caller's map is checked, and a missing file is not reached
        with pytest.raises(ConfigError) as info:
            load_csv(tmp_path / "missing.csv", schema)
        assert str(info.value) == message

    def test_schema_swap_accepted(self, tmp_path):
        path = tmp_path / "x.csv"
        write_country_csv(path, tiny_columns())
        data = load_csv(path, schema={"gdp": "vat", "vat": "gdp"})
        assert list(data.values["gdp"]) == tiny_columns()["vat"]
        assert list(data.values["vat"]) == tiny_columns()["gdp"]

    def test_byte_order_mark_accepted(self, tmp_path):
        # spreadsheet exports often start a UTF-8 file with a BOM
        original = Path(__file__).resolve().parents[1] / "data" / "cz.csv"
        path = tmp_path / "cz.csv"
        path.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        window = (START, Quarter(2019, 4))
        want = build_panel(load_csv(original, country="cz"), window)
        got = build_panel(load_csv(path, country="cz"), window)
        assert got.start == want.start
        assert np.array_equal(got.X, want.X) and np.array_equal(got.Z, want.Z)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "x.csv"
        cols = tiny_columns()
        write_country_csv(path, {name: [] for name in cols})
        with pytest.raises(SchemaError, match="no data rows"):
            load_csv(path)


class TestBuildPanel:
    def test_hand_computed_transforms(self, tmp_path):
        path = tmp_path / "x.csv"
        write_country_csv(path, tiny_columns())
        data = load_csv(path, country="cz")
        panel = build_panel(data, (START, Quarter(1999, 4)))

        assert panel.rows == 3
        assert panel.start == Quarter(1999, 2)
        assert panel.x_labels == ("G", "T", "Y", "i")
        assert panel.Z.shape == (3, 3)

        real_gdp = np.array([100.0, 101.0, 100.0, 102.0])
        real_net = np.array([19.0, 19.4, 19.25, 19.8])
        real_vat = np.array([12.0, 12.3, 12.1, 12.6])
        g = np.diff(real_net) / real_gdp[:-1]
        t = np.diff(real_vat) / real_gdp[:-1]
        y = np.diff(real_gdp) / real_gdp[:-1]
        i = np.array([0.25, -0.15, 0.2])
        assert panel.X[:, 0] == pytest.approx(g, rel=1e-12)
        assert panel.X[:, 1] == pytest.approx(t, rel=1e-12)
        assert panel.X[:, 2] == pytest.approx(y, rel=1e-12)
        assert panel.X[:, 3] == pytest.approx(i, rel=1e-12)

        us_growth = np.array([50.0 / 5000.0, 50.0 / 5050.0, -20.0 / 5100.0])
        assert panel.Z[:, 0] == pytest.approx(us_growth, rel=1e-12)
        assert panel.Z[:, 1] == pytest.approx([0.005, 0.006, 0.0055])
        assert panel.Z[:, 2] == pytest.approx([0.1, -0.1, -0.1])

    def test_window_not_covered(self, tmp_path):
        path = tmp_path / "x.csv"
        write_country_csv(path, tiny_columns())
        data = load_csv(path, country="sk")
        with pytest.raises(WindowCoverageError, match="sk"):
            build_panel(data, (START, Quarter(2005, 4)))

    def test_nonpositive_cpi_propagates(self, tmp_path):
        cols = tiny_columns()
        cols["cpi"][3] = -1.0
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        data = load_csv(path)
        with pytest.raises(DomainError, match="1999-Q4"):
            build_panel(data, (START, Quarter(1999, 4)))

    def test_inner_window_slices_inclusive(self, tmp_path):
        path = tmp_path / "x.csv"
        write_country_csv(path, tiny_columns())
        data = load_csv(path)
        full = build_panel(data, (START, Quarter(1999, 4)))
        inner = build_panel(data, (Quarter(1999, 2), Quarter(1999, 4)))
        assert inner.start == Quarter(1999, 3)
        assert np.array_equal(inner.X, full.X[1:])
        assert np.array_equal(inner.Z, full.Z[1:])

    def test_constant_levels_give_zero_rows(self, tmp_path):
        cols = {name: [vals[0]] * 4 for name, vals in tiny_columns().items() if name != "date"}
        cols["date"] = tiny_columns()["date"]
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        panel = build_panel(load_csv(path), (START, Quarter(1999, 4)))
        assert not panel.X.any()
        assert not panel.Z[:, [0, 2]].any()

    def test_nonpositive_gdp_names_quarter(self, tmp_path):
        cols = tiny_columns()
        cols["gdp"][2] = 0.0
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        with pytest.raises(DomainError,
                           match=r"^real GDP must be strictly positive, got 0\.0 at 1999-Q3$"):
            build_panel(load_csv(path), (START, Quarter(1999, 4)))

    def test_nonpositive_us_gdp_names_quarter(self, tmp_path):
        cols = tiny_columns()
        cols["us_gdp"][1] = -5.0
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        with pytest.raises(DomainError,
                           match=r"^US GDP must be strictly positive, got -5\.0 at 1999-Q2$"):
            build_panel(load_csv(path), (START, Quarter(1999, 4)))

    def test_one_quarter_window_is_insufficient(self, tmp_path):
        path = tmp_path / "x.csv"
        write_country_csv(path, tiny_columns())
        with pytest.raises(InsufficientDataError):
            build_panel(load_csv(path), (START, START))

    def test_g_is_scaled_difference_exact(self):
        # (3-2)/100 and (5-3)/140
        data = three_quarters(
            total_expenditure=[2.0, 3.0, 5.0],
            subsidies=[0.0, 0.0, 0.0],
            gdp=[100.0, 140.0, 400.0],
        )
        # GDP nearly triples in one quarter, which the panel flags
        with pytest.warns(UserWarning, match="check units"):
            panel = build_panel(data, (START, Quarter(1999, 3)))
        assert panel.start == Quarter(1999, 2)
        assert panel.X[0, 0] == 0.01
        assert panel.X[1, 0] == 2.0 / 140.0

    def test_g_subtracts_subsidies(self):
        data = three_quarters(
            total_expenditure=[100.0, 110.0, 120.0],
            subsidies=[10.0, 15.0, 20.0],
            gdp=[100.0, 100.0, 100.0],
        )
        panel = build_panel(data, (START, Quarter(1999, 3)))
        assert list(panel.X[:, 0]) == [0.05, 0.05]

    def test_deflates_by_cpi(self):
        # nominal VAT and GDP grow with the CPI, so their real values stay flat
        data = three_quarters(
            vat=[220.0, 242.0, 242.0],
            gdp=[11000.0, 12100.0, 12100.0],
            cpi=[110.0, 121.0, 121.0],
        )
        panel = build_panel(data, (START, Quarter(1999, 3)))
        assert list(panel.X[:, 1]) == [0.0, 0.0]
        assert list(panel.X[:, 2]) == [0.0, 0.0]

    def test_y_is_gdp_growth_rate(self):
        data = three_quarters(gdp=[100.0, 110.0, 99.0])
        panel = build_panel(data, (START, Quarter(1999, 3)))
        assert panel.X[:, 2] == pytest.approx([0.1, -0.1])

    def test_i_is_first_difference_of_short_rate(self):
        data = three_quarters(short_rate=[1.0, 1.5, 1.25])
        panel = build_panel(data, (START, Quarter(1999, 3)))
        assert list(panel.X[:, 3]) == [0.5, -0.25]
        assert panel.start == Quarter(1999, 2)

    def test_zero_cpi_names_quarter(self, tmp_path):
        cols = tiny_columns()
        cols["cpi"][1] = 0.0
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        with pytest.raises(DomainError, match="1999-Q2"):
            build_panel(load_csv(path), (START, Quarter(1999, 4)))

    def test_window_starting_before_data_not_covered(self, tmp_path):
        path = tmp_path / "x.csv"
        write_country_csv(path, tiny_columns())
        with pytest.raises(WindowCoverageError):
            build_panel(load_csv(path), (Quarter(1998, 4), Quarter(1999, 4)))

    def test_one_quarter_of_data_is_insufficient(self):
        data = MacroDataset("x", START, {name: np.array([1.0]) for name in SERIES})
        with pytest.raises(InsufficientDataError):
            build_panel(data, (START, START))

    def test_last_quarter_window_is_insufficient(self, tmp_path):
        path = tmp_path / "x.csv"
        write_country_csv(path, tiny_columns())
        last = Quarter(1999, 4)
        with pytest.raises(InsufficientDataError):
            build_panel(load_csv(path), (last, last))

    def test_tiny_cpi_is_domain_error(self, tmp_path):
        # positive, so it passes the CPI check, but deflating by it overflows
        cols = tiny_columns()
        cols["cpi"][1] = 1e-310
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        with pytest.raises(DomainError, match=r"^G is not finite at 1999-Q2$"):
            build_panel(load_csv(path), (START, Quarter(1999, 4)))

    @given(st.integers(0, 2**16), st.integers(2, 30))
    @settings(deadline=None)
    def test_currency_scale_property(self, seed, n):
        # doubling every currency column leaves every transformed column as it was
        cols = synthetic_levels(START, n, seed)
        currency = {"total_expenditure", "subsidies", "vat", "gdp", "us_gdp"}
        window = (START, START + (n - 1))
        panels = [
            build_panel(
                MacroDataset("x", START, {
                    name: np.array(cols[name]) * (factor if name in currency else 1.0)
                    for name in SERIES
                }),
                window,
            )
            for factor in (1.0, 2.0)
        ]
        assert panels[0].rows == n - 1
        assert np.allclose(panels[1].X, panels[0].X, rtol=1e-12, atol=1e-15)
        assert np.allclose(panels[1].Z, panels[0].Z, rtol=1e-12, atol=1e-15)

    def test_absurd_growth_warns(self, tmp_path):
        cols = tiny_columns()
        cols["gdp"] = [10000.0, 21000.0, 10500.0, 23000.0]
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        data = load_csv(path, country="hu")
        with pytest.warns(UserWarning, match="check units"):
            build_panel(data, (START, Quarter(1999, 4)))

    def test_longer_sample(self, tmp_path):
        cols = synthetic_levels(START, 84, seed=0)
        path = tmp_path / "x.csv"
        write_country_csv(path, cols)
        data = load_csv(path, country="pl")
        panel = build_panel(data, (START, Quarter(2019, 4)))
        assert panel.rows == 83
        assert panel.start == Quarter(1999, 2)
        assert panel.start + (panel.rows - 1) == Quarter(2019, 4)


class TestTransformedPanel:
    def test_reordered_permutes_columns(self):
        X = np.arange(12.0).reshape(3, 4)
        panel = TransformedPanel(
            START, X, np.zeros((3, 0)), ("G", "T", "Y", "i"), ()
        )
        flipped = panel.reordered(("Y", "T", "G", "i"))
        assert flipped.x_labels == ("Y", "T", "G", "i")
        assert np.array_equal(flipped.X[:, 2], X[:, 0])
        assert np.array_equal(flipped.X[:, 0], X[:, 2])

    def test_reordered_rejects_non_permutation(self):
        panel = TransformedPanel(
            START, np.ones((2, 2)), np.zeros((2, 0)), ("G", "Y"), ()
        )
        with pytest.raises(ShapeError):
            panel.reordered(("G", "Q"))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            TransformedPanel(START, np.ones((3, 2)), np.zeros((2, 1)), ("a", "b"), ("z",))

    def test_non_finite_rejected(self):
        X = np.ones((3, 2))
        X[1, 1] = np.inf
        with pytest.raises(ShapeError):
            TransformedPanel(START, X, np.zeros((3, 0)), ("a", "b"), ())
