import ast
import csv
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fiscalsvar.cli as cli_mod
from conftest import pin_workers, synthetic_levels, write_country_csv
from fiscalsvar.cli import (
    CountryEntry,
    RunConfig,
    config_hash,
    country_seed,
    csv_text,
    emit_table,
    load_run_config,
    main,
    run_pipeline,
)
from fiscalsvar.dgp import reference_spec
from fiscalsvar.errors import (
    ConfigError,
    DataError,
    DecompositionError,
    InferenceError,
    SampleSizeError,
    ShapeError,
)
from fiscalsvar.plots import render_band_plot
from fiscalsvar.series import Quarter
from fiscalsvar.svar import MultiplierPath

START = Quarter(1999, 1)
N_QUARTERS = 48
END = START + (N_QUARTERS - 1)
SNAPSHOT_CONFIG = Path(__file__).resolve().parent.parent / "data" / "v4_config.json"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("raw")
    for i, code in enumerate(("cz", "hu")):
        write_country_csv(root / f"{code}.csv", synthetic_levels(START, N_QUARTERS, seed=i))
    return root


def snapshot_window_config(path, end, codes):
    """The snapshot config cut to the window 1999-Q1..``end`` and to
    ``codes``, at one replication, with its CSV paths made absolute."""
    payload = json.loads(SNAPSHOT_CONFIG.read_text(encoding="utf-8"))
    payload["countries"] = [dict(c, csv=str(SNAPSHOT_CONFIG.parent / c["csv"]))
                            for c in payload["countries"] if c["code"] in codes]
    payload.update(window={"start": "1999-Q1", "end": end}, replications=1,
                   output_dir=str(path.parent / "o"))
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def write_config(path, data_dir, **overrides):
    payload = {
        "countries": [
            {"code": "cz", "csv": str(data_dir / "cz.csv"), "name": "Czechia"},
            {"code": "hu", "csv": str(data_dir / "hu.csv"), "name": "Hungary"},
        ],
        "window": {"start": str(START), "end": str(END)},
        "replications": 60,
        "seed": 7,
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def validate_schema(tmp_path, capsys, schema) -> str:
    """stderr of ``validate`` on one country with ``schema`` and a CSV
    that does not exist; exit 2 is asserted."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"countries": [{"code": "cz", "csv": "x.csv", "schema": schema}]}))
    assert main(["validate", "--config", str(path)]) == 2
    return capsys.readouterr().err


class TestLoadRunConfig:
    def test_defaults_applied(self, tmp_path, data_dir):
        config = load_run_config(write_config(tmp_path / "c.json", data_dir))
        assert config.lags == 4
        assert config.horizons == 20
        assert config.levels == (68, 90)
        assert config.ordering == ("G", "T", "Y", "i")
        assert [c.code for c in config.countries] == ["cz", "hu"]

    def test_unknown_key_rejected(self, tmp_path, data_dir):
        path = write_config(tmp_path / "c.json", data_dir, bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            load_run_config(path)

    def test_unknown_country_key_rejected(self, tmp_path, data_dir):
        path = tmp_path / "c.json"
        payload = {"countries": [{"code": "cz", "csv": "x.csv", "colour": "red"}]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="colour"):
            load_run_config(path)

    def test_empty_countries_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"countries": []}))
        with pytest.raises(ConfigError, match="non-empty"):
            load_run_config(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "countries": [,]\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_run_config(path)

    def test_relative_paths_resolved_against_config(self, tmp_path, data_dir):
        path = tmp_path / "c.json"
        payload = {"countries": [{"code": "cz", "csv": "data/cz.csv"}]}
        path.write_text(json.dumps(payload))
        config = load_run_config(path)
        assert config.countries[0].csv == (tmp_path / "data" / "cz.csv").resolve()

    def test_env_var_supplies_output_dir(self, tmp_path, data_dir, monkeypatch):
        monkeypatch.setenv("FISCALSVAR_OUT", str(tmp_path / "from_env"))
        config = load_run_config(write_config(tmp_path / "c.json", data_dir))
        assert config.output_dir == tmp_path / "from_env"

    def test_bad_window_rejected(self, tmp_path, data_dir):
        path = write_config(
            tmp_path / "c.json", data_dir,
            window={"start": "2005-Q1", "end": "2003-Q4"},
        )
        with pytest.raises(ConfigError, match="window"):
            load_run_config(path)


    @pytest.mark.parametrize("levels", [[68, "90"], [68.5, 90], "68"])
    def test_non_integer_levels_rejected(self, tmp_path, data_dir, levels):
        path = write_config(tmp_path / "c.json", data_dir, levels=levels)
        with pytest.raises(ConfigError, match="levels"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "ordering",
        [["G", "T", "Y", "X"], ["G", "T", "Y"], "GTYi", ["G", "T", "Y", 5], ["G", "T", "Y", "Y"]],
    )
    def test_ordering_must_permute_the_variables(self, tmp_path, data_dir, ordering):
        path = write_config(tmp_path / "c.json", data_dir, ordering=ordering)
        with pytest.raises(ConfigError, match="ordering"):
            load_run_config(path)

    # the file only carries a country's schema map: load_csv checks it
    # when validate reads that country's CSV, before it opens the file
    def test_unknown_schema_key(self, tmp_path, capsys):
        err = validate_schema(tmp_path, capsys, {"so_wrong": "gdp"})
        assert err == "config error: country cz: unknown schema key(s): so_wrong\n"

    @pytest.mark.parametrize("column", [5, "", None, ["gdp"]])
    def test_schema_values_are_non_empty_strings(self, tmp_path, capsys, column):
        err = validate_schema(tmp_path, capsys, {"date": column})
        assert err == "config error: country cz: schema values must be non-empty strings\n"

    @pytest.mark.parametrize(
        "schema, first, second, column",
        [
            ({"gdp": "vat"}, "vat", "gdp", "vat"),
            ({"date": "cpi"}, "date", "cpi", "cpi"),
            ({"us_gdp": "x", "us_inflation": "x"}, "us_gdp", "us_inflation", "x"),
        ],
    )
    def test_schema_columns_must_be_distinct(self, tmp_path, capsys, schema, first, second,
                                             column):
        err = validate_schema(tmp_path, capsys, schema)
        assert err == (f"config error: country cz: schema maps both '{first}' and '{second}' "
                       f"to column '{column}'\n")

    def test_schema_swap_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        schema = {"gdp": "vat", "vat": "gdp"}
        path.write_text(json.dumps({"countries": [{"code": "cz", "csv": "x.csv", "schema": schema}]}))
        assert load_run_config(path).countries[0].schema == schema

    def test_permuted_ordering_accepted(self, tmp_path, data_dir):
        path = write_config(tmp_path / "c.json", data_dir, ordering=["T", "G", "Y", "i"])
        assert load_run_config(path).ordering == ("T", "G", "Y", "i")


class TestConfigHash:
    def test_sensitive_to_seed(self, tmp_path, data_dir):
        a = load_run_config(write_config(tmp_path / "a.json", data_dir, seed=1))
        b = load_run_config(write_config(tmp_path / "b.json", data_dir, seed=2))
        assert config_hash(a) != config_hash(b)

    def test_ignores_output_dir_and_workers(self, tmp_path, data_dir):
        a = load_run_config(
            write_config(tmp_path / "a.json", data_dir, output_dir="x", workers=1)
        )
        b = load_run_config(
            write_config(tmp_path / "b.json", data_dir, output_dir="y", workers=8)
        )
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_replications(self, tmp_path, data_dir):
        a = load_run_config(write_config(tmp_path / "a.json", data_dir, replications=50))
        b = load_run_config(write_config(tmp_path / "b.json", data_dir, replications=51))
        assert config_hash(a) != config_hash(b)

    def test_same_data_from_any_directory(self, tmp_path, data_dir):
        shutil.copytree(data_dir, tmp_path / "copy")
        a = load_run_config(write_config(tmp_path / "a.json", data_dir))
        b = load_run_config(write_config(tmp_path / "b.json", tmp_path / "copy"))
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_one_data_cell(self, tmp_path, data_dir):
        shutil.copytree(data_dir, tmp_path / "copy")
        config = load_run_config(write_config(tmp_path / "a.json", tmp_path / "copy"))
        before = config_hash(config)
        levels = synthetic_levels(START, N_QUARTERS, seed=0)  # cz, as data_dir writes it
        levels["gdp"][10] *= 1.001
        write_country_csv(tmp_path / "copy" / "cz.csv", levels)
        assert config_hash(config) != before

    def test_unreadable_csv_is_a_data_error(self, tmp_path, data_dir):
        shutil.copytree(data_dir, tmp_path / "copy")
        config = load_run_config(write_config(tmp_path / "a.json", tmp_path / "copy"))
        (tmp_path / "copy" / "hu.csv").unlink()
        with pytest.raises(DataError, match="cannot read .*hu.csv"):
            config_hash(config)

    def test_digest_pinned(self, tmp_path):
        # every RunConfig field but output_dir enters the digest, each CSV
        # by its bytes, wherever it lies; a change to what is hashed, or
        # how, shows here
        for code in ("cz", "sk"):
            (tmp_path / f"{code}.csv").write_bytes(f"date,gdp\n2000-Q1,{code}\n".encode())
        config = RunConfig(
            countries=(CountryEntry("cz", tmp_path / "cz.csv", "Czechia", {"G": "gov"}),
                       CountryEntry("sk", tmp_path / "sk.csv")),
            window=(Quarter(2000, 1), Quarter(2018, 4)), lags=2, horizons=12,
            ordering=("T", "G", "Y", "i"), replications=500, seed=7, levels=(90, 68),
            output_dir=Path("elsewhere"), plots=False,
        )
        assert config_hash(config) == (
            "0588e3e8b050fcc08e7e2c33420597ff6505c194fc84ea7977ac810ee7922122"
        )


class TestCsvText:
    def test_floats_17g_other_cells_as_they_are(self):
        assert csv_text({"h": [1], "m": [0.1], "s": ["*"]}) == "h,m,s\n1,0.10000000000000001,*\n"

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            csv_text({"h": [1, 2], "m": [0.1]})


class TestEmitTable:
    def paths(self):
        cz = MultiplierPath(np.array([1.42, -0.055, 0.8]))
        sk = MultiplierPath(np.array([0.386, 0.034, -0.175]))
        return {
            "cz": (cz, ("**", "", "*")),
            "sk": (sk, ("**", "", "")),
        }

    def test_text_layout(self):
        text, _ = emit_table(self.paths())
        lines = text.splitlines()
        assert lines[0].split() == ["CZ", "SK"]
        assert lines[1].split() == ["Q1", "1.420**", "0.386**"]
        assert lines[2].split() == ["Q2", "-0.055", "0.034"]
        assert lines[3].split() == ["Q3", "0.800*", "-0.175"]

    def test_csv_roundtrip_exact(self):
        _, text = emit_table(self.paths())
        rows = list(csv.DictReader(text.splitlines()))
        assert [r["quarter"] for r in rows] == ["Q1", "Q2", "Q3"]
        parsed = [float(r["cz_m"]) for r in rows]
        assert parsed == [1.42, -0.055, 0.8]
        assert [r["sk_stars"] for r in rows] == ["**", "", ""]

    def test_horizon_mismatch(self):
        paths = self.paths()
        paths["sk"] = (MultiplierPath(np.array([1.0, 2.0])), ("", ""))
        with pytest.raises(ShapeError):
            emit_table(paths)


@pytest.fixture(scope="module")
def run(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("out")
    config_path = write_config(
        tmp_path_factory.mktemp("cfg") / "c.json", data_dir,
        output_dir=str(out),
    )
    manifest = run_pipeline(load_run_config(config_path))
    return out, manifest


class TestPipeline:
    def test_expected_files(self, run):
        out, manifest = run
        for name in (
            "irf_cz.csv", "irf_hu.csv",
            "multipliers_cz.csv", "multipliers_hu.csv",
            "multipliers_cz.svg", "irf_cz.svg",
            "table1.txt", "table1.csv", "manifest.json",
        ):
            assert (out / name).exists(), name
        assert sorted(manifest["outputs"]) == manifest["outputs"]

    def test_manifest_contents(self, run):
        out, manifest = run
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest
        assert manifest["seed"] == 7
        assert manifest["replications"] == 60
        assert set(manifest["countries"]) == {"cz", "hu"}
        for info in manifest["countries"].values():
            assert info["failed_replications"] + 0 <= 60
            assert "max_companion_eigenvalue" in info

    def test_multiplier_csv_shape(self, run):
        out, _ = run
        rows = list(csv.DictReader((out / "multipliers_cz.csv").read_text().splitlines()))
        assert len(rows) == 20
        assert [r["h"] for r in rows] == [str(h) for h in range(1, 21)]
        for row in rows:
            assert float(row["lo90"]) <= float(row["lo68"]) <= float(row["hi68"]) <= float(row["hi90"])
            assert row["stars"] in ("", "*", "**")

    def test_irf_csv_shape(self, run):
        out, _ = run
        rows = list(csv.DictReader((out / "irf_cz.csv").read_text().splitlines()))
        assert len(rows) == 21 * 4
        variables = {r["variable"] for r in rows}
        assert variables == {"G", "T", "Y", "i"}

    def test_table_roundtrip_matches_multiplier_csv(self, run):
        out, _ = run
        table = list(csv.DictReader((out / "table1.csv").read_text().splitlines()))
        mult = list(csv.DictReader((out / "multipliers_cz.csv").read_text().splitlines()))
        assert [r["cz_m"] for r in table] == [r["m"] for r in mult]
        assert [r["cz_stars"] for r in table] == [r["stars"] for r in mult]


class TestDeterminism:
    def test_worker_count_and_rerun_byte_identical(self, tmp_path, data_dir):
        outs = []
        for i, workers in enumerate((1, 4)):
            out = tmp_path / f"out{i}"
            config_path = write_config(
                tmp_path / f"c{i}.json", data_dir,
                output_dir=str(out), workers=workers, replications=40,
            )
            run_pipeline(load_run_config(config_path))
            outs.append(out)
        a, b = outs
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestMainExitCodes:
    def test_validate_ok(self, tmp_path, data_dir, capsys):
        path = write_config(tmp_path / "c.json", data_dir)
        assert main(["validate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 countries" in out and "replications=60" in out

    def test_unknown_key_exit_2(self, tmp_path, data_dir, capsys):
        path = write_config(tmp_path / "c.json", data_dir, nope=True)
        assert main(["validate", "--config", str(path)]) == 2
        assert "nope" in capsys.readouterr().err

    def test_missing_csv_exit_3(self, tmp_path, data_dir, capsys):
        path = tmp_path / "c.json"
        payload = {
            "countries": [{"code": "cz", "csv": str(tmp_path / "absent.csv")}],
            "window": {"start": str(START), "end": str(END)},
        }
        path.write_text(json.dumps(payload))
        assert main(["validate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "cz" in err and "absent.csv" in err

    @pytest.mark.parametrize("broken",
                             ["short_row", "nan_cell", "directory", "not_utf8", "tiny_cpi"])
    def test_malformed_csv_exit_3(self, tmp_path, data_dir, capsys, broken):
        csv_path = tmp_path / "cz.csv"
        write_country_csv(csv_path, synthetic_levels(START, N_QUARTERS, seed=0))
        lines = csv_path.read_text().splitlines()
        cells = lines[5].split(",")
        if broken == "short_row":
            cells = cells[:4]
        elif broken == "tiny_cpi":
            cells[5] = "1e-310"  # positive, but deflating by it overflows
        else:
            cells[4] = "nan"  # the gdp column
        lines[5] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        where = "cz.csv:6"
        if broken == "directory":
            csv_path.unlink()
            csv_path.mkdir()
            where = "cz.csv"
        elif broken == "not_utf8":
            csv_path.write_bytes(csv_path.read_bytes().replace(b"date", b"d\xe4te"))
            where = "cz.csv"
        elif broken == "tiny_cpi":
            where = "data error: country cz: G is not finite at 2000-Q1\n"
        path = tmp_path / "c.json"
        payload = {
            "countries": [{"code": "cz", "csv": str(csv_path)}],
            "window": {"start": str(START), "end": str(END)},
        }
        path.write_text(json.dumps(payload))
        assert main(["validate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and where in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "override",
        [
            {"levels": [68, "90"]},
            {"ordering": ["G", "T", "Y", "X"]},
            {"countries": 5},
            {"countries": [{"code": "cz", "csv": 5}]},
            {"window": {"start": 5, "end": str(END)}},
            {"output_dir": 5},
            {"levels": []},
            {"levels": [90]},
            {"levels": [50, 68, 90]},
            {"ordering": ["G", "T", "Y", 5]},
            {"schema": {"bogus": "x"}},
            {"schema": {"date": 5}},
            {"schema": {"gdp": "vat"}},
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "estimate"])
    def test_bad_levels_or_ordering_exit_2(self, tmp_path, data_dir, capsys, override, command):
        if "schema" in override:
            override = {"countries": [{"code": "cz", "csv": str(data_dir / "cz.csv"), **override}]}
        path = write_config(tmp_path / "c.json", data_dir, **override)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_one_level_without_plots_valid(self, tmp_path, data_dir, capsys):
        path = write_config(tmp_path / "c.json", data_dir, levels=[90], plots=False)
        assert main(["validate", "--config", str(path)]) == 0
        assert "levels=[90]" in capsys.readouterr().out

    def test_out_naming_a_file_exit_2(self, tmp_path, data_dir, capsys):
        path = write_config(tmp_path / "c.json", data_dir)
        (tmp_path / "o").write_text("not a directory")
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "output directory" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("under", [True, False], ids=["under_a_file", "a_file"])
    def test_validate_rejects_an_out_it_cannot_create(self, tmp_path, data_dir, capsys, under):
        # only the not-a-directory half is tested: root may write anywhere
        path = write_config(tmp_path / "c.json", data_dir)
        (tmp_path / "f").write_text("not a directory")
        out = tmp_path / "f" / "x" if under else tmp_path / "f"
        errs = []
        for command in ("validate", "estimate"):
            assert main([command, "--config", str(path), "--out", str(out), "--reps", "5"]) == 2
            errs.append(capsys.readouterr().err)
            assert len(errs[-1].splitlines()) == 1
        if under:
            assert errs[0] == errs[1] == (
                f"config error: cannot create output directory: [Errno 20] Not a directory: "
                f"'{out}'\n"
            )
        else:
            assert errs[0] == (
                f"config error: cannot create output directory {out}: "
                f"{out} is not a writable directory\n"
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "f"]

    def test_unwritable_output_file_exit_2(self, tmp_path, data_dir, capsys):
        path = write_config(tmp_path / "c.json", data_dir)
        (tmp_path / "o" / "table1.txt").mkdir(parents=True)
        argv = ["estimate", "--config", str(path), "--out", str(tmp_path / "o"), "--reps", "5"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {tmp_path / 'o' / 'table1.txt'}: Is a directory\n"
        )

    def test_short_window_exit_4(self, tmp_path, data_dir, capsys):
        # 12 quarters leave too few rows for 4 lags; horizons stay below
        # the window's quarter count so that the estimate, not the config,
        # fails
        path = write_config(
            tmp_path / "c.json", data_dir,
            window={"start": "1999-Q1", "end": "2001-Q4"},
            horizons=8,
            output_dir=str(tmp_path / "o"),
        )
        assert main(["estimate", "--config", str(path)]) == 4
        assert "cz" in capsys.readouterr().err

    @pytest.mark.parametrize("code", ["cz", "hu", "pl", "sk"])
    @pytest.mark.parametrize("end, rows", [("2005-Q2", 21), ("2005-Q3", 22), ("2005-Q4", 23)])
    def test_residual_covariance_short_of_full_rank_exit_4(self, tmp_path, capsys, end, rows,
                                                           code):
        # fewer usable rows than 20 regressors plus 4 variables leave the
        # residual covariance singular by construction, whatever its
        # rounding: every country fails at its point fit
        path = snapshot_window_config(tmp_path / "c.json", end, [code])
        with pytest.raises(SampleSizeError):
            run_pipeline(load_run_config(path))
        assert main(["estimate", "--config", str(path), "--reps", "1", "--seed", "0"]) == 4
        assert capsys.readouterr().err == (
            f"estimation error: country {code}: {rows} usable rows for 20 regressors; "
            "need T - p >= n_regressors + k\n"
        )

    def test_full_rank_boundary_fits(self, tmp_path, capsys):
        # 1999-Q1..2006-Q1 leaves exactly 20 + 4 usable rows
        path = snapshot_window_config(tmp_path / "c.json", "2006-Q1", ["cz", "hu", "pl", "sk"])
        assert main(["estimate", "--config", str(path), "--reps", "1", "--seed", "0"]) == 0
        assert (tmp_path / "o" / "table1.txt").exists()

    @pytest.mark.parametrize(
        "overrides, flags",
        [({"lags": N_QUARTERS}, []), ({"horizons": N_QUARTERS}, []),
         ({"window": {"start": "1999-Q1", "end": "2001-Q4"}}, []),
         ({}, ["--horizon", str(10**13)])],
        ids=["lags", "horizons", "short_window_default_horizons", "horizon_flag"],
    )
    def test_sizes_not_below_window_exit_2(self, tmp_path, data_dir, capsys, monkeypatch,
                                           overrides, flags):
        def never(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_mod, "run_pipeline", never)
        path = write_config(tmp_path / "c.json", data_dir, **overrides)
        assert main(["estimate", "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "must be below the window's" in err

    @pytest.mark.parametrize(
        "overrides, flags",
        [({"replications": 100_001}, []), ({}, ["--reps", "100001"]),
         ({}, ["--reps", str(10**13)])],
        ids=["config_key", "reps_flag", "huge_reps_flag"],
    )
    def test_oversized_replications_exit_2(self, tmp_path, data_dir, capsys, monkeypatch,
                                           overrides, flags):
        def never(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_mod, "run_pipeline", never)
        path = write_config(tmp_path / "c.json", data_dir, **overrides)
        assert main(["estimate", "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "replications must be between 1 and 100000" in err

    @pytest.mark.parametrize("code", ["a/b", "x\u0000y", "", 5],
                             ids=["slash", "nul", "empty", "int"])
    @pytest.mark.parametrize("command", ["validate", "estimate"])
    def test_unsafe_country_code_exit_2(self, tmp_path, data_dir, capsys, monkeypatch,
                                        code, command):
        def never(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_mod, "run_pipeline", never)
        countries = [{"code": code, "csv": str(data_dir / "cz.csv")}]
        path = write_config(tmp_path / "c.json", data_dir, countries=countries)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: country code {code!r} must be")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["a\u0001b", "x\u0000y", "\ud800", "\uffff", 5],
                             ids=["soh", "nul", "surrogate", "noncharacter", "int"])
    @pytest.mark.parametrize("command", ["validate", "estimate"])
    def test_unsafe_country_name_exit_2(self, tmp_path, data_dir, capsys, monkeypatch,
                                        name, command):
        def never(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_mod, "run_pipeline", never)
        countries = [{"code": "cz", "csv": str(data_dir / "cz.csv"), "name": name}]
        path = write_config(tmp_path / "c.json", data_dir, countries=countries)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: country cz: name {name!r} must be")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_country_name_keeps_printable_unicode(self):
        name = "\u010cesko \u2013 \u0395\u03bb\u03bb\u03ac\u03b4\u03b1\u00a0\U0001f600\u007f"
        assert CountryEntry("cz", Path("cz.csv"), name).display == name

    # XML's forbidden characters are rare among all code points; draw them often
    @given(st.text(st.characters(exclude_categories=())
                   | st.sampled_from("\ud800\udfff\ufffe\uffff")))
    def test_every_accepted_name_titles_a_parseable_svg(self, name):
        try:
            entry = CountryEntry("cz", Path("cz.csv"), name)
        except ConfigError:
            return
        bands = {68: np.zeros((2, 2)), 90: np.ones((2, 2))}
        svg = render_band_plot(np.arange(2), np.zeros(2), bands, title=entry.display)
        titles = [el.text for el in ET.fromstring(svg.encode("utf-8")).iter()
                  if el.get("font-size") == "14"]
        assert titles == [entry.display]

    def test_country_seed_pinned(self):
        # checking the code leaves every valid code's seed as it was
        assert country_seed(0, "cz") == 124092031310803917971222771590101180118
        assert country_seed(7, "Bos-nia_2.x") == 1228698874261105946313452040757140868

    def test_estimate_with_filter_and_overrides(self, tmp_path, data_dir, capsys):
        path = write_config(tmp_path / "c.json", data_dir)
        code = main([
            "estimate", "--config", str(path),
            "--out", str(tmp_path / "o"),
            "--countries", "hu", "--reps", "30", "--seed", "1",
        ])
        assert code == 0
        assert (tmp_path / "o" / "multipliers_hu.csv").exists()
        assert not (tmp_path / "o" / "multipliers_cz.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--reps", "0"], ["--horizon", str(10**13)], ["--seed", "-1"], ["--countries", "zz"]],
        ids=["reps", "horizon", "seed", "countries"],
    )
    def test_validate_rejects_what_estimate_rejects(self, tmp_path, data_dir, capsys,
                                                    monkeypatch, flags):
        def never(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_mod, "run_pipeline", never)
        path = write_config(tmp_path / "c.json", data_dir)
        errs = []
        for command in ("estimate", "validate"):
            argv = [command, "--config", str(path), "--out", str(tmp_path / "o"), *flags]
            assert main(argv) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and errs[0].startswith("config error: ")
        assert len(errs[0].splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_validate_reports_the_overridden_run(self, tmp_path, data_dir, capsys):
        path = write_config(tmp_path / "c.json", data_dir)
        out = tmp_path / "x"
        assert main(["validate", "--config", str(path), "--out", str(out), "--reps", "5"]) == 0
        printed = capsys.readouterr().out
        assert "replications=5," in printed and f"output_dir={out}\n" in printed
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_last_csv_fails_before_any_bootstrap(self, tmp_path, data_dir, capsys,
                                                         monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a bootstrap ran")

        monkeypatch.setattr(cli_mod, "bootstrap_inference", never)
        countries = [{"code": "cz", "csv": str(data_dir / "cz.csv")},
                     {"code": "hu", "csv": str(tmp_path / "absent.csv")}]
        path = write_config(tmp_path / "c.json", data_dir, countries=countries)
        out = tmp_path / "o"
        assert main(["estimate", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: country hu: cannot read") and "absent.csv" in err
        assert not out.exists()

    def test_schema_checked_only_for_the_countries_kept(self, tmp_path, data_dir, capsys):
        # the map is checked when its CSV is read, so a country that
        # --countries leaves out is checked no more than its CSV is read
        countries = [{"code": "cz", "csv": str(data_dir / "cz.csv")},
                     {"code": "hu", "csv": "absent.csv", "schema": {"gdp": "vat"}}]
        path = write_config(tmp_path / "c.json", data_dir, countries=countries)
        assert main(["validate", "--config", str(path), "--countries", "cz"]) == 0
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: country hu: schema maps both 'vat' and 'gdp' to column 'vat'\n")

    def test_one_quarter_horizon_plots(self, tmp_path, capsys):
        # one multiplier quarter is a single-point x range
        out = tmp_path / "o"
        argv = ["estimate", "--config", str(SNAPSHOT_CONFIG), "--out", str(out),
                "--horizon", "1", "--reps", "50", "--countries", "cz"]
        assert main(argv) == 0
        for name in ("multipliers_cz.svg", "irf_cz.svg"):
            root = ET.parse(out / name).getroot()
            assert sum(el.tag.endswith("polyline") for el in root.iter()) == 5, name

    def test_unknown_country_filter_exit_2(self, tmp_path, data_dir, capsys):
        path = write_config(tmp_path / "c.json", data_dir)
        assert main([
            "estimate", "--config", str(path),
            "--out", str(tmp_path / "o"), "--countries", "zz",
        ]) == 2
        assert "zz" in capsys.readouterr().err

    def test_montecarlo_runs(self, tmp_path, capsys):
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps(reference_spec(T=84, seed=2).to_dict()))
        code = main([
            "montecarlo", "--config", str(spec_path),
            "--reps", "3", "--out", str(tmp_path / "mc"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 trials" in out
        assert (tmp_path / "mc" / "recovery.csv").exists()

    @pytest.mark.parametrize("flags", [["--countries", "cz"], ["--workers", "2"]],
                             ids=["countries", "workers"])
    def test_montecarlo_takes_no_country_or_worker_flag(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exited:
            main(["montecarlo", "--config", str(tmp_path / "dgp.json"), *flags])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_montecarlo_bad_spec_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "dgp.json"
        payload = reference_spec().to_dict()
        payload["wrong"] = 1
        spec_path.write_text(json.dumps(payload))
        assert main(["montecarlo", "--config", str(spec_path)]) == 2
        assert "wrong" in capsys.readouterr().err

    # {path} stands for the DGP file: the CLI names it on the spec's own
    # errors; the run's errors are monte_carlo_recovery's, unprefixed
    @pytest.mark.parametrize(
        "change, flags, message",
        [
            ({"gammas": [[[1.05, 0, 0, 0], [0, 0.3, 0, 0], [0, 0, 0.3, 0], [0, 0, 0, 0.4]]]},
             [], "{path}: companion eigenvalue modulus 1.0500 >= 1; spec is explosive"),
            ({"gammas": [[["a", 0, 0, 0]] * 4]}, [],
             "{path}: malformed DGP spec: could not convert string to float: 'a'"),
            ({"seed": -1}, [], "{path}: seed must be non-negative"),
            ({}, ["--seed", "-1"], "{path}: seed must be non-negative"),
            ({}, ["--reps", "0"], "n_trials must be between 1 and 100000"),
            ({}, ["--horizon", "0"], "horizons must be >= 1"),
            ({"labels": ["G", "T", "X", "i"]}, [],
             "ordering ['G', 'T', 'X', 'i'] must hold the shock 'G' and the response 'Y'"),
            ({"seed": True}, [], "{path}: T, burn_in and seed must be integers"),
            ({"burn_in": True}, [], "{path}: T, burn_in and seed must be integers"),
            ({"T": True}, [], "{path}: T, burn_in and seed must be integers"),
            ({"labels": "GTYi"}, [], "{path}: labels must be a list"),
            ({"labels": ["G", "Y", "Y", "i"]}, [],
             "{path}: labels ['G', 'Y', 'Y', 'i'] must be distinct, non-empty strings"),
            ({"labels": ["G", "T", "Y", 5]}, [],
             "{path}: labels ['G', 'T', 'Y', 5] must be distinct, non-empty strings"),
        ],
        ids=["explosive", "non_numeric_gammas", "negative_seed", "seed_flag", "zero_reps",
             "zero_horizon", "no_y_label", "bool_seed", "bool_burn_in", "bool_t",
             "string_labels", "repeated_label", "non_string_label"],
    )
    def test_montecarlo_bad_input_exit_2(self, tmp_path, capsys, change, flags, message):
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps({**reference_spec().to_dict(), **change}))
        assert main(["montecarlo", "--config", str(spec_path), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message.format(path=spec_path)}\n"

    @pytest.mark.parametrize(
        "change, flags, message",
        [({}, ["--horizon", "84"], "horizons (84) must be below the DGP's T (84)"),
         ({}, ["--horizon", str(10**13)], f"horizons ({10**13}) must be below the DGP's T (84)"),
         ({"T": 10**13}, [], "{path}: T + burn_in must not exceed 40000 quarters"),
         ({"burn_in": 10**13}, [], "{path}: T + burn_in must not exceed 40000 quarters"),
         ({}, ["--reps", "100001"], "n_trials must be between 1 and 100000")],
        ids=["horizon_at_t", "huge_horizon", "huge_t", "huge_burn_in", "huge_reps"],
    )
    def test_montecarlo_oversized_input_exit_2(self, tmp_path, capsys, monkeypatch,
                                               change, flags, message):
        # validation must reject these before the true path or the trials
        # allocate anything
        def never(*args, **kwargs):
            raise AssertionError("allocation reached")

        monkeypatch.setattr(cli_mod.dgp_mod, "analytic_multipliers", never)
        monkeypatch.setattr(cli_mod.dgp_mod, "fit_draws", never)
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps({**reference_spec().to_dict(), **change}))
        assert main(["montecarlo", "--config", str(spec_path), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message.format(path=spec_path)}\n"

    def test_montecarlo_degenerate_true_path_exit_2(self, tmp_path, capsys):
        # G_t = -G_{t-1} - 0.5 G_{t-2} is stable, but its cumulative G
        # response is exactly zero at quarter 2
        payload = {"intercept": [0, 0], "gammas": [[[-1, 0], [0, 0]], [[-0.5, 0], [0, 0]]],
                   "B": [[1, 0], [0, 1]], "exog_coef": None, "T": 84, "labels": ["G", "Y"]}
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps(payload))
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: the DGP has no true multiplier path: "
            "cumulative G response is 0.000e+00 at quarter 2\n"
        )
        assert not out.exists()

    def test_montecarlo_uncreatable_out_exit_2_before_the_study(self, tmp_path, capsys,
                                                                 monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli_mod.dgp_mod, "monte_carlo_recovery", never)
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps(reference_spec().to_dict()))
        out = spec_path / "mc"  # under a regular file, as /dev/null/x
        assert main(["montecarlo", "--config", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output directory")
        assert err.count("\n") == 1

    def test_montecarlo_unwritable_csv_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps(reference_spec().to_dict()))
        (tmp_path / "mc" / "recovery.csv").mkdir(parents=True)
        argv = ["montecarlo", "--config", str(spec_path), "--reps", "3", "--out",
                str(tmp_path / "mc")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {tmp_path / 'mc' / 'recovery.csv'}: Is a directory\n"
        )


class TestCountryErrors:
    def test_window_error_names_country_once(self, tmp_path, data_dir, capsys):
        path = write_config(
            tmp_path / "c.json", data_dir, window={"start": "1990-Q1", "end": str(END)}
        )
        assert main(["validate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: country cz: window") and err.count("country") == 1

    def test_error_keeps_type_and_attributes(self, tmp_path, data_dir, monkeypatch):
        def fail(entry, panel, config):
            raise DecompositionError("pivot 2 is non-positive", pivot=2)

        monkeypatch.setattr(cli_mod, "_run_country", fail)
        config = load_run_config(
            write_config(tmp_path / "c.json", data_dir, output_dir=str(tmp_path / "o"))
        )
        with pytest.raises(DecompositionError) as err:
            run_pipeline(config)
        assert err.value.pivot == 2
        assert str(err.value) == "country cz: pivot 2 is non-positive"


class TestOneCountryAtATime:
    def test_a_finished_result_dies_before_the_next_bootstrap(self, tmp_path, data_dir,
                                                              monkeypatch):
        # a country's result, draws and all, must be freed once its files
        # are rendered, so each process holds one country's draws; at one
        # worker every country runs in this process, where refs sees it
        pin_workers(monkeypatch, 1)
        real, refs = cli_mod.bootstrap_inference, []

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in refs), "an earlier country's result is alive"
            result = real(*args, **kwargs)
            refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(cli_mod, "bootstrap_inference", tracked)
        path = write_config(tmp_path / "c.json", data_dir)
        assert main(["estimate", "--config", str(path),
                     "--out", str(tmp_path / "o"), "--reps", "30"]) == 0
        assert len(refs) == 2

    def test_a_failing_country_writes_no_bundle(self, tmp_path, data_dir, capsys, monkeypatch):
        # hu, the second country, fails in this process at one worker and
        # in a child process at two
        real = cli_mod.bootstrap_inference

        def hu_fails(panel, boot, model):
            if boot.seed == country_seed(7, "hu"):
                raise InferenceError("2 of 30 replications failed (limit 5%)")
            return real(panel, boot, model)

        monkeypatch.setattr(cli_mod, "bootstrap_inference", hu_fails)
        path = write_config(tmp_path / "c.json", data_dir)
        for workers in (1, 2):
            pin_workers(monkeypatch, workers)
            out = tmp_path / f"o{workers}"
            assert main(["estimate", "--config", str(path), "--out", str(out),
                         "--reps", "30"]) == 4
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("estimation error: country hu:")
            for pattern in ("irf_*", "multipliers_*", "table1.*", "manifest.json"):
                assert not list(out.glob(pattern)), (workers, pattern)


class TestRunConfigValidation:
    def test_duplicate_codes(self, data_dir):
        from fiscalsvar.cli import CountryEntry

        # codes name output files: on a case-insensitive file system, CZ's
        # would overwrite cz's
        for other in ("CZ", "cz"):
            with pytest.raises(ConfigError, match=r"duplicate country codes \(ignoring case\)"):
                RunConfig(
                    countries=(
                        CountryEntry("cz", data_dir / "cz.csv"),
                        CountryEntry(other, data_dir / "cz.csv"),
                    ),
                )

    def test_python_built_schema_checked_before_any_output(self, tmp_path, data_dir):
        entry = CountryEntry("cz", data_dir / "cz.csv", schema={"gdp": "vat"})
        out = tmp_path / "o"
        config = RunConfig(countries=(entry,), window=(START, END), replications=5,
                           output_dir=out)
        with pytest.raises(ConfigError) as info:
            run_pipeline(config)
        assert str(info.value) == "country cz: schema maps both 'vat' and 'gdp' to column 'vat'"
        assert not out.exists()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CountryEntry("cz", 5), "country cz: csv must be a path string"),
            (lambda: RunConfig(countries=(CountryEntry("cz", Path("cz.csv")),),
                               window=("1999-Q1", "2019-Q4")),
             "window must be a pair of quarters"),
            (lambda: RunConfig(countries=[{"code": "cz", "csv": "x"}]),
             "countries must be a list of CountryEntry values"),
        ],
        ids=["csv", "window", "countries"],
    )
    def test_field_types_checked(self, build, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            build()

    def test_csv_stored_as_a_path(self):
        assert CountryEntry("cz", "cz.csv").csv == Path("cz.csv")

    def test_bad_levels(self, data_dir):
        from fiscalsvar.cli import CountryEntry

        with pytest.raises(ConfigError, match="levels"):
            RunConfig(
                countries=(CountryEntry("cz", data_dir / "cz.csv"),),
                levels=(68, 104),
            )


def load_coverage_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "coverage_experiment.py"
    spec = importlib.util.spec_from_file_location("coverage_experiment", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCoverageScript:
    """scripts/coverage_experiment.py refuses oversized counts and a bad
    reference system as a config error before anything is simulated."""

    @pytest.fixture
    def script(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a trial was simulated")

        monkeypatch.setattr(cli_mod.dgp_mod, "_simulate_panels", never)
        monkeypatch.setattr(cli_mod.dgp_mod, "simulate_var", never)
        return load_coverage_script()

    @pytest.mark.parametrize(
        "args, message",
        [(["--reps", "100001"], "replications must be between 1 and 100000"),
         (["--trials", "100001"], "n_trials must be between 1 and 100000"),
         (["--sample", "0"], "T must be >= 1"),
         (["--seed", "-1"], "seed must be non-negative"),
         (["--out", "/dev/null/x"],
          "cannot create output directory: [Errno 20] Not a directory: '/dev/null/x'")],
        ids=["reps", "trials", "sample", "seed", "out"],
    )
    def test_bad_input_exit_2(self, script, capsys, args, message):
        assert script.main(args) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"

    def test_unwritable_csv_exit_2(self, tmp_path, capsys):
        (tmp_path / "coverage.csv").mkdir()
        argv = ["--trials", "1", "--reps", "20", "--out", str(tmp_path)]
        assert load_coverage_script().main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {tmp_path / 'coverage.csv'}: Is a directory\n"
        )

    def test_every_trial_failing_exit_4(self, capsys):
        # 21 quarters leave 17 rows for 17 regressors, so no trial fits
        assert load_coverage_script().main(["--sample", "21", "--trials", "2", "--reps", "20"]) == 4
        assert capsys.readouterr().err == (
            "estimation error: all 2 trials failed; first: SampleSizeError: "
            "17 usable rows for 17 regressors; need T - p >= n_regressors + k\n"
        )


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["montecarlo", "coverage_experiment"])
def test_closed_stdout_keeps_the_csv(tmp_path, command, buffered):
    # the reader is gone before the first byte: unbuffered, the first line
    # printed fails; buffered, the flush at the end does
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "o"
    if command == "montecarlo":
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps(reference_spec().to_dict()))
        argv = ["-m", "fiscalsvar", "montecarlo", "--config", str(spec_path),
                "--reps", "5", "--horizon", "4", "--out", str(out)]
        written = out / "recovery.csv"
    else:
        argv = [str(root / "scripts" / "coverage_experiment.py"),
                "--trials", "1", "--reps", "20", "--out", str(out)]
        written = out / "coverage.csv"
    flags = [] if buffered else ["-u"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.Popen([sys.executable, *flags, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and err == ""
    assert written.read_text().startswith("h,analytic,")


def test_scripts_import_no_private_package_name():
    # a script that reaches into a module's private helpers breaks when they
    # change; scripts use the package's public names only
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    leaks = []
    for script in sorted(scripts.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fiscalsvar":
                leaks += [f"{script.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert leaks == []


class TestSnapshotScript:
    """scripts/make_snapshot.py still imports against the package, its CSV
    writer reproduces a committed snapshot file from what load_csv reads
    back, and its generator rebuilds every committed country file."""

    ROOT = Path(__file__).resolve().parents[1]

    @pytest.fixture
    def script(self):
        pytest.importorskip("scipy")
        spec = importlib.util.spec_from_file_location(
            "make_snapshot", self.ROOT / "scripts" / "make_snapshot.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_rewrites_snapshot_csv_byte_for_byte(self, script, tmp_path):
        data = script.load_csv(self.ROOT / "data" / "cz.csv", country="cz")
        dates = [str(data.start + i) for i in range(script.N_QUARTERS)]
        script.write_csv(tmp_path / "cz.csv", {"date": dates, **data.values})
        assert (tmp_path / "cz.csv").read_bytes() == (self.ROOT / "data" / "cz.csv").read_bytes()

    @pytest.mark.parametrize("code", ["cz", "hu", "pl", "sk"])
    def test_regenerates_country_file_byte_for_byte(self, script, tmp_path, code):
        manifest = json.loads((self.ROOT / "data" / "manifest.json").read_text())
        us_levels, z_full = script.us_block(script.BURN + script.N_QUARTERS)
        data_seed = script.derive_data_seed(code, manifest["data_seeds"][code])
        X = script.simulate_country(script.fit_country(code), z_full, data_seed)
        script.write_csv(tmp_path / f"{code}.csv", script.invert_levels(code, X, us_levels))
        expected = (self.ROOT / "data" / f"{code}.csv").read_bytes()
        assert (tmp_path / f"{code}.csv").read_bytes() == expected
