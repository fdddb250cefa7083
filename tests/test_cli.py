import csv
import json

import numpy as np
import pytest

import fiscalsvar.cli as cli_mod
from conftest import synthetic_levels, write_country_csv
from fiscalsvar.cli import (
    RunConfig,
    config_hash,
    emit_table,
    load_run_config,
    main,
    run_pipeline,
)
from fiscalsvar.dgp import reference_spec
from fiscalsvar.errors import ConfigError, DecompositionError, ShapeError
from fiscalsvar.series import Quarter
from fiscalsvar.svar import MultiplierPath

START = Quarter(1999, 1)
N_QUARTERS = 48
END = START + (N_QUARTERS - 1)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("raw")
    for i, code in enumerate(("cz", "hu")):
        write_country_csv(root / f"{code}.csv", synthetic_levels(START, N_QUARTERS, seed=i))
    return root


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

    @pytest.mark.parametrize("ordering", [["G", "T", "Y", "X"], ["G", "T", "Y"], "GTYi"])
    def test_ordering_must_permute_the_variables(self, tmp_path, data_dir, ordering):
        path = write_config(tmp_path / "c.json", data_dir, ordering=ordering)
        with pytest.raises(ConfigError, match="ordering"):
            load_run_config(path)

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

    @pytest.mark.parametrize("broken", ["short_row", "nan_cell", "directory", "not_utf8"])
    def test_malformed_csv_exit_3(self, tmp_path, data_dir, capsys, broken):
        csv_path = tmp_path / "cz.csv"
        write_country_csv(csv_path, synthetic_levels(START, N_QUARTERS, seed=0))
        lines = csv_path.read_text().splitlines()
        cells = lines[5].split(",")
        if broken == "short_row":
            cells = cells[:4]
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
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "estimate"])
    def test_bad_levels_or_ordering_exit_2(self, tmp_path, data_dir, capsys, override, command):
        path = write_config(tmp_path / "c.json", data_dir, **override)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_exit_2(self, tmp_path, data_dir, capsys):
        path = write_config(tmp_path / "c.json", data_dir)
        (tmp_path / "o").write_text("not a directory")
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "output directory" in err
        assert len(err.splitlines()) == 1

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

    def test_montecarlo_bad_spec_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "dgp.json"
        payload = reference_spec().to_dict()
        payload["wrong"] = 1
        spec_path.write_text(json.dumps(payload))
        assert main(["montecarlo", "--config", str(spec_path)]) == 2
        assert "wrong" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, flags, message",
        [
            ({"gammas": [[[1.05, 0, 0, 0], [0, 0.3, 0, 0], [0, 0, 0.3, 0], [0, 0, 0, 0.4]]]},
             [], "explosive"),
            ({"gammas": [[["a", 0, 0, 0]] * 4]}, [], "malformed DGP spec"),
            ({"seed": -1}, [], "seed must be non-negative"),
            ({}, ["--seed", "-1"], "seed must be non-negative"),
            ({}, ["--reps", "0"], "--reps"),
            ({}, ["--horizon", "0"], "--horizon"),
        ],
        ids=["explosive", "non_numeric_gammas", "negative_seed", "seed_flag", "zero_reps",
             "zero_horizon"],
    )
    def test_montecarlo_bad_input_exit_2(self, tmp_path, capsys, change, flags, message):
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps({**reference_spec().to_dict(), **change}))
        assert main(["montecarlo", "--config", str(spec_path), *flags]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize(
        "change, flags, message",
        [({}, ["--horizon", "84"], "--horizon 84 must be below the DGP's T (84)"),
         ({}, ["--horizon", str(10**13)], "must be below the DGP's T"),
         ({"T": 10**13}, [], "T + burn_in must not exceed"),
         ({"burn_in": 10**13}, [], "T + burn_in must not exceed"),
         ({}, ["--reps", "100001"], "--reps must not exceed 100000")],
        ids=["horizon_at_t", "huge_horizon", "huge_t", "huge_burn_in", "huge_reps"],
    )
    def test_montecarlo_oversized_input_exit_2(self, tmp_path, capsys, monkeypatch,
                                               change, flags, message):
        # validation must reject these before the true path or the trials
        # allocate anything
        def never(*args, **kwargs):
            raise AssertionError("allocation reached")

        monkeypatch.setattr(cli_mod.dgp_mod, "analytic_multipliers", never)
        monkeypatch.setattr(cli_mod.dgp_mod, "monte_carlo_recovery", never)
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps({**reference_spec().to_dict(), **change}))
        assert main(["montecarlo", "--config", str(spec_path), *flags]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert len(err.splitlines()) == 1


class TestCountryErrors:
    def test_window_error_names_country_once(self, tmp_path, data_dir, capsys):
        path = write_config(
            tmp_path / "c.json", data_dir, window={"start": "1990-Q1", "end": str(END)}
        )
        assert main(["validate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: country cz: window") and err.count("country") == 1

    def test_error_keeps_type_and_attributes(self, tmp_path, data_dir, monkeypatch):
        def fail(entry, config):
            raise DecompositionError("pivot 2 is non-positive", pivot=2)

        monkeypatch.setattr(cli_mod, "_run_country", fail)
        config = load_run_config(
            write_config(tmp_path / "c.json", data_dir, output_dir=str(tmp_path / "o"))
        )
        with pytest.raises(DecompositionError) as err:
            run_pipeline(config)
        assert err.value.pivot == 2
        assert str(err.value) == "country cz: pivot 2 is non-positive"


class TestRunConfigValidation:
    def test_duplicate_codes(self, data_dir):
        from fiscalsvar.cli import CountryEntry

        with pytest.raises(ConfigError, match="duplicate"):
            RunConfig(
                countries=(
                    CountryEntry("cz", data_dir / "cz.csv"),
                    CountryEntry("cz", data_dir / "cz.csv"),
                ),
            )

    def test_bad_levels(self, data_dir):
        from fiscalsvar.cli import CountryEntry

        with pytest.raises(ConfigError, match="levels"):
            RunConfig(
                countries=(CountryEntry("cz", data_dir / "cz.csv"),),
                levels=(68, 104),
            )
