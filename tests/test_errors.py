import contextlib
import csv
import inspect
import io
import json
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiscalsvar.cli as cli
import fiscalsvar.errors as errors
from conftest import synthetic_levels, write_country_csv
from fiscalsvar.cli import load_run_config, main
from fiscalsvar.dgp import DgpSpec, reference_spec
from fiscalsvar.errors import ConfigError, DataError, EstimationError, FiscalSvarError
from fiscalsvar.ingest import SERIES, X_LABELS, build_panel, load_csv
from fiscalsvar.series import Quarter

BASES = {ConfigError: 2, DataError: 3, EstimationError: 4}
LEAVES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, FiscalSvarError) and cls is not FiscalSvarError and cls not in BASES
]


def test_every_error_has_exactly_one_base():
    assert {cls.__name__ for cls in LEAVES} == {
        "UnstableDgpError",
        "DomainError",
        "InsufficientDataError",
        "SchemaError",
        "QuarterGapError",
        "CsvParseError",
        "WindowCoverageError",
        "SampleSizeError",
        "RankError",
        "DofError",
        "DecompositionError",
        "DegenerateDenominatorError",
        "NonFiniteError",
        "ShapeError",
        "InferenceError",
    }
    for cls in LEAVES:
        assert sum(issubclass(cls, base) for base in BASES) == 1, cls


@pytest.mark.parametrize("cls", [*BASES, *LEAVES], ids=lambda cls: cls.__name__)
def test_main_maps_every_error_by_its_base(cls, monkeypatch, capsys):
    def handler(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_validate", handler)
    code = next(code for base, code in BASES.items() if issubclass(cls, base))
    assert main(["validate", "--config", "unused.json"]) == code
    assert capsys.readouterr().err.strip().endswith("boom")


# -- fuzzing the two places input files enter the program ----------------

START = Quarter(1999, 1)
N = 12
# horizons must stay below the window's N quarters for a config to be valid
WINDOW = {"start": str(START), "end": str(START + (N - 1))}
COLUMNS = synthetic_levels(START, N, seed=3)
HEADER = ["date", *SERIES]
GOOD_ROWS = [HEADER] + [[str(COLUMNS[name][i]) for name in HEADER] for i in range(N)]
JUNK_CELLS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "0", "-1", "x", "1999-Q5", "ünïcode"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_country_csv(root / "good.csv", COLUMNS)
    write_country_csv(root / "run.csv", synthetic_levels(START, RUN_N, seed=3))
    return root


@st.composite
def edited_csv(draw):
    """The good file under a few random edits (junk cells, rows cut short
    or dropped, non-ASCII headers), in UTF-8 or in a legacy code page."""
    rows = [list(row) for row in GOOD_ROWS]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "cut", "drop", "header"]))
        if kind == "cell" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(JUNK_CELLS)
        elif kind == "cut":
            rows[i] = rows[i][: draw(st.integers(0, len(rows[i])))]
        elif kind == "drop":
            del rows[i]
        elif kind == "header" and rows[0]:
            rows[0][draw(st.integers(0, len(rows[0]) - 1))] = draw(
                st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=4)
            )
    text = "\n".join(",".join(cells) for cells in rows)
    return text.encode(draw(st.sampled_from(["utf-8", "cp1252"])), errors="replace")


def _exit_code(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(arg) for arg in argv])


def _validate_exit_code(config_path) -> int:
    return _exit_code("validate", "--config", config_path)


def _check_bundle(out: Path, config) -> None:
    """Every SVG parses, and every CSV reads back under the header it was
    written with."""
    bands = [f"{side}{lv}" for lv in config.levels for side in ("lo", "hi")]
    headers = {"table1.csv": ["quarter"] + [f"{c.code}_{col}" for c in config.countries
                                            for col in ("m", "stars")]}
    for c in config.countries:
        headers[f"irf_{c.code}.csv"] = ["h", "variable", "response", "cumulative", *bands]
        headers[f"multipliers_{c.code}.csv"] = ["h", "m", *bands, "stars"]
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(headers)
    for name, header in headers.items():
        with open(out / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header and all(len(row) == len(header) for row in rows[1:]), name
    for svg in out.glob("*.svg"):
        ET.parse(svg)


@pytest.mark.filterwarnings("ignore:.*check units")
@given(raw=st.one_of(st.just(b""), edited_csv()))
@settings(max_examples=150, deadline=None)
def test_csv_input_fails_only_with_data_errors(work, raw):
    path = work / "fuzz.csv"
    path.write_bytes(raw)
    try:
        build_panel(load_csv(path, country="cz"), (START, START + (N - 1)))
    except DataError:
        pass
    config = work / "csv_fuzz.json"
    config.write_text(
        json.dumps({"countries": [{"code": "cz", "csv": "fuzz.csv"}], "window": WINDOW,
                    "horizons": N - 1})
    )
    assert _validate_exit_code(config) in (0, 3)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
# a config fuzzed into validity is estimated: its window holds enough
# quarters for four lags
RUN_N = 40


# where a generated value goes: the whole file, a top-level key, a field of
# the country entry, or a window bound
TARGETS = [
    (),
    *((key,) for key in sorted(cli._CONFIG_KEYS)),
    *(("countries", 0, key) for key in ("code", "csv", "name", "schema", "extra")),
    ("window", "start"),
    ("window", "end"),
]


# per target, values of the right kind, so that many fuzzed configs pass
# validate and go on to an estimate
PLAUSIBLE = {
    ("lags",): st.integers(1, 8),
    ("horizons",): st.integers(1, RUN_N),
    ("seed",): st.integers(0, 2**64),
    ("levels",): st.lists(st.integers(1, 99), min_size=2, max_size=2),
    ("ordering",): st.permutations(X_LABELS),
    ("plots",): st.booleans(),
    # XML's markup characters are rare among all code points; draw them often
    ("countries", 0, "name"): st.text(st.characters() | st.sampled_from("&<>"), max_size=8),
    ("window", "start"): st.integers(0, RUN_N - 1).map(lambda i: str(START + i)),
}


@st.composite
def configs(draw):
    """A valid config with one value replaced by arbitrary JSON, or by a
    value of the right kind."""
    payload = {
        "countries": [{"code": "cz", "csv": "run.csv", "name": "Czechia"}],
        "window": {"start": str(START), "end": str(START + (RUN_N - 1))},
        "horizons": 8,
        "replications": 10,
    }
    target = draw(st.sampled_from(TARGETS))
    value = draw(PLAUSIBLE[target] | JSON_VALUES if target in PLAUSIBLE else JSON_VALUES)
    if not target:
        return value
    *parents, last = target
    node = payload
    for part in parents:
        node = node[part]
    node[last] = value
    return payload


@pytest.mark.filterwarnings("ignore:.*check units")
@given(payload=configs())
@settings(max_examples=150, deadline=None)
def test_config_input_fails_only_with_config_errors(work, payload):
    path = work / "fuzz.json"
    path.write_text(json.dumps(payload))
    try:
        load_run_config(path)
    except ConfigError:
        pass
    # --out always, so a fuzzed output_dir never writes into the checkout
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        out = Path(tmp) / "out"
        code = _exit_code("validate", "--config", path, "--out", out)
        assert code in (0, 2, 3)
        assert not out.exists()
        if code != 0:
            return
        # validate checks the run estimate makes, so estimate can only fail
        # in the estimation itself
        code = _exit_code("estimate", "--config", path, "--out", out, "--reps", 10)
        assert code in (0, 4)
        if code == 0:
            _check_bundle(out, load_run_config(path))


# -- fuzzing the DGP file, the montecarlo run's config -------------------

DGP_PAYLOAD = reference_spec().to_dict()


def _scaled(value):
    return st.floats(-3.0, 3.0).map(lambda c: (c * np.array(value)).tolist())


# per field, values of the right kind, so that many fuzzed specs load and
# run: short and long samples, explosive and singular systems, labels
# without G or Y, exogenous columns
PLAUSIBLE_DGP = {
    "T": st.integers(-2, 400),
    "burn_in": st.integers(-2, 400),
    "seed": st.integers(-2, 2**64),
    "labels": st.lists(st.sampled_from(["G", "T", "Y", "i", "X"]), min_size=3, max_size=5),
    "gammas": _scaled(DGP_PAYLOAD["gammas"]),
    "B": _scaled(DGP_PAYLOAD["B"]),
    "intercept": st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    "exog_coef": st.none() | st.integers(0, 3).flatmap(
        lambda m: st.lists(st.lists(st.floats(-0.01, 0.01), min_size=m, max_size=m),
                           min_size=4, max_size=4)),
}


@st.composite
def dgp_payloads(draw):
    """The reference system's JSON under one to three key edits: a field
    dropped, renamed, set to arbitrary JSON or to a value of the right
    kind, or joined by a new key; or arbitrary JSON in place of the whole
    object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    payload = dict(DGP_PAYLOAD)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "rename", "set", "set", "add"]))
        key = draw(st.sampled_from(sorted(payload))) if payload else None
        if edit == "add" or key is None:
            payload[draw(st.text(max_size=6))] = draw(JSON_VALUES)
        elif edit == "set":
            payload[key] = draw(PLAUSIBLE_DGP[key] | JSON_VALUES if key in PLAUSIBLE_DGP
                                else JSON_VALUES)
        else:
            value = payload.pop(key)
            if edit == "rename":
                payload[draw(st.text(max_size=6))] = value
    return payload


@given(payload=dgp_payloads())
@settings(max_examples=100, deadline=None)
def test_dgp_input_fails_only_with_config_errors(work, payload):
    try:
        DgpSpec.from_dict(payload)
    except ConfigError:
        pass
    path = work / "dgp_fuzz.json"
    path.write_text(json.dumps(payload))
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["montecarlo", "--config", str(path), "--reps", "2", "--horizon", "4",
                         "--out", tmp])
        err = err.getvalue()
        if code == 0:
            assert err == ""
            with open(Path(tmp) / "recovery.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["h", "analytic", "median_bias", "median_abs_error", "rmse"]
            assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4"]
            return
    assert len(err.splitlines()) == 1, err
    # a valid spec whose sample is too short for four lags, or whose draws
    # overflow, fails every trial: the harness's own exit 4
    assert code == 2 or err.startswith("estimation error: all 2 trials failed; first: "), err
