import contextlib
import inspect
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import fiscalsvar.cli as cli
import fiscalsvar.errors as errors
from conftest import synthetic_levels, write_country_csv
from fiscalsvar.cli import load_run_config, main
from fiscalsvar.errors import ConfigError, DataError, EstimationError, FiscalSvarError
from fiscalsvar.ingest import SERIES_UNITS, build_panel, load_csv
from fiscalsvar.series import Quarter

BASES = {ConfigError: 2, DataError: 3, EstimationError: 4}
LEAVES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, FiscalSvarError) and cls is not FiscalSvarError and cls not in BASES
]


def test_every_error_has_exactly_one_base():
    assert len(LEAVES) >= 16
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
HEADER = ["date", *SERIES_UNITS]
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


def _validate_exit_code(config_path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["validate", "--config", str(config_path)])


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


# where a generated value goes: the whole file, a top-level key, a field of
# the country entry, or a window bound
TARGETS = [
    (),
    *((key,) for key in sorted(cli._CONFIG_KEYS)),
    *(("countries", 0, key) for key in ("code", "csv", "name", "schema", "extra")),
    ("window", "start"),
    ("window", "end"),
]


@st.composite
def configs(draw):
    """A valid config with one value replaced by arbitrary JSON."""
    payload = {
        "countries": [{"code": "cz", "csv": "good.csv", "name": "Czechia"}],
        "window": dict(WINDOW),
        "horizons": N - 1,
        "replications": 10,
    }
    target = draw(st.sampled_from(TARGETS))
    value = draw(JSON_VALUES)
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
    assert _validate_exit_code(path) in (0, 2, 3)
