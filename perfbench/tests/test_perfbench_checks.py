"""The benchmark's correctness gate and the seeding of its inputs."""
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


def perturb_cell(src: Path, dst: Path, row: int, col: int, factor: float) -> None:
    lines = src.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "workload,name,row,col",
    [
        ("v4_estimate", "multipliers_cz.csv", 5, 1),
        ("v4_estimate", "irf_hu.csv", 12, 2),
        ("band_coverage", "coverage.csv", 3, 3),
        ("point_recovery", "recovery.csv", 20, 4),
    ],
)
def test_gate_rejects_value_beyond_tolerance(tmp_path, workload, name, row, col):
    golden = run.GOLDEN_DIR / workload / name
    run.compare_csv(golden, golden)
    perturb_cell(golden, tmp_path / name, row, col, 1.0 + 1e-13)
    run.compare_csv(tmp_path / name, golden)
    perturb_cell(golden, tmp_path / name, row, col, 1.0 + 1e-6)
    with pytest.raises(run.CheckFailed, match="golden"):
        run.compare_csv(tmp_path / name, golden)


def test_gate_rejects_changed_star_and_table_cell(tmp_path):
    golden = run.GOLDEN_DIR / "v4_estimate"
    text = (golden / "multipliers_pl.csv").read_text(encoding="utf-8")
    assert ",**\n" in text
    (tmp_path / "multipliers_pl.csv").write_text(text.replace(",**\n", ",*\n", 1), encoding="utf-8")
    with pytest.raises(run.CheckFailed):
        run.compare_csv(tmp_path / "multipliers_pl.csv", golden / "multipliers_pl.csv")

    table = (golden / "table1.txt").read_text(encoding="utf-8")
    (tmp_path / "table1.txt").write_text(table.replace("**", "* ", 1), encoding="utf-8")
    with pytest.raises(run.CheckFailed):
        run.compare_text(tmp_path / "table1.txt", golden / "table1.txt")


def test_bundle_checks_reject_inconsistent_stars(tmp_path):
    wl = run.V4Estimate()
    for name in wl.golden_files:
        shutil.copyfile(run.GOLDEN_DIR / wl.name / name, tmp_path / name)
    table = {code: [] for code in wl.codes}
    for line in (tmp_path / "table1.txt").read_text(encoding="utf-8").splitlines()[1:]:
        for code, cell in zip(wl.codes, line.split()[1:]):
            table[code].append(cell)
    wl._check_country(tmp_path, "cz", table["cz"])
    text = (tmp_path / "multipliers_cz.csv").read_text(encoding="utf-8")
    (tmp_path / "multipliers_cz.csv").write_text(text.replace(",**\n", ",\n", 1), encoding="utf-8")
    with pytest.raises(run.CheckFailed, match="stars"):
        wl._check_country(tmp_path, "cz", table["cz"])


def test_inputs_are_a_pure_function_of_the_seed(tmp_path):
    rec = run.PointRecovery()
    assert rec.dgp_json(7) == rec.dgp_json(7)
    assert rec.dgp_json(7) != rec.dgp_json(8)
    rec.prepare(7, tmp_path)
    first = rec.dgp_path(7, tmp_path).read_bytes()
    rec.prepare(7, tmp_path)
    assert rec.dgp_path(7, tmp_path).read_bytes() == first
    for wl in (run.V4Estimate(), run.BandCoverage(), rec):
        out = tmp_path / "out"
        assert wl.target(7, tmp_path, out) == wl.target(7, tmp_path, out)
        assert wl.target(7, tmp_path, out) != wl.target(8, tmp_path, out)
        assert wl.setup_target(7, tmp_path) == wl.setup_target(7, tmp_path)
