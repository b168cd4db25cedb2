"""Command-line surface: schemas, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

import deltashell.cli as cli
from deltashell import NonConvergence
from conftest import assert_printed, golden_rows


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "deltashell.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_poles_matches_reference_table(capsys):
    code, out = run_main(["poles", "--lambda", "100", "--count", "8"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["kind", "index", "branch", "re_k", "im_k", "re_z", "im_z", "gamma_R"]
    golden = golden_rows(100.0)
    assert len(rows) == 8
    for row, ref in zip(rows, golden):
        assert row["kind"] == "resonance"
        assert_printed(float(row["re_k"]), ref["re_k"], "cli re_k")
        assert_printed(float(row["im_k"]), ref["im_k"], "cli im_k")
        assert_printed(float(row["re_z"]), ref["re_z"], "cli re_z")


def test_poles_includes_virtual_row(capsys):
    code, out = run_main(["poles", "--lambda", "-0.5", "--count", "1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["kind"] for r in rows] == ["virtual_state", "resonance"]


def test_poles_antiresonances_flag(capsys):
    code, out = run_main(
        ["poles", "--lambda", "10", "--count", "2", "--include-antiresonances"], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    kinds = [r["kind"] for r in rows]
    assert kinds.count("resonance") == 2 and kinds.count("anti_resonance") == 2


def test_invalid_strength_exits_2():
    proc = run_cli("poles", "--lambda", "0", "--count", "3")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_table_bound_row_formatting(capsys):
    code, out = run_main(["table", "--lambda", "-100", "--count", "8"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "kind", "index", "re_k", "im_k", "re_z", "im_z",
        "gamma_R", "gamma_bar", "gamma", "gamma_bar_sharp", "gamma_sharp",
    ]
    assert len(rows) == 9
    bound = rows[0]
    assert bound["kind"] == "bound"
    assert float(bound["gamma_bar"]) == 0.0
    assert abs(float(bound["gamma"]) - 1.0) <= 1e-3
    assert bound["gamma_bar_sharp"] == "" and bound["gamma_sharp"] == ""
    assert float(bound["im_k"]) == 50.0 and float(bound["re_z"]) == -2500.0


def test_table_below_threshold_leaves_sharp_cells_empty(capsys):
    # for 0 < lam < ~0.107 the first resonance sits at E_R <= 0, where the
    # sharp approximation has no energy to sit at
    code, out = run_main(["table", "--lambda", "0.05", "--count", "4"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 4
    assert float(rows[0]["re_z"]) < 0.0
    assert rows[0]["gamma_bar_sharp"] == "" and rows[0]["gamma_sharp"] == ""
    assert float(rows[0]["gamma"]) > 0.0
    for row in rows[1:]:
        assert float(row["re_z"]) > 0.0 and float(row["gamma_sharp"]) > 0.0


def test_table_deep_well_bound_state(capsys):
    # |N|^2 ~ 1e306 and exp(2 beta a) ~ 1e-304: the prefactor must not overflow
    code, out = run_main(["table", "--lambda", "-700", "--count", "1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["kind"] == "bound"
    assert abs(float(rows[0]["gamma"]) - 1.0) <= 1e-9


def test_json_round_trip(capsys):
    code, out = run_main(["table", "--lambda", "10", "--count", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["lambda"] == 10.0
    assert doc["meta"]["a"] == 1.0
    assert doc["meta"]["units"] == "reduced"
    assert "version" in doc["meta"]
    assert len(doc["rows"]) == 2
    row = doc["rows"][0]
    assert row["kind"] == "resonance"
    assert row["gamma"] == pytest.approx(1.5527, abs=2e-4)
    assert json.loads(json.dumps(doc)) == doc


def test_table_determinism_byte_identical():
    a = run_cli("table", "--lambda", "100", "--count", "8", "--format", "csv")
    b = run_cli("table", "--lambda", "100", "--count", "8", "--format", "csv")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.endswith("\n")


def test_spectrum_window_and_columns(capsys):
    code, out = run_main(
        [
            "spectrum", "--lambda", "100", "--index", "3",
            "--emin", "80", "--emax", "94", "--points", "101",
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["E", "dP_dE", "breit_wigner", "matrix_element"]
    assert len(rows) == 101
    assert float(rows[0]["E"]) == 80.0 and float(rows[-1]["E"]) == 94.0


def test_spectrum_no_companions(capsys):
    code, out = run_main(
        [
            "spectrum", "--lambda", "100", "--index", "1", "--no-companions",
            "--emin", "5", "--emax", "15", "--points", "11",
        ],
        capsys,
    )
    assert code == 0
    header, _ = parse_csv(out)
    assert header == ["E", "dP_dE"]


def test_spectrum_virtual(capsys):
    code, out = run_main(
        [
            "spectrum", "--lambda", "-0.5", "--virtual",
            "--emin", "0.001", "--emax", "2", "--points", "51",
        ],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    values = [float(r["dP_dE"]) for r in rows]
    assert max(values) > values[-1]


def test_spectrum_bad_points_exits_2():
    proc = run_cli(
        "spectrum", "--lambda", "100", "--index", "3",
        "--emin", "80", "--emax", "94", "--points", "1",
    )
    assert proc.returncode == 2


def test_spectrum_virtual_missing_exits_2():
    proc = run_cli(
        "spectrum", "--lambda", "0.5", "--virtual",
        "--emin", "0.1", "--emax", "2", "--points", "10",
    )
    assert proc.returncode == 2


def test_interfere_single_coefficient_matches_spectrum(capsys):
    shared = ["--emin", "5", "--emax", "15", "--points", "41"]
    code1, out1 = run_main(
        ["interfere", "--lambda", "100", "--indices", "1,2", "--c1", "1,0", "--c2", "0,0"]
        + shared,
        capsys,
    )
    code2, out2 = run_main(
        ["spectrum", "--lambda", "100", "--index", "1", "--no-companions"] + shared, capsys
    )
    assert code1 == 0 and code2 == 0
    _, rows1 = parse_csv(out1)
    _, rows2 = parse_csv(out2)
    for r1, r2 in zip(rows1, rows2):
        assert float(r1["dP_dE"]) == pytest.approx(float(r2["dP_dE"]), rel=1e-7)


def test_interfere_swap_identical_bytes(capsys):
    shared = ["--lambda", "100", "--emin", "5", "--emax", "45", "--points", "31"]
    _, out1 = run_main(
        ["interfere", "--indices", "1,2", "--c1", "0.8,0", "--c2", "0.2,0.1"] + shared, capsys
    )
    _, out2 = run_main(
        ["interfere", "--indices", "2,1", "--c1", "0.2,0.1", "--c2", "0.8,0"] + shared, capsys
    )
    assert out1 == out2


def test_interfere_renormalized_area(capsys):
    code, out = run_main(
        [
            "interfere", "--lambda", "100", "--indices", "1,2",
            "--emin", "0.5", "--emax", "120", "--points", "6001",
        ],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    e = np.array([float(r["E"]) for r in rows])
    p = np.array([float(r["dP_dE"]) for r in rows])
    assert 0.9 <= np.trapezoid(p, e) <= 1.0  # window misses only the tails


def test_cross_section_columns_and_bound(capsys):
    code, out = run_main(["cross-section", "--lambda", "100", "--index", "3"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["E", "exact", "laurent", "e_unitarized", "k_unitarized"]
    assert len(rows) == 2001
    e = np.array([float(r["E"]) for r in rows])
    sigma = np.array([float(r["exact"]) for r in rows])
    assert np.all(sigma <= 4 * np.pi / e + 1e-9)


def test_cross_section_two_pole_column(capsys):
    code, out = run_main(
        ["cross-section", "--lambda", "100", "--index", "1", "--second-index", "2",
         "--points", "101"],
        capsys,
    )
    assert code == 0
    header, _ = parse_csv(out)
    assert header[-1] == "two_pole"


def test_lambertw_command(capsys):
    code, out = run_main(["lambertw", "--branch", "0", "--re", "2.718281828459045"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["re_w"]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[0]["residual"]) < 1e-13
    code, out = run_main(
        ["lambertw", "--branch", "-1", "--re", "-0.3678794411714423", "--format", "json"],
        capsys,
    )
    doc = json.loads(out)
    assert doc["rows"][0]["re_w"] == pytest.approx(-1.0, abs=1e-3)


def test_lambertw_invalid_exits_2():
    proc = run_cli("lambertw", "--branch", "2", "--re", "0", "--im", "0")
    assert proc.returncode == 2


def test_output_file_and_plot_script(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _ = run_main(
        [
            "spectrum", "--lambda", "100", "--index", "3",
            "--emin", "80", "--emax", "94", "--points", "11",
            "--output", str(out_path), "--emit-plot-script",
        ],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("E,dP_dE")
    script = tmp_path / "curve.csv_plot.py"
    assert script.exists()
    assert str(out_path) in script.read_text()


def test_plot_script_requires_output(capsys):
    code, _ = run_main(
        [
            "spectrum", "--lambda", "100", "--index", "3",
            "--emin", "80", "--emax", "94", "--points", "11", "--emit-plot-script",
        ],
        capsys,
    )
    assert code == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nlambda=100\nformat=json\n")
    code, out = run_main(["poles", "--config", str(cfg), "--count", "2"], capsys)
    assert code == 0
    assert json.loads(out)["meta"]["lambda"] == 100.0
    code, out = run_main(
        ["poles", "--config", str(cfg), "--count", "2", "--lambda", "10", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out.startswith("kind,")
    _, rows = parse_csv(out)
    assert float(rows[0]["re_k"]) == pytest.approx(2.8776, abs=1e-4)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble=1\n")
    code, _ = run_main(["poles", "--config", str(cfg), "--lambda", "10"], capsys)
    assert code == 2


def test_missing_lambda_exits_2(capsys):
    code, _ = run_main(["poles", "--count", "2"], capsys)
    assert code == 2


def test_physical_units_scale_energies(capsys):
    code, reduced = run_main(["table", "--lambda", "10", "--count", "1"], capsys)
    assert code == 0
    code, physical = run_main(
        ["table", "--lambda", "10", "--count", "1",
         "--units", "physical", "--mass", "2", "--hbar", "1"],
        capsys,
    )
    assert code == 0
    _, rows_r = parse_csv(reduced)
    _, rows_p = parse_csv(physical)
    # hbar^2/2m = 1/4: energies and widths scale, wave numbers do not
    assert float(rows_p[0]["re_k"]) == float(rows_r[0]["re_k"])
    for col in ("re_z", "im_z", "gamma_R", "gamma_bar", "gamma_bar_sharp"):
        assert float(rows_p[0][col]) == pytest.approx(0.25 * float(rows_r[0][col]), rel=1e-7)
    for col in ("gamma", "gamma_sharp"):
        assert float(rows_p[0][col]) == pytest.approx(float(rows_r[0][col]), rel=1e-7)


def test_numerical_failure_exits_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NonConvergence("synthetic failure")

    monkeypatch.setattr(cli, "table_records", boom)
    code, _ = run_main(["table", "--lambda", "10", "--count", "1"], capsys)
    assert code == 3


def test_float_format_nine_significant_digits(capsys):
    _, out = run_main(["poles", "--lambda", "100", "--count", "1"], capsys)
    _, rows = parse_csv(out)
    assert rows[0]["re_k"] == "3.11052683"
    assert "e" not in rows[0]["re_z"].lower() or "e-" in rows[0]["re_z"]
