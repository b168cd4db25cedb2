"""Command-line surface: schemas, determinism, exit codes."""

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltashell
import deltashell.cli as cli
from deltashell import (
    InterferenceConfig,
    InvalidInput,
    NonConvergence,
    PotentialSpec,
    cross_section_bundle,
    enumerate_poles,
    find_anti_resonance,
    find_resonance,
    find_virtual_state,
    interference_curve,
    lambert_w,
    lambert_w_residual,
    spectrum_curve,
    table_records,
)
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


@pytest.mark.parametrize("units", [
    ["--hbar", "inf"], ["--mass", "inf"], ["--mass", "nan"], ["--mass", "1e-320"],
    ["--mass", "1e300", "--hbar", "1e-300"], ["--hbar", "1e200"],
])
def test_physical_units_without_finite_energy_scale_exit_2(units, capsys):
    # hbar^2/2m must be finite and nonzero, or every energy prints inf or 0
    code = cli.main(["table", "--lambda", "10", "--units", "physical", *units])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_unknown_unit_system_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["table", "--lambda", "10", "--units", "bogus"])
    assert info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_energy_scale_conversion(capsys):
    # hbar^2/2m = 9/4 scales the energy columns; wave numbers stay in units of 1/a
    argv = ["poles", "--lambda", "10", "--count", "2", "--format", "json"]
    _, reduced = run_main(argv, capsys)
    _, physical = run_main(argv + ["--units", "physical", "--mass", "2", "--hbar", "3"], capsys)
    reduced, physical = json.loads(reduced), json.loads(physical)
    assert (reduced["meta"]["units"], physical["meta"]["units"]) == ("reduced", "physical")
    for r, p in zip(reduced["rows"], physical["rows"]):
        assert (p["re_k"], p["im_k"]) == (r["re_k"], r["im_k"])
        for col in ("re_z", "im_z", "gamma_R"):
            assert p[col] == pytest.approx(9.0 / 4.0 * r[col], rel=1e-8)


@pytest.mark.parametrize("c1", ["nan,0", "inf,0", "0,-inf"])
def test_interfere_non_finite_coefficient_exits_2(c1):
    proc = run_cli("interfere", "--lambda", "10", "--indices", "1,2", f"--c1={c1}",
                   "--emin", "1", "--emax", "50")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Warning" not in proc.stderr


def test_table_virtual_state_gamma_at_threshold(capsys):
    # 1 + lam e^{2ika} is formed as (1 + lam) - 2ika: true Gamma 0.99999973
    code, out = run_main(["table", "--lambda", "-0.9999999", "--count", "1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["kind"] == "virtual_state" and rows[0]["gamma"] == "0.999999733"


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


_SPECTRUM_LINE = ["spectrum", "--lambda", "-0.5", "--emin", "0.1", "--emax", "1"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_takes_index_or_virtual_not_both(fmt, capsys):
    # --index used to be dropped without a word when --virtual was given
    argv = _SPECTRUM_LINE + ["--virtual", "--index", "3", "--format", fmt]
    assert _argparse_exit(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "deltashell spectrum: error: argument --index: not allowed with argument --virtual\n")
    assert _argparse_exit(_SPECTRUM_LINE + ["--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "deltashell spectrum: error: one of the arguments --index --virtual is required\n")


@pytest.mark.parametrize("command", ["spectrum", "interfere", "cross-section"])
def test_curve_config_refuses_units_keys(command, tmp_path, capsys):
    # a command's config keys are the long options of its parents; curves have no units
    cfg = tmp_path / "run.cfg"
    for line in ("units=physical", "mass=2", "hbar=1"):
        cfg.write_text(f"lambda=100\n{line}\n")
        argv = [command, "--config", str(cfg), *_CURVE_LINES[command], "--points", "3"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown config key {line.split('=')[0]!r}\n"
    cfg.write_text("lambda=100\nradius=2\nformat=json\n")
    code, out = run_main([command, "--config", str(cfg), *_CURVE_LINES[command],
                          "--points", "3"], capsys)
    assert code == 0 and json.loads(out)["meta"]["a"] == 2.0


def test_spectrum_bad_points_exits_2():
    proc = run_cli(
        "spectrum", "--lambda", "100", "--index", "3",
        "--emin", "80", "--emax", "94", "--points", "1",
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda", "5", "--index", "1", "--format", "json"],
    ["cross-section", "--lambda", "5", "--index", "1"],
    ["interfere", "--lambda", "5", "--indices", "1,2"],
])
def test_non_finite_window_exits_2_without_traceback(argv):
    proc = run_cli(*argv, "--emin", "1", "--emax", "inf", "--points", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("points", ["1000000000000000", "10000000000000000000"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda", "10", "--index", "1", "--emin", "1", "--emax", "30"],
    ["interfere", "--lambda", "10", "--indices", "1,2", "--emin", "1", "--emax", "60"],
    ["cross-section", "--lambda", "10", "--index", "1"],
], ids=["spectrum", "interfere", "cross-section"])
def test_oversized_points_exits_2(argv, points, capsys):
    # both sizes are refused by numpy's allocator before any memory is touched:
    # 7 PiB raises MemoryError, and past the int64 array limit a ValueError
    code = cli.main(argv + ["--points", points])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


_GRID_LINES = {
    "spectrum": ["spectrum", "--lambda", "100", "--index", "1"],
    "interfere": ["interfere", "--lambda", "100", "--indices", "1,2"],
    "cross-section": ["cross-section", "--lambda", "100", "--index", "1"],
}
_WINDOW_REFUSED = "error: need 0 < e_min < e_max < inf\n"


@pytest.mark.parametrize("command", sorted(_GRID_LINES))
def test_grid_validation(command, capsys):
    # the command line builds every curve's grid: each window or point count it
    # refuses exits 2 with one line, before any curve is formed. 10**15 points
    # (8 PB) is past any address space, so the allocator refuses it untouched
    for flags, err in [
        (["--emin", "5", "--emax", "1"], _WINDOW_REFUSED),
        (["--emin", "5", "--emax", "5"], _WINDOW_REFUSED),
        (["--emin", "-1", "--emax", "10"], _WINDOW_REFUSED),
        (["--emin", "0", "--emax", "10"], _WINDOW_REFUSED),
        (["--emin", "nan", "--emax", "10"], _WINDOW_REFUSED),
        (["--emin", "1", "--emax", "inf"], _WINDOW_REFUSED),
        (["--emin", "1", "--emax", "10", "--points", "1"],
         "error: need at least two grid points\n"),
        (["--emin", "1", "--emax", "10", "--points", "1000000000000000"],
         "error: cannot allocate a grid of 1000000000000000 points\n"),
    ]:
        assert cli.main(_GRID_LINES[command] + flags) == 2, flags
        assert capsys.readouterr() == ("", err), flags


@pytest.mark.parametrize("flag, value, radius, side, edge", [
    ("--emin", "100", "1", "below the default upper", "15.93161283602775"),
    ("--emax", "0.1", "1", "above the default lower", "0.620443883708572"),
    ("--emax", "-1", "1", "above the default lower", "0.620443883708572"),
    ("--emax", "0.1", "2", "above the default lower", "0.155110970927143"),
])
def test_cross_section_edge_given_past_the_default_one_is_named(flag, value, radius, side,
                                                                  edge, capsys):
    # the default window [0.62, 15.93] is not empty: the one edge given lies past the
    # defaulted one, so the refusal names that flag, its value and the edge it meets,
    # in the units of the flag (E / a^2 at radius a)
    argv = ["cross-section", "--lambda", "10", "--index", "1", "--radius", radius, flag, value]
    assert cli.main(argv) == 2
    other = "--emax" if flag == "--emin" else "--emin"
    assert capsys.readouterr() == ("", (
        f"error: {flag} {float(value)!r} is not {side} edge {edge} of the window "
        f"E_R +/- 10 Gamma_R of resonance 1 at strength 10.0; give {other} too\n"))


@pytest.mark.parametrize("argv, zero_columns", [
    (["spectrum", "--lambda", "5", "--index", "1"], ["dP_dE", "breit_wigner"]),
    (["cross-section", "--lambda", "5", "--index", "1"],
     ["exact", "laurent", "e_unitarized", "k_unitarized"]),
])
def test_huge_finite_window_is_quiet_and_tends_to_zero(argv, zero_columns):
    # (E - E_R)^2 overflows at E = 1e308; the Lorentzians take their limit 0
    proc = run_cli(*argv, "--emin", "1", "--emax", "1e308", "--points", "3")
    assert proc.returncode == 0
    assert proc.stderr == ""
    header, rows = parse_csv(proc.stdout)
    assert rows[-1]["E"] == "1e+308"
    assert [rows[-1][name] for name in zero_columns] == ["0"] * len(zero_columns)


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


@pytest.mark.parametrize("scaled, plain", [
    (["--c1=1e200,0", "--c2=1e200,0"], ["--c1=1,0", "--c2=1,0"]),
    (["--c1=1e-200,0", "--c2=0,0"], ["--c1=1,0", "--c2=0,0"]),
])
def test_interfere_extreme_coefficients_print_the_bytes_of_their_scale(scaled, plain, capsys):
    # the renormalized curve is scaled to a largest part in [1/2, 1) first: no nan
    shared = ["interfere", "--lambda", "12", "--indices", "1,2", "--emin", "30", "--emax", "60",
              "--points", "3"]
    code, out = run_main(shared + scaled, capsys)
    assert code == 0
    assert out == run_main(shared + plain, capsys)[1]
    assert "nan" not in out


def test_interfere_raw_curve_past_the_largest_float_exits_2(capsys):
    code = cli.main(["interfere", "--lambda", "12", "--indices", "1,2", "--c1=1e160,0",
                     "--c2=1,0", "--emin", "30", "--emax", "60", "--points", "3",
                     "--no-renormalize"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: interference spectrum at strength 12.0 exceeds the largest "
                            "float at E = 30.0\n")


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


def test_lambertw_modulus_overflow_exits_2(capsys):
    # it used to exit 3 with "numerical failure: absolute value too large"
    code = cli.main(["lambertw", "--branch", "0", "--re", "1.7e308", "--im", "1.7e308"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: lambert_w argument (1.7e+308+1.7e+308j) has |z| beyond 1.8e308\n")


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
    assert repr(out_path.name) in script.read_text()


# a stand-in for matplotlib.pyplot that records what a plot script draws, as JSON
_PYPLOT_STUB = """\
import json
import os

_calls = []


def plot(x, y, label=None):
    _calls.append(["plot", list(x), list(y), label])


def xlabel(text):
    _calls.append(["xlabel", text])


def legend():
    _calls.append(["legend"])


def tight_layout():
    pass


def show():
    _calls.append(["show"])
    with open(os.environ["PLOT_CALLS"], "w") as fh:
        json.dump(_calls, fh)
"""


def _run_plot_script(tmp_path, script, cwd):
    """The plot script run from cwd against the stub pyplot; the calls it recorded."""
    (tmp_path / "matplotlib").mkdir()
    (tmp_path / "matplotlib" / "__init__.py").write_text("")
    (tmp_path / "matplotlib" / "pyplot.py").write_text(_PYPLOT_STUB)
    calls = tmp_path / "calls.json"
    proc = subprocess.run(
        [sys.executable, script], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tmp_path), "PLOT_CALLS": str(calls)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(calls.read_text())


def _expected_plot_calls(csv_text):
    header, rows = parse_csv(csv_text)
    e = [float(row["E"]) for row in rows]
    plots = [["plot", e, [float(row[name]) for row in rows], name] for name in header[1:]]
    return plots + [["xlabel", header[0]], ["legend"], ["show"]]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda", "100", "--index", "3", "--emin", "80", "--emax", "94"],
    ["cross-section", "--lambda", "100", "--index", "3", "--second-index", "2"],
], ids=["spectrum", "cross-section-two-pole"])
def test_emitted_plot_script_plots_every_column_against_e(argv, tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _ = run_main(argv + ["--points", "11", "--output", str(out_path),
                               "--emit-plot-script"], capsys)
    assert code == 0
    calls = _run_plot_script(tmp_path, str(tmp_path / "curve.csv_plot.py"), tmp_path)
    header, _ = parse_csv(out_path.read_text())
    assert header[0] == "E" and len(header) >= 4
    assert calls == _expected_plot_calls(out_path.read_text())


def test_plot_script_of_a_relative_output_runs_from_another_directory(
        tmp_path, capsys, monkeypatch):
    # the script opens the CSV beside itself, not the --output path as given
    monkeypatch.chdir(tmp_path)
    code, _ = run_main(["spectrum", "--lambda", "100", "--index", "3", "--emin", "80",
                        "--emax", "94", "--points", "11", "--output", "curve.csv",
                        "--emit-plot-script"], capsys)
    assert code == 0
    (tmp_path / "sub").mkdir()
    calls = _run_plot_script(tmp_path, os.path.join("..", "curve.csv_plot.py"), tmp_path / "sub")
    assert calls == _expected_plot_calls((tmp_path / "curve.csv").read_text())


def test_plot_script_requires_output(capsys):
    code, _ = run_main(
        [
            "spectrum", "--lambda", "100", "--index", "3",
            "--emin", "80", "--emax", "94", "--points", "11", "--emit-plot-script",
        ],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize(
    "extra", [["--format", "json", "--output", "x.json"], []], ids=["json-output", "no-output"]
)
def test_plot_script_flag_checked_before_any_output(extra, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out = run_main(
        [
            "spectrum", "--lambda", "100", "--index", "3",
            "--emin", "80", "--emax", "94", "--points", "11", "--emit-plot-script",
        ]
        + extra,
        capsys,
    )
    assert code == 2
    assert out == ""
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("body", ["lambda=10\nformat=json\n", "# run\nlambda=10\nformat=json\n"],
                         ids=["key-first", "comment-first"])
def test_config_file_with_a_byte_order_mark(body, tmp_path, capsys):
    # an editor's UTF-8 byte-order mark before the first line is not part of a key
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(body, encoding="utf-8")
    marked.write_text(body, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out = run_main(["poles", "--config", str(plain), "--count", "3"], capsys)
    assert code == 0 and json.loads(out)["meta"]["lambda"] == 10.0
    assert run_main(["poles", "--config", str(marked), "--count", "3"], capsys) == (0, out)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble=1\n")
    code, _ = run_main(["poles", "--config", str(cfg), "--lambda", "10"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "line", ["format=xml", "lambda=abc", "units=bogus", "rel-tol=1e-9"]
)
def test_bad_config_value_exits_2_without_traceback(line, tmp_path):
    # config values go through argparse like flags: cast, choices and known keys
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"lambda=10\n{line}\n")
    proc = run_cli("poles", "--config", str(cfg), "--count", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", ["config line without =", "missing config", "missing output dir"])
def test_file_errors_exit_2_with_one_error_line(case, tmp_path):
    # the config reader's own refusal and the OSError of a file that cannot be
    # opened, for reading or for writing, end in main's one-line error
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=10\ncount 2\n")
    argv = {
        "config line without =": ["table", "--config", str(cfg)],
        "missing config": ["table", "--config", str(tmp_path / "absent.cfg")],
        "missing output dir": ["table", "--lambda", "10",
                               "--output", str(tmp_path / "absent" / "table.csv")],
    }[case]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("lam", ["-1e-200", "-1e-300", "-5e-324"])
@pytest.mark.parametrize("command", [
    ["table", "--count", "1"], ["poles", "--count", "1"],
    ["spectrum", "--virtual", "--emin", "0.1", "--emax", "1", "--points", "3"],
    ["spectrum", "--index", "1", "--emin", "0.1", "--emax", "1", "--points", "3"],
])
def test_vanishing_well_answers_or_exits_with_one_typed_line(lam, command, capsys):
    # the virtual state is solved down to the smallest float, where e^{2 kappa}
    # overflows and lam^2 underflows: each command answers with finite cells
    # or refuses in one line, with no traceback and no RuntimeWarning (the
    # resonance spectrum at -1e-200 divided 0 by 0)
    code = cli.main(command[:1] + ["--lambda", lam] + command[1:])
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and out.count("\n") >= 2
        assert not {"inf", "-inf", "nan"} & set(out.replace("\n", ",").split(","))
    else:
        assert code in (2, 3) and out == "", (code, out)
        assert err.count("\n") == 1 and err.startswith(("error: ", "numerical failure: ")), err


def test_virtual_spectrum_refuses_a_subnormal_gamma(capsys):
    # the spectrum divides by Gamma, which is subnormal for the virtual state at -1e-305
    code = cli.main(["spectrum", "--lambda", "-1e-305", "--virtual", "--emin", "1e-3",
                     "--emax", "1", "--points", "3"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    head, tail = "error: virtual-state Gamma ", " at -1e-305 loses its digits\n"
    assert err.startswith(head) and err.endswith(tail), err
    assert 0.0 < float(err[len(head):-len(tail)]) < sys.float_info.min


@pytest.mark.parametrize("command", [
    ["poles", "--count", "1"], ["table", "--count", "1"],
    ["spectrum", "--index", "1", "--emin", "0.1", "--emax", "1", "--points", "3"],
])
def test_polish_overflow_exits_3_naming_the_pole(command, capsys):
    # e^{2ik} overflows in the resonance polish at lam = 1e-307: one typed
    # line that names the pole and the strength, never "math range error"
    code = cli.main(command[:1] + ["--lambda", "1e-307"] + command[1:])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: pole resonance n=1 at strength 1e-307: "), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("lam", ["-1e-200", "-1e-150"])
def test_cross_section_with_an_empty_default_window_names_the_pole(lam):
    # the default window E_R +/- 10 Gamma_R lies below zero: one typed line
    # that asks for --emin/--emax, never "need 0 < e_min < e_max" for bounds
    # the user never gave; a given window still answers
    proc = run_cli("cross-section", "--lambda", lam, "--index", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: the default window E_R +/- 10 Gamma_R of resonance 1 "
                                  f"at strength {float(lam)!r} (E_R = -")
    assert proc.stderr.endswith(") is empty once clipped to positive energies; "
                                "give one with --emin and --emax\n")
    given = run_cli("cross-section", "--lambda", lam, "--index", "1",
                    "--emin", "1", "--emax", "2", "--points", "3")
    assert given.returncode == 0 and given.stderr == ""
    assert len(given.stdout.splitlines()) == 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("window", [("5e-324", "1e-300"), ("1e-310", "1e-300")])
@pytest.mark.parametrize("command", [
    ["cross-section", "--lambda", "12", "--index", "1"],
    ["cross-section", "--lambda", "12", "--index", "1", "--second-index", "2"],
    ["cross-section", "--lambda", "-1", "--index", "1"],
    ["spectrum", "--lambda", "12", "--index", "1"],
    ["interfere", "--lambda", "12", "--indices", "1,2"],
], ids=["cross-section", "two-pole", "cross-section-threshold", "spectrum", "interfere"])
def test_subnormal_window_answers_finite_or_exits_2_naming_it(command, window, fmt, capsys):
    # below the normal range pi/E exceeds the largest float, so the cross-section
    # approximants (and sigma itself at lam = -1) do too: one typed line naming the
    # first column and energy past it, never nan or inf with exit 0; the spectra
    # stay finite and answer
    argv = command + ["--emin", window[0], "--emax", window[1], "--points", "3", "--format", fmt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    if command[0] != "cross-section":
        assert code == 0 and err == ""
        cells = (json.loads(out)["curve"].values() if fmt == "json"
                 else [list(map(float, row.split(","))) for row in out.splitlines()[1:]])
        assert all(math.isfinite(x) for cell in cells for x in cell)
        return
    assert code == 2 and out == ""
    column = "cross_section_exact" if command[2] == "-1" else "cross_section_laurent"
    assert err == (f"error: {column} at strength {float(command[2])!r} exceeds the largest "
                   f"float at E = {float(window[0])!r}\n")


@pytest.mark.parametrize("argv, first_exact", [
    (["--lambda", "12", "--emin", "1e-20", "--emax", "1e-8", "--points", "3"], "10.7074401"),
    (["--lambda", "-1", "--emin", "1e-18", "--emax", "1e-16", "--points", "2"], "1.25663706e+19"),
])
def test_cross_section_keeps_its_digits_as_e_goes_to_zero(argv, first_exact, capsys):
    # sigma -> 4 pi lam^2 / (1 + lam)^2 at lam = 12, and 4 pi / E at lam = -1, where
    # (pi/k^2)|S - 1|^2 printed 0 and the pole guard refused a finite sigma
    code = cli.main(["cross-section", "--index", "1"] + argv)
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert parse_csv(out)[1][0]["exact"] == first_exact


def test_parser_reused_across_calls(tmp_path, monkeypatch, capsys):
    # one process, one parser: no option value may leak from call to call
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=-10\nformat=json\n")
    calls = [
        ["table", "--config", str(cfg), "--count", "3"],
        ["poles", "--lambda", "100", "--count", "3", "--format", "json"],
        ["table", "--lambda", "0.5", "--count", "3"],
    ]
    for argv in calls:
        code, out = run_main(argv, capsys)
        alone = run_cli(*argv)
        assert code == alone.returncode == 0
        assert out == alone.stdout
    assert cli._build_parser() is cli._build_parser()

    seen = []
    monkeypatch.setattr(cli, "cmd_table", seen.append)
    assert cli.main(["table", "--lambda", "10"]) == 0
    assert [args.lam for args in seen] == [10.0]


@pytest.mark.parametrize("argv,at", [
    (["table", "--lambda", "-1e-3", "--count", "3"], 1),
    (["table", "--lambda", "-2.5e1", "--count", "3"], 1),
    (["table", "--lambda", "-.5", "--count", "3"], 1),
    (["interfere", "--lambda", "12", "--indices", "2,3", "--c1", "-0.5,0.3",
      "--c2", "0.5,0.5", "--emin", "30", "--emax", "60", "--points", "201"], 7),
], ids=["exponent", "exponent-positive", "leading-dot", "pair"])
def test_leading_minus_value_is_not_a_flag(argv, at, capsys):
    # the same value joined to its option with '=' never looked like a flag
    joined = argv[:at] + [argv[at] + "=" + argv[at + 1]] + argv[at + 2:]
    code, out = run_main(argv, capsys)
    assert code == 0
    assert run_main(joined, capsys) == (0, out)


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


def test_overflow_exits_3_without_traceback():
    # past |n| = 2.8e307 the branch term 2 pi n of Log z + 2 pi i n overflows
    proc = run_cli("lambertw", "--branch", str(3 * 10**307), "--re", "1")
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: W_3000")
    assert proc.stderr.endswith(" did not converge\n")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_branch_without_a_float_exits_3_naming_w(capsys):
    # from |n| = 2**1024 on, n itself has no float: a typed failure, not a bare OverflowError
    code = cli.main(["lambertw", "--branch", str(2 * 10**308), "--re", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: W_2000") and err.endswith(" did not converge\n")


def test_far_branch_prints_the_digits_of_mpmath(capsys):
    # W_-1000(1e40) exited 3 when Halley on w e^w = z ran on every branch; the
    # residual column is the forward |w e^w - z|, whose floor is eps |w| |z|
    assert cli.main(["lambertw", "--branch", "-1000", "--re", "1e40"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    with mpmath.workdps(30):
        ref = mpmath.lambertw(mpmath.mpf("1e40"), -1000)
    assert row[3:5] == [f"{float(ref.real):.9g}", f"{float(ref.imag):.9g}"]
    assert 0.0 < float(row[5]) <= 2.0**-52 * 6282.0 * 1e40


def test_table_deep_well_no_overflow_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["table", "--lambda", "-700", "--count", "1"])
    assert code == 0
    assert capsys.readouterr().err == ""


def per_cell_curve_bytes(fmt, names, series, meta=None):
    """Reference serializer: one format() call per cell, as curves were once written."""
    if fmt == "json":
        curve = {
            name: [float(format(float(col[i]), ".9g")) for i in range(len(col))]
            for name, col in zip(names, series)
        }
        return json.dumps({"meta": meta, "curve": curve}, separators=(",", ":")) + "\n"
    lines = [",".join(names)]
    lines.extend(
        ",".join(format(float(col[i]), ".9g") for col in series) for i in range(len(series[0]))
    )
    return "\n".join(lines) + "\n"


def per_cell_row_bytes(fmt, names, rows, meta=None):
    """Reference serializer for the row commands, one cell at a time.

    Floats as format(x, ".9g"), ints with str(), None as an empty cell; in
    JSON, floats rounded to 9 digits and the rest as they are. A trailing
    c_value column (the table's constant C) is JSON-only.
    """
    if fmt == "json":
        payload = [
            {name: float(format(x, ".9g")) if isinstance(x, float) else x
             for name, x in zip(names, row)}
            for row in rows
        ]
        return json.dumps({"meta": meta, "rows": payload}, separators=(",", ":")) + "\n"

    def cell(x):
        if x is None:
            return ""
        return str(x) if isinstance(x, (str, int)) else format(float(x), ".9g")

    width = names.index("c_value") if "c_value" in names else len(names)
    lines = [",".join(names[:width])]
    lines.extend(",".join(cell(x) for x in row[:width]) for row in rows)
    return "\n".join(lines) + "\n"


ROW_COMMANDS = ("poles", "table", "lambertw")


def _poles_case():
    spec = PotentialSpec(lam=-0.5)
    poles = enumerate_poles(spec, 3) + [find_anti_resonance(spec, n) for n in (1, 2, 3)]
    argv = ["poles", "--lambda", "-0.5", "--count", "3", "--include-antiresonances"]
    names = ["kind", "index", "branch", "re_k", "im_k", "re_z", "im_z", "gamma_R"]
    rows = [[p.kind.value, p.index, p.branch, p.k.real, p.k.imag, p.z.real, p.z.imag,
             p.gamma_R] for p in poles]
    return argv, names, rows


def _table_case(lam, count, physical=False, mass="2", hbar="1.5"):
    spec = PotentialSpec(lam=lam)
    s = float(hbar) ** 2 / (2.0 * float(mass)) if physical else 1.0  # hbar^2/2m
    argv = ["table", "--lambda", repr(lam), "--count", str(count)]
    if physical:
        argv += ["--units", "physical", "--mass", mass, "--hbar", hbar]
    names = ["kind", "index", "re_k", "im_k", "re_z", "im_z", "gamma_R", "gamma_bar",
             "gamma", "gamma_bar_sharp", "gamma_sharp", "c_value"]
    rows = [
        [r.pole.kind.value, r.pole.index, r.pole.k.real, r.pole.k.imag, r.pole.z.real * s,
         r.pole.z.imag * s, r.pole.gamma_R * s, r.gamma_bar * s, r.gamma,
         None if r.gamma_bar_sharp is None else r.gamma_bar_sharp * s, r.gamma_sharp,
         r.c_value]
        for r in table_records(spec, count)
    ]
    return argv, names, rows


def _lambertw_case():
    z = complex(-0.2, 0.0)
    w = lambert_w(-1, z)
    argv = ["lambertw", "--branch", "-1", "--re", "-0.2"]
    names = ["branch", "re_z", "im_z", "re_w", "im_w", "residual"]
    return argv, names, [[-1, z.real, z.imag, w.real, w.imag, lambert_w_residual(w, z)]]


TABLE_CASES = [(0.5, 8), (-0.5, 8), (100.0, 8), (-100.0, 8), (-700.0, 4), (0.05, 4)]


def _spectrum_case(companions):
    spec = PotentialSpec(lam=100.0)
    curve = spectrum_curve(spec, find_resonance(spec, 3), np.linspace(80.0, 94.0, 401))
    argv = ["spectrum", "--lambda", "100", "--index", "3",
            "--emin", "80", "--emax", "94", "--points", "401"]
    names, series = ["E", "dP_dE"], [curve.grid, curve.dP_dE]
    if companions:
        names += ["breit_wigner", "matrix_element"]
        series += [curve.breit_wigner, curve.matrix_element]
    else:
        argv.append("--no-companions")
    return argv, names, series


def _interfere_case():
    spec = PotentialSpec(lam=-17.5)
    cfg = InterferenceConfig(c1=0.8, c2=complex(0.2, 0.1))
    curve = interference_curve(
        spec, find_resonance(spec, 3), find_resonance(spec, 4), cfg, np.linspace(20.0, 120.0, 401)
    )
    argv = ["interfere", "--lambda", "-17.5", "--indices", "3,4", "--c1", "0.8,0",
            "--c2", "0.2,0.1", "--emin", "20", "--emax", "120", "--points", "401"]
    return argv, ["E", "dP_dE"], [curve.grid, curve.dP_dE]


def _cross_section_case():
    # the command line's default window, E_R +/- 10 Gamma_R
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 1)
    grid = np.linspace(pole.e_R - 10.0 * pole.gamma_R, pole.e_R + 10.0 * pole.gamma_R, 401)
    bundle = cross_section_bundle(spec, pole, grid, second_index=2)
    argv = ["cross-section", "--lambda", "100", "--index", "1", "--second-index", "2",
            "--points", "401"]
    names = ["E", "exact", "laurent", "e_unitarized", "k_unitarized", "two_pole"]
    series = [getattr(bundle, "grid" if name == "E" else name) for name in names]
    return argv, names, series


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "case",
    [
        lambda: _spectrum_case(True),
        lambda: _spectrum_case(False),
        _interfere_case,
        _cross_section_case,
        _poles_case,
        *[lambda lam=lam, count=count: _table_case(lam, count) for lam, count in TABLE_CASES],
        lambda: _table_case(10.0, 3, physical=True),
        _lambertw_case,
    ],
    ids=["spectrum", "spectrum-no-companions", "interfere", "cross-section-two-pole",
         "poles-antiresonances", *[f"table{lam:+g}" for lam, _ in TABLE_CASES],
         "table-physical", "lambertw"],
)
def test_curve_bytes_match_per_cell_format(case, fmt, capsys):
    argv, names, data = case()
    code, out = run_main(argv + ["--format", fmt], capsys)
    assert code == 0
    meta = json.loads(out)["meta"] if fmt == "json" else None
    reference = per_cell_row_bytes if argv[0] in ROW_COMMANDS else per_cell_curve_bytes
    assert out == reference(fmt, names, data, meta)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_physical_table_near_overflow_keeps_its_bytes(fmt, capsys):
    # hbar^2/2m = 5e304: every scaled energy is large but finite, so the
    # overflow check must leave the bytes of x * scale as they are
    argv, names, rows = _table_case(100.0, 8, physical=True, mass="1e-305", hbar="1")
    energies = [x for row in rows for x in row[4:8]]
    assert max(map(abs, energies)) > 1e305 and all(map(math.isfinite, energies))
    code, out = run_main(argv + ["--format", fmt], capsys)
    assert code == 0
    meta = json.loads(out)["meta"] if fmt == "json" else None
    assert out == per_cell_row_bytes(fmt, names, rows, meta)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["table", "poles"])
def test_physical_energy_overflow_exits_2(command, fmt, to_file, tmp_path, capsys):
    # hbar^2/2m = 5e306 is finite, but re_z of resonances 2-8 times it is not
    target = tmp_path / "rows.out"
    argv = [command, "--lambda", "100", "--units", "physical", "--mass", "1e-307",
            "--count", "8", "--format", fmt] + (["--output", str(target)] if to_file else [])
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overflows" in captured.err
    assert not target.exists()


# Energies that lose their digits on scaling: a subnormal hbar^2/2m (5e-321 and
# 5e-311) refuses every energy, and a normal one (4.5e-308) takes the width
# 0.0119 of lam = 100 and the bound re_z = -1e-14 of lam = -1.0000001 below 2^-1022.
_UNDERFLOWS = {
    "width-subnormal-scale": (["table", "--lambda", "100", "--hbar", "1e-160"], "is subnormal"),
    "bound-subnormal-scale": (["table", "--lambda=-1.0000001", "--hbar", "1e-155"],
                              "is subnormal"),
    "width": (["table", "--lambda", "100", "--hbar", "3e-154"], "loses its digits"),
    "bound": (["poles", "--lambda=-1.0000001", "--hbar", "3e-154"], "loses its digits"),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("line, reason", list(_UNDERFLOWS.values()), ids=list(_UNDERFLOWS))
def test_physical_energy_underflow_exits_2(line, reason, fmt, to_file, tmp_path, capsys):
    target = tmp_path / "rows.out"
    argv = line + ["--count", "1", "--units", "physical", "--mass", "1", "--format", fmt]
    code = cli.main(argv + (["--output", str(target)] if to_file else []))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert reason in captured.err
    assert not target.exists()


def test_physical_exact_zero_energies_stay_zero(capsys):
    # hbar^2/2m = 5e-201 is normal, and so is every nonzero energy times it;
    # the bound state's im_z and gamma_R are exact zeros and print as 0
    code, out = run_main(["table", "--lambda", "-10", "--count", "1", "--units", "physical",
                          "--hbar", "1e-100"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["kind"] == "bound" and (rows[0]["im_z"], rows[0]["gamma_R"]) == ("0", "0")
    assert 1e-200 < -float(rows[0]["re_z"]) < 1e-197


_CURVE_LINES = {
    "spectrum": ["--index", "3", "--emin", "80", "--emax", "94"],
    "interfere": ["--indices", "1,2", "--emin", "1", "--emax", "50"],
    "cross-section": ["--index", "1"],
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(_CURVE_LINES))
def test_curves_refuse_physical_units(command, fmt, to_file, tmp_path, capsys):
    # curves are written in reduced units only; they used to print reduced
    # numbers under a "physical" label. Their parsers have no units options.
    target = tmp_path / "curve.out"
    argv = [command, "--lambda", "100", *_CURVE_LINES[command], "--points", "3",
            "--units", "physical", "--mass", "2", "--format", fmt]
    code = _argparse_exit(argv + (["--output", str(target)] if to_file else []))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.endswith(
        "deltashell: error: unrecognized arguments: --units physical --mass 2\n")
    assert not target.exists()


# --mass and --hbar are physical-units options; the curves and lambertw have
# no units at all, and their parsers have no such options. An explicit 1 is
# given all the same.
_UNITLESS_LINES = {
    "table": ["table", "--lambda", "10", "--count", "1", "--mass", "2", "--hbar", "1.5"],
    "poles-hbar-1": ["poles", "--lambda", "10", "--count", "1", "--hbar", "1"],
    "spectrum": ["spectrum", "--lambda", "100", *_CURVE_LINES["spectrum"], "--points", "3",
                 "--mass", "2"],
    "lambertw-units": ["lambertw", "--branch", "0", "--re", "1", "--units", "physical"],
    "lambertw-mass": ["lambertw", "--branch", "0", "--re", "1", "--units", "physical",
                      "--mass", "0"],
    "lambertw-hbar": ["lambertw", "--branch", "0", "--re", "1", "--hbar", "1"],
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("line", list(_UNITLESS_LINES.values()), ids=list(_UNITLESS_LINES))
def test_mass_and_hbar_need_physical_units(line, fmt, to_file, tmp_path, capsys):
    # they used to be dropped without a word: the table printed reduced energies
    target = tmp_path / "rows.out"
    argv = line + ["--format", fmt] + (["--output", str(target)] if to_file else [])
    if line[0] in ("lambertw", "spectrum"):
        code = _argparse_exit(argv)
    else:
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    if line[0] in ("lambertw", "spectrum"):
        assert "deltashell: error: unrecognized arguments: " in captured.err
    else:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not target.exists()


def _argparse_exit(argv):
    """The exit code of a line that argparse refuses inside cli.main."""
    with pytest.raises(SystemExit) as refused:
        cli.main(argv)
    return refused.value.code


_LAMBERTW_SPEC_LINES = {
    "lambda": ["--lambda", "5"],
    "radius": ["--radius", "3"],
    "lambda-radius": ["--lambda", "5", "--radius", "3"],
    "lambda-equals": ["--lambda=-1e-3"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("extra", list(_LAMBERTW_SPEC_LINES.values()), ids=list(_LAMBERTW_SPEC_LINES))
def test_lambertw_refuses_spec_flags(extra, fmt, tmp_path, capsys):
    # lambertw reads no spec: --lambda and --radius used to be dropped without
    # a word, and the row of `lambertw --branch 0 --re 1` was printed
    target = tmp_path / "rows.out"
    argv = ["lambertw", "--branch", "0", "--re", "1", *extra, "--format", fmt,
            "--output", str(target)]
    assert _argparse_exit(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"deltashell: error: unrecognized arguments: {' '.join(extra)}\n")
    assert not target.exists()


def test_lambertw_refuses_a_spec_line_in_its_config(tmp_path, capsys):
    # a command's config keys are the long options of its own parents
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=json\nlambda=5\n")
    assert cli.main(["lambertw", "--config", str(cfg), "--branch", "0", "--re", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown config key 'lambda'\n"
    cfg.write_text("format=json\n")
    code, out = run_main(["lambertw", "--config", str(cfg), "--branch", "0", "--re", "1"], capsys)
    assert code == 0 and json.loads(out)["rows"][0]["branch"] == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_config_mass_counts_as_given(fmt, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mass=2\n")
    argv = ["table", "--config", str(cfg), "--lambda", "10", "--count", "2", "--format", fmt]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    # with physical units the config's mass counts, and hbar takes 1
    code, from_config = run_main(argv + ["--units", "physical"], capsys)
    assert code == 0
    _, explicit = run_main(["table", "--lambda", "10", "--count", "2", "--format", fmt,
                            "--units", "physical", "--mass", "2", "--hbar", "1"], capsys)
    assert from_config == explicit


@pytest.mark.parametrize("case", [_poles_case, lambda: _table_case(-100.0, 3), _lambertw_case],
                         ids=ROW_COMMANDS)
def test_row_json_keys_equal_csv_header(case, capsys):
    argv, _, _ = case()
    _, csv_out = run_main(argv, capsys)
    _, json_out = run_main(argv + ["--format", "json"], capsys)
    header = csv_out.split("\n", 1)[0].split(",")
    doc = json.loads(json_out)
    extra = ["c_value"] if argv[0] == "table" else []  # C is a JSON-only column
    assert all(list(row) == header + extra for row in doc["rows"])
    assert "rel_tol" not in doc["meta"]


ROWS = cli._BLOCK // 4  # CSV rows per kernel block of a four-column curve


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(  # one, two and four blocks; 4 ROWS is one JSON column's block
    "length", [1000, 1] + [n * ROWS + d for n in (1, 2, 4) for d in (-1, 0, 1)]
)
def test_curve_edge_values_match_per_cell_format(length, fmt, capsys):
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 123456789.0, 1e16,
              1234567891.0, 0.1 + 0.2, 1e-5, 9.999999995e-5]
    edge = np.resize(np.array(values), length)
    grid = np.arange(1.0, edge.size + 1.0)
    args = SimpleNamespace(format=fmt, output=None, emit_plot_script=False, radius=1.0)
    spec = PotentialSpec(lam=10.0)
    record = SimpleNamespace(grid=grid, v=edge, skipped=None, w=edge[::-1], u=-edge)
    columns = [("E", "grid", "E")] + [(name, name, "1/E") for name in ("v", "skipped", "w", "u")]
    cli._emit_curve(args, spec, None, record, columns)
    out = capsys.readouterr().out
    meta = cli._meta(spec) if fmt == "json" else None
    series = [grid, edge, edge[::-1], -edge]
    assert out == per_cell_curve_bytes(fmt, ["E", "v", "w", "u"], series, meta)


_NEAR_INTEGERS = st.builds(
    lambda n, rel: n + rel * abs(n),
    st.integers(-10**12, 10**12).map(float),
    st.floats(-1e-7, 1e-7),
)
_CURVE_VALUES = st.one_of(
    st.floats(),  # nan, +-inf and subnormals included
    _NEAR_INTEGERS,
    st.floats(9.9e8, 1.01e9),
    st.floats(9.9e15, 1.01e16),
)


def assert_curve_matches_per_cell_format(v):
    """_emit_curve of v, reversed v and -v, in CSV and JSON, against the per-cell bytes."""
    grid, w = v[::-1].copy(), -v  # -v: the negative side of every case
    spec = PotentialSpec(lam=10.0)
    for fmt in ("csv", "json"):
        args = SimpleNamespace(format=fmt, output=None, emit_plot_script=False, radius=1.0)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._emit_curve(args, spec, None, SimpleNamespace(grid=grid, v=v, w=w),
                            [("E", "grid", "E"), ("v", "v", "1/E"), ("w", "w", "1/E")])
        meta = cli._meta(spec) if fmt == "json" else None
        assert out.getvalue() == per_cell_curve_bytes(fmt, ["E", "v", "w"], [grid, v, w], meta)


@settings(deadline=None)
@given(values=st.lists(_CURVE_VALUES, min_size=1, max_size=60))
def test_curve_token_fast_path_matches_per_cell_format(values):
    assert_curve_matches_per_cell_format(np.array(values))


@settings(deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
def test_curve_kernel_matches_per_cell_format_on_raw_bit_patterns(bits):
    assert_curve_matches_per_cell_format(np.array(bits, dtype=np.uint64).view(np.float64))


def _decade_sweep():
    """For each decade k in [-330, 310]: 10**k and a 9-digit tie d.dddddddd5e k, each
    with its 1- and 2-ulp neighbours, the carry 9.999999995e k, and 1.0000000007e k,
    whose y is 1e9 + 0.7 if X is a decade low. Then the zeros, the smallest subnormal
    and normal, the largest float, the infinities and nan. Both signs of each; past
    the float range 10**k is 0 or inf."""
    decades = range(-330, 311)
    digits = np.random.default_rng(27).integers(10**8, 10**9, len(decades))
    ties = [float(f"{d}5e{k - 9}") for k, d in zip(decades, digits)]
    bases = np.array([float(f"1e{k}") for k in decades] + ties)
    near = [bases]
    for direction in (np.inf, -np.inf):
        one = np.nextafter(bases, direction)
        near += [one, np.nextafter(one, direction)]
    edges = [float(f"{c}e{k}") for k in decades for c in ("9.999999995", "1.0000000007")]
    special = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan]
    values = np.concatenate(near + [edges, special])
    return np.concatenate([values, -values])


def test_curve_kernel_decade_sweep_matches_per_cell_format():
    assert_curve_matches_per_cell_format(_decade_sweep())


@pytest.mark.parametrize("shift", [-1.0, -0.5, -4.5e-16, 4.5e-16, 0.5, 1.0])
def test_curve_bytes_do_not_depend_on_log10(shift, monkeypatch):
    # a decade off either way leaves y = |x| 10**(8 - X) outside [1e8, 1e9 + 1/2),
    # where Python formats the cell; a last-bit error moves X only near 10**k
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda v: log10(v) + shift)
    assert_curve_matches_per_cell_format(_decade_sweep())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_virtual_spectrum_zero_column_matches_per_cell_format(fmt, capsys):
    # a zero-width pole has an all-zero Breit-Wigner: every JSON cell is flagged
    spec = PotentialSpec(lam=-0.5)
    curve = spectrum_curve(spec, find_virtual_state(spec), np.linspace(0.001, 2.0, 401))
    assert not curve.breit_wigner.any()
    argv = ["spectrum", "--lambda", "-0.5", "--virtual", "--emin", "0.001", "--emax", "2",
            "--points", "401", "--format", fmt]
    code, out = run_main(argv, capsys)
    assert code == 0
    names = ["E", "dP_dE", "breit_wigner", "matrix_element"]
    series = [getattr(curve, "grid" if name == "E" else name) for name in names]
    meta = json.loads(out)["meta"] if fmt == "json" else None
    assert out == per_cell_curve_bytes(fmt, names, series, meta)


# -- the streamed writer: a curve is written one kernel block at a time


class _Sink(io.StringIO):
    """A text stream that keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


_STREAMED = ["cross-section", "--lambda", "12", "--index", "2", "--second-index", "3",
             "--emin", "1", "--emax", "90"]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("points", [2, cli._BLOCK, cli._BLOCK + 1, 20001])
def test_curve_is_written_block_by_block(points, fmt, to_file, tmp_path, monkeypatch):
    # the writes joined are the per-cell bytes, and none holds more than one
    # kernel block (at most 17 characters a cell) past a short header
    sinks, target = [], tmp_path / "curve.out"

    def sink_open(path, *args, **kwargs):  # --output: the file becomes a sink
        assert path == str(target)
        sinks.append(_Sink())
        return sinks[-1]

    monkeypatch.setattr(cli, "open", sink_open, raising=False)
    monkeypatch.setattr(sys, "stdout", _Sink())
    argv = _STREAMED + ["--points", str(points), "--format", fmt]
    assert cli.main(argv + (["--output", str(target)] if to_file else [])) == 0
    (sink,) = sinks if to_file else [sys.stdout]
    assert (sys.stdout.writes == []) == to_file
    out = "".join(sink.writes)
    spec = PotentialSpec(lam=12.0)
    bundle = cross_section_bundle(spec, find_resonance(spec, 2), np.linspace(1.0, 90.0, points),
                                  second_index=3)
    names = ["E", "exact", "laurent", "e_unitarized", "k_unitarized", "two_pole"]
    series = [getattr(bundle, "grid" if name == "E" else name) for name in names]
    meta = json.loads(out)["meta"] if fmt == "json" else None
    assert out == per_cell_curve_bytes(fmt, names, series, meta)
    head, *rest = sink.writes
    assert len(head) < 100 and max(map(len, rest)) <= 17 * cli._BLOCK
    assert len(rest) >= points * len(names) // cli._BLOCK  # a write per block at least


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_refused_curve_writes_nothing(fmt, to_file, tmp_path, monkeypatch, capsys):
    # a window refused as it scales in, and a curve whose last column is refused
    # as it scales out: exit 2 with no byte written and no --output file made
    target = tmp_path / "curve.out"
    base = ["spectrum", "--lambda", "12", "--index", "2", "--emin", "1", "--emax", "90",
            "--format", fmt] + (["--output", str(target)] if to_file else [])
    assert cli.main(base + ["--radius", "1e-200"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not target.exists()
    assert err.startswith("error: 1.0 scaled by ") and err.endswith(" loses its digits\n")

    scaled, calls = cli._scaled_column, []

    def refuse_the_last(col, scale):
        calls.append(col)
        if len(calls) == 4:  # E, dP_dE, breit_wigner, matrix_element
            raise InvalidInput("the last column is refused")
        return scaled(col, scale)

    monkeypatch.setattr(cli, "_scaled_column", refuse_the_last)
    assert cli.main(base + ["--radius", "2"]) == 2
    out, err = capsys.readouterr()
    assert len(calls) == 4 and out == "" and not target.exists()
    assert err == "error: the last column is refused\n"


# -- import graph: the row commands run on the scalar layer alone


def run_python(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_QUIET_MAIN = """
import contextlib, io, sys
import deltashell.cli as cli

def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
"""


def test_row_commands_never_import_numpy():
    run_python("""
import sys
import deltashell
assert "numpy" not in sys.modules, "import deltashell"
""" + _QUIET_MAIN + """
assert "numpy" not in sys.modules, "import deltashell.cli"
for argv in (
    ["table", "--lambda", "10"],
    ["table", "--lambda", "-0.5", "--format", "json"],
    ["table", "--lambda", "-10"],
    ["poles", "--lambda", "100", "--include-antiresonances"],
    ["lambertw", "--branch", "-1", "--re", "-0.2"],
):
    quiet(argv)
    assert "numpy" not in sys.modules, argv
""")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda", "10", "--index", "1", "--emin", "1", "--emax", "30", "--points", "5"],
    ["interfere", "--lambda", "10", "--indices", "1,2", "--emin", "1", "--emax", "60",
     "--points", "5"],
    ["cross-section", "--lambda", "10", "--index", "1", "--points", "5"],
])
def test_curve_command_loads_numpy(argv):
    run_python(_QUIET_MAIN + f"""
assert "numpy" not in sys.modules
quiet({argv!r})
assert "numpy" in sys.modules
""")


def test_public_names_resolve_lazily():
    run_python("""
import importlib, sys
import deltashell
lazy = {"CrossSectionBundle", "matrix_element", "spectrum_curve", "interference_curve"}
removed = {"QuadratureRequest", "integrate_semi_infinite", "ToleranceNotMet", "perturbation_rhs",
           "NormalizationData", "JostPair", "s_matrix_energy", "resonant_wavefunction",
           "multi_spectrum", "jost", "s_matrix", "PoleHit", "decay_width_total",
           "decay_constant_total", "golden_rule_sharp", "decay_width_differential",
           "decay_constant_differential", "unitarized_ratio", "decay_energy_spectrum",
           "interference_spectrum", "cross_section_laurent", "cross_section_e_unitarized",
           "cross_section_k_unitarized", "cross_section_two_pole"}
assert not removed & set(deltashell.__all__)
for name in removed:
    try:
        getattr(deltashell, name)
    except AttributeError:
        pass
    else:
        raise AssertionError(f"{name} still resolves on deltashell")
assert lazy <= set(deltashell.__all__) <= set(dir(deltashell))
assert not lazy & set(vars(deltashell)), "bound before first access"
assert "numpy" not in sys.modules
for name in deltashell.__all__:
    value = getattr(deltashell, name)
    assert getattr(deltashell, name) is value, name
    module = getattr(value, "__module__", None)
    if module and module.startswith("deltashell."):
        assert getattr(importlib.import_module(module), name) is value, name
namespace = {}
exec("from deltashell import *", namespace)
assert set(deltashell.__all__) - {"__version__"} <= set(namespace)
try:
    deltashell.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")
from deltashell import spectra  # a submodule, not a lazy name
assert spectra.spectrum_curve is deltashell.spectrum_curve
for module in ("errors", "lambertw", "potential", "poles", "observables", "cli", "scattering",
               "spectra", "cross_sections"):
    module = importlib.import_module("deltashell." + module)
    assert not removed & set(vars(module)), module.__name__
""")


# the package's public names at the release before each module's __all__
# became the only list of them, less jost, s_matrix and PoleHit, which left
# when the exact cross section stopped calling the Jost functions, less the
# six that only re-read a table row or fed the test-side checks, less the two
# pointwise lineshapes, whose curves now take the energies, and less the four
# approximants, now columns of the cross-section bundle alone
_DELETED = ("decay_width_total", "decay_constant_total", "golden_rule_sharp",
            "decay_width_differential", "decay_constant_differential", "unitarized_ratio",
            "decay_energy_spectrum", "interference_spectrum", "cross_section_laurent",
            "cross_section_e_unitarized", "cross_section_k_unitarized", "cross_section_two_pole")
_PUBLIC_NAMES = {
    "__version__", "DegeneratePole", "DeltaShellError", "InvalidInput", "NonConvergence",
    "NoSuchPole", "ObservablesRecord", "Pole", "PoleKind", "PotentialSpec",
    "enumerate_poles", "find_anti_resonance", "find_bound_state", "find_resonance",
    "find_virtual_state", "lambert_w", "lambert_w_residual", "observables_record",
    "table_records", "transcendental_residual", "zeldovich_norm",
    "CrossSectionBundle", "cross_section_bundle", "cross_section_exact",
    "matrix_element", "matrix_element_squared",
    "InterferenceConfig", "SpectrumCurve", "interference_curve", "spectrum_curve",
}


def test_public_surface_comes_from_the_modules():
    # deltashell.__all__ is built from the modules' own lists; _GRID names the
    # grid layer's lists without importing numpy, so a test ties the two
    assert len(deltashell.__all__) == len(set(deltashell.__all__)) == 30
    assert set(deltashell.__all__) == _PUBLIC_NAMES
    for name in _DELETED:
        assert name not in deltashell.__all__, name
        with pytest.raises(AttributeError):
            getattr(deltashell, name)
    for module, names in deltashell._GRID.items():
        assert tuple(importlib.import_module(f"deltashell.{module}").__all__) == names, module
    assert set(cli._CURVES) <= set(deltashell._LAZY)


@pytest.mark.parametrize("name, argv", [
    ("spectrum_curve",
     ["spectrum", "--lambda", "10", "--index", "1", "--emin", "1", "--emax", "30", "--points", "5"]),
    ("interference_curve",
     ["interfere", "--lambda", "10", "--indices", "1,2", "--emin", "1", "--emax", "60",
      "--points", "5"]),
    ("cross_section_bundle", ["cross-section", "--lambda", "10", "--index", "1", "--points", "5"]),
])
def test_curve_function_replaced_on_module_is_called(name, argv):
    # what a span tracer does: read the lazy name on the module, set a wrapper
    run_python(_QUIET_MAIN + f"""
original = getattr(cli, {name!r})
calls = []

def wrapper(*args, **kwargs):
    calls.append(args)
    return original(*args, **kwargs)

setattr(cli, {name!r}, wrapper)
quiet({argv!r})
assert len(calls) == 1, calls
""")


# -- every flag is read: changing its value changes stdout or exits 2

# Lines that exit 0, per command; spectrum has one for each of its two poles.
_BASE_LINES = {
    "poles": [["--lambda", "10", "--count", "2"]],
    "table": [["--lambda", "10", "--count", "2"]],
    "spectrum": [["--lambda", "10", "--index", "1", "--emin", "1", "--emax", "30", "--points", "3"],
                 ["--lambda", "-0.5", "--virtual", "--emin", "0.1", "--emax", "1", "--points", "3"]],
    "interfere": [["--lambda", "10", "--indices", "1,2", "--emin", "1", "--emax", "60",
                   "--points", "3"]],
    "cross-section": [["--lambda", "10", "--index", "1", "--emin", "1", "--emax", "30",
                       "--points", "3"]],
    "lambertw": [["--branch", "0", "--re", "1"]],
}
# Another value for each valued long option; "--output" and "--config" take a path.
_OTHER_VALUES = {
    "--lambda": "7", "--radius": "2", "--units": "physical", "--mass": "2", "--hbar": "2",
    "--format": "json", "--count": "3", "--emin": "2", "--emax": "40", "--points": "4",
    "--index": "2", "--indices": "1,3", "--c1": "0.5,0.5", "--c2": "0.5,-0.5",
    "--second-index": "3", "--branch": "-1", "--re": "2", "--im": "0.5",
}
_CONFIG_LINE = "format=json"  # a config key of all six commands


def _exit_and_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
    return code, out.getvalue()


def _changed(base, action, tmp_path):
    """base with the option of action set to another value, or a flag toggled."""
    option = max(action.option_strings, key=len)
    if action.nargs == 0:  # a flag: toggle it
        return [w for w in base if w != option] if option in base else base + [option]
    if option == "--config":
        path = tmp_path / "run.cfg"
        path.write_text(_CONFIG_LINE + "\n")
        value = str(path)
    else:
        value = str(tmp_path / "out") if option == "--output" else _OTHER_VALUES[option]
    if option in base:
        at = base.index(option) + 1
        return base[:at] + [value] + base[at + 1:]
    return base + [option, value]


@pytest.mark.parametrize("command", sorted(_BASE_LINES))
def test_every_flag_changes_stdout_or_exits_2(command, tmp_path):
    subparser = cli._build_parser()[1][command]
    actions = [a for a in subparser._actions if a.option_strings and a.dest != "help"]
    assert actions
    for base in _BASE_LINES[command]:
        base_code, base_out = _exit_and_stdout([command, *base])
        assert base_code == 0 and base_out, base
        for action in actions:
            argv = [command, *_changed(base, action, tmp_path)]
            code, out = _exit_and_stdout(argv)
            refusable = action.dest != "config"  # a config file's key is read, never refused
            assert ((code == 0 and out != base_out)
                    or (refusable and code == 2 and out == "")), (argv, code)
