"""The row commands' fast paths against their references: the `%`-template
row writer against a per-cell writer, the direct subparser parse against
the full parser, the scalar solver kernels against their two-exponential
forms, and the CLI bytes against fixtures written
before these paths existed."""

import cmath
import contextlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltashell.cli as cli
from deltashell import (InvalidInput, Pole, PotentialSpec, enumerate_poles, find_anti_resonance,
                        find_resonance, lambert_w, lambert_w_residual)
from deltashell.cross_sections import _two_pole
from deltashell.lambertw import _halley, _seed
from deltashell.observables import table_records
from deltashell.poles import _polish_complex

FIXTURES = Path(__file__).parent / "fixtures" / "cli"


def _bits(z):
    return [x.hex() for x in (z if isinstance(z, tuple) else (z.real, z.imag))]


# -- row writer


class _Refused(Exception):
    pass


def _per_cell_rows(fmt, columns, rows, case):
    """Reference row writer: one getter, one scaling and one format per cell;
    None where a finite nonzero value scales to 0, a subnormal or inf."""
    spec, units, energy_scale, a = case
    scales = cli._scales(a, energy_scale) or {}

    def get(row, path, dim):
        for attr in path.split("."):
            row = getattr(row, attr)
        mul, div, shift = scales.get(dim, (1.0, 1.0, 0))
        assert shift == 0  # every case's a * a is a normal float
        if row is None or (mul, div) == (1.0, 1.0):
            return row
        value = row * mul / div
        if row != 0.0 and math.isfinite(row) and not sys.float_info.min <= abs(value) < math.inf:
            raise _Refused
        return value

    try:
        table = [[get(row, path, dim) for _, path, dim in columns] for row in rows]
    except _Refused:
        return None
    names = [column[0] for column in columns]
    if fmt == "json":
        payload = [
            {name: float("%.9g" % x) if isinstance(x, float) else x for name, x in zip(names, r)}
            for r in table
        ]
        meta = cli._meta(spec, a, units)
        return json.dumps({"meta": meta, "rows": payload}, separators=(",", ":")) + "\n"

    def cell(x):
        if x is None:
            return ""
        return str(x) if isinstance(x, (str, int)) else "%.9g" % x

    lines = [",".join(names)] + [",".join(cell(x) for x in r) for r in table]
    return "\n".join(lines) + "\n"


def _row_bytes(fmt, columns, rows, case):
    """The row writer's bytes; None, with nothing written, where it refuses a value."""
    spec, units, energy_scale, a = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli._emit_rows(SimpleNamespace(format=fmt, output=None, units=units, radius=a),
                           spec, columns, rows, cli._scales(a, energy_scale))
        except InvalidInput:
            assert out.getvalue() == ""
            return None
    return out.getvalue()


def _record(columns, values):
    """An object whose attribute paths, as the column spec names them, give values."""
    root = {}
    for (_, path, _), value in zip(columns, values):
        *parents, leaf = path.split(".")
        node = root
        for attr in parents:
            node = node.setdefault(attr, {})
        node[leaf] = value

    def build(node):
        return SimpleNamespace(**{k: build(v) if isinstance(v, dict) else v
                                  for k, v in node.items()})

    return build(root)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 999999999.5, 3.0]),
)
# (spec, --units, hbar^2/2m, --radius): no spec as for lambertw, reduced, mass 2 and
# hbar 1.5, and radius 0.3, which scales the wave numbers and C too
_CASES = [(None, "reduced", 1.0, 1.0), (PotentialSpec(lam=2.0), "reduced", 1.0, 1.0),
          (PotentialSpec(lam=2.0), "physical", 1.5**2 / (2.0 * 2.0), 1.0),
          (PotentialSpec(lam=2.0), "physical", 1.5**2 / (2.0 * 2.0), 0.3)]
_COMMAND_COLUMNS = {"poles": cli._POLE_COLUMNS, "table": cli._TABLE_COLUMNS,
                    "lambertw": cli._LAMBERTW_COLUMNS}


def _written(command, fmt):
    """The spec a row command writes in a format: table's CSV leaves out C, its last column."""
    columns = _COMMAND_COLUMNS[command]
    return columns[:-1] if (command, fmt) == ("table", "csv") else columns


def _cells(columns, nullable):
    cells = []
    for name, _, dim in columns:
        if dim == "%s":
            cells.append(st.sampled_from(["resonance", "bound"]) if name == "kind"
                         else st.integers(-10**6, 10**6))
        elif name in nullable:
            cells.append(st.one_of(st.none(), _FLOATS))
        else:
            cells.append(_FLOATS)
    return st.tuples(*cells)


@pytest.mark.parametrize("command", sorted(_COMMAND_COLUMNS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=st.sampled_from(_CASES))
def test_row_writer_matches_per_cell_reference(command, fmt, data, case):
    columns = _COMMAND_COLUMNS[command]
    nullable = {"gamma_bar_sharp", "gamma_sharp", "c_value"} if command == "table" else set()
    values = data.draw(st.lists(_cells(columns, nullable), max_size=6))
    rows = [_record(columns, v) for v in values]
    written = _written(command, fmt)
    assert _row_bytes(fmt, written, rows, case) == _per_cell_rows(fmt, written, rows, case)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", _CASES[1:3], ids=["reduced", "physical"])
def test_row_writer_none_and_negative_zero_cells(fmt, case):
    columns = cli._TABLE_COLUMNS
    rows = [
        _record(columns, ["bound", 0, -0.0, 0.5, -0.0, -0.0, -0.0, -0.0, 1.0, None, None, None]),
        _record(columns, ["resonance", 1, 2.0, -0.0, 3.5, -1e-300, 0.0, 2.5, -0.0, None, -0.0,
                          0.25]),
        _record(columns, ["resonance", 2, 2.0, -1.0, 3.5, -4.0, 8.0, 1e20, 2.0, 1e-20, None,
                          None]),
    ]
    written = _written("table", fmt)
    out = _row_bytes(fmt, written, rows, case)
    assert out == _per_cell_rows(fmt, written, rows, case)
    if fmt == "csv":
        assert out.splitlines()[1].endswith(",-0,1,,")


# -- direct parse


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_VALID = [
    ["table", "--lambda", "7.25", "--count", "5"],
    ["table", "--lambda=-0.5", "--format", "json", "--units", "physical", "--mass", "2"],
    ["table", "--lam", "-1e-3", "--cou", "3"],
    ["table", "--lambda", "-2.5e1"],
    ["poles", "--lambda", "-.5", "--include-antiresonances", "--output", "x.csv"],
    ["lambertw", "--branch", "-1", "--re", "-0.2", "--im", "-1e-3"],
    ["spectrum", "--lambda", "100", "--index", "3", "--emin", "80", "--emax", "94",
     "--no-companions", "--emit-plot-script"],
    ["interfere", "--lambda", "12", "--indices", "2,3", "--c1", "-0.5,0.3", "--c2=0.5,0.5",
     "--emin", "30", "--emax", "60", "--points", "201"],
    ["cross-section", "--lambda", "5", "--index", "1", "--second-index", "2"],
    ["table", "--config", "run.cfg", "--lambda", "3"],
]

_INVALID = [
    [],
    ["table", "--lambda", "5", "extra"],
    ["table", "--lambda", "5", "--"],
    ["table", "--lambda", "5", "--", "--count", "3"],
    ["table", "--", "5"],
    ["table", "-h"],
    ["table", "--lambda", "5", "--help"],
    ["--version"],
    ["table", "--version"],
    ["tabel", "--lambda", "5"],
    ["tab", "--lambda", "5"],
    ["--lambda", "5", "table"],
    ["table", "--lambda", "abc"],
    ["table", "--lambda"],
    ["table", "--lambda", "5", "--co", "3"],
    ["table", "--lambda", "-x"],
    ["table", "--count", "-3e"],
    ["interfere", "--lambda", "12", "--indices", "2"],
    ["lambertw", "--branch", "1"],
    ["table", "--=x"],
    ["table", "--lambda=--=x", "--=5"],
    ["table", "--config"],
    ["table", "--lambda", "5", "--config", "a.cfg", "b.cfg"],
]


@pytest.mark.parametrize("argv", _VALID + _INVALID, ids=lambda argv: " ".join(argv) or "empty")
def test_direct_parse_matches_full_parser(argv):
    parser = cli._build_parser()[0]
    assert _outcome(cli._parse, argv) == _outcome(parser.parse_args, argv)


@pytest.mark.parametrize("argv", _VALID, ids=lambda argv: " ".join(argv))
def test_valid_line_skips_the_full_parser(argv, monkeypatch):
    parser = cli._build_parser()[0]
    expected = vars(parser.parse_args(argv))

    def refuse(*args, **kwargs):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    assert vars(cli._parse(argv)) == expected


def test_config_line_matches_full_parser(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=-10\nformat=json\n")
    argv = ["table", "--config", str(cfg), "--count", "2"]
    parser = cli._build_parser()[0]
    tokens = cli._config_tokens(str(cfg), "table")
    line = argv[:1] + tokens + argv[1:]
    assert vars(cli._parse(line)) == vars(parser.parse_args(line))
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["index"] for row in rows] == [0, 1, 2]  # bound state plus --count 2


# -- CLI bytes against fixtures written before the fast paths


_FIXTURE_STRENGTHS = ["100", "10", "0.5", "-0.5", "-10", "-100"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["table", "poles"])
@pytest.mark.parametrize("lam", _FIXTURE_STRENGTHS)
def test_cli_bytes_match_fixture(lam, command, fmt, capsys):
    """Fixture files hold the output of, for example,
    `deltashell poles --lambda=-0.5 --include-antiresonances --format csv`."""
    argv = [command, f"--lambda={lam}", "--format", fmt]
    if command == "poles":
        argv.append("--include-antiresonances")
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (FIXTURES / f"{command}_{lam}.{fmt}").read_bytes()


# -- row layouts, built once per column spec


def _expected_rows(command, fmt, lam, units):
    """The bytes a row command should write: its fixture in reduced units, else
    the per-cell writer over the library's rows (mass 2, hbar 1.5 when physical)."""
    if command == "lambertw":
        z = complex(float(lam), 0.25)
        w = lambert_w(-1, z)
        row = SimpleNamespace(branch=-1, z=z, w=w, residual=lambert_w_residual(w, z))
        return _per_cell_rows(fmt, cli._LAMBERTW_COLUMNS, [row], (None, "reduced", 1.0, 1.0))
    if units == "reduced":
        return (FIXTURES / f"{command}_{lam}.{fmt}").read_text(encoding="utf-8")
    spec = PotentialSpec(lam=float(lam))
    if command == "table":
        rows = table_records(spec, 8)
    else:
        rows = enumerate_poles(spec, 8) + [find_anti_resonance(spec, n) for n in range(1, 9)]
    return _per_cell_rows(fmt, _written(command, fmt), rows,
                          (spec, "physical", 1.5**2 / (2.0 * 2.0), 1.0))


def test_layouts_hold_across_interleaved_commands(capsys):
    # one process, every row command in both formats and both unit systems, in
    # a shuffled order: a layout read under another command's or format's spec
    # writes other columns, another header or no output at all
    lines = [(command, fmt, lam, units)
             for command in ("poles", "table", "lambertw") for fmt in ("csv", "json")
             for units in ("reduced", "physical") for lam in _FIXTURE_STRENGTHS
             if not (command == "lambertw" and units == "physical")]
    random.Random(15).shuffle(lines)
    for command, fmt, lam, units in lines + lines[::-1]:
        if command == "lambertw":
            argv = ["lambertw", "--branch", "-1", f"--re={lam}", "--im", "0.25"]
        else:
            argv = [command, f"--lambda={lam}"]
        if command == "poles":
            argv.append("--include-antiresonances")
        if units == "physical":
            argv += ["--units", "physical", "--mass", "2", "--hbar", "1.5"]
        assert cli.main(argv + ["--format", fmt]) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == _expected_rows(command, fmt, lam, units), argv


# -- kernels: one exponential where two gave the same bits


def _polish_two_exponentials(spec, k, steps=2):
    lam = spec.lam
    for _ in range(steps):
        x = 2j * k
        f = x + lam * (cmath.exp(x) - 1.0)
        fp = 2j * (1.0 + lam * cmath.exp(x))
        if fp == 0:
            break
        k = k - f / fp
    return k


def _halley_recomputed(w, z):
    for _ in range(64):
        ew = cmath.exp(w)
        f = w * ew - z
        if abs(f) <= 2e-16 * (abs(w * ew) + abs(z)):
            return w
        wp1 = w + 1.0
        if wp1 == 0:
            return None
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0:
            return None
        dw = f / denom
        w = w - dw
        if abs(dw) <= 1e-15 * max(abs(w), 1e-290):
            return w
    return None


def _strengths(seed, count, lo=0.15, hi=700.0, signed=True):
    rng = random.Random(seed)
    for _ in range(count):
        mag = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        yield mag if not signed or rng.random() < 0.5 else -mag


def test_kernels_match_their_two_exponential_forms():
    # |lam| up to 700, plus 0 < lam < 0.107, where resonance 1 has E_R <= 0;
    # the row kernel is checked against the 50-digit reference instead
    # (tests/test_observables.py)
    strengths = itertools.chain(_strengths(9101, 300), _strengths(9102, 40, 1e-3, 0.107, False))
    polished = 0
    for lam in strengths:
        spec = PotentialSpec(lam=lam)
        z = lam * math.exp(lam)
        for n in range(1, 9):
            branch = -(n if lam > 0 else n + 1)
            seed = _seed(branch, complex(z))
            assert _bits(_halley(seed, complex(z))) == _bits(_halley_recomputed(seed, complex(z)))
            try:
                pole = find_resonance(spec, n)
            except ArithmeticError:
                continue
            k0 = pole.k * (1.0 + 1e-9j)
            assert _bits(_polish_complex(spec, k0)[0]) == _bits(_polish_two_exponentials(spec, k0))
            polished += 1
    assert polished > 2000


# -- two-pole cross section


def _nudged(pole, steps):
    """The pole with Re k and Im k moved by the given numbers of ulps."""
    parts = []
    for x, n in zip((pole.k.real, pole.k.imag), steps):
        for _ in range(abs(n)):
            x = math.nextafter(x, math.copysign(math.inf, n))
        parts.append(x)
    k = complex(*parts)
    return Pole(pole.kind, pole.branch, pole.index, k, k * k)


def test_two_pole_swap_symmetry_holds_for_poles_moved_by_one_ulp():
    # the cross term's rounding must not depend on which pole comes first; the nudged
    # poles are no solver's output, so the two-pole body takes them directly
    spec = PotentialSpec(lam=100.0)
    p1, p2 = find_resonance(spec, 1), find_resonance(spec, 2)
    e = np.linspace(5.0, 50.0, 300)
    for steps in itertools.product((-1, 0, 1), repeat=4):
        q1, q2 = _nudged(p1, steps[:2]), _nudged(p2, steps[2:])
        assert np.array_equal(_two_pole(spec, q1, q2, e), _two_pole(spec, q2, q1, e)), steps


def test_two_pole_huge_window_is_quiet_and_tends_to_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "deltashell.cli", "cross-section", "--lambda", "5", "--index", "1",
         "--second-index", "2", "--emin", "1", "--emax", "1e308", "--points", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    header, *_, last = proc.stdout.splitlines()
    assert dict(zip(header.split(","), last.split(",")))["two_pole"] == "0"
