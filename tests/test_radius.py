"""The radius as an output scale of the command line.

The library works at a = 1, in units of the radius. Every observable then
depends on a through a known power: k as 1/a; z, Gamma_R, Gbar and
Gbar_sharp as 1/a^2; C as a; Gamma and Gamma_sharp not at all. On curves
the grid and M^2 go as 1/a^2, and every density and cross section as a^2.
So a row or a curve written at radius a is the a = 1 one times those
powers, to a few ulps, or, where a scaled value over- or underflows, the
command exits 2 and writes nothing. No output holds a non-finite number.
"""

import contextlib
import io
import json
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import deltashell.cli as cli
from deltashell import (PotentialSpec, cross_section_bundle, enumerate_poles,
                        find_anti_resonance, find_resonance, interference_curve,
                        spectrum_curve, table_records)
from deltashell.spectra import InterferenceConfig

STRENGTHS = (3.0, 100.0, -0.5, -10.0, -300.0)
COUNT = 6
RADII = sorted({10.0 ** e for e in range(-150, 151, 5)}
               | {0.3, 1.7, 1e5, 1e-14, 1e103, 1e104, 1e110, 1e160, 1e-160, 1e-200})
# the power of a in each row column; Gamma and Gamma_sharp have none
POWERS = {"re_k": -1, "im_k": -1, "re_z": -2, "im_z": -2, "gamma_R": -2, "gamma_bar": -2,
          "gamma_bar_sharp": -2, "c_value": 1, "gamma": 0, "gamma_sharp": 0}
TINY, HUGE = Fraction(sys.float_info.min), Fraction(sys.float_info.max)


def _strict_float(token):
    raise AssertionError(f"non-finite JSON token {token}")


def _run(argv):
    """(exit code, stdout, stderr) of one command line; a RuntimeWarning fails."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _clean(code, out, fmt):
    """The hygiene every output keeps: finite numbers, strict JSON, nothing on failure."""
    if code != 0:
        assert out == ""
        return
    cells = {cell.strip('"').lstrip("+-").lower() for cell in re.split(r"[\s,:\[\]{}]", out)}
    assert not cells & {"inf", "nan", "infinity"}, out
    if fmt == "json":
        json.loads(out, parse_constant=_strict_float)


def _full_precision(monkeypatch):
    """Write JSON rows and curves with every bit (repr), not rounded to 9 digits."""
    monkeypatch.setattr(cli, "_json_value", lambda x: x)
    monkeypatch.setattr(cli, "_json_array", lambda col: [json.dumps(col.tolist())])


def _row_values(record):
    pole = record.pole
    values = {"re_k": pole.k.real, "im_k": pole.k.imag, "re_z": pole.z.real,
              "im_z": pole.z.imag, "gamma_R": pole.gamma_R}
    values.update({name: getattr(record, name) for name in POWERS if name not in values})
    return values


def _expected_rows(lam, a):
    """The a = 1 rows as exact scaled values, and whether the command must refuse:
    some finite nonzero value leaves the normal range. None where a value sits
    so near that range's edge that rounding may take it either way."""
    rows, refused = [], False
    for record in table_records(PotentialSpec(lam=lam), COUNT):
        row = {}
        for name, x in _row_values(record).items():
            if x is None or POWERS[name] == 0:
                row[name] = x
                continue
            exact = Fraction(x) * Fraction(a) ** POWERS[name]
            if x != 0.0:
                size = abs(exact)
                if any(abs(size / edge - 1) < 1e-12 for edge in (TINY, HUGE)):
                    return None, None
                refused = refused or not TINY <= size <= HUGE
            row[name] = exact
        rows.append(row)
    return rows, refused


@pytest.mark.parametrize("lam", STRENGTHS)
def test_rows_are_the_unit_radius_rows_scaled(lam, monkeypatch):
    reference = _run(["table", "--lambda", repr(lam), "--count", str(COUNT), "--format", "json"])
    assert reference[0] == 0
    for a in RADII:
        argv = ["table", "--lambda", repr(lam), "--radius", repr(a), "--count", str(COUNT)]
        expected, refused = _expected_rows(lam, a)
        results = {fmt: _run(argv + ["--format", fmt]) for fmt in ("csv", "json")}
        for fmt, (code, out, err) in results.items():
            _clean(code, out, fmt)
            if expected is not None:
                assert code == (2 if refused else 0), (lam, a, fmt, err)
        if expected is None or refused:
            continue
        # Gamma and Gamma_sharp print as at a = 1, to the byte
        printed = json.loads(results["json"][1])["rows"]
        unit = json.loads(reference[1])["rows"]
        assert [(r["gamma"], r["gamma_sharp"]) for r in printed] == [
            (r["gamma"], r["gamma_sharp"]) for r in unit]
        with monkeypatch.context() as patch:
            _full_precision(patch)
            code, out, _ = _run(argv + ["--format", "json"])
        assert code == 0
        doc = json.loads(out, parse_constant=_strict_float)
        assert doc["meta"]["a"] == a
        for got, want in zip(doc["rows"], expected, strict=True):
            for name, exact in want.items():
                value = got[name]
                if exact is None or POWERS[name] == 0:
                    assert value == exact, (lam, a, name)  # bit for bit
                else:
                    ulps = abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))
                    assert ulps <= 3, (lam, a, name, value, float(exact), float(ulps))


def test_examples_the_radius_used_to_break():
    # inf, nan and JSON Infinity at large a, DegeneratePole and a division by
    # zero at small a, and a residual gate that moved with a
    code, out, _ = _run(["table", "--lambda", "3", "--radius", "1e104", "--count", "1"])
    header, row = out.splitlines()
    assert code == 0 and dict(zip(header.split(","), row.split(",")))["gamma"] == "0.644174288"
    assert _run(["table", "--lambda", "3", "--radius", "1e-200", "--count", "1"])[:2] == (2, "")
    code, out, _ = _run(["table", "--lambda", "-300", "--radius", "0.3", "--count", "6"])
    assert code == 0 and len(out.splitlines()) == 8  # header, bound state, 6 resonances


@pytest.mark.parametrize("a", [0.3, 1.7])
def test_poles_at_other_radii_are_the_unit_radius_poles_scaled(a, monkeypatch):
    # every fourth strength of the solver's pinned sweep, resonances and
    # anti-resonances n <= 12 and the threshold pole
    mags = [0.15 * (700.0 / 0.15) ** (i / 160) for i in range(0, 161, 4)]
    _full_precision(monkeypatch)
    for lam in [sign * mag for mag in mags for sign in (1.0, -1.0)]:
        argv = ["poles", "--lambda", repr(lam), "--count", "12", "--include-antiresonances",
                "--format", "json"]
        code, out, _ = _run(argv + ["--radius", repr(a)])
        spec = PotentialSpec(lam=lam)
        try:
            poles = enumerate_poles(spec, 12) + [find_anti_resonance(spec, n) for n in range(1, 13)]
        except ArithmeticError:
            assert (code, out) == (3, "")
            continue
        assert code == 0
        for row, pole in zip(json.loads(out)["rows"], poles, strict=True):
            for name, x, power in (("re_k", pole.k.real, -1), ("im_k", pole.k.imag, -1),
                                   ("re_z", pole.z.real, -2), ("im_z", pole.z.imag, -2)):
                exact = Fraction(x) * Fraction(a) ** power
                assert abs(Fraction(row[name]) - exact) <= 3 * Fraction(math.ulp(float(exact)))


def _curve_cases(lam):
    """A window (lo, hi) in units of the radius, and for each curve command at
    lambda its command words and its a = 1 library curve, a function of the
    window that gives the (name, values, power of a) of each column."""
    spec = PotentialSpec(lam=lam)
    p1, p2 = find_resonance(spec, 1), find_resonance(spec, 2)
    lo, hi = 0.5 * p1.e_R, p2.e_R + 3.0 * p2.gamma_R
    cfg = InterferenceConfig(c1=0.6 + 0.2j, c2=-0.3 + 0.7j)

    def spectrum(lo, hi):
        c = spectrum_curve(spec, p1, np.linspace(lo, hi, 301))
        return [("E", c.grid, -2), ("dP_dE", c.dP_dE, 2), ("breit_wigner", c.breit_wigner, 2),
                ("matrix_element", c.matrix_element, -2)]

    def cross_section(lo, hi):
        b = cross_section_bundle(spec, p1, np.linspace(lo, hi, 301), second_index=2)
        return [("E", b.grid, -2)] + [(name, getattr(b, name), 2) for name in (
            "exact", "laurent", "e_unitarized", "k_unitarized", "two_pole")]

    def interfere(lo, hi):
        c = interference_curve(spec, p1, p2, cfg, np.linspace(lo, hi, 301))
        return [("E", c.grid, -2), ("dP_dE", c.dP_dE, 2)]

    return (lo, hi), [
        (["spectrum", "--index", "1"], spectrum),
        (["cross-section", "--index", "1", "--second-index", "2"], cross_section),
        (["interfere", "--indices", "1,2", "--c1=0.6,0.2", "--c2=-0.3,0.7"], interfere),
    ]


@pytest.mark.parametrize("a", [1e-3, 7.0, 1e3])
@pytest.mark.parametrize("lam", [3.0, 100.0, -10.0])
def test_curves_are_the_unit_radius_curves_scaled(lam, a, monkeypatch):
    (lo, hi), cases = _curve_cases(lam)
    emin, emax = lo / a**2, hi / a**2  # the window at radius a
    for head, library in cases:
        argv = [head[0], "--lambda", repr(lam), *head[1:], "--radius", repr(a),
                "--emin", repr(emin), "--emax", repr(emax), "--points", "301"]
        for fmt in ("csv", "json"):
            code, out, err = _run(argv + ["--format", fmt])
            assert code == 0, err
            _clean(code, out, fmt)
        with monkeypatch.context() as patch:
            _full_precision(patch)
            code, out, _ = _run(argv + ["--format", "json"])
        curve = json.loads(out, parse_constant=_strict_float)["curve"]
        # the command line scales the window in as E a^2, bit for bit as here
        for name, values, power in library(emin * (a * a), emax * (a * a)):
            np.testing.assert_allclose(curve[name], values * a**power, rtol=2e-15, atol=0,
                                       err_msg=f"{head[0]} {name} a={a}")


@pytest.mark.parametrize("a", [1e-160, 1e160])
def test_curve_scaling_that_overflows_exits_2(a):
    # the window 1..5 is 1e-320..5e-320 in units of a = 1e-160, and beyond
    # the largest float in units of a = 1e160
    for head in (["spectrum", "--index", "1"], ["cross-section", "--index", "1"],
                 ["interfere", "--indices", "1,2"]):
        for fmt in ("csv", "json"):
            argv = [head[0], "--lambda", "3", *head[1:], "--radius", repr(a),
                    "--emin", "1", "--emax", "5", "--points", "5", "--format", fmt]
            code, out, err = _run(argv)
            assert (code, out) == (2, ""), (argv, err)
            assert err.startswith("error: ") and err.count("\n") == 1


def _exact_ulps(value, exact):
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


def test_scaling_whose_steps_overflow_but_whose_result_fits(monkeypatch):
    # (ħ²/2m) z = 5e306 z overflows before the division by a² = 1e20 brings it
    # back: re_z of row 8 is 3.1e289
    argv = ["table", "--lambda", "100", "--units", "physical", "--mass", "1e-307",
            "--radius", "1e10", "--count", "8"]
    for fmt in ("csv", "json"):
        code, out, err = _run(argv + ["--format", fmt])
        assert code == 0, err
        _clean(code, out, fmt)
    _full_precision(monkeypatch)
    rows = json.loads(_run(argv + ["--format", "json"])[1])["rows"]
    scale = Fraction(1.0) / (2 * Fraction(1e-307)) / Fraction(1e10) ** 2
    for row, record in zip(rows, table_records(PotentialSpec(lam=100.0), 8), strict=True):
        for name, x in (("re_z", record.pole.z.real), ("gamma_R", record.pole.gamma_R),
                        ("gamma_bar", record.gamma_bar)):
            assert _exact_ulps(row[name], Fraction(x) * scale) <= 3, (name, row[name])


def test_curve_scaling_whose_radius_squared_overflows(monkeypatch):
    # a = 1e160: a * a is inf, but the window E a^2 = 1e20..2e20 and each
    # density times a^2 fit
    argv = ["spectrum", "--lambda", "3", "--index", "1", "--radius", "1e160",
            "--emin", "1e-300", "--emax", "2e-300", "--points", "3"]
    for fmt in ("csv", "json"):
        code, out, err = _run(argv + ["--no-companions", "--format", fmt])
        assert code == 0, err
        _clean(code, out, fmt)
    # M^2 / a^2 is about 5e-331, below the smallest float: the companion
    # column, not a^2, is refused
    code, out, err = _run(argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and "loses its digits" in err
    _full_precision(monkeypatch)
    curve = json.loads(_run(argv + ["--no-companions", "--format", "json"])[1])["curve"]
    spec = PotentialSpec(lam=3.0)
    lo, hi = Fraction(1e-300) * Fraction(1e160) ** 2, Fraction(2e-300) * Fraction(1e160) ** 2
    unit = spectrum_curve(spec, find_resonance(spec, 1), np.linspace(float(lo), float(hi), 3))
    for got, x in zip(curve["dP_dE"], unit.dP_dE.tolist(), strict=True):
        assert _exact_ulps(got, Fraction(x) * Fraction(1e160) ** 2) <= 3
    assert curve["E"][0] == 1e-300


def test_scaling_whose_product_is_subnormal_but_whose_result_fits(monkeypatch):
    # ħ²/2m = 5e-308 is normal, and so is a² = 1e-300, but 5e-308 γ_R is
    # subnormal for every γ_R < 0.44: the division by a² must not keep its
    # rounding, which would leave a normal result with only some of its digits
    argv = ["table", "--lambda", "100", "--units", "physical", "--mass", "1e307",
            "--radius", "1e-150", "--count", "8"]
    for fmt in ("csv", "json"):
        code, out, err = _run(argv + ["--format", fmt])
        assert code == 0, err
        _clean(code, out, fmt)
    _full_precision(monkeypatch)
    rows = json.loads(_run(argv + ["--format", "json"])[1])["rows"]
    scale = Fraction(1.0) / (2 * Fraction(1e307)) / Fraction(1e-150) ** 2
    records = table_records(PotentialSpec(lam=100.0), 8)
    assert any(abs(r.pole.gamma_R / 2e307) < sys.float_info.min for r in records)
    for row, record in zip(rows, records, strict=True):
        for name, x in (("re_z", record.pole.z.real), ("gamma_R", record.pole.gamma_R),
                        ("gamma_bar", record.gamma_bar)):
            assert _exact_ulps(row[name], Fraction(x) * scale) <= 3, (name, row[name])
