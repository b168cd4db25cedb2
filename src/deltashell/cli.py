"""Command-line interface: pole tables, observables tables, spectrum and
cross-section curves, and a Lambert W utility, serialized as CSV or JSON.

Commands: poles, table, spectrum, interfere, cross-section, lambertw.
Outputs are deterministic: floats are printed with 9 significant digits,
lowercase exponent, '.' decimal separator; CSV uses a header line and LF
newlines; JSON carries a `meta` object plus `rows` or `curve`.

Each command writes from one column spec, (name, attribute path, dimension),
shared by CSV and JSON; one that writes fewer columns passes a shorter spec.
A row spec is laid out once at import (_LAYOUTS). A float is written as `%.9g` in
CSV and as float("%.9g" % x) in JSON, a str or an int as itself, None as an
empty cell and as null. Row bodies are written by `%` templates (_emit_rows)
and curve bodies by a numpy kernel (_cells), with no Python code per cell,
in the bytes of formatting value by value. A curve is written block by block,
as the kernel makes each (_write), and every refusal comes before its first byte.

Units. The library works in units of the radius and in reduced units
(a = 1, ħ²/2m = 1, E = k²). This module alone owns a and ħ²/2m =
hbar**2 / (2.0 * mass), and applies both in one step at the output
(_scales): wave numbers times 1/a, energies times (ħ²/2m)/a², C times a,
densities and cross sections times a²; Γ and Γ_sharp do not depend on a.
A curve's energies are built here (_grid), on a window scaled in as E a², whose
missing edges default to E_R ± 10 Γ_R (cross-section). A finite nonzero value
whose scaled value overflows or loses its digits exits 2 with nothing written; values
are scaled in exponent arithmetic (_scaled), so a step that leaves the
normal range while the result fits is not refused.

Parsing. Each subparser is built from the parents it reads: spec
(--lambda, --radius) for the five pole commands, units (--units, --mass,
--hbar) for poles and table, output (--format, --output, --config) for all
six, so argparse exits 2 on any other flag; a `--config` file takes the
same long options (_config_tokens). The parser is built once per process
(_parse). main() finds cmd_<command> by name when it runs, so a cmd_*
replaced on the module is the one called.

The module imports no numpy, so poles, table and lambertw never load it.
The curve functions (_CURVES) are bound by module __getattr__ on first use,
which imports their grid-layer module and numpy; each cmd_* looks its
function up on the module when it runs, so a replacement is the one called.

Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import re
import sys
from itertools import chain, product

from . import __version__
from .errors import InvalidInput, NoSuchPole
from .lambertw import lambert_w, lambert_w_residual
from .observables import table_records
from .poles import enumerate_poles, find_anti_resonance, find_resonance, find_virtual_state
from .potential import PotentialSpec

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

# The curve functions: grid-layer names, bound on first access.
_CURVES = ("spectrum_curve", "interference_curve", "InterferenceConfig", "cross_section_bundle")


def __getattr__(name):
    """Bind a curve function through the package's lazy import (and numpy) on first access."""
    if name not in _CURVES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _curve(name):
    """A curve name as the module binds it at call time; a replacement is honoured."""
    return getattr(sys.modules[__name__], name)

# Column specs: (name, attribute path, dimension). "%s" marks a str or an int,
# written as itself; every other column is a float written as %.9g after scaling
# by its dimension's output scale (see _scales): "k" a wave number, "E" an energy,
# "1/E" a density or a cross section, "L" a length, "1" none. A kind is read as
# the member's plain-str _value_, without enum's value descriptor.
_POLE_COLUMNS = (
    ("kind", "kind._value_", "%s"), ("index", "index", "%s"), ("branch", "branch", "%s"),
    ("re_k", "k.real", "k"), ("im_k", "k.imag", "k"),
    ("re_z", "z.real", "E"), ("im_z", "z.imag", "E"), ("gamma_R", "gamma_R", "E"),
)
# an ObservablesRecord carries the pole columns except the branch; C, last, is JSON-only
_TABLE_COLUMNS = _POLE_COLUMNS[:2] + _POLE_COLUMNS[3:] + (
    ("gamma_bar", "gamma_bar", "E"), ("gamma", "gamma", "1"),
    ("gamma_bar_sharp", "gamma_bar_sharp", "E"), ("gamma_sharp", "gamma_sharp", "1"),
    ("c_value", "c_value", "L"),
)
_LAMBERTW_COLUMNS = (
    ("branch", "branch", "%s"), ("re_z", "z.real", "1"), ("im_z", "z.imag", "1"),
    ("re_w", "w.real", "1"), ("im_w", "w.imag", "1"), ("residual", "residual", "1"),
)
# a curve record's columns: its grid, then densities and M^2, or cross sections
_SPECTRUM_COLUMNS = (
    ("E", "grid", "E"), ("dP_dE", "dP_dE", "1/E"), ("breit_wigner", "breit_wigner", "1/E"),
    ("matrix_element", "matrix_element", "E"),
)
_CROSS_SECTION_COLUMNS = (("E", "grid", "E"),) + tuple(
    (name, name, "1/E") for name in ("exact", "laurent", "e_unitarized", "k_unitarized", "two_pole"))


def _json_value(x):
    return float("%.9g" % x) if isinstance(x, float) else x


def _meta(spec=None, a=1.0, units="reduced") -> dict:
    meta = {"version": __version__}
    if spec is not None:
        meta.update({"lambda": _json_value(spec.lam), "a": _json_value(a), "units": units})
    return meta


def _write(args, *parts) -> None:
    """Each part, an iterable of str, written in order to stdout or to the --output file."""
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chain.from_iterable(parts))
    else:
        sys.stdout.writelines(chain.from_iterable(parts))


_TINY = sys.float_info.min  # the smallest normal float


def _scales(a: float, energy: float = 1.0) -> dict | None:
    """Each dimension's output scale at radius a and ħ²/2m = energy, as (multiplier,
    divisor, power of two): 1/a divides, rounding once. Where a * a leaves the normal
    range, a² is the square of a's frexp mantissa and its exponent goes into the power
    of two. None where all are 1 (a = 1, reduced units)."""
    if a == 1.0 and energy == 1.0:
        return None
    a2, shift = a * a, 0
    if not _TINY <= a2 < math.inf:
        mantissa, exponent = math.frexp(a)
        a2, shift = mantissa * mantissa, 2 * exponent
    return {"k": (1.0, a, 0), "E": (energy, a2, -shift), "1/E": (a2, energy, shift),
            "L": (a, 1.0, 0)}


def _scaled(value: float, scale: tuple[float, float, int]) -> float:
    """value * multiplier / divisor * 2**shift; InvalidInput where a finite nonzero
    value overflows to inf or loses its digits (to 0 or a subnormal). The two roundings
    run on frexp mantissas with the exponents summed apart: they give the bits of
    value * multiplier / divisor wherever its steps stay in the normal range, and the
    right bits where they do not, so only a true result outside that range is refused."""
    if not value or not math.isfinite(value):  # 0, inf and nan scale to themselves
        return value
    mul, div, shift = scale
    (vm, ve), (mm, me), (dm, de) = map(math.frexp, (value, mul, div))
    try:
        scaled = math.ldexp(vm * mm / dm, ve + me - de + shift)
    except OverflowError:
        scaled = math.inf
    if not _TINY <= abs(scaled) < math.inf:
        what = "overflows" if math.isinf(scaled) else "loses its digits"
        power = f"*2**{shift}" if shift else ""
        raise InvalidInput(f"{value!r} scaled by {mul!r}/{div!r}{power} {what}")
    return scaled


def _layout(columns):
    """A row spec laid out for both formats: (names, CSV header, one attrgetter,
    dimensions, CSV cells, CSV template of a row with no None)."""
    names, paths, dims = zip(*columns)
    cells = tuple("%s" if dim == "%s" else "%.9g" for dim in dims)
    return names, ",".join(names), operator.attrgetter(*paths), dims, cells, ",".join(cells)


# Every row layout, built once: column spec -> layout.
_LAYOUTS = {columns: _layout(columns) for columns in
            (_POLE_COLUMNS, _TABLE_COLUMNS, _TABLE_COLUMNS[:-1], _LAMBERTW_COLUMNS)}


def _emit_rows(args, spec, columns, rows, scales=None) -> None:
    """One line or JSON object per row, laid out by a column spec.

    One attrgetter call reads a row; the CSV body is one `%` call on the
    rows' templates, which hold `%.0s` (an empty cell) for a None. A value
    is scaled by its dimension's scale (see _scales) unless that is 1/1,
    and refused, before anything is written, where _scaled refuses it."""
    names, header, getter, dims, cells, template = _LAYOUTS[columns]
    rows = list(map(getter, rows))
    if scales is not None:
        factors = [scales.get(dim, (1.0, 1.0, 0)) for dim in dims]
        rows = [[x if f == (1.0, 1.0, 0) or x is None else _scaled(x, f)
                 for x, f in zip(row, factors)] for row in rows]
    if args.format == "json":
        payload = [dict(zip(names, map(_json_value, row))) for row in rows]
        meta = _meta() if spec is None else _meta(spec, args.radius, args.units)
        doc = json.dumps({"meta": meta, "rows": payload}, separators=(",", ":"))
        _write(args, [doc + "\n"])
        return
    lines = [header] + [
        template if None not in row
        else ",".join("%.0s" if x is None else cell for cell, x in zip(cells, row))
        for row in rows
    ]
    _write(args, ["\n".join(lines) % tuple(chain.from_iterable(rows)) + "\n"])


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Plot the columns of {csv!r}, beside this script, against its first column.
import csv
from pathlib import Path

import matplotlib.pyplot as plt

with open(Path(__file__).with_name({csv!r}), newline="") as fh:
    rows = list(csv.reader(fh))
header, data = rows[0], rows[1:]
cols = {{name: [float(r[i]) if r[i] else float("nan") for r in data]
        for i, name in enumerate(header)}}
x = cols.pop(header[0])
for name, series in cols.items():
    plt.plot(x, series, label=name)
plt.xlabel(header[0])
plt.legend()
plt.tight_layout()
plt.show()
"""


def _spec_from_args(args) -> tuple[PotentialSpec, dict | None]:
    """The potential of a command line and its output scales (see _scales)."""
    if args.lam is None:
        raise InvalidInput("--lambda is required")
    spec = PotentialSpec(lam=args.lam)
    if not (args.radius > 0.0 and math.isfinite(args.radius)):
        raise InvalidInput("shell radius must be positive and finite")
    return spec, _scales(args.radius, _energy_scale(args) if "units" in args else 1.0)


def _energy_scale(args) -> float:
    """The ħ²/2m of a poles or table line: 1.0 in reduced units."""
    if args.units == "reduced":
        if args.mass is not None or args.hbar is not None:
            raise InvalidInput("--mass and --hbar need --units physical")
        return 1.0
    mass = 1.0 if args.mass is None else args.mass
    hbar = 1.0 if args.hbar is None else args.hbar
    if not (0.0 < mass < math.inf and 0.0 < hbar < math.inf):
        raise InvalidInput("physical units need finite positive mass and hbar")
    try:
        scale = hbar**2 / (2.0 * mass)
    except OverflowError:  # float ** raises where * would give inf
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise InvalidInput(f"energy scale hbar^2/2m = {scale!r} is not finite and nonzero")
    if scale < sys.float_info.min:
        raise InvalidInput(f"energy scale hbar^2/2m = {scale!r} is subnormal and loses digits")
    return scale


def cmd_poles(args) -> None:
    spec, scales = _spec_from_args(args)
    poles = enumerate_poles(spec, args.count)
    if args.include_antiresonances:
        poles.extend(find_anti_resonance(spec, n) for n in range(1, args.count + 1))
    _emit_rows(args, spec, _POLE_COLUMNS, poles, scales)


def cmd_table(args) -> None:
    spec, scales = _spec_from_args(args)
    columns = _TABLE_COLUMNS if args.format == "json" else _TABLE_COLUMNS[:-1]
    _emit_rows(args, spec, columns, table_records(spec, args.count), scales)


# Cells per call of the curve kernel (_cells): whole CSV rows, or one JSON column.
_BLOCK = 8192


@functools.cache
def _cell_tables():
    """The tables of _cells. By k or X in [-300, 300]: 10**k, shape row, e+-xx word; by 4-digit
    group: word d.d.d.d. (0 for '0'), last nonzero place; by shape row + digits: 4 words."""
    import numpy as np  # curves are numpy arrays already; row commands never get here

    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chars = np.where(digits > 0, digits + 48, 0) << np.array([0, 16, 32, 48])
    shapes = np.zeros((15, 10, 32), np.uint8)  # X clipped to [-5, 9], s
    for x, s in product(range(-5, 10), range(10)):
        before = x + 1 if 0 <= x < 9 else 1  # digits before the point
        shapes[x + 5, s, 8:5 + 2 * max(s, before):2] = ord("0")
        if -4 <= x < 0:
            shapes[x + 5, s, 1:2 - x] = list(b"0.000"[:1 - x])
        elif s > before:
            shapes[x + 5, s, 5 + 2 * before] = ord(".")
    xs = range(-300, 301)
    words = [0 if -4 <= x < 9 else int.from_bytes(b"e%+03d" % x, "little") for x in xs]
    return (np.array([float(f"1e{x}") for x in xs]), chars.sum(axis=1).astype(np.uint64),
            ((digits > 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1),
            (np.clip(xs, -5, 9) + 5) * 10, np.array(words, np.uint64),
            shapes.view("<u8").reshape(150, 4))


def _cells(block, json_tokens: bool = False) -> str:
    """A float64 block (rows, columns) as `%.9g` cells, each followed by ',' or, at a
    CSV row's end, '\\n'; with json_tokens, as json.dumps' tokens of the roundings.
    With X = floor(log10 |x|) and 10**(8 - X) from a table, y = |x| 10**(8 - X) is within
    2.3e-7 of exact, so floor(y + 1/2) holds the nine rounded digits (1e9 carries) as an
    int32 where 1e8 <= y < 1e9 + 1/2 and y is 1e-6 off every half-integer. A cell is laid
    out in four words, sign | 0.000 | d1 p1 d2 ... p8 d9 | e+-xxx separator, each read by a
    contiguous take, whose 0 bytes one bytes.translate deletes. Python formats the other
    cells (ties, |x| outside [1e-290, 1e290), JSON's integer roundings), spliced in at a
    '%s' in their rows."""
    import numpy as np  # curves are numpy arrays already; row commands never get here

    pow10, digit_words, last, shape_row, exp_words, shapes = _cell_tables()
    x = block.ravel()
    y = np.abs(x)
    fallback = ~((y >= 1e-290) & (y < 1e290))  # nan fails both
    y[fallback] = 1.0
    exp = np.floor(np.log10(y)).astype(np.intp)
    y *= pow10.take(308 - exp)
    r = np.floor(y + 0.5)
    fallback |= (abs(r - y) > 0.5 - 1e-6) | (y < 1e8) | (y >= 1000000000.5)
    r[fallback] = 1e8  # a decade-off log10 would overflow the int32 cast
    m = r.astype(np.int32)
    carry = m == 10**9  # 1e9 carries
    m[carry] = 10**8
    exp += 300 + carry
    lead = m // 10**8
    high = (rest := m - lead * 10**8) // 10**4
    low = rest - high * 10**4
    sig = np.where(low > 0, 5 + last.take(low), 1 + last.take(high))
    if json_tokens:  # repr writes an integer with '.0' and in fixed notation below 1e16
        fallback |= (exp >= 300) & (sig <= exp - 299)
    words = np.take(shapes, shape_row.take(exp) + sig, axis=0)
    words[:, 0] |= digit_words.take(lead) | (x < 0) * np.uint64(45)  # group 000d: d in d1's byte
    words[:, 1] |= digit_words.take(high)
    words[:, 2] |= digit_words.take(low)
    words[:, 3] |= exp_words.take(exp)
    words[fallback] = (ord("%") | ord("s") << 8, 0, 0, 0)
    seps = b"," * block.shape[1] if json_tokens else b"," * (block.shape[1] - 1) + b"\n"
    words.view(np.uint8).reshape(*block.shape, 32)[..., 29] = list(seps)
    text = words.tobytes().translate(None, b"\0").decode()
    tokens = list(map("%.9g".__mod__, x[fallback].tolist()))
    if json_tokens and tokens:
        tokens = json.dumps(list(map(float, tokens)), separators=(",", ":"))[1:-1].split(",")
    return text % tuple(tokens) if tokens else text


def _json_array(col):
    """col as json.dumps writes its `%.9g` roundings, a kernel block at a time: '[', the
    blocks as they are made, the last one's ',' made ']'."""
    yield "["
    for i in range(0, len(col), _BLOCK):
        cells = _cells(col[i:i + _BLOCK, None], True)
        yield cells if i + _BLOCK < len(col) else cells[:-1] + "]"


def _scaled_column(col, scale):
    """A curve column scaled as _scaled scales a value, and refused as it refuses
    the column's extreme finite nonzero |x|: the scaling is monotone in |x|. Each
    value gets _scaled's bits: the same two roundings on np.frexp mantissas."""
    import numpy as np  # curves are numpy arrays already; row commands never get here

    size = abs(col[(col != 0.0) & (abs(col) < math.inf)])  # nan fails both
    for x in (size.min(), size.max()) if size.size else ():
        _scaled(float(x), scale)
    (mm, me), (dm, de) = math.frexp(scale[0]), math.frexp(scale[1])
    mantissa, exponent = np.frexp(col)
    return np.ldexp(mantissa * mm / dm, exponent + (me - de + scale[2]))


def _grid(args, scales, pole=None):
    """The curve's --points energies from --emin to --emax, scaled in to the library's
    E a^2. A missing edge (cross-section) is the pole's E_R -/+ 10 Gamma_R, the lower
    one clipped to 1e-6 |E_R| > 0; an edge given past a defaulted one is refused by name."""
    import numpy as np  # curves are numpy arrays already; row commands never get here

    window = [e if scales is None or e is None else _scaled(e, scales["1/E"])
              for e in (args.emin, args.emax)]
    if None in window:
        default = (max(pole.e_R - 10.0 * pole.gamma_R, 1e-6 * abs(pole.e_R)),
                   pole.e_R + 10.0 * pole.gamma_R)
        window = [d if e is None else e for e, d in zip(window, default)]
        if window[1] <= window[0] and default[1] <= default[0]:
            raise InvalidInput(
                f"the default window E_R +/- 10 Gamma_R of resonance {pole.index} at strength "
                f"{args.lam!r} (E_R = {pole.e_R!r}, Gamma_R = {pole.gamma_R!r}) is empty once "
                "clipped to positive energies; give one with --emin and --emax")
        if window[1] <= window[0]:  # the one edge given lies past the defaulted one
            flag, side, other = (("emin", "below the default upper", "emax") if args.emax is None
                                 else ("emax", "above the default lower", "emin"))
            edge = window[args.emax is None]  # written in the units the flag was given in
            raise InvalidInput(
                f"--{flag} {getattr(args, flag)!r} is not {side} edge "
                f"{edge if scales is None else _scaled(edge, scales['E'])!r} of the window "
                f"E_R +/- 10 Gamma_R of resonance {pole.index} at strength {args.lam!r}; "
                f"give --{other} too")
    if not (0.0 < window[0] < window[1] < math.inf):
        raise InvalidInput("need 0 < e_min < e_max < inf")
    if args.points < 2:
        raise InvalidInput("need at least two grid points")
    try:
        return np.linspace(*window, args.points)
    except (MemoryError, ValueError) as exc:  # numpy's refusal of an oversized array
        raise InvalidInput(f"cannot allocate a grid of {args.points} points") from exc


def _emit_curve(args, spec, scales, record, columns) -> None:
    """A curve record written by a column spec: each column, a float64 array, read off the
    record by its path, a None column left out, and the rest scaled by their dimensions as
    _emit_rows scales a row, all before the first byte. Each block of the kernel (_cells),
    whole CSV rows or one JSON column's cells, is written as it is made."""
    import numpy as np  # curves are numpy arrays already; row commands never get here

    names, series, dims = zip(*[(name, col, dim) for name, path, dim in columns
                                if (col := operator.attrgetter(path)(record)) is not None])
    if scales is not None:
        series = [_scaled_column(col, scales[dim]) for col, dim in zip(series, dims)]
    if args.format == "json":
        meta = json.dumps(_meta(spec, args.radius), separators=(",", ":"))
        heads = [f'{{"meta":{meta},"curve":{{'] + [","] * (len(names) - 1)
        parts = [([f"{head}{json.dumps(name)}:"], _json_array(col))
                 for head, name, col in zip(heads, names, series)]
        _write(args, *chain.from_iterable(parts), ["}}\n"])
        return
    table = np.column_stack(series)
    step = _BLOCK // len(series)
    _write(args, [f"{','.join(names)}\n"],
           (_cells(table[i:i + step]) for i in range(0, len(table), step)))
    if args.emit_plot_script:  # main has checked --output and --format csv
        with open(args.output + "_plot.py", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_PLOT_SCRIPT.format(csv=os.path.basename(args.output)))


def cmd_spectrum(args) -> None:
    spec, scales = _spec_from_args(args)
    pole = find_virtual_state(spec) if args.virtual else find_resonance(spec, args.index)
    curve = _curve("spectrum_curve")(spec, pole, _grid(args, scales))
    columns = _SPECTRUM_COLUMNS if args.with_companions else _SPECTRUM_COLUMNS[:2]
    _emit_curve(args, spec, scales, curve, columns)


# argparse types; the name is in argparse's message for a bad value
def index_pair(text: str) -> tuple[int, int]:
    i, j = map(int, text.split(","))
    return i, j


def complex_pair(text: str) -> complex:
    re_part, im_part = map(float, text.split(","))
    return complex(re_part, im_part)


def cmd_interfere(args) -> None:
    spec, scales = _spec_from_args(args)
    cfg = _curve("InterferenceConfig")(c1=args.c1, c2=args.c2, renormalize=args.renormalize)
    pole1, pole2 = (find_resonance(spec, i) for i in args.indices)
    curve = _curve("interference_curve")(spec, pole1, pole2, cfg, _grid(args, scales))
    _emit_curve(args, spec, scales, curve, _SPECTRUM_COLUMNS[:2])


def cmd_cross_section(args) -> None:
    spec, scales = _spec_from_args(args)
    pole = find_resonance(spec, args.index)
    bundle = _curve("cross_section_bundle")(spec, pole, _grid(args, scales, pole),
                                            args.second_index)
    _emit_curve(args, spec, scales, bundle, _CROSS_SECTION_COLUMNS)


def cmd_lambertw(args) -> None:
    z = complex(args.re, args.im)
    w = lambert_w(args.branch, z)
    row = argparse.Namespace(branch=args.branch, z=z, w=w, residual=lambert_w_residual(w, z))
    _emit_rows(args, None, _LAMBERTW_COLUMNS, [row])


def _config_tokens(path: str, command: str) -> list[str]:
    """`--key=value` tokens from a key=value file, whose keys are the command's config
    keys. main puts them right after the subcommand, so argparse checks each like a
    flag, and explicit flags, later on the line, win."""
    keys, tokens = _build_parser()[2][command], []
    with open(path, encoding="utf-8-sig") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise InvalidInput(f"config line is not key=value: {line!r}")
            if key not in keys:
                raise InvalidInput(f"unknown config key {key!r}")
            tokens.append(f"--{key}={value}")
    return tokens


def _add_grid(p: argparse.ArgumentParser, window_required: bool) -> None:
    p.add_argument("--emin", type=float, required=window_required, help="window lower edge")
    p.add_argument("--emax", type=float, required=window_required, help="window upper edge")
    p.add_argument("--points", type=int, default=2001)
    p.add_argument(
        "--emit-plot-script", action="store_true",
        help="also write a matplotlib script next to the CSV output",
    )


# A minus followed by a digit or by '.' and a digit starts a value, never an
# option: no option of this CLI is spelled that way. argparse's own pattern
# admits only plain decimals, so it reads -1e-3, -2.5e1 and the pair
# -0.5,0.3 as unknown flags.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a leading-minus number or pair as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict, dict]:
    """The parser, each command's subparser and each command's config keys
    (the long options of its parents), built once."""
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--lambda", dest="lam", type=float, help="shell strength")
    spec.add_argument("--radius", type=float, default=1.0,
                      help="shell radius, the output length scale (default 1)")
    units = argparse.ArgumentParser(add_help=False)  # mass and hbar: None, so 1 counts as given
    units.add_argument("--units", choices=["reduced", "physical"], default="reduced")
    units.add_argument("--mass", type=float, help="particle mass (physical units; default 1)")
    units.add_argument("--hbar", type=float, help="hbar (physical units; default 1)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["csv", "json"], default="csv")
    output.add_argument("--output", help="write to PATH instead of stdout")
    output.add_argument("--config", help="key=value file of this command's flags")
    roles = {"poles": (spec, units, output), "table": (spec, units, output),
             "spectrum": (spec, output), "interfere": (spec, output),
             "cross-section": (spec, output), "lambertw": (output,)}
    keys = {name: frozenset(opt[2:] for parent in parents
                            for opt in parent._option_string_actions) - {"config"}
            for name, parents in roles.items()}

    parser = _Parser(
        prog="deltashell",
        description="Resonance observables of the delta-shell potential.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {}

    def add(name, text):
        commands[name] = sub.add_parser(name, parents=roles[name], help=text)
        return commands[name]

    p = add("poles", "enumerate S-matrix poles")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--include-antiresonances", action="store_true")

    p = add("table", "full observables table")
    p.add_argument("--count", type=int, default=8)

    p = add("spectrum", "decay energy spectrum")
    _add_grid(p, window_required=True)
    pole = p.add_mutually_exclusive_group(required=True)
    pole.add_argument("--index", type=int, help="resonance index (1 = lowest)")
    pole.add_argument("--virtual", action="store_true", help="virtual-state spectrum")
    p.add_argument(
        "--no-companions", dest="with_companions", action="store_false",
        help="omit the Breit-Wigner and matrix-element columns",
    )

    p = add("interfere", "two-resonance spectrum")
    _add_grid(p, window_required=True)
    p.add_argument("--indices", type=index_pair, required=True, help="resonance indices: i,j")
    p.add_argument("--c1", type=complex_pair, default="0.7071067811865476,0", help="c1 as re,im")
    p.add_argument("--c2", type=complex_pair, default="0.7071067811865476,0", help="c2 as re,im")
    p.add_argument(
        "--no-renormalize", dest="renormalize", action="store_false",
        help="emit the raw superposition instead of a unit-area density",
    )

    p = add("cross-section", "exact cross section and approximants")
    _add_grid(p, window_required=False)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--second-index", dest="second_index", type=int)

    p = add("lambertw", "evaluate one Lambert W branch")
    p.add_argument("--branch", type=int, required=True)
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    return parser, commands, keys


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse a line; one that starts with a command goes straight to that command's
    subparser, as the full parser would. The full parser runs, and prints its own error,
    only for a first word that is no command, a word starting with '--=' (an ambiguous
    option of its own) or words the subparser leaves over."""
    parser, commands, _ = _build_parser()
    if argv and argv[0] in commands and not any(word.startswith("--=") for word in argv):
        namespace = argparse.Namespace(command=argv[0])
        args, extra = commands[argv[0]].parse_known_args(argv[1:], namespace)
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    try:
        if args.config:
            at = argv.index(args.command) + 1
            args = _parse(argv[:at] + _config_tokens(args.config, args.command) + argv[at:])
        if getattr(args, "emit_plot_script", False) and (args.format != "csv" or not args.output):
            raise InvalidInput("--emit-plot-script needs --format csv and --output PATH")
        # by name, so a cmd_* replaced on the module after the build is called
        globals()["cmd_" + args.command.replace("-", "_")](args)
    except (InvalidInput, NoSuchPole) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        # the library's NonConvergence and DegeneratePole, plus
        # OverflowError and bare ArithmeticError from numerics
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
