"""Command-line interface: pole tables, observables tables, spectrum and
cross-section curves, and a Lambert W utility, serialized as CSV or JSON.

Commands: poles, table, spectrum, interfere, cross-section, lambertw.
Outputs are deterministic: floats are printed with 9 significant digits,
lowercase exponent, '.' decimal separator; CSV uses a header line and LF
newlines; JSON carries a `meta` object plus `rows` or `curve`.

Each row command (poles, table, lambertw) has one column spec of (name,
attribute path, CSV cell format) triples, which gives the CSV header and
cells and the JSON keys. A float is written as `%.9g` in CSV and as
float("%.9g" % x) in JSON, a str or an int as itself, None as an empty
cell and as null. The CSV body is one `%` call, with no Python code per
cell. The table's `c_value` (the constant C) is a JSON-only column. Each
spec is laid out once per format, at import (_LAYOUTS): the names of its
kept columns, the CSV header, one attrgetter, the energy mask, the CSV
cells and the template of a row with no None.

Curve bodies are written by `%` templates, one call per block of cells,
so no Python code runs per row or per cell. In CSV the columns are stacked
into rows and each block of at most _BLOCK rows is one `%` call on a
template of that many `%.9g` rows. `%.9g` and `format(x, ".9g")` share
CPython's float formatter, so the bytes equal those of formatting value by
value. In JSON each column is one `%` call: a finite normal double is
written as its `%.9g` token, which is already the shortest repr of its own
rounding. A numpy mask flags the cells where the two spellings can differ;
those are `%s` cells that take json.dumps' tokens for their roundings, so
the bytes equal json.dumps over float("%.9g" % x).

Units. The library works in reduced units (ħ²/2m = 1, E = k²); this module
alone owns ħ²/2m = hbar**2 / (2.0 * mass), which _spec_from_args computes
and checks once, after the spec. `poles` and `table` with --units physical
scale their energy columns by it, with 1 for a --mass or --hbar not given;
a nonzero energy that overflows or loses its digits exits 2 with nothing
written. Curve commands refuse physical units. --mass and --hbar without
--units physical exit 2. lambertw has no spec or unit options at all:
its subparser is built without them, so argparse exits 2 on --lambda,
--radius, --units, --mass or --hbar there.

The parser is built once per process and reused; each parse makes a
fresh Namespace. A line that starts with a command goes straight to that
command's subparser (see _parse). main() finds the handler by name,
cmd_<command>, when it runs, so a cmd_* replaced on the module after the
parser was built is still the one called. A word that starts with a minus
and a digit (-1e-3, -2.5e1, -0.5,0.3) is read as a value, never as a flag.

The module imports no numpy, so poles, table and lambertw never load it.
The curve functions (spectrum_curve, interference_curve, InterferenceConfig,
cross_section_bundle) are bound by module __getattr__ on first use, which
imports their grid-layer module and numpy; each cmd_* looks its function
up on the module when it runs, so a replacement set there is the one called.

Every option default sits in its add_argument call, but for --mass and
--hbar: None there, so that an explicit 1 counts as given. A `--config` file
holds key=value lines whose keys are the shared long options; each line
becomes a `--key=value` token right after the subcommand, so argparse casts
and checks it like a flag, and explicit flags, later on the line, win.

Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import re
import sys
from itertools import chain

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

# Column specs: (name, attribute path, CSV cell format). "E" marks an energy,
# written as %.9g after scaling by the energy scale; None marks a JSON-only column.
# A kind is read as the member's plain-str _value_, without enum's value descriptor.
_POLE_COLUMNS = (
    ("kind", "kind._value_", "%s"), ("index", "index", "%s"), ("branch", "branch", "%s"),
    ("re_k", "k.real", "%.9g"), ("im_k", "k.imag", "%.9g"),
    ("re_z", "z.real", "E"), ("im_z", "z.imag", "E"), ("gamma_R", "gamma_R", "E"),
)
# an ObservablesRecord carries the pole columns except the branch
_TABLE_COLUMNS = _POLE_COLUMNS[:2] + _POLE_COLUMNS[3:] + (
    ("gamma_bar", "gamma_bar", "E"), ("gamma", "gamma", "%.9g"),
    ("gamma_bar_sharp", "gamma_bar_sharp", "E"), ("gamma_sharp", "gamma_sharp", "%.9g"),
    ("c_value", "c_value", None),
)
_LAMBERTW_COLUMNS = (
    ("branch", "branch", "%s"), ("re_z", "z.real", "%.9g"), ("im_z", "z.imag", "%.9g"),
    ("re_w", "w.real", "%.9g"), ("im_w", "w.imag", "%.9g"), ("residual", "residual", "%.9g"),
)


def _json_value(x):
    return float("%.9g" % x) if isinstance(x, float) else x


def _meta(spec=None, units="reduced") -> dict:
    meta = {"version": __version__}
    if spec is not None:
        meta.update({"lambda": _json_value(spec.lam), "a": _json_value(spec.a), "units": units})
    return meta


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _scaled(energy: float, scale: float) -> float:
    """A reduced energy times the energy scale; InvalidInput where a finite
    nonzero one overflows to inf or loses its digits to 0 or a subnormal."""
    value = energy * scale
    if energy and math.isfinite(energy) and not sys.float_info.min <= abs(value) < math.inf:
        what = "overflows" if math.isinf(value) else "loses its digits"
        raise InvalidInput(f"energy {energy!r} times the energy scale {scale!r} {what}")
    return value


def _layout(columns, fmt):
    """A column spec laid out for one format: (names of the kept columns, CSV
    header, one attrgetter, energy mask, CSV cells, CSV template of a row with
    no None). A JSON layout keeps every column and has no CSV parts."""
    if fmt == "csv":
        columns = tuple(column for column in columns if column[2])
    names = tuple(name for name, _, _ in columns)
    getter = operator.attrgetter(*[path for _, path, _ in columns])
    energy = tuple(kind == "E" for _, _, kind in columns)
    if fmt == "json":
        return names, None, getter, energy, None, None
    cells = tuple("%.9g" if kind == "E" else kind for _, _, kind in columns)
    return names, ",".join(names), getter, energy, cells, ",".join(cells)


# Every row layout, built once: (column spec, format) -> layout.
_LAYOUTS = {
    (columns, fmt): _layout(columns, fmt)
    for columns in (_POLE_COLUMNS, _TABLE_COLUMNS, _LAMBERTW_COLUMNS) for fmt in ("csv", "json")
}


def _emit_rows(args, spec, columns, rows, scale=1.0) -> None:
    """One line or JSON object per row, laid out by a column spec.

    One attrgetter call reads a row; the CSV body is one `%` call on the
    rows' templates, which hold `%.0s` (an empty cell) for a None. Energies
    are scaled unless the scale is 1.0 (x * 1.0 is x, bit for bit); a
    scaled energy that overflows or loses its digits is refused before
    anything is written."""
    names, header, getter, energy, cells, template = _LAYOUTS[columns, args.format]
    rows = list(map(getter, rows))
    if scale != 1.0:
        rows = [[_scaled(x, scale) if is_energy and x is not None else x
                 for x, is_energy in zip(row, energy)] for row in rows]
    if args.format == "json":
        payload = [dict(zip(names, map(_json_value, row))) for row in rows]
        meta = _meta() if spec is None else _meta(spec, args.units)
        doc = json.dumps({"meta": meta, "rows": payload}, separators=(",", ":"))
        _write(args, doc + "\n")
        return
    lines = [header] + [
        template if None not in row
        else ",".join("%.0s" if x is None else cell for cell, x in zip(cells, row))
        for row in rows
    ]
    _write(args, "\n".join(lines) % tuple(chain.from_iterable(rows)) + "\n")


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Plot the columns of {csv!r} against its first column.
import csv

import matplotlib.pyplot as plt

with open({csv!r}, newline="") as fh:
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


def _spec_from_args(args) -> tuple[PotentialSpec, float]:
    """The potential of a command line and its ħ²/2m: 1.0 in reduced units."""
    if args.lam is None:
        raise InvalidInput("--lambda is required")
    spec = PotentialSpec(lam=args.lam, a=args.radius)
    if args.units == "reduced":
        if args.mass is not None or args.hbar is not None:
            raise InvalidInput("--mass and --hbar need --units physical")
        return spec, 1.0
    if args.command not in ("poles", "table"):
        raise InvalidInput(f"{args.command} writes reduced units only; "
                           "--units physical applies to poles and table")
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
    return spec, scale


def cmd_poles(args) -> None:
    spec, scale = _spec_from_args(args)
    poles = enumerate_poles(spec, args.count)
    if args.include_antiresonances:
        poles.extend(find_anti_resonance(spec, n) for n in range(1, args.count + 1))
    _emit_rows(args, spec, _POLE_COLUMNS, poles, scale)


def cmd_table(args) -> None:
    spec, scale = _spec_from_args(args)
    _emit_rows(args, spec, _TABLE_COLUMNS, table_records(spec, args.count), scale)


# Rows per `%` call in a CSV curve: the row template repeated this often
# and its argument tuple stay small however long the curve.
_BLOCK = 4096


def _json_array(col) -> str:
    """A float64 array as the JSON array json.dumps writes for its `%.9g` roundings.

    For a finite normal double the `%.9g` token is already the shortest
    repr of its own rounding: no other decimal of at most 9 digits lies
    within half an ulp of it, and both formats lay the digits out alike.
    They differ only for a rounding that is an integer (3 vs 3.0), for
    |x| >= 999999999.5 (%.9g turns to an exponent, repr does so at 1e16),
    for subnormals and for inf and nan. The mask flags a superset of those
    cells. Its integer test, |x - rint(x)| <= 1e-8 |x|, holds for every
    |x| >= 5e7, so it also flags the exponent case.

    The column is one `%` call on one template: `%.9g` per cell, `%s` in
    the flagged cells, whose values are the tokens json.dumps writes for
    their roundings.
    """
    import numpy as np  # curves are numpy arrays already; row commands never get here

    size = np.abs(col)
    with np.errstate(invalid="ignore"):  # inf - rint(inf)
        flagged = (
            ~np.isfinite(col) | (size < 2.2250738585072014e-308)
            | (np.abs(col - np.rint(col)) <= 1e-8 * size)
        )
    values = col.astype(object)  # Python floats
    if flagged.any():
        rounded = list(map(float, map("%.9g".__mod__, col[flagged].tolist())))
        values[flagged] = json.dumps(rounded, separators=(",", ":"))[1:-1].split(",")
    # the two cell formats indexed by the mask: no new str per cell
    template = ",".join(np.array(("%.9g", "%s"), dtype=object)[flagged.view(np.uint8)].tolist())
    return f"[{template % tuple(values.tolist())}]"


def _emit_curve(args, spec, grid, columns) -> None:
    """columns: ordered (name, array-or-None) pairs; None columns are dropped.

    CSV formats the curve in blocks of at most _BLOCK rows: each block is
    one `%` call on a template of that many `%.9g` rows, applied to the
    block's values in row order. JSON writes each column with one `%` call
    (see _json_array). No Python code runs per row or per cell, and every
    value is rounded by the `%.9g` formatter.
    """
    import numpy as np  # curves are numpy arrays already; row commands never get here

    kept = [("E", grid)] + [(name, col) for name, col in columns if col is not None]
    names, series = zip(*kept)  # the library returns every column as a float64 array
    if args.format == "json":
        meta = json.dumps(_meta(spec), separators=(",", ":"))
        curve = ",".join(f"{json.dumps(name)}:{_json_array(col)}" for name, col in kept)
        _write(args, f'{{"meta":{meta},"curve":{{{curve}}}}}\n')
        return
    table = np.column_stack(series)
    row = ",".join(["%.9g"] * len(series))
    blocks = (table[start:start + _BLOCK] for start in range(0, len(table), _BLOCK))
    body = "\n".join("\n".join([row] * len(b)) % tuple(b.ravel().tolist()) for b in blocks)
    _write(args, f"{','.join(names)}\n{body}\n")
    if args.emit_plot_script:  # main has checked --output and --format csv
        with open(args.output + "_plot.py", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_PLOT_SCRIPT.format(csv=args.output))


def cmd_spectrum(args) -> None:
    spec, _ = _spec_from_args(args)
    if args.virtual:
        pole = find_virtual_state(spec)
    elif args.index is not None:
        pole = find_resonance(spec, args.index)
    else:
        raise InvalidInput("need --index N or --virtual")
    curve = _curve("spectrum_curve")(spec, pole, args.emin, args.emax, args.points)
    names = ("dP_dE", "breit_wigner", "matrix_element") if args.with_companions else ("dP_dE",)
    _emit_curve(args, spec, curve.grid, [(name, getattr(curve, name)) for name in names])


# argparse types; the name is in argparse's message for a bad value
def index_pair(text: str) -> tuple[int, int]:
    i, j = map(int, text.split(","))
    return i, j


def complex_pair(text: str) -> complex:
    re_part, im_part = map(float, text.split(","))
    return complex(re_part, im_part)


def cmd_interfere(args) -> None:
    spec, _ = _spec_from_args(args)
    cfg = _curve("InterferenceConfig")(c1=args.c1, c2=args.c2, renormalize=args.renormalize)
    pole1, pole2 = (find_resonance(spec, i) for i in args.indices)
    curve = _curve("interference_curve")(
        spec, pole1, pole2, cfg, args.emin, args.emax, args.points
    )
    _emit_curve(args, spec, curve.grid, [("dP_dE", curve.dP_dE)])


def cmd_cross_section(args) -> None:
    spec, _ = _spec_from_args(args)
    bundle = _curve("cross_section_bundle")(
        spec, args.index, args.emin, args.emax, args.points, second_index=args.second_index
    )
    names = ("exact", "laurent", "e_unitarized", "k_unitarized", "two_pole")
    _emit_curve(args, spec, bundle.grid, [(name, getattr(bundle, name)) for name in names])


def cmd_lambertw(args) -> None:
    z = complex(args.re, args.im)
    w = lambert_w(args.branch, z)
    row = argparse.Namespace(branch=args.branch, z=z, w=w, residual=lambert_w_residual(w, z))
    _emit_rows(args, None, _LAMBERTW_COLUMNS, [row])


def _config_tokens(path: str, shared: argparse.ArgumentParser) -> list[str]:
    """`--key=value` tokens from a key=value file; keys are the shared long options."""
    keys = {
        opt[2:] for action in shared._actions for opt in action.option_strings
        if opt.startswith("--")
    } - {"config"}
    tokens = []
    with open(path, encoding="utf-8") as fh:
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


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", help="write to PATH instead of stdout")
    p.add_argument("--config", help="key=value file of the flags above, overridden by flags")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser, dict]:
    """The parser, its shared-options parent and each command's subparser, built once."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--lambda", dest="lam", type=float, help="shell strength")
    shared.add_argument("--radius", type=float, default=1.0, help="shell radius (default 1)")
    shared.add_argument("--units", choices=["reduced", "physical"], default="reduced")
    shared.add_argument("--mass", type=float, help="particle mass (physical units; default 1)")
    shared.add_argument("--hbar", type=float, help="hbar (physical units; default 1)")
    _add_output(shared)
    output = argparse.ArgumentParser(add_help=False)
    _add_output(output)

    parser = _Parser(
        prog="deltashell",
        description="Resonance observables of the delta-shell potential.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {}
    add = functools.partial(sub.add_parser, parents=[shared])
    p = commands["poles"] = add("poles", help="enumerate S-matrix poles")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--include-antiresonances", action="store_true")

    p = commands["table"] = add("table", help="full observables table")
    p.add_argument("--count", type=int, default=8)

    p = commands["spectrum"] = add("spectrum", help="decay energy spectrum")
    _add_grid(p, window_required=True)
    p.add_argument("--index", type=int, help="resonance index (1 = lowest)")
    p.add_argument("--virtual", action="store_true", help="virtual-state spectrum")
    p.add_argument(
        "--no-companions", dest="with_companions", action="store_false",
        help="omit the Breit-Wigner and matrix-element columns",
    )

    p = commands["interfere"] = add("interfere", help="two-resonance spectrum")
    _add_grid(p, window_required=True)
    p.add_argument("--indices", type=index_pair, required=True, help="resonance indices: i,j")
    p.add_argument("--c1", type=complex_pair, default="0.7071067811865476,0", help="c1 as re,im")
    p.add_argument("--c2", type=complex_pair, default="0.7071067811865476,0", help="c2 as re,im")
    p.add_argument(
        "--no-renormalize", dest="renormalize", action="store_false",
        help="emit the raw superposition instead of a unit-area density",
    )

    p = commands["cross-section"] = add("cross-section",
                                        help="exact cross section and approximants")
    _add_grid(p, window_required=False)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--second-index", dest="second_index", type=int)

    p = commands["lambertw"] = sub.add_parser(
        "lambertw", parents=[output], help="evaluate one Lambert W branch")
    p.add_argument("--branch", type=int, required=True)
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    return parser, shared, commands


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse a line; one that starts with a command goes straight to that command's
    subparser, as the full parser would. The full parser runs, and prints its own error,
    only for a first word that is no command, a word starting with '--=' (an ambiguous
    option of its own) or words the subparser leaves over."""
    parser, _, commands = _build_parser()
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
            args = _parse(argv[:at] + _config_tokens(args.config, _build_parser()[1]) + argv[at:])
        if getattr(args, "emit_plot_script", False) and (args.format != "csv" or not args.output):
            raise InvalidInput("--emit-plot-script needs --format csv and --output PATH")
        # by name, so a cmd_* replaced on the module after the build is called
        globals()["cmd_" + args.command.replace("-", "_")](args)
    except (InvalidInput, NoSuchPole) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        # the library's NonConvergence, DegeneratePole and PoleHit, plus
        # OverflowError and bare ArithmeticError from numerics
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
