"""Command-line interface: pole tables, observables tables, spectrum and
cross-section curves, and a Lambert W utility, serialized as CSV or JSON.

Commands: poles, table, spectrum, interfere, cross-section, lambertw.
Outputs are deterministic: floats are printed with 9 significant digits,
lowercase exponent, '.' decimal separator; CSV uses a header line and LF
newlines; JSON carries a `meta` object plus `rows` or `curve`.

Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .cross_sections import cross_section_bundle
from .errors import (
    DegeneratePole,
    InvalidInput,
    NonConvergence,
    NoSuchPole,
    PoleHit,
    ToleranceNotMet,
)
from .lambertw import lambert_w, lambert_w_residual
from .observables import table_records
from .poles import enumerate_poles, find_anti_resonance, find_resonance, find_virtual_state
from .potential import PotentialSpec
from .spectra import InterferenceConfig, interference_curve, spectrum_curve

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

_CONFIG_KEYS = ("lambda", "radius", "units", "mass", "hbar", "rel-tol", "format", "output")


def _fmt(x) -> str:
    """Fixed float formatting: 9 significant digits, lowercase exponent."""
    if x is None:
        return ""
    return format(float(x), ".9g")


def _round9(x):
    return None if x is None else float(format(float(x), ".9g"))


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_doc(meta, payload_key, payload) -> str:
    return json.dumps({"meta": meta, payload_key: payload}, separators=(",", ":")) + "\n"


def _meta(args, spec=None) -> dict:
    meta = {"version": __version__, "rel_tol": _round9(args.rel_tol)}
    if spec is not None:
        meta.update(
            {
                "lambda": _round9(spec.lam),
                "a": _round9(spec.a),
                "units": spec.unit_system,
            }
        )
    return meta


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _maybe_emit_plot_script(args) -> None:
    if not getattr(args, "emit_plot_script", False):
        return
    if not args.output or args.format != "csv":
        raise InvalidInput("--emit-plot-script needs --format csv and --output PATH")
    script_path = args.output + "_plot.py"
    with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_PLOT_SCRIPT.format(csv=args.output))


def _spec_from_args(args) -> PotentialSpec:
    if args.lam is None:
        raise InvalidInput("--lambda is required")
    return PotentialSpec(
        lam=args.lam,
        a=args.radius,
        unit_system=args.units,
        mass=args.mass,
        hbar=args.hbar,
    )


def _pole_row(spec, pole, scale):
    return {
        "kind": pole.kind.value,
        "index": pole.index,
        "branch": pole.branch,
        "re_k": _round9(pole.k.real),
        "im_k": _round9(pole.k.imag),
        "re_z": _round9(pole.z.real * scale),
        "im_z": _round9(pole.z.imag * scale),
        "gamma_R": _round9(pole.gamma_R * scale),
    }


def cmd_poles(args) -> None:
    spec = _spec_from_args(args)
    scale = spec.energy_scale
    poles = enumerate_poles(spec, args.count)
    if args.include_antiresonances:
        poles.extend(find_anti_resonance(spec, n) for n in range(1, args.count + 1))
    rows = [_pole_row(spec, p, scale) for p in poles]
    if args.format == "json":
        _write(args, _json_doc(_meta(args, spec), "rows", rows))
        return
    header = ["kind", "index", "branch", "re_k", "im_k", "re_z", "im_z", "gamma_R"]
    _write(
        args,
        _csv(
            header,
            (
                [r["kind"], str(r["index"]), str(r["branch"])]
                + [_fmt(r[h]) for h in header[3:]]
                for r in rows
            ),
        ),
    )


def cmd_table(args) -> None:
    spec = _spec_from_args(args)
    scale = spec.energy_scale
    records = table_records(spec, args.count)
    rows = []
    for rec in records:
        rows.append(
            {
                "kind": rec.kind.value,
                "index": rec.index,
                "re_k": _round9(rec.k.real),
                "im_k": _round9(rec.k.imag),
                "re_z": _round9(rec.z.real * scale),
                "im_z": _round9(rec.z.imag * scale),
                "gamma_R": _round9(rec.gamma_R * scale),
                "gamma_bar": _round9(rec.gamma_bar * scale),
                "gamma": _round9(rec.gamma),
                "gamma_bar_sharp": _round9(
                    None if rec.gamma_bar_sharp is None else rec.gamma_bar_sharp * scale
                ),
                "gamma_sharp": _round9(rec.gamma_sharp),
                "c_value": _round9(rec.c_value),
                "quadrature_error": _round9(rec.quadrature_error),
            }
        )
    if args.format == "json":
        _write(args, _json_doc(_meta(args, spec), "rows", rows))
        return
    header = [
        "kind", "index", "re_k", "im_k", "re_z", "im_z",
        "gamma_R", "gamma_bar", "gamma", "gamma_bar_sharp", "gamma_sharp",
    ]
    _write(
        args,
        _csv(
            header,
            (
                [r["kind"], str(r["index"])] + [_fmt(r[h]) for h in header[2:]]
                for r in rows
            ),
        ),
    )


def _emit_curve(args, spec, grid, columns) -> None:
    """columns: ordered (name, array-or-None) pairs; None columns are dropped."""
    names = ["E"] + [name for name, col in columns if col is not None]
    series = [grid] + [col for _, col in columns if col is not None]
    if args.format == "json":
        curve = {
            name: [_round9(v) for v in col] for name, col in zip(names, series)
        }
        _write(args, _json_doc(_meta(args, spec), "curve", curve))
        return
    rows = ([_fmt(col[i]) for col in series] for i in range(len(grid)))
    _write(args, _csv(names, rows))
    _maybe_emit_plot_script(args)


def cmd_spectrum(args) -> None:
    spec = _spec_from_args(args)
    if args.virtual:
        pole = find_virtual_state(spec)
    elif args.index is not None:
        pole = find_resonance(spec, args.index)
    else:
        raise InvalidInput("need --index N or --virtual")
    curve = spectrum_curve(spec, pole, args.emin, args.emax, args.points)
    cols = [("dP_dE", curve.dP_dE)]
    if args.with_companions:
        cols += [
            ("breit_wigner", curve.breit_wigner),
            ("matrix_element", curve.matrix_element),
        ]
    _emit_curve(args, spec, curve.grid, cols)


def _parse_complex_pair(text: str) -> complex:
    try:
        re_part, im_part = (float(part) for part in text.split(","))
    except ValueError:
        raise InvalidInput(f"expected 're,im', got {text!r}") from None
    return complex(re_part, im_part)


def cmd_interfere(args) -> None:
    spec = _spec_from_args(args)
    try:
        i1, i2 = (int(part) for part in args.indices.split(","))
    except ValueError:
        raise InvalidInput(f"expected --indices i,j, got {args.indices!r}") from None
    cfg = InterferenceConfig(
        c1=_parse_complex_pair(args.c1),
        c2=_parse_complex_pair(args.c2),
        renormalize=args.renormalize,
    )
    curve = interference_curve(
        spec,
        find_resonance(spec, i1),
        find_resonance(spec, i2),
        cfg,
        args.emin,
        args.emax,
        args.points,
    )
    _emit_curve(args, spec, curve.grid, [("dP_dE", curve.dP_dE)])


def cmd_cross_section(args) -> None:
    spec = _spec_from_args(args)
    bundle = cross_section_bundle(
        spec,
        args.index,
        e_min=args.emin,
        e_max=args.emax,
        points=args.points,
        second_index=args.second_index,
    )
    _emit_curve(
        args,
        spec,
        bundle.grid,
        [
            ("exact", bundle.exact),
            ("laurent", bundle.laurent),
            ("e_unitarized", bundle.e_unitarized),
            ("k_unitarized", bundle.k_unitarized),
            ("two_pole", bundle.two_pole),
        ],
    )


def cmd_lambertw(args) -> None:
    w = lambert_w(args.branch, complex(args.re, args.im))
    resid = lambert_w_residual(w, complex(args.re, args.im))
    if args.format == "json":
        payload = {
            "branch": args.branch,
            "re_z": _round9(args.re),
            "im_z": _round9(args.im),
            "re_w": _round9(w.real),
            "im_w": _round9(w.imag),
            "residual": _round9(resid),
        }
        _write(args, _json_doc({"version": __version__}, "rows", [payload]))
        return
    _write(
        args,
        _csv(
            ["branch", "re_z", "im_z", "re_w", "im_w", "residual"],
            [[str(args.branch), _fmt(args.re), _fmt(args.im), _fmt(w.real), _fmt(w.imag), _fmt(resid)]],
        ),
    )


def _load_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidInput(f"config line is not key=value: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise InvalidInput(f"unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _apply_config(args) -> None:
    if not args.config:
        return
    cfg = _load_config(args.config)
    casts = {
        "lambda": ("lam", float),
        "radius": ("radius", float),
        "units": ("units", str),
        "mass": ("mass", float),
        "hbar": ("hbar", float),
        "rel-tol": ("rel_tol", float),
        "format": ("format", str),
        "output": ("output", str),
    }
    for key, value in cfg.items():
        dest, cast = casts[key]
        if getattr(args, dest, None) is None:
            setattr(args, dest, cast(value))


_DEFAULTS = {
    "radius": 1.0,
    "units": "reduced",
    "mass": 1.0,
    "hbar": 1.0,
    "rel_tol": 1e-9,
    "format": "csv",
}


def _fill_defaults(args) -> None:
    for dest, value in _DEFAULTS.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--lambda", dest="lam", type=float, help="shell strength")
    shared.add_argument("--radius", type=float, help="shell radius (default 1)")
    shared.add_argument("--units", choices=["reduced", "physical"])
    shared.add_argument("--mass", type=float, help="particle mass (physical units)")
    shared.add_argument("--hbar", type=float, help="hbar (physical units)")
    shared.add_argument(
        "--rel-tol",
        dest="rel_tol",
        type=float,
        help="kept for compatibility: observables are closed-form residue sums, "
        "so only meta.rel_tol echoes this value",
    )
    shared.add_argument("--format", choices=["csv", "json"])
    shared.add_argument("--output", help="write to PATH instead of stdout")
    shared.add_argument("--config", help="key=value config file, overridden by flags")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--emin", type=float, help="window lower edge")
    grid.add_argument("--emax", type=float, help="window upper edge")
    grid.add_argument("--points", type=int, default=2001)
    grid.add_argument(
        "--emit-plot-script",
        action="store_true",
        help="also write a matplotlib script next to the CSV output",
    )

    parser = argparse.ArgumentParser(
        prog="deltashell",
        description="Resonance observables of the delta-shell potential.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poles", parents=[shared], help="enumerate S-matrix poles")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--include-antiresonances", action="store_true")
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("table", parents=[shared], help="full observables table")
    p.add_argument("--count", type=int, default=8)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("spectrum", parents=[shared, grid], help="decay energy spectrum")
    p.add_argument("--index", type=int, help="resonance index (1 = lowest)")
    p.add_argument("--virtual", action="store_true", help="virtual-state spectrum")
    p.add_argument(
        "--no-companions",
        dest="with_companions",
        action="store_false",
        help="omit the Breit-Wigner and matrix-element columns",
    )
    p.set_defaults(func=cmd_spectrum, with_companions=True)

    p = sub.add_parser("interfere", parents=[shared, grid], help="two-resonance spectrum")
    p.add_argument("--indices", required=True, help="pair of resonance indices: i,j")
    p.add_argument("--c1", default="0.7071067811865476,0", help="coefficient c1 as re,im")
    p.add_argument("--c2", default="0.7071067811865476,0", help="coefficient c2 as re,im")
    p.add_argument(
        "--no-renormalize", dest="renormalize", action="store_false",
        help="emit the raw superposition instead of a unit-area density",
    )
    p.set_defaults(func=cmd_interfere, renormalize=True)

    p = sub.add_parser(
        "cross-section", parents=[shared, grid], help="exact cross section and approximants"
    )
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--second-index", dest="second_index", type=int)
    p.set_defaults(func=cmd_cross_section)

    p = sub.add_parser("lambertw", parents=[shared], help="evaluate one Lambert W branch")
    p.add_argument("--branch", type=int, required=True)
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    p.set_defaults(func=cmd_lambertw)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        _fill_defaults(args)
        _validate_window(args)
        args.func(args)
    except (InvalidInput, NoSuchPole) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NonConvergence, ToleranceNotMet, DegeneratePole, PoleHit) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def _validate_window(args) -> None:
    if getattr(args, "points", None) is not None and args.command in (
        "spectrum",
        "interfere",
        "cross-section",
    ):
        if args.points < 2:
            raise InvalidInput("--points must be at least 2")
        if args.command in ("spectrum", "interfere"):
            if args.emin is None or args.emax is None:
                raise InvalidInput("--emin and --emax are required")
            if not (0.0 < args.emin < args.emax):
                raise InvalidInput("need 0 < --emin < --emax")


if __name__ == "__main__":
    sys.exit(main())
