"""Independent output checks for every benchmark op.

Poles are checked against the closed form k = (lam - W_b(lam e^lam)) / (2 i a)
evaluated with ``scipy.special.lambertw``, which shares no code with the
library's own Lambert W. Table rows, curves and cross sections are checked
against identities that hold whatever algorithm produced them. Every check
returns ``None`` on success or a one-line reason.

The CLI prints 9 significant digits, so a printed value may differ from the
oracle by half a unit in its 9th digit (``PRINTED_REL``) plus the round-off
of two double-precision evaluations (``ROUNDOFF`` times the value's scale).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy.special import lambertw

PRINTED_REL = 5.0000001e-9
ROUNDOFF = 1e-12
TABLE_HEADER = [
    "kind", "index", "re_k", "im_k", "re_z", "im_z",
    "gamma_R", "gamma_bar", "gamma", "gamma_bar_sharp", "gamma_sharp",
]
CURVE_HEADERS = {
    "spectrum": ["E", "dP_dE", "breit_wigner", "matrix_element"],
    "cross-section": ["E", "exact", "laurent", "e_unitarized", "k_unitarized", "two_pole"],
    "interfere": ["E", "dP_dE"],
}
GOLDEN_STRENGTHS = (100.0, 10.0, 0.5, -0.5, -10.0, -100.0)
AREA_SLACK = 1e-6
# Bound-state decay constant: 1 by closure. The acceptance suite allows 1e-3;
# within about 1e-5 of lam = -1 the quadrature misses 1e-6 (see NOTES.md).
BOUND_GAMMA_TOL = 1e-6


def branch_of(lam: float, kind: str, n: int) -> int:
    """Lambert-W branch of a pole, by the paper's bookkeeping."""
    if kind == "resonance":
        return -n if lam > 0 else -(n + 1)
    if kind == "anti_resonance":
        return n
    if kind == "bound":
        return 0
    if kind == "virtual_state":
        return -1
    raise ValueError(f"unknown pole kind {kind!r}")


def closed_form_ks(lams, branches) -> np.ndarray:
    """Vectorized k = (lam - W_b(lam e^lam)) / (2i) for a = 1."""
    lams = np.asarray(lams, dtype=float)
    w = lambertw(lams * np.exp(lams), np.asarray(branches, dtype=np.int64))
    return (lams - w) / 2j


def closed_form_k(lam: float, kind: str, n: int) -> complex:
    return complex(closed_form_ks([lam], [branch_of(lam, kind, n)])[0])


def precise_k(lam: float, branch: int) -> complex:
    """The closed form in 40-digit arithmetic, for the cases scipy misses.

    Near the branch point (lam close to -1) lam e^lam sits next to -1/e,
    where W is ill-conditioned and ``scipy.special.lambertw`` stops early;
    evaluating lam e^lam and W with mpmath keeps every double digit.
    """
    with mpmath.workdps(40):
        lam_mp = mpmath.mpf(lam)
        w = mpmath.lambertw(lam_mp * mpmath.exp(lam_mp), branch)
        return complex((lam_mp - w) / 2j)


def leading_pole(lam: float) -> str | None:
    """Kind of the pole listed before the resonances, if any."""
    if lam < -1.0:
        return "bound"
    if -1.0 < lam < 0.0:
        return "virtual_state"
    return None


def _close(value: float, ref: float, scale: float, rel: float = PRINTED_REL) -> bool:
    return abs(value - ref) <= rel * abs(ref) + ROUNDOFF * max(1.0, scale)


def sharp_width(lam: float, k: complex) -> float:
    """Golden-rule width 2 pi M^2(E_R) from the Jost functions at pole k (a = 1)."""
    j1 = (-2j * k + lam * (np.exp(-2j * k) - 1.0)) / (4.0 * k)
    j2_prime = 1j * (1.0 + lam * np.exp(2j * k)) / (2.0 * k)
    kt = math.sqrt((k * k).real)
    prefactor = 2.0 * lam**2 * abs(j1 / j2_prime) * math.exp(-2.0 * k.imag)
    return prefactor * math.sin(kt) ** 2 / kt


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


# ---------------------------------------------------------------- table


def parse_table(text: str) -> list[dict]:
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != TABLE_HEADER:
        raise ValueError(f"unexpected table header {rows[:1]}")
    return [dict(zip(TABLE_HEADER, row)) for row in rows[1:]]


def check_table(lam: float, count: int, text: str) -> str | None:
    """Check a CSV ``table`` output for strength ``lam`` and ``count`` rows."""
    try:
        rows = parse_table(text)
    except ValueError as exc:
        return str(exc)
    expected = [(leading_pole(lam), 0)] if leading_pole(lam) else []
    expected += [("resonance", n) for n in range(1, count + 1)]
    if [(r["kind"], int(r["index"])) for r in rows] != expected:
        return f"rows {[(r['kind'], r['index']) for r in rows]} != {expected}"
    branches = [branch_of(lam, kind, n) for kind, n in expected]
    for row, k, branch in zip(rows, closed_form_ks([lam] * len(rows), branches), branches):
        reason = _check_table_row(lam, row, k)
        if reason:
            reason = _check_table_row(lam, row, precise_k(lam, branch))
        if reason:
            return f"{row['kind']} {row['index']}: {reason}"
    return None


def _check_table_row(lam: float, row: dict, k: complex) -> str | None:
    z = k * k
    for name, ref, scale in (
        ("re_k", k.real, abs(k)), ("im_k", k.imag, abs(k)),
        ("re_z", z.real, abs(z)), ("im_z", z.imag, abs(z)),
        ("gamma_R", -2.0 * z.imag + 0.0, abs(z)),
    ):
        if not _close(float(row[name]), ref, scale):
            return f"{name} {row[name]} != closed form {ref!r}"
    return _check_table_observables(lam, row, k)


def _check_table_observables(lam: float, row: dict, k: complex) -> str | None:
    gamma_bar, gamma = float(row["gamma_bar"]), float(row["gamma"])
    gbs, gs = _num(row["gamma_bar_sharp"]), _num(row["gamma_sharp"])
    if not (math.isfinite(gamma_bar) and math.isfinite(gamma)):
        return "non-finite observable"
    if row["kind"] != "resonance":
        if gamma_bar != 0.0 or gbs is not None or gs is not None:
            return "zero-width pole carries a width or sharp value"
        if row["kind"] == "bound" and abs(gamma - 1.0) > BOUND_GAMMA_TOL:
            return f"bound-state decay constant {gamma!r} != 1"
        if not gamma > 0.0:
            return f"virtual-state decay constant {gamma!r} not positive"
        return None
    gamma_r = float(row["gamma_R"])
    if not (gamma_bar > 0.0 and gamma > 0.0):
        return "resonance width not positive"
    if not _close(gamma, gamma_bar / gamma_r, 0.0, rel=2e-8):
        return f"gamma {gamma!r} != gamma_bar/gamma_R"
    if (k * k).real <= 0.0:
        return None if gbs is None and gs is None else "sharp value below threshold"
    if gbs is None or gs is None:
        return "sharp columns missing above threshold"
    if not _close(gbs, sharp_width(lam, k), 0.0, rel=1e-7):
        return f"gamma_bar_sharp {gbs!r} != 2 pi M^2(E_R) {sharp_width(lam, k)!r}"
    if not _close(gs, gbs / gamma_r, 0.0, rel=2e-8):
        return f"gamma_sharp {gs!r} != gamma_bar_sharp/gamma_R"
    return None


def _printed_place(text: str) -> float:
    mantissa = text.strip().lstrip("+-")
    return 10.0 ** -len(mantissa.split(".")[1]) if "." in mantissa else 1.0


def _sigfig_tol(text: str, digits: int) -> float:
    value = abs(float(text))
    place = 1.000001 * _printed_place(text)
    if value == 0.0:
        return place
    return max(0.5 * 10.0 ** (math.floor(math.log10(value)) - digits + 1), place)


def check_golden(lam: float, text: str, golden_dir: Path) -> str | None:
    """Compare a ``table --count 8`` output with the reference transcription.

    Pole columns to one unit in the last printed place; golden-rule values
    to 4 significant figures, quadrature values to 3 (or the printed place,
    whichever is looser); the zero-width decay constant to 1e-3.
    """
    with open(golden_dir / f"table_{lam:g}.csv", newline="", encoding="utf-8") as fh:
        golden = list(csv.DictReader(fh))
    rows = parse_table(text)
    if len(rows) != len(golden):
        return f"golden lam={lam:g}: {len(rows)} rows != {len(golden)}"
    for row, ref in zip(rows, golden):
        tag = f"golden lam={lam:g} {ref['kind']} {ref['index']}"
        if (row["kind"], row["index"]) != (ref["kind"], ref["index"]):
            return f"{tag}: row is {row['kind']} {row['index']}"
        cols = {c: 1.000001 * _printed_place(ref[c]) for c in ("re_k", "im_k", "re_z", "im_z")}
        if ref["kind"] == "resonance":
            cols.update({c: _sigfig_tol(ref[c], 3) for c in ("gamma_bar", "gamma")})
            cols.update({c: _sigfig_tol(ref[c], 4) for c in ("gamma_bar_sharp", "gamma_sharp")})
        else:
            cols["gamma"] = 1e-3 * max(float(ref["gamma"]), 1.0)
        for col, tol in cols.items():
            if abs(float(row[col]) - float(ref[col])) > tol:
                return f"{tag}: {col} {row[col]} vs reference {ref[col]}"
    return None


# ---------------------------------------------------------------- poles


def check_pole_batch(batch) -> dict[int, str]:
    """Check library pole lists; ``batch`` holds (op_id, lam, n, poles, antis).

    ``poles`` is ``enumerate_poles(spec, n)`` and ``antis`` the
    anti-resonances 1..n. Returns {op_id: reason} for the ops that fail.
    """
    bad: dict[int, str] = {}
    lams, branches, ks, owners = [], [], [], []
    for op_id, lam, n, poles, antis in batch:
        expected = [(leading_pole(lam), 0)] if leading_pole(lam) else []
        expected += [("resonance", m) for m in range(1, n + 1)]
        expected += [("anti_resonance", m) for m in range(1, n + 1)]
        every = list(poles) + list(antis)
        found = [(p.kind.value, p.index) for p in every]
        if found != expected:
            bad[op_id] = f"poles {found} != {expected}"
            continue
        for p in every:
            lams.append(lam)
            branches.append(branch_of(lam, p.kind.value, p.index))
            ks.append(p.k)
            owners.append(op_id)
            if abs(p.z - p.k * p.k) > ROUNDOFF * max(1.0, abs(p.z)):
                bad[op_id] = f"{p.kind.value} {p.index}: z != k^2"
        res = {p.index: p.k for p in poles if p.kind.value == "resonance"}
        for a in antis:
            mirror = -res[a.index].conjugate()
            if abs(a.k - mirror) > ROUNDOFF * max(1.0, abs(mirror)):
                bad[op_id] = f"anti-resonance {a.index} {a.k} != -conj(k_n) {mirror}"
    if ks:
        ref = closed_form_ks(lams, branches)
        for i in np.flatnonzero(~_k_close(np.asarray(ks, dtype=complex), ref)):
            precise = precise_k(lams[i], branches[i])
            if not _k_close(ks[i], precise):
                bad.setdefault(owners[i], f"k {ks[i]} != closed form {precise} (branch {branches[i]})")
    return bad


def _k_close(got, ref):
    return np.abs(got - ref) <= PRINTED_REL * np.abs(ref) + ROUNDOFF * np.maximum(1.0, np.abs(ref))


# ---------------------------------------------------------------- curves


def parse_curve(kind: str, fmt: str, text: str) -> dict[str, np.ndarray]:
    names = CURVE_HEADERS[kind]
    if fmt == "json":
        curve = json.loads(text)["curve"]
        if list(curve) != names:
            raise ValueError(f"curve keys {list(curve)} != {names}")
        return {name: np.asarray(curve[name], dtype=float) for name in names}
    header, _, body = text.partition("\n")
    if header.split(",") != names:
        raise ValueError(f"curve header {header!r} != {names}")
    values = np.asarray(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    return dict(zip(names, values.reshape(-1, len(names)).T))


def exact_cross_section(lam: float, e: np.ndarray) -> np.ndarray:
    """(pi/k^2)|S - 1|^2 with S = -J1/J2 from the Jost functions (a = 1)."""
    k = np.sqrt(e).astype(complex)
    s = -(-2j * k + lam * (np.exp(-2j * k) - 1.0)) / (2j * k + lam * (np.exp(2j * k) - 1.0))
    return np.pi / e * np.abs(s - 1.0) ** 2


def check_curve(op, text: str) -> str | None:
    """Check a spectrum, cross-section or interfere output of ``op``."""
    try:
        cols = parse_curve(op.kind, op.fmt, text)
    except (ValueError, KeyError) as exc:
        return f"unparsable {op.kind} output: {exc}"
    grid = np.linspace(op.emin, op.emax, op.points)
    e = cols["E"]
    if e.size != op.points or not np.all(np.abs(e - grid) <= PRINTED_REL * grid):
        return "energy grid differs from the requested window"
    for name, col in cols.items():
        if not np.all(np.isfinite(col)):
            return f"non-finite values in {name}"
    if op.kind == "cross-section":
        bound = 4.0 * np.pi / grid * (1.0 + PRINTED_REL)
        for name in ("exact", "e_unitarized", "k_unitarized"):
            if np.any(cols[name] > bound) or np.any(cols[name] < 0.0):
                return f"{name} outside 0 <= sigma <= 4 pi/k^2"
        ref = exact_cross_section(op.lam, grid)
        off = np.abs(cols["exact"] - ref) > PRINTED_REL * ref + ROUNDOFF * np.pi / grid
        if off.any():
            i = int(np.argmax(off))
            return f"exact sigma {cols['exact'][i]!r} != Jost value {ref[i]!r} at E={grid[i]!r}"
        return None
    for name, col in cols.items():
        if name != "E" and np.any(col < 0.0):
            return f"negative {name}"
    for name in ("dP_dE", "breit_wigner"):
        if name in cols:
            area = float(np.trapezoid(cols[name], grid))
            if area > 1.0 + AREA_SLACK:
                return f"{name} area {area!r} over the window exceeds 1"
    return None
