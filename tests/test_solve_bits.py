"""The pole solve's bits, pinned by digest.

Two SHA-256 digests cover every pole of a fixed sweep of strengths and
every Lambert W value or error class of a fixed sweep of arguments. They
were computed from the solver before its repeated work was removed (the
residual formed twice, lam * exp(lam) formed once per pole), so a later
change that moves a last bit, or swaps one error class for another, fails
here. Where that solver let a raw OverflowError out of ``lambert_w``, the
pinned digest holds the NonConvergence raised in its place now. The pole
digest was computed again, over the same poles at radius 1 alone, by the
solver that still took a radius: the library now works in units of the
radius, and each removed factor of a was 1.0 there. It was pinned again
when the bound and virtual states stopped going through Lambert W and were
solved from the deflated pole equation instead: 54 of its 8,372 lines
moved, 35 bound and 19 virtual, and their Im k went from up to 1.3e-14 to
at most 3.7e-16 relative of the 50-digit tests/reference.py; no resonance
or anti-resonance line moved. The Lambert W digest
was pinned again when each call became one Halley solve, with an argument
whose imaginary part is -0.0 read as below the cut: 70 of its 65,537 lines
moved, each argued against a 30-digit mpmath value in CHANGES.md. It was
pinned once more when the rounding-floor bound stopped overflowing: 275
lines, 11 arguments with |z| above 9e307 on each of the 25 branches, went
from NonConvergence to a value within 1e-16 relative of 30-digit mpmath,
and no value line moved. Both digests were pinned again when every branch
but 0 and -1 (after the conjugation below the cut) moved from Halley on
w e^w = z to Newton on w + Log w = Log z + 2 pi i n: 30,407 of the 65,537
Lambert W lines moved their last bits, each within 3.7e-16 relative of
30-digit mpmath, and no line changed between value and error class. Of
the 8,372 pole lines 1,656 moved: 803 resonances and their 803 mirrors,
404 of them closer to tests/reference.py and 399 farther, the largest
error of any resonance unchanged at 1.1e-16 relative; and 25 refusals and
their mirrors, whose messages print a residual moved in its fourth digit.
No pole went from a value to a refusal or back. The Lambert W digest and the
canary were pinned again when the log-spaced sweeps stopped forming hi / lo,
which overflowed for the canary's range and the tiny arguments and gave nan
and inf points: 343 of the 441 canary lines had held a nan, and 10,725 of the
65,537 Lambert W lines a non-finite argument, which tested only the refusal.
With the same solver, the corrected tiny arguments gave 22 NonConvergence
lines, at 5e-324 and 8.07e-316 on branches -1 and 1. The Lambert W digest
was pinned once more when branches 0 and -1 (after the conjugation) left
Halley for the log form where |z| > 2**1023 or, on branch -1, |z| < 2**-1012:
53 lines moved. The 22 refusals became values within 1.8e-16 relative of
30-digit mpmath; 10 values at |z| = 1.3e-307 moved, none farther from
mpmath, to at most 7.5e-17 relative; 21 values at |z| = 1e308 went from at most 4.1e-17 to at
most 2.0e-16 relative, the log form's one bit. No other line moved.

A third digest covers the cross-section bundle: every column's bits, or the
message of its refusal, over a fixed sweep of strengths, resonances, energy
grids (sub-normal energies among them) and second indices. It was pinned
while each approximant still had a public function of its own beside the
bundle, so removing those functions, or moving a column's overflow check,
must leave it as it is.

A fourth digest covers the command line's curve bytes: the stdout of spectrum,
interfere and cross-section in CSV and JSON at radius 1 and 3, and of table in
physical units. It was pinned while the curve commands still named their
columns by hand and scaled each by its name, so writing every command from a
column spec must leave it as it is.

The digests hold for one libm and one set of complex-arithmetic rules. A
canary digest of the libm and complex values the solver rests on is
checked first; where it differs, the pinned digests say nothing about this
code, and the digest tests are skipped. The cross-section digest rests on
numpy's ufuncs as well, whose SIMD kernels can differ from libm in the last
bit, so a second canary of those is checked before it.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math

import mpmath
import numpy as np
import pytest

from deltashell import cli
from deltashell import (
    DeltaShellError, NonConvergence, PotentialSpec, cross_section_bundle, cross_section_exact,
    find_anti_resonance, find_bound_state, find_resonance, find_virtual_state, lambert_w,
)
from deltashell.cross_sections import _SINC_SERIES
from deltashell.lambertw import _halley

POLE_DIGEST = "fb110c7b7870de3554d023ec2f4cae3d9a4e2a7ad55bfff9fe9b2f7db6b784e1"
LAMBERT_W_DIGEST = "abfca8884d8696b8a37bda8bc0a52b2ecf3fa9597401d95649f0dce786f75759"
CANARY_DIGEST = "a23daf14ae19429b3bd8c0d96a600e8a6a76b131ab4619ff7a6b9bf1343209ce"
CROSS_SECTION_DIGEST = "152ed01917c7a5de4eb4d7215572451efa274b8747ee286e0efc93355b13ea27"
NUMPY_CANARY_DIGEST = "9fd6e49ee7af5ae36998c403af593b5bf325ddfb3416b8cb2abd2b8108c32471"
CLI_CURVE_DIGEST = "6ee75884678dc03444cca61f2627e3b98db902cdc78cc9ba33d793eae1b17995"

INV_E = math.exp(-1.0)
BRANCHES = range(-12, 13)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _hex(z: complex) -> str:
    return f"{z.real.hex()} {z.imag.hex()}"


def _log_spaced(lo: float, hi: float, count: int) -> list[float]:
    """count points from lo to hi, log-spaced; formed from the logs of the ends, so
    neither hi / lo nor lo e^{i step} overflows at the ends of the float range."""
    start = math.log(lo)
    step = (math.log(hi) - start) / (count - 1)
    return [math.exp(start + i * step) for i in range(count - 1)] + [hi]


def canary_lines():
    """The libm functions and complex operations the solver's bits rest on."""
    xs = _log_spaced(1e-300, 1e300, 301)
    for x in xs + [-x for x in xs[::7]] + _log_spaced(0.05, 700.0, 97):
        row = [math.log(abs(x)), math.atan2(x, 1.0), math.hypot(x, 0.75), abs(x) ** 0.5]
        if abs(x) < 700.0:
            row += [math.exp(x), math.expm1(-x), math.sin(x), math.cos(x), math.exp(-x)]
        z = complex(x, 0.3 * x - 1.0)
        row += [cmath.log(z), cmath.sqrt(z), 2.0 * z, z / complex(0.25, x), 1.0 / z]
        if abs(x) < 700.0:
            row += [cmath.exp(complex(0.5 * x, x)), cmath.exp(complex(-0.5, x))]
        yield " ".join(v.hex() if isinstance(v, float) else _hex(v) for v in row)


def strengths() -> list[float]:
    """lam log-spaced over [0.15, 700] and [-700, -0.15], as 0.15 e^{i step}: the
    pole digest was pinned on these bits, which _log_spaced rounds differently."""
    step = math.log(700.0 / 0.15) / 160
    mags = [0.15 * math.exp(i * step) for i in range(160)] + [700.0]
    return [sign * mag for mag in mags for sign in (1.0, -1.0)]


def pole_lines():
    """Every resonance and anti-resonance n <= 12, and each threshold pole
    (or its error class and message), of each strength. The library works in
    units of the radius; the command line's scaling to a radius is tested in
    test_radius.py."""
    for lam in strengths():
        spec = PotentialSpec(lam=lam)
        finds = [(name, find, n) for n in range(1, 13)
                 for name, find in (("res", find_resonance), ("anti", find_anti_resonance))]
        finds += [("bound", lambda s, _: find_bound_state(s), 0),
                  ("virtual", lambda s, _: find_virtual_state(s), 0)]
        for name, find, n in finds:
            try:
                pole = find(spec, n)
            except ArithmeticError as exc:
                yield f"{lam.hex()} {name} {n} {type(exc).__name__}: {exc}"
            except ValueError as exc:  # NoSuchPole
                yield f"{lam.hex()} {name} {n} {type(exc).__name__}"
            else:
                yield f"{lam.hex()} {name} {n} {pole.branch} {_hex(pole.k)} {_hex(pole.z)}"


def arguments() -> list[complex]:
    """Arguments near -1/e, tiny, huge, negative real and complex, plus the
    pole solver's own lam * exp(lam)."""
    zs = []
    for eps in _log_spaced(1e-12, 0.5, 40):  # around the branch point
        zs += [complex(-INV_E + eps, 0.0), complex(-INV_E - eps, 0.0),
               complex(-INV_E, eps), complex(-INV_E, -eps)]
        zs += [-INV_E + cmath.rect(eps, 0.4 * j - 2.9) for j in range(15)]
    for r in _log_spaced(5e-324, 1e-3, 40):  # tiny
        zs += [complex(r, 0.0), complex(-r, 0.0)] + [cmath.rect(r, 0.7 * j - 3.0) for j in range(9)]
    for r in _log_spaced(1e3, 1e308, 40):  # huge, |z| <= 1e308
        zs += [complex(r, 0.0), complex(-r, 0.0)] + [cmath.rect(r, 0.7 * j - 3.0) for j in range(9)]
    for r in _log_spaced(1e-6, 1e6, 60):  # the negative real axis and the plane
        zs += [complex(-r, 0.0), complex(-r, -0.0)] + [cmath.rect(r, 0.5 * j - 3.1) for j in range(13)]
    zs += [complex(lam * math.exp(lam)) for lam in strengths()[::4]]
    return zs


def lambert_w_lines():
    """Branches -12..12 at every argument, then a few non-int branches and
    invalid inputs."""
    calls = [(n, z) for z in arguments() for n in BRANCHES]
    calls += [(np.int64(-3), 1.5 + 2j), (True, 2.0), (np.int32(0), -0.2), (2.5, 1.0),
              ("1", 1.0), (0, complex(math.inf, 0.0)), (0, complex(0.0, math.nan)),
              (-1, 0.0), (0, 0.0), (0, -INV_E), (-1, -INV_E), (1, -INV_E)]
    for n, z in calls:
        try:
            w = lambert_w(n, z)
        except (ArithmeticError, ValueError) as exc:
            yield f"{n!r} {_hex(complex(z))} {type(exc).__name__}"
        else:
            yield f"{n!r} {_hex(complex(z))} {_hex(w)}"


def numpy_canary_lines():
    """The numpy ufuncs and array arithmetic the cross-section columns' bits rest on."""
    x = np.concatenate([np.geomspace(5e-324, 1e300, 2001), np.linspace(0.01, 1e4, 2001)])
    k = np.sqrt(x)
    z = complex(30.5, -0.75)
    with np.errstate(all="ignore"):
        rows = (k, np.sin(k), np.sin(2.0 * k), np.polyval(_SINC_SERIES, np.minimum(x, 0.25)),
                (x - 40.0) ** 2, 1.0 / (x - z), np.pi / x)
    for row in rows:
        yield row.tobytes().hex()


def cross_section_lines():
    """Every bundle column, with and without a second resonance, or the refusal it raises,
    for resonances n <= 5 of each strength on four grids: the default command-line window,
    a log-spaced sweep over the normal range, sub-normal energies, and a scalar at E_R.
    Then the exact cross section alone on the sweep and at one energy, and the bundle of an
    anti-resonance."""
    sweep = np.geomspace(1e-300, 1e300, 257)
    tiny = np.array([5e-324, 1e-310, 2.2e-308, 1e-300, 1.0])
    for lam in (700.0, -700.0, 100.0, -100.0, 12.0, 10.0, 3.0, 0.5, -0.5, -1.0, -5.0):
        spec = PotentialSpec(lam=lam)
        for n in range(1, 6):
            try:
                pole = find_resonance(spec, n)
            except DeltaShellError as exc:
                yield f"{lam.hex()} {n} {type(exc).__name__}: {exc}"
                continue
            window = np.linspace(max(pole.e_R - 10.0 * pole.gamma_R, 1e-6 * pole.e_R),
                                 pole.e_R + 10.0 * pole.gamma_R, 201)
            for g, grid in enumerate((window, sweep, tiny, pole.e_R)):
                for second in (None, n % 5 + 1):
                    head = f"{lam.hex()} {n} {g} {second}"
                    try:
                        bundle = cross_section_bundle(spec, pole, grid, second_index=second)
                    except DeltaShellError as exc:
                        yield f"{head} {type(exc).__name__}: {exc}"
                        continue
                    cols = [col for col in vars(bundle).values() if col is not None]
                    yield f"{head} " + " ".join(f"{col.shape} {col.tobytes().hex()}" for col in cols)
        try:
            exact, at = cross_section_exact(spec, sweep), cross_section_exact(spec, 7.5)
        except DeltaShellError as exc:
            yield f"{lam.hex()} exact {type(exc).__name__}: {exc}"
        else:
            at = np.asarray(at)
            yield f"{lam.hex()} exact {exact.tobytes().hex()} {at.shape} {at.tobytes().hex()}"
        try:
            cross_section_bundle(spec, find_anti_resonance(spec, 1), 7.5)
        except DeltaShellError as exc:
            yield f"{lam.hex()} anti {type(exc).__name__}: {exc}"


def cli_curve_lines():
    """Each command line, its exit code, stdout and stderr: the curve commands in CSV and
    JSON at radius 1 and 3, and table in physical units (mass 2, hbar 1.5)."""
    window = ["--points", "41"]
    curves = [
        ["spectrum", "--lambda", "100", "--index", "3", "--emin", "80", "--emax", "94"],
        ["spectrum", "--lambda", "10", "--index", "1", "--emin", "1", "--emax", "30",
         "--no-companions"],
        ["spectrum", "--lambda", "-0.5", "--virtual", "--emin", "0.01", "--emax", "2"],
        ["spectrum", "--lambda", "-1e-100", "--virtual", "--emin", "1e-300", "--emax", "1e-299"],
        ["interfere", "--lambda", "12", "--indices", "1,2", "--emin", "30", "--emax", "60"],
        ["interfere", "--lambda", "12", "--indices", "2,3", "--c1", "-0.5,0.3", "--c2", "0.5,0.5",
         "--emin", "30", "--emax", "90", "--no-renormalize"],
        ["cross-section", "--lambda", "5", "--index", "1"],
        ["cross-section", "--lambda", "100", "--index", "3", "--second-index", "2"],
        ["cross-section", "--lambda", "12", "--index", "1", "--emin", "1e-20", "--emax", "1e-8"],
    ]
    lines = [argv + window for argv in curves]
    lines += [["table", "--lambda", lam, "--count", "5", "--units", "physical", "--mass", "2",
               "--hbar", "1.5"] for lam in ("100", "10", "0.5", "-0.5", "-10", "-700")]
    for argv in lines:
        for radius in ("1", "3"):
            for fmt in ("csv", "json"):
                line = argv + ["--radius", radius, "--format", fmt]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(line)
                yield f"{' '.join(line)} {code}\n{out.getvalue()}{err.getvalue()}"


@pytest.fixture(scope="module")
def same_arithmetic():
    got = _digest(canary_lines())
    if got != CANARY_DIGEST:
        pytest.skip(f"libm or complex arithmetic differs from where the digests were pinned ({got})")


def test_pole_bits_match_their_pinned_digest(same_arithmetic):
    assert _digest(pole_lines()) == POLE_DIGEST


def test_lambert_w_bits_match_their_pinned_digest(same_arithmetic):
    assert _digest(lambert_w_lines()) == LAMBERT_W_DIGEST


def test_cross_section_bits_match_their_pinned_digest(same_arithmetic):
    got = _digest(numpy_canary_lines())
    if got != NUMPY_CANARY_DIGEST:
        pytest.skip(f"numpy's ufuncs differ from where the digest was pinned ({got})")
    assert _digest(cross_section_lines()) == CROSS_SECTION_DIGEST


def test_cli_curve_bytes_match_their_pinned_digest(same_arithmetic):
    got = _digest(numpy_canary_lines())
    if got != NUMPY_CANARY_DIGEST:
        pytest.skip(f"numpy's ufuncs differ from where the digest was pinned ({got})")
    assert _digest(cli_curve_lines()) == CLI_CURVE_DIGEST


@pytest.mark.parametrize("z", [
    26.370099513148944 + 46.95835094742933j,  # leaves by the step test
    -36.563575588759875 + 42.371686846861635j,  # leaves by the rounding floor
])
def test_halley_refuses_a_root_past_the_residual_tolerance(monkeypatch, z):
    # no admitted input is known to reach a refused Halley root, so a zero tolerance
    # stands in for one: each exit leaves with f != 0 here, and each must refuse it
    import deltashell.lambertw as lambertw_module

    monkeypatch.setattr(lambertw_module, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(NonConvergence, match="W_0"):
        lambert_w(0, z)


def test_halley_at_w_minus_one_returns_none():
    # w = -1 zeroes Halley's 2(w + 1) divisor; the step is refused, not taken
    assert _halley(-1 + 0j, 1.0 + 0j) is None
    assert _halley(complex(-1.0, 0.0), complex(-0.5, 0.1)) is None


@pytest.mark.parametrize("branch, z", [
    (-1000, 10.0 * math.exp(10.0)),
    (-1000, 100.0 * math.exp(100.0)),
    (-500, 700.0 * math.exp(700.0)),
    (-1000, 1e40),
])
def test_formerly_overflowing_solve_matches_mpmath(branch, z):
    # Halley on w e^w = z was refused here, and on the retries the solver once
    # had e^w overflowed; the log form forms no e^w
    with mpmath.workdps(30):
        ref = mpmath.lambertw(mpmath.mpf(z), branch)
        w = lambert_w(branch, z)
        assert abs(mpmath.mpc(w) - ref) <= 2.0**-52 * abs(ref), (branch, z, w)


def test_exp_overflow_in_the_solve_is_nonconvergence(monkeypatch):
    # only branches 0 and -1 run Halley on e^w, and no admitted seed is known
    # to step past Re w = 709.8, so a seed there stands in for one: e^w
    # overflows at once
    import deltashell.lambertw as lambertw_module

    monkeypatch.setattr(lambertw_module, "_seed", lambda branch, z: complex(800.0, 0.0))
    with pytest.raises(OverflowError):
        _halley(complex(800.0, 0.0), 1e300 + 0j)
    for branch in (0, -1):
        with pytest.raises(NonConvergence, match=f"W_{branch}"):
            lambert_w(branch, 1e300)


def test_index_ten_thousand_keeps_its_bits(same_arithmetic):
    # the argument that overflowed at n = 1000 converges at n = 10^4; the log
    # form moved Re w by 2 ulp, to 5.5e-16 from 30-digit mpmath (Im w 8.7e-14,
    # 1.4e-18 of |w|, as before)
    w = lambert_w(-10000, 10.0 * math.exp(10.0))
    assert _hex(w) == "0x1.411fe08301f71p+0 -0x1.eadc908906f06p+15"


@pytest.mark.parametrize("branch", BRANCHES)
def test_w_of_huge_arguments_matches_mpmath(branch):
    # the rounding-floor bound 2e-16 (|w e^w| + |z|) is formed from halves:
    # the plain sum overflows to inf once |z| passes about 9e307, and the
    # floor test then passed at the seed, which the acceptance test refused;
    # from |z| ~ 1.27e308 complex division by Halley's divisor e^w (1 + w)
    # overflows to a zero step, so branches 0 and -1 take the log form there
    with mpmath.workdps(30):
        for z in (1e308, -1e308, 1.7e308, complex(1e308, 5e307), 1.7976931348623157e308,
                  complex(-1.3e308, 0.0), cmath.rect(1.5e308, 0.8)):
            ref = mpmath.lambertw(mpmath.mpc(z), branch)
            w = lambert_w(branch, z)
            assert abs(mpmath.mpc(w) - ref) <= 1e-15 * abs(ref), (branch, z, w)
