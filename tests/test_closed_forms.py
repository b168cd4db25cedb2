"""Closed-form residue sums against quadrature and against mpmath.

The production path computes the oscillation constant C, the bound and
virtual decay constant Gamma and the two-resonance normalization from one
residue sum, observables._sin2_pair. Each is checked two ways:

* against the test oracle's integrate_semi_infinite at rel_tol 1e-12,
  which knows nothing of the residue algebra;
* against the same residue sum written plainly and evaluated by mpmath at
  30 digits on poles refined at 30 digits, which knows nothing of the
  float rewriting (expm1 forms, order of the products).
"""

import cmath
import contextlib
import io
import json
import math

import mpmath as mp
import numpy as np
import pytest

import deltashell.cli as cli
import deltashell.observables as observables
import deltashell.spectra as spectra
import quadrature_oracle
from deltashell import (
    InterferenceConfig,
    PoleKind,
    PotentialSpec,
    decay_constant_total,
    decay_width_total,
    find_bound_state,
    find_resonance,
    find_virtual_state,
    matrix_element_squared,
)
from deltashell.observables import _expm1, _sin2_pair
from quadrature_oracle import QuadratureRequest, integrate_semi_infinite

LAMBDAS = (100.0, -100.0, 10.0, -10.0, 0.5, -0.5, 1e-3, -1e-3)
MAX_INDEX = 15
QUAD_REL = 1e-12
DIGITS = 30


def _quad(f, center, halfwidth, scale, a=1.0, extra=()):
    """Quadrature at QUAD_REL; the absolute floor sits far below |scale|."""
    req = QuadratureRequest(
        peak_center=center,
        peak_halfwidth=halfwidth,
        oscillation_wavenumber=math.pi / a,
        rel_tol=QUAD_REL,
        abs_tol=1e-3 * QUAD_REL * abs(scale),
    )
    value, _ = integrate_semi_infinite(f, req, extra_edges=extra)
    return value


def _c_by_quadrature(e_r, gamma_r, scale, a=1.0):
    """C = int (1/pi) (G/2)/((E-E_R)^2+(G/2)^2) sin^2(ka)/k dE, by quadrature,
    for a resonance at E_R - i G/2 of a shell of radius a."""
    hw = 0.5 * gamma_r

    def f(e):
        k = np.sqrt(e)
        return (hw / math.pi) / ((e - e_r) ** 2 + hw * hw) * np.sin(k * a) ** 2 / k

    return _quad(f, e_r, hw, scale, a=a)


def _resonances(lam):
    spec = PotentialSpec(lam=lam)
    return spec, [find_resonance(spec, n) for n in range(1, MAX_INDEX + 1)]


# -- mpmath reference: the residue sum as written in the paper's algebra


def _mp_pole(spec, pole):
    lam = spec.lam
    return mp.findroot(lambda k: 2j * k + lam * (mp.exp(2j * k) - 1), mp.mpc(pole.k))


def _mp_n_squared(spec, k):
    """N^2 = i res_k S = -i J1 / J2', in units of the radius."""
    lam = spec.lam
    j1 = (-2j * k + lam * (mp.exp(-2j * k) - 1)) / (4 * k)
    j2p = 1j * (1 + lam * mp.exp(2j * k)) / (2 * k)
    return -1j * j1 / j2p


def _mp_shell_density(spec, k):
    """|N|^2 exp(2 beta), beta = -Im k."""
    return abs(_mp_n_squared(spec, k)) * mp.exp(-2 * mp.im(k))


def _mp_sin2_pair(a, q1, q2):
    def f(q):
        return (1 - mp.exp(2j * q * a)) / (2 * q)

    if q1 == q2:
        e = mp.exp(2j * q1 * a)
        fprime = (-2j * a * q1 * e - (1 - e)) / (2 * q1**2)
        return mp.pi * 1j * fprime / (2 * q1)
    return mp.pi * 1j * (f(q1) - f(q2)) / (q1**2 - q2**2)


# -- the helper itself


@pytest.mark.parametrize(
    "q1, q2",
    [(1.0 + 0.5j, 2.0 + 0.1j), (-3.0 + 0.01j, 3.0 + 0.01j), (2.0j, 0.5 + 1.0j), (0.3j, 0.3j)],
)
def test_sin2_pair_matches_quadrature_and_mpmath(q1, q2):
    a = 1.0
    got = _sin2_pair(q1, q2)
    # int_{-inf}^{inf} dk = int_0^inf dE / sqrt(E) with E = k^2 (even integrand)
    z1, z2 = q1 * q1, q2 * q2

    def part(take):
        return lambda e: take(np.sin(np.sqrt(e) * a) ** 2 / np.sqrt(e) / ((e - z1) * (e - z2)))

    hw = max(abs(z1.imag), 1.0)
    quad = complex(
        _quad(part(np.real), z1.real, hw, abs(got)), _quad(part(np.imag), z1.real, hw, abs(got))
    )
    assert abs(got - quad) <= 1e-11 * abs(got)
    with mp.workdps(DIGITS):
        ref = complex(_mp_sin2_pair(mp.mpf(a), mp.mpc(q1), mp.mpc(q2)))
    assert abs(got - ref) <= 1e-15 * abs(ref)


def test_sin2_pair_double_pole_near_threshold():
    # the expm1 form keeps digits where 1 - (1 + x) e^{-x} would cancel
    for kappa in (1e-2, 1e-4, 1e-6):
        got = _sin2_pair(1j * kappa, 1j * kappa)
        with mp.workdps(DIGITS):
            ref = complex(_mp_sin2_pair(mp.mpf(1), mp.mpc(0, kappa), mp.mpc(0, kappa)))
        assert abs(got - ref) <= 1e-15 / kappa * abs(ref)


def _np_sin2_pair(q1, q2):
    """_sin2_pair written with np.expm1, as it was before the pure-Python expm1."""
    if q1 == q2:
        u = 2j * q1
        return -math.pi * 1j * cmath.exp(u) * (complex(np.expm1(-u)) + u) / (4.0 * q1**3)

    def f(q):
        return -complex(np.expm1(2j * q)) / (2.0 * q)

    return math.pi * 1j * (f(q1) - f(q2)) / (q1 * q1 - q2 * q2)


def _bits(z):
    return z.real.hex(), z.imag.hex()  # hex keeps the sign of a zero


def _signed_log_uniform(rng, shape, lo, hi):
    return rng.choice((-1.0, 1.0), size=shape) * 10.0 ** rng.uniform(
        math.log10(lo), math.log10(hi), size=shape
    )


def test_expm1_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(6021)
    parts = _signed_log_uniform(rng, (12000, 2), 1e-8, 700.0)
    zs = [complex(x, y) for x, y in parts]
    zs += [complex(x, y) for x in (0.0, -0.0, 1e-8, -1e-8, 700.0, -700.0)
           for y in (0.0, -0.0, 1e-8, -1e-8, 700.0, -700.0)]
    mismatched = [z for z in zs if _bits(_expm1(z)) != _bits(complex(np.expm1(z)))]
    assert not mismatched, mismatched[:5]


def test_sin2_pair_equals_numpy_formula_bit_for_bit():
    rng = np.random.default_rng(6022)
    # Im q > 0 throughout; |2 Im q| <= 600 keeps the double pole's
    # expm1(-2iq) below overflow
    re = _signed_log_uniform(rng, (3000, 2), 1e-8, 300.0)
    im = 10.0 ** rng.uniform(-8.0, math.log10(300.0), size=(3000, 2))
    for (r1, r2), (i1, i2) in zip(re, im):
        q1, q2 = complex(r1, i1), complex(r2, i2)
        for pair in ((q1, q2), (q1, q1), (1j * i1, 1j * i1)):
            assert _bits(_sin2_pair(*pair)) == _bits(_np_sin2_pair(*pair)), pair


# -- C for resonances


@pytest.mark.parametrize("lam", LAMBDAS)
def test_c_value_matches_quadrature(lam):
    spec, poles = _resonances(lam)
    for pole in poles:
        _, c_value = decay_width_total(spec, pole)
        quad = _c_by_quadrature(pole.e_R, pole.gamma_R, c_value)
        assert c_value == pytest.approx(quad, rel=2e-12), f"lam={lam} n={pole.index}"


@pytest.mark.parametrize("lam", LAMBDAS)
def test_width_matches_mpmath(lam):
    spec, poles = _resonances(lam)
    for pole in poles:
        gamma_bar, c_value = decay_width_total(spec, pole)
        with mp.workdps(DIGITS):
            # same pole: only the float evaluation of the residue sum differs
            k = mp.mpc(pole.k)
            c_same = mp.re((1 - mp.exp(-2j * k)) / (2 * k))
            # refined pole: the whole chain, pole to width
            k = _mp_pole(spec, pole)
            gr = -2 * mp.im(k**2)
            c_true = gr / (2 * mp.pi) * mp.re(_mp_sin2_pair(1, -k, mp.conj(k)))
            gbar_true = 2 * spec.lam**2 * _mp_shell_density(spec, k) * c_true
        tag = f"lam={lam} n={pole.index}"
        assert c_value == pytest.approx(float(c_same), rel=2e-15), tag
        assert c_value == pytest.approx(float(c_true), rel=1e-13), tag
        assert gamma_bar == pytest.approx(float(gbar_true), rel=1e-12), tag


def test_c_value_scales_with_radius():
    # The radius is the command line's, which writes C times a, and E_R and
    # Gamma_R over a^2. Those values satisfy the integral written at radius a.
    a = 2.5
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["table", "--lambda", "10", "--radius", str(a), "--count", "4",
                         "--format", "json"]) == 0
    rows = json.loads(out.getvalue())["rows"]
    spec = PotentialSpec(lam=10.0)
    for n in (1, 4):
        pole = find_resonance(spec, n)
        _, c_value = decay_width_total(spec, pole)
        assert rows[n - 1]["c_value"] == float("%.9g" % (a * c_value))
        quad = _c_by_quadrature(pole.e_R / a**2, pole.gamma_R / a**2, c_value, a=a)
        assert a * c_value == pytest.approx(quad, rel=2e-12)


# -- Gamma for bound and virtual states


@pytest.mark.parametrize(
    "lam, find", [(-100.0, find_bound_state), (-10.0, find_bound_state),
                  (-0.5, find_virtual_state), (-1e-3, find_virtual_state)],
)
def test_nonresonant_gamma_matches_quadrature_and_mpmath(lam, find):
    spec = PotentialSpec(lam=lam)
    pole = find(spec)
    gamma = decay_constant_total(spec, pole)

    def f(e):
        return matrix_element_squared(spec, pole, e) / (e - pole.e_R) ** 2

    # 1/(E + kappa^2)^2 falls off on the scale kappa^2 from E = 0
    quad = _quad(f, 0.0, abs(pole.e_R), gamma)
    assert gamma == pytest.approx(quad, rel=2e-12)
    with mp.workdps(DIGITS):
        k = _mp_pole(spec, pole)
        q = mp.mpc(0, abs(mp.im(k)))
        ref = spec.lam**2 / mp.pi * _mp_shell_density(spec, k) * mp.re(_mp_sin2_pair(1, q, q))
    assert gamma == pytest.approx(float(ref), rel=1e-13)
    if pole.kind is PoleKind.BOUND:
        assert abs(gamma - 1.0) <= 1e-14


def test_virtual_state_reference_value():
    spec = PotentialSpec(lam=-0.5)
    assert decay_constant_total(spec, find_virtual_state(spec)) == pytest.approx(
        0.188165251377, abs=1e-12
    )


# -- two-resonance normalization


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("i1, i2", [(1, 2), (3, 7), (15, 14)])
def test_interference_norm_matches_quadrature_and_mpmath(lam, i1, i2):
    spec = PotentialSpec(lam=lam)
    p1, p2 = find_resonance(spec, i1), find_resonance(spec, i2)
    cfg = InterferenceConfig(c1=0.6 - 0.2j, c2=-0.3 + 0.7j)
    raw = InterferenceConfig(c1=cfg.c1, c2=cfg.c2, renormalize=False)
    norm = spectra._interference(spec, p1, p2, cfg, 1.0)[1]

    extra = tuple(p2.e_R + s * j * 0.5 * p2.gamma_R for j in (1, 2, 4, 8, 16, 32) for s in (-1, 1))
    quad = _quad(lambda e: spectra._interference(spec, p1, p2, raw, e)[0],
                 p1.e_R, 0.5 * p1.gamma_R, norm, extra=extra)
    assert norm == pytest.approx(quad, rel=2e-11)

    with mp.workdps(DIGITS):
        total = 0
        for ci, pi in ((cfg.c1, p1), (cfg.c2, p2)):
            for cj, pj in ((cfg.c1, p1), (cfg.c2, p2)):
                ki, kj = _mp_pole(spec, pi), _mp_pole(spec, pj)
                # u(a) = N e^{ika} with N the principal root of N^2
                ui = mp.sqrt(_mp_n_squared(spec, ki)) * mp.exp(1j * ki)
                uj = mp.sqrt(_mp_n_squared(spec, kj)) * mp.exp(1j * kj)
                total += ci * mp.conj(cj) * ui * mp.conj(uj) * _mp_sin2_pair(1, -ki, mp.conj(kj))
        ref = spec.lam**2 / mp.pi * mp.re(total)
    assert norm == pytest.approx(float(ref), rel=1e-11)


# -- the production path


def test_production_path_runs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran on the production path")

    for module in (quadrature_oracle, observables, spectra):
        monkeypatch.setattr(module, "integrate_semi_infinite", refuse, raising=False)

    for lam in (100.0, -0.5, -10.0, 0.05):
        cli.table_records(PotentialSpec(lam=lam), 6)
    spec = PotentialSpec(lam=-0.5)
    curve = cli.spectrum_curve(spec, find_virtual_state(spec), 0.01, 5.0, 101)
    assert curve.normalization_used > 0.0
    spec = PotentialSpec(lam=10.0)
    p1, p2 = find_resonance(spec, 1), find_resonance(spec, 2)
    curve = cli.interference_curve(spec, p1, p2, InterferenceConfig(), 1.0, 60.0, 101)
    assert curve.normalization_used > 0.0
