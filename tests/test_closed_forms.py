"""Closed-form residue sums against quadrature and against mpmath.

The production path computes the oscillation constant C, the bound and
virtual decay constant Gamma and the two-resonance normalization as
residue sums made rational in t = lam - 2ik by the pole identity
e^{2ik} = t / lam: C and Gamma in observables.observables_record, the
normalization's S(-k_i, conj k_j) in spectra._residue_pair. Each is checked
two ways:

* against the test oracle's integrate_semi_infinite at rel_tol 1e-12,
  which knows nothing of the residue algebra;
* against the same residue sum written plainly with its exponentials and
  evaluated by mpmath at 30 digits (more next to threshold) on poles
  refined at those digits, which knows nothing of the pole identity or of
  the float rewriting.
"""

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
    NonConvergence,
    PoleKind,
    PotentialSpec,
    find_bound_state,
    find_resonance,
    find_virtual_state,
    interference_curve,
    matrix_element_squared,
    observables_record,
)
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


# -- the rational residue sum S(-k_i, conj k_j)


def _unit_terms(spec, pole):
    """spectra._residue_pair's (w, k, 1/t) of a pole, with weight 1: S alone."""
    return 1.0, pole.k, 1.0 / (spec.lam - 2j * pole.k)


@pytest.mark.parametrize("lam, i, j", [
    (10.0, 1, 2), (10.0, 2, 1), (-0.5, 3, 3), (100.0, 15, 14), (-10.0, 1, 7), (1e-3, 2, 5),
])
def test_residue_pair_matches_quadrature_and_mpmath(lam, i, j):
    spec = PotentialSpec(lam=lam)
    p_i, p_j = find_resonance(spec, i), find_resonance(spec, j)
    got = spectra._residue_pair(*_unit_terms(spec, p_i), *_unit_terms(spec, p_j))
    # int_{-inf}^{inf} dk = int_0^inf dE / sqrt(E) with E = k^2 (even integrand);
    # (-k_i)^2 = z_i and (conj k_j)^2 = conj z_j
    z_i, z_j = p_i.z, p_j.z.conjugate()

    def part(take):
        return lambda e: take(np.sin(np.sqrt(e)) ** 2 / np.sqrt(e) / ((e - z_i) * (e - z_j)))

    hw_j = 0.5 * p_j.gamma_R
    extra = tuple(p_j.e_R + s * m * hw_j for m in (1, 2, 4, 8, 16, 32) for s in (-1, 1))
    quad = complex(*(_quad(part(take), p_i.e_R, 0.5 * p_i.gamma_R, abs(got), extra=extra)
                     for take in (np.real, np.imag)))
    assert abs(got - quad) <= 1e-11 * abs(got)
    with mp.workdps(DIGITS):
        k_i, k_j = _mp_pole(spec, p_i), _mp_pole(spec, p_j)
        ref = complex(_mp_sin2_pair(mp.mpf(1), -k_i, mp.conj(k_j)))
    assert abs(got - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("mu", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("find", [find_bound_state, find_virtual_state])
def test_threshold_gamma_next_to_threshold_matches_mpmath(mu, find):
    # Gamma = 1 (bound) and -lam (1 + lam) / (t (1 + t)) (virtual) against the
    # double-pole residue sum S(i kappa, i kappa) of the exponentials, which
    # cancels to about kappa^2 next to threshold: hence the extra digits
    spec = PotentialSpec(lam=-1.0 - mu if find is find_bound_state else -1.0 + mu)
    pole = find(spec)
    gamma = observables_record(spec, pole).gamma
    with mp.workdps(DIGITS + 30):
        k = _mp_pole(spec, pole)
        q = mp.mpc(0, abs(mp.im(k)))
        ref = spec.lam**2 / mp.pi * _mp_shell_density(spec, k) * mp.re(_mp_sin2_pair(1, q, q))
    assert abs(pole.k.imag - mp.im(k)) <= 1e-15 * abs(mp.im(k))
    assert abs(gamma - ref) <= 1e-14 * ref, (spec.lam, gamma, ref)
    if pole.kind is PoleKind.BOUND:
        assert gamma == 1.0


# -- C for resonances


@pytest.mark.parametrize("lam", LAMBDAS)
def test_c_value_matches_quadrature(lam):
    spec, poles = _resonances(lam)
    for pole in poles:
        c_value = observables_record(spec, pole).c_value
        quad = _c_by_quadrature(pole.e_R, pole.gamma_R, c_value)
        assert c_value == pytest.approx(quad, rel=2e-12), f"lam={lam} n={pole.index}"


@pytest.mark.parametrize("lam", LAMBDAS)
def test_width_matches_mpmath(lam):
    spec, poles = _resonances(lam)
    for pole in poles:
        rec = observables_record(spec, pole)
        gamma_bar, c_value = rec.gamma_bar, rec.c_value
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
        c_value = observables_record(spec, pole).c_value
        assert rows[n - 1]["c_value"] == float("%.9g" % (a * c_value))
        quad = _c_by_quadrature(pole.e_R / a**2, pole.gamma_R / a**2, c_value, a=a)
        assert a * c_value == pytest.approx(quad, rel=2e-12)


# -- Gamma for bound and virtual states


@pytest.mark.parametrize(
    "lam, find", [(-100.0, find_bound_state), (-10.0, find_bound_state),
                  (-1.01, find_bound_state), (-0.99, find_virtual_state),
                  (-0.5, find_virtual_state), (-1e-3, find_virtual_state)],
)
def test_nonresonant_gamma_matches_quadrature_and_mpmath(lam, find):
    spec = PotentialSpec(lam=lam)
    pole = find(spec)
    gamma = observables_record(spec, pole).gamma

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
    assert observables_record(spec, find_virtual_state(spec)).gamma == pytest.approx(
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
    norm = interference_curve(spec, p1, p2, cfg, 1.0).normalization_used

    extra = tuple(p2.e_R + s * j * 0.5 * p2.gamma_R for j in (1, 2, 4, 8, 16, 32) for s in (-1, 1))
    quad = _quad(lambda e: interference_curve(spec, p1, p2, raw, e).dP_dE,
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
    assert norm == pytest.approx(float(ref), rel=1e-13)


def test_interference_norm_keeps_its_bits_when_the_poles_are_swapped():
    # the cross term is 2 Re of the (1, 2) product, whose (2, 1) twin is its
    # conjugate bit for bit: the same norm from either order
    rng = np.random.default_rng(6022)
    checked = 0
    for _ in range(400):
        lam = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, math.log10(700.0)))
        i, j = (int(n) for n in rng.integers(1, 16, size=2))
        c1, c2 = (complex(*rng.uniform(-1.0, 1.0, size=2)) for _ in range(2))
        spec = PotentialSpec(lam=lam)
        try:
            p1, p2 = find_resonance(spec, i), find_resonance(spec, j)
        except NonConvergence:  # the absolute pole gate, at large |lam|
            continue
        norm = interference_curve(spec, p1, p2, InterferenceConfig(c1, c2), 1.0).normalization_used
        swapped = interference_curve(spec, p2, p1, InterferenceConfig(c2, c1), 1.0).normalization_used
        assert norm.hex() == swapped.hex(), (lam, i, j, c1, c2)
        checked += 1
    assert checked > 300


# -- the production path


def test_production_path_runs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran on the production path")

    for module in (quadrature_oracle, observables, spectra):
        monkeypatch.setattr(module, "integrate_semi_infinite", refuse, raising=False)

    for lam in (100.0, -0.5, -10.0, 0.05):
        cli.table_records(PotentialSpec(lam=lam), 6)
    spec = PotentialSpec(lam=-0.5)
    curve = cli.spectrum_curve(spec, find_virtual_state(spec), np.linspace(0.01, 5.0, 101))
    assert curve.normalization_used > 0.0
    spec = PotentialSpec(lam=10.0)
    p1, p2 = find_resonance(spec, 1), find_resonance(spec, 2)
    grid = np.linspace(1.0, 60.0, 101)
    curve = cli.interference_curve(spec, p1, p2, InterferenceConfig(), grid)
    assert curve.normalization_used > 0.0
