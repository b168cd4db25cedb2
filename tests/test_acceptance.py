"""Acceptance suite: every criterion exercised at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with -s to
see them; a failure shows up as an ordinary pytest failure). Reference
values come from the golden transcriptions under tests/golden/, compared
at their tabulated precision.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from deltashell import (
    InterferenceConfig,
    PoleKind,
    cross_section_bundle,
    cross_section_exact,
    enumerate_poles,
    find_anti_resonance,
    find_resonance,
    find_virtual_state,
    interference_curve,
    lambert_w,
    lambert_w_residual,
    observables_record,
    spectrum_curve,
    transcendental_residual,
)
from conftest import TABLE_LAMBDAS, assert_printed, golden_rows, sigfig_tol
from quadrature_oracle import QuadratureRequest, integrate_semi_infinite, perturbation_rhs


def report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def test_criterion_01_pole_reproduction(specs):
    checked = 0
    for lam in TABLE_LAMBDAS:
        poles = enumerate_poles(specs[lam], 8)
        for pole, row in zip(poles, golden_rows(lam)):
            tag = f"lam={lam} {row['kind']} {row['index']}"
            assert pole.kind.value == row["kind"]
            assert_printed(pole.k.real, row["re_k"], f"{tag} Re k")
            assert_printed(pole.k.imag, row["im_k"], f"{tag} Im k")
            assert_printed(pole.z.real, row["re_z"], f"{tag} Re z")
            assert_printed(pole.z.imag, row["im_z"], f"{tag} Im z")
            checked += 1
    report(1, f"{checked} poles match the reference tables to every printed digit")


def test_criterion_02_transcendental_residual(specs):
    worst = 0.0
    count = 0
    for lam in TABLE_LAMBDAS:
        spec = specs[lam]
        poles = enumerate_poles(spec, 8)
        poles += [find_anti_resonance(spec, n) for n in range(1, 9)]
        for pole in poles:
            worst = max(worst, transcendental_residual(spec, pole.k))
            count += 1
    assert worst <= 1e-12
    report(2, f"pole-equation residual <= 1e-12 for all {count} poles (worst {worst:.2e})")


def test_criterion_03_lambert_identity():
    rng = np.random.default_rng(1234)
    n_points = 10_000
    radius = 10.0 ** rng.uniform(-6.0, 6.0, size=n_points)
    phase = rng.uniform(-np.pi, np.pi, size=n_points)
    worst = 0.0
    for z, n in zip(radius * np.exp(1j * phase), rng.integers(-5, 6, size=n_points)):
        w = lambert_w(int(n), z)
        worst = max(worst, lambert_w_residual(w, z) / max(1.0, abs(z)))
    assert worst <= 1e-13
    report(3, f"W e^W identity <= 1e-13 on {n_points} random points, branches -5..5")


def test_criterion_04_decay_observables(all_records):
    checked = 0
    for lam in TABLE_LAMBDAS:
        for rec, row in zip(all_records[lam], golden_rows(lam)):
            tag = f"lam={lam} {row['kind']} {row['index']}"
            if rec.kind is not PoleKind.RESONANCE:
                assert rec.gamma_bar == 0.0, f"{tag} gamma_bar"
                assert_printed(rec.gamma, row["gamma"], f"{tag} gamma",
                               tol=1e-3 * max(float(row["gamma"]), 1.0))
                checked += 1
                continue
            assert_printed(rec.gamma_bar, row["gamma_bar"], f"{tag} gamma_bar",
                           tol=sigfig_tol(row["gamma_bar"], 3))
            assert_printed(rec.gamma, row["gamma"], f"{tag} gamma",
                           tol=sigfig_tol(row["gamma"], 3))
            assert_printed(rec.gamma_bar_sharp, row["gamma_bar_sharp"],
                           f"{tag} gamma_bar_sharp",
                           tol=sigfig_tol(row["gamma_bar_sharp"], 4))
            assert_printed(rec.gamma_sharp, row["gamma_sharp"], f"{tag} gamma_sharp",
                           tol=sigfig_tol(row["gamma_sharp"], 4))
            checked += 1
    report(4, f"decay observables match all {checked} reference table rows")


def test_criterion_05_bound_state_closure(specs, all_records):
    for lam in (-10.0, -100.0):
        rec = all_records[lam][0]
        assert rec.kind is PoleKind.BOUND
        assert abs(rec.gamma - 1.0) <= 1e-3
    report(5, "bound-state decay constant equals 1 within 1e-3 by direct quadrature")


def test_criterion_06_virtual_state_constant(all_records):
    rec = all_records[-0.5][0]
    assert rec.kind is PoleKind.VIRTUAL_STATE
    assert abs(rec.gamma - 0.18817) <= 1e-3 * 0.18817
    report(6, f"virtual-state decay constant {rec.gamma:.6f} matches 0.18817 within 1e-3")


def test_criterion_07_perturbation_refutation(specs, all_records):
    checked = 0
    for lam in TABLE_LAMBDAS:
        spec = specs[lam]
        for rec in all_records[lam]:
            if rec.kind is not PoleKind.RESONANCE:
                continue
            pole = find_resonance(spec, rec.index)
            ratio = perturbation_rhs(spec, pole) / pole.gamma_R
            assert ratio == pytest.approx(rec.gamma, rel=1e-6)
            assert abs(ratio - 1.0) > 0.05
            checked += 1
    report(7, f"perturbative width equation fails for all {checked} resonances "
              "(RHS/pole-width reproduces the decay constant, never 1)")


def _spectrum_normalization(spec, pole):
    hw = 0.5 * pole.gamma_R if pole.gamma_R > 0 else 1.0
    req = QuadratureRequest(
        peak_center=pole.e_R, peak_halfwidth=hw,
        oscillation_wavenumber=math.pi,
    )
    value, _ = integrate_semi_infinite(lambda e: spectrum_curve(spec, pole, e).dP_dE, req)
    return value


def test_criterion_08_spectrum_normalization(specs):
    worst = 0.0
    count = 0
    for lam in (100.0, 10.0, 0.5, -10.0, -100.0):
        spec = specs[lam]
        for pole in enumerate_poles(spec, 8):
            if pole.kind is not PoleKind.RESONANCE:
                continue
            worst = max(worst, abs(_spectrum_normalization(spec, pole) - 1.0))
            count += 1
    spec = specs[-0.5]
    worst = max(worst, abs(_spectrum_normalization(spec, find_virtual_state(spec)) - 1.0))
    count += 1
    assert worst <= 1e-6
    report(8, f"dP/dE integrates to 1 within 1e-6 for {count} poles (worst |dev| {worst:.2e})")


def test_criterion_09_lineshape_properties(specs):
    # (a) sharp resonance: peak inside [E_R - G, E_R + G], strictly asymmetric
    spec = specs[100.0]
    pole = find_resonance(spec, 3)
    grid = np.linspace(pole.e_R - 2 * pole.gamma_R, pole.e_R + 2 * pole.gamma_R, 40001)
    values = spectrum_curve(spec, pole, grid).dP_dE
    e_peak = grid[np.argmax(values)]
    assert pole.e_R - pole.gamma_R <= e_peak <= pole.e_R + pole.gamma_R
    up = spectrum_curve(spec, pole, pole.e_R + pole.gamma_R).dP_dE
    down = spectrum_curve(spec, pole, pole.e_R - pole.gamma_R).dP_dE
    assert abs(up - down) > 1e-3 * max(up, down)

    # (b) broad resonance: threshold bump, i.e. an interior low-energy local
    # maximum with a falling stretch after it (dP/dE starts at zero at the
    # threshold itself, so the enhancement shows up as this bump)
    spec10 = specs[10.0]
    pole10 = find_resonance(spec10, 3)
    curve = spectrum_curve(spec10, pole10, np.linspace(1e-3, 0.3 * pole10.e_R, 4001))
    i_bump = int(np.argmax(curve.dP_dE))
    assert 0 < i_bump < len(curve.grid) - 1
    assert curve.grid[i_bump] < 0.1 * pole10.e_R
    assert np.any(np.diff(curve.dP_dE[i_bump:]) < 0.0)
    assert curve.dP_dE[i_bump] > curve.breit_wigner[i_bump]

    # (c) virtual state: threshold spike, strictly decreasing beyond it
    specv = specs[-0.5]
    vcurve = spectrum_curve(specv, find_virtual_state(specv), np.linspace(1e-3, 2.0, 8001))
    i_peak = int(np.argmax(vcurve.dP_dE))
    assert vcurve.grid[i_peak] <= 0.15
    assert np.all(np.diff(vcurve.dP_dE[i_peak:]) < 0.0)

    # (d) normalized peak heights decrease with resonance order
    grid = np.linspace(1.0, 120.0, 60001)
    curves = [spectrum_curve(specs[100.0], find_resonance(specs[100.0], n), grid)
              for n in (1, 2, 3)]
    peaks = [float(np.max(c.dP_dE)) for c in curves]
    assert peaks[0] > peaks[1] > peaks[2]
    report(9, "lineshape properties: sharp asymmetric peak, threshold bump, "
              "virtual-state spike, ordered peak heights")


def test_criterion_10_cross_section_properties(specs):
    spec = specs[100.0]
    pole = find_resonance(spec, 3)
    e = np.linspace(pole.e_R - 10 * pole.gamma_R, pole.e_R + 10 * pole.gamma_R, 4001)
    sigma = cross_section_exact(spec, e)
    assert np.all(sigma <= 4.0 * np.pi / e + 1e-9)
    wide = np.linspace(0.05, 800.0, 4000)
    assert np.all(cross_section_exact(spec, wide) <= 4.0 * np.pi / wide + 1e-9)

    # the e-/k-unitarized ratio in closed form, 4 alpha^2 / ((k + alpha)^2 + beta^2)
    ratio = 4.0 * pole.alpha_R**2 / ((np.sqrt(e) + pole.alpha_R) ** 2 + pole.beta_R**2)
    bundle = cross_section_bundle(spec, pole, e)
    quotient = bundle.e_unitarized / bundle.k_unitarized
    assert np.max(np.abs(ratio - quotient)) <= 1e-12 * np.max(np.abs(ratio))

    sig_e, sig_k = bundle.e_unitarized, bundle.k_unitarized
    deviation = np.max(np.abs(sig_e - sig_k)) / np.max(sig_e)
    assert deviation <= 1e-3

    peak = float(cross_section_bundle(spec, pole, pole.e_R).e_unitarized)
    assert peak == pytest.approx(4.0 * math.pi / pole.e_R, rel=1e-14)
    report(10, f"cross-section bound, ratio identity, e/k agreement ({deviation:.2e}), "
               "exact peak value")


def test_criterion_11_interference_sanity(specs):
    spec = specs[100.0]
    p1 = find_resonance(spec, 1)
    p2 = find_resonance(spec, 2)
    grid = np.linspace(2.0, 60.0, 500)

    gamma = observables_record(spec, p1).gamma
    raw = interference_curve(
        spec, p1, p2, InterferenceConfig(c1=1.0, c2=0.0, renormalize=False), grid
    ).dP_dE
    single = gamma * spectrum_curve(spec, p1, grid).dP_dE
    assert np.allclose(raw, single, rtol=1e-12, atol=1e-300)

    cfg = InterferenceConfig(c1=0.6, c2=0.3 + 0.2j, renormalize=False)
    swapped = InterferenceConfig(c1=0.3 + 0.2j, c2=0.6, renormalize=False)
    assert np.array_equal(
        interference_curve(spec, p1, p2, cfg, grid).dP_dE,
        interference_curve(spec, p2, p1, swapped, grid).dP_dE,
    )

    cfg_norm = InterferenceConfig()
    req = QuadratureRequest(
        peak_center=p1.e_R, peak_halfwidth=0.5 * p1.gamma_R,
        oscillation_wavenumber=math.pi,
    )
    extra = tuple(p2.e_R + s * j * 0.5 * p2.gamma_R for j in (1, 2, 4, 8) for s in (-1, 1))
    area, _ = integrate_semi_infinite(
        lambda x: interference_curve(spec, p1, p2, cfg_norm, x).dP_dE, req, extra_edges=extra
    )
    assert abs(area - 1.0) <= 1e-6
    report(11, "interference reduction, swap symmetry, unit renormalized area")


def test_criterion_12_determinism():
    argv = [sys.executable, "-m", "deltashell.cli",
            "table", "--lambda", "100", "--count", "8", "--format", "csv"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    report(12, "consecutive table runs are byte-identical")
