"""Decay widths, constants, sharp approximations: reference tables and
algebraic identities."""

import cmath
import contextlib
import math
import random
from collections import Counter
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deltashell.observables as observables
import deltashell.poles as poles
from deltashell import (
    InvalidInput,
    NonConvergence,
    Pole,
    PoleKind,
    PotentialSpec,
    enumerate_poles,
    find_anti_resonance,
    find_bound_state,
    find_resonance,
    find_virtual_state,
    matrix_element_squared,
    observables_record,
    spectrum_curve,
    table_records,
)
from conftest import TABLE_LAMBDAS, assert_printed, golden_rows, place_tol, sigfig_tol
from quadrature_oracle import perturbation_rhs
from reference import reference_row


@pytest.mark.parametrize("lam", TABLE_LAMBDAS)
def test_reference_observables(lam, all_records):
    rows = golden_rows(lam)
    records = all_records[lam]
    assert len(records) == len(rows)
    for rec, row in zip(records, rows):
        tag = f"lam={lam} {row['kind']} n={row['index']}"
        if rec.pole.kind is PoleKind.RESONANCE:
            assert_printed(
                rec.gamma_bar, row["gamma_bar"], f"{tag} gamma_bar",
                tol=sigfig_tol(row["gamma_bar"], 3),
            )
            assert_printed(
                rec.gamma, row["gamma"], f"{tag} gamma", tol=sigfig_tol(row["gamma"], 3)
            )
            assert_printed(
                rec.gamma_bar_sharp, row["gamma_bar_sharp"], f"{tag} gamma_bar_sharp",
                tol=sigfig_tol(row["gamma_bar_sharp"], 4),
            )
            assert_printed(
                rec.gamma_sharp, row["gamma_sharp"], f"{tag} gamma_sharp",
                tol=sigfig_tol(row["gamma_sharp"], 4),
            )
        else:
            assert rec.gamma_bar == 0.0
            assert rec.gamma_bar_sharp is None and rec.gamma_sharp is None
            assert rec.c_value is None


def test_bound_state_decay_constant_is_one():
    for lam in (-10.0, -100.0):
        spec = PotentialSpec(lam=lam)
        gamma = observables_record(spec, find_bound_state(spec)).gamma
        assert abs(gamma - 1.0) <= 1e-3


def test_virtual_state_decay_constant():
    spec = PotentialSpec(lam=-0.5)
    gamma = observables_record(spec, find_virtual_state(spec)).gamma
    assert abs(gamma - 0.18817) <= 1e-3 * 0.18817


@pytest.mark.parametrize("lam", [-3e-303, -1e-305])
def test_virtual_state_gamma_below_the_normal_range_is_refused(lam):
    # Gamma of the virtual state leaves the normal range from |lam| ~ 3e-303 down;
    # a subnormal Gamma would divide every density of its spectrum
    spec = PotentialSpec(lam=lam)
    pole = find_virtual_state(spec)
    with pytest.raises(InvalidInput, match=rf"^virtual-state Gamma \S+ at {lam!r} loses its digits$"):
        observables_record(spec, pole)


def _mp_threshold_pole(lam):
    """Im k and the decay constant of the bound or virtual pole at lam (a = 1), in 50 digits.

    The pole is mp.lambertw's, N^2 = -i J1/J2' from the Jost functions, and
    S(i kappa, i kappa) = pi (1 - (1 + 2 kappa) e^{-2 kappa}) / (4 kappa^3)
    is the integral of sin^2 k / (k^2 + kappa^2)^2 over the real line.
    """
    with mp.workdps(50):
        lam = mp.mpf(lam)
        k = (lam - mp.lambertw(lam * mp.exp(lam), 0 if lam < -1 else -1)) / 2j
        j1 = (-2j * k + lam * (mp.exp(-2j * k) - 1)) / (4 * k)
        j2p = 1j * (1 + lam * mp.exp(2j * k)) / (2 * k)
        kappa, beta = abs(k.imag), -k.imag
        s = mp.pi * (1 - (1 + 2 * kappa) * mp.exp(-2 * kappa)) / (4 * kappa**3)
        return k.imag, 2 * lam**2 * abs(j1 / j2p) * mp.exp(2 * beta) * s / (2 * mp.pi)


@settings(max_examples=60, deadline=None)
@given(log_mu=st.floats(-16.0, -2.0), sign=st.sampled_from((1.0, -1.0)))
@example(log_mu=-53.0 * math.log10(2.0), sign=1.0)
@example(log_mu=-52.0 * math.log10(2.0), sign=-1.0)
def test_threshold_decay_constant_against_mpmath(log_mu, sign):
    # bound (lam < -1) and virtual (lam > -1) k and Gamma for |lam + 1| <= 1e-2, down to
    # the floats next to -1, -1 + 2^-53 and -1 - 2^-52 (the examples): -1 - 2^-53 rounds to -1
    mu = 10.0**log_mu if sign > 0.0 else max(10.0**log_mu, 2.0**-52)
    spec = PotentialSpec(lam=-1.0 + sign * mu)
    pole = find_bound_state(spec) if spec.lam < -1.0 else find_virtual_state(spec)
    im_k, ref = _mp_threshold_pole(spec.lam)
    assert abs(pole.k.imag - im_k) <= 1e-15 * abs(im_k), (spec.lam, im_k)
    assert abs(observables_record(spec, pole).gamma - ref) <= 1e-14 * ref, (spec.lam, ref)


def _row(lam, n):
    spec = PotentialSpec(lam=lam)
    return observables_record(spec, find_resonance(spec, n))


def test_total_width_reference_spot_checks():
    rec = _row(100.0, 1)
    assert rec.gamma_bar == pytest.approx(0.0237, abs=sigfig_tol("0.0237", 3))
    assert rec.c_value > 0.0
    assert _row(10.0, 3).gamma_bar == pytest.approx(6.7976, abs=sigfig_tol("6.7976", 3))
    assert _row(-0.5, 1).gamma_bar == pytest.approx(0.45592, abs=sigfig_tol("0.45592", 3))


def test_zero_width_poles_have_zero_width():
    spec = PotentialSpec(lam=-10.0)
    rec = observables_record(spec, find_bound_state(spec))
    assert rec.gamma_bar == 0.0 and rec.c_value is None


def test_differential_relations():
    # the width integrand dGbar/dE = Gamma_R M^2(E) / |E - z|^2 is Gbar dP/dE
    spec = PotentialSpec(lam=10.0)
    pole = find_resonance(spec, 2)
    gbar = observables_record(spec, pole).gamma_bar
    grid = np.linspace(0.5, 120.0, 700)
    dgbar = pole.gamma_R * matrix_element_squared(spec, pole, grid) / np.abs(grid - pole.z) ** 2
    assert np.allclose(dgbar, gbar * spectrum_curve(spec, pole, grid).dP_dE, rtol=1e-13, atol=0.0)
    # peak value collapses to (4 / Gamma_R) M^2(E_R)
    peak = gbar * spectrum_curve(spec, pole, pole.e_R).dP_dE
    assert peak == pytest.approx(
        4.0 / pole.gamma_R * matrix_element_squared(spec, pole, pole.e_R), rel=1e-13
    )
    for m in (1, 3, 7):
        assert gbar * spectrum_curve(spec, pole, (m * math.pi) ** 2).dP_dE < 1e-18


def test_gamma_is_width_over_pole_width(all_records):
    for records in all_records.values():
        for rec in records:
            if rec.pole.kind is PoleKind.RESONANCE:
                assert rec.gamma == rec.gamma_bar / rec.pole.gamma_R


def test_golden_rule_identity_and_reference():
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 1)
    rec = observables_record(spec, pole)
    gbs, gs = rec.gamma_bar_sharp, rec.gamma_sharp
    assert gbs == pytest.approx(
        2.0 * math.pi * matrix_element_squared(spec, pole, pole.e_R), rel=1e-12
    )
    assert gbs == pytest.approx(0.0119, abs=place_tol("0.0119"))
    assert gs == pytest.approx(0.9972, abs=sigfig_tol("0.9972", 4))
    rec = _row(0.5, 1)
    gbs, gs = rec.gamma_bar_sharp, rec.gamma_sharp
    assert gbs == pytest.approx(1.34145, abs=sigfig_tol("1.34145", 4))
    assert gs == pytest.approx(0.13866, abs=sigfig_tol("0.13866", 4))


def test_golden_rule_needs_positive_energy():
    # the sharp pair has no energy to sit at below threshold: the row leaves it out
    synthetic = Pole(PoleKind.RESONANCE, -1, 1, 1.0 - 2.0j, (1.0 - 2.0j) ** 2)
    assert synthetic.e_R < 0
    rec = observables_record(PotentialSpec(lam=0.5), synthetic)
    assert rec.gamma_bar > 0.0 and rec.gamma_bar_sharp is None and rec.gamma_sharp is None


def test_perturbation_rhs_equals_width_not_pole_width():
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 1)
    rhs = perturbation_rhs(spec, pole)
    assert rhs == pytest.approx(observables_record(spec, pole).gamma_bar, rel=1e-8)
    assert rhs / pole.gamma_R == pytest.approx(1.9924, abs=sigfig_tol("1.9924", 3))
    assert abs(rhs / pole.gamma_R - 1.0) > 0.05

    spec = PotentialSpec(lam=-100.0)
    pole = find_resonance(spec, 1)
    assert perturbation_rhs(spec, pole) / pole.gamma_R == pytest.approx(
        1.9919, abs=sigfig_tol("1.9919", 3)
    )


def test_anti_resonance_rejected():
    spec = PotentialSpec(lam=10.0)
    anti = find_anti_resonance(spec, 1)
    with pytest.raises(InvalidInput):
        observables_record(spec, anti)
    with pytest.raises(InvalidInput):
        spectrum_curve(spec, anti, 5.0)


def test_decay_constant_trend(all_records):
    # narrower pole (smaller gamma_R) couples more strongly: gamma falls with n
    for records in all_records.values():
        gammas = [r.gamma for r in records if r.pole.kind is PoleKind.RESONANCE]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))


def test_decay_width_trend(all_records):
    # gamma_bar grows with n in every table except lam = 0.5, whose reference
    # column itself decreases (broad-resonance regime)
    for lam, records in all_records.items():
        if lam == 0.5:
            continue
        gbars = [r.gamma_bar for r in records if r.pole.kind is PoleKind.RESONANCE]
        assert all(a < b for a, b in zip(gbars, gbars[1:]))


def test_sharp_limit_property(all_records):
    # sharp poles have gamma_sharp within 5 percent of unity
    for lam in (100.0, -100.0):
        for rec in all_records[lam]:
            if rec.pole.kind is PoleKind.RESONANCE and rec.pole.index <= 3:
                assert abs(rec.gamma_sharp - 1.0) < 0.05


def test_records_stable_under_tighter_tolerance():
    # the record is a closed form with no tolerance; quadrature of the same
    # width integral lands on it at a loose and at a tighter tolerance
    spec = PotentialSpec(lam=10.0)
    pole = find_resonance(spec, 1)
    rec = observables_record(spec, pole)
    for rel_tol in (1e-9, 5e-10):
        rhs = perturbation_rhs(spec, pole, rel_tol=rel_tol)
        assert rhs == pytest.approx(rec.gamma_bar, rel=rel_tol)


def _counting(calls, name, fn):
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


@pytest.mark.parametrize("lam, rows", [(10.0, 8), (-0.5, 9), (-10.0, 9)])
def test_table_row_evaluates_no_exponential_off_the_axis(lam, rows, monkeypatch):
    # every row is rational in t = lam - 2ik on its pole: the bound and
    # virtual rows as much as the resonance rows
    spec = PotentialSpec(lam=lam)
    found = enumerate_poles(spec, 8)  # solved first: the rows alone are counted
    calls = Counter()
    monkeypatch.setattr(poles, "zeldovich_norm",
                        _counting(calls, "zeldovich_norm", poles.zeldovich_norm))
    for module, lib in ((observables, math), (poles, cmath)):
        counted = {name: _counting(calls, f"{lib.__name__}.{name}", getattr(lib, name))
                   for name in ("exp", "expm1") if hasattr(lib, name)}
        monkeypatch.setattr(module, lib.__name__, SimpleNamespace(**{**vars(lib), **counted}))
    calling = []
    for pole in found:
        calls.clear()
        observables_record(spec, pole)
        if calls:
            calling.append(pole.kind)
    assert calling == []
    assert len(table_records(spec, 8)) == rows  # a well adds the bound or virtual row
    assert not calls, calls


def _reference_strengths():
    """|lam| log-uniform in [1e-3, 700] away from -1, strengths below 0.107,
    where resonance 1 has E_R <= 0, strengths within 0.1 of -1, strengths
    within 1e-10...1e-2 of it, and a virtual state at lam = -1e-300."""
    rng = random.Random(2020)
    strengths = []
    while len(strengths) < 110:
        lam = math.exp(rng.uniform(math.log(1e-3), math.log(700.0))) * rng.choice((1.0, -1.0))
        if abs(1.0 + lam) > 1e-2:
            strengths.append(lam)
    strengths += [rng.uniform(1e-3, 0.107) for _ in range(10)]
    strengths += [-1.0 + s * math.exp(rng.uniform(math.log(1e-2), math.log(0.1)))
                  for s in (1.0, -1.0) for _ in range(5)]
    strengths += [-1.0 + s * 10.0 ** rng.uniform(-10.0, -2.0)
                  for s in (1.0, -1.0) for _ in range(8)]
    return strengths + [700.0, -700.0, -1e-300]


def _relative_error(value, ref):
    return float(abs(value - ref) / abs(ref))


def test_rows_match_the_50_digit_reference():
    # Gbar and C carry only the rounding of the row; Gamma = Gbar / Gamma_R
    # adds Gamma_R's own error, inherited from the double k; the sharp pair
    # sits at the rounded E_R, so it adds E_R's error, and the rounding of
    # k~ = sqrt(E_R), times the condition number |k~ cot k~ - 1/2| of
    # sin^2(k~)/k~ in E
    rounding = 4e-15
    checked = Counter()
    for lam in _reference_strengths():
        spec = PotentialSpec(lam=lam)
        found = []
        if lam < 0.0:
            found.append((find_bound_state if lam < -1.0 else find_virtual_state)(spec))
        for n in range(1, 13):
            # the absolute residual gate refuses a few poles at large |lam|
            # (a known defect of the pole layer, not of the row)
            with contextlib.suppress(NonConvergence):
                found.append(find_resonance(spec, n))
        for pole in found:
            resonance = pole.kind is PoleKind.RESONANCE
            rec = observables_record(spec, pole)
            ref = reference_row(lam, pole.branch, resonance)
            tag = f"lam={lam!r} {pole.kind.value} n={pole.index}"
            assert _relative_error(pole.k, ref["k"]) < (1e-12 if resonance else 1e-15), tag
            if not resonance:
                assert _relative_error(rec.gamma, ref["gamma"]) <= 1e-14, tag
                assert rec.gamma_bar == 0.0 and rec.c_value is None, tag
                assert rec.gamma_bar_sharp is None and rec.gamma_sharp is None, tag
                checked[pole.kind.value] += 1
                continue
            gamma_r_error = _relative_error(pole.gamma_R, ref["gamma_R"])
            assert _relative_error(rec.gamma_bar, ref["gamma_bar"]) <= rounding, tag
            assert _relative_error(rec.c_value, ref["c_value"]) <= rounding, tag
            assert _relative_error(rec.gamma, ref["gamma"]) <= gamma_r_error + rounding, tag
            if ref["gamma_sharp"] is None:
                assert rec.gamma_bar_sharp is None and rec.gamma_sharp is None, tag
                checked["resonance below threshold"] += 1
                continue
            e_r, kt = pole.e_R, math.sqrt(pole.e_R)
            condition = abs(kt / math.tan(kt) - 0.5)
            sharp_error = condition * (_relative_error(e_r, mp.re(ref["z"])) + 2.0**-52) + rounding
            assert _relative_error(rec.gamma_bar_sharp, ref["gamma_bar_sharp"]) <= sharp_error, tag
            assert (_relative_error(rec.gamma_sharp, ref["gamma_sharp"])
                    <= gamma_r_error + sharp_error), tag
            checked["resonance"] += 1
    assert checked["resonance"] > 1000, checked
    assert min(checked[kind] for kind in ("bound", "virtual_state",
                                          "resonance below threshold")) >= 18, checked
