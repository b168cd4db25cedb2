"""Quadrature oracle: closed forms, brute-force oracles, error honesty."""

import math

import numpy as np
import pytest

from deltashell import InvalidInput
from quadrature_oracle import QuadratureRequest, ToleranceNotMet, integrate_semi_infinite

GENERIC = QuadratureRequest(peak_center=1.0, peak_halfwidth=1.0, oscillation_wavenumber=np.pi)


def test_normalized_lorentzian_closed_form():
    # int_0^inf of the unit-area Lorentzian misses only the (-inf, 0] tail:
    # closed form 1/2 + (1/pi) atan(2 E_R / Gamma_R)
    e_r, gamma = 87.096, 0.3165
    hw = 0.5 * gamma
    req = QuadratureRequest(peak_center=e_r, peak_halfwidth=hw, oscillation_wavenumber=np.pi)
    value, err = integrate_semi_infinite(
        lambda e: (hw / np.pi) / ((e - e_r) ** 2 + hw**2), req
    )
    exact = 0.5 + math.atan(2.0 * e_r / gamma) / math.pi
    assert exact == pytest.approx(0.9994216441161903, abs=1e-15)
    assert abs(value - exact) <= max(err, 1e-12)


def test_exponential_decay():
    value, err = integrate_semi_infinite(lambda e: np.exp(-e), GENERIC)
    assert abs(value - 1.0) <= 1e-12
    assert err <= 1e-9


def test_oscillatory_rational_against_fixed_panel_oracle():
    # f = sin^2(sqrt(E)) / (1 + E^2); oracle: u = sqrt(E) substitution,
    # composite 10-point Gauss-Legendre with quarter-period panels up to
    # u = 4e4, plus the analytic tail (1 - cos 2u) u^-3 remainder
    u_max = 40000.0
    edges = np.linspace(0.0, u_max, int(u_max / (np.pi / 4.0)) + 1)
    xg, wg = np.polynomial.legendre.leggauss(10)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    u = mid[:, None] + half[:, None] * xg[None, :]
    g = 2.0 * u * np.sin(u) ** 2 / (1.0 + u**4)
    oracle = float(((g @ wg) * half).sum()) + 0.5 / u_max**2 - math.sin(2 * u_max) / (
        2.0 * u_max**3
    )
    assert oracle == pytest.approx(0.873504171836037, abs=5e-12)

    value, err = integrate_semi_infinite(
        lambda e: np.sin(np.sqrt(e)) ** 2 / (1.0 + e**2), GENERIC
    )
    assert abs(value - oracle) <= 1e-9
    assert abs(value - oracle) <= max(err, 1e-11)


def test_reported_error_bounds_true_error():
    e_r, hw = 9.6754, 0.00595 / 2.0
    req = QuadratureRequest(peak_center=e_r, peak_halfwidth=hw, oscillation_wavenumber=np.pi)

    def f(e):
        k = np.sqrt(e)
        return (hw / np.pi) / ((e - e_r) ** 2 + hw**2) * np.sin(k) ** 2 / k

    value, err = integrate_semi_infinite(f, req)
    tight = QuadratureRequest(
        peak_center=e_r, peak_halfwidth=hw, oscillation_wavenumber=np.pi, rel_tol=1e-12
    )
    value_tight, _ = integrate_semi_infinite(f, tight)
    assert abs(value - value_tight) <= 10.0 * err


def test_stability_under_halved_tolerance():
    for rel in (1e-6, 1e-9):
        r1 = QuadratureRequest(1.0, 1.0, np.pi, rel_tol=rel)
        r2 = QuadratureRequest(1.0, 1.0, np.pi, rel_tol=rel / 2.0)
        f = lambda e: np.sin(np.sqrt(e)) ** 2 / (1.0 + e**2)
        v1, e1 = integrate_semi_infinite(f, r1)
        v2, _ = integrate_semi_infinite(f, r2)
        assert abs(v1 - v2) <= 10.0 * max(e1, 1e-15)


def test_request_validation():
    with pytest.raises(InvalidInput):
        QuadratureRequest(1.0, 0.0, np.pi)
    with pytest.raises(InvalidInput):
        QuadratureRequest(1.0, 1.0, -1.0)
    with pytest.raises(InvalidInput):
        QuadratureRequest(1.0, 1.0, np.pi, rel_tol=0.0)
    with pytest.raises(InvalidInput):
        QuadratureRequest(1.0, 1.0, np.pi, abs_tol=-1.0)


def test_nonfinite_integrand_rejected():
    def blows_up(e):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (e - e)

    with pytest.raises(InvalidInput):
        integrate_semi_infinite(blows_up, GENERIC)


def test_tolerance_not_met_carries_best_value():
    # a pseudo-random square wave defeats panel refinement at 1e-9
    def rough(e):
        return (np.sin(1e7 * e) > 0).astype(float) / (1.0 + e**2)

    with pytest.raises(ToleranceNotMet) as excinfo:
        integrate_semi_infinite(rough, GENERIC)
    assert excinfo.value.value is not None
    assert 0.0 < excinfo.value.value < 2.0
    assert excinfo.value.error_estimate > 0.0


def test_error_estimate_meets_contract_on_success():
    value, err = integrate_semi_infinite(lambda e: np.exp(-e), GENERIC)
    assert err <= max(GENERIC.rel_tol * abs(value), GENERIC.abs_tol) * 1.0000001
