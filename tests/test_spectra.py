"""Lineshapes: normalization, asymmetry, threshold behavior, interference."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import deltashell.scattering as scattering
import deltashell.spectra as spectra
from deltashell import (
    InterferenceConfig,
    InvalidInput,
    PotentialSpec,
    find_anti_resonance,
    find_resonance,
    find_virtual_state,
    interference_curve,
    matrix_element,
    matrix_element_squared,
    observables_record,
    spectrum_curve,
)
from quadrature_oracle import QuadratureRequest, integrate_semi_infinite


def spectrum_norm(spec, pole, rel_tol=1e-9):
    hw = 0.5 * pole.gamma_R if pole.gamma_R > 0 else 1.0
    req = QuadratureRequest(
        peak_center=pole.e_R,
        peak_halfwidth=hw,
        oscillation_wavenumber=math.pi,
        rel_tol=rel_tol,
    )
    value, _ = integrate_semi_infinite(lambda e: spectrum_curve(spec, pole, e).dP_dE, req)
    return value


@pytest.mark.parametrize("lam,n", [(100.0, 3), (10.0, 1), (0.5, 2), (-10.0, 4)])
def test_single_pole_normalization(lam, n):
    spec = PotentialSpec(lam=lam)
    assert abs(spectrum_norm(spec, find_resonance(spec, n)) - 1.0) <= 1e-6


def test_virtual_state_normalization():
    spec = PotentialSpec(lam=-0.5)
    assert abs(spectrum_norm(spec, find_virtual_state(spec)) - 1.0) <= 1e-6


def test_spectrum_equals_width_spectrum_pointwise():
    # dP/dE = dGbar/dE / Gbar holds to round-off, with dGbar/dE = Gamma_R M^2 / |E - z|^2
    spec = PotentialSpec(lam=10.0)
    pole = find_resonance(spec, 3)
    grid = np.linspace(1.0, 160.0, 800)
    gbar = observables_record(spec, pole).gamma_bar
    lhs = spectrum_curve(spec, pole, grid).dP_dE
    dgbar = pole.gamma_R * matrix_element_squared(spec, pole, grid) / np.abs(grid - pole.z) ** 2
    rhs = dgbar / gbar
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lam, n", [(12.0, 2), (-0.5, 0)])
def test_spectrum_curve_columns_have_the_bits_of_each_function(lam, n):
    # the kernel forms M^2 and |E - z|^2 once and reads every column from them
    spec = PotentialSpec(lam=lam)
    pole = find_resonance(spec, n) if n else find_virtual_state(spec)
    grid = np.linspace(0.01, 160.0, 801)
    curve = spectrum_curve(spec, pole, grid)
    assert curve.grid is grid
    m2, gamma = matrix_element_squared(spec, pole, grid), observables_record(spec, pole).gamma
    # dP/dE = M^2 / |E - z|^2 / Gamma, with |E - z|^2 formed as the kernel forms it
    assert np.allclose(curve.dP_dE, m2 / np.abs(grid - pole.z) ** 2 / gamma, rtol=1e-14, atol=0)
    hw = 0.5 * pole.gamma_R
    assert curve.dP_dE.tobytes() == (m2 / ((grid - pole.e_R) ** 2 + hw * hw) / gamma).tobytes()
    assert curve.matrix_element.tobytes() == m2.tobytes()
    if n:
        lorentzian = (hw / np.pi) / ((grid - pole.e_R) ** 2 + hw * hw)
        assert curve.breit_wigner.tobytes() == lorentzian.tobytes()
    else:
        assert hw == 0.0 and curve.breit_wigner.tobytes() == np.zeros_like(grid).tobytes()
    assert curve.normalization_used == observables_record(spec, pole).gamma


def test_spectrum_curve_forms_m2_and_the_denominator_once(monkeypatch):
    calls = Counter()
    for name in ("matrix_element_squared", "_lorentz_denominator"):
        def counted(*args, _name=name, _real=getattr(spectra, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(spectra, name, counted)
    spec = PotentialSpec(lam=12.0)
    spectrum_curve(spec, find_resonance(spec, 2), np.linspace(0.01, 160.0, 20001))
    assert calls == {"matrix_element_squared": 1, "_lorentz_denominator": 1}


@pytest.mark.parametrize("name", ["decay_width_differential", "decay_constant_differential"])
def test_differentials_check_the_energies_once(name, monkeypatch):
    # dP/dE checks the energies once: M^2 checks them, and the Lorentzian is formed on the
    # same floats after it. It is each differential over its total, with the differentials
    # formed here from M^2: dC/dE / C to the bit, dGbar/dE / Gbar to round-off
    calls = Counter()

    def counted(e, _real=scattering._energies):
        calls["_energies"] += 1
        return _real(e)

    monkeypatch.setattr(scattering, "_energies", counted)
    monkeypatch.setattr(spectra, "_energies", counted)
    spec = PotentialSpec(lam=12.0)
    pole = find_resonance(spec, 2)
    grid = np.linspace(0.01, 160.0, 801)
    out = spectrum_curve(spec, pole, grid).dP_dE
    assert calls == {"_energies": 1}
    m2 = matrix_element_squared(spec, pole, grid)
    hw = 0.5 * pole.gamma_R
    lor = (grid - pole.e_R) ** 2 + hw * hw
    rec = observables_record(spec, pole)
    assert out.tobytes() == (m2 / lor / rec.gamma).tobytes()
    if name == "decay_width_differential":
        differential, total = pole.gamma_R / lor * m2, rec.gamma_bar
    else:
        differential, total = m2 / lor, rec.gamma
    assert np.allclose(out, differential / total, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("renormalize", [True, False], ids=["renormalized", "raw"])
@pytest.mark.parametrize("lam, indices, window", [
    (-17.5, (3, 4), (20.0, 120.0)), (12.0, (1, 2), (1.0, 90.0)), (100.0, (2, 3), (1e-3, 150.0)),
])
def test_interference_curve_has_the_bits_of_two_matrix_elements(lam, indices, window,
                                                                renormalize, monkeypatch):
    # lam chi(E) is formed once, and each pole's term is it times the pole's shell
    # amplitude: the bits of c1 m1 / (z1 - E) + c2 m2 / (z2 - E), m_i = matrix_element,
    # with the energies checked once. The largest part of c1, c2 lies in [1/2, 1), so
    # the renormalized curve scales neither them nor its norm.
    calls = Counter()

    def counted(e, _real=scattering._energies):
        calls["_energies"] += 1
        return _real(e)

    monkeypatch.setattr(scattering, "_energies", counted)
    monkeypatch.setattr(spectra, "_energies", counted)
    spec = PotentialSpec(lam=lam)
    pole1, pole2 = (find_resonance(spec, n) for n in indices)
    cfg = InterferenceConfig(c1=complex(0.8, 0.0), c2=complex(0.2, -0.1), renormalize=renormalize)
    grid = np.linspace(*window, 4001)
    curve = interference_curve(spec, pole1, pole2, cfg, grid)
    assert calls == {"_energies": 1}
    m1, m2 = matrix_element(spec, pole1, grid), matrix_element(spec, pole2, grid)
    norm = curve.normalization_used if renormalize else 1.0
    expected = np.abs(cfg.c1 * m1 / (pole1.z - grid) + cfg.c2 * m2 / (pole2.z - grid)) ** 2 / norm
    assert curve.dP_dE.tobytes() == expected.tobytes()


def test_zeros_inherited_from_matrix_element():
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    for m in (2, 4, 6):
        val = spectrum_curve(spec, pole, (m * math.pi) ** 2).dP_dE
        assert val < 1e-22


def test_sharp_peak_location_and_asymmetry():
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    grid = np.linspace(pole.e_R - 2 * pole.gamma_R, pole.e_R + 2 * pole.gamma_R, 20001)
    values = spectrum_curve(spec, pole, grid).dP_dE
    peak = grid[np.argmax(values)]
    assert pole.e_R - pole.gamma_R <= peak <= pole.e_R + pole.gamma_R
    assert abs(peak - pole.e_R) > 5.0 * (grid[1] - grid[0])  # skewed off the pole energy
    delta = pole.gamma_R
    up = spectrum_curve(spec, pole, pole.e_R + delta).dP_dE
    down = spectrum_curve(spec, pole, pole.e_R - delta).dP_dE
    assert abs(up - down) > 1e-3 * max(up, down)


def test_sharp_spectrum_tracks_breit_wigner_near_peak():
    # the spectrum peak sits below the Breit-Wigner peak by exactly the
    # factor gamma_sharp/gamma (half the probability lives off-peak); after
    # peak-normalizing, the two shapes agree closely for this sharp pole
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    curve = spectrum_curve(
        spec, pole, np.linspace(pole.e_R - 5 * pole.gamma_R, pole.e_R + 5 * pole.gamma_R, 8001)
    )
    gamma_sharp = observables_record(spec, pole).gamma_sharp
    gamma = curve.normalization_used
    peak_ratio = np.max(curve.dP_dE) / np.max(curve.breit_wigner)
    assert peak_ratio == pytest.approx(gamma_sharp / gamma, rel=0.02)
    e_peak_dp = curve.grid[np.argmax(curve.dP_dE)]
    e_peak_bw = curve.grid[np.argmax(curve.breit_wigner)]
    assert abs(e_peak_dp - e_peak_bw) <= 0.25 * pole.gamma_R
    near = np.abs(curve.grid - pole.e_R) <= pole.gamma_R
    shapes = curve.dP_dE[near] / np.max(curve.dP_dE) - curve.breit_wigner[near] / np.max(
        curve.breit_wigner
    )
    assert np.max(np.abs(shapes)) <= 0.15


def test_breit_wigner_column_symmetric_spectrum_not():
    spec = PotentialSpec(lam=10.0)
    pole = find_resonance(spec, 3)
    delta = np.linspace(0.1, 1.0, 7) * pole.gamma_R
    bw = lambda e: (0.5 * pole.gamma_R / np.pi) / (
        (e - pole.e_R) ** 2 + (0.5 * pole.gamma_R) ** 2
    )
    assert np.allclose(bw(pole.e_R + delta), bw(pole.e_R - delta), rtol=1e-14)
    up = spectrum_curve(spec, pole, pole.e_R + delta).dP_dE
    down = spectrum_curve(spec, pole, pole.e_R - delta).dP_dE
    assert np.all(np.abs(up - down) > 1e-4 * np.maximum(up, down))


def test_threshold_enhancement_for_broad_resonance():
    # lam=10, n=3: the spectrum shows a bump near threshold, i.e. it turns
    # over and decreases well below the resonance peak, unlike the
    # Breit-Wigner which rises monotonically toward E_R on (0, E_R)
    spec = PotentialSpec(lam=10.0)
    pole = find_resonance(spec, 3)
    curve = spectrum_curve(spec, pole, np.linspace(1e-3, 0.3 * pole.e_R, 4001))
    i_bump = int(np.argmax(curve.dP_dE))
    assert 0 < i_bump < len(curve.grid) - 1  # interior local maximum
    assert curve.grid[i_bump] < 0.1 * pole.e_R  # sits essentially at threshold
    after = curve.dP_dE[i_bump:]
    assert np.min(np.diff(after[: len(after) // 2])) < 0.0  # falls past the bump
    assert curve.dP_dE[i_bump] > curve.breit_wigner[i_bump]  # enhanced above BW


def test_virtual_spectrum_threshold_peak():
    # sharp peak pinned at threshold: maximum within the first few percent
    # of the window, strictly decreasing beyond it, large peak-to-edge ratio
    spec = PotentialSpec(lam=-0.5)
    pole = find_virtual_state(spec)
    curve = spectrum_curve(spec, pole, np.linspace(1e-3, 2.0, 8001))
    i_peak = int(np.argmax(curve.dP_dE))
    assert curve.grid[i_peak] <= 0.15
    tail = curve.dP_dE[i_peak:]
    assert np.all(np.diff(tail) < 0.0)
    assert curve.dP_dE[i_peak] > 5.0 * curve.dP_dE[-1]


def test_multi_spectrum_peak_ordering():
    spec = PotentialSpec(lam=100.0)
    grid = np.linspace(1.0, 120.0, 60001)
    curves = [spectrum_curve(spec, find_resonance(spec, n), grid) for n in (1, 2, 3)]
    peaks = [float(np.max(c.dP_dE)) for c in curves]
    assert peaks[0] > peaks[1] > peaks[2]


@pytest.mark.parametrize("c1, c2", [
    (math.nan, 0.0), (complex(math.inf, 0.0), 0.0), (0.5, complex(0.0, -math.inf)),
    (1.0, complex(math.nan, math.nan)),
])
def test_interference_config_rejects_non_finite_coefficients(c1, c2):
    with pytest.raises(InvalidInput):
        InterferenceConfig(c1=c1, c2=c2)


def test_interference_single_pole_reduction():
    spec = PotentialSpec(lam=100.0)
    p1 = find_resonance(spec, 1)
    p2 = find_resonance(spec, 2)
    cfg = InterferenceConfig(c1=0.8 + 0.1j, c2=0.0, renormalize=False)
    grid = np.linspace(2.0, 60.0, 400)
    gamma = observables_record(spec, p1).gamma
    raw = interference_curve(spec, p1, p2, cfg, grid).dP_dE
    single = abs(cfg.c1) ** 2 * gamma * spectrum_curve(spec, p1, grid).dP_dE
    assert np.allclose(raw, single, rtol=1e-12, atol=1e-300)


def test_interference_swap_symmetry():
    spec = PotentialSpec(lam=100.0)
    p1 = find_resonance(spec, 1)
    p2 = find_resonance(spec, 2)
    grid = np.linspace(2.0, 60.0, 200)
    direct = interference_curve(
        spec, p1, p2, InterferenceConfig(c1=0.6, c2=0.3 + 0.2j, renormalize=False), grid
    ).dP_dE
    swapped = interference_curve(
        spec, p2, p1, InterferenceConfig(c1=0.3 + 0.2j, c2=0.6, renormalize=False), grid
    ).dP_dE
    assert np.array_equal(direct, swapped)


def test_interference_renormalized_integrates_to_one():
    spec = PotentialSpec(lam=100.0)
    p1 = find_resonance(spec, 1)
    p2 = find_resonance(spec, 2)
    cfg = InterferenceConfig()
    req = QuadratureRequest(
        peak_center=p1.e_R,
        peak_halfwidth=0.5 * p1.gamma_R,
        oscillation_wavenumber=math.pi,
    )
    extra = tuple(p2.e_R + s * j * 0.5 * p2.gamma_R for j in (1, 2, 4, 8) for s in (-1, 1))
    value, _ = integrate_semi_infinite(
        lambda e: interference_curve(spec, p1, p2, cfg, e).dP_dE, req, extra_edges=extra
    )
    assert abs(value - 1.0) <= 1e-6


def test_interference_cross_term_present_and_bounded():
    spec = PotentialSpec(lam=100.0)
    p1 = find_resonance(spec, 1)
    p2 = find_resonance(spec, 2)
    cfg = InterferenceConfig(renormalize=False)
    mid = 0.5 * (p1.e_R + p2.e_R)
    def raw(c1, c2, e):
        return interference_curve(spec, p1, p2, InterferenceConfig(c1, c2, False), e).dP_dE

    both = raw(cfg.c1, cfg.c2, mid)
    cross = both - raw(cfg.c1, 0.0, mid) - raw(0.0, cfg.c2, mid)
    peak1 = raw(cfg.c1, 0.0, p1.e_R)
    assert cross != 0.0
    assert abs(cross) < peak1


def test_interference_requires_resonances():
    spec = PotentialSpec(lam=-0.5)
    res = find_resonance(spec, 1)
    virt = find_virtual_state(spec)
    with pytest.raises(InvalidInput):
        interference_curve(spec, res, virt, InterferenceConfig(), 1.0)
    anti = find_anti_resonance(spec, 1)
    with pytest.raises(InvalidInput):
        interference_curve(spec, res, anti, InterferenceConfig(), 1.0)


@pytest.mark.parametrize("lam, kinds", (
    (10.0, ("anti", "anti")),
    (10.0, ("res", "anti")),
    (10.0, ("anti", "res")),
    (-0.5, ("res", "virtual")),
    (-0.5, ("virtual", "res")),
    (-0.5, ("virtual", "anti")),
))
def test_interference_curve_and_spectrum_require_resonances(lam, kinds):
    spec = PotentialSpec(lam=lam)
    make = {
        "res": lambda i: find_resonance(spec, i),
        "anti": lambda i: find_anti_resonance(spec, i),
        "virtual": lambda i: find_virtual_state(spec),
    }
    p1, p2 = (make[kind](i) for i, kind in enumerate(kinds, start=1))
    with pytest.raises(InvalidInput, match="operation defined for resonance poles"):
        interference_curve(spec, p1, p2, InterferenceConfig(), 1.0)
    with pytest.raises(InvalidInput, match="operation defined for resonance poles"):
        interference_curve(spec, p1, p2, InterferenceConfig(), np.linspace(1.0, 50.0, 5))


def test_interference_config_validation():
    with pytest.raises(InvalidInput):
        InterferenceConfig(c1=0.0, c2=0.0)


def test_interference_curve_normalization_used():
    # the norm is that of the coefficients as given, also where they are scaled
    # by a power of two inside (their largest part outside [1/2, 1))
    spec = PotentialSpec(lam=100.0)
    p1 = find_resonance(spec, 1)
    p2 = find_resonance(spec, 2)
    for cfg in (InterferenceConfig(), InterferenceConfig(c1=1.0, c2=1.0),
                InterferenceConfig(c1=1.0, c2=0.0), InterferenceConfig(c1=1e-3, c2=0.0)):
        grid = np.linspace(2.0, 60.0, 301)
        curve = interference_curve(spec, p1, p2, cfg, grid)
        assert curve.grid is grid
        assert curve.breit_wigner is None and curve.matrix_element is None
        assert curve.normalization_used > 0.0
        raw = interference_curve(spec, p1, p2, replace(cfg, renormalize=False), grid)
        assert raw.normalization_used == 1.0
        assert np.allclose(raw.dP_dE / curve.normalization_used, curve.dP_dE, rtol=1e-14)


_PART = st.floats(-1.0, 1.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)


@settings(max_examples=60, deadline=None)
@given(
    lam=st.sampled_from([-17.5, 3.0, 12.0, 100.0, 250.0]),
    first=st.integers(1, 4),
    parts=st.tuples(_PART, _PART, _PART, _PART),
    k=st.integers(-900, 900),
)
def test_renormalized_interference_bits_do_not_depend_on_a_common_scale(lam, first, parts, k):
    # the curve does not depend on a common scale of (c1, c2): 2^k c, an exact scaling,
    # moves no bit, also past |k| ~ 512, where |amp|^2 and the norm alone over- or underflow
    c1, c2 = complex(*parts[:2]), complex(*parts[2:])
    assume(c1 != 0 or c2 != 0)
    spec = PotentialSpec(lam=lam)
    p1, p2 = find_resonance(spec, first), find_resonance(spec, first + 1)
    grid = np.linspace(0.5 * p1.e_R, 1.5 * p2.e_R, 64)
    base = interference_curve(spec, p1, p2, InterferenceConfig(c1=c1, c2=c2), grid)
    scale = 2.0**k
    scaled = interference_curve(
        spec, p1, p2, InterferenceConfig(c1=c1 * scale, c2=c2 * scale), grid
    )
    assert np.isfinite(base.dP_dE).all()
    assert np.array_equal(base.dP_dE.view(np.uint64), scaled.dP_dE.view(np.uint64))
    # the norm is that of the coefficients as given: 4^k times the base one, inf past
    # the largest float and rounded, as one ldexp rounds, below the smallest normal
    try:
        expected = math.ldexp(base.normalization_used, 2 * k)
    except OverflowError:
        expected = math.inf
    assert scaled.normalization_used == expected


def test_raw_interference_past_the_largest_float_is_refused():
    spec = PotentialSpec(lam=12.0)
    p1, p2 = find_resonance(spec, 1), find_resonance(spec, 2)
    cfg = InterferenceConfig(c1=1e160, c2=1.0, renormalize=False)
    message = "interference spectrum at strength 12.0 exceeds the largest float at E = 30.0"
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        interference_curve(spec, p1, p2, cfg, np.linspace(30.0, 60.0, 3))
    with pytest.raises(InvalidInput, match="exceeds the largest float"):
        interference_curve(spec, p1, p2, cfg, 45.0)


def test_wide_grid_trapezoid_area():
    # a wide composite grid captures nearly all of the unit probability;
    # half of it lives away from the peak, so the grid must span the
    # matrix-element-weighted continuum, not just a few widths
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    coarse = np.geomspace(1e-4, 2000.0, 30001)
    fine = np.linspace(pole.e_R - 20 * pole.gamma_R, pole.e_R + 20 * pole.gamma_R, 30001)
    grid = np.unique(np.concatenate([coarse, fine]))
    area = np.trapezoid(spectrum_curve(spec, pole, grid).dP_dE, grid)
    assert 0.95 <= area <= 1.0

    specv = PotentialSpec(lam=-0.5)
    pole_v = find_virtual_state(specv)
    grid_v = np.geomspace(1e-6, 5000.0, 60001)
    area_v = np.trapezoid(spectrum_curve(specv, pole_v, grid_v).dP_dE, grid_v)
    assert 0.95 <= area_v <= 1.0


def test_nonnegative_everywhere():
    spec = PotentialSpec(lam=10.0)
    pole = find_resonance(spec, 1)
    grid = np.linspace(1e-3, 300.0, 3000)
    curve = spectrum_curve(spec, pole, grid)
    assert np.all(curve.dP_dE >= 0.0)
    p2 = find_resonance(spec, 2)
    icurve = interference_curve(spec, pole, p2, InterferenceConfig(), grid)
    assert np.all(icurve.dP_dE >= 0.0)
