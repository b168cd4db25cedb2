"""Cross section and approximants: unitarity, ratio identities, peak algebra."""

import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import deltashell.cli as cli
import deltashell.cross_sections as cross_sections
from deltashell import (
    InvalidInput,
    PotentialSpec,
    cross_section_bundle,
    cross_section_exact,
    find_resonance,
    find_virtual_state,
    zeldovich_norm,
)
from reference import reference_cross_section


# 5e-324 to 1e4 by ratios, plus both sides of the zeros and sharp peaks near k = m pi
_CONTRACT_ENERGIES = np.unique(np.concatenate([
    np.geomspace(5e-324, 1e4, 300),
    (np.pi * np.arange(1, 21)) ** 2 * (1.0 - 1e-4),
    (np.pi * np.arange(1, 21)) ** 2 * (1.0 + 1e-4),
]))


@pytest.mark.parametrize("lam", (0.5, -0.5, 12.0, -12.0, 700.0, -700.0, -1.0, -1.0 + 1e-7,
                                 -1.0 - 1e-7, -1.0 + 1e-3, -1.0 - 1e-3))
def test_exact_matches_the_jost_reference_to_its_conditioning(lam):
    # relative error within 1e-15 (1 + 4k|cot k|): the second term is sin^4 k's
    # conditioning on the rounding of k = sqrt(E), next to the zeros E = (m pi)^2;
    # finite, and with no RuntimeWarning, wherever the reference is a float, and
    # refused, still with no RuntimeWarning, where it is not
    spec = PotentialSpec(lam=lam)
    e = _CONTRACT_ENERGIES
    ref = np.array([float(reference_cross_section(lam, x)) for x in e])
    fits = ref <= sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = cross_section_exact(spec, e[fits])
    k = np.sqrt(e[fits])
    bound = 1e-15 * (1.0 + 4.0 * k * np.abs(np.cos(k) / np.sin(k)))
    assert np.all(np.isfinite(sigma))
    assert np.all(np.abs(sigma - ref[fits]) <= bound * ref[fits])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in e[~fits]:
            with pytest.raises(InvalidInput, match="^cross_section_exact at strength .* "
                               "exceeds the largest float at E = "):
                cross_section_exact(spec, x)


def test_vanishes_in_free_limit():
    spec = PotentialSpec(lam=1e-9)
    for e in (0.5, 5.0, 50.0):
        assert cross_section_exact(spec, e) < 1e-15


@pytest.mark.parametrize("lam", (0.5, 10.0, 100.0, -10.0))
def test_unitarity_bound(lam):
    spec = PotentialSpec(lam=lam)
    e = np.linspace(1e-3, 900.0, 5000)
    sigma = cross_section_exact(spec, e)
    assert np.all(sigma <= 4.0 * np.pi / e + 1e-9)


def test_exact_peak_near_resonance():
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    e = np.linspace(pole.e_R - 5 * pole.gamma_R, pole.e_R + 5 * pole.gamma_R, 8001)
    peak_e = e[np.argmax(cross_section_exact(spec, e))]
    assert pole.e_R - pole.gamma_R <= peak_e <= pole.e_R + pole.gamma_R


def test_laurent_proportional_to_e_unitarized():
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    bundle = cross_section_bundle(spec, pole, np.linspace(60.0, 110.0, 500))
    ratio = bundle.laurent / bundle.e_unitarized
    residue_e = -2j * pole.k * zeldovich_norm(spec, pole)  # 2k res_k S, N^2 = i res_k S
    expected = abs(residue_e) ** 2 / pole.gamma_R**2
    assert np.allclose(ratio, expected, rtol=1e-12)


def test_laurent_peak_close_to_exact():
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    exact_peak = cross_section_exact(spec, pole.e_R)
    laurent_peak = cross_section_bundle(spec, pole, pole.e_R).laurent
    assert abs(laurent_peak - exact_peak) <= 0.10 * exact_peak


def test_laurent_high_energy_falloff():
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    assert cross_section_bundle(spec, pole, 1e8).laurent < 1e-18


def test_e_unitarized_peak_value_exact():
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    peak = float(cross_section_bundle(spec, pole, pole.e_R).e_unitarized)
    assert peak == pytest.approx(4.0 * math.pi / pole.e_R, rel=1e-14)


def test_e_unitarized_s_approximant_unimodular():
    pole = find_resonance(PotentialSpec(lam=100.0), 3)
    for e in np.linspace(60.0, 110.0, 50):
        s_approx = (e - pole.z.conjugate()) / (e - pole.z)
        assert abs(abs(s_approx) - 1.0) < 1e-14


def test_k_unitarized_peak_algebra():
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    e_at_alpha = pole.alpha_R**2
    peak = float(cross_section_bundle(spec, pole, e_at_alpha).k_unitarized)
    assert peak == pytest.approx(4.0 * math.pi / e_at_alpha, rel=1e-14)


def test_unitarized_ratio_identity_and_value():
    # e-unitarized / k-unitarized is the closed form 4 alpha^2 / ((k + alpha)^2 + beta^2)
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    e = np.linspace(pole.e_R - 10 * pole.gamma_R, pole.e_R + 10 * pole.gamma_R, 1000)
    alpha, beta = pole.alpha_R, pole.beta_R
    ratio = 4.0 * alpha**2 / ((np.sqrt(e) + alpha) ** 2 + beta**2)
    bundle = cross_section_bundle(spec, pole, e)
    quotient = bundle.e_unitarized / bundle.k_unitarized
    assert np.max(np.abs(ratio - quotient)) <= 1e-12 * np.max(ratio)
    at_peak = ratio[np.argmin(np.abs(e - pole.e_R))]
    assert 0.999 <= at_peak <= 1.001


def test_e_vs_k_unitarized_indistinguishable_at_figure_scale():
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    e = np.linspace(pole.e_R - 10 * pole.gamma_R, pole.e_R + 10 * pole.gamma_R, 4001)
    bundle = cross_section_bundle(spec, pole, e)
    sig_e, sig_k = bundle.e_unitarized, bundle.k_unitarized
    assert np.max(np.abs(sig_e - sig_k)) <= 1e-3 * np.max(sig_e)


def test_all_approximants_within_band_near_peak():
    # the exact cross section carries a background-interference zero about
    # one width below the peak, so pointwise relative bands are meaningless
    # there; at figure scale (deviation relative to the peak height) the
    # three approximants track the exact curve and are mutually much closer
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    e = np.linspace(pole.e_R - 3 * pole.gamma_R, pole.e_R + 3 * pole.gamma_R, 2001)
    bundle = cross_section_bundle(spec, pole, e)
    exact = bundle.exact
    peak = float(np.max(exact))
    approximants = [bundle.laurent, bundle.e_unitarized, bundle.k_unitarized]
    for approx in approximants:
        assert np.max(np.abs(approx - exact)) <= 0.25 * peak
        assert abs(np.max(approx) - peak) <= 0.10 * peak
    for i in range(len(approximants)):
        for j in range(i + 1, len(approximants)):
            mutual = np.max(np.abs(approximants[i] - approximants[j]))
            assert mutual <= 0.05 * peak


def test_two_pole_duplicate_collapses_to_four_lorentzians():
    # with both poles identical the cross term equals the direct terms,
    # so the two-pole form is exactly four times the Laurent form
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 1)
    e = np.linspace(5.0, 50.0, 300)
    bundle = cross_section_bundle(spec, pole, e, second_index=pole.index)
    assert np.allclose(bundle.two_pole, 4.0 * bundle.laurent, rtol=1e-12)


def test_two_pole_swap_symmetry():
    spec = PotentialSpec(lam=100.0)
    p1 = find_resonance(spec, 1)
    p2 = find_resonance(spec, 2)
    e = np.linspace(5.0, 50.0, 300)
    assert np.array_equal(cross_section_bundle(spec, p1, e, second_index=p2.index).two_pole,
                          cross_section_bundle(spec, p2, e, second_index=p1.index).two_pole)


def test_two_pole_interference_midpoint():
    spec = PotentialSpec(lam=100.0)
    p1 = find_resonance(spec, 1)
    p2 = find_resonance(spec, 2)
    mid = 0.5 * (p1.e_R + p2.e_R)
    at_mid = cross_section_bundle(spec, p1, mid, second_index=p2.index)
    cross = at_mid.two_pole - at_mid.laurent - cross_section_bundle(spec, p2, mid).laurent
    assert cross != 0.0
    assert abs(cross) < cross_section_bundle(spec, p1, p1.e_R).laurent
    assert abs(cross) < cross_section_bundle(spec, p2, p2.e_R).laurent


def test_kind_and_energy_validation():
    spec = PotentialSpec(lam=-0.5)
    virt = find_virtual_state(spec)
    with pytest.raises(InvalidInput):
        cross_section_bundle(spec, virt, 1.0)
    res = find_resonance(spec, 1)
    with pytest.raises(InvalidInput):
        cross_section_exact(spec, -1.0)
    with pytest.raises(InvalidInput):
        cross_section_bundle(spec, res, 0.0)


_APPROXIMANTS = ("laurent", "e_unitarized", "k_unitarized", "two_pole")


@pytest.mark.parametrize("name", [f"cross_section_{column}" for column in _APPROXIMANTS])
@pytest.mark.parametrize("e", [1e-310, 5e-324, np.array([5e-324, 1e-300, 1.0])])
def test_column_past_the_largest_float_is_refused_not_inf(name, e, monkeypatch):
    # pi/E alone exceeds the largest float below E ~ 1.7e-308: a typed refusal
    # naming the column, the strength and the first such energy, with no warning.
    # The bundle refuses the first such column, so the bodies before this one are
    # made finite: its own body is then the one refused
    column = name.removeprefix("cross_section_")
    for before in _APPROXIMANTS[:_APPROXIMANTS.index(column)]:
        monkeypatch.setattr(cross_sections, f"_{before}", lambda *args: np.ones_like(args[-1]))
    spec = PotentialSpec(lam=12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput) as info:
            cross_section_bundle(spec, find_resonance(spec, 1), e, second_index=2)
    first = float(np.ravel(e)[0])
    assert str(info.value) == (f"{name} at strength 12.0 exceeds the largest float "
                               f"at E = {first!r}")
    # sigma itself stays finite there: 4 pi lam^2 / (1 + lam)^2
    assert cross_section_exact(spec, first) == pytest.approx(4 * math.pi * 144 / 169)


def _cli_energies(argv, capsys):
    """The E column of a cross-section command line."""
    assert cli.main(["cross-section", *argv]) == 0
    return [float(row.split(",")[0]) for row in capsys.readouterr().out.splitlines()[1:]]


def _one_minus_sinc_piecewise(x):
    """1 - sin(x)/x as np.piecewise once formed it: the reference for its bits."""
    series = cross_sections._SINC_SERIES
    return np.piecewise(x, [x < 0.5], [lambda x: x * x * np.polyval(series, x * x),
                                       lambda x: 1.0 - np.sin(x) / x])


_HALF = np.nextafter(0.5, 0.0)


@pytest.mark.parametrize("x", [
    np.float64(0.25), np.float64(_HALF), np.float64(0.5), np.float64(3.0), np.float64(1e-300),
    np.asarray(0.49), np.asarray(0.5), np.asarray(7.0),
    np.linspace(1e-3, 2.0, 1001), np.geomspace(1e-300, 10.0, 513),
    np.array([_HALF, 0.5, np.nextafter(0.5, 1.0)]), np.linspace(0.01, 0.4, 17),
    np.linspace(0.6, 100.0, 19), *(np.linspace(0.3, 0.7, size) for size in range(1, 10)),
    np.random.default_rng(30).uniform(0.0, 1.0, 4099),
], ids=lambda x: f"{np.ndim(x)}d-{np.size(x)}")
def test_one_minus_sinc_has_the_bits_of_its_piecewise_form(x):
    # the series overwrites the x < 1/2 cells of 1 - sin(x)/x formed on all of x
    out, expected = cross_sections._one_minus_sinc(x), _one_minus_sinc_piecewise(x)
    assert isinstance(out, np.ndarray) and out.shape == np.shape(x)
    assert out.tobytes() == np.asarray(expected).tobytes()


def test_bundle_checks_the_energies_and_the_pole_once(monkeypatch):
    # the bundle runs each column's body on energies and a pole it checked once; every
    # column keeps the bits of its body, and the exact one those of cross_section_exact
    calls = Counter()
    for name in ("_energies", "_require_kind"):
        def counted(*args, _name=name, _real=getattr(cross_sections, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(cross_sections, name, counted)
    spec = PotentialSpec(lam=12.0)
    pole, second = find_resonance(spec, 2), find_resonance(spec, 3)
    grid = np.linspace(1.0, 90.0, 2001)
    bundle = cross_section_bundle(spec, pole, grid, second_index=3)
    assert calls == {"_energies": 1, "_require_kind": 1}
    assert bundle.grid is grid
    columns = {"exact": cross_section_exact(spec, grid),
               "laurent": cross_sections._laurent(spec, pole, grid),
               "e_unitarized": cross_sections._e_unitarized(spec, pole, grid),
               "k_unitarized": cross_sections._k_unitarized(spec, pole, grid),
               "two_pole": cross_sections._two_pole(spec, pole, second, grid)}
    for name, column in columns.items():
        assert getattr(bundle, name).tobytes() == column.tobytes(), name


def test_bundle_columns_and_window(capsys):
    # the bundle is every column on the energies it is given; the command line
    # builds them, by default on E_R +/- 10 Gamma_R
    spec = PotentialSpec(lam=100.0)
    pole = find_resonance(spec, 3)
    grid = np.linspace(pole.e_R - 10 * pole.gamma_R, pole.e_R + 10 * pole.gamma_R, 501)
    bundle = cross_section_bundle(spec, pole, grid)
    assert bundle.grid is grid and bundle.two_pole is None
    assert np.all(bundle.exact <= 4 * np.pi / bundle.grid + 1e-9)
    with_second = cross_section_bundle(spec, find_resonance(spec, 1), np.linspace(1.0, 60.0, 101),
                                       second_index=2)
    assert with_second.two_pole is not None and len(with_second.two_pole) == 101
    energies = _cli_energies(["--lambda", "100", "--index", "3", "--points", "501"], capsys)
    assert len(energies) == 501
    assert energies[0] == pytest.approx(pole.e_R - 10 * pole.gamma_R)
    assert energies[-1] == pytest.approx(pole.e_R + 10 * pole.gamma_R)


def test_bundle_window_clipped_positive_for_broad_pole(capsys):
    # the command line's default lower edge is clipped to 1e-6 E_R > 0
    pole = find_resonance(PotentialSpec(lam=0.5), 1)
    assert pole.e_R - 10 * pole.gamma_R < 0.0
    energies = _cli_energies(["--lambda", "0.5", "--index", "1", "--points", "101"], capsys)
    assert energies[0] > 0.0 and energies[0] == pytest.approx(1e-6 * pole.e_R)


@pytest.mark.parametrize("lam", (-1e-200, -1e-150))
def test_bundle_refuses_an_empty_default_window_by_name(lam, capsys):
    # E_R < 0 and Gamma_R << |E_R|: E_R +/- 10 Gamma_R holds no positive energy,
    # and the command line's refusal names the pole and its window, not bounds
    # never given; a given window answers
    spec = PotentialSpec(lam=lam)
    pole = find_resonance(spec, 1)
    assert pole.e_R + 10.0 * pole.gamma_R < 0.0
    message = (f"the default window E_R +/- 10 Gamma_R of resonance 1 at strength {lam!r} "
               f"(E_R = {pole.e_R!r}, Gamma_R = {pole.gamma_R!r}) is empty once clipped "
               "to positive energies; give one with --emin and --emax")
    line = ["cross-section", "--lambda", repr(lam), "--index", "1", "--points", "11"]
    for window in ([], ["--emin", "1"]):
        assert cli.main(line + window) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    energies = _cli_energies(line[1:] + ["--emin", "1", "--emax", "2"], capsys)
    assert energies[0] == 1.0 and energies[-1] == 2.0
    assert cli.main(line + ["--emin", "2", "--emax", "1"]) == 2
    assert capsys.readouterr() == ("", "error: need 0 < e_min < e_max < inf\n")
