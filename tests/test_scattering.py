"""Jost functions, S-matrix, residues, wavefunction, matrix element."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import deltashell.cross_sections as cross_sections
import deltashell.spectra as spectra
from deltashell import (
    DegeneratePole,
    InterferenceConfig,
    InvalidInput,
    Pole,
    PoleKind,
    PotentialSpec,
    enumerate_poles,
    find_anti_resonance,
    find_bound_state,
    find_resonance,
    find_virtual_state,
    matrix_element,
    matrix_element_squared,
    observables_record,
    zeldovich_norm,
)
from grid_helpers import jost, resonant_wavefunction, s_matrix, s_matrix_energy


@pytest.fixture(scope="module")
def spec100():
    return PotentialSpec(lam=100.0)


@pytest.fixture(scope="module")
def table1_poles(spec100):
    return enumerate_poles(spec100, 8)


def test_jost_conjugate_pair_on_real_axis():
    rng = np.random.default_rng(3)
    for lam in (0.5, 10.0, -0.5, -10.0):
        spec = PotentialSpec(lam=lam)
        for k in rng.uniform(0.05, 60.0, size=40):
            j1, j2 = jost(spec, complex(k))
            assert abs(j1 - j2.conjugate()) <= 1e-14 * max(1.0, abs(j1))


def test_jost_vanishes_at_pole(spec100, table1_poles):
    for pole in table1_poles:
        _, j2 = jost(spec100, pole.k)
        assert abs(j2) <= 1e-12


def test_jost_rejects_zero():
    with pytest.raises(InvalidInput):
        jost(PotentialSpec(lam=1.0), 0.0)


def test_free_particle_limit():
    spec = PotentialSpec(lam=1e-12)
    j1, j2 = jost(spec, 2.0 + 0j)
    assert abs(j1 - (-0.5j)) < 1e-12
    assert abs(j2 - 0.5j) < 1e-12
    assert abs(s_matrix(spec, 2.0 + 0j) - 1.0) < 1e-11


@pytest.mark.parametrize("lam", (0.5, 10.0, 100.0, -0.5, -10.0, -100.0))
def test_unitarity_on_real_axis(lam):
    spec = PotentialSpec(lam=lam)
    k = np.logspace(-2, 2, 400).astype(complex)
    s = s_matrix(spec, k)
    assert np.max(np.abs(np.abs(s) - 1.0)) <= 1e-12


def test_pole_hit_detection(spec100, table1_poles):
    with pytest.raises(ZeroDivisionError, match="^S-matrix evaluated on top of a pole$"):
        s_matrix(spec100, table1_poles[0].k)


def test_phase_winding_through_sharp_resonance(spec100):
    pole = find_resonance(spec100, 1)
    e = np.linspace(pole.e_R - 10 * pole.gamma_R, pole.e_R + 10 * pole.gamma_R, 4001)
    s = s_matrix(spec100, np.sqrt(e).astype(complex))
    winding = np.unwrap(np.angle(s))[-1] - np.unwrap(np.angle(s))[0]
    # finite window: the arctan jump is short of 2 pi by 4 atan(1/20) ~ 0.2
    assert abs(winding - 2.0 * math.pi) < 0.05 * 2.0 * math.pi


def test_jost_derivative_against_finite_differences(spec100, table1_poles):
    h = 1e-6
    for pole in table1_poles:
        analytic = 1j * (1.0 + spec100.lam * cmath.exp(2j * pole.k)) / (2.0 * pole.k)
        fd = (jost(spec100, pole.k + h)[1] - jost(spec100, pole.k - h)[1]) / (2.0 * h)
        assert abs(analytic - fd) <= 1e-6 * abs(analytic)


def _contour_residue(spec, pole, samples=4096):
    # (1/2 pi i) closed-contour integral of S(E) on a circle of radius
    # gamma_R/4 around the pole energy; trapezoid on a periodic analytic
    # integrand converges spectrally
    rho = 0.25 * pole.gamma_R
    theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    e = pole.z + rho * np.exp(1j * theta)
    s = s_matrix_energy(spec, e)
    return np.mean(s * rho * np.exp(1j * theta))


@pytest.mark.parametrize("lam,n", [(100.0, 1), (100.0, 3), (10.0, 1), (10.0, 4)])
def test_energy_residue_against_contour_oracle(lam, n):
    spec = PotentialSpec(lam=lam)
    pole = find_resonance(spec, n)
    residue_e = -2j * pole.k * zeldovich_norm(spec, pole)  # 2k res_k S, N^2 = i res_k S
    oracle = _contour_residue(spec, pole)
    assert abs(residue_e - oracle) <= 1e-8 * abs(oracle)


def test_normalization_identities(spec100, table1_poles):
    # the closed form is i res_k S = -i J1(k_R) / J2'(k_R) from the Jost functions
    for pole in table1_poles:
        n2 = zeldovich_norm(spec100, pole)
        j1, _ = jost(spec100, pole.k)
        j2p = 1j * (1.0 + spec100.lam * cmath.exp(2j * pole.k)) / (2.0 * pole.k)
        assert abs(n2 - (-1j * j1 / j2p)) <= 1e-10 * abs(n2)


def test_pole_strength_along_shrinking_ray(spec100):
    pole = find_resonance(spec100, 1)
    res_k = -1j * zeldovich_norm(spec100, pole)
    direction = cmath.exp(0.3j)
    for t, tol in ((1e-6, 1e-3), (1e-9, 1e-6)):
        k = pole.k + t * direction
        strength = abs((k - pole.k) * s_matrix(spec100, k))
        assert abs(strength - abs(res_k)) <= tol * abs(res_k)


def test_bound_state_norm_is_real_positive():
    spec = PotentialSpec(lam=-10.0)
    n2 = zeldovich_norm(spec, find_bound_state(spec))
    assert abs(n2.imag) <= 1e-12 * abs(n2)
    assert n2.real > 0.0


def _mp_closed_form(spec, k):
    """2k^2 / (lam e^x ((1 + lam) - x)), x = 2ik, in 40-digit mpmath at the given k."""
    with mp.workdps(40):
        k, lam = mp.mpc(k), mp.mpf(spec.lam)
        x = 2j * k
        return 2 * k**2 / (lam * mp.exp(x) * ((1 + lam) - x))


def _mp_true_norm(spec, pole):
    """-i J1/J2' from the Jost functions at the 50-digit pole of the same branch."""
    with mp.workdps(50):
        lam = mp.mpf(spec.lam)
        k = (lam - mp.lambertw(lam * mp.exp(lam), pole.branch)) / 2j
        j1 = (-2j * k + lam * (mp.exp(-2j * k) - 1)) / (4 * k)
        j2p = 1j * (1 + lam * mp.exp(2j * k)) / (2 * k)
        return k, -1j * j1 / j2p


# every pole of n <= 15, except at |lam| = 700 where the absolute pole gate
# rejects the higher resonances (ROADMAP item 2), and both threshold poles
@pytest.mark.parametrize("lam,count", [
    (700.0, 4), (-700.0, 5), (100.0, 15), (-100.0, 15), (10.0, 15), (-10.0, 15),
    (0.5, 15), (-0.5, 15), (1e-3, 15), (-1e-3, 15),
    (-1.0 - 1e-7, 3), (-1.0 + 1e-7, 3), (-1.001, 3), (-0.999, 3),
])
def test_zeldovich_norm_scalar_and_matches_mpmath(lam, count):
    spec = PotentialSpec(lam=lam)
    for pole in enumerate_poles(spec, count):
        n2 = zeldovich_norm(spec, pole)
        assert type(n2) is complex
        # rounding: the same closed form at the same double k
        ref = _mp_closed_form(spec, pole.k)
        assert abs(mp.mpc(n2) - ref) / abs(ref) <= 2e-15, (pole, n2, ref)
        # algebra: the Jost-function residue at the true pole
        k_true, true = _mp_true_norm(spec, pole)
        assert abs(mp.mpc(pole.k) - k_true) <= 1e-12 * abs(k_true), (pole, k_true)
        assert abs(mp.mpc(n2) - true) / abs(true) <= 1e-14, (pole, n2, true)


@pytest.mark.parametrize("lam", [-1e-306, -1e-307])
def test_zeldovich_norm_of_a_virtual_state_past_the_exponential_overflow(lam):
    # lam e^{2ik} overflows at the virtual pole from |lam| ~ 5e-306 down, so t is formed
    # as lam - 2ik there; the absolute gate refuses the resonances of these strengths
    spec = PotentialSpec(lam=lam)
    pole = find_virtual_state(spec)
    n2 = zeldovich_norm(spec, pole)
    assert type(n2) is complex
    # e^{2ik} of the closed form turns the rounding of 2ik, |2k| ~ 711 ulps of 1, into a
    # relative error of about 1e-13 (3.7e-14 at -1e-307); lam - 2ik keeps the digits
    ref = _mp_closed_form(spec, pole.k)
    assert abs(mp.mpc(n2) - ref) / abs(ref) <= 2e-13, (n2, ref)
    k_true, true = _mp_true_norm(spec, pole)
    assert abs(mp.mpc(pole.k) - k_true) <= 1e-15 * abs(k_true), (pole, k_true)
    assert abs(mp.mpc(n2) - true) / abs(true) <= 1e-15, (n2, true)


@pytest.mark.parametrize("offset, raises", [
    (0.0, True), (4e-14, True), (-4e-14, True), (6e-14, False), (-6e-14, False),
])
def test_zeldovich_norm_degenerate_band(offset, raises):
    # k = 0.25i: x = 2ik = -0.5 and (1 + lam) - x = 0.5 + lam, so
    # lam = -1.5 + offset puts 1 + t at offset against the tolerance
    # 1e-13 * 2|k| = 5e-14
    pole = Pole(kind=PoleKind.BOUND, branch=0, index=0, k=0.25j, z=complex(-0.0625, 0.0))
    spec = PotentialSpec(lam=-1.5 + offset)
    if raises:
        with pytest.raises(DegeneratePole):
            zeldovich_norm(spec, pole)
    else:
        assert math.isfinite(abs(zeldovich_norm(spec, pole)))


def test_zeldovich_norm_rejects_zero_k():
    pole = Pole(kind=PoleKind.BOUND, branch=0, index=0, k=0j, z=0j)
    with pytest.raises(InvalidInput):
        zeldovich_norm(PotentialSpec(lam=-1.0), pole)


def test_wavefunction_regular_at_origin(spec100, table1_poles):
    for pole in table1_poles[:3]:
        assert resonant_wavefunction(spec100, pole, 0.0) == 0.0


def test_wavefunction_continuity_at_shell(spec100, table1_poles):
    # r is in units of the radius: the shell sits at r = 1
    for pole in table1_poles:
        n_r = np.sqrt(zeldovich_norm(spec100, pole))
        inside = n_r * np.sin(pole.k) / jost(spec100, pole.k)[0]
        outside = n_r * np.exp(1j * pole.k)
        assert abs(inside - outside) <= 1e-10 * abs(outside)


def test_wavefunction_continuity_bound_state():
    spec = PotentialSpec(lam=-10.0)
    pole = find_bound_state(spec)
    eps = 1e-9
    below = resonant_wavefunction(spec, pole, 1.0 - eps)
    above = resonant_wavefunction(spec, pole, 1.0 + eps)
    assert abs(below - above) <= 1e-6 * abs(above)


def test_wavefunction_outgoing_growth(spec100):
    pole = find_resonance(spec100, 3)
    r = np.array([2.0, 5.0, 10.0, 20.0])
    u = resonant_wavefunction(spec100, pole, r)
    expected = np.exp(pole.beta_R * r)
    ratio = np.abs(u) / expected
    assert np.allclose(ratio, ratio[0], rtol=1e-12)
    assert np.all(np.diff(np.abs(u)) > 0)


def test_matrix_element_zeros_on_lattice(spec100):
    pole = find_resonance(spec100, 3)
    for m in (1, 2, 5, 9):
        e = (m * math.pi) ** 2
        assert matrix_element_squared(spec100, pole, e) < 1e-20


def test_matrix_element_positive_and_rejects_nonpositive_energy(spec100):
    pole = find_resonance(spec100, 2)
    grid = np.linspace(0.3, 400.0, 2000)
    assert np.all(matrix_element_squared(spec100, pole, grid) >= 0.0)
    with pytest.raises(InvalidInput):
        matrix_element_squared(spec100, pole, 0.0)
    with pytest.raises(InvalidInput):
        matrix_element_squared(spec100, pole, -1.0)


@pytest.mark.parametrize("lam, n", [(-1e-100, 0), (12.0, 1), (-0.5, 0), (700.0, 2)])
def test_matrix_element_squared_keeps_its_digits_down_to_the_smallest_energy(lam, n):
    # M^2 = (lam^2/pi) |u(1)|^2 sin^2(k)/k against 50-digit mpmath at the library's own
    # pole: pref sin^2(k) underflows where M^2 is still normal (0.0 at lam = -1e-100,
    # E = 1e-300, where M^2 = 3.77e-249), and sin^2(k) itself is subnormal at 5e-324
    spec = PotentialSpec(lam=lam)
    pole = find_resonance(spec, n) if n else find_virtual_state(spec)
    energies = np.array([5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e-20, 2.0, 30.0])
    got = matrix_element_squared(spec, pole, energies)
    with mp.workdps(50):
        k, lam_mp = mp.mpc(pole.k), mp.mpf(lam)
        pref = lam_mp**2 / mp.pi * 2 * abs(k) ** 2 / (abs(lam_mp) * abs(1 + lam_mp - 2j * k))
        for e, value in zip(energies, got):
            q = mp.sqrt(mp.mpf(float(e)))
            ref = pref * mp.sin(q) ** 2 / q
            assert abs(value - ref) <= 4e-16 * (1 + abs(q / mp.tan(q))) * ref, (e, value, ref)


def test_matrix_element_reproduces_sharp_width(spec100):
    # reference sharp width of the third resonance through the Golden-Rule form
    pole = find_resonance(spec100, 3)
    assert 2.0 * math.pi * matrix_element_squared(spec100, pole, pole.e_R) == pytest.approx(
        0.3087, abs=1e-4
    )
    gbs = observables_record(spec100, pole).gamma_bar_sharp
    assert 2.0 * math.pi * matrix_element_squared(spec100, pole, pole.e_R) == pytest.approx(
        gbs, rel=1e-12
    )


def test_matrix_element_envelope_decays(spec100):
    # cell maxima of M^2 between consecutive lattice zeros fall off like 1/sqrt(E)
    pole = find_resonance(spec100, 1)
    maxima = []
    for m in range(10, 16):
        e = np.linspace((m * math.pi) ** 2 + 1e-6, ((m + 1) * math.pi) ** 2 - 1e-6, 400)
        maxima.append(float(np.max(matrix_element_squared(spec100, pole, e))))
    assert all(a > b for a, b in zip(maxima, maxima[1:]))
    mids = np.array([((m + 0.5) * math.pi) ** 2 for m in range(10, 16)])
    scaled = np.array(maxima) * np.sqrt(mids)
    assert np.max(scaled) / np.min(scaled) < 1.05


def test_complex_matrix_element_modulus(spec100):
    pole = find_resonance(spec100, 2)
    grid = np.linspace(0.5, 150.0, 500)
    m = matrix_element(spec100, pole, grid)
    m2 = matrix_element_squared(spec100, pole, grid)
    assert np.allclose(np.abs(m) ** 2, m2, rtol=1e-12, atol=0.0)


def test_anti_resonance_rejected_by_matrix_element(spec100):
    from deltashell import find_anti_resonance

    anti = find_anti_resonance(spec100, 1)
    assert anti.kind is PoleKind.ANTI_RESONANCE
    # the matrix element itself is defined for any pole; observables guard kinds
    val = matrix_element_squared(spec100, anti, 5.0)
    assert val >= 0.0


_CFG = InterferenceConfig()
# every public evaluator of energies, each as f(spec, pole, e); a pole-pair
# evaluator takes resonance 1 of the spec as its second pole. A curve returns
# its record, whose grid is e and whose columns are 0-d for a scalar e
_ENERGY_EVALUATORS = {
    "spectrum_curve": spectra.spectrum_curve,
    "interference_curve": lambda spec, pole, e: spectra.interference_curve(
        spec, pole, find_resonance(spec, 1), _CFG, e),
    "cross_section_bundle": lambda spec, pole, e: cross_sections.cross_section_bundle(
        spec, pole, e, second_index=1),
    "matrix_element_squared": matrix_element_squared,
    "matrix_element": matrix_element,
    "cross_section_exact": lambda spec, pole, e: cross_sections.cross_section_exact(spec, e),
}
_ANY_POLE = {"matrix_element_squared", "matrix_element", "cross_section_exact"}
_CURVES = {"spectrum_curve", "interference_curve", "cross_section_bundle"}


@pytest.mark.parametrize("name", sorted(_ENERGY_EVALUATORS))
def test_energy_evaluator_returns_a_scalar_for_a_scalar(name, spec100):
    f = _ENERGY_EVALUATORS[name]
    pole = find_resonance(spec100, 2)
    if name in _CURVES:
        curve = f(spec100, pole, 7.5)
        assert curve.grid.shape == () and curve.grid == 7.5
        assert all(np.shape(col) == () for col in vars(curve).values() if col is not None)
        columns = [col for field, col in vars(curve).items()
                   if field != "normalization_used" and col is not None]
        assert len(columns) >= 2  # every column a 0-d array, like the grid
        assert all(isinstance(col, np.ndarray) and col.shape == () for col in columns)
        grid = np.array([2.0, 7.5, 30.0])
        curve = f(spec100, pole, grid)
        assert np.array_equal(curve.grid, grid)
        columns = [col for col in vars(curve).values() if isinstance(col, np.ndarray)]
        assert len(columns) >= 2 and all(col.shape == (3,) for col in columns)
    else:
        for e, shape in ((7.5, ()), (np.array([2.0, 7.5, 30.0]), (3,))):
            out = f(spec100, pole, e)
            assert type(out) is np.ndarray and out.shape == shape
    for e in (0.0, -1.0, np.array([2.0, 0.0, 30.0])):
        with pytest.raises(InvalidInput, match="^scattering energy must be positive$"):
            f(spec100, pole, e)
    if name not in _ANY_POLE:
        with pytest.raises(InvalidInput, match="^operation defined for "):
            f(spec100, find_anti_resonance(spec100, 2), 7.5)


@pytest.mark.parametrize("f", [s_matrix, lambda spec, k: jost(spec, k)[0],
                               lambda spec, k: jost(spec, k)[1]], ids=["s_matrix", "j1", "j2"])
def test_wave_number_evaluator_returns_a_scalar_for_a_scalar(f, spec100):
    for k, shape in ((2.5, ()), (np.array([0.5, 2.5, 7.0]), (3,))):
        out = f(spec100, k)
        assert type(out) is np.ndarray and out.dtype == complex and out.shape == shape
    with pytest.raises(InvalidInput):
        f(spec100, 0.0)
