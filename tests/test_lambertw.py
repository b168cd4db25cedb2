"""Lambert W: defining identity, branch structure, special points."""

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import deltashell.lambertw as lambertw_module
from deltashell import InvalidInput, NonConvergence, lambert_w, lambert_w_residual

INV_E = math.exp(-1.0)


def random_grid(rng, n):
    """Log-spaced moduli over 12 decades, uniform phases."""
    radius = 10.0 ** rng.uniform(-6.0, 6.0, size=n)
    phase = rng.uniform(-np.pi, np.pi, size=n)
    return radius * np.exp(1j * phase)


def test_principal_branch_at_zero():
    assert lambert_w(0, 0.0) == 0.0


def test_w0_of_e_is_one():
    assert abs(lambert_w(0, math.e) - 1.0) < 1e-15


def test_branch_point_both_real_branches():
    assert abs(lambert_w(0, -INV_E) - (-1.0)) < 1e-7
    assert abs(lambert_w(-1, -INV_E) - (-1.0)) < 1e-7


def test_lower_real_branch_fixed_point():
    # any real x <= -1 satisfies x = W_{-1}(x e^x)
    for x in (-1.5, -3.0, -10.0, -20.0):
        assert abs(lambert_w(-1, x * math.exp(x)) - x) < 1e-13 * abs(x)


def test_invalid_inputs():
    with pytest.raises(InvalidInput):
        lambert_w(1, 0.0)
    with pytest.raises(InvalidInput):
        lambert_w(-1, 0.0)
    with pytest.raises(InvalidInput):
        lambert_w(0, complex(np.inf, 0.0))
    with pytest.raises(InvalidInput):
        lambert_w(0, complex(np.nan, 1.0))


@pytest.mark.parametrize("branch", [-3, -1, 0, 1, 4])
@pytest.mark.parametrize("z", [complex(1.7e308, 1.7e308), complex(-1.7e308, -1.5e308),
                               complex(-1.5e308, 1.5e308)])
def test_argument_whose_modulus_overflows_is_invalid(branch, z):
    # finite parts, but |z| > 1.8e308: abs(z) itself used to raise a raw OverflowError
    with pytest.raises(InvalidInput, match="beyond 1.8e308"):
        lambert_w(branch, z)


@pytest.mark.parametrize("branch", [3 * 10**307, 2**1024, -(2**1024), 2 * 10**308, 10**400],
                         ids=["3e307", "2^1024", "-2^1024", "2e308", "1e400"])
def test_branch_past_the_float_range_is_nonconvergence(branch):
    # 2 pi n overflows from |n| = 2.8e307 on, and n itself has no float from 2**1024
    with pytest.raises(NonConvergence, match=r"^W_-?\d+\(\(1\+0j\)\) did not converge$"):
        lambert_w(branch, 1.0)


def test_identity_residual_randomized():
    rng = np.random.default_rng(20170330)
    grid = random_grid(rng, 2000)
    for z in grid:
        n = int(rng.integers(-5, 6))
        w = lambert_w(n, z)
        assert lambert_w_residual(w, z) <= 1e-13 * max(1.0, abs(z))


def test_branch_separation():
    rng = np.random.default_rng(7)
    for z in random_grid(rng, 50):
        values = [lambert_w(n, z) for n in range(-3, 4)]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert abs(values[i].imag - values[j].imag) > 1e-8


def test_conjugation_symmetry_off_cut():
    # W_{-n}(conj z) = conj(W_n(z)) away from the negative real axis
    rng = np.random.default_rng(11)
    pts = random_grid(rng, 60)
    pts = pts[np.abs(pts.imag) > 1e-3 * np.abs(pts)]
    for z in pts:
        for n in (0, 1, 2, -1, -3):
            lhs = lambert_w(-n, np.conj(z))
            rhs = np.conj(lambert_w(n, z))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_against_scipy_all_branches():
    rng = np.random.default_rng(42)
    for z in random_grid(rng, 400):
        n = int(rng.integers(-5, 6))
        mine = lambert_w(n, z)
        ref = complex(scipy.special.lambertw(z, n))
        assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


def test_real_segments():
    # principal branch real and >= -1 for real z >= -1/e
    for x in (-0.36, -0.2, -1e-8, 0.5, 10.0, 1e5):
        w = lambert_w(0, x)
        assert w.imag == 0.0 and w.real >= -1.0
    # branch -1 real and <= -1 on (-1/e, 0)
    for x in (-0.367, -0.2, -1e-3, -1e-8):
        w = lambert_w(-1, x)
        assert w.imag == 0.0 and w.real <= -1.0


def test_branch_point_neighborhood_series():
    # the sheets colliding at -1/e are (0, -1) for Im z >= 0 and (0, +1)
    # below the axis; the third branch of the trio stays remote
    for eps in (1e-5, 1e-6, 1e-8):
        for phase in (0.0, 0.5 * np.pi, np.pi, -0.75 * np.pi):
            z = -INV_E + eps * cmath.exp(1j * phase)
            colliding = -1 if z.imag >= 0 else 1
            for n in (0, colliding):
                w = lambert_w(n, z)
                assert lambert_w_residual(w, z) <= 1e-13
                assert abs(w + 1.0) < 0.05
            remote = lambert_w(-colliding, z)
            assert lambert_w_residual(remote, z) <= 1e-13
            assert abs(remote + 1.0) > 1.0


def test_huge_arguments_along_pole_pipeline():
    # the pole solver feeds lam * exp(lam); exercise both signs at |lam| = 100
    for lam, branches in ((100.0, (-1, -8, 1, 8)), (-100.0, (-2, -9, 2, 0))):
        z = lam * math.exp(lam)
        for n in branches:
            w = lambert_w(n, z)
            assert lambert_w_residual(w, z) <= 1e-13 * max(1.0, abs(z))


# The sweep: branches -12..12 on the negative real axis, x in [-100, 0), dense
# on [-1, -1/e], at imaginary parts on both sides of the cut. W_0 just above
# the cut left of -1/e, and every argument whose imaginary part is -0.0, are
# the inputs a wrong seed or a misread sign of zero gets wrong.
SWEEP_BRANCHES = range(-12, 13)
SWEEP_IMAG = (0.0, -0.0, 1e-300, -1e-300, 1e-12, -1e-12, 1e-9, -1e-9, 1e-3, -1e-3, 0.03, -0.03,
              0.05, -0.05, 0.069, -0.069)  # the last two inside the edge of W_0's park seed
SWEEP_REALS = np.union1d(
    np.concatenate((-np.logspace(2.0, -6.0, 121), np.linspace(-1.05, -1.0, 26, endpoint=False),
                    np.linspace(-1.0, -INV_E, 160, endpoint=False))),
    # W_0 here was W_-1's value, a refusal, and at Im z = -1e-12 a root far off
    [-0.9111870614845876, -0.8678794411714423, -0.8261668463221467],
)


def _on_line(xs, imag):
    z = np.asarray(xs, dtype=complex)
    z.imag = imag  # keeps the sign of a zero, where xs + 1j * imag would not
    return z


def _oracle(n, z):
    """W_n at each z: scipy, with a 30-digit mpmath value where scipy's own
    residual shows it stopped early, as it does near -1/e.

    On the axis with Im z = -0.0 the reference is conj(W_-n(x + 0j)), the
    mirror every other point obeys: scipy's W_-1 reads -0.0 as +0.0 on
    (-1/e, 0), which would make it equal W_1 there.
    """
    if np.all(z.imag == 0.0) and np.all(np.signbit(z.imag)):
        return np.conj(_oracle(-n, np.conj(z)))
    ref = scipy.special.lambertw(z, n)
    with np.errstate(all="ignore"):
        slack = np.abs(ref * np.exp(ref) - z) > 1e-14 * np.maximum(1.0, np.abs(z))
    for i in np.flatnonzero(slack | ~np.isfinite(ref)):
        with mpmath.workdps(30):
            ref[i] = complex(mpmath.lambertw(mpmath.mpc(z[i].real, z[i].imag), n))
    return ref


def test_sweep_of_the_negative_real_axis_matches_scipy(monkeypatch):
    halley_runs = []

    def counted(w, z):
        halley_runs.append(1)
        return halley(w, z)

    halley = lambertw_module._halley
    monkeypatch.setattr(lambertw_module, "_halley", counted)
    wrong = []
    for imag in SWEEP_IMAG:
        z = _on_line(SWEEP_REALS, imag)
        for n in SWEEP_BRANCHES:
            ref = _oracle(n, z)
            for zi, wi in zip(z.tolist(), ref.tolist()):
                halley_runs.clear()
                try:
                    w = lambert_w(n, zi)
                except ArithmeticError as exc:
                    w = repr(exc)
                if isinstance(w, str) or abs(w - wi) > 1e-12 * max(1.0, abs(wi)):
                    wrong.append((n, zi, w, wi))
                if len(halley_runs) > 1:
                    wrong.append((n, zi, f"{len(halley_runs)} Halley solves"))
    assert not wrong, (len(wrong), wrong[:5])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_branches_on_either_side_of_the_cut_are_distinct_roots(sign):
    # 25 branches, 25 roots, at every x with Im z = +0.0 and with Im z = -0.0
    for x in SWEEP_REALS[::4]:
        z = complex(x, math.copysign(0.0, sign))
        values = np.array([lambert_w(n, z) for n in SWEEP_BRANCHES])
        gaps = np.abs(values[:, None] - values[None, :]) + np.eye(len(values))
        assert gaps.min() > 1e-6, x


def test_minus_zero_is_below_the_cut():
    # W_0 and W_1 meet across the cut: W_1(x - 0j) continues W_0 from above
    z = complex(-0.5, -0.0)
    assert lambert_w(0, z) == lambert_w(0, complex(-0.5, 0.0)).conjugate()
    assert lambert_w(1, z) == lambert_w(-1, complex(-0.5, 0.0)).conjugate()
    assert abs(lambert_w(0, z) - lambert_w(1, z)) > 1.0


@settings(max_examples=1000, deadline=None)
@given(
    n=st.integers(-10**4, 10**4).filter(lambda n: n not in (0, -1)),
    log_r=st.floats(math.log(1e-300), math.log(1e300)),
    phase=st.floats(0.0, math.pi),
    on_axis=st.booleans(),
    below=st.booleans(),
)
def test_log_form_branches_match_mpmath(n, log_r, phase, on_axis, below):
    # every branch the log form solves: n not 0 or -1 above the cut, its
    # mirror -n below it, with the negative real axis at Im z = +0.0 and -0.0
    r = math.exp(log_r)
    z = complex(-r, 0.0) if on_axis else cmath.rect(r, phase)
    with mpmath.workdps(30):
        ref = mpmath.lambertw(mpmath.mpc(z.real, z.imag), n)
    if below:  # mpmath reads -0.0 as +0.0, so its reference is the mirror's
        z, n, ref = z.conjugate(), -n, mpmath.conj(ref)
    w = lambert_w(n, z)
    assert abs(mpmath.mpc(w) - ref) <= 6e-16 * abs(ref), (n, z, w)
