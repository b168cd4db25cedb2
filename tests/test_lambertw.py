"""Lambert W: defining identity, branch structure, special points."""

import cmath
import math

import numpy as np
import pytest
import scipy.special

from deltashell import InvalidInput, lambert_w, lambert_w_residual

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
