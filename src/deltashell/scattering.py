"""Jost functions, S-matrix and matrix element on grids.

The wave number k is the canonical variable throughout; energy-plane
objects are defined through E = k^2, which sidesteps the square-root
branch ambiguity in the energy plane. k is in units of 1/a and E of
ħ^2/(2m a^2). All evaluators accept scalars or numpy arrays of k (or E)
values. The residue normalization they rest on is scalar and
lives in :mod:`deltashell.poles`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, PoleHit
from .poles import _shell_weight, zeldovich_norm
from .potential import PotentialSpec, Pole

__all__ = [
    "jost",
    "s_matrix",
    "matrix_element_squared",
    "matrix_element",
]

_POLE_HIT_TOL = 1e-13


def _scalar_or_array(out):
    """A Python float or complex for a 0-d result, else the array itself."""
    return out.item() if out.ndim == 0 else out


def _energies(e) -> np.ndarray:
    """Scattering energies as a float array; every one must be positive."""
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0):
        raise InvalidInput("scattering energy must be positive")
    return e


def _lorentz_denominator(pole: Pole, e):
    """(E - E_R)^2 + (Gamma_R/2)^2 = |E - z|^2, the pole's Lorentzian denominator.

    Every Lorentzian of the grid layer divides by it. hw * hw is correctly
    rounded, as libm's hw ** 2 is not always. Far out in a finite window the
    square overflows to inf; every quotient over it is then 0, its limit.
    """
    hw = 0.5 * pole.gamma_R
    with np.errstate(over="ignore"):
        return (e - pole.e_R) ** 2 + hw * hw


def jost(spec: PotentialSpec, k):
    """Jost functions (J1, J2) at complex wave number k (vectorized).

    J_{1,2} = (1/4k) [ -/+ 2ik + lam (exp(-/+ 2ik) - 1) ].
    For real k > 0, J1 = conj(J2), which makes |S| = 1 on the real axis.
    """
    k = np.asarray(k, dtype=complex)
    if np.any(k == 0):
        raise InvalidInput("Jost functions are singular at k = 0")
    up = np.exp(-2j * k)
    dn = np.exp(+2j * k)
    j1 = (-2j * k + spec.lam * (up - 1.0)) / (4.0 * k)
    j2 = (+2j * k + spec.lam * (dn - 1.0)) / (4.0 * k)
    return _scalar_or_array(j1), _scalar_or_array(j2)


def s_matrix(spec: PotentialSpec, k):
    """S(k) = -J1(k)/J2(k); unitary for real k, poles at the J2 zeros."""
    j1, j2 = map(np.asarray, jost(spec, k))
    if np.any(np.abs(j2) <= _POLE_HIT_TOL * np.maximum(1.0, np.abs(j1))):
        raise PoleHit("S-matrix evaluated on top of a pole")
    s = -j1 / j2
    return _scalar_or_array(s)


def _shell_amplitude(spec: PotentialSpec, pole: Pole) -> complex:
    """u(1) = N exp(i k), the state at the shell, with N the principal root of N^2."""
    n_r = np.sqrt(zeldovich_norm(spec, pole))
    return n_r * np.exp(1j * pole.k)


def matrix_element_squared(spec: PotentialSpec, pole: Pole, e):
    """|<E|V|pole>|^2 at scattering energy E > 0 (vectorized).

    In units of the radius and reduced units:
        M^2(E) = (lam^2 / pi) sin^2(k)/k * |N|^2 exp(2 beta),
    with k = sqrt(E). Zeros sit exactly on the lattice E = (m pi)^2;
    the prefactor is fixed by matching the differential decay width against
    its Lorentzian-times-matrix-element form.
    """
    e = _energies(e)
    k = np.sqrt(e)
    pref = _shell_weight(spec, pole, spec.lam**2 / np.pi)
    out = pref * np.sin(k) ** 2 / k
    return _scalar_or_array(out)


def matrix_element(spec: PotentialSpec, pole: Pole, e):
    """Complex <E|V|pole> = lam * chi(E) * u(pole) at the shell, for interference terms.

    chi(E) = sqrt(1/pi) E^{-1/4} sin(k) is the real scattering-state
    factor at the shell, so the cross-term phase comes entirely from
    u = N exp(i k_R) with N the principal root of N^2. The squared
    modulus reproduces matrix_element_squared exactly.
    """
    e = _energies(e)
    k = np.sqrt(e)
    chi = np.sqrt(1.0 / np.pi) * e ** (-0.25) * np.sin(k)
    out = spec.lam * chi * _shell_amplitude(spec, pole)
    return _scalar_or_array(out)
