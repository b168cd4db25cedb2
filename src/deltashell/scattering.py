"""The interaction matrix element on energy grids, and the grid layer's shared pieces.

Energies are real, E = k^2 > 0 with k = sqrt(E), in units of
ħ^2/(2m a^2). Every evaluator accepts a scalar or a numpy array of
energies and returns an array shaped like them, 0-d for a scalar; the
positive-energy check, the overflow refusal and the Lorentzian denominator
live here once. The residue normalization the matrix element rests on is
scalar and lives in :mod:`deltashell.poles`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .poles import _shell_weight, zeldovich_norm
from .potential import PotentialSpec, Pole

__all__ = [
    "matrix_element_squared",
    "matrix_element",
]


def _energies(e) -> np.ndarray:
    """Scattering energies as a float array; every one must be positive."""
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0):
        raise InvalidInput("scattering energy must be positive")
    return e


def _finite(what: str, spec: PotentialSpec, e, out):
    """out, the values of ``what`` at checked energies e, if every one is finite; else
    InvalidInput naming ``what``, the strength and the first energy past the largest float."""
    if not (finite := np.isfinite(out)).all():
        raise InvalidInput(f"{what} at strength {spec.lam!r} exceeds the largest "
                           f"float at E = {float(e[~finite].flat[0])!r}")
    return out


def _lorentz_denominator(pole: Pole, e):
    """(E - E_R)^2 + (Gamma_R/2)^2 = |E - z|^2, the pole's Lorentzian denominator.

    Every Lorentzian of the grid layer divides by it. hw * hw is correctly
    rounded, as libm's hw ** 2 is not always. Far out in a finite window the
    square overflows to inf; every quotient over it is then 0, its limit.
    """
    hw = 0.5 * pole.gamma_R
    with np.errstate(over="ignore"):
        return (e - pole.e_R) ** 2 + hw * hw


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
    its Lorentzian-times-matrix-element form. Formed as pref (sin(k)/k) sin(k), no
    step underflows where M^2 is normal, down to E = 5e-324, where sin^2 k is subnormal.
    """
    e = _energies(e)
    k = np.sqrt(e)
    s = np.sin(k)
    return np.asarray(_shell_weight(spec, pole, spec.lam**2 / np.pi) * (s / k) * s)


def matrix_element(spec: PotentialSpec, pole: Pole, e):
    """Complex <E|V|pole> = lam * chi(E) * u(pole) at the shell, for interference terms.

    chi(E) = sqrt(1/pi) E^{-1/4} sin(k) is the real scattering-state
    factor at the shell, so the cross-term phase comes entirely from
    u = N exp(i k_R) with N the principal root of N^2. The squared
    modulus reproduces matrix_element_squared exactly.
    """
    return np.asarray(_lambda_chi(spec, _energies(e)) * _shell_amplitude(spec, pole))


def _lambda_chi(spec: PotentialSpec, e):
    """lam chi(E), the pole-free factor of matrix_element, at checked energies e."""
    return spec.lam * (np.sqrt(1.0 / np.pi) * e ** (-0.25) * np.sin(np.sqrt(e)))
