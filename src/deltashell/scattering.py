"""Jost functions, S-matrix, residues and the resonant matrix element.

The wave number k is the canonical variable throughout; energy-plane
objects are defined through E = k^2 (reduced units), which sidesteps the
square-root branch ambiguity in the energy plane. All evaluators accept
scalars or numpy arrays of k (or E) values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegeneratePole, InvalidInput, PoleHit
from .potential import PotentialSpec, Pole

__all__ = [
    "JostPair",
    "NormalizationData",
    "jost",
    "s_matrix",
    "zeldovich_norm",
    "resonant_wavefunction",
    "matrix_element_squared",
    "matrix_element",
]

_POLE_HIT_TOL = 1e-13
_DEGENERATE_TOL = 1e-13


@dataclass(frozen=True)
class JostPair:
    """Outgoing/incoming Jost function values at one (or an array of) k."""

    j1: complex
    j2: complex


@dataclass(frozen=True)
class NormalizationData:
    """Residue-based normalization of one resonant state.

    n_r_squared is the squared normalization constant fixed by the
    S-matrix residue in the k-plane: N^2 = i res_k S = -i J1 / J2'.
    k is the pole's wave number k_R.
    """

    n_r_squared: complex
    abs_n_r_squared: float
    residue_k: complex
    k: complex

    @property
    def residue_E(self) -> complex:
        """Energy-plane residue 2 k_R residue_k (chain rule through E = k^2).

        Formed on request only: for a deep bound state (lam near -700)
        |residue_k| ~ 1e306 and the product overflows, but only the
        resonance cross sections use it.
        """
        return 2.0 * self.k * self.residue_k


def jost(spec: PotentialSpec, k) -> JostPair:
    """Jost functions J1, J2 at complex wave number k (vectorized).

    J_{1,2} = (1/4k) [ -/+ 2ik + (lam/a) (exp(-/+ 2ika) - 1) ].
    For real k > 0, J1 = conj(J2), which makes |S| = 1 on the real axis.
    """
    k = np.asarray(k, dtype=complex)
    if np.any(k == 0):
        raise InvalidInput("Jost functions are singular at k = 0")
    g = spec.lam / spec.a
    up = np.exp(-2j * k * spec.a)
    dn = np.exp(+2j * k * spec.a)
    j1 = (-2j * k + g * (up - 1.0)) / (4.0 * k)
    j2 = (+2j * k + g * (dn - 1.0)) / (4.0 * k)
    if j1.ndim == 0:
        return JostPair(complex(j1), complex(j2))
    return JostPair(j1, j2)


def s_matrix(spec: PotentialSpec, k):
    """S(k) = -J1(k)/J2(k); unitary for real k, poles at the J2 zeros."""
    pair = jost(spec, k)
    j1 = np.asarray(pair.j1, dtype=complex)
    j2 = np.asarray(pair.j2, dtype=complex)
    if np.any(np.abs(j2) <= _POLE_HIT_TOL * np.maximum(1.0, np.abs(j1))):
        raise PoleHit("S-matrix evaluated on top of a pole")
    s = -j1 / j2
    return complex(s) if s.ndim == 0 else s


def s_matrix_energy(spec: PotentialSpec, e):
    """S as a function of complex energy via the principal sqrt k = sqrt(E).

    The principal branch maps Im E < 0 to the fourth k-quadrant, i.e. onto
    the sheet that carries the resonance poles, so contours encircling a
    resonant energy stay on the correct sheet as long as they remain in
    the lower half plane.
    """
    return s_matrix(spec, np.sqrt(np.asarray(e, dtype=complex)))


def _jost2_derivative_at_pole(spec: PotentialSpec, k: complex) -> complex:
    # J2 = [2ika + lam(e^{2ika}-1)]/(4ka); on a pole the bracket vanishes,
    # leaving J2'(k_R) = i (1 + lam e^{2 i k_R a}) / (2 k_R).
    return 1j * (1.0 + spec.lam * np.exp(2j * k * spec.a)) / (2.0 * k)


@lru_cache(maxsize=512)
def zeldovich_norm(spec: PotentialSpec, pole: Pole) -> NormalizationData:
    """Residue of S at the pole and the squared normalization constant."""
    j2p = _jost2_derivative_at_pole(spec, pole.k)
    if abs(j2p) < _DEGENERATE_TOL:
        raise DegeneratePole(f"J2'({pole.k}) is numerically zero; double pole?")
    j1 = jost(spec, pole.k).j1
    residue_k = -j1 / j2p
    n_r_squared = 1j * residue_k
    return NormalizationData(
        n_r_squared=n_r_squared,
        abs_n_r_squared=abs(n_r_squared),
        residue_k=residue_k,
        k=pole.k,
    )


def resonant_wavefunction(spec: PotentialSpec, pole: Pole, r):
    """Pole eigenfunction u(r): N sin(k r)/J1(k) inside, N exp(i k r) outside.

    The two branches agree at r = a because J2(k_R) = 0 makes
    sin(k a)/J1(k a) = exp(i k a) automatically. The overall phase follows
    the principal square root of N^2; every downstream observable depends
    only on |N|^2.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InvalidInput("radius must be nonnegative")
    n_r = np.sqrt(complex(zeldovich_norm(spec, pole).n_r_squared))
    j1 = jost(spec, pole.k).j1
    inside = n_r * np.sin(pole.k * r) / j1
    outside = n_r * np.exp(1j * pole.k * r)
    u = np.where(r < spec.a, inside, outside)
    return complex(u) if u.ndim == 0 else u


def _shell_density(spec: PotentialSpec, pole: Pole) -> float:
    """|N|^2 exp(2 beta a) = |u(a)|^2, formed before any lam^2 factor.

    Near lam = -700 the bound state has |N|^2 ~ 1e306 and exp(2 beta a)
    ~ 1e-304; multiplying lam^2 into |N|^2 first would overflow.
    """
    return zeldovich_norm(spec, pole).abs_n_r_squared * math.exp(2.0 * pole.beta_R * spec.a)


def _shell_amplitude(spec: PotentialSpec, pole: Pole) -> complex:
    """u(a) = N exp(i k a), with N the principal root of N^2."""
    n_r = np.sqrt(complex(zeldovich_norm(spec, pole).n_r_squared))
    return n_r * np.exp(1j * pole.k * spec.a)


def matrix_element_squared(spec: PotentialSpec, pole: Pole, e):
    """|<E|V|pole>|^2 at scattering energy E > 0 (vectorized).

    In reduced units:
        M^2(E) = (lam^2 / (pi a^2)) sin^2(k a)/k * |N|^2 exp(2 beta a),
    with k = sqrt(E). Zeros sit exactly on the lattice E = (m pi / a)^2;
    the prefactor is fixed by matching the differential decay width against
    its Lorentzian-times-matrix-element form.
    """
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0):
        raise InvalidInput("scattering energy must be positive")
    k = np.sqrt(e)
    pref = (spec.lam**2 / (np.pi * spec.a**2)) * _shell_density(spec, pole)
    out = pref * np.sin(k * spec.a) ** 2 / k
    return float(out) if out.ndim == 0 else out


def matrix_element(spec: PotentialSpec, pole: Pole, e):
    """Complex <E|V|pole> = g * chi(a;E) * u(a;pole), for interference terms.

    chi(a;E) = sqrt(1/pi) E^{-1/4} sin(k a) is the real scattering-state
    factor at the shell, so the cross-term phase comes entirely from
    u(a) = N exp(i k_R a) with N the principal root of N^2. The squared
    modulus reproduces matrix_element_squared exactly.
    """
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0):
        raise InvalidInput("scattering energy must be positive")
    k = np.sqrt(e)
    chi = np.sqrt(1.0 / np.pi) * e ** (-0.25) * np.sin(k * spec.a)
    out = spec.coupling * chi * _shell_amplitude(spec, pole)
    return complex(out) if out.ndim == 0 else out
