"""Exact s-wave cross section and its pole approximants.

sigma(E) = (4 pi/k^2) sin^2(delta), from the shell's s-wave phase shift
tan delta = -lam sin^2(k) / (k + lam sin(k) cos(k)), is compared against

* the Laurent (Breit-Wigner) form, which keeps only the pole term of the
  S-matrix and needs the energy-plane residue;
* the e-unitarized form from S ~ (E - conj(z_R))/(E - z_R);
* the k-unitarized form from S ~ (k - conj(k_R))/(k - k_R), a wave-number
  Breit-Wigner;
* the two-pole form, which keeps two pole terms of the Mittag-Leffler
  expansion and adds their interference.

The e- and k-unitarized forms differ by the exact algebraic ratio
4 alpha^2 / ((k + alpha)^2 + beta^2), close to one near a sharp peak. The
bundle is the approximants' one evaluator; the exact sigma, needing no pole,
is public as well. No column returns inf: past the largest float it raises
InvalidInput. The bundle reads every column at the energies it is given; the
command line builds the grid, and its default window E_R +/- 10 Gamma_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observables import _require_kind
from .poles import find_resonance, zeldovich_norm
from .potential import PotentialSpec, Pole, PoleKind
from .scattering import _energies, _finite, _lorentz_denominator

__all__ = [
    "CrossSectionBundle",
    "cross_section_exact",
    "cross_section_bundle",
]

# 1 - sin(x)/x = x^2 (1/3! - x^2/5! + ...), within an ulp for |x| < 1/2;
# highest power first, as np.polyval takes them
_SINC_SERIES = tuple((-1.0) ** m / math.factorial(2 * m + 3) for m in range(6, -1, -1))


@dataclass(frozen=True)
class CrossSectionBundle:
    """Sampled exact cross section plus approximant columns."""

    grid: np.ndarray
    exact: np.ndarray
    laurent: np.ndarray
    e_unitarized: np.ndarray
    k_unitarized: np.ndarray
    two_pole: np.ndarray | None = None


def _residue_e(spec: PotentialSpec, pole: Pole) -> complex:
    """Energy-plane residue of S at a pole: 2k res_k S = -2ik N^2."""
    return -2j * pole.k * zeldovich_norm(spec, pole)


def _one_minus_sinc(x):
    """1 - sin(x)/x for x > 0; below x = 1/2, where the difference cancels, its series."""
    out = np.asarray(1.0 - np.sin(x) / x)
    if (small := x < 0.5).any():
        out[small] = (x2 := x[small] * x[small]) * np.polyval(_SINC_SERIES, x2)
    return out


def cross_section_exact(spec: PotentialSpec, e):
    """(4 pi/k^2) sin^2(delta) at real energies E = k^2 > 0: an array shaped like the
    energies, or InvalidInput naming the first energy past the largest float."""
    e = _energies(e)
    with np.errstate(all="ignore"):  # a non-finite cell is refused by _finite
        return np.asarray(_finite("cross_section_exact", spec, e, _exact(spec, e)))


def _exact(spec: PotentialSpec, e):
    """The exact cross section at checked energies e.

    With q = sin(k)/k and d = (1 + lam) - lam (1 - sin(2k)/2k), which is
    k + lam sin(k) cos(k) over k, sigma = 4 pi lam^2 q^4 / (d^2 + (lam q sin k)^2).
    Every factor is O(1) as k -> 0, where sigma -> 4 pi lam^2 / (1 + lam)^2,
    and 1 + lam is exact next to lam = -1; no Jost function is evaluated.
    """
    k = np.sqrt(e)
    s = np.sin(k)
    q = s / k
    lam = spec.lam
    d = (1.0 + lam) - lam * _one_minus_sinc(2.0 * k)
    return 4.0 * np.pi * (lam * q * q) ** 2 / (d * d + (lam * q * s) ** 2)


def _laurent(spec: PotentialSpec, pole: Pole, e):
    """Breit-Wigner form (pi/k^2) |r_R|^2 / ((E-E_R)^2 + (Gamma_R/2)^2)."""
    r_e = abs(_residue_e(spec, pole))
    return np.pi / e * r_e**2 / _lorentz_denominator(pole, e)


def _e_unitarized(spec: PotentialSpec, pole: Pole, e):
    """(pi/k^2) Gamma_R^2 / ((E-E_R)^2 + (Gamma_R/2)^2); peak value 4 pi / E_R."""
    return np.pi / e * pole.gamma_R**2 / _lorentz_denominator(pole, e)


def _k_unitarized(spec: PotentialSpec, pole: Pole, e):
    """(pi/k^2) (2 beta_R)^2 / ((k-alpha_R)^2 + beta_R^2), k = sqrt(E)."""
    k = np.sqrt(e)
    return np.pi / e * (2.0 * pole.beta_R) ** 2 / ((k - pole.alpha_R) ** 2 + pole.beta_R**2)


def _two_pole(spec: PotentialSpec, pole1: Pole, pole2: Pole, e):
    """Two-pole cross section: two Lorentzians plus their interference.

    (pi/k^2) [ |r1|^2/D1 + |r2|^2/D2
               + 2 Re( r1 conj(r2) / ((E-z1)(E-conj(z2))) ) ]
    with energy-plane residues r_i. The cross term is formed as Re u1 Re u2 + Im u1 Im u2,
    u_i = r_i / (E - z_i): swapping the poles keeps its bits, and no E^2 product overflows.
    """
    r1, r2 = _residue_e(spec, pole1), _residue_e(spec, pole2)
    d1, d2 = _lorentz_denominator(pole1, e), _lorentz_denominator(pole2, e)
    u1, u2 = r1 / (e - pole1.z), r2 / (e - pole2.z)
    cross = 2.0 * (u1.real * u2.real + u1.imag * u2.imag)
    return np.pi / e * (abs(r1) ** 2 / d1 + abs(r2) ** 2 / d2 + cross)


def cross_section_bundle(spec: PotentialSpec, pole: Pole, e,
                         second_index: int | None = None) -> CrossSectionBundle:
    """Every column at energies e around resonance ``pole``, the grid being e, checked.

    The energies and the pole's kind are checked once, and each column's body runs on
    them in field order; the first non-finite cell is refused with InvalidInput naming
    cross_section_<column>, its strength and its energy. With second_index, the two-pole
    column of ``pole`` and that resonance, found after the other columns. A scalar e
    gives 0-d columns.
    """
    grid = _energies(e)
    _require_kind(pole, PoleKind.RESONANCE)
    def column(body, *poles):  # body _laurent is the column cross_section_laurent
        return np.asarray(_finite(f"cross_section{body.__name__}", spec, grid,
                                  body(spec, *poles, grid)))
    with np.errstate(all="ignore"):  # a non-finite cell is refused in column
        return CrossSectionBundle(
            grid=grid,
            exact=column(_exact),
            laurent=column(_laurent, pole),
            e_unitarized=column(_e_unitarized, pole),
            k_unitarized=column(_k_unitarized, pole),
            two_pole=None if second_index is None else column(
                _two_pole, pole, find_resonance(spec, second_index)),
        )
