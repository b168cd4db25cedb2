"""Normalized decay-energy-spectrum lineshapes.

The spectrum of a single pole is the Lorentzian modulated by the squared
interaction matrix element and divided by the decay constant,

    dP/dE = (1/Gamma) M^2(E) / ((E - E_R)^2 + (Gamma_R/2)^2),

which integrates to one over (0, inf) by construction: Gamma is the closed
form of the integral of M^2(E) / |E - z|^2, and Gamma_R times that integrand
is dGbar/dE. It is not a Breit-Wigner: the matrix element skews the peak,
adds the sin^2 zero lattice to the tails, and produces the threshold
structures seen for broad resonances and for the virtual state (whose
Lorentzian degenerates to 1/(E - E_pole)^2 with E_pole < 0).

Two-resonance interference follows the coherent superposition of the two
pole terms, |c1 <E|z1> + c2 <E|z2>|^2 with <E|z> = <E|V|z>/(z - E); the
cross-term phase convention lives in scattering.matrix_element.

Each lineshape has one evaluator, which takes the energies it is evaluated
at (a scalar or an array) and returns a SpectrumCurve on them; the caller
builds the grid. Both normalizations are closed forms: Gamma is read from the
table row (observables), and the integral of the coherent sum is a residue sum,
rational in t = lam - 2ik on the two poles (:func:`_residue_pair`). Units
are those of :mod:`deltashell.potential` (a = 1); the command line scales
a curve to radius a: E and M^2 by 1/a^2, each density by a^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .observables import _require_kind, observables_record
from .potential import PotentialSpec, Pole, PoleKind
from .scattering import (_energies, _finite, _lambda_chi, _lorentz_denominator,
                         _shell_amplitude, matrix_element_squared)

__all__ = [
    "SpectrumCurve",
    "InterferenceConfig",
    "spectrum_curve",
    "interference_curve",
]


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled dP/dE with optional companion columns.

    breit_wigner holds the normalized Lorentzian of the same pole (zero
    for zero-width poles, whose Lorentzian degenerates to a delta);
    matrix_element holds M^2(E). normalization_used is the Gamma divisor, or for
    interference curves the closed-form residue sum of (c1, c2) as given, inf or 0
    past the float range (1 if not renormalized).
    """

    grid: np.ndarray
    dP_dE: np.ndarray
    breit_wigner: np.ndarray | None
    matrix_element: np.ndarray | None
    normalization_used: float


@dataclass(frozen=True)
class InterferenceConfig:
    """Resonant-expansion coefficients for a two-pole superposition."""

    c1: complex = 1.0 / math.sqrt(2.0)
    c2: complex = 1.0 / math.sqrt(2.0)
    renormalize: bool = True

    def __post_init__(self):
        if not (cmath.isfinite(self.c1) and cmath.isfinite(self.c2)):
            raise InvalidInput("interference coefficients must be finite")
        if self.c1 == 0 and self.c2 == 0:
            raise InvalidInput("at least one interference coefficient must be nonzero")


def spectrum_curve(spec: PotentialSpec, pole: Pole, e) -> SpectrumCurve:
    """dP/dE = M^2(E) / |E - z|^2 / Gamma at energies e, with its Breit-Wigner and M^2.

    Gamma, the decay constant, is read first from the pole's table row, which checks
    the kind; M^2 then checks the energies. M^2 and |E - z|^2 are formed once each and
    every column is read from them; a scalar e gives a 0-d grid and 0-d columns.
    """
    gamma_total = observables_record(spec, pole).gamma
    m2 = matrix_element_squared(spec, pole, e)  # checks the energies
    grid = np.asarray(e, dtype=float)
    lor = _lorentz_denominator(pole, grid)  # > 0 or inf, so a zero width gives +0.0
    return SpectrumCurve(
        grid=grid,
        dP_dE=np.asarray(m2 / lor / gamma_total),
        breit_wigner=np.asarray((0.5 * pole.gamma_R / np.pi) / lor),
        matrix_element=m2,
        normalization_used=gamma_total,
    )


def _residue_pair(wi, ki, ri, wj, kj, rj) -> complex:
    """wi conj(wj) S(-ki, conj kj) on poles ki, kj, ri = 1/ti, t = lam - 2ik. The residue
    sum S(q1, q2) = int sin^2(k) / ((k^2 - q1^2)(k^2 - q2^2)) dk over the real line is,
    by e^{-2ik} = lam / t on a pole, -pi (1/ti - 1/conj tj) / (ki^2 - conj kj^2)."""
    s = -math.pi * (ri - rj.conjugate()) / (ki * ki - (kj * kj).conjugate())
    return wi * wj.conjugate() * s


def interference_curve(spec: PotentialSpec, pole1: Pole, pole2: Pole, cfg: InterferenceConfig,
                       e) -> SpectrumCurve:
    """The two-resonance spectrum at energies e; both poles are resonances.

    The coherent sum |c1 <E|V|z1>/(z1 - E) + c2 <E|V|z2>/(z2 - E)|^2 is divided,
    with cfg.renormalize, by its integral over (0, inf), else by 1. With
    m_i(E) = lam chi(E) u_i, lam^2 chi^2 = (lam^2/pi) sin^2(k)/k and E = k^2, each
    term c_i conj(c_j) m_i conj(m_j) / ((z_i - E)(conj z_j - E)) integrates to
    (lam^2/pi) c_i conj(c_j) u_i conj(u_j) S(-k_i, conj k_j) (:func:`_residue_pair`);
    the (2, 1) term is the conjugate of the (1, 2) one, so a swap keeps the bits.
    lam chi(E) and each u_i are formed once; m_i has the bits of matrix_element.
    No companion columns; a scalar e gives a 0-d grid and a 0-d column.
    """
    _require_kind(pole1, PoleKind.RESONANCE)
    _require_kind(pole2, PoleKind.RESONANCE)
    e = _energies(e)
    u1, u2 = _shell_amplitude(spec, pole1), _shell_amplitude(spec, pole2)
    c1, c2, norm, shift = cfg.c1, cfg.c2, 1.0, 0
    if cfg.renormalize:  # a common scale leaves the curve; exact 2^shift: max part in [1/2, 1)
        shift = -math.frexp(max(abs(part) for c in (c1, c2) for part in (c.real, c.imag)))[1]
        c1, c2 = (complex(math.ldexp(c.real, shift), math.ldexp(c.imag, shift)) for c in (c1, c2))
        one, two = [(c * u, p.k, 1.0 / (spec.lam - 2j * p.k))
                    for c, u, p in ((c1, u1, pole1), (c2, u2, pole2))]
        total = _residue_pair(*one, *one) + _residue_pair(*two, *two)
        norm = spec.lam**2 / math.pi * (total + 2.0 * _residue_pair(*one, *two)).real
    with np.errstate(all="ignore"):  # a non-finite value is refused by _finite
        lam_chi = _lambda_chi(spec, e)
        amp = c1 * (lam_chi * u1) / (pole1.z - e)
        values = np.asarray(np.abs(amp + c2 * (lam_chi * u2) / (pole2.z - e)) ** 2 / norm)
    _finite("interference spectrum", spec, e, values)
    with np.errstate(over="ignore"):  # the norm of (c1, c2) as given, scaled back exactly
        norm = float(np.ldexp(norm, -2 * shift))
    return SpectrumCurve(grid=e, dP_dE=values, breit_wigner=None, matrix_element=None,
                         normalization_used=norm)
