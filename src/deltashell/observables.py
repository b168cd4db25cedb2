"""Decay widths, decay constants, the oscillation constant C, and the
sharp (Golden-Rule) approximations; one record per table row.

The decay width is the Lorentzian-weighted integral of the squared
interaction matrix element,

    Gbar = integral_0^inf  Gamma_R / ((E - E_R)^2 + (Gamma_R/2)^2) M^2(E) dE
         = 2 lam^2 |N|^2 exp(2 beta) * C,

and the dimensionless decay constant is Gamma = Gbar / Gamma_R. For bound
and virtual poles the Lorentzian degenerates to 1/(E - E_pole)^2 with
E_pole < 0, a proper integral that yields the decay constant directly
(Gbar itself carries an explicit Gamma_R factor and is identically zero
for zero-width poles).

With E = k^2 each of these integrals, and the two-resonance
normalization in spectra, has the form int_{-inf}^{inf} sin^2(k) R(k) dk
with R even and rational, so it is a finite sum of residues at the
S-matrix poles. On a pole the identity e^{2ik} = t / lam with
t = lam - 2ik makes that sum rational in t:

    |N|^2 exp(2 beta) = 2 |k|^2 / (|lam| |1 + t|),   C = 2 Re k / |t|^2,
    Gamma = 1 (bound),   Gamma = -lam (1 + lam) / (t (1 + t)) (virtual),

so no row evaluates an exponential at all. The test suite checks the
rows against an independent adaptive quadrature and against a 50-digit
reference.

The sharp approximations replace the Lorentzian by a delta function:
Gbar_sharp = 2 pi M^2(E_R), Gamma_sharp = Gbar_sharp / Gamma_R.

One row kernel, :func:`observables_record`, forms a whole table row: it
reads each pole field once, forms a resonance's residue normalization
2 lam^2 |N|^2 exp(2 beta) once, and every observable inline from it; each
width, constant and sharp value is a field of its record.
Units are those of :mod:`deltashell.potential` (a = 1). The command line
scales a row to radius a: k by 1/a, energies and widths by 1/a^2, C by a.

Everything here is scalar Python arithmetic with no numpy import; the
spectra on energy grids live in :mod:`deltashell.spectra`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidInput
from .poles import _shell_weight, enumerate_poles
from .potential import _BOUND, _RESONANCE, _VIRTUAL_STATE, PotentialSpec, Pole, PoleKind

__all__ = [
    "ObservablesRecord",
    "observables_record",
    "table_records",
]

# the kinds that have a table row
_ROW_KINDS = (_RESONANCE, _BOUND, _VIRTUAL_STATE)


@dataclass(frozen=True)
class ObservablesRecord:
    """One table row: pole identity plus every decay observable.

    gamma_bar is also the right-hand side of the second-order perturbation-theory
    width equation; were that equation exact it would equal Gamma_R, but the
    decay constant gamma = gamma_bar / Gamma_R differs from 1 for every resonance.
    For a bound or virtual pole gamma is int M^2(E) / (E + kappa^2)^2 dE, kappa =
    |Im k|, a double pole of the residue sum (1 for a bound state, whose residue
    norm is its norm). The sharp pair sits at k~ = sqrt(E_R).

    gamma_bar_sharp, gamma_sharp and c_value are None for bound and virtual rows
    (the width integrand carries a factor Gamma_R = 0, so gamma_bar is zero); the
    sharp values are also None for resonances with E_R <= 0, where the sharp
    approximation has no energy to sit at.

    A frozen dataclass with its own ``__init__``, which writes the fields
    straight into the instance ``__dict__`` (see :mod:`deltashell.potential`);
    the dataclass semantics are those of the generated init.
    """

    kind: PoleKind
    index: int
    k: complex
    z: complex
    gamma_R: float
    gamma_bar: float
    gamma: float
    gamma_bar_sharp: float | None
    gamma_sharp: float | None
    c_value: float | None

    def __init__(self, kind, index, k, z, gamma_R, gamma_bar, gamma,
                 gamma_bar_sharp, gamma_sharp, c_value):
        fields = self.__dict__
        fields["kind"] = kind
        fields["index"] = index
        fields["k"] = k
        fields["z"] = z
        fields["gamma_R"] = gamma_R
        fields["gamma_bar"] = gamma_bar
        fields["gamma"] = gamma
        fields["gamma_bar_sharp"] = gamma_bar_sharp
        fields["gamma_sharp"] = gamma_sharp
        fields["c_value"] = c_value


def _require_kind(pole: Pole, *kinds: PoleKind) -> None:
    if pole.kind not in kinds:
        allowed = ", ".join(k.value for k in kinds)
        raise InvalidInput(f"operation defined for {allowed} poles, got {pole.kind.value}")


def observables_record(spec: PotentialSpec, pole: Pole) -> ObservablesRecord:
    """The full table row for one pole: the one row kernel (see the module
    docstring); a resonance, bound or virtual pole, else InvalidInput."""
    kind = pole.kind
    if kind not in _ROW_KINDS:
        _require_kind(pole, *_ROW_KINDS)
    k, z, gamma_R = pole.k, pole.z, pole.gamma_R
    if kind is not _RESONANCE:
        # Gamma = -lam (1 + lam) / (t (1 + t)) with t = lam + 2 Im k real; 1 if bound
        lam, x = spec.lam, 2.0 * k.imag
        gamma = 1.0 if kind is _BOUND else -lam * (1.0 + lam) / ((lam + x) * ((1.0 + lam) + x))
        if gamma < sys.float_info.min:  # a virtual state from |lam| ~ 3e-303 down
            raise InvalidInput(f"virtual-state Gamma {gamma!r} at {lam!r} loses its digits")
        return ObservablesRecord(kind, pole.index, k, z, gamma_R, 0.0, gamma, None, None, None)
    # 2 lam^2 |N|^2 exp(2 beta): the one residue normalization of a row
    prefactor = _shell_weight(spec, pole, 2.0 * spec.lam**2)
    # C = int (1/pi) (G/2)/((E-E_R)^2+(G/2)^2) sin^2(k)/k dE
    #   = Re[(1 - e^{-2ik}) / (2k)] = Re(-i / t) = 2 Re k / |t|^2,
    # since e^{-2ik} = lam / t on the pole, t = lam - 2ik
    t = spec.lam - 2j * k
    c_value = 2.0 * k.real / (t.real * t.real + t.imag * t.imag)
    gamma_bar = prefactor * c_value
    gbs = gs = None
    e_R = z.real  # pole.e_R, without the property call
    if e_R > 0.0:
        kt = math.sqrt(e_R)
        gbs = prefactor * math.sin(kt) ** 2 / kt
        gs = gbs / gamma_R
    return ObservablesRecord(kind, pole.index, k, z, gamma_R, gamma_bar,
                             gamma_bar / gamma_R, gbs, gs, c_value)


def table_records(spec: PotentialSpec, count: int) -> list[ObservablesRecord]:
    """Rows for the bound/virtual pole (when present) plus resonances 1..count."""
    return [observables_record(spec, pole) for pole in enumerate_poles(spec, count)]
