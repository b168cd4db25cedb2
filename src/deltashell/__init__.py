"""Resonance observables of the delta-shell potential.

Poles of the S-matrix in closed form through the multi-branch Lambert W
function, residue-normalized resonant states, decay widths and decay
constants as closed-form residue sums, decay-energy-spectrum lineshapes with
two-resonance interference, and cross-section approximants.

Two layers. The scalar layer (errors, lambertw, potential, poles,
observables) is plain Python and cmath; its names are imported with the
package. The grid layer (scattering, spectra, cross_sections) works on
numpy arrays; its names are in __all__ too, but each is bound on first
access, which imports its module and numpy.

Quick start::

    >>> from deltashell import PotentialSpec, find_resonance, observables_record
    >>> spec = PotentialSpec(lam=100.0)
    >>> pole = find_resonance(spec, 1)
    >>> row = observables_record(spec, pole)
    >>> round(row.gamma, 4)
    1.9924
"""

import importlib

from .errors import (
    DegeneratePole,
    DeltaShellError,
    InvalidInput,
    NonConvergence,
    NoSuchPole,
    PoleHit,
)
from .lambertw import lambert_w, lambert_w_residual
from .observables import (
    ObservablesRecord,
    decay_constant_total,
    decay_width_total,
    golden_rule_sharp,
    observables_record,
    table_records,
)
from .poles import (
    enumerate_poles,
    find_anti_resonance,
    find_bound_state,
    find_resonance,
    find_virtual_state,
    transcendental_residual,
    zeldovich_norm,
)
from .potential import Pole, PoleKind, PotentialSpec

# Grid-layer names, by module: bound on first access, since their modules
# import numpy and the scalar layer above does not.
_GRID = {
    "cross_sections": (
        "CrossSectionBundle", "cross_section_bundle", "cross_section_e_unitarized",
        "cross_section_exact", "cross_section_k_unitarized", "cross_section_laurent",
        "cross_section_two_pole", "unitarized_ratio",
    ),
    "scattering": (
        "jost", "matrix_element", "matrix_element_squared", "s_matrix",
    ),
    "spectra": (
        "InterferenceConfig", "SpectrumCurve", "decay_constant_differential",
        "decay_energy_spectrum", "decay_width_differential", "interference_curve",
        "interference_spectrum", "spectrum_curve",
    ),
}
_LAZY = {name: module for module, names in _GRID.items() for name in names}


def __getattr__(name):
    """Import a grid-layer name's module on first access and keep the name."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DegeneratePole",
    "DeltaShellError",
    "InvalidInput",
    "NonConvergence",
    "NoSuchPole",
    "ObservablesRecord",
    "Pole",
    "PoleHit",
    "PoleKind",
    "PotentialSpec",
    "decay_constant_total",
    "decay_width_total",
    "enumerate_poles",
    "find_anti_resonance",
    "find_bound_state",
    "find_resonance",
    "find_virtual_state",
    "golden_rule_sharp",
    "lambert_w",
    "lambert_w_residual",
    "observables_record",
    "table_records",
    "transcendental_residual",
    "zeldovich_norm",
    *_LAZY,
]
