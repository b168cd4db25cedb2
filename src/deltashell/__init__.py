"""Resonance observables of the delta-shell potential.

Resonance poles of the S-matrix in closed form through the multi-branch
Lambert W function, residue-normalized resonant states, decay widths and
decay constants as residue sums rational on the poles, decay-energy-spectrum
lineshapes with two-resonance interference, and cross-section approximants.

Two layers. The scalar layer (errors, lambertw, potential, poles,
observables) is plain Python and cmath; its names are imported with the
package. The grid layer (scattering, spectra, cross_sections) works on
numpy arrays; its names are in __all__ too, but each is bound on first
access, which imports its module and numpy. A public name is declared once,
in its module's ``__all__``; the package's ``__all__`` is built from those
lists, with ``_GRID`` naming the grid layer's without importing numpy. Each
curve function takes the energies it is evaluated at; the caller builds the grid.

Quick start::

    >>> from deltashell import PotentialSpec, find_resonance, observables_record
    >>> spec = PotentialSpec(lam=100.0)
    >>> pole = find_resonance(spec, 1)
    >>> row = observables_record(spec, pole)
    >>> round(row.gamma, 4)
    1.9924
"""

import importlib

from . import errors, lambertw, observables, poles, potential
from .errors import *
from .lambertw import *
from .observables import *
from .poles import *
from .potential import *

# Grid-layer names, by module and in the order of its __all__: bound on first
# access, since their modules import numpy and the scalar layer above does not.
_GRID = {
    "cross_sections": ("CrossSectionBundle", "cross_section_exact", "cross_section_bundle"),
    "scattering": ("matrix_element_squared", "matrix_element"),
    "spectra": ("SpectrumCurve", "InterferenceConfig", "spectrum_curve", "interference_curve"),
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
    *(name for m in (errors, lambertw, potential, poles, observables) for name in m.__all__),
    *_LAZY,
]
