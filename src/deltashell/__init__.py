"""Resonance observables of the delta-shell potential.

Poles of the S-matrix in closed form through the multi-branch Lambert W
function, residue-normalized resonant states, decay widths and decay
constants as closed-form residue sums, decay-energy-spectrum lineshapes with
two-resonance interference, and cross-section approximants.

Quick start::

    >>> from deltashell import PotentialSpec, find_resonance, observables_record
    >>> spec = PotentialSpec(lam=100.0)
    >>> pole = find_resonance(spec, 1)
    >>> row = observables_record(spec, pole)
    >>> round(row.gamma, 4)
    1.9924
"""

from .cross_sections import (
    CrossSectionBundle,
    cross_section_bundle,
    cross_section_e_unitarized,
    cross_section_exact,
    cross_section_k_unitarized,
    cross_section_laurent,
    cross_section_two_pole,
    unitarized_ratio,
)
from .errors import (
    DegeneratePole,
    DeltaShellError,
    InvalidInput,
    NonConvergence,
    NoSuchPole,
    PoleHit,
    ToleranceNotMet,
)
from .lambertw import lambert_w, lambert_w_residual
from .observables import (
    ObservablesRecord,
    decay_constant_differential,
    decay_constant_total,
    decay_width_differential,
    decay_width_total,
    golden_rule_sharp,
    observables_record,
    perturbation_rhs,
    table_records,
)
from .poles import (
    enumerate_poles,
    find_anti_resonance,
    find_bound_state,
    find_resonance,
    find_virtual_state,
    transcendental_residual,
)
from .potential import Pole, PoleKind, PotentialSpec
from .quadrature import QuadratureRequest, integrate_semi_infinite
from .scattering import (
    JostPair,
    NormalizationData,
    jost,
    matrix_element,
    matrix_element_squared,
    resonant_wavefunction,
    s_matrix,
    s_matrix_energy,
    zeldovich_norm,
)
from .spectra import (
    InterferenceConfig,
    SpectrumCurve,
    decay_energy_spectrum,
    interference_curve,
    interference_spectrum,
    multi_spectrum,
    spectrum_curve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CrossSectionBundle",
    "DegeneratePole",
    "DeltaShellError",
    "InterferenceConfig",
    "InvalidInput",
    "JostPair",
    "NonConvergence",
    "NormalizationData",
    "NoSuchPole",
    "ObservablesRecord",
    "Pole",
    "PoleHit",
    "PoleKind",
    "PotentialSpec",
    "QuadratureRequest",
    "SpectrumCurve",
    "ToleranceNotMet",
    "cross_section_bundle",
    "cross_section_e_unitarized",
    "cross_section_exact",
    "cross_section_k_unitarized",
    "cross_section_laurent",
    "cross_section_two_pole",
    "decay_constant_differential",
    "decay_constant_total",
    "decay_energy_spectrum",
    "decay_width_differential",
    "decay_width_total",
    "enumerate_poles",
    "find_anti_resonance",
    "find_bound_state",
    "find_resonance",
    "find_virtual_state",
    "golden_rule_sharp",
    "integrate_semi_infinite",
    "interference_curve",
    "interference_spectrum",
    "jost",
    "lambert_w",
    "lambert_w_residual",
    "matrix_element",
    "matrix_element_squared",
    "multi_spectrum",
    "observables_record",
    "perturbation_rhs",
    "resonant_wavefunction",
    "s_matrix",
    "s_matrix_energy",
    "spectrum_curve",
    "table_records",
    "transcendental_residual",
    "unitarized_ratio",
    "zeldovich_norm",
]
