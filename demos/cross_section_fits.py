#!/usr/bin/env python3
"""Exact cross section versus its three single-pole approximants.

Near a sharp resonance the Laurent (Breit-Wigner), e-unitarized and
k-unitarized forms are nearly interchangeable: the two unitarized forms
differ by the closed-form ratio 4 a^2 / ((k + a)^2 + b^2), and Laurent
differs from e-unitarized only by the constant |residue|^2 / width^2.
The exact curve alone knows about the background, which carves a zero
into the cross section about one width below the peak.

Writes cross_section_fits.csv with all four curves plus the two-pole
form that adds the neighboring resonance coherently.
"""

from pathlib import Path

import numpy as np

from deltashell import (
    PotentialSpec,
    cross_section_bundle,
    find_resonance,
    zeldovich_norm,
)

spec = PotentialSpec(lam=100.0)
pole = find_resonance(spec, 3)
# the window E_R +/- 10 Gamma_R, the command line's default (positive for this sharp pole)
grid = np.linspace(pole.e_R - 10 * pole.gamma_R, pole.e_R + 10 * pole.gamma_R, 2001)
bundle = cross_section_bundle(spec, pole, grid, second_index=2)

path = Path(__file__).parent / "cross_section_fits.csv"
np.savetxt(
    path,
    np.column_stack([bundle.grid, bundle.exact, bundle.laurent,
                     bundle.e_unitarized, bundle.k_unitarized, bundle.two_pole]),
    delimiter=",",
    header="E,exact,laurent,e_unitarized,k_unitarized,two_pole",
    comments="",
)
print(f"wrote {path}")

i_zero = int(np.argmin(bundle.exact))
print(f"\npeak:  exact {bundle.exact.max():.5f} at E = {bundle.grid[np.argmax(bundle.exact)]:.3f}"
      f"  (unitarity ceiling 4 pi / E = {4 * np.pi / pole.e_R:.5f})")
print(f"background zero of the exact curve near E = {bundle.grid[i_zero]:.3f}, "
      f"where the approximants stay at {bundle.laurent[i_zero]:.5f}")

# |residue_E| = |2 k_R res_k S| = 2 |k_R| |N^2|, with N^2 = i res_k S
residue_e = 2.0 * abs(pole.k) * abs(zeldovich_norm(spec, pole))
print(f"\nLaurent / e-unitarized constant ratio: "
      f"{(residue_e / pole.gamma_R) ** 2:.6f}")
ratios = bundle.e_unitarized / bundle.k_unitarized
print(f"e-unitarized / k-unitarized across the window: "
      f"{ratios.min():.6f} .. {ratios.max():.6f}")

print("\nsup distance from the exact curve, relative to the peak:")
for name, col in (("laurent", bundle.laurent),
                  ("e-unitarized", bundle.e_unitarized),
                  ("k-unitarized", bundle.k_unitarized)):
    dev = np.max(np.abs(col - bundle.exact)) / bundle.exact.max()
    print(f"  {name:<14} {dev:.4f}")
