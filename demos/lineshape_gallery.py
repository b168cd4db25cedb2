#!/usr/bin/env python3
"""Decay-energy-spectrum lineshapes: sharp, broad, and virtual.

Writes three CSV files next to this script and prints the diagnostics
that distinguish the true lineshape from a plain Breit-Wigner:

* sharp resonance: nearly symmetric, but the peak height is the sharp
  decay constant divided by the decay constant (about half), and the
  peak is slightly displaced;
* broad resonance: visibly skewed, with a bump just above threshold and
  wiggles in the tails from the coupling matrix element;
* virtual state: no Lorentzian at all, a spike pinned to the threshold.

Each CSV has columns E, dP_dE, breit_wigner, matrix_element and can be
plotted with any tool (or via the CLI's --emit-plot-script helper).
"""

from pathlib import Path

import numpy as np

from deltashell import PotentialSpec, find_resonance, find_virtual_state, spectrum_curve

HERE = Path(__file__).parent


def dump(name, curve):
    path = HERE / name
    cols = np.column_stack([curve.grid, curve.dP_dE, curve.breit_wigner, curve.matrix_element])
    np.savetxt(path, cols, delimiter=",", header="E,dP_dE,breit_wigner,matrix_element", comments="")
    print(f"  wrote {path}")


# sharp: third resonance behind a tall barrier
spec = PotentialSpec(lam=100.0)
pole = find_resonance(spec, 3)
window = 7 * pole.gamma_R
sharp = spectrum_curve(spec, pole, np.linspace(pole.e_R - window, pole.e_R + window, 2001))
print("sharp resonance (strength 100, n=3):")
dump("lineshape_sharp.csv", sharp)
i = int(np.argmax(sharp.dP_dE))
print(f"  peak at E = {sharp.grid[i]:.4f} vs pole energy {pole.e_R:.4f}")
print(f"  peak height {sharp.dP_dE[i]:.4f} vs Breit-Wigner {sharp.breit_wigner.max():.4f}")

# broad: same resonance order, weaker barrier
spec = PotentialSpec(lam=10.0)
pole = find_resonance(spec, 3)
broad = spectrum_curve(spec, pole, np.linspace(1e-3, 2 * pole.e_R, 2001))
print("\nbroad resonance (strength 10, n=3):")
dump("lineshape_broad.csv", broad)
low = broad.grid < 0.3 * pole.e_R
bump = int(np.argmax(broad.dP_dE[low]))
print(f"  threshold bump at E = {broad.grid[bump]:.3f} "
      f"(height {broad.dP_dE[bump]:.5f}, Breit-Wigner there {broad.breit_wigner[bump]:.5f})")
up = np.interp(pole.e_R + pole.gamma_R, broad.grid, broad.dP_dE)
down = np.interp(pole.e_R - pole.gamma_R, broad.grid, broad.dP_dE)
print(f"  asymmetry one width off-peak: {up:.5f} above vs {down:.5f} below")

# virtual: shallow well, no resonant Lorentzian
spec = PotentialSpec(lam=-0.5)
virtual = spectrum_curve(spec, find_virtual_state(spec), np.linspace(1e-3, 2.0, 2001))
print("\nvirtual state (strength -0.5):")
dump("lineshape_virtual.csv", virtual)
i = int(np.argmax(virtual.dP_dE))
print(f"  spike at E = {virtual.grid[i]:.4f}, decaying by "
      f"{virtual.dP_dE[i] / virtual.dP_dE[-1]:.1f}x across the window")
