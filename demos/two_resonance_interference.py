#!/usr/bin/env python3
"""Interference of two resonant states in the decay energy spectrum.

A state prepared as a superposition of two resonant states decays with a
spectrum containing both Lorentzian-like humps plus a cross term whose
sign tracks the relative phase of the expansion coefficients. A
delta-function (Golden Rule) treatment has no overlap between the two
peaks and cannot produce this term. The script scans the relative phase
and shows how the valley between the peaks fills or deepens.
"""

import numpy as np

from deltashell import (
    InterferenceConfig,
    PotentialSpec,
    find_resonance,
    interference_curve,
)

spec = PotentialSpec(lam=100.0)
p1 = find_resonance(spec, 1)
p2 = find_resonance(spec, 2)
mid = 0.5 * (p1.e_R + p2.e_R)
print(f"resonances at E = {p1.e_R:.3f} and {p2.e_R:.3f}, midpoint {mid:.3f}\n")

grid = np.linspace(0.5, 80.0, 4001)
amp = 1.0 / np.sqrt(2.0)
print(f"{'relative phase':>15} {'dP/dE at midpoint':>18} {'area':>8}")
for deg in (0, 60, 120, 180):
    c2 = amp * np.exp(1j * np.deg2rad(deg))
    curve = interference_curve(spec, p1, p2, InterferenceConfig(c1=amp, c2=c2), grid)
    at_mid = float(np.interp(mid, curve.grid, curve.dP_dE))
    area = float(np.trapezoid(curve.dP_dE, curve.grid))
    print(f"{deg:>14}d {at_mid:>18.6f} {area:>8.4f}")

print("\nthe renormalized curves all carry unit probability; only its split")
print("between the two humps and the valley moves with the phase")

# coefficient weight sweep at fixed phase
print(f"\n{'weight of n=1':>14} {'peak 1':>10} {'peak 2':>10}")
for w in (0.9, 0.7, 0.5, 0.3, 0.1):
    cfg = InterferenceConfig(c1=np.sqrt(w), c2=np.sqrt(1 - w))
    curve = interference_curve(spec, p1, p2, cfg, np.linspace(0.5, 80.0, 8001))
    near1 = np.abs(curve.grid - p1.e_R) < 5 * p1.gamma_R
    near2 = np.abs(curve.grid - p2.e_R) < 5 * p2.gamma_R
    print(f"{w:>14.1f} {curve.dP_dE[near1].max():>10.4f} {curve.dP_dE[near2].max():>10.4f}")
