#!/usr/bin/env python3
"""Decay widths and decay constants, and why the pole width is neither.

For each resonance the script lists three widths: the pole width (from
the imaginary part of the resonant energy), the decay width (the
Lorentzian-weighted integral of the squared coupling matrix element),
and the sharp approximation obtained by collapsing the Lorentzian to a
delta function. Their ratios carry the physics:

* decay constant = decay width / pole width, which tends to 2 for the
  sharpest poles here rather than 1,
* sharp decay constant, which does tend to 1 as poles sharpen, showing
  that the delta-function step is what breaks the perturbative identity.
"""

from deltashell import PotentialSpec, table_records

LAM = -10.0

spec = PotentialSpec(lam=LAM)
rows = table_records(spec, 8)

print(f"strength {LAM:+g}\n")
hdr = f"{'row':<10} {'pole width':>12} {'decay width':>12} {'constant':>10} {'sharp w.':>10} {'sharp c.':>10}"
print(hdr)
print("-" * len(hdr))
for rec in rows:
    pole = rec.pole
    name = pole.kind.value if pole.kind.value != "resonance" else f"res n={pole.index}"
    sharp_w = "" if rec.gamma_bar_sharp is None else f"{rec.gamma_bar_sharp:10.4f}"
    sharp_c = "" if rec.gamma_sharp is None else f"{rec.gamma_sharp:10.4f}"
    print(
        f"{name:<10} {pole.gamma_R:>12.4f} {rec.gamma_bar:>12.4f} "
        f"{rec.gamma:>10.4f} {sharp_w:>10} {sharp_c:>10}"
    )

print(
    "\nnote the bound row: zero decay width, decay constant exactly 1\n"
    "(the residue normalization coincides with the usual norm there)\n"
)

# second-order perturbation theory claims the Lorentzian integral returns
# the pole width itself; that integral is the decay width, and evaluating
# it shows otherwise for every resonance
print("perturbative width equation, RHS / pole width (would be 1 if the")
print("perturbative identity held):")
for rec in rows:
    pole = rec.pole
    if pole.kind.value == "resonance" and pole.index <= 3:
        print(f"  n={pole.index}:  {rec.gamma_bar / pole.gamma_R:.4f}")
