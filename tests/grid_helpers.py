"""Grid-layer helpers that only the tests use, built on the public library.

The energy-plane S-matrix, the resonant state's wavefunction and a list of
spectrum curves are checks of the library, not parts of it: each is a few
lines over ``s_matrix``, ``jost``, ``zeldovich_norm`` and ``spectrum_curve``.
Units are the library's: k and r in units of the radius, E = k^2.
"""

from __future__ import annotations

import numpy as np

from deltashell import InvalidInput, find_resonance, jost, s_matrix, spectrum_curve, zeldovich_norm


def s_matrix_energy(spec, e):
    """S as a function of complex energy via the principal sqrt k = sqrt(E).

    The principal branch maps Im E < 0 to the fourth k-quadrant, the sheet
    that carries the resonance poles, so a contour around a resonant energy
    stays on that sheet while it stays in the lower half plane.
    """
    return s_matrix(spec, np.sqrt(np.asarray(e, dtype=complex)))


def resonant_wavefunction(spec, pole, r):
    """Pole eigenfunction u(r): N sin(k r)/J1(k) inside, N exp(i k r) outside.

    The branches agree at the shell, r = 1, because J2(k) = 0 on a pole makes
    sin(k)/J1(k) = exp(i k). N is the principal square root of N^2.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InvalidInput("radius must be nonnegative")
    n_r = np.sqrt(zeldovich_norm(spec, pole))
    inside = n_r * np.sin(pole.k * r) / jost(spec, pole.k)[0]
    u = np.where(r < 1.0, inside, n_r * np.exp(1j * pole.k * r))
    return u.item() if u.ndim == 0 else u


def multi_spectrum(spec, indices, e_min, e_max, points):
    """Spectrum curves for several resonance indices on a shared window."""
    return [spectrum_curve(spec, find_resonance(spec, n), e_min, e_max, points) for n in indices]
