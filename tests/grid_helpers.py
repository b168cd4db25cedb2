"""Grid-layer helpers that only the tests use, built on the public library.

The Jost functions, the S-matrix (wave-number and energy plane) and the
resonant state's wavefunction are checks of the library, not parts of it:
the library forms sigma from the phase shift and N^2 from the pole's
Lambert-W value, so the Jost route here stays the independent check of both. Units are the library's: k and r in units of the
radius, E = k^2. Like the library's grid layer, each returns arrays shaped like
its input, 0-d for a scalar.
"""

from __future__ import annotations

import numpy as np

from deltashell import InvalidInput, zeldovich_norm


def jost(spec, k):
    """Jost functions (J1, J2) at complex wave number k (vectorized).

    J_{1,2} = (1/4k) [ -/+ 2ik + lam (exp(-/+ 2ik) - 1) ].
    For real k > 0, J1 = conj(J2), which makes |S| = 1 on the real axis.
    """
    k = np.asarray(k, dtype=complex)
    if np.any(k == 0):
        raise InvalidInput("Jost functions are singular at k = 0")
    j1 = (-2j * k + spec.lam * (np.exp(-2j * k) - 1.0)) / (4.0 * k)
    j2 = (2j * k + spec.lam * (np.exp(2j * k) - 1.0)) / (4.0 * k)
    return np.asarray(j1), np.asarray(j2)


def s_matrix(spec, k):
    """S(k) = -J1(k)/J2(k); unitary for real k, poles at the J2 zeros.

    Raises ZeroDivisionError where |J2| <= 1e-13 max(1, |J1|), on top of a pole.
    """
    j1, j2 = jost(spec, k)
    if np.any(np.abs(j2) <= 1e-13 * np.maximum(1.0, np.abs(j1))):
        raise ZeroDivisionError("S-matrix evaluated on top of a pole")
    return np.asarray(-j1 / j2)


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
    return np.where(r < 1.0, inside, n_r * np.exp(1j * pole.k * r))
