"""Multi-branch complex Lambert W function.

``lambert_w(n, z)`` returns the branch-``n`` solution w of ``w * exp(w) = z``.
This is the root-finding kernel behind every pole computation in the
package: the shell's resonant, anti-resonant, bound and virtual wave
numbers are all images of Lambert W values under a linear map.

Algorithm
---------
* Seed: the asymptotic expansion ``w0 = L1 - L2 + L2/L1`` with
  ``L1 = Log(z) + 2*pi*i*n`` (principal logarithm) and ``L2 = Log(L1)``.
  Special seeds cover the regions where the asymptotic form degrades:
  a Taylor seed near z = 0 on the principal branch, a real logarithmic
  seed for branch -1 on the real segment (-1/e, 0), and the branch-point
  series in ``p = +/- sqrt(2(e*z + 1))`` near z = -1/e.
* Refinement: Halley iteration on ``f(w) = w*exp(w) - z``, relative step
  tolerance 1e-15, cap 64 iterations (cubic convergence; 3-5 steps in
  practice). It stops on a step below the tolerance or on a residual at
  the rounding floor ``|f| <= 2e-16 (|w e^w| + |z|)``, and a root is
  accepted only if ``|f| <= 1e-13 max(1, |z|)``. The test reads the |f|
  the iteration already formed: e^w is evaluated once more only when the
  last step moved w. A refused root is retried from the seed times
  ``1 +/- 0.5i`` (a rare basin escape). An overflow of e^w ends the solve
  with NonConvergence, and no seed is tried after it.
* Inside ``|z + 1/e| < 1e-4`` the series alone is used for the two sheets
  that collide at the branch point (branches 0 and -1 on the closed upper
  half plane, branches 0 and +1 below the axis): Halley's denominator
  degenerates there, and the degree-6 series already lands within ~1e-15
  of the root.

Branch cuts follow the principal-logarithm convention (negative real
axis, values on the cut continued from above).
"""

from __future__ import annotations

import cmath
import math
import operator

from .errors import InvalidInput, NonConvergence

__all__ = ["lambert_w", "lambert_w_residual"]

_INV_E = math.exp(-1.0)
_TWO_PI = 2.0 * math.pi

# Coefficients of the branch-point expansion W = sum c_j p^j, p = sqrt(2(e z + 1)).
_BP_COEF = (
    -1.0,
    1.0,
    -1.0 / 3.0,
    11.0 / 72.0,
    -43.0 / 540.0,
    769.0 / 17280.0,
    -221.0 / 8505.0,
)

_STEP_TOL = 1e-15
_MAX_ITER = 64
_RESIDUAL_TOL = 1e-13


def _branch_point_series(p: complex) -> complex:
    s = 0j
    for c in reversed(_BP_COEF):
        s = s * p + c
    return s


def _halley(w: complex, z: complex) -> complex | None:
    """The root Halley's iteration reaches from w if it passes the acceptance
    test, else None (see Refinement above); an overflow of e^w propagates."""
    abs_z = abs(z)
    tol = _RESIDUAL_TOL * (abs_z if abs_z > 1.0 else 1.0)
    exp = cmath.exp
    try:
        for _ in range(_MAX_ITER):
            ew = exp(w)
            wew = w * ew
            f = wew - z
            if abs(f) <= 2e-16 * (abs(wew) + abs_z):
                # residual at the rounding floor; near the branch point the
                # step criterion below stalls on noise and would never fire.
                # An overflowed w e^w passes here as inf <= inf, and the
                # acceptance test refuses it.
                return w if abs(f) <= tol else None
            wp1 = w + 1.0
            dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
            step = w - dw
            aw = abs(step)
            if abs(dw) <= _STEP_TOL * (1e-290 if aw < 1e-290 else aw):
                if step != w:
                    f = step * exp(step) - z
                return step if abs(f) <= tol else None
            w = step
    except ZeroDivisionError:  # w = -1, or a zero Halley denominator
        return None
    return None


def _seed(branch: int, z: complex) -> complex:
    if -1 <= branch <= 1:
        # special seeds for the branches meeting at 0 or -1/e; others go asymptotic
        if branch == 0:
            if abs(z + _INV_E) < 0.3:
                return _branch_point_series(cmath.sqrt(2.0 * (math.e * z + 1.0)))
            if abs(z) < 0.3:
                return z * (1.0 + z * (-1.0 + 1.5 * z))
            if abs(z) < 4.0:
                if abs(z + 1.0) > 0.05:
                    return cmath.log(1.0 + z)
                # near z = -1 the log1p seed collapses; park next to W_0(-1)
                return complex(-0.3, 1.3 if z.imag >= 0 else -1.3)
        if branch == -1:
            if abs(z + _INV_E) < 0.3 and z.imag >= 0:
                return _branch_point_series(-cmath.sqrt(2.0 * (math.e * z + 1.0)))
            if z.imag == 0.0 and -_INV_E <= z.real < 0.0:
                lx = math.log(-z.real)
                return complex(lx - math.log(-lx), 0.0)
        if branch == 1 and z.imag < 0.0 and abs(z + _INV_E) < 0.3:
            # below the axis the sheet colliding with the principal branch at
            # -1/e is +1, the mirror of -1 above it
            return _branch_point_series(-cmath.sqrt(2.0 * (math.e * z + 1.0)))
    l1 = cmath.log(z) + 1j * _TWO_PI * branch
    l2 = cmath.log(l1)
    return l1 - l2 + l2 / l1


def lambert_w(branch: int, z: complex) -> complex:
    """Evaluate branch ``branch`` of the Lambert W function at ``z``.

    Parameters
    ----------
    branch : int
        Branch index n; any integer. Branch 0 is the principal branch.
    z : complex
        Argument. Must be finite with |z| <= 1.8e308, and nonzero unless
        ``branch == 0`` (other branches diverge logarithmically at 0).

    Returns
    -------
    complex
        w with ``w * exp(w) = z`` to within ``1e-13 * max(1, |z|)`` and
        Im(w) in the standard strip of the requested branch.

    Raises
    ------
    InvalidInput
        If branch is not an integer (``operator.index`` refuses it), z or
        its modulus is non-finite, or z = 0 with branch != 0.
    NonConvergence
        If no seed's Halley iteration passes the acceptance test, or e^w
        overflows on the way (as for ``W_-1000(1e40)`` or ``W_3(1e308)``).
    """
    if type(branch) is not int:
        try:
            branch = operator.index(branch)
        except TypeError:
            raise InvalidInput(f"lambert_w branch must be an integer, not {branch!r}") from None
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidInput("lambert_w requires a finite argument")
    if z == 0:
        if branch == 0:
            return 0j
        raise InvalidInput(f"W_{branch} diverges at z = 0")

    try:
        near_branch_point = abs(z + _INV_E) < 1e-4
    except OverflowError:  # |z| beyond the largest float, as for 1.7e308 (1 + i)
        raise InvalidInput(f"lambert_w argument {z} has |z| beyond 1.8e308") from None
    if near_branch_point:
        # Halley degenerates at the double root w = -1; the series is already
        # at machine precision here. The two sheets meeting at -1/e are
        # (0, -1) on the closed upper half plane and (0, +1) below it; the
        # remaining branch of the trio stays on its remote sheet and is
        # served by the asymptotic seed.
        p = cmath.sqrt(2.0 * (math.e * z + 1.0))
        if branch == 0:
            return _branch_point_series(p)
        if branch == -1 and z.imag >= 0.0:
            return _branch_point_series(-p)
        if branch == 1 and z.imag < 0.0:
            return _branch_point_series(-p)

    try:
        if (w := _halley(_seed(branch, z), z)) is not None:
            return w
        # rare basin escape: retry from perturbed seeds before giving up
        for retry in (1.0 + 0.5j, 1.0 - 0.5j):
            if (w := _halley(_seed(branch, z) * retry, z)) is not None:
                return w
    except OverflowError:
        # e^w overflowed: a retry seed far out on a high branch, or |z| near
        # the largest float. No seed is tried after it.
        pass
    raise NonConvergence(f"W_{branch}({z}) did not converge")


def lambert_w_residual(w: complex, z: complex) -> float:
    """Forward defining-identity residual ``|w * exp(w) - z|``."""
    return abs(w * cmath.exp(w) - z)
