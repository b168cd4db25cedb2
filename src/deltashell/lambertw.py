"""Multi-branch complex Lambert W function.

``lambert_w(n, z)`` returns the branch-``n`` solution w of ``w * exp(w) = z``.
This is the root-finding kernel behind every resonance in the package: a
resonant wave number is the image of a Lambert W value under a linear map.
The anti-resonances are their mirrors -conj(k), and the bound and virtual
poles are solved off the branch point, both in deltashell.poles.

Branch cuts follow Corless et al., "On the Lambert W function" (1996): the
cut of branch 0 is (-inf, -1/e], that of every other branch (-inf, 0], and
a point on a cut takes the value continued from above. The sign bit of
Im z picks the side, as in cmath and ``scipy.special.lambertw``: -0.0 is
below the cut. Below it ``W_n(z) = conj(W_-n(conj z))`` is solved, so the
seeds see the closed upper half plane only.

Algorithm
---------
* Off branches 0 and -1 (after that conjugation), Newton on the unwound
  equation ``h(w) = w + Log w - L1 = 0``, ``L1 = Log z + 2 pi i n`` (Jeffrey,
  Hare & Corless 1996; it fails on branch -1 near (-1/e, 0)), from the series
  ``L1 - L2 + L2/L1 + L2(L2 - 2)/(2 L1^2)``, ``L2 = Log L1``. The root is the
  step taken from a w with ``|h| <= 4 eps (|w| + |Log w| + |L1|)``, sized at
  the seed (1-3 steps, cap 64). No e^w is formed, so nothing overflows.
* The same log form serves branches 0 and -1 where Halley's e^w leaves the
  normal floats: |z| > 2**1023 on both, and |z| < 2**-1012 on branch -1. On
  branch -1's real segment (-1/e, 0) the real form ``w + log(-w) = log(-z)``
  is solved instead, so W is real there.
* Branches 0 and -1 elsewhere: the asymptotic seed ``w0 = L1 - L2 + L2/L1``.
  Special seeds cover the regions where the asymptotic form degrades:
  on branch 0 a Taylor seed near z = 0, ``Log(1 + z)`` for |z| < 4, and a
  park seed -0.3 + 1.3i (next to W_0(-1)) in the band just above the cut
  left of -1/e, where ``Log(1 + z)`` is real or nearly so while the root is
  not, and Halley from a real seed stays real; on branch -1 a real
  logarithmic seed on the segment (-1/e, 0); and the branch-point series in
  ``p = +/- sqrt(2(e*z + 1))`` near z = -1/e.
* Their refinement: one Halley iteration on ``f(w) = w*exp(w) - z`` from the
  seed, relative step tolerance 1e-15, cap 64 iterations (3-5 steps in
  practice). It stops on a step below the tolerance or on a residual at the
  rounding floor ``|f| <= 4e-16 (|w e^w|/2 + |z|/2)``: halving is exact
  above the subnormals, so this is ``2e-16 (|w e^w| + |z|)``, but finite up
  to |z| = 1.8e308. It accepts the root only if
  ``|f| <= 1e-13 max(1, |z|)``, read from the |f| it already formed (e^w
  is evaluated once more only when the last step moved w). A refused root,
  or an overflow of e^w, is a NonConvergence: no other seed is tried.
* Inside ``|z + 1/e| < 1e-4`` the seed alone serves branches 0 and -1,
  the sheets that collide at the branch point above the cut: Halley's
  denominator degenerates there, and the seed is the degree-6 series,
  formed by ``_seed`` only, which lands within ~1e-15 of the root.
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
_LOG_TOL = 4.0 * 2.0**-52  # |h| relative to the sum of |h's terms|
# The |z| band of Halley on branches 0 and -1. Below it e^w = z / w, |w| < 2**10, can
# be subnormal (W_0 is near z there, so only branch -1). Above it complex division by
# Halley's e^w (1 + w) ~ z (1 + 1/w) forms up to sqrt(2) |divisor|, which overflows to
# a zero step from |z| ~ 1.27e308 on.
_HALLEY_MIN = 2.0**-1012
_HALLEY_MAX = 2.0**1023


def _branch_point_series(p: complex) -> complex:
    s = 0j
    for c in reversed(_BP_COEF):
        s = s * p + c
    return s


def _halley(w: complex, z: complex) -> complex | None:
    """The root Halley's iteration reaches from w if it passes the acceptance
    test, else None (see Algorithm above); an overflow of e^w propagates."""
    abs_z = abs(z)
    half_z = 0.5 * abs_z
    tol = _RESIDUAL_TOL * (abs_z if abs_z > 1.0 else 1.0)
    exp = cmath.exp
    try:
        for _ in range(_MAX_ITER):
            ew = exp(w)
            wew = w * ew
            f = wew - z
            if abs(f) <= 4e-16 * (0.5 * abs(wew) + half_z):
                # residual at the rounding floor (from halves, so the sum
                # cannot overflow); near the branch point the step criterion
                # below stalls on noise and would never fire. An overflowed
                # w e^w passes here as inf <= inf, and the acceptance test
                # refuses it.
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


def _unwound(n: int, z: complex) -> complex | None:
    """W_n(z) if Newton on the log form passes the acceptance test, else None."""
    l1 = cmath.log(z) + 1j * _TWO_PI * n
    l2 = cmath.log(l1)
    q = l2 / l1  # formed as quotients, so no L1^2 overflows for huge n
    w = l1 - l2 + q + 0.5 * q * ((l2 - 2.0) / l1)
    tol = _LOG_TOL * (abs(w) + abs(l2) + abs(l1))
    for _ in range(_MAX_ITER):
        h = (w - l1) + cmath.log(w)  # w and l1 are close: their difference first
        step = w - h * w / (w + 1.0)
        if abs(h) <= tol:
            return step
        w = step
    return None


def _real_segment(x: float) -> complex | None:
    """W_-1(x) for tiny x < 0 by Newton on the real form w + log(-w) = log(-x), as
    _unwound solves the log form: on branch -1's real segment (-1/e, 0) Log w is
    log|w| + i pi, and the unwound form has no root."""
    l1 = math.log(-x)
    l2 = math.log(-l1)
    w = l1 - l2 + l2 / l1
    tol = _LOG_TOL * (abs(w) + abs(l2) + abs(l1))
    for _ in range(_MAX_ITER):
        h = (w - l1) + math.log(-w)
        step = w - h * w / (w + 1.0)
        if abs(h) <= tol:
            return complex(step, 0.0)
        w = step
    return None


def _seed(branch: int, z: complex) -> complex:
    """The start of the Halley solve of branch 0 or -1, z on the upper half plane."""
    if branch == 0:
        if abs(z + _INV_E) < 0.3:
            return _branch_point_series(cmath.sqrt(2.0 * (math.e * z + 1.0)))
        if abs(z) < 0.3:
            return z * (1.0 + z * (-1.0 + 1.5 * z))
        if abs(z) < 4.0:
            if z.imag < 0.07 and -1.05 <= z.real < 0.0:
                # left of the branch-point disc, just above the cut, log(1 + z)
                # is real or nearly so and W_0 is not: park next to W_0(-1)
                return complex(-0.3, 1.3)
            return cmath.log(1.0 + z)
    else:
        if abs(z + _INV_E) < 0.3:
            return _branch_point_series(-cmath.sqrt(2.0 * (math.e * z + 1.0)))
        if z.imag == 0.0 and -_INV_E <= z.real < 0.0:
            lx = math.log(-z.real)
            return complex(lx - math.log(-lx), 0.0)
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
        w in the standard strip of the requested branch: where Halley runs
        (branches 0 and -1, 0 and 1 below the cut, inside its |z| band)
        ``|w * exp(w) - z| <= 1e-13 * max(1, |z|)``, elsewhere the Newton step
        past ``|h| <= 4 eps (...)`` of the Algorithm, whose forward residual
        has a floor of about ``eps |w| |z|``.

    Raises
    ------
    InvalidInput
        If branch is not an integer (``operator.index`` refuses it), z or
        its modulus is non-finite, or z = 0 with branch != 0.
    NonConvergence
        On branches 0 and -1, if Halley or the log form fails its acceptance
        test or e^w overflows; the others form no e^w and fail only past
        |n| = 2.8e307, where 2 pi n overflows (and n has no float from 2**1024 on).
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
    below = math.copysign(1.0, z.imag) < 0.0  # below the cut, -0.0 included
    n, u = (-branch, z.conjugate()) if below else (branch, z)
    try:
        if not -1 <= n <= 0:
            w = _unwound(n, u)
        elif near_branch_point:  # the series, at machine precision; Halley degenerates at w = -1
            w = _seed(n, u)
        elif (size := abs(u)) > _HALLEY_MAX:
            w = _unwound(n, u)
        elif n and size < _HALLEY_MIN:  # branch -1, whose e^w can be subnormal
            w = _real_segment(u.real) if u.imag == 0.0 and u.real < 0.0 else _unwound(n, u)
        else:
            w = _halley(_seed(n, u), u)
    except OverflowError:  # e^w overflowed on the way, or |n| >= 2**1024 has no float
        w = None
    if w is None:
        raise NonConvergence(f"W_{branch}({z}) did not converge")
    return w.conjugate() if below else w


def lambert_w_residual(w: complex, z: complex) -> float:
    """Forward defining-identity residual ``|w * exp(w) - z|``."""
    return abs(w * cmath.exp(w) - z)
