"""Enumerate and classify the S-matrix poles of the shell potential.

Poles are the zeros of the incoming Jost function, i.e. the complex roots
of ``2 i k a + lam * (exp(2 i k a) - 1) = 0``. With ``t = lam - 2 i a k``
this becomes ``t exp(t) = lam exp(lam)``, so every pole is

    k = (lam - W_n(lam * exp(lam))) / (2 i a)

for some branch n of the Lambert W function. Branch bookkeeping:

* resonances (fourth quadrant): branches -1, -2, ... for lam > 0; for
  lam < 0 branch -1 is taken by the virtual state (or by the trivial
  self-root ``W(lam e^lam) = lam`` when lam < -1), so resonances start at
  branch -2. User-facing index n = 1 is always the lowest resonance.
* anti-resonances (third quadrant): k_{-n} = -conj(k_n), formed as that
  mirror of resonance n; for real lam f(-conj k) = conj f(k) holds bit for
  bit, so both share one residual. The oracle's closed form is branch +n
  for every lam: for a negative real argument the conjugation identity
  picks up a unit branch offset across the cut, conj(W_{-m}) = W_{m-1}.
* bound state (lam < -1): branch 0.  virtual state (-1 < lam < 0): branch -1.

Each Lambert-W root is polished with one or two Newton steps on the
transcendental equation itself, which drives the equation residual to the
evaluation noise floor (~1e-13 for |lam| = 100).

The residue normalization of each pole, N^2 = i res_k S, is formed here
too, in scalar complex arithmetic like the poles themselves.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

from .errors import DegeneratePole, InvalidInput, NonConvergence, NoSuchPole
from .lambertw import lambert_w
from .potential import PotentialSpec, Pole, PoleKind

__all__ = [
    "NormalizationData",
    "find_resonance",
    "find_anti_resonance",
    "find_bound_state",
    "find_virtual_state",
    "enumerate_poles",
    "transcendental_residual",
    "zeldovich_norm",
]

_RESIDUAL_TOL = 1e-12
_DEGENERACY_BAND = 1e-10  # |lam + 1| below this: branch-point collision at k = 0
_DEGENERATE_TOL = 1e-13


def transcendental_residual(spec: PotentialSpec, k: complex) -> float:
    """|2ika + lam (exp(2ika) - 1)|, the pole-equation residual at k."""
    x = 2j * k * spec.a
    return abs(x + spec.lam * (cmath.exp(x) - 1.0))


def _polish_complex(spec: PotentialSpec, k: complex, steps: int = 2) -> complex:
    # Newton on f(k) = 2ika + lam(e^{2ika} - 1); recovers the precision lost
    # to cancellation in lam - W when |lam| is large.
    lam, a = spec.lam, spec.a
    exp = cmath.exp
    for _ in range(steps):
        x = 2j * k * a
        e = exp(x)
        f = x + lam * (e - 1.0)
        fp = 2j * a * (1.0 + lam * e)
        if fp == 0:
            break
        k = k - f / fp
    return k

def _polish_imaginary(spec: PotentialSpec, y: float, steps: int = 3) -> float:
    # Same Newton step restricted to k = i y, so bound/virtual poles stay
    # exactly on the imaginary axis.
    lam, a = spec.lam, spec.a
    for _ in range(steps):
        f = -2.0 * y * a + lam * math.expm1(-2.0 * y * a)
        fp = -2.0 * a * (1.0 + lam * math.exp(-2.0 * y * a))
        if fp == 0:
            break
        y = y - f / fp
    return y


def _w_argument(spec: PotentialSpec) -> float:
    return spec.lam * math.exp(spec.lam)


def _checked(spec: PotentialSpec, pole: Pole) -> Pole:
    resid = transcendental_residual(spec, pole.k)
    if resid > _RESIDUAL_TOL:
        raise NonConvergence(
            f"pole {pole.kind.value} n={pole.index} residual {resid:.3e} exceeds {_RESIDUAL_TOL}"
        )
    return pole


def _positive(n, what: str) -> int:
    try:  # operator.index takes numpy integers, but neither 2.5 nor 2.0
        if (n := operator.index(n)) >= 1:
            return n
    except TypeError:
        pass
    raise InvalidInput(f"{what} must be a positive integer")


def find_resonance(spec: PotentialSpec, n: int) -> Pole:
    """Return the n-th resonance (n = 1 is the lowest, ordered by Re k).

    Uses branch -n of W for positive strength and branch -(n+1) for
    negative strength, so the caller's indexing is uniform in sign.
    A found resonance is memoized on ``spec``; a failed find stores nothing.
    """
    n = _positive(n, "resonance index")
    if (pole := spec._resonances.get(n)) is None:
        m = n if spec.lam > 0 else n + 1
        w = lambert_w(-m, _w_argument(spec))
        k = _polish_complex(spec, (spec.lam - w) / (2j * spec.a))
        if not (k.real > 0 and k.imag < 0):
            raise NonConvergence(f"branch {-m} root {k} is not in the fourth quadrant")
        pole = spec._resonances[n] = _checked(spec, Pole(PoleKind.RESONANCE, -m, n, k, k * k))
    return pole


def find_anti_resonance(spec: PotentialSpec, n: int) -> Pole:
    """Return anti-resonance n, the mirror -conj(k_n) of ``find_resonance(spec, n)``."""
    n = _positive(n, "anti-resonance index")
    k = -find_resonance(spec, n).k.conjugate()
    return _checked(spec, Pole(PoleKind.ANTI_RESONANCE, n, n, k, k * k))


def find_bound_state(spec: PotentialSpec) -> Pole:
    """Return the bound-state pole (exists only for lam < -1)."""
    if not spec.lam < -1.0 or abs(spec.lam + 1.0) < _DEGENERACY_BAND:
        raise NoSuchPole(f"no bound state for strength {spec.lam}")
    w = lambert_w(0, _w_argument(spec))
    y = _polish_imaginary(spec, -(spec.lam - w.real) / (2.0 * spec.a))
    if not y > 0:
        raise NonConvergence("bound-state root left the positive imaginary axis")
    k = complex(0.0, y)
    return _checked(spec, Pole(PoleKind.BOUND, 0, 0, k, complex(-y * y, 0.0)))


def find_virtual_state(spec: PotentialSpec) -> Pole:
    """Return the virtual (anti-bound) pole (exists only for -1 < lam < 0)."""
    if not (-1.0 < spec.lam < 0.0) or abs(spec.lam + 1.0) < _DEGENERACY_BAND:
        raise NoSuchPole(f"no virtual state for strength {spec.lam}")
    w = lambert_w(-1, _w_argument(spec))
    y = _polish_imaginary(spec, -(spec.lam - w.real) / (2.0 * spec.a))
    if not y < 0:
        raise NonConvergence("virtual-state root left the negative imaginary axis")
    k = complex(0.0, y)
    return _checked(spec, Pole(PoleKind.VIRTUAL_STATE, -1, 0, k, complex(-y * y, 0.0)))


def enumerate_poles(spec: PotentialSpec, count: int) -> list[Pole]:
    """Bound or virtual pole (when present) followed by resonances 1..count."""
    count = _positive(count, "count")
    poles: list[Pole] = []
    if spec.lam < -1.0 and abs(spec.lam + 1.0) >= _DEGENERACY_BAND:
        poles.append(find_bound_state(spec))
    elif -1.0 < spec.lam < 0.0 and abs(spec.lam + 1.0) >= _DEGENERACY_BAND:
        poles.append(find_virtual_state(spec))
    poles.extend(find_resonance(spec, n) for n in range(1, count + 1))
    return poles


@dataclass(frozen=True)
class NormalizationData:
    """Residue-based normalization of one resonant state.

    n_r_squared is the squared normalization constant fixed by the
    S-matrix residue in the k-plane: N^2 = i res_k S = -i J1 / J2'.
    k is the pole's wave number k_R.
    """

    n_r_squared: complex
    abs_n_r_squared: float
    residue_k: complex
    k: complex

    @property
    def residue_E(self) -> complex:
        """Energy-plane residue 2 k_R residue_k (chain rule through E = k^2).

        Formed on request only: for a deep bound state (lam near -700)
        |residue_k| ~ 1e306 and the product overflows, but only the
        resonance cross sections use it.
        """
        return 2.0 * self.k * self.residue_k


def zeldovich_norm(spec: PotentialSpec, pole: Pole) -> NormalizationData:
    """Residue of S at the pole and the squared normalization constant.

    Scalar and uncached: J1(k_R) and J2'(k_R) are formed with cmath in
    Python complex arithmetic, so every field is a Python complex or float.
    """
    k = complex(pole.k)
    if k == 0:
        raise InvalidInput("Jost functions are singular at k = 0")
    # J2 = [2ika + lam(e^{2ika}-1)]/(4ka); on a pole the bracket vanishes,
    # leaving J2'(k_R) = i (1 + lam e^{2 i k_R a}) / (2 k_R).
    j2p = 1j * (1.0 + spec.lam * cmath.exp(2j * k * spec.a)) / (2.0 * k)
    if abs(j2p) < _DEGENERATE_TOL:
        raise DegeneratePole(f"J2'({pole.k}) is numerically zero; double pole?")
    g = spec.lam / spec.a
    j1 = (-2j * k + g * (cmath.exp(-2j * k * spec.a) - 1.0)) / (4.0 * k)
    residue_k = -j1 / j2p
    n_r_squared = 1j * residue_k
    return NormalizationData(
        n_r_squared=n_r_squared,
        abs_n_r_squared=abs(n_r_squared),
        residue_k=residue_k,
        k=pole.k,
    )


def _shell_density(spec: PotentialSpec, pole: Pole) -> float:
    """|N|^2 exp(2 beta a) = |u(a)|^2, formed before any lam^2 factor.

    Near lam = -700 the bound state has |N|^2 ~ 1e306 and exp(2 beta a)
    ~ 1e-304; multiplying lam^2 into |N|^2 first would overflow.
    """
    return zeldovich_norm(spec, pole).abs_n_r_squared * math.exp(2.0 * pole.beta_R * spec.a)
