"""Enumerate and classify the S-matrix poles of the shell potential.

Poles are the zeros of the incoming Jost function, i.e. the complex roots
of ``2 i k + lam * (exp(2 i k) - 1) = 0`` (k in units of 1/a). With
``t = lam - 2 i k`` this becomes ``t exp(t) = lam exp(lam)``, so every pole is

    k = (lam - W_n(lam * exp(lam))) / (2 i)

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
* bound state (lam < -1): branch 0.  virtual state (-1 < lam < 0): branch -1,
  as printed: neither evaluates W. With the root k = 0 divided out, the
  pole k = i y solves F(y) = y - log(sinh y / y) = log(-lam) by Newton;
  F is increasing and concave, and log(-lam) keeps its digits next to the
  threshold lam = -1, as -lam is exact, down to the floats next to it. At
  lam = -1 itself the two meet at k = 0, where N^2 is 0/0: DegeneratePole.

Each resonance root is polished with two Newton steps on f(k) = 0 itself,
which drive its residual to the evaluation noise floor (~1e-13 for
|lam| = 100); the gate reads the |f| the last step formed, so a resonance
costs two exponentials and its mirror none.

The residue normalization of each pole, N^2 = i res_k S, is formed here
too, as one closed form in t = lam e^{2ik} = W_n (lam e^lam):

    N^2 = 2 k^2 / (t (1 + t)),

valid only on a pole of the spec, and degenerate (a double pole) where
1 + t = (1 + lam) - 2ik vanishes. No Jost function is evaluated.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys

from .errors import DegeneratePole, InvalidInput, NonConvergence, NoSuchPole
from .lambertw import lambert_w
from .potential import (
    _ANTI_RESONANCE, _BOUND, _RESONANCE, _VIRTUAL_STATE, PotentialSpec, Pole, PoleKind,
)

__all__ = [
    "find_resonance",
    "find_anti_resonance",
    "find_bound_state",
    "find_virtual_state",
    "enumerate_poles",
    "transcendental_residual",
    "zeldovich_norm",
]

_RESIDUAL_TOL = 1e-12
_DEGENERATE_TOL = 1e-13
_COMPLEX_STEPS = 2  # Newton steps polishing a resonance
_AXIS_STEPS = 8  # cap on the Newton steps of a bound or virtual state (4 at most seen)
_AXIS_TOL = 1e-13  # |F(y) - log(-lam)| relative to the sum of |F's terms|
# (sinh y - y) / y = y^2 (1/3! + y^2/5! + ...), within an ulp for |y| < 1/2
_SINH_SERIES = tuple(1.0 / math.factorial(m) for m in range(3, 17, 2))


def transcendental_residual(spec: PotentialSpec, k: complex) -> float:
    """|2ik + lam (exp(2ik) - 1)|, the pole-equation residual at k."""
    x = 2j * k
    return abs(x + spec.lam * (cmath.exp(x) - 1.0))


def _polish_complex(spec: PotentialSpec, k: complex) -> tuple[complex, float]:
    # Newton on f(k) = 2ik + lam(e^{2ik} - 1), which restores the digits lam - W cancels;
    # returns k and |f| where the last step started (at k if f'(k) = 0 stopped it)
    lam = spec.lam
    exp = cmath.exp
    try:
        for _ in range(_COMPLEX_STEPS):
            x = 2j * k
            e = exp(x)
            f = x + lam * (e - 1.0)
            k = k - f / (2j * (1.0 + lam * e))
    except ZeroDivisionError:
        pass
    return k, abs(f)


def _off_root(pole: Pole, resid: float, tol=_RESIDUAL_TOL) -> NonConvergence:
    """The error of a pole whose residual fails the gate."""
    return NonConvergence(
        f"pole {pole.kind.value} n={pole.index} residual {resid:.3e} exceeds {tol:.3g}"
    )


def _positive(n, what: str) -> int:
    if type(n) is int and n >= 1:
        return n
    try:  # operator.index takes numpy integers, but neither 2.5 nor 2.0
        if (n := operator.index(n)) >= 1:
            return n
    except TypeError:
        pass
    raise InvalidInput(f"{what} must be a positive integer")


def find_resonance(spec: PotentialSpec, n: int) -> Pole:
    """Return the n-th resonance (n = 1 is the lowest, ordered by Re k).

    Uses branch -n of W for positive strength and branch -(n+1) for
    negative strength, so the caller's indexing is uniform in sign. Gated on
    |f| where the last polish step started, else at the root (1e-12); a polish
    whose e^{2ik} overflows fails too. A found resonance is memoized on
    ``spec``; a failed find stores nothing.
    """
    n = _positive(n, "resonance index")
    if (pole := spec._resonances.get(n)) is None:
        m = n if spec.lam > 0 else n + 1
        w = lambert_w(-m, spec._w_argument)
        try:
            k, resid = _polish_complex(spec, (spec.lam - w) / 2j)
        except OverflowError:  # e^{2ik} past the largest float, for |lam| up to ~3.9e-306
            raise NonConvergence(f"pole resonance n={n} at strength {spec.lam!r}: "
                                 "e^(2ik) overflows in the polish") from None
        try:  # Pole checks the fourth quadrant
            pole = Pole(_RESONANCE, -m, n, k, k * k)
        except InvalidInput:
            raise NonConvergence(f"branch {-m} root {k} is not in the fourth quadrant") from None
        if resid > _RESIDUAL_TOL and (resid := transcendental_residual(spec, k)) > _RESIDUAL_TOL:
            raise _off_root(pole, resid)
        spec._resonances[n] = pole
    return pole


def find_anti_resonance(spec: PotentialSpec, n: int) -> Pole:
    """Return anti-resonance n, the mirror -conj(k_n) of ``find_resonance(spec, n)``.

    Resonance n is read straight from the memo on ``spec``; only on a miss
    is it found (and memoized) by ``find_resonance``. The memo holds only
    gated resonances, and for real lam f(-conj k) = conj f(k) bit for bit,
    so the mirror shares the gated residual and evaluates no exponential.
    """
    n = _positive(n, "anti-resonance index")
    if (pole := spec._resonances.get(n)) is None:
        pole = find_resonance(spec, n)
    return Pole(_ANTI_RESONANCE, n, n, -pole.k.conjugate(), pole.z.conjugate())


def _threshold_kind(spec: PotentialSpec) -> PoleKind | None:
    """BOUND for lam < -1, VIRTUAL_STATE for -1 < lam < 0, None for lam > 0; DegeneratePole
    at lam = -1, where the pole sits at k = 0 and N^2 = 2k^2 / (t (1 + t)) is 0/0."""
    if spec.lam == -1.0:
        raise DegeneratePole(f"the bound and virtual states meet at k = 0 at strength "
                             f"{spec.lam!r}, where N^2 is 0/0")
    return None if spec.lam > 0.0 else _BOUND if spec.lam < -1.0 else _VIRTUAL_STATE


def _deflated(y: float) -> tuple[float, float]:
    """F(y) = y - log(sinh y / y) and the sum of |F's terms|; for |y| >= 1/2,
    F = 2y [y < 0] + log(2|y|) - log1p(-e^{-2|y|}), which cannot overflow."""
    a = abs(y)
    if a < 0.5:
        y2 = y * y
        log_sinhc = math.log1p(y2 * sum(c * y2**m for m, c in enumerate(_SINH_SERIES)))
        return y - log_sinhc, a + log_sinhc
    head, tail = math.log(2.0 * a), math.log1p(-math.exp(-2.0 * a))
    wing = 2.0 * y if y < 0.0 else 0.0
    return wing + head - tail, abs(wing) + abs(head) - tail


def _threshold_pole(spec: PotentialSpec, kind: PoleKind) -> Pole:
    """The bound or virtual pole; ``kind`` is ``_threshold_kind(spec)``, checked by the caller."""
    lam = spec.lam
    target = math.log(-lam)
    # seed: F(y) ~ log(2y) in a deep well, ~ 2y + log(-2y) in a weak one, ~ y between
    y = (-0.5 * lam if target > 1.0 else
         0.5 * (target - math.log(-target)) if target < -1.0 else target)
    for _ in range(_AXIS_STEPS):
        # F' = 1 - coth y + 1/y, rounded to eps/|y|: enough for Newton
        step = (_deflated(y)[0] - target) / (1.0 + 1.0 / y - 1.0 / math.tanh(y))
        y -= step
        if abs(step) <= 1e-8 * abs(y):  # quadratic: the next step is below an ulp
            break
    f, size = _deflated(y)
    pole = Pole(kind, 0 if kind is _BOUND else -1, 0, complex(0.0, y), complex(-y * y, 0.0))
    if not (resid := abs(f - target)) <= (tol := _AXIS_TOL * (size + abs(target))):
        raise _off_root(pole, resid, tol)
    return pole


def find_bound_state(spec: PotentialSpec) -> Pole:
    """Return the bound-state pole (exists only for lam < -1)."""
    if _threshold_kind(spec) is not _BOUND:
        raise NoSuchPole(f"no bound state for strength {spec.lam}")
    return _threshold_pole(spec, _BOUND)


def find_virtual_state(spec: PotentialSpec) -> Pole:
    """Return the virtual (anti-bound) pole (exists only for -1 < lam < 0)."""
    if _threshold_kind(spec) is not _VIRTUAL_STATE:
        raise NoSuchPole(f"no virtual state for strength {spec.lam}")
    return _threshold_pole(spec, _VIRTUAL_STATE)


def enumerate_poles(spec: PotentialSpec, count: int) -> list[Pole]:
    """Bound or virtual pole (when present) followed by resonances 1..count."""
    count = _positive(count, "count")
    poles: list[Pole] = []
    if (kind := _threshold_kind(spec)) is not None:
        poles.append(_threshold_pole(spec, kind))
    poles.extend(find_resonance(spec, n) for n in range(1, count + 1))
    return poles


def _one_plus_t(spec: PotentialSpec, k: complex) -> complex:
    """1 + t = (1 + lam) - 2ik, checked: the factor of N^2 that vanishes at a double pole.

    Formed this way it is exact near lam = -1. Raises DegeneratePole when
    |1 + t| < 1e-13 * 2|k|, i.e. when J2'(k) = i (1 + t) / (2k) is
    numerically zero.
    """
    if k == 0:
        raise InvalidInput("Jost functions are singular at k = 0")
    one_plus_t = (1.0 + spec.lam) - 2j * k
    if abs(one_plus_t) < _DEGENERATE_TOL * 2.0 * abs(k):
        raise DegeneratePole(f"J2'({k}) is numerically zero; double pole?")
    return one_plus_t


def zeldovich_norm(spec: PotentialSpec, pole: Pole) -> complex:
    """N^2 = i res_k S, the squared residue normalization of a pole of ``spec``.

    ``pole`` must be a pole of ``spec``: the closed form below holds only
    there. With x = 2ik the pole equation reads t = lam - x = lam e^x,
    which is W_n(lam e^lam) of the pole's branch, and

        N^2 = 2 k^2 / (t (1 + t)) = 2 k^2 / (lam e^x ((1 + lam) - x)),

    the 1/(1 + W) factor of W'(z) = W / (z (1 + W)). 1 + t is formed as
    (1 + lam) - x, exact near lam = -1, and t as lam e^x, which does not
    cancel for the deep bound state at lam = -700, or as lam - x for a
    virtual state, whose e^x overflows from |lam| ~ 5e-306 down. The
    energy-plane residue is 2k res_k S = -2ik N^2. Raises DegeneratePole
    at a numerical double pole (see ``_one_plus_t``).
    """
    k = complex(pole.k)
    one_plus_t = _one_plus_t(spec, k)
    t = spec.lam - 2j * k if pole.kind is _VIRTUAL_STATE else spec.lam * cmath.exp(2j * k)
    return 2.0 * k * k / (t * one_plus_t)


def _shell_weight(spec: PotentialSpec, pole: Pole, weight: float) -> float:
    """weight * |u(1)|^2, with |u(1)|^2 = |N|^2 exp(2 beta) formed first: |e^{2ik}| =
    exp(2 beta) cancels the exponential of |N^2|, so |u(1)|^2 = 2 |k|^2 / (|lam| |1 + t|).
    Raises as ``zeldovich_norm`` does, and InvalidInput outside the normal float
    range (lam^2 underflows from |lam| ~ 1.5e-154 down)."""
    k = complex(pole.k)
    density = 2.0 * abs(k) ** 2 / (abs(spec.lam) * abs(_one_plus_t(spec, k)))
    if not sys.float_info.min <= (product := weight * density) < math.inf:
        raise InvalidInput(f"weight {product!r} of the {pole.kind.value} pole at strength "
                           f"{spec.lam!r} loses its digits")
    return product
