"""Potential description and S-matrix pole records.

The shell potential ``V(r) = g * delta(r - a)`` has one physical parameter,
the dimensionless strength ``lambda = 2 m g a / ħ^2``: every pole is
``k = (lam - W_n(lam e^lam)) / (2 i a)``, and the radius only sets the
scale. So the library works in units of the radius and in reduced units
(``a = 1``, ``ħ^2/2m = 1``, ``E = k^2``), and a spec is ``lam`` alone;
giving the reported numbers a radius and a physical ``ħ^2/2m`` is the
command line's job (:mod:`deltashell.cli`).

Both records are frozen dataclasses, so ``==``, ``hash``, ``repr``,
``fields``, ``asdict``, ``replace``, pickling and ``FrozenInstanceError``
behave as for any frozen dataclass. Each class defines its own
``__init__``, which the dataclass decorator keeps: it checks its arguments
and writes the fields straight into the instance ``__dict__``. The
generated init of a frozen dataclass makes one ``object.__setattr__``
call per field, which costs more than twice as much, and poles are built
on the hot path of every pole and table query.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InvalidInput

__all__ = ["PotentialSpec", "Pole", "PoleKind"]


class PoleKind(str, enum.Enum):
    RESONANCE = "resonance"
    ANTI_RESONANCE = "anti_resonance"
    BOUND = "bound"
    VIRTUAL_STATE = "virtual_state"


# Members bound once: on CPython 3.10 and 3.11 each PoleKind.X load is a
# metaclass lookup of tens of nanoseconds, a module global one of a few.
# The hot paths in poles and observables import them from here.
_RESONANCE = PoleKind.RESONANCE
_ANTI_RESONANCE = PoleKind.ANTI_RESONANCE
_BOUND = PoleKind.BOUND
_VIRTUAL_STATE = PoleKind.VIRTUAL_STATE
_AXIS_KINDS = (_BOUND, _VIRTUAL_STATE)


@dataclass(frozen=True)
class PotentialSpec:
    """Shell strength; the radius is the unit of length.

    Attributes
    ----------
    lam : float
        Dimensionless strength; must be nonzero. Positive for a barrier,
        negative for a well.

    Two things live on a spec outside the fields: lam * exp(lam), the
    Lambert W argument of every resonance, formed once here, and the memo of
    the resonances found on it. ``==``, ``hash``, ``repr`` and ``asdict``
    ignore both; ``replace`` builds them anew.
    """

    lam: float

    def __init__(self, lam):
        if not math.isfinite(lam) or lam == 0.0:
            raise InvalidInput("potential strength must be finite and nonzero")
        if abs(lam) > 700.0:
            raise InvalidInput("strength magnitude beyond 700 overflows lambda*exp(lambda)")
        fields = self.__dict__
        fields["lam"] = lam
        fields["_w_argument"] = lam * math.exp(lam)
        fields["_resonances"] = {}


@dataclass(frozen=True)
class Pole:
    """One S-matrix pole in the complex wave-number plane.

    ``z = k**2`` holds to round-off (units of the radius, reduced units). ``gamma_R = -2 Im z``
    is the pole width: positive for resonances, exactly zero for bound and
    virtual poles, and negative for anti-resonances (the mirror pole).
    """

    kind: PoleKind
    branch: int
    index: int
    k: complex
    z: complex

    def __init__(self, kind, branch, index, k, z):
        if kind is _RESONANCE:
            if not (k.real > 0.0 and k.imag < 0.0):
                raise InvalidInput("resonance pole must lie in the fourth quadrant")
        elif kind is _ANTI_RESONANCE:
            if not (k.real < 0.0 and k.imag < 0.0):
                raise InvalidInput("anti-resonance pole must lie in the third quadrant")
        elif kind in _AXIS_KINDS:
            if k.real != 0.0 or z.imag != 0.0:
                raise InvalidInput(f"{kind.value} pole must sit on the imaginary k-axis")
        fields = self.__dict__
        fields["kind"] = kind
        fields["branch"] = branch
        fields["index"] = index
        fields["k"] = k
        fields["z"] = z

    @property
    def e_R(self) -> float:
        return self.z.real

    @property
    def gamma_R(self) -> float:
        return -2.0 * self.z.imag + 0.0  # normalize -0.0 for zero-width poles

    @property
    def alpha_R(self) -> float:
        return self.k.real

    @property
    def beta_R(self) -> float:
        return -self.k.imag
