"""Adaptive semi-infinite quadrature: the test suite's independent oracle.

The library evaluates every decay observable as a closed-form residue sum,
made rational in t = lam - 2ik by the pole identity e^{2ik} = t / lam
(deltashell.observables.observables_record, deltashell.spectra._residue_pair).
The tests check those sums, and the perturbation-theory right-hand side,
against this engine, which knows nothing of the residue algebra.

Every decay observable is an integral over (0, inf) of a narrow Lorentzian
multiplied by the oscillatory factor sin^2(k a)/k with k = sqrt(E). A
general-purpose global rule misses peaks a thousand times narrower than
the oscillation period, so the engine seeds its panel list from the
structure the caller declares in a :class:`QuadratureRequest`:

* panel boundaries at the sin^2 zeros E = (m pi / a)^2,
* panel boundaries at peak_center +/- {1, 2, 4, 8, 16, 32} half-widths,
* a finite head [0, E_cut] with E_cut beyond the point where the
  Lorentzian envelope has fallen below abs_tol of its peak value,
* the remaining tail mapped onto (0, 1] by the rational substitution
  E = E_cut / t and integrated with the same adaptive rule.

Each panel is evaluated with a 15-point Gauss-Kronrod rule; the absolute
difference from the embedded 7-point Gauss value serves as the panel error.
Panels whose error exceeds their share of the budget are bisected in
vectorized batches until the summed estimate meets
``max(rel_tol * |value|, abs_tol)``.

Integrands must accept numpy arrays of evaluation points. Panel endpoints
are never evaluated (Kronrod nodes are interior), so integrable endpoint
singularities such as sin^2(ka)/k at E = 0 are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from deltashell import InvalidInput, Pole, PotentialSpec, matrix_element_squared

# 15-point Kronrod extension of 7-point Gauss on [-1, 1] (nodes symmetric;
# Gauss points sit at the odd Kronrod indices).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

_MAX_PANELS = 40000
_MAX_ROUNDS = 200
_ENVELOPE_LATTICE_CAP = 6000  # max number of oscillation cells in the head


class ToleranceNotMet(ArithmeticError):
    """Quadrature exhausted its budget before reaching the tolerance.

    The best value and its honest error estimate are attached so callers
    can still inspect the result.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureRequest:
    """Integrand structure hints plus tolerances.

    peak_center / peak_halfwidth describe the Lorentzian factor (use a
    positive floor for the half-width when the pole width is zero);
    oscillation_wavenumber is the spacing pi/a of the sin^2 zeros in k.
    """

    peak_center: float
    peak_halfwidth: float
    oscillation_wavenumber: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.peak_halfwidth > 0 and self.oscillation_wavenumber > 0):
            raise InvalidInput("peak half-width and oscillation wavenumber must be positive")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise InvalidInput("tolerances must be positive")


def _eval_panels(f, lo, hi):
    """Kronrod-15 values and |K15 - G7| error estimates, batched over panels."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        raise InvalidInput("integrand returned a non-finite value")
    vals = half * (fx @ _WK)
    gauss = half * (fx[:, 1::2] @ _WG)
    return vals, np.abs(vals - gauss)


def _adaptive(f, edges, rel_tol, abs_tol, max_panels=_MAX_PANELS):
    """Globally adaptive bisection over an initial edge list.

    Returns (value, error_estimate, converged).
    """
    lo = np.asarray(edges[:-1], dtype=float)
    hi = np.asarray(edges[1:], dtype=float)
    vals, errs = _eval_panels(f, lo, hi)
    for _ in range(_MAX_ROUNDS):
        total = float(vals.sum())
        toterr = float(errs.sum())
        tol = max(rel_tol * abs(total), abs_tol)
        if toterr <= tol:
            return total, toterr, True
        if lo.size >= max_panels:
            break
        share = tol / (2.0 * lo.size)
        mask = errs > share
        if not mask.any():
            mask[np.argmax(errs)] = True
        mid = 0.5 * (lo[mask] + hi[mask])
        new_lo = np.concatenate([lo[mask], mid])
        new_hi = np.concatenate([mid, hi[mask]])
        child_vals, child_errs = _eval_panels(f, new_lo, new_hi)
        lo = np.concatenate([lo[~mask], new_lo])
        hi = np.concatenate([hi[~mask], new_hi])
        vals = np.concatenate([vals[~mask], child_vals])
        errs = np.concatenate([errs[~mask], child_errs])
    return float(vals.sum()), float(errs.sum()), False


def _head_edges(req: QuadratureRequest) -> np.ndarray:
    """Initial panel boundaries on [0, E_cut], snapped to the sin^2 lattice."""
    osc = req.oscillation_wavenumber
    hw = req.peak_halfwidth
    envelope_cut = req.peak_center + hw * math.sqrt(1.0 / req.abs_tol)
    floor_cut = max(req.peak_center + 32.0 * hw, (8.0 * osc) ** 2, 50.0)
    m_cut = int(math.ceil(math.sqrt(max(envelope_cut, floor_cut)) / osc))
    m_cut = min(max(m_cut, 8), _ENVELOPE_LATTICE_CAP)
    e_cut = (m_cut * osc) ** 2

    edges = [(m * osc) ** 2 for m in range(m_cut + 1)]
    for j in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        for s in (-1.0, 1.0):
            e = req.peak_center + s * j * hw
            if 0.0 < e < e_cut:
                edges.append(e)
    edges = np.unique(np.asarray(edges, dtype=float))
    # drop near-coincident boundaries (peak edges falling on lattice points)
    keep = np.concatenate([[True], np.diff(edges) > 1e-12 * (1.0 + edges[1:])])
    return edges[keep]


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    req: QuadratureRequest,
    extra_edges: tuple[float, ...] = (),
) -> tuple[float, float]:
    """Integrate ``f`` over (0, inf).

    Parameters
    ----------
    f : callable
        Vectorized integrand, finite on (0, inf).
    req : QuadratureRequest
        Structure hints and tolerances.
    extra_edges : tuple of float, optional
        Additional head panel boundaries (e.g. the peak region of a second
        pole in interference normalizations).

    Returns
    -------
    (value, error_estimate)
        ``error_estimate <= max(rel_tol * |value|, abs_tol)`` on success.

    Raises
    ------
    ToleranceNotMet
        If the panel budget is exhausted first; the best value and its
        honest error estimate ride along on the exception.
    """
    edges = _head_edges(req)
    if extra_edges:
        inside = [e for e in extra_edges if 0.0 < e < edges[-1]]
        if inside:
            edges = np.unique(np.concatenate([edges, np.asarray(inside, dtype=float)]))
    e_cut = float(edges[-1])

    head, head_err, head_ok = _adaptive(f, edges, 0.5 * req.rel_tol, 0.5 * req.abs_tol)

    # Rational tail map E = e_cut / t sends (e_cut, inf) to (0, 1); the
    # compressed oscillations near t = 0 are handled by the same adaptive
    # bisection, with the budget that the head did not need.
    def tail_integrand(t):
        e = e_cut / t
        return f(e) * e_cut / (t * t)

    tail_tol = 0.5 * max(req.rel_tol * abs(head), req.abs_tol)
    t_edges = np.concatenate([[0.0], np.geomspace(1e-7, 1.0, 30)])
    tail, tail_err, tail_ok = _adaptive(tail_integrand, t_edges, 0.0, tail_tol)

    value = head + tail
    err = head_err + tail_err
    if not (head_ok and tail_ok) and err > max(req.rel_tol * abs(value), req.abs_tol):
        raise ToleranceNotMet(
            f"semi-infinite quadrature stalled at error {err:.3e}",
            value=value,
            error_estimate=err,
        )
    return value, err


def perturbation_rhs(
    spec: PotentialSpec,
    pole: Pole,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> float:
    """RHS of the second-order perturbation-theory width equation, by quadrature.

    int Gamma_R / ((E_R - E)^2 + (Gamma_R/2)^2) M^2(E) dE. Were the
    perturbative identity exact, this would equal Gamma_R; numerically it
    equals Gbar, so RHS / Gamma_R reproduces the decay constant instead
    of 1.
    """
    req = QuadratureRequest(
        peak_center=pole.e_R,
        peak_halfwidth=0.5 * pole.gamma_R,
        oscillation_wavenumber=math.pi,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
    )

    def integrand(e):  # dGbar/dE from M^2 alone, never from the row it checks
        return pole.gamma_R * matrix_element_squared(spec, pole, e) / np.abs(e - pole.z) ** 2

    value, _ = integrate_semi_infinite(integrand, req)
    return value
