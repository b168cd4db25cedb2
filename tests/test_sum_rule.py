"""A pole-set sum rule: the library returns every pole, and only poles, with no branch map.

The Jost function J(k) = 1 + lam (e^{2ik} - 1)/(2ik) = 1 + lam sum_m (2ik)^m/(m+1)!
is entire of order one, J(0) = 1 + lam != 0, and its zeros are exactly the
S-matrix poles: the resonances k_n, their mirrors -conj(k_n), and the bound or
virtual state. Hadamard's factorization of J gives, for p >= 2,

    s_p = sum over all poles of k^-p = -p [k^p] log J(k).

The right side is a 50-digit mpmath power series; the left side is the
library's threshold pole and resonances 1..15 with their mirrors, plus the
tail n = 16..2e5 from the asymptotic root
k_n ~ n pi - sgn(lam) pi/4 - (i/2) log(2 n pi/|lam|). No Lambert W branch is
named anywhere, so a wrong branch map, a missing pole or an extra one moves the
sum. Errors are measured relative to the sum of the terms' moduli, since s_6
itself passes through zero (near lam = -6.5). At p = 6 the tail's asymptotic
error sets each strength's residual error (5.8e-14 to 8.2e-9); dropping
resonance 10 and its mirror moves the sum by 9.8e-11 to 9.7e-7, and each
tolerance sits between the two.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from deltashell import PoleKind, PotentialSpec, enumerate_poles

P = 6  # the power of the sum rule: a tail of order N^-5
COUNT = 15  # resonances taken from the library
TAIL_END = 200_000  # last asymptotic resonance; what lies past it is below 1e-26 relative

# strength -> relative tolerance, between the residual error and the shift of a dropped
# resonance 10 (in parentheses)
TOLERANCE = {
    10.0: 2e-8,  # 4.8e-10 (6.6e-7)
    0.5: 5e-9,  # 1.2e-10 (2.2e-7)
    -0.5: 2e-12,  # 5.8e-14 (9.8e-11)
    -5.0: 1e-8,  # 2.7e-10 (3.4e-7)
    100.0: 9e-8,  # 8.2e-9 (9.7e-7)
}


def log_jost_coefficient(lam: float) -> complex:
    """[k^P] log J(k) at 50 digits, by the power-series log recursion on J's
    coefficients c_m: b_m = (c_m - (1/m) sum_{0<j<m} j b_j c_{m-j}) / c_0."""
    with mpmath.workdps(50):
        c = [mpmath.mpf(lam) * (2j) ** m / mpmath.factorial(m + 1) for m in range(P + 1)]
        c[0] += 1
        b = [None]  # b_0 = log(1 + lam) enters no later coefficient
        for m in range(1, P + 1):
            b.append((c[m] - mpmath.fsum(j * b[j] * c[m - j] for j in range(1, m)) / m) / c[0])
        return complex(b[P])


def sum_rule_error(lam: float) -> float:
    """|s_P + P [k^P] log J| over the library's threshold pole and resonances 1..COUNT,
    their mirrors and the asymptotic tail, relative to the sum of the terms' moduli."""
    poles = enumerate_poles(PotentialSpec(lam=lam), COUNT)
    ks = [pole.k for pole in poles]
    ks += [-pole.k.conjugate() for pole in poles if pole.kind is PoleKind.RESONANCE]
    n = np.arange(COUNT + 1, TAIL_END + 1, dtype=float)
    tail = n * np.pi - math.copysign(0.25 * np.pi, lam) - 0.5j * np.log(2.0 * n * np.pi / abs(lam))
    terms = np.concatenate([np.array(ks, dtype=complex), tail, -tail.conj()]) ** -P
    total = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return abs(total + P * log_jost_coefficient(lam)) / math.fsum(np.abs(terms))


@pytest.mark.parametrize("lam", sorted(TOLERANCE), ids=lambda lam: f"lam={lam:g}")
def test_poles_sum_to_the_log_jost_coefficient(lam):
    assert sum_rule_error(lam) <= TOLERANCE[lam]
