"""Every column of a table row at 50 digits, from mpmath alone.

An independent oracle for the row kernel, observables.observables_record.
The pole comes from mpmath.lambertw on the pole's branch and is refined by
Newton steps on the pole equation 2ik + lam (e^{2ik} - 1) = 0; every column
is then its definition written plainly, with none of the float rewriting
of the library:

* N^2 = -i J1(k) / J2'(k) and the shell density |N|^2 exp(2 beta);
* C = (Gamma_R / 2 pi) Re S(-k, conj k) and, for the threshold poles,
  Gamma = (lam^2 / pi) |N|^2 exp(2 beta) Re S(i kappa, i kappa), with the
  residue sum S of the exponentials themselves;
* Gbar = 2 lam^2 |N|^2 exp(2 beta) C, Gamma = Gbar / Gamma_R and the sharp
  pair at k~ = sqrt(E_R).

The strength is the float the library gets, taken exactly. The exact cross
section is (pi/E) |S - 1|^2 with S = -J1/J2 from the Jost functions, the
S-matrix route the library's phase-shift closed form never takes.
"""

import mpmath as mp

DIGITS = 50
_NEWTON_STEPS = 4


def _sin2_pair(q1, q2):
    """S(q1, q2) = int sin^2(k) / ((k^2 - q1^2)(k^2 - q2^2)) dk over the real line."""
    if q1 == q2:
        e = mp.exp(2j * q1)
        fprime = (-2j * q1 * e - (1 - e)) / (2 * q1**2)
        return mp.pi * 1j * fprime / (2 * q1)

    def f(q):
        return (1 - mp.exp(2j * q)) / (2 * q)

    return mp.pi * 1j * (f(q1) - f(q2)) / (q1**2 - q2**2)


def reference_pole(lam, branch):
    """The pole k = (lam - W_branch(lam e^lam)) / 2i, refined at 50 digits."""
    with mp.workdps(DIGITS):
        lam = mp.mpf(lam)
        k = (lam - mp.lambertw(lam * mp.exp(lam), branch)) / 2j
        for _ in range(_NEWTON_STEPS):
            e = mp.exp(2j * k)
            k -= (2j * k + lam * (e - 1)) / (2j * (1 + lam * e))
        return k


def reference_row(lam, branch, resonance):
    """The columns of the row of the pole on ``branch``, as mpmath numbers.

    Keys are the ObservablesRecord field names from k on; the sharp pair
    and C are None where the record holds None.
    """
    k = reference_pole(lam, branch)
    with mp.workdps(DIGITS):
        lam = mp.mpf(lam)
        j1 = (-2j * k + lam * (mp.exp(-2j * k) - 1)) / (4 * k)
        j2_prime = 1j * (1 + lam * mp.exp(2j * k)) / (2 * k)
        density = abs(-1j * j1 / j2_prime) * mp.exp(-2 * mp.im(k))
        z = k * k
        gamma_r = -2 * mp.im(z)
        row = dict(k=k, z=z, gamma_R=gamma_r, gamma_bar=mp.mpf(0), gamma_bar_sharp=None,
                   gamma_sharp=None, c_value=None)
        if not resonance:
            q = mp.mpc(0, abs(mp.im(k)))
            row["gamma"] = lam**2 / mp.pi * density * mp.re(_sin2_pair(q, q))
            return row
        c_value = gamma_r / (2 * mp.pi) * mp.re(_sin2_pair(-k, mp.conj(k)))
        row["c_value"] = c_value
        row["gamma_bar"] = 2 * lam**2 * density * c_value
        row["gamma"] = row["gamma_bar"] / gamma_r
        if mp.re(z) > 0:
            kt = mp.sqrt(mp.re(z))
            row["gamma_bar_sharp"] = 2 * lam**2 * density * mp.sin(kt) ** 2 / kt
            row["gamma_sharp"] = row["gamma_bar_sharp"] / gamma_r
        return row


def reference_cross_section(lam, e):
    """sigma(E) = (pi/E) |S(k) - 1|^2, S = -J1(k)/J2(k) at k = sqrt(E), as an mpmath number.

    exp(+/-2ik) - 1 keeps its O(k^2) real part only with -log10(E) more
    digits, which also cover J2's cancellation at lam = -1; the energy and
    the strength are the floats the library gets, taken exactly.
    """
    e, lam = mp.mpf(e), mp.mpf(lam)
    with mp.workdps(DIGITS + max(0, int(-mp.log10(e)))):
        k = mp.sqrt(e)
        j1 = (-2j * k + lam * (mp.exp(-2j * k) - 1)) / (4 * k)
        j2 = (2j * k + lam * (mp.exp(2j * k) - 1)) / (4 * k)
        return mp.pi / e * abs(-j1 / j2 - 1) ** 2
