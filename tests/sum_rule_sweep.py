#!/usr/bin/env python3
"""Sweep the pole-set sum rule of test_sum_rule.py over seeded random strengths.

    PYTHONPATH=src python tests/sum_rule_sweep.py [--strengths N] [--seed S]

Draws N strengths with |lam| log-uniform in [1e-3, 100] and a random sign,
leaving out those within 1e-2 of -1, where the threshold pole's k^-6 term is so
large that a relative check sees no resonance. For each it compares the sum of
k^-6 over the library's threshold pole, resonances 1..15, their mirrors and the
asymptotic tail with -6 [k^6] log J(k) at 50 digits. Exits 1 if any relative
error exceeds TOL = 1e-7. A strength whose first 15 resonances the library refuses is
printed with the refusal, counted in the summary, and not checked. The name
does not start with test_, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from deltashell import DeltaShellError
from test_sum_rule import sum_rule_error

NEAR_MINUS_ONE = 1e-2
TOL = 1e-7


def strengths(count: int, seed: int) -> list[float]:
    """count strengths, |lam| log-uniform in [1e-3, 100], both signs, none near -1."""
    rng, out = np.random.default_rng(seed), []
    while len(out) < count:
        lam = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 2.0))
        if abs(lam + 1.0) >= NEAR_MINUS_ONE:
            out.append(lam)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--strengths", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    failed, refused, worst = [], [], (0.0, None)
    for lam in strengths(args.strengths, args.seed):
        try:
            err = sum_rule_error(lam)
        except DeltaShellError as exc:
            refused.append(lam)
            print(f"refused lam={lam!r}: {type(exc).__name__}: {exc}")
            continue
        if err > worst[0]:
            worst = (err, lam)
        if not err <= TOL:
            failed.append(lam)
            print(f"FAIL lam={lam!r}: relative error {err:.3e} > {TOL:g}")
    checked = args.strengths - len(refused)
    print(f"{checked} of {args.strengths} strengths checked, worst relative error "
          f"{worst[0]:.3e} at lam={worst[1]!r}; {len(refused)} refused, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
