"""Seeded op streams for the three benchmark workloads.

Every stream is drawn from ``random.Random("<workload>:<seed>")``. String
seeds go through SHA-512, not ``hash()``, so a seed gives the same ops in
every process and on every run; the program under test sees only the
generated inputs, never the seed.

* ``table_scan``: the CLI ``table`` command, one fresh strength per op.
* ``pole_atlas``: library ``enumerate_poles`` plus ``find_anti_resonance``.
* ``curve_render``: CLI ``spectrum``, ``cross-section --second-index`` and
  ``interfere`` on 20001-point grids, drawn from a small per-seed pool of
  (strength, index) pairs so that poles repeat.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

from oracle import closed_form_k

WORKLOADS = ("table_scan", "pole_atlas", "curve_render")

CURVE_POINTS = 20001
CURVE_POOL_SIZE = 6
# One block of ten curve ops, shuffled per block. The mix is fixed so that
# the median falls inside the CSV spectrum ops and the 90th percentile
# inside the JSON cross-section ops, the two largest groups of similar cost.
CURVE_BLOCK = (
    (("interfere", "csv"),) * 2
    + (("spectrum", "csv"),) * 5
    + (("cross-section", "csv"),)
    + (("cross-section", "json"),) * 2
)


@dataclass(frozen=True)
class Op:
    """One benchmark operation; ``kind`` names a CLI command or ``poles``."""

    kind: str
    lam: float
    n: int
    fmt: str = "csv"
    second: int = 0
    emin: float = 0.0
    emax: float = 0.0
    points: int = 0
    c1: complex = 0j
    c2: complex = 0j

    def argv(self) -> list[str]:
        """Command line for a CLI op, spelled as a user would type it."""
        head = [self.kind, "--lambda", repr(self.lam)]
        if self.kind == "table":
            return head + ["--count", str(self.n)]
        window = ["--emin", repr(self.emin), "--emax", repr(self.emax),
                  "--points", str(self.points), "--format", self.fmt]
        if self.kind == "spectrum":
            return head + ["--index", str(self.n)] + window
        if self.kind == "cross-section":
            return head + ["--index", str(self.n), "--second-index", str(self.second)] + window
        if self.kind == "interfere":
            # '--c1=re,im' in one token: as '--c1 -0.5,0.3' argparse takes a
            # leading-minus value for an option flag and exits 2.
            return head + [
                "--indices", f"{self.n},{self.second}",
                f"--c1={self.c1.real!r},{self.c1.imag!r}",
                f"--c2={self.c2.real!r},{self.c2.imag!r}",
            ] + window
        raise ValueError(f"op kind {self.kind!r} has no command line")


# Strengths of the table and pole ops. Every op of a timed run must succeed,
# so the ranges stop short of the known defects, which run.py probes apart
# (KNOWN_DEFECTS): 'table' exits 2 for 0 < lam < 0.107, the absolute pole
# gate rejects n = 11-12 from |lam| = 118 on, and near lam = -1 the bound
# state's Gamma and the virtual state's k lose precision.
SCAN_MIN, SCAN_MAX = 0.15, 100.0
THRESHOLD_GAP = 1e-3


def _strength(rng: random.Random, lo: float, hi: float, sign: float = 0.0) -> float:
    """Magnitude log-uniform on [lo, hi], not within THRESHOLD_GAP of -1.

    The sign is ``sign`` if given, else random.
    """
    while True:
        mag = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        if not sign:
            lam = mag if rng.random() < 0.5 else -mag
        else:
            lam = math.copysign(mag, sign)
        if abs(lam + 1.0) >= THRESHOLD_GAP:
            return lam


def _scan(rng: random.Random) -> Iterator[tuple[float, int]]:
    """(strength, count) pairs, stratified in blocks of 36.

    A block holds every count 4-12 once for each sign and each half of the
    log-magnitude range, in a seeded order. So the mix of op costs, and with
    it the median op time, varies little from seed to seed.
    """
    mid = math.sqrt(SCAN_MIN * SCAN_MAX)
    block = [(n, sign, half) for n in range(4, 13) for sign in (1.0, -1.0)
             for half in ((SCAN_MIN, mid), (mid, SCAN_MAX))]
    while True:
        rng.shuffle(block)
        for n, sign, (lo, hi) in block:
            yield _strength(rng, lo, hi, sign), n


def _table_scan(rng: random.Random) -> Iterator[Op]:
    for lam, n in _scan(rng):
        yield Op("table", lam, n)


def _pole_atlas(rng: random.Random) -> Iterator[Op]:
    for lam, n in _scan(rng):
        yield Op("poles", lam, n)


def _energy_width(lam: float, n: int) -> tuple[float, float]:
    z = closed_form_k(lam, "resonance", n) ** 2
    return z.real, -2.0 * z.imag


def _curve_render(rng: random.Random) -> Iterator[Op]:
    pool = []
    for _ in range(CURVE_POOL_SIZE):
        lam = _strength(rng, 2.0, 60.0)
        n = rng.randint(1, 3)
        e1, g1 = _energy_width(lam, n)
        e2, g2 = _energy_width(lam, n + 1)
        pool.append({
            "lam": lam,
            "n": n,
            "single": (max(e1 - 6.0 * g1, 0.02 * e1), e1 + 6.0 * g1),
            "pair": (max(e1 - 4.0 * g1, 0.02 * e1), e2 + 4.0 * g2),
            "c1": complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            "c2": complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        })
    while True:
        block = list(CURVE_BLOCK)
        rng.shuffle(block)
        for kind, fmt in block:
            entry = rng.choice(pool)
            emin, emax = entry["single"] if kind == "spectrum" else entry["pair"]
            yield Op(kind, entry["lam"], entry["n"], fmt=fmt, second=entry["n"] + 1,
                     emin=emin, emax=emax, points=CURVE_POINTS,
                     c1=entry["c1"], c2=entry["c2"])


_STREAMS = {
    "table_scan": _table_scan,
    "pole_atlas": _pole_atlas,
    "curve_render": _curve_render,
}


def stream(workload: str, seed: int) -> Iterator[Op]:
    """Infinite op stream of ``workload``; a pure function of ``seed``."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def first_ops(workload: str, seed: int, count: int) -> list[Op]:
    return list(itertools.islice(stream(workload, seed), count))
