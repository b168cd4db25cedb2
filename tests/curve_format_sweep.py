#!/usr/bin/env python3
"""Sweep the curve cell kernel against Python's own float formatting.

    PYTHONPATH=src python tests/curve_format_sweep.py [--patterns N] [--ties N] [--seed S]

Every cell the kernel writes, in CSV and in JSON, is compared byte for byte
with '%.9g' % x and with the token json.dumps writes for float('%.9g' % x):
random 64-bit patterns viewed as float64 (every exponent, subnormals, zeros,
infinities and nans among them), and constructed 9-digit ties +-d.dddddddd5e k,
k in [-330, 310], each with its two one-ulp neighbours, one kernel block
(_BLOCK cells) at a time. Exits 1 on the first difference, naming the value. The name does not start with test_, so pytest
does not collect it; the sweep is too long for the tier-1 suite.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from deltashell.cli import _BLOCK, _cells, _json_array

COLUMNS = 4  # CSV cells per row


def csv_reference(values: list[float]) -> str:
    seps = [","] * (COLUMNS - 1) + ["\n"]
    return "".join("%.9g%s" % (x, seps[i % COLUMNS]) for i, x in enumerate(values))


def json_reference(values: list[float]) -> str:
    return json.dumps([float("%.9g" % x) for x in values], separators=(",", ":"))


def first_difference(values: np.ndarray) -> float | None:
    """The first value whose CSV or JSON bytes differ from the reference, else None."""
    rows = values[: values.size - values.size % COLUMNS].reshape(-1, COLUMNS)
    floats = values.tolist()
    if (_cells(rows) == csv_reference(floats[: rows.size])
            and "".join(_json_array(values)) == json_reference(floats)):
        return None
    for x in floats:  # one value at a time, to name it
        one = np.array([[x]])
        if _cells(one) != "%.9g\n" % x or "".join(_json_array(one.ravel())) != json_reference([x]):
            return x
    raise AssertionError("a block differs but none of its values alone")


def patterns(rng: np.random.Generator, count: int):
    """count random 64-bit patterns viewed as float64, one kernel block at a time."""
    for start in range(0, count, _BLOCK):
        size = min(_BLOCK, count - start)
        yield rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)


def ties(rng: np.random.Generator, count: int):
    """count ties +-d.dddddddd5e k, each between its two one-ulp neighbours."""
    for start in range(0, count, _BLOCK // 4):
        size = min(_BLOCK // 4, count - start)
        digits = rng.integers(10**8, 10**9, size=size).tolist()
        exps = rng.integers(-330, 311, size=size).tolist()
        signs = rng.choice((-1.0, 1.0), size=size).tolist()
        tie = np.array([sign * float(f"{d}5e{k - 9}") for d, k, sign in zip(digits, exps, signs)])
        yield np.stack([np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf)], 1).ravel()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--patterns", type=int, default=4_000_000)
    parser.add_argument("--ties", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=2027)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    checked = 0
    sources = (("patterns", patterns(rng, args.patterns)), ("ties", ties(rng, args.ties)))
    for name, source in sources:
        for values in source:
            bad = first_difference(values)
            if bad is not None:
                print(f"{name}: {bad!r} ({bad.hex()}) differs from '%.9g' or json.dumps",
                      file=sys.stderr)
                return 1
            checked += values.size
        print(f"{name}: ok")
    print(f"{checked} cells identical in CSV and JSON")
    return 0


if __name__ == "__main__":
    sys.exit(main())
