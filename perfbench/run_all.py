#!/usr/bin/env python3
"""Run every workload, timed and then traced, and print all their metrics.

Run from the repository root:

    python3 perfbench/run_all.py --seed 1 --seconds 20

Each run is a separate ``run.py`` process, as the benchmark is driven one
workload at a time. Exits 1 if any run reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            *lines, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            all_correct &= result["correct"]
            print(f"== {workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines:
                print("   " + line)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
