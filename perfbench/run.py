#!/usr/bin/env python3
"""deltashell benchmark: seeded closed-loop workloads, checked op by op.

Run from the repository root:

    python3 perfbench/run.py --workload table_scan --seed 1 --seconds 20 --trace 0

One client sends the next op only when the previous one has returned
(closed loop), in this process, with numpy pinned to one thread. CLI ops go
through ``deltashell.cli.main(argv)`` with stdout and stderr captured;
library ops call the public functions. Every output is checked by
``oracle.py``; a wrong output counts as a failed op.

``--trace 0`` times ops for ``--seconds`` of op time and prints the
end-to-end metrics. ``--trace 1`` runs a fixed, seed-determined list of ops
under the span tracer (``tracer.py``), so its counters repeat exactly for a
seed, and prints the per-layer metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See NOTES.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import argparse
import array
import contextlib
import io
import json
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import GOLDEN_STRENGTHS, check_curve, check_golden, check_pole_batch, check_table
from workloads import WORKLOADS, Op, first_ops, stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = HERE / "out"

SETUP_LAUNCHES = 11
CAL_REF_S = 5.0e-4  # speed-clock kernel time at the reference speed
CAL_EVERY_S = 0.025
POLE_BATCH = 512
TRACE_OPS = {"table_scan": 100, "pole_atlas": 2000, "curve_render": 30}
WARMUP_OPS = {"table_scan": 0, "pole_atlas": 200, "curve_render": 4}
EXPECTED_EXIT = (2, 3)  # documented exits: invalid input, numerical failure


@dataclass(frozen=True)
class RawOp:
    """A CLI op given by its literal command line."""

    kind: str
    args: tuple

    def argv(self) -> list[str]:
        return list(self.args)


# Inputs that reproduce the known defects (NOTES.md). They lie outside the
# workloads' ranges, so that no timed op fails; a traced run tries each once
# and reports how many still fail as 'defects.reproduced'.
KNOWN_DEFECTS = (
    ("table exits 2 at small positive strength", Op("table", 0.05, 4)),
    ("absolute pole gate, CLI table", Op("table", 250.0, 12)),
    ("absolute pole gate, library", Op("poles", 125.0010973168127, 12)),
    ("bound-state Gamma at threshold", Op("table", -1.000003, 4)),
    ("virtual-state k at threshold", Op("table", -0.99999999, 4)),
    ("argparse reads a leading-minus value as a flag", RawOp("interfere", (
        "interfere", "--lambda", "12.0", "--indices", "2,3", "--c1", "-0.5,0.3",
        "--c2", "0.5,0.5", "--emin", "30", "--emax", "60", "--points", "201"))),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources or reference data)."""


def load_library():
    """Import deltashell from this checkout's src/, never from elsewhere."""
    if not (SRC / "deltashell" / "__init__.py").is_file():
        raise SetupError(f"no deltashell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deltashell
    import deltashell.cli

    if Path(deltashell.__file__).resolve().parent != (SRC / "deltashell").resolve():
        raise SetupError(f"deltashell imported from {deltashell.__file__}, not {SRC}")
    return deltashell


class Runner:
    """Executes ops against the library and classifies their outcomes."""

    def __init__(self, ds):
        self.ds = ds
        self.cli = ds.cli
        self.poles = ds.poles

    def run(self, op):
        """Return (seconds, output, failure class or None)."""
        if op.kind == "poles":
            return self._run_library(op)
        return self._run_cli(op)

    def _run_cli(self, op):
        argv = op.argv()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code, prefix = exc.code, "argparse exit"
        except Exception as exc:
            return time.perf_counter() - start, None, f"unexpected {type(exc).__name__}"
        else:
            prefix = "exit"
        seconds = time.perf_counter() - start
        if code == 0:
            return seconds, out.getvalue(), None
        message = err.getvalue().strip().splitlines()[-1:] or [""]
        stem = re.sub(r"-?\d[\w.+-]*", "#", message[0])[:90]
        kind = prefix if code in EXPECTED_EXIT else "unexpected " + prefix
        return seconds, None, f"{kind} {code}: {stem}"

    def _run_library(self, op):
        start = time.perf_counter()
        try:
            spec = self.ds.PotentialSpec(lam=op.lam)
            found = self.poles.enumerate_poles(spec, op.n)
            antis = [self.poles.find_anti_resonance(spec, m) for m in range(1, op.n + 1)]
        except self.ds.DeltaShellError as exc:
            return time.perf_counter() - start, None, f"raised {type(exc).__name__}"
        except Exception as exc:
            return time.perf_counter() - start, None, f"unexpected {type(exc).__name__}"
        return time.perf_counter() - start, (found, antis), None


class Tally:
    """Outcome of every attempted op, checked against the oracle.

    Per-op records are packed (8 bytes of time, 1 byte of outcome) so that
    the benchmark's own memory barely grows with the number of ops.
    """

    def __init__(self):
        self.seconds = array.array("d")
        self.ok = bytearray()
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self._pending: list = []

    def add(self, op, seconds, output, failure):
        op_id = len(self.ok)
        self.seconds.append(seconds)
        self.ok.append(failure is None)  # bytearray stores True as 1
        if failure is not None:
            self.failures[failure] += 1
        elif op.kind == "poles":
            self._pending.append((op_id, op.lam, op.n) + tuple(output))
            if len(self._pending) >= POLE_BATCH:
                self.flush()
        else:
            self._judge(op_id, check_output(op, output))

    def flush(self):
        for op_id, reason in check_pole_batch(self._pending).items():
            self._judge(op_id, reason)
        self._pending.clear()

    def _judge(self, op_id, reason):
        if reason is not None:
            self.ok[op_id] = 0
            self.failures["wrong output"] += 1
            self.wrong.append(f"op {op_id}: {reason}")

    @property
    def correct(self) -> bool:
        return not self.wrong and not any(c.startswith("unexpected") for c in self.failures)

    def ok_seconds(self) -> np.ndarray:
        return np.asarray(self.seconds)[np.frombuffer(self.ok, dtype=bool)]


def check_output(op, output):
    if op.kind == "table":
        return check_table(op.lam, op.n, output)
    return check_curve(op, output)


def probe_defects(runner) -> int:
    """Try each KNOWN_DEFECTS input once; print and count those that still fail."""
    reproduced = 0
    for label, op in KNOWN_DEFECTS:
        _, output, failure = runner.run(op)
        if failure is None and isinstance(op, Op):
            failure = (check_pole_batch([(0, op.lam, op.n) + tuple(output)]).get(0)
                       if op.kind == "poles" else check_output(op, output))
        reproduced += failure is not None
        print(f"known defect {'reproduced' if failure else 'gone'}: {label}: {failure or ''}")
    return reproduced


def warm_up(runner, workload, tally):
    """Fill lazy state before timing; for table_scan, check the golden tables."""
    if workload == "table_scan":
        if not GOLDEN.is_dir():
            raise SetupError(f"reference tables missing: {GOLDEN}")
        for lam in GOLDEN_STRENGTHS:
            op = Op("table", lam, 8)
            _, output, failure = runner.run(op)
            reason = failure or check_golden(lam, output, GOLDEN) or check_output(op, output)
            if reason:
                tally.wrong.append(f"golden table lam={lam:g}: {reason}")
    for op in first_ops(workload, "warmup", WARMUP_OPS[workload]):
        tally.add(op, *runner.run(op))
    tally.flush()


class SpeedClock:
    """Converts wall time on a machine of varying speed to reference time.

    On a shared virtual machine, other tenants can slow every operation by
    up to 1.8x for a minute at a time. A fixed kernel of numpy and
    float-formatting work, the two kinds of work deltashell does, is timed
    between ops, at most every CAL_EVERY_S. An op's reference time is its
    wall time times CAL_REF_S over the median of the five kernel samples
    nearest to it. The kernel does not depend on the program, so a slower
    program still reads slower, whatever else the machine is doing.
    """

    def __init__(self):
        self._x = np.linspace(1.0, 50.0, 16384)
        self._v = [float(v) for v in np.linspace(0.1, 9.9, 1200)]
        self.at: list[float] = []
        self.took: list[float] = []

    def _kernel(self) -> float:
        x = self._x
        start = time.perf_counter()
        np.sum(np.sin(x) ** 2 / np.sqrt(x))
        ",".join(format(v, ".9g") for v in self._v)
        return time.perf_counter() - start

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= CAL_EVERY_S:
            self.took.append(self._kernel())
            self.at.append(now)

    def factors(self, starts) -> np.ndarray:
        """Reference-time factor for ops that started at ``starts``."""
        padded = np.pad(np.asarray(self.took), 2, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, 5), axis=1)
        nearest = np.clip(np.searchsorted(self.at, starts, side="right") - 1, 0, None)
        return CAL_REF_S / smooth[nearest]


def measure_setup() -> float:
    """Median reference time of a fresh interpreter running ``import deltashell.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import deltashell.cli"]
    clock = SpeedClock()
    starts, times = [], []
    for launch in range(SETUP_LAUNCHES + 1):
        clock.sample(force=True)
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which quantizes the measurement.
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if launch:  # the first launch only warms the file cache
            starts.append(start)
            times.append(time.perf_counter() - start)
    clock.sample(force=True)
    return float(np.median(np.asarray(times) * clock.factors(starts)))


def drive(runner, ops, seconds=None, tracer=None):
    """Run ``ops`` in a closed loop, until ``seconds`` of op wall time if given.

    Returns the tally, with op times converted to reference time.
    """
    clock = SpeedClock()
    tally = Tally()
    starts = array.array("d")
    spent = 0.0
    wall_cap = time.perf_counter() + 2 * (seconds or 0) + 10
    for op_id, op in enumerate(ops):
        clock.sample()
        starts.append(time.perf_counter())
        if tracer is None:
            result = runner.run(op)
        else:
            with tracer.op(op_id):
                result = runner.run(op)
            if isinstance(result[1], str):
                tracer.counts["cli.bytes_out"] += len(result[1])
        tally.add(op, *result)
        spent += result[0]
        if seconds is not None and (spent >= seconds or time.perf_counter() > wall_cap):
            break
    clock.sample(force=True)
    tally.flush()
    tally.seconds = array.array("d", np.asarray(tally.seconds) * clock.factors(starts))
    return tally


def timed_run(runner, workload, seed, seconds):
    """End-to-end metrics over ``seconds`` of op wall time (tracing off)."""
    setup_s = measure_setup()
    warm = Tally()
    warm_up(runner, workload, warm)
    tally = drive(runner, stream(workload, seed), seconds)
    times = tally.ok_seconds()
    if len(times) < 100:
        print(f"warning: {len(times)} successful ops; op_p90_ms needs 100", file=sys.stderr)
    # 'weibull' is the p(n + 1) rule of statistics.quantiles' default method.
    p50, p90 = np.percentile(times, [50, 90], method="weibull")
    metrics = {
        "op_p50_ms": (1e3 * float(p50), "ms"),
        "op_p90_ms": (1e3 * float(p90), "ms"),
        "ops_per_s": (len(times) / sum(tally.seconds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return warm, tally, metrics


def fixed_pass(runner, workload, seed, tracer=None, count=None):
    """Run the first ``count`` ops of the stream (default: the traced list).

    Returns (tally, op reference seconds).
    """
    tally = drive(runner, first_ops(workload, seed, count or TRACE_OPS[workload]),
                  tracer=tracer)
    return tally, sum(tally.seconds)


def untraced_child(workload: str, seed: int) -> None:
    """Entry point of the process that times the fixed list with tracing off."""
    runner = Runner(load_library())
    warm_up(runner, workload, Tally())
    _, seconds = fixed_pass(runner, workload, seed)
    print(json.dumps({"seconds": seconds}))


def untraced_seconds(workload: str, seed: int) -> float:
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.untraced_child(sys.argv[2], int(sys.argv[3]))")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), workload, str(seed)],
                          cwd=ROOT, check=True, timeout=150, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["seconds"]


def traced_run(runner, workload, seed):
    """Per-layer metrics from the span tracer over the fixed op list."""
    from tracer import Tracer  # imports deltashell, so only after load_library

    warm = Tally()
    warm_up(runner, workload, warm)
    tracer = Tracer()
    tracer.install()
    try:
        tally, traced_s = fixed_pass(runner, workload, seed, tracer)
    finally:
        tracer.uninstall()
    plain_s = untraced_seconds(workload, seed)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.csv")
    defects = probe_defects(runner)
    return warm, tally, layer_metrics(tracer, tally, traced_s, plain_s, defects)


def layer_metrics(tracer, tally, traced_s, plain_s, defects):
    c = tracer.counts
    ops = len(tally.ok)
    self_ns = tracer.self_times_ns()
    inclusive_ns = Counter()
    for name, start, end, _, _ in tracer.spans:
        inclusive_ns[name] += end - start

    def per_op_ms(*names):
        return 1e-6 * sum(self_ns[n] for n in names) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    rows = c["observables.row.calls"]
    curves = c["spectra.curve.calls"]
    lw_calls = c["lambertw.call.calls"]
    count = "count"
    return {
        "quadrature.calls": (c["quadrature.call.calls"], count),
        "quadrature.integrand_evals": (c["quadrature.integrand_evals"], count),
        "quadrature.panels": (c["quadrature.integrand_evals"] // 15, count),
        "quadrature.self_ms": (per_op_ms("quadrature.call"), "ms/op"),
        "quadrature.integrand_ms": (1e-6 * inclusive_ns["integrand.call"] / ops, "ms/op"),
        "quadrature.tolerance_not_met": (c["quadrature.call.raised.ToleranceNotMet"], count),
        "observables.rows": (rows, count),
        "observables.self_ms": (per_op_ms("observables.row", "observables.table",
                                          "observables.constant"), "ms/op"),
        "observables.quadrature_per_row": (
            ratio(tracer.count_under("quadrature.call", "observables.row"), rows), "ratio"),
        "spectra.norm_quadrature_per_curve": (
            ratio(tracer.count_under("quadrature.call", "spectra.curve"), curves), "ratio"),
        "lambertw.calls": (lw_calls, count),
        "lambertw.self_ms": (per_op_ms("lambertw.call"), "ms/op"),
        "lambertw.us_per_call": (ratio(1e-3 * self_ns["lambertw.call"], lw_calls), "us"),
        "poles.calls": (c["poles.find.calls"], count),
        "poles.self_ms": (per_op_ms("poles.find", "poles.enumerate"), "ms/op"),
        "poles.nonconvergence": (c["poles.find.raised.NonConvergence"], count),
        "cli.parse_ms": (per_op_ms("cli.main"), "ms/op"),
        "cli.serialize_ms": (per_op_ms("cli.cmd"), "ms/op"),
        "cli.bytes_out": (c["cli.bytes_out"], count),
        "scattering.calls": (c["scattering.call.calls"], count),
        "scattering.points": (c["scattering.points"], count),
        "scattering.self_ms": (per_op_ms("scattering.call"), "ms/op"),
        "spectra.calls": (curves, count),
        "spectra.points": (c["spectra.points"], count),
        "spectra.self_ms": (per_op_ms("spectra.curve"), "ms/op"),
        "cross_sections.calls": (c["cross_sections.bundle.calls"], count),
        "cross_sections.points": (c["cross_sections.points"], count),
        "cross_sections.self_ms": (per_op_ms("cross_sections.bundle"), "ms/op"),
        "ops.fail_frac": (ratio(ops - sum(tally.ok), ops), "ratio"),
        "trace.ops": (ops, count),
        "trace.overhead_frac": (ratio(traced_s - plain_s, plain_s), "ratio"),
        "defects.reproduced": (defects, count),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        runner = Runner(load_library())
        if args.trace:
            warm, tally, metrics = traced_run(runner, args.workload, args.seed)
        else:
            warm, tally, metrics = timed_run(runner, args.workload, args.seed, args.seconds)
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for line in warm.wrong + tally.wrong:
        print(f"wrong output: {line}")
    for failure, n in sorted(tally.failures.items()):
        print(f"failed {n:6d}  {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": warm.correct and tally.correct,
        "attempted": len(tally.ok),
        "failed": len(tally.ok) - sum(tally.ok),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
