"""Self-tests of the benchmark: the oracle, the tracer and the seeded inputs.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins numpy threads before the library is imported)

RUNNER = run.Runner(run.load_library())

from oracle import check_curve, check_golden, check_pole_batch, check_table  # noqa: E402
from workloads import WORKLOADS, Op, first_ops, stream  # noqa: E402


def _replace_cell(text: str, row: int, col: int, scale: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = format(float(cells[col]) * scale, ".9g")
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _output(op):
    _, output, failure = RUNNER.run(op)
    assert failure is None
    return output


# Columns: 2 re_k, 3 im_k, 4 re_z, 6 gamma_R, 8 gamma, 9 gamma_bar_sharp.
@pytest.mark.parametrize("col", [2, 3, 4, 6, 8, 9])
def test_oracle_rejects_perturbed_table_row(col):
    op = Op("table", -7.25, 5)
    text = _output(op)
    assert check_table(op.lam, op.n, text) is None
    assert check_table(op.lam, op.n, _replace_cell(text, 3, col, 1.0 + 1e-6)) is not None


def test_oracle_rejects_perturbed_bound_state_and_golden_row():
    op = Op("table", -10.0, 8)
    text = _output(op)
    golden = run.GOLDEN
    assert check_golden(-10.0, text, golden) is None
    assert check_table(op.lam, op.n, _replace_cell(text, 1, 8, 1.0 + 1e-5)) is not None
    assert check_golden(-10.0, _replace_cell(text, 2, 7, 1.01), golden) is not None


def test_oracle_rejects_perturbed_poles():
    spec = run.load_library().PotentialSpec(lam=42.0)
    poles = RUNNER.poles.enumerate_poles(spec, 4)
    antis = [RUNNER.poles.find_anti_resonance(spec, m) for m in range(1, 5)]
    assert check_pole_batch([(0, 42.0, 4, poles, antis)]) == {}
    moved = dataclasses.replace(antis[2], k=antis[2].k * (1.0 + 1e-7), z=(antis[2].k * (1.0 + 1e-7)) ** 2)
    bad = check_pole_batch([(0, 42.0, 4, poles, antis), (1, 42.0, 4, poles, antis[:2] + [moved, antis[3]])])
    assert list(bad) == [1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oracle_rejects_perturbed_cross_section(fmt):
    op = Op("cross-section", 12.0, 2, fmt=fmt, second=3, emin=30.0, emax=60.0, points=201)
    text = _output(op)
    assert check_curve(op, text) is None
    if fmt == "json":
        doc = json.loads(text)
        doc["curve"]["exact"][77] *= 1.001
        text = json.dumps(doc)
    else:
        text = _replace_cell(text, 78, 1, 1.001)
    assert check_curve(op, text) is not None


def test_oracle_rejects_negative_spectrum():
    op = Op("spectrum", 12.0, 2, emin=30.0, emax=60.0, points=201)
    text = _output(op)
    assert check_curve(op, text) is None
    assert check_curve(op, _replace_cell(text, 50, 1, -1.0)) is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    ops = first_ops(workload, 11, 40)
    assert ops == first_ops(workload, 11, 40)
    assert ops != first_ops(workload, 12, 40)
    a, b = stream(workload, 11), stream(workload, 11)
    interleaved = [next(s) for _ in range(20) for s in (a, b)]
    assert interleaved[0::2] == interleaved[1::2] == ops[:20]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from workloads import first_ops; "
            "print(repr(first_ops(sys.argv[2], 11, 40)))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code, str(HERE), workload], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == repr(ops)


_COUNTERS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
runner = run.Runner(run.load_library())
from tracer import Tracer
tracer = Tracer()
tracer.install()
run.fixed_pass(runner, sys.argv[2], 5, tracer, count=int(sys.argv[3]))
print(json.dumps(dict(tracer.counts), sort_keys=True))
"""


@pytest.mark.parametrize("workload,count", [("table_scan", 4), ("pole_atlas", 150),
                                            ("curve_render", 4)])
def test_traced_counters_repeat_for_one_seed(workload, count):
    runs = [
        subprocess.run([sys.executable, "-c", _COUNTERS, str(HERE), workload, str(count)],
                       capture_output=True, text=True, check=True, timeout=120).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["lambertw.call.calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table_scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
