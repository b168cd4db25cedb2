"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install`` replaces, on the importing module, each public function
a layer is called through with a wrapper that records a span (name, start,
end, parent, op id) and the layer's work counters; ``uninstall`` puts the
originals back. Nothing in the library changes. Spans stay in memory and
are written out once, at the end of the traced run.

A layer's self time is the duration of its spans minus the part covered by
their direct children, so nested layers are never counted twice.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time
from collections import Counter
from pathlib import Path

import numpy as np

from deltashell import cli, cross_sections, observables, poles, spectra

# (module, attribute, span name). The span name's prefix before the first
# '.' is the layer. Attributes a later version no longer has are skipped.
WRAPPED = [
    (poles, "lambert_w", "lambertw.call"),
    (poles, "find_resonance", "poles.find"),
    (poles, "find_anti_resonance", "poles.find"),
    (poles, "find_bound_state", "poles.find"),
    (poles, "find_virtual_state", "poles.find"),
    (poles, "enumerate_poles", "poles.enumerate"),
    (observables, "enumerate_poles", "poles.enumerate"),
    (cli, "enumerate_poles", "poles.enumerate"),
    (cli, "find_resonance", "poles.find"),
    (cli, "find_anti_resonance", "poles.find"),
    (cli, "find_virtual_state", "poles.find"),
    (spectra, "find_resonance", "poles.find"),
    (cross_sections, "find_resonance", "poles.find"),
    (observables, "integrate_semi_infinite", "quadrature.call"),
    (spectra, "integrate_semi_infinite", "quadrature.call"),
    (observables, "observables_record", "observables.row"),
    (cli, "table_records", "observables.table"),
    (spectra, "decay_constant_total", "observables.constant"),
    (observables, "matrix_element_squared", "scattering.call"),
    (observables, "zeldovich_norm", "scattering.call"),
    (spectra, "matrix_element", "scattering.call"),
    (spectra, "matrix_element_squared", "scattering.call"),
    (cross_sections, "s_matrix", "scattering.call"),
    (cross_sections, "zeldovich_norm", "scattering.call"),
    (cli, "spectrum_curve", "spectra.curve"),
    (cli, "interference_curve", "spectra.curve"),
    (cli, "cross_section_bundle", "cross_sections.bundle"),
    (cli, "main", "cli.main"),
] + [(cli, f"cmd_{name}", "cli.cmd") for name in
     ("poles", "table", "spectrum", "interfere", "cross_section", "lambertw")]

# Energy-array argument position of the scattering functions, for point counts.
_POINTS_ARG = {"matrix_element_squared": 2, "matrix_element": 2, "s_matrix": 1}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op_id]
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op."""
        self.op_id = op_id
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, attr: str):
        tracer = self
        counts = self.counts
        points_arg = _POINTS_ARG.get(attr)

        def integrand(f):
            def counted(x):
                counts["quadrature.integrand_evals"] += np.size(x)
                index = tracer._open("integrand.call")
                try:
                    return f(x)
                finally:
                    tracer._close(index)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            if points_arg is not None and len(args) > points_arg:
                counts["scattering.points"] += np.size(args[points_arg])
            if name == "quadrature.call":
                args = (integrand(args[0]),) + args[1:]
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close(index)
            if name in ("spectra.curve", "cross_sections.bundle"):
                counts[f"{name.split('.')[0]}.points"] += len(result.grid)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attr))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- analysis

    def self_times_ns(self) -> Counter:
        """Total self time per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        hits = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            hits += parent >= 0
        return hits

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_ns", "end_ns", "parent", "op"])
            for index, span in enumerate(self.spans):
                out.writerow([index] + span)
