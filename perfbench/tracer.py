"""Traced-run mode: spans and counts around each layer's public functions.

``Tracer.install`` rebinds each traced function, in every ``tcm_entangle``
module namespace that holds it, to a wrapper that records a span (id, name,
start, end, parent, command id) and the layer's counts.  ``uninstall``
restores the original bindings.  Spans stay in memory until the run ends;
self times and nested-call counts are derived from them afterwards.
"""

from __future__ import annotations

import csv
import functools
import itertools
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "tcm_entangle"
VERIFY_SUITES = ("hermiticity", "conservation", "unitarity", "energy_conservation",
                 "sector_confinement", "fidelity", "trace_agreement", "density_matrix",
                 "local_unitary_invariance")


def _size_of(x) -> int:
    return int(np.size(x))


def _endpoints_refined(args, kwargs, result) -> int:
    grid = args[0].T_grid
    return sum(int(w.T_start != grid[0]) + int(w.T_end != grid[-1]) for w in result)


def _verify_margin(args, kwargs, result) -> float:
    return result.max_residual / result.threshold if result.threshold > 0 else 0.0


def _trace_span_name(args, kwargs) -> str:
    path = args[3] if len(args) > 3 else kwargs.get("path")
    return "analysis.oracle_trace" if path is not None and path.value == "ORACLE" \
        else "analysis.trace"


# (module, attribute, span name, {count key: fn(args, kwargs, result)})
# A span name may be a callable of (args, kwargs) that picks it per call.
LAYERS = [
    ("model", "Basis.__init__", "model.basis", {}),
    ("hamiltonian", "build_hamiltonian", "hamiltonian.build",
     {"hamiltonian.build_dim_sum": lambda a, k, r: r.shape[0]}),
    ("propagator", "jacobi_eigh", "propagator.decompose",
     {"propagator.decompose_dim_sum": lambda a, k, r: np.shape(a[0])[0],
      "propagator.decompose_dim_max": lambda a, k, r: np.shape(a[0])[0]}),
    ("propagator", "evolve_grid", "propagator.evolve",
     {"propagator.evolve_points": lambda a, k, r: _size_of(a[2])}),
    ("propagator", "evolve", "propagator.evolve",
     {"propagator.evolve_points": lambda a, k, r: 1}),
    ("entanglement", "pure_concurrence", "entanglement.concurrence", {}),
    ("entanglement", "wootters_concurrence", "entanglement.concurrence", {}),
    ("entanglement", "xstate_concurrence", "entanglement.concurrence", {}),
    ("entanglement", "reduce_to_atoms", "entanglement.reduce", {}),
    ("analytic", "psi_amplitudes", "analytic.amplitudes",
     {"analytic.amplitude_points": lambda a, k, r: _size_of(k.get("T", a[-1]))}),
    ("analytic", "phi_amplitudes", "analytic.amplitudes",
     {"analytic.amplitude_points": lambda a, k, r: _size_of(k.get("T", a[-1]))}),
    ("analysis", "concurrence_trace", _trace_span_name, {}),
    ("analysis", "detect_death_intervals", "analysis.death_windows",
     {"analysis.windows": lambda a, k, r: len(r),
      "analysis.refined_endpoints": _endpoints_refined}),
    ("analysis", "max_concurrence", "analysis.max", {}),
    ("analysis", "estimate_period", "analysis.period", {}),
    ("figures", "write_csv", "figures.csv",
     {"figures.csv_rows": lambda a, k, r: len(a[2][0]),
      "figures.csv_bytes": lambda a, k, r: Path(a[0]).stat().st_size}),
    ("svgplot", "line_chart", "svgplot.render",
     {"svgplot.svg_bytes": lambda a, k, r: len(r.encode("utf-8"))}),
] + [("verify", f"suite_{s}", f"verify.{s}", {"verify.worst_margin": _verify_margin})
     for s in VERIFY_SUITES]

#: count keys aggregated by maximum instead of sum
MAX_KEYS = {"propagator.decompose_dim_max", "verify.worst_margin"}

#: per-layer metric -> unit, in BENCHMARK.json order
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "model.basis_s": "s", "model.basis_calls": "count",
    "hamiltonian.build_s": "s", "hamiltonian.build_calls": "count",
    "hamiltonian.build_dim_sum": "count",
    "propagator.decompose_s": "s", "propagator.decompose_calls": "count",
    "propagator.decompose_dim_sum": "count", "propagator.decompose_dim_max": "count",
    "propagator.evolve_s": "s", "propagator.evolve_points": "count",
    "entanglement.concurrence_s": "s", "entanglement.concurrence_calls": "count",
    "entanglement.reduce_s": "s", "entanglement.reduce_calls": "count",
    "analytic.amplitudes_s": "s", "analytic.amplitude_calls": "count",
    "analytic.amplitude_points": "count", "analytic.points_per_call": "points/call",
    "analysis.trace_s": "s", "analysis.oracle_trace_s": "s", "analysis.trace_calls": "count",
    "analysis.death_windows_s": "s", "analysis.death_windows_total_s": "s",
    "analysis.windows": "count",
    "analysis.refined_endpoints": "count", "analysis.evals_per_endpoint": "evals/endpoint",
    "analysis.max_s": "s", "analysis.max_evals": "count", "analysis.period_s": "s",
    "figures.csv_s": "s", "figures.csv_rows": "count", "figures.csv_bytes": "bytes",
    "svgplot.render_s": "s", "svgplot.svg_bytes": "bytes",
    **{f"verify.{s}_s": "s" for s in VERIFY_SUITES},
    "verify.worst_margin": "ratio",
    "trace.overhead": "ratio",
}

#: call-count metric -> the span names whose calls it counts
CALL_METRICS = {
    "model.basis_calls": ("model.basis",),
    "hamiltonian.build_calls": ("hamiltonian.build",),
    "propagator.decompose_calls": ("propagator.decompose",),
    "entanglement.concurrence_calls": ("entanglement.concurrence",),
    "entanglement.reduce_calls": ("entanglement.reduce",),
    "analytic.amplitude_calls": ("analytic.amplitudes",),
    "analysis.trace_calls": ("analysis.trace", "analysis.oracle_trace"),
}


class Tracer:
    """Spans and counts of the traced commands of one run."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, command)
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._command = -1
        self._patches: list[tuple] = []

    # --- recording -----------------------------------------------------

    def _record(self, name, fn, args, kwargs):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self._command))

    def _wrap(self, fn, span_name, sizers):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name(args, kwargs) if callable(span_name) else span_name
            result = tracer._record(name, fn, args, kwargs)
            counts = tracer.counts[tracer._command]
            for key, sizer in sizers.items():
                value = sizer(args, kwargs, result)
                counts[key] = max(counts[key], value) if key in MAX_KEYS else counts[key] + value
            return result

        return traced

    def command(self, name: str, fn):
        """Run ``fn`` as one traced command under a root span ``name``."""
        self._command += 1
        return self._record(name, fn, (), {})

    # --- binding -------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr, span_name, sizers in LAYERS:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:   # a method: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span_name, sizers))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, span_name, sizers)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # --- results -------------------------------------------------------

    def write_spans(self, path: Path):
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "command"])
            writer.writerows(self.spans)

    def per_command_metrics(self) -> list[dict[str, float]]:
        """Per-layer metrics of each traced command, derived from the spans."""
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, name, start, end, parent, cmd in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        n_commands = self._command + 1
        self_time = [defaultdict(float) for _ in range(n_commands)]
        total_time = [defaultdict(float) for _ in range(n_commands)]
        calls = [defaultdict(int) for _ in range(n_commands)]
        evals_under = [defaultdict(int) for _ in range(n_commands)]
        for sid, name, start, end, parent, cmd in self.spans:
            self_time[cmd][name] += end - start - child_time[sid]
            total_time[cmd][name] += end - start
            calls[cmd][name] += 1
            if name == "analytic.amplitudes":
                ancestors = set()
                while parent is not None:
                    ancestors.add(by_id[parent][1])
                    parent = by_id[parent][4]
                for anc in ancestors:
                    evals_under[cmd][anc] += 1
        out = []
        for cmd in range(n_commands):
            st, nc, counts = self_time[cmd], calls[cmd], self.counts[cmd]
            m = {name: 0.0 for name in PER_LAYER_UNITS}
            for metric in PER_LAYER_UNITS:
                if metric.endswith("_s"):
                    m[metric] = st[metric[:-2]]
            m["cli.self_s"] = st["cli"]
            m["analysis.death_windows_total_s"] = total_time[cmd]["analysis.death_windows"]
            for metric, names in CALL_METRICS.items():
                m[metric] = sum(nc[n] for n in names)
            for key, value in counts.items():
                m[key] = value
            m["analytic.points_per_call"] = (m["analytic.amplitude_points"]
                                             / m["analytic.amplitude_calls"]
                                             if m["analytic.amplitude_calls"] else 0.0)
            m["analysis.evals_per_endpoint"] = (evals_under[cmd]["analysis.death_windows"]
                                                / m["analysis.refined_endpoints"]
                                                if m["analysis.refined_endpoints"] else 0.0)
            m["analysis.max_evals"] = evals_under[cmd]["analysis.max"]
            out.append(m)
        return out


def median_metrics(per_command: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(float(m[name]) for m in per_command)
            for name in PER_LAYER_UNITS if name != "trace.overhead"}
