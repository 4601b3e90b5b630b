#!/usr/bin/env python3
"""Self-test of the benchmark harness; takes about a minute.

    python3 perfbench/selftest.py

Checks that:

* every workload runs at a tiny size, traced and untraced, with no failed
  command, and reports every metric BENCHMARK.json lists;
* every per-layer metric is nonzero on each workload that calls its layer;
* ``verify --inject-fault`` and a corrupted CSV each count every command
  as failed, so they show in the error rate;
* in a directory holding only BENCHMARK.json and the harness, the harness
  exits nonzero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads
from tracer import PER_LAYER_UNITS, VERIFY_SUITES

#: per-layer metrics each workload must drive above zero
_ORACLE = ["model.basis_s", "model.basis_calls", "hamiltonian.build_s",
           "hamiltonian.build_calls", "hamiltonian.build_dim_sum",
           "propagator.decompose_s", "propagator.decompose_calls",
           "propagator.decompose_dim_sum", "propagator.decompose_dim_max",
           "propagator.evolve_s", "propagator.evolve_points",
           "entanglement.concurrence_s", "entanglement.concurrence_calls",
           "analysis.oracle_trace_s"]
_ANALYTIC = ["analytic.amplitudes_s", "analytic.amplitude_calls",
             "analytic.amplitude_points", "analytic.points_per_call",
             "analysis.trace_s", "analysis.trace_calls"]
_WINDOWS = ["analysis.death_windows_s", "analysis.death_windows_total_s",
            "analysis.windows", "analysis.refined_endpoints",
            "analysis.evals_per_endpoint"]
_CSV = ["cli.self_s", "figures.csv_s", "figures.csv_rows", "figures.csv_bytes"]
EXPECTED_LAYERS = {
    "fig2-both": _ORACLE + _ANALYTIC + _WINDOWS + _CSV,
    "sweep-psi-svg": _ANALYTIC + _CSV + ["svgplot.render_s", "svgplot.svg_bytes"],
    "verify": _ORACLE + _ANALYTIC + ["cli.self_s", "entanglement.reduce_s",
                                     "entanglement.reduce_calls", "verify.worst_margin"]
              + [f"verify.{s}_s" for s in VERIFY_SUITES],
    "analysis-scan": _ANALYTIC + _WINDOWS + ["analysis.max_s", "analysis.max_evals",
                                             "analysis.period_s"],
}


class Corrupted:
    """A job whose first curve CSV is damaged after every command."""

    def __init__(self, job, damage):
        self.job, self.damage = job, damage
        self.kind, self.deterministic = job.kind, job.deterministic
        self.inputs = job.inputs

    def prepare(self):
        self.job.prepare()

    def run(self):
        raw = self.job.run()
        path = sorted(self.job.out_dir.glob("*_alpha*.csv"))[0]
        lines = path.read_text(encoding="utf-8").split("\n")
        cells = lines[1].split(",")
        cells[1] = self.damage(cells[1])
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")
        return raw

    def collect(self, raw):
        return self.job.collect(raw)

    def check(self, raw, outputs):
        return self.job.check(raw, outputs)


def main() -> int:
    failures = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json lists the harness's workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
           "BENCHMARK.json lists the harness's end-to-end metrics and units")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS,
           "BENCHMARK.json lists the harness's per-layer metrics and units")
    covered = {m for names in EXPECTED_LAYERS.values() for m in names}
    expect(covered == set(PER_LAYER_UNITS) - {"trace.overhead"},
           "every per-layer metric is expected on some workload")

    os.chdir(run.ROOT)
    for name in workloads.NAMES:
        for trace in (False, True):
            record = run.run_workload(name, seed=7, seconds=0.5, trace=trace, size="tiny")[0]
            units = PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            expect(record["failed"] == 0 and record["attempted"] >= run.MIN_COMMANDS + 1,
                   f"{name} trace={int(trace)}: {record['attempted']} commands, none failed"
                   + "".join(f"\n     {p}" for p in record["problems"][:3]))
            expect(set(record["metrics"]) == set(units),
                   f"{name} trace={int(trace)}: reports every metric")
            if trace:
                zero = [m for m in EXPECTED_LAYERS[name]
                        if not record["metrics"][m]["value"] > 0]
                expect(not zero, f"{name}: layer metrics above zero"
                       + (f" (zero: {', '.join(zero)})" if zero else ""))

    pkg = run.load_package(run.ROOT)
    work = run.WORK_DIR / "selftest"
    def inject_fault():
        job = workloads.build_job("verify", pkg, 0, work, "tiny")
        job.argv = ["verify", "--inject-fault"]
        return job

    def corrupt(damage):
        return lambda: Corrupted(workloads.build_job("fig2-both", pkg, 0, work, "tiny"),
                                 damage)

    cases = [("verify --inject-fault", inject_fault),
             ("corrupted CSV (NaN cell)", corrupt(lambda c: "nan")),
             ("corrupted CSV (concurrence off by 1e-6)",
              corrupt(lambda c: repr(float(c) + 1e-6)))]
    for label, make_job in cases:
        runner = run.measure(make_job(), 0.1, trace=False)[0]
        expect(runner.attempted > 0 and runner.failed == runner.attempted,
               f"{label}: {runner.failed}/{runner.attempted} commands counted failed")

    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without package sources: exit code {proc.returncode}, no result printed")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
