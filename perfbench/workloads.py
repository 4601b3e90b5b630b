"""The four benchmark workloads: seeded inputs, one command each, and checks.

Each workload is built from a seed into a ``Job``.  A job runs one user
command (``run``), gathers the bytes that command produced (``collect``) and
checks them from outside the package (``check``).  The seed only perturbs a
fixed lattice of (alpha, epsilon) values by a small amount: every seed gives
distinct inputs, but nearly the same work.  Death-window refinement, which
dominates the library scan, costs per window, and the window count jumps
with alpha and epsilon; a wider draw would make the seed, not the code,
set the measured time.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
from pathlib import Path

import numpy as np

import checks

#: half-widths of the seeded perturbation around each lattice value
ALPHA_JITTER = 0.01
EPSILON_JITTER = 0.05

#: workload names, in the order ``--workload all`` runs them; BENCHMARK.json
#: says why each is in the benchmark
NAMES = ("fig2-both", "sweep-psi-svg", "verify", "analysis-scan")

#: input sizes; "tiny" is for the harness self-test
SIZES = {
    "full": {"fig2-both": (20.0, 2000), "sweep-psi-svg": (40.0, 4000),
             "analysis-scan": (40.0, 4000)},
    "tiny": {"fig2-both": (20.0, 200), "sweep-psi-svg": (40.0, 200),
             "analysis-scan": (40.0, 400)},
}


def _jittered(rng: random.Random, bases, half_width: float) -> list[float]:
    return [b + rng.uniform(-half_width, half_width) for b in bases]


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class CliJob:
    """One ``tcm-entangle`` command run in-process through ``cli.main``."""

    kind = "cli"

    def __init__(self, pkg, argv, out_dir: Path | None, checker, inputs: dict):
        self.pkg = pkg
        self.argv = argv
        self.out_dir = out_dir
        self.checker = checker
        self.inputs = inputs
        # verify prints residuals that may differ in the last digit between
        # repeats; emitted files must be byte-identical
        self.deterministic = out_dir is not None

    def prepare(self):
        """Untimed: start each command from an empty output directory."""
        if self.out_dir is not None:
            _fresh_dir(self.out_dir)

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(list(self.argv))
        return code, buf.getvalue()

    def collect(self, raw) -> dict[str, bytes]:
        outputs = {"<stdout>": raw[1].encode("utf-8")}
        if self.out_dir is not None:
            for path in sorted(self.out_dir.iterdir()):
                outputs[path.name] = path.read_bytes()
        return outputs

    def check(self, raw, outputs) -> list[str]:
        code = raw[0]
        problems = [] if code == 0 else [f"exit code {code}"]
        return problems + self.checker(outputs, self.inputs)


class ScanJob:
    """Library calls only: trace -> death windows -> maximum -> period."""

    kind = "scan"
    deterministic = True

    def __init__(self, pkg, inputs: dict):
        self.pkg = pkg
        self.inputs = inputs

    def prepare(self):
        pass

    def run(self):
        analysis, model = self.pkg.analysis, self.pkg.model
        grid = np.linspace(0.0, self.inputs["T_max"], self.inputs["n_points"])
        rows = []
        for family in ("PSI", "PHI"):
            for alpha in self.inputs["alpha"]:
                spec = model.InitialStateSpec(model.Family(family), alpha)
                for eps in self.inputs["epsilon"]:
                    params = model.ModelParams.from_dimensionless(epsilon=eps)
                    trace = analysis.concurrence_trace(
                        spec, params, grid, analysis.TracePath.ANALYTIC)
                    windows = analysis.detect_death_intervals(trace)
                    c_max, t_max = analysis.max_concurrence(trace)
                    period = analysis.estimate_period(trace)
                    rows.append((family, alpha, eps, trace, windows,
                                 c_max, t_max, period))
        return rows

    def collect(self, raw) -> dict[str, bytes]:
        lines = []
        for family, alpha, eps, trace, windows, c_max, t_max, period in raw:
            spans = ";".join(f"{w.T_start!r}:{w.T_end!r}:{int(w.refined)}"
                             for w in windows)
            lines.append(f"{family},{alpha!r},{eps!r},{c_max!r},{t_max!r},"
                         f"{period!r},{spans}")
        return {"scan.txt": ("\n".join(lines) + "\n").encode("utf-8")}

    def check(self, raw, outputs) -> list[str]:
        return checks.check_scan(raw, self.inputs)


def build_job(name: str, pkg, seed: int, work_dir: Path, size: str = "full"):
    """Generate the seeded inputs of workload ``name`` and return its job."""
    rng = random.Random(seed)
    pi = math.pi
    if name == "fig2-both":
        T_max, n_points = SIZES[size][name]
        inputs = {"family": "PHI", "T_max": T_max, "n_points": n_points,
                  "alpha": _jittered(rng, (pi / 12, pi / 6, 3 * pi / 8), ALPHA_JITTER),
                  "epsilon": [0.0, 2.0]}
        base = _fresh_dir(work_dir / name)
        config = base / "fig2.cfg"
        config.write_text(
            "family = PHI\n"
            f"alpha = {', '.join(repr(a) for a in inputs['alpha'])}\n"
            "epsilon = 0, 2\n"
            "path = BOTH\n"
            f"T_max = {T_max!r}\n"
            f"n_points = {n_points}\n", encoding="utf-8")
        out = base / "out"
        return CliJob(pkg, ["fig2", "--config", str(config), "--out", str(out)],
                      out, checks.check_figure_outputs, inputs)
    if name == "sweep-psi-svg":
        T_max, n_points = SIZES[size][name]
        inputs = {"family": "PSI", "T_max": T_max, "n_points": n_points, "svg": True,
                  "alpha": _jittered(rng, (pi / 12, pi / 6, pi / 3, 5 * pi / 12),
                                     ALPHA_JITTER),
                  "epsilon": _jittered(rng, (0.5, 1.5, 2.5), EPSILON_JITTER)}
        out = _fresh_dir(work_dir / name) / "out"
        argv = ["sweep", "--family", "PSI",
                "--alpha", ",".join(repr(a) for a in inputs["alpha"]),
                "--epsilon", ",".join(repr(e) for e in inputs["epsilon"]),
                "--tmax", repr(T_max), "--points", str(n_points),
                "--out", str(out), "--svg"]
        return CliJob(pkg, argv, out, checks.check_figure_outputs, inputs)
    if name == "verify":
        return CliJob(pkg, ["verify"], None, checks.check_verify, {})
    if name == "analysis-scan":
        T_max, n_points = SIZES[size][name]
        inputs = {"T_max": T_max, "n_points": n_points,
                  "alpha": _jittered(rng, [(k + 0.5) * pi / 12 for k in range(6)],
                                     ALPHA_JITTER),
                  "epsilon": _jittered(rng, (0.5, 1.5, 2.5), EPSILON_JITTER)}
        return ScanJob(pkg, inputs)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
