"""End-to-end acceptance gate.

Each test prints a single machine-greppable verdict line of the form

    acceptance NN <name>: PASS|FAIL (measured ...)

and asserts the same condition, so the pytest outcome and the printed
verdict always agree.  Shared heavy artifacts (spectral decompositions,
evolved state grids) are cached per dipole strength.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from tcm_entangle import figures, verify
from tcm_entangle.analysis import (TracePath, concurrence_trace,
                                   detect_death_intervals, estimate_period,
                                   max_concurrence)
from tcm_entangle.analytic import closed_form_states
from tcm_entangle.config import RunConfig
from tcm_entangle.entanglement import (pure_concurrence, reduce_to_atoms,
                                       wootters_concurrence)
from tcm_entangle.model import Basis, Family, InitialStateSpec, ModelParams, initial_state
from tcm_entangle.propagator import evolve_grid

ALPHA_GRID = np.linspace(0.0, math.pi / 2, 9)
EPSILON_GRID = (0.0, 0.1, 1.0, 2.0, 5.0)
T_GRID = np.linspace(0.0, 20.0, 400)

_BASIS = Basis(2)


@lru_cache(maxsize=None)
def _decomp(epsilon: float):
    return ModelParams(epsilon=epsilon).decomposition


def _params(epsilon: float) -> ModelParams:
    return ModelParams(epsilon=epsilon)


def _verdict(number: int, name: str, passed: bool, detail: str):
    print(f"acceptance {number:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


class TestAcceptance:
    def test_01_closed_form_matches_exact_propagation(self):
        # fidelity >= 1 - 1e-9 and concurrence gap <= 1e-9 over the full grid
        worst_fid_gap = 0.0
        worst_c_gap = 0.0
        for eps in EPSILON_GRID:
            decomp = _decomp(eps)
            params = _params(eps)
            for family in Family:
                for alpha in ALPHA_GRID:
                    spec = InitialStateSpec(family, float(alpha))
                    states = evolve_grid(initial_state(spec, _BASIS), decomp, T_GRID)
                    exact = closed_form_states(spec, params, T_GRID)
                    fid = np.abs(np.einsum("ij,ij->i", exact.conj(), states))
                    worst_fid_gap = max(worst_fid_gap, float(np.max(1.0 - fid)))

                    oracle_C = np.array([
                        pure_concurrence(s) for s in states])
                    analytic = concurrence_trace(spec, params, T_GRID, TracePath.ANALYTIC)
                    worst_c_gap = max(worst_c_gap, float(np.max(np.abs(analytic.C - oracle_C))))
        ok = worst_fid_gap <= 1e-9 and worst_c_gap <= 1e-9
        _verdict(1, "closed-form vs exact propagation", ok,
                 f"max fidelity defect {worst_fid_gap:.2e} <= 1e-9, "
                 f"max concurrence gap {worst_c_gap:.2e} <= 1e-9")

    def test_02_initial_concurrence_is_sin_2alpha(self):
        worst = 0.0
        for family in Family:
            for alpha in ALPHA_GRID:
                psi0 = initial_state(InitialStateSpec(family, float(alpha)), _BASIS)
                c0 = wootters_concurrence(reduce_to_atoms(psi0))
                worst = max(worst, abs(c0 - math.sin(2 * float(alpha))))
        _verdict(2, "initial concurrence sin(2 alpha)", worst <= 1e-9,
                 f"max |C(0) - sin 2a| = {worst:.2e} <= 1e-9")

    def test_03_uncoupled_cross_term_and_returning_maximum(self):
        # eps = 0: 2 x1 x2* = (-1 + 3 s + (1 + s) cos(sqrt(8) T)) / 4 with
        # s = sin 2a, and the maximum concurrence returns to C(0).  The
        # return-to-initial property requires s >= 1/3: below it the
        # anti-phase extreme (1 - s)/2 exceeds s, so the endpoint angles
        # of the grid (s = 0) are checked for the cross term only.
        worst_formula = 0.0
        worst_max = 0.0
        for alpha in ALPHA_GRID:
            s = math.sin(2 * float(alpha))
            trace = concurrence_trace(InitialStateSpec(Family.PSI, float(alpha)),
                                      _params(0.0), T_GRID, TracePath.ANALYTIC)
            expected = (-1.0 + 3.0 * s + (1.0 + s) * np.cos(math.sqrt(8) * T_GRID)) / 4.0
            worst_formula = max(worst_formula,
                                float(np.max(np.abs(trace.signed_C - expected))))
            if s >= 1.0 / 3.0:
                c_max, _ = max_concurrence(trace)
                worst_max = max(worst_max, abs(c_max - s))
        ok = worst_formula <= 1e-10 and worst_max <= 1e-9
        _verdict(3, "uncoupled cross term and returning maximum", ok,
                 f"max formula gap {worst_formula:.2e} <= 1e-10, "
                 f"max |C_max - C(0)| = {worst_max:.2e} <= 1e-9 for sin 2a >= 1/3")

    def test_04_death_windows_and_their_absence(self):
        # the grid stops before pi + arcsin sqrt(tan a), where the next
        # periodic window would begin
        worst_endpoint = 0.0
        grid = np.linspace(0.0, 3.5, 4000)
        for alpha in (math.pi / 16, math.pi / 12, math.pi / 8, math.pi / 6):
            trace = concurrence_trace(InitialStateSpec(Family.PHI, alpha),
                                      _params(0.0), grid)
            intervals = detect_death_intervals(trace)
            assert len(intervals) == 1, f"expected one window for alpha={alpha}"
            lo = math.asin(math.sqrt(math.tan(alpha)))
            worst_endpoint = max(worst_endpoint,
                                 abs(intervals[0].T_start - lo),
                                 abs(intervals[0].T_end - (math.pi - lo)))

        # strongly entangled starts never die over a window; alpha = pi/2 is
        # excluded as its state is separable with C identically zero
        spurious = 0
        for alpha in [a for a in ALPHA_GRID if math.pi / 4 <= a < math.pi / 2]:
            trace = concurrence_trace(InitialStateSpec(Family.PHI, float(alpha)),
                                      _params(0.0), grid)
            spurious += len(detect_death_intervals(trace))

        psi_windows = 0
        for eps in EPSILON_GRID:
            for alpha in ALPHA_GRID:
                trace = concurrence_trace(InitialStateSpec(Family.PSI, float(alpha)),
                                          _params(eps), np.linspace(0.0, 20.0, 4000))
                psi_windows += len(detect_death_intervals(trace))

        ok = worst_endpoint <= 1e-6 and spurious == 0 and psi_windows == 0
        _verdict(4, "sudden-death windows", ok,
                 f"max endpoint error {worst_endpoint:.2e} <= 1e-6, "
                 f"{spurious} spurious strong-alpha windows, "
                 f"{psi_windows} windows for the exchange-symmetric family")

    def test_05_window_length_monotonicity(self):
        grid = np.linspace(0.0, 3.5, 4000)

        def window_length(alpha, eps):
            # length of the first window; with dipole coupling the window
            # pattern repeats faster, so later windows may also fit the grid
            trace = concurrence_trace(InitialStateSpec(Family.PHI, alpha),
                                      _params(eps), grid)
            intervals = detect_death_intervals(trace)
            assert intervals and intervals[0].refined
            return intervals[0].length

        lengths = [window_length(a, 0.0)
                   for a in (math.pi / 16, math.pi / 12, math.pi / 8, math.pi / 6)]
        decreasing = all(a > b for a, b in zip(lengths, lengths[1:]))
        l_coupled = window_length(math.pi / 8, 2.0)
        l_free = lengths[2]
        ok = decreasing and l_coupled < l_free
        _verdict(5, "window length monotonicity", ok,
                 f"lengths {', '.join(f'{l:.4f}' for l in lengths)} decreasing in alpha; "
                 f"dipole coupling shortens {l_free:.4f} -> {l_coupled:.4f}")

    def test_06_concurrence_period(self):
        worst_rel = 0.0
        details = []
        for eps in (0.0, 2.0):
            expected = 2.0 * math.pi / math.sqrt(8.0 + eps**2)
            for alpha in (math.pi / 8, math.pi / 4):
                trace = concurrence_trace(InitialStateSpec(Family.PSI, alpha),
                                          _params(eps), np.linspace(0.0, 20.0, 4000))
                rel = abs(estimate_period(trace) / expected - 1.0)
                worst_rel = max(worst_rel, rel)
            details.append(f"eps={eps:g}: {expected:.4f}")
        _verdict(6, "concurrence period 2 pi / sqrt(8 + eps^2)", worst_rel <= 1e-3,
                 f"max relative error {worst_rel:.2e} <= 1e-3; " + "; ".join(details))

    def test_07_near_unit_maximum_with_dipole_coupling(self):
        trace = concurrence_trace(InitialStateSpec(Family.PSI, math.pi / 8),
                                  _params(2.0), np.linspace(0.0, 200.0, 40000))
        c_max, t_at = max_concurrence(trace)
        _verdict(7, "near-unit maximum with dipole coupling", c_max >= 0.99,
                 f"achieved C_max = {c_max:.6f} >= 0.99 at T = {t_at:.4f}")

    def test_08_numerics_invariants(self):
        results = verify.run_all()
        ok = all(r.passed for r in results)
        detail = "; ".join(f"{r.name} {r.max_residual:.1e}" for r in results)
        _verdict(8, "numerics invariants", ok, detail)

    def test_09_deterministic_outputs(self, tmp_path):
        mismatches = []
        for family in Family:
            dirs = []
            for tag in ("first", "second"):
                out = tmp_path / f"{family.value}_{tag}"
                cfg = RunConfig(family=family,
                                alpha_list=figures.FIGURE_ALPHAS,
                                epsilon_list=figures.FIGURE_EPSILONS,
                                output_dir=str(out), emit_svg=True)
                figures.run(cfg)
                dirs.append(out)
            names_a = sorted(p.name for p in dirs[0].iterdir())
            names_b = sorted(p.name for p in dirs[1].iterdir())
            if names_a != names_b:
                mismatches.append(f"{family.value}: file lists differ")
                continue
            for name in names_a:
                if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                    mismatches.append(f"{family.value}/{name}")
        _verdict(9, "byte-identical dataset emission", not mismatches,
                 "all files identical across runs" if not mismatches
                 else "differing: " + ", ".join(mismatches))
