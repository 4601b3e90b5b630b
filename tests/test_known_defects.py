"""Open defects, one strict xfail each, asserting the correct behaviour.

The change that mends a defect sees its test XPASS, which fails under
``strict=True``; it then drops the marker.  ROADMAP.md describes each item.
"""

import math

import numpy as np
import pytest

from tcm_entangle import config
from tcm_entangle.analysis import concurrence_trace, detect_death_intervals, max_concurrence
from tcm_entangle.model import Family, InitialStateSpec, ModelParams

#: points of the fine grids the coarse readings are held to
_FINE = 200_001


def _trace(family, alpha, epsilon, grid):
    return concurrence_trace(InitialStateSpec(family, alpha), ModelParams(epsilon=epsilon), grid)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_coarse_grid_reaches_the_global_maximum():
    # only the grid argmax's bracket is refined: 0.98526 here, for 0.999996
    coarse = max_concurrence(_trace(Family.PSI, 0.0, 2.0, np.linspace(0.0, 100.0, 6)))
    fine = max_concurrence(_trace(Family.PSI, 0.0, 2.0, np.linspace(0.0, 100.0, _FINE)))
    assert coarse[0] == pytest.approx(fine[0], abs=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
def test_default_grid_finds_a_window_between_samples():
    # the window at T = 14.310 is 0.0026 long and holds no sample of the
    # default fig2 grid, which finds 3 of the fine grid's 4 windows
    def windows(n_points):
        grid = np.linspace(0.0, config.DEFAULT_T_MAX, n_points)
        return detect_death_intervals(_trace(Family.PHI, math.radians(34), 1.0, grid))

    coarse, fine = windows(config.DEFAULT_N_POINTS), windows(_FINE)
    assert len(coarse) == len(fine)
    for got, want in zip(coarse, fine):
        assert got.T_start == pytest.approx(want.T_start, abs=1e-9)
        assert got.T_end == pytest.approx(want.T_end, abs=1e-9)
