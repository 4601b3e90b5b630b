import math
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcm_entangle import analytic
from tcm_entangle.analysis import (concurrence_trace, detect_death_intervals,
                                   max_concurrence)
from tcm_entangle.analytic import (amplitudes, closed_form_states, phi_amplitudes,
                                   psi_amplitudes)
from tcm_entangle.model import (Basis, Family, InitialStateSpec, ModelParams,
                                initial_state)
from tcm_entangle.propagator import evolve

ALPHAS = [0.0, math.pi / 12, math.pi / 8, math.pi / 4, math.pi / 3, math.pi / 2]
EPSILONS = [0.0, 0.5, 2.0, 5.0]


def _derive_constants(epsilon, alpha):
    """The closed forms' constants, held together as they were before each
    amplitude function wrote out the ones it reads."""
    kappa = math.sqrt(8.0 + epsilon * epsilon)
    return types.SimpleNamespace(
        kappa=kappa,
        eta=math.sqrt(16.0 + epsilon * epsilon),
        L_plus=epsilon / kappa + 1.0,
        L_minus=epsilon / kappa - 1.0,
        theta_plus=math.cos(alpha) + math.sin(alpha),
        theta_minus=math.cos(alpha) - math.sin(alpha),
    )


def _reference_psi_amplitudes(alpha, epsilon, T):
    T = np.asarray(T, dtype=float)
    d = _derive_constants(epsilon, alpha)
    k = d.kappa
    lam_phase = np.exp(-0.5j * k * d.L_plus * T)
    xi = np.exp(0.5j * (3.0 * d.L_plus - 2.0) * k * T)
    eikt = np.exp(1j * k * T)
    core = d.theta_plus * (d.L_plus - d.L_minus * eikt)
    x1 = lam_phase / 4.0 * (core + 2.0 * xi * d.theta_minus)
    x2 = lam_phase / 4.0 * (core - 2.0 * xi * d.theta_minus)
    x3 = lam_phase * d.theta_plus / k * (1.0 - eikt)
    return x1, x2, x3


def _reference_phi_amplitudes(alpha, epsilon, lam, T):
    T = np.asarray(T, dtype=float)
    eta = _derive_constants(epsilon, alpha).eta
    gam = math.cos(alpha) * np.exp(-0.5j * (2.0 * lam + epsilon + eta) * T)
    eieta = np.exp(1j * eta * T)
    m_plus, m_minus = 1.0 + eieta, 1.0 - eieta
    half_split = np.exp(0.5j * (epsilon + eta) * T)
    sym = m_plus - (epsilon / eta) * m_minus
    x1 = gam / 4.0 * (sym + 2.0 * half_split)
    x2 = np.exp(1j * lam * T) * math.sin(alpha)
    x3 = gam * m_minus / eta
    x5 = gam / 4.0 * (sym - 2.0 * half_split)
    return x1, x2, x3, x3, x5


#: grid lengths on both sides of numpy's temporary elision threshold: it
#: computes an operation on a temporary of 256 KiB (16,384 complex points)
#: or more in place, and the amplitude bits must hold on either side
GRID_LENGTHS = (4000, 16383, 16384, 20001)


def _same_bytes(got, want) -> bool:
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


def _cached_arrays(cache):
    return [a for entry in cache.values() for a in entry]


@pytest.fixture
def cache(monkeypatch):
    """An empty store of alpha-free terms in place of the shared one."""
    fresh = {}
    monkeypatch.setattr(analytic, "_STORE", fresh)
    return fresh


class TestAmplitudesMatchDerivedConstants:
    """The amplitudes equal the derived-constants reference to the byte, by
    the plain call and by the store's miss and hit."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_same_bytes(self, cache, alpha):
        for n in GRID_LENGTHS:
            T = np.linspace(0.0, 200.0, n)
            for eps in (0.0, 0.5, 1.0, 1.3, 2.0, 3.7, 5.0, 7.77, 100.0):
                want = _reference_psi_amplitudes(alpha, eps, T)
                for cached in (False, True, True):
                    assert _same_bytes(psi_amplitudes(alpha, eps, T, _cached=cached),
                                       want), (n, eps)
                for lam in (2.0, 3.7, 1e6):
                    want = _reference_phi_amplitudes(alpha, eps, lam, T)
                    for cached in (False, True, True):
                        assert _same_bytes(phi_amplitudes(alpha, eps, lam, T,
                                                          _cached=cached),
                                           want), (n, eps, lam)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("eps", [0.0, 0.5, 2.0, 3.0])
def test_rates_are_the_frequencies_of_the_squared_amplitudes(family, eps):
    # every spectral peak of each |x_i|^2 lies within one bin of a listed
    # rate, and every listed rate is such a peak; a Blackman window keeps
    # each sidelobe below 2e-4, and each component here is above 2e-2
    n, dt = 2**16, 0.02
    omega = 2.0 * math.pi * np.fft.rfftfreq(n, dt)
    rates = analytic._rates(family, eps)
    window = np.blackman(n)
    found = []
    for x in amplitudes(family, 0.3, eps, 2.0, np.arange(n) * dt):
        p = np.abs(x) ** 2
        F = np.abs(np.fft.rfft((p - p.mean()) * window)) / window.sum()
        peaks = 1 + np.flatnonzero((F[1:-1] > F[:-2]) & (F[1:-1] >= F[2:]) & (F[1:-1] > 1e-3))
        found.extend(omega[peaks].tolist())
    assert all(min(abs(w - r) for r in rates) <= omega[1] for w in found), (found, rates)
    assert all(min(abs(w - r) for w in found) <= omega[1] for r in rates), (found, rates)


class TestGridCache:
    """Whole-grid evaluations reuse their alpha-free arrays and change no byte.

    Only cos(a) and sin(a) depend on alpha.  A scan over alpha at fixed eps
    (and lam) on one grid therefore reuses everything else: whole-grid
    evaluations take the exponentials and the alpha-free products built
    from them (``_psi_terms``, ``_phi_terms``) from a store keyed by the
    function, the bits of eps (and lam) and the grid's shape and exact
    bytes.  The store holds at most 8 MiB (least recently used evicted
    first; an entry larger than that is not stored), i.e. at most 16 B x 4
    (PSI) or 5 (PHI) arrays per grid point per entry.  Refinement calls on a
    few points never touch it.  Every expression after the terms is the one
    a plain call evaluates, so the amplitudes keep their bytes.
    """

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [2000, 16384])
    def test_second_alpha_same_bytes(self, cache, family, n):
        T = np.linspace(0.0, 40.0, n)
        amplitudes(family, 0.3, 1.3, 2.0, T, _cached=True)
        assert len(cache) == 1
        got = amplitudes(family, 1.1, 1.3, 2.0, T, _cached=True)
        assert len(cache) == 1
        assert _same_bytes(got, amplitudes(family, 1.1, 1.3, 2.0, T))

    @pytest.mark.parametrize("family", list(Family))
    def test_entry_is_keyed_by_grid_bytes(self, cache, family):
        # grids of one length but different values never share an entry
        for T_max in (40.0, 41.0, np.nextafter(41.0, 42.0)):
            T = np.linspace(0.0, T_max, 300)
            assert _same_bytes(amplitudes(family, 0.3, 1.3, 2.0, T, _cached=True),
                               amplitudes(family, 0.3, 1.3, 2.0, T))
        assert len(cache) == 3

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("alpha", [0.0, 0.3, math.pi / 2])
    def test_returned_arrays_are_writable_and_unshared(self, cache, family, alpha):
        T = np.linspace(0.0, 40.0, 500)
        for _ in range(2):   # a miss, then a hit
            xs = amplitudes(family, alpha, 0.5, 2.0, T, _cached=True)
            for x in xs:
                assert x.flags.writeable
                assert not any(np.shares_memory(x, a) for a in _cached_arrays(cache))
        assert _cached_arrays(cache)
        assert not any(a.flags.writeable for a in _cached_arrays(cache))

    def test_refinement_calls_leave_the_cache_alone(self, cache):
        T = np.linspace(0.0, 40.0, 4000)
        for family in Family:
            trace = concurrence_trace(InitialStateSpec(family, 0.3),
                                      ModelParams(epsilon=0.5), T)
            keys = list(cache)
            assert detect_death_intervals(trace) or family is Family.PSI
            max_concurrence(trace)
            for eps in np.linspace(0.0, 5.0, 50):
                amplitudes(family, 0.3, eps, 2.0, T[:33])
            assert list(cache) == keys

    def test_never_holds_more_than_its_bound(self, cache):
        T = np.linspace(0.0, 40.0, 20001)
        for k, eps in enumerate(np.linspace(0.0, 3.0, 12)):
            family = Family.PSI if k % 3 else Family.PHI
            concurrence_trace(InitialStateSpec(family, 0.3),
                              ModelParams(epsilon=eps), T)
            assert sum(a.nbytes for a in _cached_arrays(cache)) <= analytic._STORE_BOUND
        assert len(cache) < 12   # the least recently used were evicted
        before = list(cache)
        huge = np.linspace(0.0, 40.0, analytic._STORE_BOUND // (5 * 16) + 1)
        phi_amplitudes(0.3, 1.0, 2.0, huge, _cached=True)   # larger than the bound
        assert list(cache) == before


    def test_threads_share_it_without_losing_count(self, cache):
        # a store with room for three of five entries, hammered by more
        # threads than cores, keeps its bound and its answers exact
        T = np.linspace(0.0, 40.0, analytic._STORE_BOUND // (3 * 5 * 16))
        want = {eps: amplitudes(Family.PHI, 0.3, eps, 2.0, T) for eps in range(5)}
        errors = []

        def work(seed):
            try:
                for eps in np.random.default_rng(seed).integers(0, 5, 40).tolist():
                    got = amplitudes(Family.PHI, 0.3, eps, 2.0, T, _cached=True)
                    if not _same_bytes(got, want[eps]):
                        errors.append(eps)
            except Exception as exc:   # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sum(a.nbytes for a in _cached_arrays(cache)) <= analytic._STORE_BOUND


class TestPerPointAlpha:
    """With the private ``_at`` each point takes its own alpha, and every
    amplitude has the bytes of the one-alpha call at that point."""

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", (1, 7) + GRID_LENGTHS)
    def test_same_bytes(self, family, n):
        T = np.linspace(0.0, 200.0, n)
        for alphas in ([0.0, 0.3, math.pi / 2, 0.3, 1.1], [0.7]):
            at = np.random.default_rng(n).integers(0, len(alphas), n)
            for eps in (0.0, 0.37, 2.0, 2.9):
                got = amplitudes(family, alphas, eps, 2.0, T, _at=at)
                for j, alpha in enumerate(alphas):
                    on = at == j
                    assert _same_bytes([x[on] for x in got],
                                       amplitudes(family, alpha, eps, 2.0, T[on])), (eps, j)

    @pytest.mark.parametrize("family", list(Family))
    def test_each_alpha_checked(self, family):
        T = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="alpha must lie"):
            amplitudes(family, [0.3, 2.0], 1.0, 2.0, T, _at=np.array([0, 0, 1, 1]))
        with pytest.raises(TypeError, match="alpha"):
            amplitudes(family, [0.3, True], 1.0, 2.0, T, _at=np.array([0, 0, 1, 1]))


class TestPsiAmplitudes:
    def test_time_zero(self):
        for a in ALPHAS:
            x1, x2, x3 = psi_amplitudes(a, 1.3, 0.0)
            assert complex(x1) == pytest.approx(math.cos(a), abs=1e-14)
            assert complex(x2) == pytest.approx(math.sin(a), abs=1e-14)
            assert complex(x3) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_normalized(self, alpha, eps):
        T = np.linspace(0, 25, 400)
        x1, x2, x3 = psi_amplitudes(alpha, eps, T)
        norm = np.abs(x1) ** 2 + np.abs(x2) ** 2 + np.abs(x3) ** 2
        np.testing.assert_allclose(norm, 1.0, atol=1e-12)

    def test_half_period_point(self):
        # eps = 0, alpha = pi/4, kappa*T = pi: everything sits on |gg11>
        T = math.pi / math.sqrt(8)
        x1, x2, x3 = psi_amplitudes(math.pi / 4, 0.0, T)
        assert abs(complex(x1)) == pytest.approx(0.0, abs=1e-12)
        assert abs(complex(x2)) == pytest.approx(0.0, abs=1e-12)
        assert abs(complex(x3)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_x3_periodic_in_kappa(self, eps):
        # |x3| is exactly periodic with period 2*pi/kappa for every eps
        alpha = math.pi / 8
        kappa = math.sqrt(8 + eps**2)
        T = np.linspace(0, 5, 50)
        _, _, a3 = psi_amplitudes(alpha, eps, T)
        _, _, b3 = psi_amplitudes(alpha, eps, T + 2 * math.pi / kappa)
        np.testing.assert_allclose(np.abs(a3), np.abs(b3), atol=1e-12)

    def test_amplitudes_swap_after_one_kappa_period(self):
        # at eps = 0 a shift by 2*pi/kappa exchanges |x1| and |x2|, so the
        # concurrence 2|x1 x2*| is periodic while |x1| alone is not
        alpha = math.pi / 8
        kappa = math.sqrt(8)
        T = np.linspace(0, 5, 50)
        a1, a2, _ = psi_amplitudes(alpha, 0.0, T)
        b1, b2, _ = psi_amplitudes(alpha, 0.0, T + 2 * math.pi / kappa)
        np.testing.assert_allclose(np.abs(b1), np.abs(a2), atol=1e-12)
        np.testing.assert_allclose(np.abs(b2), np.abs(a1), atol=1e-12)
        np.testing.assert_allclose(np.abs(b1 * np.conj(b2)),
                                   np.abs(a1 * np.conj(a2)), atol=1e-12)

    def test_cross_term_real_at_eps_zero(self):
        T = np.linspace(0, 20, 500)
        for alpha in ALPHAS:
            x1, x2, _ = psi_amplitudes(alpha, 0.0, T)
            np.testing.assert_allclose(np.imag(x1 * np.conj(x2)), 0.0, atol=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            psi_amplitudes(-0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            psi_amplitudes(0.3, -1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
class TestNonFiniteInputRejected:
    """A non-finite epsilon or lam is rejected by name, not turned into NaN
    amplitudes."""

    def test_psi_epsilon(self, bad):
        with pytest.raises(ValueError, match=f"^epsilon must be finite, got {bad}$"):
            psi_amplitudes(0.3, bad, 1.0)

    def test_phi_epsilon(self, bad):
        with pytest.raises(ValueError, match=f"^epsilon must be finite, got {bad}$"):
            phi_amplitudes(0.3, bad, 2.0, 1.0)

    def test_phi_lam(self, bad):
        with pytest.raises(ValueError, match=f"^lam must be finite, got {bad}$"):
            phi_amplitudes(0.3, 1.0, bad, 1.0)


class TestPhiAmplitudes:
    def test_time_zero(self):
        for a in ALPHAS:
            x1, x2, x3, x4, x5 = phi_amplitudes(a, 1.3, 2.0, 0.0)
            assert complex(x1) == pytest.approx(math.cos(a), abs=1e-14)
            assert complex(x2) == pytest.approx(math.sin(a), abs=1e-14)
            for x in (x3, x4, x5):
                assert abs(complex(x)) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_normalized(self, alpha, eps):
        T = np.linspace(0, 25, 400)
        xs = phi_amplitudes(alpha, eps, 2.0, T)
        norm = sum(np.abs(x) ** 2 for x in xs[:2]) + sum(np.abs(x) ** 2 for x in xs[2:])
        np.testing.assert_allclose(norm, 1.0, atol=1e-12)

    def test_x3_equals_x4(self):
        T = np.linspace(0, 20, 100)
        xs = phi_amplitudes(0.4, 1.7, 2.0, T)
        np.testing.assert_allclose(xs[2], xs[3], atol=0.0)

    @pytest.mark.parametrize("kwargs", [{}, {"_cached": True}],
                             ids=["uncached", "cached"])
    def test_x4_is_the_x3_array(self, kwargs):
        # analysis._branch computes |x3|^2 once for rho_22 and rho_33
        xs = phi_amplitudes(0.4, 1.7, 2.0, np.linspace(0, 20, 100), **kwargs)
        assert xs[3] is xs[2]
        xs = phi_amplitudes([0.4, 0.9], 1.7, 2.0, np.array([1.0, 2.0]), _at=[0, 1])
        assert xs[3] is xs[2]

    def test_eps_zero_magnitudes(self):
        # |x1| = cos(a) cos^2 T, |x5| = cos(a) sin^2 T, |x3| = cos(a)|sin 2T|/2
        alpha = math.pi / 3
        T = np.linspace(0, 10, 200)
        x1, _, x3, _, x5 = phi_amplitudes(alpha, 0.0, 2.0, T)
        c = math.cos(alpha)
        np.testing.assert_allclose(np.abs(x1), c * np.cos(T) ** 2, atol=1e-12)
        np.testing.assert_allclose(np.abs(x5), c * np.sin(T) ** 2, atol=1e-12)
        np.testing.assert_allclose(np.abs(x3), c * np.abs(np.sin(2 * T)) / 2, atol=1e-12)

    def test_quarter_period_point(self):
        x1, x2, _, _, x5 = phi_amplitudes(math.pi / 3, 0.0, 2.0, math.pi / 2)
        assert abs(complex(x1)) == pytest.approx(0.0, abs=1e-12)
        assert abs(complex(x2)) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert abs(complex(x5)) == pytest.approx(0.5, abs=1e-12)

    def test_lam_only_shifts_phases(self):
        T = np.linspace(0, 15, 150)
        a = phi_amplitudes(0.5, 1.1, 2.0, T)
        b = phi_amplitudes(0.5, 1.1, 7.3, T)
        for xa, xb in zip(a, b):
            np.testing.assert_allclose(np.abs(xa), np.abs(xb), atol=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("eps", [0.0, 2.0])
    @pytest.mark.parametrize("alpha", [math.pi / 8, math.pi / 4, math.pi / 3])
    def test_psi_states_match_propagation(self, alpha, eps):
        params = ModelParams(epsilon=eps)
        basis = params.basis
        decomp = params.decomposition
        spec = InitialStateSpec(Family.PSI, alpha)
        psi0 = initial_state(spec, basis)
        T_grid = np.linspace(0, 12, 25)
        for T, got in zip(T_grid, closed_form_states(spec, params, T_grid)):
            np.testing.assert_allclose(got, evolve(psi0, decomp, T), atol=1e-10)

    @pytest.mark.parametrize("eps", [0.0, 2.0])
    @pytest.mark.parametrize("alpha", [math.pi / 8, math.pi / 4, math.pi / 3])
    def test_phi_states_match_propagation(self, alpha, eps):
        params = ModelParams(epsilon=eps)
        basis = params.basis
        decomp = params.decomposition
        spec = InitialStateSpec(Family.PHI, alpha)
        psi0 = initial_state(spec, basis)
        T_grid = np.linspace(0, 12, 25)
        for T, got in zip(T_grid, closed_form_states(spec, params, T_grid)):
            np.testing.assert_allclose(got, evolve(psi0, decomp, T), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0, math.pi / 2), eps=st.floats(0, 5), T=st.floats(0, 30))
    def test_psi_fidelity_property(self, alpha, eps, T):
        params = ModelParams(epsilon=eps)
        basis = params.basis
        decomp = params.decomposition
        spec = InitialStateSpec(Family.PSI, alpha)
        expected = evolve(initial_state(spec, basis), decomp, T)
        (got,) = closed_form_states(spec, params, [T])
        assert abs(np.vdot(got, expected)) >= 1 - 1e-9


class TestClosedFormStates:
    def test_psi_placement(self):
        basis = Basis(2)
        spec = InitialStateSpec(Family.PSI, math.pi / 8)
        (psi,) = closed_form_states(spec, ModelParams(), [0.0])
        assert psi[basis.index("e", "g", 0, 0)] == pytest.approx(math.cos(math.pi / 8))
        assert psi[basis.index("g", "e", 0, 0)] == pytest.approx(math.sin(math.pi / 8))
        assert np.count_nonzero(psi) == 2
