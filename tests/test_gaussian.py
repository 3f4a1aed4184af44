"""Second-moment flow: drift/diffusion, fixed points, regime signatures."""
import numpy as np
import pytest

from ptdimer import (
    OdeProblem,
    catalog_config,
    count_prominent_extrema,
    dimer_mode_eigenvalues,
    evolve_moments,
    fit_decay_rate,
    integrate_adaptive,
    steady_state_moments,
    thermal_moment_state,
    thermal_occupation,
)
from ptdimer.scenarios import run_engine
from ptdimer.gaussian import check_moment_state, diffusion_matrix, drift_matrix
from conftest import GAMMA_A, GAMMA_B, G_BALANCED, G_STRONG, G_WEAK, OMEGA_A, \
    OMEGA_B, ROOM_T, make_params, moment_flow_rhs, moment_rhs


def _random_moment_state(rng, scale=1.0):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    n = a @ a.conj().T
    return n * (scale / np.abs(n).max())


class TestDriftAndDiffusion:
    def test_drift_entries(self):
        m = drift_matrix(make_params())
        assert m[0, 0] == OMEGA_B - 0.5j * GAMMA_A
        assert m[1, 1] == OMEGA_B - 0.5j * GAMMA_B
        assert m[0, 1] == m[1, 0] == G_STRONG

    def test_drift_spectrum_matches_mode_eigenvalues(self):
        for g in (G_STRONG, G_WEAK):
            p = make_params(g=g)
            lam = sorted(dimer_mode_eigenvalues(p), key=lambda w: (w.real, w.imag))
            ev = sorted(np.linalg.eigvals(drift_matrix(p)),
                        key=lambda w: (w.real, w.imag))
            for a, b in zip(lam, ev):
                assert abs(a - b) < 1e-12 * abs(a)

    def test_diffusion_cold_and_room(self):
        assert np.all(diffusion_matrix(make_params()) == 0.0)
        d = diffusion_matrix(make_params(temperature=ROOM_T))
        assert d[0, 0] == pytest.approx(1.2258e9, rel=1e-2)
        assert d[1, 1] == pytest.approx(7.2377e8, rel=1e-2)
        assert d[0, 1] == d[1, 0] == 0.0

    def test_diffusion_monotone_in_temperature(self):
        cold = diffusion_matrix(make_params(temperature=200.0))
        hot = diffusion_matrix(make_params(temperature=350.0))
        assert hot[0, 0] > cold[0, 0]
        assert hot[1, 1] > cold[1, 1]

    def test_thermal_moment_state_room(self):
        n = thermal_moment_state(make_params(), ROOM_T)
        assert n[0, 0].real == pytest.approx(3760.25, rel=1e-2)
        assert n[1, 1].real == pytest.approx(2.41256e6, rel=1e-2)
        assert n[0, 1] == 0.0


class TestMomentFlowRhs:
    def test_matches_scalar_moment_system(self):
        rng = np.random.default_rng(31)
        for temp in (0.0, ROOM_T):
            p = make_params(temperature=temp)
            m = drift_matrix(p)
            d = diffusion_matrix(p)
            for _ in range(50):
                n = _random_moment_state(rng, scale=2.5)
                dn = moment_flow_rhs(n, m, d)
                dx, dy, dz = moment_rhs(
                    np.array([n[0, 0], n[1, 1], n[0, 1]]), p)
                scale = max(np.abs(dn).max(), 1.0)
                assert abs(dn[0, 0] - dx) < 1e-13 * scale
                assert abs(dn[1, 1] - dy) < 1e-13 * scale
                assert abs(dn[0, 1] - dz) < 1e-13 * scale

    def test_rotation_shift_is_neutral(self):
        rng = np.random.default_rng(7)
        p = make_params(temperature=ROOM_T)
        m = drift_matrix(p)
        d = diffusion_matrix(p)
        n = _random_moment_state(rng, scale=1e4)
        shifted = moment_flow_rhs(n, m - OMEGA_B * np.eye(2), d)
        scale = np.abs(shifted).max()
        assert np.abs(moment_flow_rhs(n, m, d) - shifted).max() < 1e-12 * scale

    def test_preserves_hermiticity(self):
        rng = np.random.default_rng(11)
        p = make_params(temperature=ROOM_T)
        m = drift_matrix(p)
        d = diffusion_matrix(p)
        n = _random_moment_state(rng, scale=1e3)
        dn = moment_flow_rhs(n, m, d)
        assert np.abs(dn - dn.conj().T).max() < 1e-12 * np.abs(dn).max()


class TestCheckMomentState:
    def test_valid_passes(self):
        out = check_moment_state(np.array([[2.0, 1j], [-1j, 3.0]]))
        assert out.dtype == complex

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            check_moment_state(np.eye(3))

    def test_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            check_moment_state(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            check_moment_state(np.diag([-1.0, 1.0]))

    def test_rounding_level_asymmetry_tolerated(self):
        n = np.array([[2.0, 0.5 + 1e-13j], [0.5, 3.0]])
        check_moment_state(n)


class TestExactPath:
    def test_catalog_run_takes_one_exponential(self):
        cfg = catalog_config("fig6b")
        stats = run_engine("gaussian", cfg).stats
        assert stats.exponentials == 1
        assert stats.rejected == 0
        assert stats.steps == cfg.samples - 1
        # (vec N0, s) has five entries, and L is read in one rhs call
        assert (stats.dimension, stats.rhs_evaluations) == (5, 1)

    def test_uncoupled_modes_relax_on_their_own(self):
        # at g = 0 nothing feeds N01: it evolves from an exact 0 and stays 0
        p = make_params(g=0.0, temperature=ROOM_T)
        n0 = np.diag([2.0, 5.0])
        times = np.linspace(0.0, 3.0 / GAMMA_A, 200)
        traj = evolve_moments(n0, p, times)
        assert np.all(traj.coherence == 0.0)
        for x, omega, gamma, n in ((traj.n_a_raw, OMEGA_A, GAMMA_A, 2.0),
                                   (traj.n_b_raw, OMEGA_B, GAMMA_B, 5.0)):
            nbar = thermal_occupation(omega, ROOM_T)
            # nbar + (n - nbar) e^(-gamma t), without the cancellation of
            # the two large terms at early times
            ref = n - (nbar - n) * np.expm1(-gamma * times)
            assert np.all(np.abs(x - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("case", ["ep", "geometric", "undamped"])
    def test_matches_tight_adaptive_reference(self, case):
        pair_rate = 0.5 * (GAMMA_A + GAMMA_B)
        p = {"ep": make_params(g=G_BALANCED, temperature=ROOM_T),
             "geometric": make_params(temperature=ROOM_T),
             "undamped": make_params(gamma_a=0.0, gamma_b=0.0,
                                     temperature=ROOM_T)}[case]
        times = np.geomspace(1e-3 / pair_rate, 10.0 / pair_rate, 80) \
            if case == "geometric" else np.linspace(0.0, 5.0 / pair_rate, 300)
        n0 = _random_moment_state(np.random.default_rng(5), scale=3e5)
        traj = evolve_moments(n0, p, times)
        m = drift_matrix(p)
        d = diffusion_matrix(p)
        ref = integrate_adaptive(OdeProblem(
            lambda t, y: moment_flow_rhs(y.reshape(2, 2), m, d).ravel(),
            n0.ravel(), (0.0, times[-1]), times, rtol=1e-12, atol=1e-6))
        # a geometric grid has a distinct step onto every sample
        assert traj.stats.exponentials == (80 if case == "geometric" else 1)
        exact = np.stack([traj.n_a_raw, traj.coherence, traj.n_b_raw], axis=1)
        ref = ref.states[:, [0, 1, 3]]
        assert np.abs(exact - ref).max() < 1e-10 * np.abs(ref).max()


class TestRegimeSignatures:
    def _run(self, g, horizon_rate, samples=2000):
        p = make_params(g=g, temperature=ROOM_T)
        n0 = thermal_moment_state(p, ROOM_T)
        times = np.linspace(0.0, 5.0 / horizon_rate, samples)
        return p, times, evolve_moments(n0, p, times)

    def test_oscillating_phase_shows_beats(self):
        pair_rate = 0.5 * (GAMMA_A + GAMMA_B)
        _, _, traj = self._run(G_STRONG, pair_rate)
        assert count_prominent_extrema(traj.n_b_raw) >= 3

    def test_critical_phase_is_monotone(self):
        pair_rate = 0.5 * (GAMMA_A + GAMMA_B)
        _, _, traj = self._run(G_BALANCED, pair_rate)
        assert count_prominent_extrema(traj.n_b_raw) == 0

    def test_overdamped_phase_tail_rate(self):
        contrast = 0.25 * (GAMMA_A - GAMMA_B)
        slow = 2.0 * (0.25 * (GAMMA_A + GAMMA_B)
                      - np.sqrt(contrast ** 2 - G_WEAK ** 2))
        p, times, traj = self._run(G_WEAK, slow)
        n_ss = steady_state_moments(p)[1, 1].real
        fitted = fit_decay_rate(times, traj.n_b_raw, asymptote=n_ss)
        assert fitted == pytest.approx(slow, rel=0.05)

    def test_gaussian_weight_is_unity(self):
        pair_rate = 0.5 * (GAMMA_A + GAMMA_B)
        _, _, traj = self._run(G_STRONG, pair_rate, samples=64)
        assert np.all(traj.weight == 1.0)


class TestSteadyState:
    def test_uncoupled_is_thermal(self):
        p = make_params(g=0.0, temperature=ROOM_T)
        n_ss = steady_state_moments(p)
        ref = thermal_moment_state(p, ROOM_T)
        assert np.abs(n_ss - ref).max() < 1e-10 * np.abs(ref).max()

    def test_cold_baths_empty(self):
        n_ss = steady_state_moments(make_params())
        assert np.abs(n_ss).max() < 1e-12

    def test_fixed_point_residual(self):
        p = make_params(temperature=ROOM_T)
        n_ss = steady_state_moments(p)
        d = diffusion_matrix(p)
        res = moment_flow_rhs(n_ss, drift_matrix(p), d)
        assert np.abs(res).max() < 1e-12 * np.abs(d).max()

    def test_steady_state_is_physical(self):
        n_ss = steady_state_moments(make_params(temperature=ROOM_T))
        check_moment_state(n_ss)

    def test_random_starts_converge(self):
        p = make_params(temperature=ROOM_T)
        n_ss = steady_state_moments(p)
        rate = 0.5 * (GAMMA_A + GAMMA_B)
        times = np.linspace(0.0, 24.0 / rate, 400)
        rng = np.random.default_rng(17)
        for _ in range(2):
            n0 = _random_moment_state(rng, scale=3e5)
            traj = evolve_moments(n0, p, times)
            final = np.array([[traj.n_a_raw[-1], traj.coherence[-1]],
                              [np.conj(traj.coherence[-1]), traj.n_b_raw[-1]]])
            rel = np.abs(final - n_ss).max() / np.abs(n_ss).max()
            assert rel < 1e-6

    def test_undamped_rejected(self):
        with pytest.raises(ValueError, match="steady state"):
            steady_state_moments(make_params(gamma_a=0.0, gamma_b=0.0,
                                             temperature=ROOM_T))

    def test_undamped_decoupled_mode_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            steady_state_moments(make_params(gamma_a=0.0, g=0.0,
                                             temperature=ROOM_T))


class TestExtremaCounter:
    def test_sine_periods(self):
        t = np.linspace(0.0, 3 * 2 * np.pi, 1500)
        assert count_prominent_extrema(np.sin(t)) == 6

    def test_monotone_and_constant(self):
        t = np.linspace(0.0, 4.0, 300)
        assert count_prominent_extrema(np.exp(-t)) == 0
        assert count_prominent_extrema(np.ones(50)) == 0
        assert count_prominent_extrema([1.0, 2.0]) == 0

    def test_small_ripple_filtered(self):
        # the ripple wins over the decaying slope only in the tail, giving
        # real turning points whose swing stays under the default floor
        t = np.linspace(0.0, 8.0, 4000)
        v = np.exp(-t) + 3e-5 * np.sin(40 * t)
        assert count_prominent_extrema(v) == 0
        assert count_prominent_extrema(v, rel_prominence=1e-8) > 0

    def test_plateau_counts_once(self):
        assert count_prominent_extrema([0.0, 1.0, 1.0, 0.0]) == 1


class TestDecayFit:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 5.0, 200)
        assert fit_decay_rate(t, 3e-2 * np.exp(-3.0 * t)) == pytest.approx(
            3.0, rel=1e-10)

    def test_with_asymptote(self):
        t = np.linspace(0.0, 6.0, 200)
        v = 0.7 + 2.0 * np.exp(-1.5 * t)
        assert fit_decay_rate(t, v, asymptote=0.7) == pytest.approx(
            1.5, rel=1e-10)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="fit window"):
            fit_decay_rate([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
