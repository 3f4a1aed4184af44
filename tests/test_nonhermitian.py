"""Post-selected evolution: norms, closed forms, quartic ODE residuals."""
import numpy as np
import pytest
from scipy.linalg import expm

from ptdimer import (
    FockSpace,
    QuantumState,
    catalog_config,
    evolve_density,
    evolve_nonhermitian,
    fock_product_state,
    lossy_hamiltonian,
    mode_annihilator,
    noon_state,
    occupation_ode_residual,
    renormalized_observables,
)
from ptdimer.scenarios import _initial_state, run_engine
from conftest import GAMMA_A, GAMMA_B, G_BALANCED, G_STRONG, G_WEAK, ROOM_T, \
    make_params, random_density, sampled_states


def _single_excitation_block(g):
    # amplitudes ordered (|1,0>, |0,1>) with the fast rotation removed
    return np.array([[-0.5j * GAMMA_A, g], [g, -0.5j * GAMMA_B]])


class TestSingleExcitation:
    @pytest.mark.parametrize("g", [G_STRONG, G_BALANCED, G_WEAK],
                             ids=["oscillating", "critical", "overdamped"])
    def test_amplitudes_match_matrix_exponential(self, g):
        space = FockSpace(3, 2)
        p = make_params(g=g)
        times = np.linspace(0.0, 5.0 / GAMMA_A, 60)
        (idx,), psis = sampled_states(fock_product_state(1, 0, space), p,
                                      times, jumps=False, rtol=1e-11,
                                      atol=1e-14)
        h2 = _single_excitation_block(g)
        # only |0,1> and |1,0> evolve: |0,0> stays exactly 0
        assert np.array_equal(idx, [space.index(0, 1), space.index(1, 0)])
        for t, (amp_01, amp_10) in zip(times, psis):
            ref = expm(-1j * h2 * t) @ np.array([1.0, 0.0])
            assert abs(amp_10 - ref[0]) < 1e-9
            assert abs(amp_01 - ref[1]) < 1e-9

    def test_critical_coupling_secular_growth(self):
        # at the critical coupling the propagator is I - i t H on the
        # traceless part, so the transferred amplitude grows linearly in t
        # under the overall exp(-(gamma_a+gamma_b) t / 4) envelope
        space = FockSpace(3, 2)
        p = make_params(g=G_BALANCED)
        contrast = 0.25 * (GAMMA_A - GAMMA_B)
        times = np.linspace(0.0, 5.0 / GAMMA_A, 60)
        (idx,), psis = sampled_states(fock_product_state(1, 0, space), p,
                                      times, jumps=False, rtol=1e-11,
                                      atol=1e-14)
        assert np.array_equal(idx, [space.index(0, 1), space.index(1, 0)])
        for t, (amp_01, amp_10) in zip(times, psis):
            envelope = np.exp(-0.25 * (GAMMA_A + GAMMA_B) * t)
            assert abs(amp_10 - envelope * (1.0 - contrast * t)) < 1e-8
            assert abs(amp_01 - envelope * (-1j * contrast * t)) < 1e-8

    def test_renormalized_occupations_sum_to_one(self):
        space = FockSpace(3, 2)
        p = make_params()
        times = np.linspace(0.0, 5.0 / GAMMA_A, 200)
        traj = evolve_nonhermitian(fock_product_state(1, 0, space), p, times)
        assert np.abs(traj.n_a + traj.n_b - 1.0).max() < 1e-12


class TestUncoupledDecay:
    def test_norm_is_pure_exponential(self):
        space = FockSpace(3, 2)
        p = make_params(g=0.0)
        times = np.linspace(0.0, 5.0 / GAMMA_A, 100)
        traj = evolve_nonhermitian(fock_product_state(1, 0, space), p, times,
                                   rtol=1e-11, atol=1e-14)
        assert np.abs(traj.weight / np.exp(-GAMMA_A * times) - 1.0).max() < 1e-8
        assert np.abs(traj.n_a - 1.0).max() < 1e-12
        assert np.abs(traj.n_b).max() < 1e-12

    def test_norm_monotone_nonincreasing(self):
        space = FockSpace(4, 4)
        p = make_params()
        times = np.linspace(0.0, 5.0 / GAMMA_A, 400)
        traj = evolve_nonhermitian(noon_state(2, space), p, times)
        w = traj.weight
        assert np.all(w[1:] <= w[:-1] * (1.0 + 1e-12))


class TestBathTemperature:
    def test_room_temperature_params_evolve_as_at_zero(self):
        # H_L holds the zero-temperature losses, so the bath of the params
        # does not enter the post-selected evolution
        space = FockSpace(4, 4)
        times = np.linspace(0.0, 3.0 / GAMMA_A, 80)
        state = fock_product_state(2, 1, space)
        cold, room = (evolve_nonhermitian(state, make_params(temperature=t),
                                          times) for t in (0.0, ROOM_T))
        for name in ("times", "n_a_raw", "n_b_raw", "coherence", "weight",
                     "n_a", "n_b", "g1", "quartic_a", "quartic_b"):
            assert np.array_equal(getattr(cold, name), getattr(room, name)), \
                name


class TestMixedStates:
    def test_projector_matches_pure_evolution(self):
        space = FockSpace(4, 4)
        p = make_params()
        times = np.linspace(0.0, 3.0 / GAMMA_A, 80)
        psi = noon_state(2, space)
        pure = evolve_nonhermitian(psi, p, times, rtol=1e-11, atol=1e-14)
        mixed = evolve_nonhermitian(QuantumState(space, psi.density()), p,
                                    times, rtol=1e-11, atol=1e-14)
        assert np.abs(pure.weight - mixed.weight).max() < 1e-9
        assert np.abs(pure.n_a_raw - mixed.n_a_raw).max() < 1e-9
        assert np.abs(pure.g1 - mixed.g1).max() < 1e-9


class TestLateTimeAccuracy:
    """The renormalized columns of catalog runs where the squared norm has
    fallen to 4e-6-8e-6, against exp(-i H_L t) psi0 on the start's
    excitation-number slice (scipy's expm of the dense H_L).

    Against a 40-digit mpmath reference, the last ten samples of fig2d are
    1.5e-14 off in the engine and 1.4e-14 in this reference; they are
    2.4e-14 apart. The same runs evolved as the projector psi psi^dag
    (``evolve_nonhermitian`` on ``psi.density()``) are 9.2e-14 (fig2a) to
    2.5e-13 (fig2d) away from this reference, so the bound holds only for
    the pure-vector path.
    """

    @pytest.mark.parametrize("sid", ["fig2a", "fig2d", "fig4d"])
    def test_renormalized_tail_matches_expm(self, sid):
        cfg = catalog_config(sid)
        space = FockSpace(*cfg.mode_dims())
        psi0 = _initial_state(cfg, space).data
        n_a, n_b = space.number_diagonals()
        quanta = n_a + n_b
        keep = np.flatnonzero(quanta == quanta[np.argmax(np.abs(psi0))])
        h = lossy_hamiltonian(cfg.system_params(), space)[np.ix_(keep, keep)]
        hop = (mode_annihilator("a", space).conj().T
               @ mode_annihilator("b", space))[np.ix_(keep, keep)]
        traj = run_engine("nonhermitian", cfg)
        assert 4e-6 < traj.weight[-1] < traj.weight[-10] < 8e-6
        for i in range(len(traj.times) - 10, len(traj.times)):
            psi = expm(-1j * h * traj.times[i]) @ psi0[keep]
            pop = np.abs(psi) ** 2
            total = pop @ quanta[keep]
            assert abs(traj.n_a[i] - pop @ n_a[keep] / total) < 4e-14
            assert abs(traj.n_b[i] - pop @ n_b[keep] / total) < 4e-14
            assert abs(traj.g1[i] - psi.conj() @ hop @ psi / total) < 4e-14


class TestRenormalizedObservables:
    def test_single_photon(self):
        space = FockSpace(3, 2)
        n_a, n_b, g1 = renormalized_observables(fock_product_state(1, 0, space))
        assert (n_a, n_b, g1) == (1.0, 0.0, 0.0)

    def test_single_photon_superposition(self):
        space = FockSpace(3, 3)
        n_a, n_b, g1 = renormalized_observables(noon_state(1, space))
        assert n_a == pytest.approx(0.5, rel=1e-14)
        assert n_b == pytest.approx(0.5, rel=1e-14)
        assert g1 == pytest.approx(0.5 + 0j, rel=1e-14)

    def test_scale_invariance(self):
        space = FockSpace(4, 4)
        psi = noon_state(2, space)
        scaled = QuantumState(space, 0.3 * psi.data)
        assert renormalized_observables(psi) == pytest.approx(
            renormalized_observables(scaled), rel=1e-13)

    def test_vacuum_rejected(self):
        space = FockSpace(2, 2)
        vacuum = fock_product_state(0, 0, space)
        # as a vector and as a density matrix
        for state in (vacuum, QuantumState(space, vacuum.density())):
            with pytest.raises(ValueError, match="undefined"):
                renormalized_observables(state)

    def test_density_matrix_matches_dense_traces(self):
        # unequal mode dimensions catch a row/column swap in <c^dag d>
        space = FockSpace(3, 4)
        rho = random_density(np.random.default_rng(11), space.dim)
        c = mode_annihilator("a", space)
        d = mode_annihilator("b", space)
        x, y, z = (np.trace(op @ rho) for op in
                   (c.conj().T @ c, d.conj().T @ d, c.conj().T @ d))
        total = (x + y).real
        n_a, n_b, g1 = renormalized_observables(QuantumState(space, rho))
        assert n_a == pytest.approx(x.real / total, rel=1e-13)
        assert n_b == pytest.approx(y.real / total, rel=1e-13)
        assert g1 == pytest.approx(z / total, rel=1e-13)


class TestNormUnderflow:
    def test_trajectory_truncated_with_warning(self):
        # push far past the 1e-300 norm floor; atol must drop with the
        # solution or the controller would coast on absolute error alone
        space = FockSpace(3, 2)
        p = make_params(g=0.0)
        times = np.linspace(0.0, 1000.0 / GAMMA_A, 30)
        traj = evolve_nonhermitian(fock_product_state(1, 0, space), p, times,
                                   atol=1e-160)
        kept = len(traj.n_a_raw)
        assert 0 < kept < 30
        assert len(traj.times) == kept
        assert any("underflow" in w for w in traj.warnings)
        assert traj.weight.min() >= 1e-300

    def test_warning_order(self):
        # |1,0> starts on the top level of FockSpace(2, 2): the underflow
        # warning comes first, then the leakage at t = 0 read on the kept
        # prefix, then the trajectory's own loss-of-significance check
        space = FockSpace(2, 2)
        psi = np.zeros(space.dim, dtype=complex)
        psi[space.index(1, 0)] = 1.0
        times = np.linspace(0.0, 1000.0 / GAMMA_A, 30)
        traj = evolve_nonhermitian(QuantumState(space, psi),
                                   make_params(g=0.0), times, atol=1e-160)
        kept = len(traj.times)
        total = traj.n_a_raw + traj.n_b_raw
        low = np.flatnonzero((total > 0) & (total < 1e-160))
        assert 0 < kept < 30 and low.size
        assert traj.warnings == [
            f"norm underflow at t={times[kept]:.6e}; trajectory truncated",
            "truncation leakage: top-level population 1.000e+00 at "
            "t=0.000000e+00",
            f"loss of significance: 0 < <N> < atol=1.0e-160 at {low.size} "
            f"samples, first at t={times[low[0]]:.6e}"]


class TestTruncationLeakage:
    @pytest.mark.parametrize("evolve", [evolve_density, evolve_nonhermitian],
                             ids=["lindblad", "nonhermitian"])
    def test_top_level_population_warns(self, evolve):
        # on FockSpace(2, 2) the level n_a = 1 is already the top one
        space = FockSpace(2, 2)
        rho = np.zeros((space.dim, space.dim), dtype=complex)
        rho[space.index(1, 0), space.index(1, 0)] = 1.0
        times = np.linspace(0.0, 1.0 / GAMMA_A, 5)
        traj = evolve(QuantumState(space, rho), make_params(), times)
        assert any("truncation leakage" in w for w in traj.warnings)


class TestLossOfSignificance:
    @pytest.mark.parametrize("evolve", [evolve_density, evolve_nonhermitian],
                             ids=["lindblad", "nonhermitian"])
    def test_occupation_below_atol_warns(self, evolve):
        # <N> decays like exp(-(gamma_a + gamma_b) t / 2): below 1e-12 past
        # t ~ 1.7e-4 s, where the renormalized ratios are integration noise
        space = FockSpace(3, 3)
        times = np.linspace(0.0, 4e-4, 41)
        traj = evolve(fock_product_state(1, 0, space), make_params(), times)
        total = traj.n_a_raw + traj.n_b_raw
        low = np.flatnonzero((total > 0) & (total < 1e-12))
        assert low.size
        expected = (f"loss of significance: 0 < <N> < atol=1.0e-12 at "
                    f"{low.size} samples, first at t={times[low[0]]:.6e}")
        assert expected in traj.warnings

    @pytest.mark.parametrize("evolve", [evolve_density, evolve_nonhermitian],
                             ids=["lindblad", "nonhermitian"])
    def test_resolved_decay_does_not_warn(self, evolve):
        space = FockSpace(3, 3)
        times = np.linspace(0.0, 5.0 / GAMMA_A, 41)
        traj = evolve(fock_product_state(1, 0, space), make_params(), times)
        assert traj.warnings == []


class TestOccupationOdeResidual:
    def test_single_photon(self):
        space = FockSpace(3, 2)
        p = make_params()
        times = np.linspace(0.0, 5.0 / GAMMA_A, 4000)
        traj = evolve_nonhermitian(fock_product_state(1, 0, space), p, times)
        assert occupation_ode_residual(traj, p) < 1e-6

    def test_two_one_fock(self):
        space = FockSpace(5, 5)
        p = make_params()
        times = np.linspace(0.0, 5.0 / GAMMA_A, 4000)
        traj = evolve_nonhermitian(fock_product_state(2, 1, space), p, times)
        assert occupation_ode_residual(traj, p) < 1e-5

    def test_uncoupled(self):
        space = FockSpace(5, 5)
        p = make_params(g=0.0)
        times = np.linspace(0.0, 5.0 / GAMMA_A, 12000)
        traj = evolve_nonhermitian(fock_product_state(2, 1, space), p, times)
        assert occupation_ode_residual(traj, p) < 1e-6

    def test_needs_quartics(self):
        space = FockSpace(3, 2)
        p = make_params()
        times = np.linspace(0.0, 1.0 / GAMMA_A, 50)
        traj = evolve_density(fock_product_state(1, 0, space), p, times)
        with pytest.raises(ValueError, match="quartic"):
            occupation_ode_residual(traj, p)

    def test_needs_samples(self):
        space = FockSpace(3, 2)
        p = make_params()
        times = np.linspace(0.0, 1.0 / GAMMA_A, 4)
        traj = evolve_nonhermitian(fock_product_state(1, 0, space), p, times)
        with pytest.raises(ValueError, match="sampling"):
            occupation_ode_residual(traj, p)
