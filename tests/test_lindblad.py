"""Master-equation engine: channels, dissipator identities, evolution."""
import inspect
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from ptdimer import (
    FockSpace,
    OdeProblem,
    QuantumState,
    beam_splitter_hamiltonian,
    evolve_density,
    evolve_moments,
    fock_product_state,
    integrate_adaptive,
    ladder,
    lossy_hamiltonian,
    mode_annihilator,
    moment_closure_residual,
    noon_state,
    thermal_channels,
    thermal_density_matrix,
    thermal_occupation,
    evolve_nonhermitian,
    truncation_dim,
)
from ptdimer.lindblad import liouville_block
from ptdimer.observables import ObservableOps, hermitian_coordinates
from ptdimer.scenarios import _initial_state, catalog_config, \
    parse_config, run_engine
from conftest import GAMMA_A, GAMMA_B, OMEGA_A, OMEGA_B, ROOM_T, \
    dissipator_apply, hermitian_values, lindblad_rhs, make_params, \
    moment_rhs, random_density, sampled_states


class TestThermalChannels:
    def test_zero_temperature_pair(self):
        chans = thermal_channels(make_params())
        assert [(ch.move, ch.rate) for ch in chans] \
            == [((-1, 0), GAMMA_A), ((0, -1), GAMMA_B)]

    def test_room_temperature_quadruple(self):
        p = make_params(temperature=ROOM_T)
        chans = thermal_channels(p)
        assert [ch.move for ch in chans] == [(-1, 0), (1, 0), (0, -1), (0, 1)]
        nb_a = thermal_occupation(OMEGA_A, ROOM_T)
        nb_b = thermal_occupation(OMEGA_B, ROOM_T)
        expected = [GAMMA_A * (nb_a + 1), GAMMA_A * nb_a,
                    GAMMA_B * (nb_b + 1), GAMMA_B * nb_b]
        assert [ch.rate for ch in chans] == pytest.approx(expected, rel=1e-12)

    def test_zero_rate_channels_dropped(self):
        chans = thermal_channels(make_params(gamma_b=0.0))
        assert len(chans) == 1
        assert chans[0].rate == GAMMA_A

    def test_negative_rate_rejected(self):
        from ptdimer import LindbladChannel
        with pytest.raises(ValueError):
            LindbladChannel((-1, 0), -1.0)


class TestDissipator:
    def test_single_photon_decay_action(self):
        space = FockSpace(3, 3)
        c = mode_annihilator("a", space)
        rho = fock_product_state(1, 0, space).density()
        out = dissipator_apply(c, rho)
        expected = (fock_product_state(0, 0, space).density()
                    - fock_product_state(1, 0, space).density())
        assert np.allclose(out, expected, atol=1e-14)

    def test_traceless_on_random_inputs(self):
        space = FockSpace(3, 4)
        rng = np.random.default_rng(21)
        c = mode_annihilator("a", space)
        d = mode_annihilator("b", space)
        hop = c @ d.conj().T
        for _ in range(100):
            rho = random_density(rng, space.dim)
            for op in (c, d, hop):
                assert abs(np.trace(dissipator_apply(op, rho))) < 1e-13

    def test_vacuum_is_dark(self):
        space = FockSpace(3, 3)
        c = mode_annihilator("a", space)
        rho = fock_product_state(0, 0, space).density()
        assert np.abs(dissipator_apply(c, rho)).max() == 0.0


class TestLindbladRhs:
    def test_unitary_limit_matches_conjugation_derivative(self):
        space = FockSpace(3, 3)
        p = make_params(g=0.4, gamma_a=0.0, gamma_b=0.0)
        h = beam_splitter_hamiltonian(p.g, space)
        rng = np.random.default_rng(5)
        rho0 = random_density(rng, space.dim)
        hd = h
        t, eps = 0.8, 1e-5

        def propagated(tau):
            u = expm(-1j * hd * tau)
            return u @ rho0 @ u.conj().T

        fd = (propagated(t + eps) - propagated(t - eps)) / (2 * eps)
        rhs = lindblad_rhs(QuantumState(space, propagated(t)), p)
        scale = np.abs(rhs).max()
        assert np.abs(fd - rhs).max() < 1e-6 * scale

    def test_dark_state(self):
        space = FockSpace(3, 3)
        vac = fock_product_state(0, 0, space)
        p = make_params(g=0.0, gamma_b=0.0)
        assert np.abs(lindblad_rhs(vac, p)).max() == 0.0

    def test_moment_derivatives_on_random_states(self):
        # the occupation equations follow from [N, A] = -A, which truncation
        # preserves, so they hold for arbitrary states on the clipped space;
        # the coherence equation also needs A A^dag = N + 1, which fails in
        # the top Fock level, so it is checked on states that leave the top
        # level of each mode empty
        space = FockSpace(4, 4)
        p = make_params()
        num_a, num_b = (np.diag(n) for n in space.number_diagonals())
        hop = mode_annihilator("a", space).conj().T @ mode_annihilator("b", space)
        lower = [space.index(na, nb) for na in range(3) for nb in range(3)]
        rng = np.random.default_rng(8)
        for k in range(100):
            if k % 2:
                rho = random_density(rng, space.dim)
                check_z = False
            else:
                rho = np.zeros((space.dim, space.dim), dtype=complex)
                rho[np.ix_(lower, lower)] = random_density(rng, 9)
                check_z = True
            rhs = lindblad_rhs(QuantumState(space, rho), p)
            x = np.trace(num_a @ rho)
            y = np.trace(num_b @ rho)
            z = np.trace(hop @ rho)
            dx, dy, dz = moment_rhs(np.array([x, y, z]), p)
            assert np.trace(num_a @ rhs) == pytest.approx(dx, rel=1e-10, abs=1e-12)
            assert np.trace(num_b @ rhs) == pytest.approx(dy, rel=1e-10, abs=1e-12)
            if check_z:
                assert np.trace(hop @ rhs) == pytest.approx(dz, rel=1e-10,
                                                            abs=1e-12)


class TestGeneratorIdentity:
    @pytest.mark.parametrize("temperature", [0.0, 6e-5, ROOM_T],
                             ids=["zero", "cold", "room"])
    def test_no_jump_plus_jump_form(self, temperature):
        # the move-built generator against the textbook commutator +
        # dissipator form; at zero temperature its no-jump part is the
        # evolution under the lossy Hamiltonian H_L
        space = FockSpace(4, 4)
        p = make_params(temperature=temperature)
        h = beam_splitter_hamiltonian(p.g, space)
        chans = thermal_channels(p)
        ops = [(ch.rate, ladder(space, ch.move)) for ch in chans]
        h_l = lossy_hamiltonian(p, space)
        rng = np.random.default_rng(34)
        for _ in range(20):
            rho = random_density(rng, space.dim)
            rhs = lindblad_rhs(QuantumState(space, rho), p)
            textbook = 1j * (rho @ h - h @ rho)
            for rate, a in ops:
                textbook += rate * dissipator_apply(a, rho)
            scale = np.abs(textbook).max()
            assert np.abs(rhs - textbook).max() < 1e-12 * scale
            if temperature == 0.0:
                entries, y0, rhs_no_jump = liouville_block(
                    QuantumState(space, rho), p, jumps=False)
                no_jump = np.zeros_like(rho)
                no_jump[entries] = hermitian_values(rhs_no_jump(0.0, y0),
                                                    entries)
                jumps = sum(rate * (a @ rho @ a.conj().T) for rate, a in ops)
                assert np.abs(no_jump + 1j * (h_l @ rho - rho @ h_l.conj().T)
                              ).max() < 1e-12 * scale
                assert np.abs(rhs - jumps - no_jump).max() < 1e-12 * scale

    def test_loss_diagonal_holds_the_exact_occupation_numbers(self):
        # A^dag A of a lowering channel is n, not the square of the rounded
        # sqrt(n) factor (sqrt(2)**2 == 2.0000000000000004): with unit rates
        # and no coupling, each population of the no-jump block decays at
        # exactly n_a + n_b
        space = FockSpace(7, 7)
        p = make_params(g=0.0, gamma_a=1.0, gamma_b=1.0)
        weights = np.arange(1.0, space.dim + 1.0)
        state = QuantumState(space, np.diag(weights / weights.sum()))
        (rows, cols), x0, rhs = liouville_block(state, p, jumps=False)
        assert np.array_equal(rows, cols) and rows.size == space.dim
        n_a, n_b = space.number_diagonals()
        assert np.array_equal(rhs(0.0, x0), -(n_a + n_b)[rows] * x0)

    @pytest.mark.parametrize("pure", [True, False], ids=["vector", "density"])
    def test_no_jump_block_takes_the_zero_temperature_losses(self, pure):
        # H_L holds the zero-temperature channels whatever the bath: without
        # jumps the room-temperature params give the 0 K block bit for bit
        space = FockSpace(4, 4)
        state = fock_product_state(2, 1, space) if pure else QuantumState(
            space, random_density(np.random.default_rng(35), space.dim))
        cold, room = (liouville_block(state, make_params(temperature=t),
                                      jumps=False) for t in (0.0, ROOM_T))
        for axis_cold, axis_room in zip(cold[0], room[0]):
            assert np.array_equal(axis_cold, axis_room)
        assert np.array_equal(cold[1], room[1])
        assert np.array_equal(cold[2](0.0, cold[1]), room[2](0.0, room[1]))


class TestEvolveDensity:
    def test_uncoupled_exponential_decay(self):
        space = FockSpace(3, 3)
        p = make_params(g=0.0)
        times = np.linspace(0.0, 1.0 / GAMMA_A, 20)
        traj = evolve_density(fock_product_state(1, 0, space), p, times)
        assert traj.n_a_raw[-1] == pytest.approx(np.exp(-1.0), abs=1e-6)
        assert np.abs(traj.n_b_raw).max() < 1e-12

    def test_single_excitation_matches_nonhermitian(self):
        space = FockSpace(3, 3)
        p = make_params()
        times = np.linspace(0.0, 5.0 / GAMMA_A, 300)
        state = fock_product_state(1, 0, space)
        lind = evolve_density(state, p, times)
        nonh = evolve_nonhermitian(state, p, times)
        dev = max(np.abs(lind.n_a - nonh.n_a).max(),
                  np.abs(lind.n_b - nonh.n_b).max(),
                  np.abs(lind.g1 - nonh.g1).max())
        assert dev < 1e-6

    def test_trace_preserved(self):
        space = FockSpace(3, 3)
        p = make_params()
        times = np.linspace(0.0, 5.0 / GAMMA_A, 100)
        traj = evolve_density(fock_product_state(1, 0, space), p, times)
        assert np.abs(traj.weight - 1.0).max() < 1e-12

    def test_boundary_state_triggers_leak_warning(self):
        space = FockSpace(3, 3)
        p = make_params()
        times = np.linspace(0.0, 5.0 / GAMMA_A, 40)
        # (1,1) sits one level under the cap; the hop reaches (2,0) at the top
        traj = evolve_density(fock_product_state(1, 1, space), p, times)
        assert any("leak" in w for w in traj.warnings)


def full_space_reference(state, params, times):
    """rho(t) of the textbook generator on the whole product space, from an
    adaptive run, as one row-major flattened state per sample."""
    space = state.space
    h = beam_splitter_hamiltonian(params.g, space)
    ops = [(ch.rate, ladder(space, ch.move))
           for ch in thermal_channels(params)]
    dim = space.dim

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        return (1j * (rho @ h - h @ rho) + sum(
            rate * dissipator_apply(a, rho) for rate, a in ops)).ravel()
    return integrate_adaptive(OdeProblem(
        rhs, state.density().ravel(), (0.0, times[-1]), times)).states


class TestReachableSubspace:
    """|3,2> on the dimension-49 space evolves only its 21 indices N <= 5."""

    space = FockSpace(7, 7)
    times = np.linspace(0.0, 3.0 / GAMMA_A, 200)

    def test_matches_full_space_reference(self):
        p = make_params()
        state = fock_product_state(3, 2, self.space)
        traj = evolve_density(state, p, self.times)
        states = full_space_reference(state, p, self.times)
        # every entry of the whole space, row-major
        dim = self.space.dim
        whole = np.divmod(np.arange(dim * dim), dim)
        ref = ObservableOps(self.space, whole, GAMMA_A, GAMMA_B) \
            .record_from_density(hermitian_coordinates(states, whole))
        assert set(ref) == {"n_a_raw", "n_b_raw", "coherence", "weight",
                            "top"}
        for name, col in ref.items():
            assert np.abs(getattr(traj, name) - col).max() < 1e-12, name

    @pytest.mark.parametrize("text, reached", [
        ("state = fock 5 0", 56), ("state = noon 5", 91),
        ("state = thermal 6e-5\ntemperature = 6e-5\nengines = lindblad\n"
         "allow_lindblad_thermal = true", 204)],
        ids=["five-zero", "noon-5", "cold-thermal"])
    def test_dropped_coordinates_stay_zero(self, text, reached):
        # in the rotating frame each coherence of a real start whose entries
        # share one parity class stays real or imaginary, and the block
        # drops the other coordinate (56 of |5,0>'s 91 entries are kept); a
        # N00N state with odd N mixes both classes and keeps all 91. The
        # cold thermal start keeps 204 of its 344.
        cfg = parse_config(text)
        p = cfg.system_params()
        space = FockSpace(*cfg.mode_dims())
        state = _initial_state(cfg, space)
        (rows, cols), x0, _ = liouville_block(state, p)
        assert x0.size == reached
        dim = space.dim
        whole = np.divmod(np.arange(dim * dim), dim)
        times = np.linspace(0.0, 1.0 / p.gamma_a, 20)
        states = full_space_reference(state, p, times)
        dropped = np.ones(dim * dim, dtype=bool)
        dropped[rows * dim + cols] = False
        x = hermitian_coordinates(states, whole)
        assert np.abs(x[:, dropped]).max() <= 1e-14 * np.abs(states).max()

    def test_snapshots_are_full_and_zero_outside(self):
        # every evolved entry joins two of the 21 indices N <= 5
        n_a, n_b = self.space.number_diagonals()
        keep = n_a + n_b <= 5
        (rows, cols), rhos = sampled_states(
            fock_product_state(3, 2, self.space), make_params(),
            self.times[:20])
        assert np.all(keep[rows] & keep[cols])
        assert np.abs(rhos[-1]).max() > 0.0

    def test_nonhermitian_snapshots_stay_in_the_initial_block(self):
        (idx,), _, _ = liouville_block(fock_product_state(3, 2, self.space),
                                       make_params(), jumps=False)
        n_a, n_b = self.space.number_diagonals()
        assert np.all(n_a[idx] + n_b[idx] == 5)


class TestExactPropagation:
    """Both Fock engines propagate their reachable Liouville block exactly."""

    space = FockSpace(7, 7)
    engines = pytest.mark.parametrize(
        "evolve", [evolve_density, evolve_nonhermitian],
        ids=["lindblad", "nonhermitian"])
    # the quartic loss moments carry a rate; they are compared in units of
    # gamma_a
    columns = {"n_a_raw": 1.0, "n_b_raw": 1.0, "coherence": 1.0, "weight": 1.0,
               "n_a": 1.0, "n_b": 1.0, "g1": 1.0, "quartic_a": GAMMA_A,
               "quartic_b": GAMMA_A}

    def test_five_zero_evolves_its_excitation_blocks(self):
        # Lindblad: the Delta N = 0 blocks of N <= 5, sum (N+1)^2 = 91 of the
        # 21^2 entries, of whose coordinates it reaches sum (N+1)(N+2)/2 =
        # 56; pure non-Hermitian: the N = 5 block
        state = fock_product_state(5, 0, self.space)
        times = np.linspace(0.0, 5.0 / GAMMA_A, 50)
        lind = evolve_density(state, make_params(), times).stats
        nonh = evolve_nonhermitian(state, make_params(), times).stats
        assert (lind.dimension, lind.exponentials, lind.rhs_evaluations) \
            == (56, 1, 1)
        assert (nonh.dimension, nonh.exponentials, nonh.rhs_evaluations) \
            == (6, 1, 1)
        for stats in (lind, nonh):
            assert (stats.steps, stats.rejected) == (49, 0)

    @engines
    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 3.0 / GAMMA_A, 200),
        np.geomspace(1e-3 / GAMMA_A, 3.0 / GAMMA_A, 60)],
        ids=["uniform", "geometric"])
    def test_matches_tight_adaptive(self, evolve, times, monkeypatch):
        state = fock_product_state(3, 2, self.space)
        exact = evolve(state, make_params(), times)
        monkeypatch.setattr("ptdimer.ode.EXACT_MAX_ENTRIES", 0)
        ref = evolve(state, make_params(), times, rtol=1e-12, atol=1e-15)
        assert exact.stats.exponentials == (1 if times[0] == 0.0 else 60)
        assert ref.stats.exponentials == 0
        for name, unit in self.columns.items():
            col = getattr(ref, name)
            if col is not None:
                dev = np.abs(getattr(exact, name) - col).max() / unit
                assert dev < 1e-10, name

    @engines
    def test_long_grid_matches_the_closed_form(self, evolve):
        # |1,0> stays in the single-excitation block, where the raw moments
        # follow from the 2x2 propagator exp(-i H_L t); 2000 exact steps
        # must not build up the rounding of exp(L dt) - I
        p = make_params()
        times = np.linspace(0.0, 5.0 / GAMMA_A, 2000)
        traj = evolve(fock_product_state(1, 0, self.space), p, times)
        h_l = np.array([[-0.5j * GAMMA_A, p.g], [p.g, -0.5j * GAMMA_B]])
        amp = np.array([expm(-1j * h_l * t)[:, 0] for t in times])
        assert np.abs(traj.n_a_raw - np.abs(amp[:, 0]) ** 2).max() < 1e-14
        assert np.abs(traj.n_b_raw - np.abs(amp[:, 1]) ** 2).max() < 1e-14

    @engines
    def test_long_horizon_keeps_relative_precision(self, evolve):
        # fig1a to t = 200/gamma_a, where <N> falls to 2.6e-44: a power of the
        # step kept as exp(kL dt) - I once it is far from I cancels in
        # row + q row (4.5e-10 here), while exp(kL dt) itself holds
        cfg = catalog_config("fig1a")
        p = cfg.system_params()
        space = FockSpace(*cfg.mode_dims())
        times = np.linspace(0.0, 200.0 / p.gamma_a, 2000)
        traj = evolve(fock_product_state(1, 0, space), p, times)
        h_l = np.array([[-0.5j * p.gamma_a, p.g], [p.g, -0.5j * p.gamma_b]])
        amp = np.array([expm(-1j * h_l * t)[:, 0] for t in times])
        total = np.abs(amp[:, 0]) ** 2 + np.abs(amp[:, 1]) ** 2
        assert total[-1] < 1e-43
        for got, want in ((traj.n_a_raw, np.abs(amp[:, 0]) ** 2),
                          (traj.n_b_raw, np.abs(amp[:, 1]) ** 2),
                          (traj.coherence, amp[:, 0].conj() * amp[:, 1])):
            assert np.max(np.abs(got - want) / total) < 1e-12

    def test_snapshots_are_zero_off_the_evolved_entries(self):
        # both engines evolve only the entries between equal excitation
        # numbers; every other entry, inside the kept basis too, stays 0.
        # Rebuilt from real coordinates, each sampled rho is exactly
        # Hermitian
        n_a, n_b = self.space.number_diagonals()
        n = n_a + n_b
        mixed = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        for level, weight in ((1, 0.25), (2, 0.75)):
            idx = np.flatnonzero((n_a == level) & (n_b == 0))
            mixed[idx, idx] = weight
        for state, jumps in ((fock_product_state(3, 2, self.space), True),
                             (QuantumState(self.space, mixed), False)):
            (rows, cols), values = sampled_states(
                state, make_params(), np.linspace(0.0, 0.3 / GAMMA_A, 20),
                jumps=jumps)
            assert np.all(n[rows] == n[cols])
            assert np.abs(values[-1]).max() > 0.0
            rhos = np.zeros((20, self.space.dim, self.space.dim),
                            dtype=complex)
            rhos[:, rows, cols] = values
            assert np.array_equal(rhos, rhos.conj().transpose(0, 2, 1))

    @engines
    def test_bitwise_deterministic(self, evolve):
        state = fock_product_state(3, 2, self.space)
        times = np.linspace(0.0, 3.0 / GAMMA_A, 200)
        t1, t2 = (evolve(state, make_params(), times) for _ in range(2))
        for name in self.columns:
            assert np.array_equal(getattr(t1, name), getattr(t2, name)), name
        jumps = evolve is evolve_density
        s1, s2 = (sampled_states(state, make_params(), times, jumps=jumps)[1]
                  for _ in range(2))
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("text, dimension", [
        ("state = thermal 6e-5\ntemperature = 6e-5\nengines = lindblad\n"
         "allow_lindblad_thermal = true\nsamples = 200", 204),
        ("state = fock 3 3\nengines = lindblad", 84)],
        ids=["cold-thermal", "fock-3-3"])
    def test_block_below_the_bound_runs_exact(self, text, dimension):
        # the bound sees the reached coordinates, not the 4,096 or 784
        # entries of the whole density matrix, nor the 344 or 140 of the
        # entry closure
        cfg = parse_config(text)
        traj = run_engine("lindblad", cfg)
        stats = traj.stats
        assert (stats.dimension, stats.exponentials) == (dimension, 1)

    def test_thermal_state_above_the_bound_stays_adaptive(self):
        # at T > 0 the up-jumps reach all 144 indices, and the Delta N = 0
        # blocks of a diagonal start hold 2 (1 + 4 + ... + 121) + 144 = 1,156
        # entries; one coordinate of each mirrored pair, 2 (1 + 3 + ... +
        # 66) + 78 = 650, is above the bound of 512
        temp = 6e-5
        space = FockSpace(12, 12)
        rho0 = thermal_density_matrix(0.0, thermal_occupation(OMEGA_B, temp),
                                      space)
        traj = evolve_density(rho0, make_params(temperature=temp),
                              np.linspace(0.0, 0.1 / GAMMA_A, 5))
        assert traj.stats.exponentials == 0
        assert traj.stats.dimension == 650
        assert traj.stats.steps > 0


class TestRealCoordinates:
    """A density block evolves as the real coordinates x_rc = Re rho_rc
    (r <= c) and x_rc = Im rho_cr (r > c) of its entries."""

    @pytest.mark.parametrize("temperature, jumps", [
        (0.0, True), (ROOM_T, True), (ROOM_T, False)],
        ids=["zero", "room", "no-jump"])
    def test_generator_is_the_complex_one_in_coordinates(self, temperature,
                                                        jumps):
        # x -> rho -> L rho -> x, with L the textbook generator on each
        # entry's unit matrix; unequal mode dims catch a row/column swap
        space = FockSpace(3, 4)
        p = make_params(temperature=temperature)
        state = QuantumState(space, random_density(np.random.default_rng(36),
                                                   space.dim))
        entries, x0, rhs = liouville_block(state, p, jumps=jumps)
        h = beam_splitter_hamiltonian(p.g, space)
        h_l = lossy_hamiltonian(p, space)
        ops = [(ch.rate, ladder(space, ch.move)) for ch in thermal_channels(p)]

        def textbook(rho):
            if not jumps:
                return -1j * (h_l @ rho - rho @ h_l.conj().T)
            return 1j * (rho @ h - h @ rho) + sum(
                rate * dissipator_apply(a, rho) for rate, a in ops)

        m = x0.size
        assert x0.dtype == np.float64 and m == space.dim**2
        block = np.empty((m, m), dtype=complex)
        for j, (r, c) in enumerate(zip(*entries)):
            unit = np.zeros((space.dim, space.dim), dtype=complex)
            unit[r, c] = 1.0
            block[:, j] = textbook(unit)[entries]
        # row j: the entries of the rho whose coordinates are unit vector j
        to_rho = hermitian_values(np.eye(m), entries)
        expected = hermitian_coordinates(to_rho @ block.T, entries).T
        got = np.stack([rhs(0.0, unit) for unit in np.eye(m)], axis=1)
        assert got.dtype == np.float64
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(x0, hermitian_coordinates(state.data[entries],
                                                        entries))

    def test_catalog_run_matches_the_dense_liouvillian(self):
        # fig4a (N00N 2, 16 levels) at 5 of its 2,000 samples against
        # rho(t) = expm(L t) rho0, with L the row-major superoperator of the
        # textbook generator on the whole space, vec(A rho B) =
        # (A kron B^T) vec(rho)
        cfg = catalog_config("fig4a")
        p = cfg.system_params()
        space = FockSpace(*cfg.mode_dims())
        traj = run_engine("lindblad", cfg)
        eye = np.eye(space.dim)
        h = beam_splitter_hamiltonian(p.g, space)
        liouvillian = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for ch in thermal_channels(p):
            a = ladder(space, ch.move)
            ada = a.conj().T @ a
            liouvillian += ch.rate * (np.kron(a, a.conj()) - 0.5 * (
                np.kron(ada, eye) + np.kron(eye, ada.T)))
        rho0 = noon_state(2, space).density().ravel()
        c, d = mode_annihilator("a", space), mode_annihilator("b", space)
        for k in range(0, len(traj.times), 499):
            rho = (expm(liouvillian * traj.times[k]) @ rho0).reshape(
                space.dim, space.dim)
            for got, op in ((traj.n_a_raw, c.conj().T @ c),
                            (traj.n_b_raw, d.conj().T @ d),
                            (traj.coherence, c.conj().T @ d),
                            (traj.weight, eye)):
                assert abs(got[k] - np.trace(op @ rho)) <= 1e-12, k


class TestEvolvedBasisMemory:
    """Operators are built on the evolved basis, never on the product space."""

    @pytest.mark.parametrize("evolve", [evolve_density, evolve_nonhermitian],
                             ids=["lindblad", "nonhermitian"])
    def test_large_truncation_allocates_little(self, evolve):
        # one complex matrix on this 1,600-dimensional product space is 41 MB;
        # |1,0> evolves 3 (Lindblad) or 2 (non-Hermitian) basis indices
        space = FockSpace(40, 40)
        state = fock_product_state(1, 0, space)
        times = np.linspace(0.0, 5.0 / GAMMA_A, 50)
        tracemalloc.start()
        try:
            evolve(state, make_params(), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("jumps", [True, False], ids=["density", "vector"])
    @pytest.mark.parametrize("g", [None, 0.0], ids=["coupled", "uncoupled"])
    def test_block_build_never_takes_dim_squared(self, g, jumps):
        # one boolean per entry of this 6,400-state space is 41 MB, which the
        # 1,600-state run above would keep under its bound; the block of
        # |3,2> holds at most 91 entries
        space = FockSpace(80, 80)
        params = make_params() if g is None else make_params(g=g)
        state = fock_product_state(3, 2, space)
        tracemalloc.start()
        try:
            liouville_block(state, params, jumps=jumps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


    def test_thermal_block_rows_gather_the_block_and_keep_the_trace(self):
        # the 4,324 coordinates of the 2e-4 K start, past the 819 that the
        # entry-by-entry reference of test_liouville_block.py builds
        cfg = parse_config("state = thermal 2e-4\ntemperature = 2e-4\n"
                           "engines = lindblad\nallow_lindblad_thermal = true")
        params = cfg.system_params()
        state = thermal_density_matrix(params.nbar_a(), params.nbar_b(),
                                       FockSpace(*cfg.mode_dims()))
        liouville_block(state, params)  # tabulates fock._move's moves
        tracemalloc.start()
        try:
            entries, y0, rhs = liouville_block(state, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = inspect.getclosurevars(rhs).nonlocals
        sources, weights = rows["sources"], rows["weights"]
        m = y0.size
        assert m == 4324 and sources.shape == weights.shape
        assert sources.shape[0] == m and sources.shape[1] <= 9
        assert sources.min() >= 0 and sources.max() < m
        # d tr(rho)/dt = 0 for every state: each coordinate's weights into
        # the diagonal rows sum to 0
        diagonal = entries[0] == entries[1]
        into_trace = np.bincount(sources[diagonal].ravel(),
                                 weights[diagonal].ravel(), minlength=m)
        assert np.abs(into_trace).max() <= 1e-14 * np.abs(weights).max()
        # the build peaks at ~2.6 MB (numpy 2.4); one (m, 9) table is
        # 0.3 MB, so a build holding a few more tables than the rows need
        # crosses the bound
        assert peak < 3.3e6


class TestMomentSystem:
    def test_zero_temperature_equations(self):
        p = make_params()
        rng = np.random.default_rng(13)
        for _ in range(25):
            x, y = rng.uniform(0, 3, size=2)
            z = complex(*rng.normal(size=2))
            dx, dy, dz = moment_rhs(np.array([x, y, z]), p)
            assert dx == pytest.approx(2 * p.g * z.imag - GAMMA_A * x, rel=1e-14)
            assert dy == pytest.approx(-2 * p.g * z.imag - GAMMA_B * y, rel=1e-14)
            assert dz == pytest.approx(1j * p.g * (y - x)
                                       - 0.5 * (GAMMA_A + GAMMA_B) * z, rel=1e-14)

    def test_thermal_sources_enter_occupations_only(self):
        p = make_params(temperature=ROOM_T)
        zero = moment_rhs(np.array([0.0, 0.0, 0j]), p)
        assert zero[0] == pytest.approx(GAMMA_A * p.nbar_a(), rel=1e-12)
        assert zero[1] == pytest.approx(GAMMA_B * p.nbar_b(), rel=1e-12)
        assert zero[2] == 0j

    def test_closure_residual_single_excitation(self):
        # the residual differentiates sampled curves, so it needs a grid
        # dense enough that the second-order stencil error sits well under
        # the threshold
        space = FockSpace(3, 3)
        p = make_params()
        times = np.linspace(0.0, 5.0 / GAMMA_A, 4000)
        traj = evolve_density(fock_product_state(1, 0, space), p, times)
        assert moment_closure_residual(traj, p) < 1e-6

    def test_closure_residual_two_one(self):
        dim = truncation_dim(3)
        space = FockSpace(dim, dim)
        p = make_params()
        times = np.linspace(0.0, 5.0 / GAMMA_A, 2000)
        traj = evolve_density(fock_product_state(2, 1, space), p, times)
        assert moment_closure_residual(traj, p) < 1e-5

    def test_closure_residual_uncoupled(self):
        # with g = 0 the time unit collapses to 1/gamma_a, so the curves
        # span more of the grid and the stencil needs more points
        dim = truncation_dim(3)
        space = FockSpace(dim, dim)
        p = make_params(g=0.0)
        times = np.linspace(0.0, 5.0 / GAMMA_A, 8000)
        traj = evolve_density(fock_product_state(2, 1, space), p, times)
        assert moment_closure_residual(traj, p) < 1e-6

    def test_closure_residual_cold_thermal_bath(self):
        # the thermal sources come from the bath of the params the run used;
        # without them the residual reads ~1e-4 here
        cfg = parse_config("state = thermal 6e-5\ntemperature = 6e-5\n"
                           "engines = lindblad\nallow_lindblad_thermal = true")
        params = cfg.system_params()
        traj = run_engine("lindblad", cfg)
        assert len(traj.times) == 2000
        assert moment_closure_residual(traj, params) < 1e-6

    def test_closure_residual_needs_samples(self):
        space = FockSpace(3, 3)
        p = make_params()
        times = np.linspace(0.0, 1.0 / GAMMA_A, 4)
        traj = evolve_density(fock_product_state(1, 0, space), p, times)
        with pytest.raises(ValueError):
            moment_closure_residual(traj, p)


class TestThermalCrossValidation:
    def test_small_occupation_matches_moment_flow(self):
        # cold enough that the exact density-matrix route stays tractable:
        # nbar_b ~ 0.15, nbar_a ~ 0; dims (12, 12) push the discarded
        # thermal tail (which the moment flow keeps) below the tolerance
        temp = 6e-5
        p = make_params(temperature=temp)
        nb_b = thermal_occupation(OMEGA_B, temp)
        assert 0.05 < nb_b < 0.5
        space = FockSpace(12, 12)
        rho0 = thermal_density_matrix(0.0, nb_b, space)
        times = np.linspace(0.0, 5.0 / GAMMA_A, 200)
        lind = evolve_density(rho0, p, times, rtol=1e-10, atol=1e-13)
        n0 = np.diag([0.0, nb_b]).astype(complex)
        gaus = evolve_moments(n0, p, times)
        scale = max(np.abs(lind.n_b_raw).max(), 1e-30)
        dev = max(np.abs(lind.n_a_raw - gaus.n_a_raw).max(),
                  np.abs(lind.n_b_raw - gaus.n_b_raw).max(),
                  np.abs(lind.coherence - gaus.coherence).max())
        assert dev / scale < 1e-6
