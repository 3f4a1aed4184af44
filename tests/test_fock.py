"""Truncated two-mode Fock space: operators, states, truncation rules."""
import numpy as np
import pytest

from ptdimer import (
    FockSpace,
    QuantumState,
    TruncationError,
    beam_splitter_hamiltonian,
    dimer_mode_eigenvalues,
    fock_product_state,
    hamiltonian_moves,
    ladder,
    lossy_hamiltonian,
    mode_annihilator,
    mode_number,
    noon_state,
    reachable_indices,
    thermal_channels,
    thermal_density_matrix,
    thermal_truncation_dim,
    truncation_dim,
)
from ptdimer.lindblad import effective_hamiltonian, lindblad_moves
from conftest import GAMMA_A, GAMMA_B, OMEGA_B, ROOM_T, make_params


def annihilation(dim):
    """Single-mode annihilator: c on the n_b = 0 slice of a (dim, 2) space."""
    space = FockSpace(dim, 2)
    return mode_annihilator("a", space, [space.index(n, 0) for n in range(dim)])


class TestAnnihilation:
    def test_two_level_matrix(self):
        assert np.array_equal(annihilation(2), [[0, 1], [0, 0]])

    def test_sqrt_ladder_entry(self):
        a = annihilation(3)
        assert a[1, 2] == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_number_operator_identity(self):
        for dim in (2, 5, 9):
            a = annihilation(dim)
            n = a.conj().T @ a
            assert np.allclose(n, np.diag(np.arange(dim)), atol=1e-14)


class TestTruncation:
    def test_fixed_total_headroom(self):
        # two empty levels above the largest populated total
        assert truncation_dim(1) == 3
        assert truncation_dim(5) == 7

    def test_fock_indexing(self):
        space = FockSpace(7, 7)
        assert space.index(3, 2) == 3 * 7 + 2
        assert space.dim == 49

    def test_thermal_dim_matches_tail_rule(self):
        # smallest dim whose geometric tail mass drops below the tolerance
        for nbar in (0.05, 0.4, 1.0, 6.0, 3760.25):
            for tol in (1e-6, 1e-4):
                dim = thermal_truncation_dim(nbar, tol)
                ratio = nbar / (1.0 + nbar)
                assert ratio**dim < tol
                assert dim == 2 or ratio ** (dim - 1) >= tol

    def test_thermal_dim_vacuum(self):
        assert thermal_truncation_dim(0.0) == 2

    def test_number_diagonals(self):
        space = FockSpace(3, 2)
        diag_a, diag_b = space.number_diagonals()
        assert np.array_equal(diag_a, [0, 0, 1, 1, 2, 2])
        assert np.array_equal(diag_b, [0, 1, 0, 1, 0, 1])


class TestEmbed:
    def test_different_mode_operators_commute(self):
        space = FockSpace(4, 4)
        c = mode_annihilator("a", space)
        d = mode_annihilator("b", space)
        comm = c @ d - d @ c
        assert np.count_nonzero(comm) == 0

    def test_exchange_action(self):
        space = FockSpace(3, 3)
        c = mode_annihilator("a", space)
        d = mode_annihilator("b", space)
        hop = c @ d.conj().T
        psi = fock_product_state(1, 0, space).data
        out = hop @ psi
        expected = fock_product_state(0, 1, space).data
        assert np.allclose(out, expected, atol=1e-15)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            mode_annihilator("c", FockSpace(2, 2))


class TestBeamSplitterHamiltonian:
    def test_uncoupled_is_total_number(self):
        space = FockSpace(4, 4)
        h = beam_splitter_hamiltonian(1.0, 0.0, space)
        diag_a, diag_b = space.number_diagonals()
        assert np.allclose(h, np.diag(diag_a + diag_b), atol=0)

    def test_single_excitation_hop_element(self):
        space = FockSpace(3, 3)
        g = 0.37
        h = beam_splitter_hamiltonian(OMEGA_B, g, space)
        i, j = space.index(1, 0), space.index(0, 1)
        assert h[i, j] == pytest.approx(g, rel=1e-15)
        assert h[j, i] == pytest.approx(g, rel=1e-15)

    def test_hermitian(self):
        space = FockSpace(4, 4)
        h = beam_splitter_hamiltonian(OMEGA_B, 0.4 * OMEGA_B, space)
        assert np.abs(h - h.conj().T).max() <= 1e-12

    def test_commutes_with_total_number_away_from_boundary(self):
        space = FockSpace(5, 5)
        h = beam_splitter_hamiltonian(OMEGA_B, 0.2 * OMEGA_B, space)
        diag_a, diag_b = space.number_diagonals()
        total = diag_a + diag_b
        n_op = np.diag(total.astype(float))
        comm = h @ n_op - n_op @ h
        inside = total < min(space.dim_a, space.dim_b) - 1
        sub = comm[np.ix_(inside, inside)]
        assert np.abs(sub).max() == 0.0


class TestLossyHamiltonian:
    def test_lossless_limit(self):
        space = FockSpace(4, 4)
        p = make_params(gamma_a=0.0, gamma_b=0.0)
        h = lossy_hamiltonian(p, space)
        hs = beam_splitter_hamiltonian(OMEGA_B, p.g, space)
        assert np.allclose(h, hs, atol=0)

    def test_single_excitation_block(self):
        space = FockSpace(3, 3)
        p = make_params()
        h = lossy_hamiltonian(p, space, omega_b=OMEGA_B)
        i, j = space.index(1, 0), space.index(0, 1)
        block = np.array([[h[i, i], h[i, j]], [h[j, i], h[j, j]]])
        contrast = (GAMMA_A - GAMMA_B) / 4.0
        mean_loss = (OMEGA_B - 0.25j * (GAMMA_A + GAMMA_B)) * np.eye(2)
        splitting = np.array([[-1j * contrast, p.g], [p.g, 1j * contrast]])
        assert np.allclose(block, mean_loss + splitting, rtol=1e-15, atol=1e-9)

    def test_block_eigenvalues_match_mode_eigenvalues(self):
        space = FockSpace(3, 3)
        p = make_params()
        h = lossy_hamiltonian(p, space, omega_b=OMEGA_B)
        i, j = space.index(1, 0), space.index(0, 1)
        block = np.array([[h[i, i], h[i, j]], [h[j, i], h[j, j]]])
        ev = np.linalg.eigvals(block)
        for mu in dimer_mode_eigenvalues(p):
            assert min(abs(mu - e) for e in ev) < 1e-10 * abs(mu)

    def test_anti_hermitian_part_is_loss_diagonal(self):
        space = FockSpace(4, 4)
        p = make_params()
        h = lossy_hamiltonian(p, space)
        anti = 1j * (h - h.conj().T)
        diag_a, diag_b = space.number_diagonals()
        expected = np.diag(GAMMA_A * diag_a + GAMMA_B * diag_b).astype(complex)
        assert np.allclose(anti, expected, rtol=1e-15, atol=1e-9)


class TestStates:
    def test_fock_product_placement(self):
        space = FockSpace(3, 4)
        psi = fock_product_state(1, 0, space).data
        expected = np.zeros(12)
        expected[space.index(1, 0)] = 1.0
        assert np.array_equal(psi, expected.astype(complex))
        assert space.index(1, 0) == space.dim_b

    def test_vacuum(self):
        space = FockSpace(3, 3)
        psi = fock_product_state(0, 0, space).data
        assert psi[0] == 1.0
        assert np.abs(psi[1:]).max() == 0.0

    def test_headroom_enforced(self):
        space = FockSpace(3, 3)
        with pytest.raises(TruncationError):
            fock_product_state(2, 0, space)
        with pytest.raises(TruncationError):
            fock_product_state(0, 2, space)

    def test_noon_single_excitation_amplitudes(self):
        space = FockSpace(3, 3)
        psi = noon_state(1, space).data
        r = 1.0 / np.sqrt(2.0)
        assert psi[space.index(1, 0)] == pytest.approx(r, rel=1e-15)
        assert psi[space.index(0, 1)] == pytest.approx(r, rel=1e-15)

    def test_noon_normalized(self):
        for n in (1, 2, 3, 5):
            space = FockSpace(truncation_dim(n), truncation_dim(n))
            assert noon_state(n, space).norm() == pytest.approx(1.0, rel=1e-15)

    def test_noon_moments(self):
        # direct expectation on the two-component superposition
        for n in (2, 3, 5):
            space = FockSpace(truncation_dim(n), truncation_dim(n))
            psi = noon_state(n, space).data
            num_a = mode_number("a", space)
            x = np.vdot(psi, num_a @ psi)
            hop = (mode_annihilator("a", space).conj().T
                   @ mode_annihilator("b", space))
            z = np.vdot(psi, hop @ psi)
            assert x == pytest.approx(n / 2.0, rel=1e-14)
            assert abs(z) < 1e-15
        space = FockSpace(3, 3)
        psi = noon_state(1, space).data
        hop = (mode_annihilator("a", space).conj().T
               @ mode_annihilator("b", space))
        assert np.vdot(psi, hop @ psi) == pytest.approx(0.5, rel=1e-14)

    def test_noon_headroom(self):
        with pytest.raises(TruncationError):
            noon_state(2, FockSpace(3, 3))


class TestThermalDensity:
    def test_vacuum_projector(self):
        space = FockSpace(3, 3)
        rho = thermal_density_matrix(0.0, 0.0, space).density()
        expected = np.zeros((9, 9), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected, atol=0)

    def test_geometric_weights(self):
        # half the mass in the ground state for nbar = 1, then halving
        space = FockSpace(60, 2)
        rho = thermal_density_matrix(1.0, 0.0, space, tail_tol=1e-12).density()
        w = np.real(np.diagonal(rho)).reshape(60, 2)[:, 0]
        brute = 0.5 ** np.arange(1, 61)
        brute = brute / brute.sum()
        assert np.allclose(w[:4], brute[:4], rtol=1e-12)
        assert w[0] == pytest.approx(0.5, rel=1e-9)

    def test_unit_trace(self):
        space = FockSpace(12, 18)
        rho = thermal_density_matrix(0.3, 0.8, space).density()
        assert np.trace(rho).real == pytest.approx(1.0, rel=1e-14)

    def test_insufficient_dim_rejected(self):
        with pytest.raises(TruncationError):
            thermal_density_matrix(5.0, 0.0, FockSpace(3, 3))


class TestQuantumState:
    def test_pure_and_mixed_flags(self):
        space = FockSpace(2, 2)
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        assert QuantumState(space, vec).is_pure
        assert not QuantumState(space, np.eye(4, dtype=complex) / 4).is_pure

    def test_density_of_pure_state(self):
        space = FockSpace(3, 2)
        psi = fock_product_state(1, 0, space)
        rho = psi.density()
        assert np.allclose(rho, np.outer(psi.data, psi.data.conj()), atol=0)

    def test_non_hermitian_matrix_rejected(self):
        space = FockSpace(2, 2)
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            QuantumState(space, bad)

    def test_wrong_shape_rejected(self):
        space = FockSpace(2, 2)
        with pytest.raises(ValueError):
            QuantumState(space, np.zeros(5, dtype=complex))

    def test_norm(self):
        space = FockSpace(2, 2)
        vec = np.zeros(4, dtype=complex)
        vec[1] = 0.6
        vec[2] = 0.8j
        assert QuantumState(space, vec).norm() == pytest.approx(1.0, rel=1e-15)


class TestFockOperator:
    def test_dagger(self):
        # c^dag is the raising move
        space = FockSpace(3, 3)
        c = mode_annihilator("a", space)
        assert np.allclose(ladder(space, (1, 0)), c.conj().T, atol=0)

    def test_is_hermitian(self):
        space = FockSpace(3, 3)
        n = mode_number("a", space)
        c = mode_annihilator("a", space)
        assert np.abs(n - n.conj().T).max() <= 1e-12
        assert not np.abs(c - c.conj().T).max() <= 1e-12


class TestReachableIndices:
    space = FockSpace(7, 7)

    def _lindblad_reach(self, params):
        return reachable_indices(fock_product_state(5, 0, self.space),
                                 lindblad_moves(params))

    def _total(self):
        n_a, n_b = self.space.number_diagonals()
        return n_a + n_b

    def test_zero_temperature_channels_keep_n_at_most_initial(self):
        expected = np.flatnonzero(self._total() <= 5)
        assert expected.size == 21
        assert np.array_equal(self._lindblad_reach(make_params()), expected)

    def test_lossy_hamiltonian_keeps_the_initial_block(self):
        moves = hamiltonian_moves(make_params().g)
        reach = reachable_indices(fock_product_state(5, 0, self.space), moves)
        expected = np.flatnonzero(self._total() == 5)
        assert expected.size == 6
        assert np.array_equal(reach, expected)

    def test_thermal_channels_reach_every_index(self):
        reach = self._lindblad_reach(make_params(temperature=ROOM_T))
        assert np.array_equal(reach, np.arange(self.space.dim))

    def test_density_support_includes_coherences(self):
        # only an off-diagonal entry links |2,0> and |0,0>: both blocks count
        space = FockSpace(3, 3)
        rho = np.zeros((space.dim, space.dim), dtype=complex)
        rho[space.index(2, 0), space.index(0, 0)] = 1.0
        rho[space.index(0, 0), space.index(2, 0)] = 1.0
        moves = hamiltonian_moves(make_params().g)
        reach = reachable_indices(QuantumState(space, rho), moves)
        n_a, n_b = space.number_diagonals()
        assert np.array_equal(reach, np.flatnonzero(np.isin(n_a + n_b, [0, 2])))


_RESTRICTION_SPACE = FockSpace(5, 4)  # unequal dims catch n_a/n_b mix-ups
_N = np.add(*_RESTRICTION_SPACE.number_diagonals())
_KEEPS = {"n_at_most_3": np.flatnonzero(_N <= 3),  # downward closed
          "n_is_3": np.flatnonzero(_N == 3)}      # one excitation-number block
_MOVES = [(-1, 0), (1, 0), (0, -1), (0, 1), (1, -1), (-1, 1)]


def _builders():
    space = _RESTRICTION_SPACE
    p = make_params()
    room = make_params(temperature=ROOM_T)
    builders = {
        "c": lambda keep: mode_annihilator("a", space, keep),
        "d": lambda keep: mode_annihilator("b", space, keep),
        "n_a": lambda keep: mode_number("a", space, keep),
        "n_b": lambda keep: mode_number("b", space, keep),
        "h": lambda keep: beam_splitter_hamiltonian(OMEGA_B, p.g, space, keep),
        "h_lossy": lambda keep: lossy_hamiltonian(p, space, keep=keep),
        "channels": lambda keep: np.array(
            [ch.operator for ch in thermal_channels(room, space, keep)]),
    }
    for move in _MOVES:
        builders[f"move{move}"] = lambda keep, m=move: ladder(space, m, keep)
        builders[f"squared{move}"] = \
            lambda keep, m=move: ladder(space, m, keep, squared=True)
    return builders


class TestLadder:
    def test_full_build_equals_the_joint_space_products(self):
        # the Kronecker / matrix-product construction the builder replaces
        space = _RESTRICTION_SPACE
        a = np.diag(np.sqrt(np.arange(1.0, space.dim_a)), 1).astype(complex)
        b = np.diag(np.sqrt(np.arange(1.0, space.dim_b)), 1).astype(complex)
        c = np.kron(a, np.eye(space.dim_b))
        d = np.kron(np.eye(space.dim_a), b)
        products = {(-1, 0): c, (1, 0): c.conj().T, (0, -1): d,
                    (0, 1): d.conj().T, (1, -1): c.conj().T @ d,
                    (-1, 1): c @ d.conj().T}
        for move, op in products.items():
            assert np.array_equal(ladder(space, move), op), move
            assert np.array_equal(ladder(space, move, squared=True),
                                  op.conj().T @ op), move


class TestRestriction:
    """A build on sorted basis indices equals the full build sliced there."""

    @pytest.mark.parametrize("keep_name", sorted(_KEEPS))
    @pytest.mark.parametrize("name", sorted(_builders()))
    def test_build_on_keep_is_sliced_full_build(self, name, keep_name):
        build = _builders()[name]
        keep = _KEEPS[keep_name]
        full = build(None)
        sliced = full[..., keep[:, None], keep]
        assert np.array_equal(build(keep), sliced)

    def test_effective_hamiltonian_on_a_channel_closed_basis(self):
        # A_K^dag A_K is the restricted A^dag A when the basis K is closed
        # under A: at zero temperature the channels only lower N
        space = _RESTRICTION_SPACE
        p = make_params()
        keep = _KEEPS["n_at_most_3"]
        assert np.array_equal(reachable_indices(
            QuantumState(space, np.diag((_N <= 3).astype(complex))),
            lindblad_moves(p)), keep)
        full = effective_hamiltonian(beam_splitter_hamiltonian(0.0, p.g, space),
                                     thermal_channels(p, space))
        restricted = effective_hamiltonian(
            beam_splitter_hamiltonian(0.0, p.g, space, keep),
            thermal_channels(p, space, keep))
        assert np.array_equal(restricted, full[np.ix_(keep, keep)])
