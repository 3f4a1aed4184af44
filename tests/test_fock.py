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
    ladder,
    lossy_hamiltonian,
    mode_annihilator,
    noon_state,
    thermal_density_matrix,
    thermal_truncation_dim,
    truncation_dim,
)
from ptdimer.fock import HOP, TAIL_TOL, _move
from ptdimer.lindblad import liouville_block
from conftest import GAMMA_A, GAMMA_B, OMEGA_B, ROOM_T, make_params


def annihilation(dim):
    """Single-mode annihilator: c on the n_b = 0 slice of a (dim, 2) space."""
    return mode_annihilator("a", FockSpace(dim, 2))[::2, ::2]


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
        # and whose initial top level holds at most the tolerance
        for nbar in (0.05, 0.4, 1.0, 6.0, 3760.25):
            dim = thermal_truncation_dim(nbar)
            ratio = nbar / (1.0 + nbar)

            def fits(d):
                return ratio**d < TAIL_TOL \
                    and (1.0 - ratio) * ratio ** (d - 1) <= TAIL_TOL
            assert fits(dim)
            assert dim == 2 or not fits(dim - 1)

    def test_thermal_dim_top_level_bound(self):
        # below r = 1/2 the top level outweighs the tail: at nbar 0.05 and
        # 5 levels the tail is 2.4e-7, but level 4 starts with 4.9e-6
        assert thermal_truncation_dim(0.05) == 6
        assert thermal_truncation_dim(0.4) == 12

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
    def test_single_excitation_hop_element(self):
        space = FockSpace(3, 3)
        g = 0.37
        h = beam_splitter_hamiltonian(g, space)
        i, j = space.index(1, 0), space.index(0, 1)
        assert h[i, j] == pytest.approx(g, rel=1e-15)
        assert h[j, i] == pytest.approx(g, rel=1e-15)

    def test_hermitian(self):
        space = FockSpace(4, 4)
        h = beam_splitter_hamiltonian(0.4 * OMEGA_B, space)
        assert np.abs(h - h.conj().T).max() <= 1e-12

    def test_commutes_with_total_number_away_from_boundary(self):
        space = FockSpace(5, 5)
        h = beam_splitter_hamiltonian(0.2 * OMEGA_B, space)
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
        hs = beam_splitter_hamiltonian(p.g, space)
        assert np.allclose(h, hs, atol=0)

    def test_single_excitation_block(self):
        space = FockSpace(3, 3)
        p = make_params()
        h = lossy_hamiltonian(p, space)
        i, j = space.index(1, 0), space.index(0, 1)
        block = np.array([[h[i, i], h[i, j]], [h[j, i], h[j, j]]])
        contrast = (GAMMA_A - GAMMA_B) / 4.0
        mean_loss = -0.25j * (GAMMA_A + GAMMA_B) * np.eye(2)
        splitting = np.array([[-1j * contrast, p.g], [p.g, 1j * contrast]])
        assert np.allclose(block, mean_loss + splitting, rtol=1e-15, atol=1e-9)

    def test_block_eigenvalues_match_mode_eigenvalues(self):
        space = FockSpace(3, 3)
        p = make_params()
        h = lossy_hamiltonian(p, space)
        i, j = space.index(1, 0), space.index(0, 1)
        block = np.array([[h[i, i], h[i, j]], [h[j, i], h[j, j]]])
        ev = np.linalg.eigvals(block)
        # the mode eigenvalues in the frame rotating at omega_b
        for mu in (m - OMEGA_B for m in dimer_mode_eigenvalues(p)):
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
            num_a = np.diag(space.number_diagonals()[0])
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
        rho = thermal_density_matrix(1.0, 0.0, space).density()
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


    def test_norm_of_a_density_matrix_is_its_trace(self):
        space = FockSpace(2, 2)
        rho = np.diag([0.5, 0.25, 0.125, 0.0]).astype(complex)
        assert QuantumState(space, rho).norm() == 0.875


class TestValidation:
    """Input from outside the program is checked where it enters."""

    @pytest.mark.parametrize("build, error, match", [
        (lambda: truncation_dim(-1), ValueError, "excitation number"),
        (lambda: thermal_truncation_dim(-0.1), ValueError, "occupation"),
        (lambda: FockSpace(1, 3), ValueError, "two Fock levels"),
        (lambda: FockSpace(3, 3).index(3, 0), ValueError, "outside"),
        (lambda: QuantumState(FockSpace(2, 2), np.eye(3)), ValueError,
         "shape"),
        (lambda: QuantumState(FockSpace(2, 2), np.zeros((4, 4, 1))),
         ValueError, "vector or a square matrix"),
        (lambda: fock_product_state(-1, 0, FockSpace(3, 3)), ValueError,
         "nonnegative"),
        (lambda: noon_state(0, FockSpace(3, 3)), ValueError, "N >= 1"),
        (lambda: thermal_density_matrix(-1.0, 0.0, FockSpace(3, 3)),
         ValueError, "occupation"),
        (lambda: liouville_block(QuantumState(FockSpace(3, 3),
                                              np.zeros((9, 9))),
                                 make_params()), ValueError,
         "state is zero"),
    ], ids=["truncation", "thermal-dim-nbar", "space",
            "index", "density-shape", "state-ndim", "fock-occupation",
            "noon-n", "thermal-weights-nbar", "zero-state"])
    def test_invalid_input_raises(self, build, error, match):
        with pytest.raises(error, match=match):
            build()


class TestFockOperator:
    def test_dagger(self):
        # c^dag is the raising move
        space = FockSpace(3, 3)
        c = mode_annihilator("a", space)
        assert np.allclose(ladder(space, (1, 0)), c.conj().T, atol=0)

    def test_is_hermitian(self):
        space = FockSpace(3, 3)
        c = mode_annihilator("a", space)
        n = c.conj().T @ c
        assert np.abs(n - n.conj().T).max() <= 1e-12
        assert not np.abs(c - c.conj().T).max() <= 1e-12


class TestReachableIndices:
    """The entry closure of ``liouville_block``: the density-matrix entries
    (or vector entries) a state reaches under the generator's moves, of
    which a density block keeps the entries of the real coordinates the
    state reaches."""

    space = FockSpace(7, 7)

    def _total(self, idx):
        n_a, n_b = self.space.number_diagonals()
        return (n_a + n_b)[idx]

    def _lindblad_entries(self, params):
        state = fock_product_state(5, 0, self.space)
        return liouville_block(state, params)[0]

    def test_zero_temperature_channels_keep_n_at_most_initial(self):
        # the Delta N = 0 blocks of N <= 5, sum (N+1)^2 = 91 entries on the
        # 21 basis indices with N <= 5; each coherence of the real start
        # stays real or imaginary, so each mirrored pair keeps one
        # coordinate: sum (N+1)(N+2)/2 = 56
        rows, cols = self._lindblad_entries(make_params())
        assert rows.size == 56
        assert np.array_equal(self._total(rows), self._total(cols))
        expected = np.flatnonzero(self._total(np.arange(self.space.dim)) <= 5)
        assert expected.size == 21
        assert np.array_equal(np.unique(rows), expected)

    def test_lossy_hamiltonian_keeps_the_initial_block(self):
        p = make_params()
        (reach,), _, _ = liouville_block(fock_product_state(5, 0, self.space),
                                         p, jumps=False)
        expected = np.flatnonzero(self._total(np.arange(self.space.dim)) == 5)
        assert expected.size == 6
        assert np.array_equal(reach, expected)

    def test_thermal_channels_reach_every_index(self):
        # the up-jumps reach every basis index, but every term keeps
        # Delta N = N_row - N_col: 2 (1 + 4 + ... + 36) + 49 = 231 entries,
        # one coordinate of each mirrored pair: 2 (1 + 3 + ... + 21) + 28
        # = 140
        rows, cols = self._lindblad_entries(make_params(temperature=ROOM_T))
        assert np.array_equal(np.unique(rows), np.arange(self.space.dim))
        assert np.array_equal(self._total(rows), self._total(cols))
        assert rows.size == 140

    def test_density_support_includes_coherences(self):
        # only an off-diagonal entry links |2,0> and |0,0>: the hops fill the
        # coherences between the N = 2 and N = 0 blocks, in both orders, and
        # of the 3 mirrored pairs each keeps its real or its imaginary part
        space = FockSpace(3, 3)
        rho = np.zeros((space.dim, space.dim), dtype=complex)
        rho[space.index(2, 0), space.index(0, 0)] = 1.0
        rho[space.index(0, 0), space.index(2, 0)] = 1.0
        p = make_params()
        (rows, cols), _, _ = liouville_block(QuantumState(space, rho), p,
                                             jumps=False)
        total = np.add(*space.number_diagonals()).astype(int)
        assert set(zip(total[rows], total[cols])) == {(2, 0), (0, 2)}
        assert rows.size == 3


class TestLadder:
    def test_full_build_equals_the_joint_space_products(self):
        # the Kronecker / matrix-product construction the builder replaces;
        # unequal dims catch n_a/n_b mix-ups
        space = FockSpace(5, 4)
        a = np.diag(np.sqrt(np.arange(1.0, space.dim_a)), 1).astype(complex)
        b = np.diag(np.sqrt(np.arange(1.0, space.dim_b)), 1).astype(complex)
        c = np.kron(a, np.eye(space.dim_b))
        d = np.kron(np.eye(space.dim_a), b)
        products = {(-1, 0): c, (1, 0): c.conj().T, (0, -1): d,
                    (0, 1): d.conj().T, (1, -1): c.conj().T @ d,
                    (-1, 1): c @ d.conj().T}
        for move, op in products.items():
            assert np.array_equal(ladder(space, move), op), move

    def test_move_tables_are_shared_and_read_only(self):
        # every engine and recorder of a run reads one table per move
        tables = _move(FockSpace(5, 4), HOP)
        assert _move(FockSpace(5, 4), HOP) is tables
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0
