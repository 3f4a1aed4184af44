"""Stack recorders against dense expectation oracles, and their checks."""
import numpy as np
import pytest

from ptdimer import FockSpace, QuantumState, evolve_density, mode_annihilator
from ptdimer.fock import TAIL_TOL
from ptdimer.observables import ObservableOps, ObservableTrajectory, \
    derivative_residual, hermitian_coordinates, hermitian_values, \
    record_from_moments
from conftest import GAMMA_A, make_params, random_density


def _dense_ops(space, gamma_a, gamma_b):
    """Dense operators of every recorded column, the top-level population
    that the leakage check reads among them."""
    c = mode_annihilator("a", space)
    d = mode_annihilator("b", space)
    n_a, n_b = c.conj().T @ c, d.conj().T @ d
    loss = gamma_a * n_a + gamma_b * n_b
    levels_a, levels_b = np.rint(np.diag(n_a).real), np.rint(np.diag(n_b).real)
    top = (levels_a == space.dim_a - 1) | (levels_b == space.dim_b - 1)
    return {"n_a_raw": n_a, "n_b_raw": n_b, "coherence": c.conj().T @ d,
            "weight": np.eye(space.dim), "quartic_a": n_a @ loss,
            "quartic_b": n_b @ loss, "top": np.diag(top.astype(float))}


def _whole(space, axes):
    """Every entry of the whole space, row-major: (i,) or (row, col)."""
    every = np.arange(space.dim**axes)
    return (every,) if axes == 1 else np.divmod(every, space.dim)


class TestStackRecorders:
    # unequal mode dimensions catch a row/column swap in the hop contraction
    space = FockSpace(3, 4)
    # unequal rates catch a swap of the quartics' loss weights
    gammas = (0.7, 1.9)
    times = np.linspace(0.0, 1.0, 5)

    def _check(self, ops, recorder, states, expectation):
        """Every column ``recorder`` returns, and the leakage warning of the
        trajectory built from them, against ``expectation`` (a dense operator
        -> one value per sample)."""
        oracle = {name: expectation(op) for name, op
                  in _dense_ops(self.space, *self.gammas).items()}
        cols = getattr(ops, recorder)(states)
        assert set(cols) == set(oracle) - (
            {"quartic_a", "quartic_b"} if recorder == "record_from_density"
            else set())
        for name, got in cols.items():
            expected = oracle[name]
            assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected)), \
                name
        top = oracle["top"].real
        k = int(np.argmax(top))
        assert top[k] > TAIL_TOL
        traj = ObservableTrajectory("test", 1.0, self.times, **cols)
        assert traj.warnings == [
            f"truncation leakage: top-level population {top[k]:.3e} at "
            f"t={self.times[k]:.6e}"]

    @pytest.mark.parametrize("recorder", ["record_from_density",
                                          "record_from_nh_density"])
    def test_density_stack_matches_trace(self, recorder):
        rng = np.random.default_rng(7)
        rhos = np.array([random_density(rng, self.space.dim) for _ in range(5)])
        whole = _whole(self.space, 2)
        self._check(ObservableOps(self.space, whole, *self.gammas), recorder,
                    hermitian_coordinates(rhos.reshape(len(rhos), -1), whole),
                    lambda op: np.einsum("jk,skj->s", op, rhos))

    def test_density_stack_without_mirrors_matches_trace(self):
        # each coherence is real or imaginary, so its entries hold one
        # coordinate of each mirrored pair: x_rc for a real rho_rc (r < c),
        # x_cr for an imaginary one, and the other coordinate reads as 0
        rng = np.random.default_rng(9)
        dim = self.space.dim
        rows, cols = np.divmod(np.arange(dim * dim), dim)
        upper = rows < cols
        real = rng.random(dim * dim) < 0.5
        held = (rows == cols) | (upper & real) | (~upper & ~real[cols * dim
                                                                  + rows])
        rhos = []
        for _ in range(5):
            a = rng.normal(size=(dim, dim))
            rho = np.triu(np.where(real.reshape(dim, dim), a, 1j * a), 1)
            rhos.append(rho + rho.conj().T + np.diag(dim + a.diagonal()))
        rhos = np.array(rhos)
        whole = _whole(self.space, 2)
        x = hermitian_coordinates(rhos.reshape(len(rhos), -1), whole)
        entries = rows[held], cols[held]
        assert np.array_equal(hermitian_values(x[:, held], entries),
                              rhos[:, rows[held], cols[held]])
        ops = ObservableOps(self.space, entries, *self.gammas)
        for recorder in ("record_from_density", "record_from_nh_density"):
            self._check(ops, recorder, x[:, held],
                        lambda op: np.einsum("jk,skj->s", op, rhos))

    def test_vector_stack_matches_vdot(self):
        rng = np.random.default_rng(8)
        dim = self.space.dim
        psis = rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim))
        self._check(ObservableOps(self.space, _whole(self.space, 1),
                                  *self.gammas), "record_from_pure", psis,
                    lambda op: np.einsum("sj,jk,sk->s", psis.conj(), op, psis))


class TestRecorderChecks:
    def test_vacuum_warns_undefined_renormalization(self):
        space = FockSpace(2, 2)
        rho = np.zeros((space.dim, space.dim), dtype=complex)
        rho[space.index(0, 0), space.index(0, 0)] = 1.0
        times = np.linspace(0.0, 1.0 / GAMMA_A, 5)
        traj = evolve_density(QuantumState(space, rho), make_params(), times)
        assert np.all(np.isnan(traj.n_a))
        assert traj.warnings == [
            "renormalized observables undefined (<N> <= 0) at 5 samples, "
            "first at t=0.000000e+00"]

    def test_negative_population_is_numerical_failure(self):
        space = FockSpace(2, 2)
        rho = np.zeros((space.dim, space.dim), dtype=complex)
        rho[space.index(0, 0), space.index(0, 0)] = 1.5
        rho[space.index(1, 0), space.index(1, 0)] = -0.5
        times = np.linspace(0.0, 1.0 / GAMMA_A, 5)
        with pytest.raises(FloatingPointError, match="negative"):
            evolve_density(QuantumState(space, rho), make_params(), times)

    def test_negative_moment_diagonal_is_numerical_failure(self):
        n00 = np.array([-1e-11, -1e-9], dtype=complex)
        n01 = np.zeros(2, dtype=complex)
        n11 = np.ones(2, dtype=complex)
        assert record_from_moments(n00[:1], n01[:1], n11[:1])["n_a_raw"][0] \
            == -1e-11
        with pytest.raises(FloatingPointError, match="moment diagonal"):
            record_from_moments(n00, n01, n11)


class TestValidation:
    """Input from outside the program is checked where it enters."""

    @pytest.mark.parametrize("samples, params, match", [
        (4, make_params(), "insufficient sampling"),
        (5, make_params(g=0.0, gamma_a=0.0, gamma_b=0.0), "all rates vanish"),
    ], ids=["samples", "rates"])
    def test_invalid_input_raises(self, samples, params, match):
        ones = np.ones(samples)
        times = np.arange(1.0, samples + 1)
        traj = ObservableTrajectory("lindblad", 1.0, times, ones, ones,
                                    ones.astype(complex), ones)
        with pytest.raises(ValueError, match=match):
            derivative_residual(traj, params, (ones,), (ones,))
