"""Stack recorders against dense expectation oracles, and their checks."""
import numpy as np
import pytest

from ptdimer import FockSpace, evolve_density, mode_annihilator
from ptdimer.observables import ObservableOps, ObservableTrajectory, \
    derivative_residual, record_from_moments
from conftest import GAMMA_A, make_params, random_density


def _dense_ops(space):
    c = mode_annihilator("a", space)
    d = mode_annihilator("b", space)
    return {"n_a_raw": c.conj().T @ c, "n_b_raw": d.conj().T @ d,
            "coherence": c.conj().T @ d}


class TestStackRecorders:
    # unequal mode dimensions catch a row/column swap in the hop contraction
    space = FockSpace(3, 4)

    def _check(self, cols, oracle):
        for name, expected in oracle.items():
            got = cols[name]
            assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected)), \
                name

    @pytest.mark.parametrize("recorder", ["record_from_density",
                                          "record_from_nh_density"])
    def test_density_stack_matches_trace(self, recorder):
        rng = np.random.default_rng(7)
        rhos = np.array([random_density(rng, self.space.dim) for _ in range(5)])
        cols = getattr(ObservableOps(self.space), recorder)(rhos)
        self._check(cols, {name: np.array([np.trace(op @ rho) for rho in rhos])
                           for name, op in _dense_ops(self.space).items()})

    def test_vector_stack_matches_vdot(self):
        rng = np.random.default_rng(8)
        dim = self.space.dim
        psis = rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim))
        cols = ObservableOps(self.space).record_from_pure(psis)
        self._check(cols, {name: np.array([np.vdot(psi, op @ psi)
                                           for psi in psis])
                           for name, op in _dense_ops(self.space).items()})


class TestRecorderChecks:
    def test_vacuum_warns_undefined_renormalization(self):
        space = FockSpace(2, 2)
        rho = np.zeros((space.dim, space.dim), dtype=complex)
        rho[space.index(0, 0), space.index(0, 0)] = 1.0
        times = np.linspace(0.0, 1.0 / GAMMA_A, 5)
        traj = evolve_density(rho, make_params(), space, times)
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
            evolve_density(rho, make_params(), space, times)

    def test_complex_trace_is_numerical_failure(self):
        # on the vacuum entry only the trace sees the imaginary part
        space = FockSpace(2, 2)
        rho = np.zeros((1, space.dim, space.dim), dtype=complex)
        rho[0, 0, 0] = 1.0 + 1e-9j
        with pytest.raises(FloatingPointError, match="trace has imaginary"):
            ObservableOps(space).record_from_density(rho)

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
