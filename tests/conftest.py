"""Shared constants and builders for the test suite.

The experimental parameter set (rad/s) used throughout: a lossy cavity mode
at 1.02e10 coupled to a mechanical mode at 1.59e7 with decay rates 3.26e5
and 3.00e2, probed at three couplings (strong, balanced-loss, weak).
"""
import numpy as np
import pytest

from ptdimer import OdeProblem, SystemParams, integrate_adaptive
from ptdimer.lindblad import liouville_block
from ptdimer.observables import hermitian_values

OMEGA_A = 1.02e10
OMEGA_B = 1.59e7
GAMMA_A = 3.26e5
GAMMA_B = 3.00e2

G_STRONG = 1.33e-2 * OMEGA_B        # 2.1147e5, oscillatory regime
G_BALANCED = (GAMMA_A - GAMMA_B) / 4.0   # 8.1425e4, degeneracy point
G_WEAK = 1.33e-3 * OMEGA_B          # 2.1147e4, overdamped regime

ROOM_T = 293.0


def make_params(g=G_STRONG, temperature=0.0, **overrides):
    kwargs = dict(omega_a=OMEGA_A, omega_b=OMEGA_B, gamma_a=GAMMA_A,
                  gamma_b=GAMMA_B, g=g, temperature=temperature)
    kwargs.update(overrides)
    return SystemParams(**kwargs)


def sampled_states(state, params, times, *, jumps=True, rtol=1e-9,
                   atol=1e-12):
    """The entries a Fock engine evolves from ``state`` and the state's
    values there at ``times``, as (entries, values (S, m)).

    Makes the engines' two calls, ``liouville_block`` and then
    ``integrate_adaptive`` on the linear problem. A density block holds the
    real coordinates its start reaches, one per entry, and may leave out an
    entry's mirror; it comes back as its complex entries on the transpose
    closure of those entries, a left-out mirror's value being the conjugate
    of its held entry's (``hermitian_values``).
    """
    entries, y0, rhs = liouville_block(state, params, jumps=jumps)
    times = np.asarray(times, dtype=float)
    sol = integrate_adaptive(OdeProblem(rhs, y0, (0.0, float(times[-1])),
                                        times, rtol=rtol, atol=atol,
                                        linear=True))
    if len(entries) == 1:
        return entries, sol.states
    values = hermitian_values(sol.states, entries)
    rows, cols = entries
    dim = state.space.dim
    key = rows * dim + cols
    closure = np.union1d(key, cols * dim + rows)
    rows, cols = np.divmod(closure, dim)
    at = np.minimum(np.searchsorted(key, closure), key.size - 1)
    mirror = np.minimum(np.searchsorted(key, cols * dim + rows), key.size - 1)
    return (rows, cols), np.where(key[at] == closure, values[:, at],
                                  values[:, mirror].conj())


def moment_rhs(m, params):
    """Closed system for (x, y, z) = (<c^dag c>, <d^dag d>, <c^dag d>), the
    scalar reference for the package's moment flow.

    dx/dt = 2 g Im z - gamma_a x + gamma_a nbar_a
    dy/dt = -2 g Im z - gamma_b y + gamma_b nbar_b
    dz/dt = i g (y - x) - (gamma_a + gamma_b) z / 2

    with the bath occupations of ``params``. The thermal sources vanish at
    zero temperature; the coherence has no thermal source at any temperature.
    """
    x, y, z = m
    nbar_a, nbar_b = params.nbar_a(), params.nbar_b()
    g = params.g
    dx = 2.0 * g * z.imag - params.gamma_a * x + params.gamma_a * nbar_a
    dy = -2.0 * g * z.imag - params.gamma_b * y + params.gamma_b * nbar_b
    dz = 1j * g * (y - x) - 0.5 * (params.gamma_a + params.gamma_b) * z
    return np.array([dx, dy, dz], dtype=complex)


def random_density(rng, dim):
    """Random positive unit-trace Hermitian matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def exp_params():
    return make_params()
