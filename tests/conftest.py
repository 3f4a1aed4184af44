"""Shared constants, builders and references for the test suite.

The experimental parameter set (rad/s) used throughout: a lossy cavity mode
at 1.02e10 coupled to a mechanical mode at 1.59e7 with decay rates 3.26e5
and 3.00e2, probed at three couplings (strong, balanced-loss, weak).

The references are textbook forms that no engine runs: the dissipator
D[A], the matrix moment flow and the scalar one, and the inverse of the
real coordinate map of a density block with the dense generator it gives.
"""
import numpy as np
import pytest

from ptdimer import OdeProblem, SystemParams, integrate_adaptive
from ptdimer.lindblad import liouville_block

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


def coordinate_map(entries):
    """How a Hermitian rho at the density-matrix ``entries`` (sorted
    row-major) maps to its real coordinates, one per entry, and back.

    x = Re(unit rho), with unit 1 on and above the diagonal and i below it:
    x_rc = Re rho_rc for r <= c and Im rho_cr for r > c. Back, Re rho =
    re x[real_at] and Im rho = im x[imag_at]. A coordinate held at a mirror
    entry that ``entries`` leave out is 0, and its factor re or im is 0.
    Returns (unit, real_at, imag_at, re, im).
    """
    rows, cols = entries
    at = np.arange(rows.size)
    # keys r n + c are sorted with the entries; the mirror of (r, c) is
    # (c, r), held where its key is found
    n = 1 + max(rows.max(initial=0), cols.max(initial=0))
    key, mirror_key = rows * n + cols, cols * n + rows
    mirror = np.minimum(np.searchsorted(key, mirror_key), max(at.size - 1, 0))
    held = key[mirror] == mirror_key
    mirror = np.where(held, mirror, at)
    upper = rows <= cols
    return (np.where(upper, 1.0, 1j), np.where(upper, at, mirror),
            np.where(upper, mirror, at), np.where(upper | held, 1.0, 0.0),
            np.where(upper & ~held, 0.0, np.sign(cols - rows)))


def hermitian_values(x, entries):
    """rho at ``entries`` from its real coordinates x (..., m), a coordinate
    not held being 0; exactly Hermitian where an entry and its mirror are
    both held, with a real diagonal."""
    _, real_at, imag_at, re, im = coordinate_map(entries)
    out = np.empty(x.shape, dtype=complex)
    out.real = re * x[..., real_at]
    out.imag = im * x[..., imag_at]
    return out


def lindblad_rhs(state, params):
    """d rho/dt of the move-built generator (``liouville_block``) at
    ``state``, as a dense density matrix (pure states are promoted to
    projectors)."""
    entries, y0, rhs = liouville_block(state, params)
    dim = state.space.dim
    out = np.zeros((dim, dim), dtype=complex)
    values = hermitian_values(rhs(0.0, y0), entries)
    out[entries] = values
    out[entries[::-1]] = values.conj()  # the mirrors the block leaves out
    return out


def dissipator_apply(channel_op, rho):
    """D[A] rho = A rho A^dag - (A^dag A rho + rho A^dag A)/2 at unit rate."""
    a = np.asarray(channel_op, dtype=complex)
    ad = a.conj().T
    ada = ad @ a
    rho = np.asarray(rho, dtype=complex)
    return a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada)


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


def moment_flow_rhs(n_mat, m_mat, d_mat):
    """dN/dt = i(conj(M) N - N M^T) + D.

    Any real multiple of the identity added to M cancels exactly, so the flow
    is independent of the omega_b rotation.
    """
    return 1j * (m_mat.conj() @ n_mat - n_mat @ m_mat.T) + d_mat


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
