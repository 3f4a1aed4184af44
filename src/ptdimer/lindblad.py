"""Lindblad master equation on the truncated two-mode space.

d rho/dt = i[rho, H] + sum_k rate_k D[A_k] rho with thermal up/down channels
on both modes, evaluated in its no-jump + jump form

    d rho/dt = -i(H_eff rho - rho H_eff^dag) + sum_k rate_k A_k rho A_k^dag,
    H_eff = H - (i/2) sum_k rate_k A_k^dag A_k,

on dense arrays, each jump applied as an index gather. Only the basis
indices the initial state can reach under the ladder moves of H and the jumps
are evolved (``fock.reachable_indices``), and H and the channels are built on
those indices alone: at zero temperature the jumps only lower the excitation
number, so a state with at most N0 quanta stays in n_a + n_b <= N0; at T > 0
the up-jumps reach the whole product truncation. The generator is linear and
time-invariant, so ``ode.integrate_adaptive`` propagates it exactly: it
probes this RHS for the matrix of the generator on the density-matrix
entries the initial state reaches (for |5,0> at zero temperature the 91
entries of the Delta N = 0 blocks) and steps with its exponential; the full
superoperator is never formed. States above ``ode.EXACT_MAX_ENTRIES``
entries, such as most thermal runs, keep the adaptive integrator. At zero
temperature H_eff is the lossy Hamiltonian H_L, and the non-Hermitian engine
evolves mixed states with the same generator and no jumps.
``dissipator_apply`` keeps the textbook D[A] form as an independent
reference. Also hosts the closed first-moment system (occupations +
coherence) and its finite-difference consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, QuantumState, beam_splitter_hamiltonian, \
    hamiltonian_moves, mode_annihilator, reachable_indices
from .observables import ObservableOps, ObservableTrajectory
from .ode import OdeProblem, integrate_adaptive
from .params import SystemParams, thermal_occupation


@dataclass(frozen=True)
class LindbladChannel:
    """Jump operator (a dense array on the evolved basis) with its rate >= 0.

    The operator is one ladder move (``fock.ladder``): at most one nonzero
    per row, which lets ``density_generator`` apply the jump as a gather.
    """

    operator: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.rate) or self.rate < 0.0:
            raise ValueError(f"channel rate must be finite and >= 0, got {self.rate}")
        if np.any(np.count_nonzero(self.operator, axis=1) > 1):
            raise ValueError("jump operator must be a ladder move: at most "
                             "one nonzero per row")


def _thermal_rates(params: SystemParams) -> list[tuple[tuple[int, int], float]]:
    """Ladder move and rate of the channels c, c^dag, d, d^dag."""
    nbar_a = thermal_occupation(params.omega_a, params.temperature)
    nbar_b = thermal_occupation(params.omega_b, params.temperature)
    return [((-1, 0), params.gamma_a * (nbar_a + 1.0)),
            ((1, 0), params.gamma_a * nbar_a),
            ((0, -1), params.gamma_b * (nbar_b + 1.0)),
            ((0, 1), params.gamma_b * nbar_b)]


def lindblad_moves(params: SystemParams) -> list[tuple[int, int]]:
    """Ladder moves of the generator: the beam splitter's and those of every
    channel with a positive rate."""
    return hamiltonian_moves(params.g) \
        + [move for move, rate in _thermal_rates(params) if rate > 0.0]


def thermal_channels(params: SystemParams, space: FockSpace,
                     keep=None) -> list[LindbladChannel]:
    """Thermal dissipation channels for both modes on the basis indices ``keep``.

    Mode a: rate gamma_a*(nbar_a+1) on c and gamma_a*nbar_a on c^dag; likewise
    for mode b. Zero-rate channels are dropped. c^dag is the adjoint of the
    restricted c, which is exact for any ``keep`` (default: all).
    """
    c = mode_annihilator("a", space, keep)
    d = mode_annihilator("b", space, keep)
    ops = (c, c.conj().T, d, d.conj().T)
    return [LindbladChannel(op, rate)
            for op, (_, rate) in zip(ops, _thermal_rates(params)) if rate > 0.0]


def dissipator_apply(channel_op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[A] rho = A rho A^dag - (A^dag A rho + rho A^dag A)/2 at unit rate."""
    a = np.asarray(channel_op, dtype=complex)
    ad = a.conj().T
    ada = ad @ a
    rho = np.asarray(rho, dtype=complex)
    return a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada)


def effective_hamiltonian(hamiltonian: np.ndarray,
                          channels: list[LindbladChannel] = ()) -> np.ndarray:
    """H_eff = H - (i/2) sum_k rate_k A_k^dag A_k.

    On a restricted basis this equals the restricted full-space H_eff when
    the basis is closed under every channel, as ``reachable_indices`` gives.
    """
    h_eff = hamiltonian
    for ch in channels:
        h_eff = h_eff - 0.5j * ch.rate * (ch.operator.conj().T @ ch.operator)
    return h_eff


def _jump_gather(channel: LindbladChannel):
    """Flat target indices, source indices and weights of rate A rho A^dag.

    A ladder move has at most one nonzero per row, A[i, s_i] = f_i, so the
    jump term is rate f_i conj(f_j) rho[s_i, s_j] on the rows A reaches: an
    O(d^2) gather in place of two O(d^3) products.
    """
    dim = len(channel.operator)
    rows, src = np.nonzero(channel.operator)
    f = channel.operator[rows, src]
    return ((rows[:, None] * dim + rows).ravel(),
            (src[:, None] * dim + src).ravel(),
            channel.rate * np.outer(f, f.conj()).ravel())


def density_generator(hamiltonian: np.ndarray,
                      channels: list[LindbladChannel] = ()):
    """Flat-vector RHS of d rho/dt = -i(H_eff rho - rho H_eff^dag) + jumps.

    H_eff = H - (i/2) sum_k rate_k A_k^dag A_k and the jump term is
    sum_k rate_k A_k rho A_k^dag, applied as an index gather
    (``_jump_gather``). With no channels this is the no-jump evolution under
    ``hamiltonian`` itself, which may be non-Hermitian. The operators may be
    built on a restricted basis closed under H_eff and the jumps; rho then
    lives on that basis too. The RHS is linear and time-invariant.
    """
    dim = len(hamiltonian)
    k = -1j * effective_hamiltonian(hamiltonian, channels)
    kd = k.conj().T  # -i(H_eff rho - rho H_eff^dag) = K rho + rho K^dag
    jumps = [_jump_gather(ch) for ch in channels]

    def rhs(t, yflat):
        rho = yflat.reshape(dim, dim)
        out = (k @ rho + rho @ kd).ravel()
        for target, source, weight in jumps:
            out[target] += weight * yflat[source]
        return out
    return rhs


def lindblad_rhs(rho: np.ndarray, hamiltonian: np.ndarray,
                 channels: list[LindbladChannel]) -> np.ndarray:
    """Full generator i[rho, H] + sum rate*D[A]rho, via density_generator."""
    rho = np.asarray(rho, dtype=complex)
    return density_generator(hamiltonian, channels)(0.0, rho.ravel()) \
        .reshape(rho.shape)


def evolve_density(state0, params: SystemParams, space: FockSpace,
                   sample_times, *, rtol: float = 1e-9, atol: float = 1e-12,
                   interaction_picture: bool = True,
                   keep_states: bool = False) -> ObservableTrajectory:
    """Evolve a density matrix and record observables at the sample times.

    ``state0`` may be a QuantumState (pure states are promoted to projectors)
    or a raw density matrix; only the basis indices it can reach are evolved,
    and every operator is built on them alone (see the module docstring).
    With ``interaction_picture`` the omega_b*(n_a+n_b) rotation is removed
    from the Hamiltonian; all recorded observables are invariant under that
    choice. A warning is attached when the top Fock level of either mode
    accumulates more than 1e-6 population. With ``keep_states`` the
    ``snapshots`` are the full (S, d, d) sampled states, exactly zero outside
    the evolved indices.
    """
    if not isinstance(state0, QuantumState):
        state0 = QuantumState(space, state0)
    omega = 0.0 if interaction_picture else params.omega_b
    keep = reachable_indices(state0, lindblad_moves(params))
    h = beam_splitter_hamiltonian(omega, params.g, space, keep)
    rhs = density_generator(h, thermal_channels(params, space, keep))

    samples = np.asarray(sample_times, dtype=float)
    problem = OdeProblem(rhs, state0.density(keep).ravel(),
                         (0.0, float(samples[-1])), samples, rtol=rtol,
                         atol=atol, linear=True)
    sol = integrate_adaptive(problem)

    ops = ObservableOps(space, params.gamma_a, params.gamma_b, keep)
    rhos = sol.states.reshape(-1, len(keep), len(keep))
    return ObservableTrajectory(
        "lindblad", params.omega_b, sol.times, **ops.record_from_density(rhos),
        stats=sol.stats, warnings=ops.leakage_warnings(sol.times, rhos),
        snapshots=ops.embed(rhos) if keep_states else None, atol=atol)


def moment_rhs(m, params: SystemParams, temperature: float = 0.0):
    """Closed system for (x, y, z) = (<c^dag c>, <d^dag d>, <c^dag d>).

    dx/dt = 2 g Im z - gamma_a x + gamma_a nbar_a
    dy/dt = -2 g Im z - gamma_b y + gamma_b nbar_b
    dz/dt = i g (y - x) - (gamma_a + gamma_b) z / 2

    The thermal sources vanish at zero temperature; the coherence has no
    thermal source at any temperature.
    """
    x, y, z = m
    nbar_a = thermal_occupation(params.omega_a, temperature)
    nbar_b = thermal_occupation(params.omega_b, temperature)
    g = params.g
    dx = 2.0 * g * z.imag - params.gamma_a * x + params.gamma_a * nbar_a
    dy = -2.0 * g * z.imag - params.gamma_b * y + params.gamma_b * nbar_b
    dz = 1j * g * (y - x) - 0.5 * (params.gamma_a + params.gamma_b) * z
    return np.array([dx, dy, dz], dtype=complex)


def moment_closure_residual(traj: ObservableTrajectory, params: SystemParams,
                            temperature: float = 0.0) -> float:
    """Deviation of a trajectory's raw moments from the closed moment system.

    Central finite differences of (x, y, z) against moment_rhs, both measured
    in time units of the fastest rate max(gamma_a, gamma_b, 2g), so the result
    is dimensionless. Endpoints are excluded. Needs at least five samples.
    """
    if len(traj.times) < 5:
        raise ValueError("insufficient sampling density for finite differences")
    scale = max(params.gamma_a, params.gamma_b, 2.0 * params.g)
    if scale <= 0.0:
        raise ValueError("all rates vanish; residual scale undefined")
    tau = traj.times * scale
    x = traj.n_a_raw
    y = traj.n_b_raw
    z = traj.coherence
    dx = np.gradient(x, tau, edge_order=2)
    dy = np.gradient(y, tau, edge_order=2)
    dz = np.gradient(z, tau, edge_order=2)
    rx, ry, rz = moment_rhs((x, y, z), params, temperature)
    core = slice(1, -1)
    res_x = np.abs(dx - rx / scale)[core]
    res_y = np.abs(dy - ry / scale)[core]
    res_z = np.abs(dz - rz / scale)[core]
    return float(max(res_x.max(), res_y.max(), res_z.max()))
