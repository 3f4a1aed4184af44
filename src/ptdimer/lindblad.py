"""Lindblad master equation on the truncated two-mode space.

d rho/dt = i[rho, H] + sum_k rate_k D[A_k] rho with thermal up/down channels
on both modes, evaluated in its no-jump + jump form

    d rho/dt = -i(H_eff rho - rho H_eff^dag) + sum_k rate_k A_k rho A_k^dag,
    H_eff = H - (i/2) sum_k rate_k A_k^dag A_k,

on dense arrays; no superoperator matrix is ever formed. Only the basis
indices the initial state can reach under H_eff and the jumps are evolved
(``fock.reachable_indices``): at zero temperature the jumps only lower the
excitation number, so a state with at most N0 quanta stays in n_a + n_b <= N0;
at T > 0 the up-jumps reach the whole product truncation. At zero temperature
H_eff is the lossy Hamiltonian H_L, and the non-Hermitian engine evolves mixed
states with the same generator and no jumps. ``dissipator_apply`` keeps the
textbook D[A] form as an independent reference. Also hosts the closed
first-moment system (occupations + coherence) and its finite-difference
consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockOperator, FockSpace, QuantumState, beam_splitter_hamiltonian, \
    mode_annihilator, reachable_indices
from .observables import ObservableOps, ObservableTrajectory
from .ode import OdeProblem, integrate_adaptive
from .params import SystemParams, thermal_occupation


@dataclass(frozen=True)
class LindbladChannel:
    """Jump operator with its nonnegative rate."""

    operator: FockOperator
    rate: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.rate) or self.rate < 0.0:
            raise ValueError(f"channel rate must be finite and >= 0, got {self.rate}")


def thermal_channels(params: SystemParams, space: FockSpace) -> list[LindbladChannel]:
    """Thermal dissipation channels for both modes.

    Mode a: rate gamma_a*(nbar_a+1) on c and gamma_a*nbar_a on c^dag; likewise
    for mode b. Zero-rate channels are dropped.
    """
    nbar_a = thermal_occupation(params.omega_a, params.temperature)
    nbar_b = thermal_occupation(params.omega_b, params.temperature)
    c = mode_annihilator("a", space)
    d = mode_annihilator("b", space)
    raw = [
        (c, params.gamma_a * (nbar_a + 1.0)),
        (c.dag(), params.gamma_a * nbar_a),
        (d, params.gamma_b * (nbar_b + 1.0)),
        (d.dag(), params.gamma_b * nbar_b),
    ]
    return [LindbladChannel(op, rate) for op, rate in raw if rate > 0.0]


def dissipator_apply(channel_op: FockOperator, rho: np.ndarray) -> np.ndarray:
    """D[A] rho = A rho A^dag - (A^dag A rho + rho A^dag A)/2 at unit rate."""
    a = channel_op.matrix
    ad = a.conj().T
    ada = ad @ a
    rho = np.asarray(rho, dtype=complex)
    return a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada)


def effective_hamiltonian(hamiltonian: FockOperator,
                          channels: list[LindbladChannel] = ()) -> FockOperator:
    """H_eff = H - (i/2) sum_k rate_k A_k^dag A_k."""
    h_eff = hamiltonian
    for ch in channels:
        h_eff = h_eff - 0.5j * ch.rate * (ch.operator.dag() @ ch.operator)
    return h_eff


def density_generator(hamiltonian: FockOperator,
                      channels: list[LindbladChannel] = (), keep=None):
    """Flat-vector RHS of d rho/dt = -i(H_eff rho - rho H_eff^dag) + jumps.

    H_eff = H - (i/2) sum_k rate_k A_k^dag A_k and the jump term is
    sum_k rate_k A_k rho A_k^dag. With no channels this is the no-jump
    evolution under ``hamiltonian`` itself, which may be non-Hermitian.
    ``keep`` restricts rho to the rows and columns of those basis indices
    (default: all); it must be closed under H_eff and the jumps, as
    ``fock.reachable_indices`` gives.
    """
    dim = hamiltonian.space.dim if keep is None else len(keep)
    k = -1j * effective_hamiltonian(hamiltonian, channels).toarray(keep)
    kd = k.conj().T  # -i(H_eff rho - rho H_eff^dag) = K rho + rho K^dag
    jumps = []
    for ch in channels:
        a = ch.operator.toarray(keep)
        jumps.append((ch.rate * a, a.conj().T))

    def rhs(t, yflat):
        rho = yflat.reshape(dim, dim)
        out = k @ rho + rho @ kd
        for ra, ad in jumps:
            out += (ra @ rho) @ ad
        return out.ravel()
    return rhs


def lindblad_rhs(rho: np.ndarray, hamiltonian: FockOperator,
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
    or a raw density matrix; only the basis indices it can reach are evolved
    (see the module docstring). With ``interaction_picture`` the
    omega_b*(n_a+n_b) rotation is removed from the Hamiltonian; all recorded
    observables are invariant under that choice. A warning is attached when
    the top Fock level of either mode accumulates more than 1e-6 population.
    With ``keep_states`` the ``snapshots`` are the full (S, d, d) sampled
    states, exactly zero outside the evolved indices.
    """
    if not isinstance(state0, QuantumState):
        state0 = QuantumState(space, state0)
    omega = 0.0 if interaction_picture else params.omega_b
    h = beam_splitter_hamiltonian(omega, params.g, space)
    channels = thermal_channels(params, space)
    keep = reachable_indices(
        state0, [effective_hamiltonian(h, channels)]
        + [ch.operator for ch in channels])
    rho0 = state0.density()[np.ix_(keep, keep)]
    rhs = density_generator(h, channels, keep)

    samples = np.asarray(sample_times, dtype=float)
    problem = OdeProblem(rhs, rho0.ravel(), (0.0, float(samples[-1])), samples,
                         rtol=rtol, atol=atol)
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
