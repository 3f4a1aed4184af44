"""Post-selected (no-jump) evolution under the lossy Hamiltonian.

This is the no-jump half of the Lindblad generator: H_L is the H_eff of the
zero-temperature master equation. Pure states follow d|psi>/dt = -i H_L |psi>
on a dense H_L; mixed states follow d rho/dt = -i(H_L rho - rho H_L^dag),
evaluated by ``lindblad.density_generator`` with no jump channels. The
squared norm / trace decays monotonically and observables are reported both
raw (unnormalized) and renormalized by the total occupation. Records carry the
quartic loss moments <n_a (gamma_a n_a + gamma_b n_b)> and <n_b (...)> that
drive the occupation ODEs, enabling a finite-difference consistency check.
"""

from __future__ import annotations

import numpy as np

from .fock import FockSpace, QuantumState, lossy_hamiltonian
from .lindblad import density_generator
from .observables import ObservableOps, ObservableTrajectory, renormalized_ratios
from .ode import OdeProblem, integrate_adaptive
from .params import SystemParams

_NORM_FLOOR = 1e-300


def evolve_nonhermitian(state0, params: SystemParams, space: FockSpace,
                        sample_times, *, rtol: float = 1e-9,
                        atol: float = 1e-12, interaction_picture: bool = True,
                        keep_states: bool = False) -> ObservableTrajectory:
    """Evolve a state under H_L and record observables at the sample times.

    Accepts a pure QuantumState (evolved as a vector) or a density matrix
    (evolved two-sided). If the squared norm underflows below 1e-300 the
    trajectory is truncated there with a warning.
    """
    if not isinstance(state0, QuantumState):
        state0 = QuantumState(space, state0)
    omega = 0.0 if interaction_picture else None
    h_lossy = lossy_hamiltonian(params, space, omega_b=omega)
    pure = state0.is_pure
    if pure:
        k = -1j * h_lossy.toarray()
        y0 = state0.data.copy()

        def rhs(t, psi):
            return k @ psi
    else:
        y0 = state0.density().ravel()
        rhs = density_generator(h_lossy)

    samples = np.asarray(sample_times, dtype=float)
    problem = OdeProblem(rhs, y0, (0.0, float(samples[-1])), samples,
                         rtol=rtol, atol=atol)
    sol = integrate_adaptive(problem)

    ops = ObservableOps(space, params.gamma_a, params.gamma_b)
    records = []
    kept_pops = []
    snapshots = [] if keep_states else None
    warnings = []
    for t, flat in zip(sol.times, sol.states):
        if pure:
            weight = float(np.vdot(flat, flat).real)
            pops = np.abs(flat) ** 2
        else:
            rho = flat.reshape(space.dim, space.dim)
            pops = np.diagonal(rho).real
            weight = float(pops.sum())
        if weight < _NORM_FLOOR:
            warnings.append(f"norm underflow at t={t:.6e}; trajectory truncated")
            break
        if pure:
            records.append(ops.record_from_pure(t, flat, quartics=True))
        else:
            records.append(ops.record_from_nh_density(t, rho))
        kept_pops.append(pops)
        if keep_states:
            snapshots.append(flat.copy() if pure else rho.copy())
    kept = len(records)
    warnings += ops.leakage_warnings(sol.times[:kept], kept_pops)
    return ObservableTrajectory("nonhermitian", params.omega_b,
                                sol.times[:kept], records, sol.stats,
                                warnings, snapshots)


def renormalized_observables(state: QuantumState) -> tuple[float, float, complex]:
    """(n_a, n_b, g1) renormalized by the total occupation.

    Raises ValueError for states with zero total occupation (vacuum), where
    the ratios are undefined. Invariant: n_a + n_b = 1.
    """
    ops = ObservableOps(state.space)
    if state.is_pure:
        pops = np.abs(state.data) ** 2
        x = float(np.dot(ops._diag_a, pops))
        y = float(np.dot(ops._diag_b, pops))
        z = ops.expect_pure(ops.hop, state.data)
    else:
        rho = state.data
        pops = np.diagonal(rho).real
        x = float(np.dot(ops._diag_a, pops))
        y = float(np.dot(ops._diag_b, pops))
        z = ops.expect_mixed(ops.hop, rho)
    return renormalized_ratios(x, y, z, strict=True)


def occupation_ode_residual(traj: ObservableTrajectory,
                            params: SystemParams) -> float:
    """Consistency of raw occupations with their quartic-damped ODEs.

    dx/dt = +2 g Im<c^dag d> - <n_a(gamma_a n_a + gamma_b n_b)>
    dy/dt = -2 g Im<c^dag d> - <n_b(gamma_a n_a + gamma_b n_b)>

    evaluated by central finite differences in time units of the fastest rate
    max(gamma_a, gamma_b, 2g); returns the maximum dimensionless residual over
    interior samples. Needs at least five samples and recorded quartics.
    """
    if len(traj.records) < 5:
        raise ValueError("insufficient sampling density for finite differences")
    if traj.records[0].quartic_a is None:
        raise ValueError("trajectory lacks quartic loss moments")
    scale = max(params.gamma_a, params.gamma_b, 2.0 * params.g)
    if scale <= 0.0:
        raise ValueError("all rates vanish; residual scale undefined")
    tau = traj.times[:len(traj.records)] * scale
    x = traj.n_a_raw
    y = traj.n_b_raw
    imz = traj.coherence.imag
    qa = traj.quartic_a
    qb = traj.quartic_b
    dx = np.gradient(x, tau, edge_order=2)
    dy = np.gradient(y, tau, edge_order=2)
    rx = (2.0 * params.g * imz - qa) / scale
    ry = (-2.0 * params.g * imz - qb) / scale
    core = slice(1, -1)
    return float(max(np.abs(dx - rx)[core].max(), np.abs(dy - ry)[core].max()))
