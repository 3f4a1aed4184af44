"""Post-selected (no-jump) evolution under the lossy Hamiltonian.

This is the no-jump half of the Lindblad generator: H_L is the H_eff of the
zero-temperature master equation, in the frame rotating at omega_b. Pure
states follow d|psi>/dt = -i H_L |psi> and mixed states
d rho/dt = -i(H_L rho - rho H_L^dag), both written by
``lindblad.liouville_block`` without jump terms (which takes the
zero-temperature channels), on the entries H_L connects to the initial state,
i.e. its own excitation-number blocks; a mixed state evolves as the real
coordinates of its block that it reaches
(``observables.hermitian_coordinates``). Both are linear, so
``ode.integrate_adaptive`` propagates them exactly on those entries (the 6 of
|5,0>'s N = 5 block for a pure state). The squared norm / trace decays
monotonically and observables are reported both raw (unnormalized) and
renormalized by the total occupation. Trajectories carry
the quartic loss moments <n_a (gamma_a n_a + gamma_b n_b)> and <n_b (...)>
that drive the occupation ODEs, enabling a finite-difference check.
"""

from __future__ import annotations

import numpy as np

# lossy_hamiltonian is unused here but stays importable: perfbench/tracing.py
# times it as a site of this module
from .fock import QuantumState, lossy_hamiltonian  # noqa: F401
from .lindblad import liouville_block
from .observables import ObservableOps, ObservableTrajectory, \
    derivative_residual, hermitian_coordinates, renormalized_ratios
from .ode import OdeProblem, integrate_adaptive
from .params import SystemParams

_NORM_FLOOR = 1e-300


def evolve_nonhermitian(state0: QuantumState, params: SystemParams,
                        sample_times, *, rtol: float = 1e-9,
                        atol: float = 1e-12) -> ObservableTrajectory:
    """Evolve a state under H_L and record observables at the sample times.

    A pure ``state0`` is evolved as a vector and a mixed one two-sided, on
    the excitation-number blocks of its space that it starts in. H_L holds
    the zero-temperature losses at any ``params.temperature``. If the squared
    norm underflows below 1e-300 the trajectory is truncated there with a
    warning.
    """
    entries, y0, rhs = liouville_block(state0, params, jumps=False)

    samples = np.asarray(sample_times, dtype=float)
    problem = OdeProblem(rhs, y0, (0.0, float(samples[-1])), samples,
                         rtol=rtol, atol=atol, linear=True)
    sol = integrate_adaptive(problem)

    ops = ObservableOps(state0.space, entries, params.gamma_a, params.gamma_b)
    record = ops.record_from_pure if state0.is_pure \
        else ops.record_from_nh_density
    cols = record(sol.states)
    under = np.flatnonzero(cols["weight"] < _NORM_FLOOR)
    kept = under[0] if under.size else len(sol.times)
    warnings = [f"norm underflow at t={sol.times[kept]:.6e}; trajectory "
                f"truncated"] if under.size else []
    return ObservableTrajectory(
        "nonhermitian", params.omega_b, sol.times[:kept],
        **{name: col[:kept] for name, col in cols.items()}, stats=sol.stats,
        warnings=warnings, atol=atol)


def renormalized_observables(state: QuantumState) -> tuple[float, float, complex]:
    """(n_a, n_b, g1) renormalized by the total occupation.

    Raises ValueError for states with zero total occupation (vacuum), where
    the ratios are undefined. Invariant: n_a + n_b = 1.
    """
    data = state.data
    entries = np.nonzero(data)
    ops = ObservableOps(state.space, entries)
    values = data[entries][np.newaxis]
    cols = ops.record_from_pure(values) if state.is_pure else \
        ops.record_from_nh_density(hermitian_coordinates(values, entries))
    n_a, n_b, g1 = renormalized_ratios(cols["n_a_raw"], cols["n_b_raw"],
                                       cols["coherence"])
    if np.isnan(n_a[0]):
        raise ValueError("renormalized observables are undefined: "
                         "total occupation <N> is zero")
    return float(n_a[0]), float(n_b[0]), complex(g1[0])


def occupation_ode_residual(traj: ObservableTrajectory,
                            params: SystemParams) -> float:
    """Consistency of raw occupations with their quartic-damped ODEs.

    dx/dt = +2 g Im<c^dag d> - <n_a(gamma_a n_a + gamma_b n_b)>
    dy/dt = -2 g Im<c^dag d> - <n_b(gamma_a n_a + gamma_b n_b)>

    against central finite differences (see ``derivative_residual``). Needs
    recorded quartics.
    """
    if traj.quartic_a is None:
        raise ValueError("trajectory lacks quartic loss moments")
    hop = 2.0 * params.g * traj.coherence.imag
    return derivative_residual(traj, params, (traj.n_a_raw, traj.n_b_raw),
                               (hop - traj.quartic_a, -hop - traj.quartic_b))
