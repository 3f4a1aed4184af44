"""Exact second-moment (Gaussian) dynamics of the lossy dimer.

The 2x2 matrix N_jk = <v_j^dag v_k> with v = (c, d) obeys
dN/dt = i(conj(M) N - N M^T) + D, where M is the non-Hermitian drift and
D = diag(gamma_a nbar_a, gamma_b nbar_b) the thermal diffusion. This is exact
for any state at harmonic order (no truncation), covering lab-scale thermal
occupations out of reach of the Fock-space engines. It is propagated exactly,
with the matrix exponential of the Fock engines.
"""

from __future__ import annotations

import numpy as np

from .observables import ObservableTrajectory, record_from_moments
from .ode import OdeProblem, integrate_adaptive
from .params import SystemParams, thermal_occupation


def drift_matrix(params: SystemParams) -> np.ndarray:
    """M = [[omega_b - i gamma_a/2, g], [g, omega_b - i gamma_b/2]]."""
    return np.array([
        [params.omega_b - 0.5j * params.gamma_a, params.g],
        [params.g, params.omega_b - 0.5j * params.gamma_b],
    ], dtype=complex)


def diffusion_matrix(params: SystemParams, temperature: float) -> np.ndarray:
    """D = diag(gamma_a*nbar_a, gamma_b*nbar_b) at the given bath temperature."""
    return np.diag([
        params.gamma_a * thermal_occupation(params.omega_a, temperature),
        params.gamma_b * thermal_occupation(params.omega_b, temperature),
    ])


def moment_flow_rhs(n_mat: np.ndarray, m_mat: np.ndarray,
                    d_mat: np.ndarray) -> np.ndarray:
    """dN/dt = i(conj(M) N - N M^T) + D.

    Any real multiple of the identity added to M cancels exactly, so the flow
    is independent of the omega_b rotation.
    """
    return 1j * (m_mat.conj() @ n_mat - n_mat @ m_mat.T) + d_mat


def check_moment_state(n_mat: np.ndarray, what: str = "moment matrix") -> np.ndarray:
    """Validate Hermiticity, positive semidefiniteness, and real diagonal."""
    n_mat = np.asarray(n_mat, dtype=complex)
    if n_mat.shape != (2, 2):
        raise ValueError(f"{what} must be 2x2")
    scale = max(1.0, float(np.abs(n_mat).max()))
    if np.abs(n_mat - n_mat.conj().T).max() > 1e-10 * scale:
        raise ValueError(f"{what} is not Hermitian")
    eigs = np.linalg.eigvalsh(n_mat)
    if eigs.min() < -1e-8 * scale:
        raise ValueError(f"{what} is not positive semidefinite "
                         f"(min eigenvalue {eigs.min():.3e})")
    return n_mat


def thermal_moment_state(params: SystemParams, temperature: float) -> np.ndarray:
    """Second moments of a thermal product state: diag(nbar_a, nbar_b)."""
    return np.diag([
        thermal_occupation(params.omega_a, temperature),
        thermal_occupation(params.omega_b, temperature),
    ]).astype(complex)


def _moment_generator(params: SystemParams, temperature: float):
    """(L, vec D) of d vec(N)/dt = L vec(N) + vec(D), N row-major, in the
    frame rotating at omega_b (exactly neutral, see moment_flow_rhs)."""
    m_int = drift_matrix(params) - params.omega_b * np.eye(2)
    eye = np.eye(2, dtype=complex)
    # vec(A N) = (A (x) I) vec(N), vec(N B) = (I (x) B^T) vec(N)
    lin = 1j * (np.kron(m_int.conj(), eye) - np.kron(eye, m_int))
    return lin, diffusion_matrix(params, temperature).ravel().astype(complex)


def evolve_moments(n0: np.ndarray, params: SystemParams, temperature: float,
                   sample_times) -> ObservableTrajectory:
    """Propagate the moment flow exactly; record observables at the samples.

    With a constant s = max(1, max|N0|) appended to vec(N) the flow is linear,
    y' = [[L, D/s], [0, 0]] y, and takes the exact path of
    ``integrate_adaptive``, which needs no tolerances. Unlike a shift by the
    steady state, this also covers undamped flows.
    """
    n0 = check_moment_state(n0, "initial moment matrix")
    scale = max(1.0, float(np.abs(n0).max()))
    lin, diffusion = _moment_generator(params, temperature)
    generator = np.vstack([np.column_stack([lin, diffusion / scale]),
                           np.zeros(5)])
    samples = np.asarray(sample_times, dtype=float)
    sol = integrate_adaptive(OdeProblem(
        lambda t, y: generator @ y, np.append(n0.ravel(), scale),
        (0.0, float(samples[-1])), samples, linear=True))
    # N00, N01 and N11 are entries 0, 1 and 3 of y; one the flow does not
    # reach (N01 at g = 0) stays 0
    evolved = dict(zip(sol.support.tolist(), sol.states.T))
    n00, n01, n11 = (evolved[k] if k in evolved
                     else np.zeros(len(sol.times), dtype=complex)
                     for k in (0, 1, 3))
    return ObservableTrajectory(
        "gaussian", params.omega_b, sol.times,
        **record_from_moments(n00, n01, n11), stats=sol.stats)


def steady_state_moments(params: SystemParams, temperature: float) -> np.ndarray:
    """Unique fixed point of the moment flow, from the vectorized linear solve.

    Raises ValueError when the flow has no decaying steady state (both
    dampings zero, or an undamped decoupled mode).
    """
    if params.gamma_a == 0.0 and params.gamma_b == 0.0:
        raise ValueError("undamped system has no steady state")
    lin, diffusion = _moment_generator(params, temperature)
    try:
        n_flat = np.linalg.solve(lin, -diffusion)
    except np.linalg.LinAlgError as exc:
        raise ValueError("moment flow is singular: no steady state") from exc
    n_ss = n_flat.reshape(2, 2)
    return 0.5 * (n_ss + n_ss.conj().T)


def count_prominent_extrema(values, rel_prominence: float = 1e-4) -> int:
    """Count interior extrema whose swing exceeds rel_prominence of the range.

    Turning points of the sequence are kept only when they differ from both
    neighboring turning points by at least rel_prominence*(max-min). The
    default floor sits orders of magnitude above the rounding of the exact
    propagator (~1e-15 relative) but below any physically meaningful
    oscillation swing, so it filters wiggles without hiding real extrema.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return 0
    span = float(v.max() - v.min())
    if span == 0.0:
        return 0
    turns = [0]
    direction = 0.0
    last = 0  # most recent index with a distinct value (plateaus skipped)
    for i in range(1, v.size):
        if v[i] == v[last]:
            continue
        s = 1.0 if v[i] > v[last] else -1.0
        if direction != 0.0 and s != direction:
            turns.append(last)
        direction = s
        last = i
    turns.append(v.size - 1)
    count = 0
    floor = rel_prominence * span
    for j in range(1, len(turns) - 1):
        left = abs(v[turns[j]] - v[turns[j - 1]])
        right = abs(v[turns[j]] - v[turns[j + 1]])
        if min(left, right) >= floor:
            count += 1
    return count


def fit_decay_rate(times, values, asymptote: float = 0.0,
                   window: tuple[float, float] = (0.3, 0.9)) -> float:
    """Exponential decay rate of |values - asymptote| by log-linear fit.

    The fit uses the fraction of the span given by ``window`` so that fast
    initial transients are excluded. Returns the positive rate.
    """
    t = np.asarray(times, dtype=float)
    y = np.abs(np.asarray(values, dtype=float) - asymptote)
    lo = t[0] + window[0] * (t[-1] - t[0])
    hi = t[0] + window[1] * (t[-1] - t[0])
    mask = (t >= lo) & (t <= hi) & (y > 0)
    if mask.sum() < 4:
        raise ValueError("too few points in the fit window")
    slope, _ = np.polyfit(t[mask], np.log(y[mask]), 1)
    return float(-slope)
