"""Adaptive Dormand-Prince 5(4) integrator for flat complex state vectors.

Deterministic by construction: no randomness, no threading, and sample times
are hit exactly by clamping the step, so identical inputs give bitwise
identical trajectories. The error norm is a scaled RMS over the real and
imaginary parts of the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Butcher tableau, Dormand & Prince (1980), order 5(4), 7 stages.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4  # weights of the embedded error estimate

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_ALPHA = 0.7 / 5.0  # PI controller exponents (Gustafsson)
_PI_BETA = 0.4 / 5.0
_MAX_STEPS = 2_000_000


class IntegrationFailure(RuntimeError):
    """Step-size underflow or step budget exhausted; carries the time reached."""

    def __init__(self, message: str, t_reached: float) -> None:
        super().__init__(f"{message} (integration reached t={t_reached:.6e})")
        self.t_reached = t_reached


@dataclass
class IntegratorStats:
    steps: int = 0
    rejected: int = 0
    rhs_evaluations: int = 0


@dataclass
class OdeProblem:
    """Right-hand side, initial state, span, and requested sample times."""

    rhs: Callable[[float, np.ndarray], np.ndarray]
    y0: np.ndarray
    t_span: tuple[float, float]
    sample_times: np.ndarray
    rtol: float = 1e-9
    atol: float = 1e-12


@dataclass
class Trajectory:
    """Integrator output: states has one row per requested sample time."""

    times: np.ndarray
    states: np.ndarray
    stats: IntegratorStats = field(default_factory=IntegratorStats)


def step_embedded(rhs, t: float, y: np.ndarray, h: float):
    """One Dormand-Prince 5(4) step.

    Returns (y5, err) where y5 is the fifth-order solution at t+h and err is
    the embedded fourth-order error estimate vector y5 - y4. Uses 7 rhs
    evaluations; ``integrate_adaptive`` reuses the first and last of them
    across steps instead.
    """
    y5, err, _ = _step(rhs, t, y, h, rhs(t, y))
    return y5, err


def _step(rhs, t: float, y: np.ndarray, h: float, k1: np.ndarray):
    """Dormand-Prince step from the first stage ``k1`` = rhs(t, y).

    Returns (y5, err, k7); the last stage k7 = rhs(t + h, y5) is the first
    stage of the next step (first same as last).
    """
    k = [k1]
    for i in range(1, 7):
        yi = y + h * sum(a * ki for a, ki in zip(_A[i], k))
        k.append(rhs(t + _C[i] * h, yi))
    y5 = y + h * sum(b * ki for b, ki in zip(_B5, k) if b != 0.0)
    err = h * sum(e * ki for e, ki in zip(_E, k) if e != 0.0)
    return y5, err, k[6]


def _scaled_error(err: np.ndarray, y_old: np.ndarray, y_new: np.ndarray,
                  rtol: float, atol: float) -> float:
    """RMS of the error over real/imag components, scaled by atol + rtol*|y|."""
    e = np.ascontiguousarray(err).view(np.float64)
    yo = np.abs(np.ascontiguousarray(y_old).view(np.float64))
    yn = np.abs(np.ascontiguousarray(y_new).view(np.float64))
    scale = atol + rtol * np.maximum(yo, yn)
    ratio = e / scale
    if not np.all(np.isfinite(ratio)):
        return np.inf
    return float(np.sqrt(np.mean(ratio * ratio)))


def _initial_step(rhs, t0: float, y0: np.ndarray, f0: np.ndarray, t1: float,
                  rtol: float, atol: float, stats: IntegratorStats) -> float:
    """Step-size guess from the classic two-probe heuristic."""
    span = t1 - t0
    scale = atol + rtol * np.abs(np.ascontiguousarray(y0).view(np.float64))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d0 = np.sqrt(np.mean((np.ascontiguousarray(y0).view(np.float64) / scale) ** 2))
        d1 = np.sqrt(np.mean((np.ascontiguousarray(f0).view(np.float64) / scale) ** 2))
        if not (np.isfinite(d0) and np.isfinite(d1)) or d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6 * span
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, span)
        f1 = rhs(t0 + h0, y0 + h0 * f0)
        stats.rhs_evaluations += 1
        d2 = np.sqrt(np.mean(
            (np.ascontiguousarray(f1 - f0).view(np.float64) / scale) ** 2)) / h0
        if not np.isfinite(d2):
            return min(h0, span)
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6 * span, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def integrate_adaptive(problem: OdeProblem) -> Trajectory:
    """Integrate with PI-controlled adaptive steps, landing on each sample time.

    Steps are clamped so that every entry of sample_times is an actual step
    endpoint (no dense-output interpolation). Each step attempt costs 6 rhs
    evaluations: the first stage is the last stage of the previous accepted
    step (FSAL), and a rejected step keeps it. Raises IntegrationFailure on
    step underflow or when the step budget runs out.
    """
    t0, t1 = map(float, problem.t_span)
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if problem.rtol <= 0 or problem.atol <= 0:
        raise ValueError("rtol and atol must be positive")
    samples = np.asarray(problem.sample_times, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("sample_times must be a nonempty 1-D array")
    if np.any(np.diff(samples) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    if samples[0] < t0 or samples[-1] > t1:
        raise ValueError("sample_times must lie within t_span")

    y = np.ascontiguousarray(problem.y0, dtype=complex).copy()
    rhs = problem.rhs
    stats = IntegratorStats()
    states = np.empty((samples.size, y.size), dtype=complex)

    f = rhs(t0, y)
    stats.rhs_evaluations += 1
    h = _initial_step(rhs, t0, y, f, t1, problem.rtol, problem.atol, stats)

    t = t0
    idx = 0
    if samples[0] == t0:
        states[0] = y
        idx = 1

    err_prev = 1.0
    while idx < samples.size:
        target = samples[idx]
        while t < target:
            h_min = 16.0 * np.finfo(float).eps * max(abs(t), abs(target))
            if stats.steps + stats.rejected >= _MAX_STEPS:
                raise IntegrationFailure("step budget exhausted", t)
            clamped = min(h, target - t)
            trial = max(clamped, h_min)
            y_new, err, f_new = _step(rhs, t, y, trial, f)
            stats.rhs_evaluations += 6
            err_norm = _scaled_error(err, y, y_new, problem.rtol, problem.atol)
            if err_norm <= 1.0:
                t = target if trial >= target - t else t + trial
                y = y_new
                f = f_new
                stats.steps += 1
                if trial == h:  # natural step: let the PI controller act
                    fac = _SAFETY * max(err_norm, 1e-12) ** (-_PI_ALPHA) \
                        * max(err_prev, 1e-12) ** _PI_BETA
                    h *= min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
                    err_prev = max(err_norm, 1e-12)
            else:
                stats.rejected += 1
                fac = _SAFETY * err_norm ** (-0.2)
                h = trial * max(_MIN_FACTOR, min(1.0, fac))
                if h < h_min:
                    raise IntegrationFailure("step size underflow", t)
        states[idx] = y
        idx += 1

    return Trajectory(times=samples.copy(), states=states, stats=stats)


def integrate_fixed(rhs, y0: np.ndarray, t0: float, t1: float,
                    n_steps: int) -> np.ndarray:
    """Fixed-step Dormand-Prince run (error estimate ignored); for order checks."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    y = np.ascontiguousarray(y0, dtype=complex).copy()
    h = (t1 - t0) / n_steps
    for i in range(n_steps):
        y, _ = step_embedded(rhs, t0 + i * h, y, h)
    return y
