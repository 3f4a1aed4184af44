"""Integrator for flat complex state vectors: exact for linear problems,
adaptive Dormand-Prince 5(4) otherwise.

A problem declared ``linear`` (y' = L y with a constant L) is propagated
exactly: the support of y0 is closed under the problem's own RHS by applying
it to unit vectors, L is assembled on that closure, and each sample is one
matrix-vector product with exp(L dt), or with exp(L dt) - I for a step near
I (``_exact_step``), one exponential per distinct step (scaling and squaring
with a Pade-13 approximant, Higham, SIAM J. Matrix Anal. Appl. 26, 1179,
2005). A problem whose state has more than ``EXACT_MAX_ENTRIES`` entries, or
that is not linear, takes the adaptive path, whose error norm is a scaled
RMS over the real and imaginary parts of the state and whose steps are
clamped onto every sample time.

Deterministic by construction: no randomness and no threading of our own, so
identical inputs give bitwise identical trajectories.
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

# Largest state (in entries) propagated exactly. The exponential costs m^3
# and each sample m^2 for m evolved entries: a random zero-temperature density
# matrix takes 0.19 s exactly vs 0.29 s adaptively at 484 entries (50
# samples, one core) but 0.30 vs 0.24 s at 576.
EXACT_MAX_ENTRIES = 512
_SAME_STEP_RTOL = 1e-12  # steps this close share one exponential

# Pade-13 numerator coefficients b_0 .. b_13 and the 1-norm up to which it is
# accurate to double precision without scaling (Higham 2005, table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


class IntegrationFailure(RuntimeError):
    """Step-size underflow, step budget exhausted or a non-finite exact
    sample; carries the time reached."""

    def __init__(self, message: str, t_reached: float) -> None:
        super().__init__(f"{message} (integration reached t={t_reached:.6e})")
        self.t_reached = t_reached


@dataclass
class IntegratorStats:
    """How a run was evolved. On the exact path ``steps`` counts propagator
    applications and ``rhs_evaluations`` the probes that assembled L;
    ``dimension`` is the number of evolved entries."""

    steps: int = 0
    rejected: int = 0
    rhs_evaluations: int = 0
    dimension: int = 0
    exponentials: int = 0


@dataclass
class OdeProblem:
    """Right-hand side, initial state, span, and requested sample times.

    ``linear`` declares rhs(t, y) = L y with a constant matrix L, which lets
    ``integrate_adaptive`` propagate exactly; rtol and atol then only matter
    above ``EXACT_MAX_ENTRIES``.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    y0: np.ndarray
    t_span: tuple[float, float]
    sample_times: np.ndarray
    rtol: float = 1e-9
    atol: float = 1e-12
    linear: bool = False


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


def _pade13(a: np.ndarray):
    """Terms u, v of the [13/13] Pade approximant (v - u)^-1 (v + u) of
    exp(a / 2**s), with the number s of squarings that undo the scaling.

    s is the least that brings the 1-norm to at most theta_13 (Higham 2005).
    Raises FloatingPointError for a matrix with a non-finite entry.
    """
    a = np.asarray(a, dtype=complex)
    norm = np.abs(a).sum(axis=0).max(initial=0.0)
    if not np.isfinite(norm):
        raise FloatingPointError("matrix exponential of a non-finite matrix")
    squarings = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm else 0
    a = a / 2.0**squarings
    b = _PADE13
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    return u, v, squarings


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade-13 approximant."""
    u, v, squarings = _pade13(a)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def expm_minus_identity(a: np.ndarray) -> np.ndarray:
    """exp(a) - I, kept apart from I: the approximant and the squarings work
    on r - I = (v - u)^-1 2u, so a small exp(a) - I keeps the relative
    precision that forming exp(a) first would round away."""
    u, v, squarings = _pade13(a)
    q = np.linalg.solve(v - u, 2.0 * u)
    for _ in range(squarings):
        q = q @ q + 2.0 * q  # (I + q)^2 - I
    return q


def _exact_step(a: np.ndarray):
    """The map y -> exp(a) y, in the form that keeps y's relative precision.

    Near I (as for a catalog grid's small steps) it adds (exp(a) - I) y, so
    the rounding of thousands of steps does not build up in exp(a): with
    |a| <= 0.4, |exp(a) - I| <= e^0.4 - 1 < 1/2 and the sum is at least
    |y|/2, so the addition costs at most a bit. A longer step, such as a
    strong decay, multiplies by exp(a).
    """
    if np.abs(a).sum(axis=0).max() <= 0.4:
        q = expm_minus_identity(a)
        return lambda y: y + q @ y
    p = expm(a)
    return lambda y: p @ y


def _closed_generator(rhs, t0: float, y0: np.ndarray, stats: IntegratorStats):
    """Support of y0 closed under a linear rhs, and rhs's matrix on it.

    Each probe applies rhs to one unit vector, giving one column of L; only
    the column's nonzero entries are kept. Probing stops when no column
    reaches a new index, so L maps the closure into itself.
    """
    reached = y0 != 0
    frontier = np.flatnonzero(reached)
    unit = np.zeros(y0.size, dtype=complex)
    columns = {}
    while frontier.size:
        new = np.zeros_like(reached)
        for j in frontier:
            unit[j] = 1.0
            col = rhs(t0, unit)
            rows = np.flatnonzero(col)
            columns[j] = (rows, col[rows])
            unit[j] = 0.0
            new[rows] = True
            stats.rhs_evaluations += 1
        frontier = np.flatnonzero(new & ~reached)
        reached |= new
    support = np.flatnonzero(reached)
    generator = np.zeros((support.size, support.size), dtype=complex)
    for col, j in enumerate(support):
        rows, values = columns[j]
        generator[np.searchsorted(support, rows), col] = values
    return support, generator


def _propagate(problem: OdeProblem, t0: float, samples: np.ndarray,
               y: np.ndarray) -> Trajectory:
    """Exact samples of y' = L y: one step y -> exp(L dt) y per sample."""
    stats = IntegratorStats()
    support, generator = _closed_generator(problem.rhs, t0, y, stats)
    stats.dimension = support.size
    steps = []  # (dt, its exact step), one per distinct dt
    per_sample = []  # the step onto each sample; None for one at t0
    for h in np.diff(samples, prepend=t0):
        step = None
        if h > 0.0:
            step = next((f for h_f, f in steps
                         if abs(h - h_f) <= _SAME_STEP_RTOL * h_f), None)
            if step is None:
                step = _exact_step(generator * h)
                steps.append((h, step))
        per_sample.append(step)
    stats.exponentials = len(steps)

    states = np.zeros((samples.size, y.size), dtype=complex)
    x = y[support]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for row, step in enumerate(per_sample):
            if step is not None:
                x = step(x)
                stats.steps += 1
            states[row].put(support, x)
    bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if bad.size:
        reached = samples[bad[0] - 1] if bad[0] else t0
        raise IntegrationFailure("non-finite state", reached)
    return Trajectory(times=samples.copy(), states=states, stats=stats)


def integrate_adaptive(problem: OdeProblem) -> Trajectory:
    """Integrate to each sample time: exactly for a small linear problem,
    otherwise with PI-controlled adaptive steps.

    A ``linear`` problem whose state has at most ``EXACT_MAX_ENTRIES`` entries
    is propagated exactly (see the module docstring). Otherwise steps are
    clamped so that every entry of sample_times is an actual step endpoint
    (no dense-output interpolation). Each step attempt costs 6 rhs
    evaluations: the first stage is the last stage of the previous accepted
    step (FSAL), and a rejected step keeps it. Raises IntegrationFailure on
    step underflow, when the step budget runs out, or when an exact sample is
    not finite.
    """
    t0, t1 = map(float, problem.t_span)
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if not all(np.isfinite(tol) and tol > 0
               for tol in (problem.rtol, problem.atol)):
        raise ValueError("rtol and atol must be finite and positive")
    samples = np.asarray(problem.sample_times, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("sample_times must be a nonempty 1-D array")
    if np.any(np.diff(samples) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    if samples[0] < t0 or samples[-1] > t1:
        raise ValueError("sample_times must lie within t_span")

    y = np.ascontiguousarray(problem.y0, dtype=complex).copy()
    if problem.linear and y.size <= EXACT_MAX_ENTRIES:
        return _propagate(problem, t0, samples, y)
    rhs = problem.rhs
    stats = IntegratorStats(dimension=y.size)
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
