"""Correctness checks on the CSV files each engine run wrote.

Every engine run is one attempt; it fails when any check below does. The
checks read only the user-visible outputs, so they hold however the engines
are implemented:

- all engines: one row per requested sample, on the requested time grid;
- lindblad: trace within 1e-8 of 1 and n_a + n_b = 1 within 1e-12;
- nonhermitian: the squared norm never increases;
- gaussian: the moment matrix N stays positive semidefinite;
- lindblad (zero temperature) and gaussian: raw moments within 1e-6, relative
  to the trajectory's largest moment, of the exact 2x2 propagator
  N(t) = N_ss + E(t) (N0 - N_ss) E(t)^H with E(t) = expm(i conj(M) t),
  M = [[-i gamma_a/2, g], [g, -i gamma_b/2]] (the drift without the common
  omega_b rotation, which cancels) and N_ss the steady state. The bound is
  not bitwise, so step-control and dense-output changes stay legal;
- on single-excitation workloads, the two Fock engines' renormalized n_a,
  n_b and g1 agree within 1e-6 (acceptance criterion 3).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.constants import hbar, k as k_b
from scipy.linalg import expm, solve_continuous_lyapunov

TRACE_TOL = 1e-8
SUM_TOL = 1e-12
ORACLE_RTOL = 1e-6
AGREE_TOL = 1e-6
PSD_RTOL = 1e-10
# A decaying norm may still tick up by rounding where its slope vanishes.
WEIGHT_RTOL = 1e-12

# CSV columns (see the README's output format)
T, X, Y, N_A, N_B, RE_G1, IM_G1, WEIGHT = 0, 2, 3, 4, 5, 6, 7, 8


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def moments(rows: np.ndarray) -> np.ndarray:
    """N_jk = <v_j^dag v_k> per row, rebuilt from raw occupations and g1."""
    x, y = rows[:, X], rows[:, Y]
    z = (rows[:, RE_G1] + 1j * rows[:, IM_G1]) * (x + y)
    n = np.empty((len(rows), 2, 2), dtype=complex)
    n[:, 0, 0], n[:, 1, 1] = x, y
    n[:, 0, 1], n[:, 1, 0] = z, z.conj()
    return n


def bose(omega: float, temperature: float) -> float:
    if temperature == 0.0:
        return 0.0
    return 1.0 / np.expm1(hbar * omega / (k_b * temperature))


def initial_moments(cfg) -> np.ndarray:
    kind = cfg.state[0]
    if kind == "fock":
        return np.diag([cfg.state[1], cfg.state[2]]).astype(complex)
    if kind == "noon":  # (|N,0> + |0,N>)/sqrt(2): <c^dag d> = 1/2 only for N = 1
        n = cfg.state[1]
        z = 0.5 if n == 1 else 0.0
        return np.array([[n / 2, z], [z, n / 2]], dtype=complex)
    t_init = cfg.state[1]
    return np.diag([bose(cfg.omega_a, t_init),
                    bose(cfg.omega_b, t_init)]).astype(complex)


def exact_moments(cfg, times: np.ndarray) -> np.ndarray:
    """Closed-form second moments at ``times`` (any bath temperature)."""
    g = cfg.system_params().g
    m = np.array([[-0.5j * cfg.gamma_a, g], [g, -0.5j * cfg.gamma_b]])
    d = np.diag([cfg.gamma_a * bose(cfg.omega_a, cfg.temperature),
                 cfg.gamma_b * bose(cfg.omega_b, cfg.temperature)])
    # steady state: i(conj(M) N - N M^T) + D = 0, i.e. A N + N A^H = -D
    n_ss = solve_continuous_lyapunov(1j * m.conj(), -d) if d.any() \
        else np.zeros((2, 2), dtype=complex)
    e = expm(1j * m.conj()[None] * times[:, None, None])
    return n_ss + e @ (initial_moments(cfg) - n_ss) @ e.conj().transpose(0, 2, 1)


def oracle_error(cfg, rows: np.ndarray) -> float:
    exact = exact_moments(cfg, rows[:, T])
    return float(np.abs(moments(rows) - exact).max() / np.abs(exact).max())


def check_run(engine: str, cfg, rows: np.ndarray) -> list[str]:
    """Problems with one engine run's trajectory (empty when it passes)."""
    grid = np.linspace(0.0, cfg.t_end / cfg.gamma_a, cfg.samples)
    if rows.shape != (cfg.samples, 9):
        return [f"{engine}: {rows.shape} rows x columns, "
                f"expected ({cfg.samples}, 9)"]
    problems = []
    if not np.allclose(rows[:, T], grid, rtol=1e-12, atol=0.0):
        problems.append(f"{engine}: sample times off the requested grid")
    if not np.all(np.isfinite(rows)):
        problems.append(f"{engine}: non-finite values")
    if engine == "lindblad":
        trace_err = np.abs(rows[:, WEIGHT] - 1.0).max()
        if not trace_err <= TRACE_TOL:
            problems.append(f"lindblad: trace off by {trace_err:.3e}")
        sum_err = np.abs(rows[:, N_A] + rows[:, N_B] - 1.0).max()
        if not sum_err <= SUM_TOL:
            problems.append(f"lindblad: n_a + n_b off 1 by {sum_err:.3e}")
    if engine == "nonhermitian":
        rise = np.diff(rows[:, WEIGHT]).max()
        if not rise <= WEIGHT_RTOL * rows[0, WEIGHT]:
            problems.append(f"nonhermitian: weight rises by {rise:.3e}")
    if engine == "gaussian":
        n = moments(rows)
        low = np.linalg.eigvalsh(n).min()
        if not low >= -PSD_RTOL * np.abs(n).max():
            problems.append(f"gaussian: N not positive semidefinite "
                            f"(eigenvalue {low:.3e})")
    if engine == "gaussian" or (engine == "lindblad" and cfg.temperature == 0.0):
        err = oracle_error(cfg, rows)
        if not err <= ORACLE_RTOL:
            problems.append(f"{engine}: moments off the exact propagator by "
                            f"{err:.3e} relative")
    return problems


def check_agreement(reference: np.ndarray, other: np.ndarray) -> list[str]:
    if reference.shape != other.shape:
        return ["engines sample different grids"]
    dev = max(np.abs(other[:, col] - reference[:, col]).max()
              for col in (N_A, N_B))
    g1 = np.abs((other[:, RE_G1] - reference[:, RE_G1])
                + 1j * (other[:, IM_G1] - reference[:, IM_G1])).max()
    worst = max(dev, g1)
    if not worst <= AGREE_TOL:
        return [f"engines disagree by {worst:.3e}"]
    return []


def check_scenario(out: Path, cfg, agreement: bool) -> dict[str, list[str]]:
    """Problems per engine run of one scenario written into ``out``."""
    problems: dict[str, list[str]] = {}
    rows: dict[str, np.ndarray] = {}
    for engine in cfg.engines:
        path = out / f"{cfg.scenario}_{engine}.csv"
        try:
            rows[engine] = read_csv(path)
        except (OSError, ValueError) as exc:
            problems[engine] = [f"{engine}: unreadable output: {exc}"]
            continue
        problems[engine] = check_run(engine, cfg, rows[engine])
    if agreement and {"lindblad", "nonhermitian"} <= rows.keys():
        problems["nonhermitian"] += check_agreement(rows["lindblad"],
                                                    rows["nonhermitian"])
    return problems
