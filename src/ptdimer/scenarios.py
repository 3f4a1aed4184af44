"""Scenario catalog, config parsing, batch runner, and CSV/SVG output.

Configs are line-oriented ``key = value`` files with optional ``[section]``
headers (section names are checked, but keys are globally unique so membership
is not enforced). Unknown keys or sections and malformed values are rejected
with the offending line number. Catalog scenario ids preset the keys; file
values override the catalog and command-line flags override the file.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import gaussian as gaussian_mod
from . import lindblad as lindblad_mod
from . import nonhermitian as nonhermitian_mod
from .fock import FockSpace, fock_product_state, noon_state, \
    thermal_density_matrix, thermal_truncation_dim, truncation_dim
from .observables import ObservableTrajectory, moment_matrix
from .ode import IntegrationFailure
from .params import Regime, SystemParams, pump_coupling, slowest_decay_rate, \
    thermal_occupation

# experimental parameter set (rad/s)
OMEGA_A = 1.02e10
OMEGA_B = 1.59e7
GAMMA_A = 3.26e5
GAMMA_B = 3.00e2

ENGINES = ("lindblad", "nonhermitian", "gaussian")
# numerical failures of a run, an allocation it cannot make among them: exit
# code 3 and a .partial marker
NUMERICAL_FAILURES = (IntegrationFailure, FloatingPointError,
                      np.linalg.LinAlgError, MemoryError)
_SECTIONS = {"scenario", "params", "initial", "grid", "numerics", "output"}

# the kinds of coupling, of which a config sets at most one
_COUPLINGS = (("g",), ("g_over_omega_b",), ("g0", "pump_amplitude", "omega_p"))

_CSV_HEADER = "t_seconds,omega_b_t,n_a_raw,n_b_raw,n_a,n_b,re_g1,im_g1,norm_or_trace"


class ConfigError(ValueError):
    """Invalid scenario configuration (parse or semantic)."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved run description."""

    scenario: str = "custom"
    engines: tuple[str, ...] = ("lindblad", "nonhermitian")
    omega_a: float = OMEGA_A
    omega_b: float = OMEGA_B
    gamma_a: float = GAMMA_A
    gamma_b: float = GAMMA_B
    g: float | None = None
    g_over_omega_b: float | None = None
    g0: float | None = None
    pump_amplitude: float | None = None
    omega_p: float | None = None
    temperature: float = 0.0
    state: tuple = ("fock", 1, 0)
    t_end: float = 5.0          # in units of 1/gamma_a
    samples: int = 2000
    rtol: float = 1e-9
    atol: float = 1e-12
    truncation: int | None = None  # per-mode dimension; None = automatic
    directory: str = "."
    svg: bool = False
    allow_lindblad_thermal: bool = False

    def coupling(self) -> float:
        """g, else the pump's g0*|alpha| (:func:`pump_coupling`), else
        g_over_omega_b * omega_b, with the ratio 1.33e-2 when none is set."""
        if self.g is not None:
            return self.g
        if self.g0 is not None:
            try:
                return pump_coupling(self.omega_a, self.omega_b, self.gamma_a,
                                     self.gamma_b, self.g0,
                                     self.pump_amplitude, self.omega_p)
            except (RuntimeError, ZeroDivisionError) as exc:
                raise ConfigError("no coupling from the pump keys g0, "
                                  f"pump_amplitude, omega_p: {exc}") from None
        ratio = 1.33e-2 if self.g_over_omega_b is None else self.g_over_omega_b
        return ratio * self.omega_b

    def system_params(self) -> SystemParams:
        # Scenario-level regime labels use a 0.1% tolerance: preset couplings
        # are quoted to three significant figures, so a coupling like
        # 5.12e-3 * omega_b should still be labeled exceptional-point even
        # though it misses (gamma_a - gamma_b)/4 in the fourth digit.
        return SystemParams(
            omega_a=self.omega_a, omega_b=self.omega_b,
            gamma_a=self.gamma_a, gamma_b=self.gamma_b,
            g=self.coupling(), temperature=self.temperature, classify_tol=1e-3)

    def sample_times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end / self.gamma_a, self.samples)

    def mode_dims(self) -> tuple[int, int]:
        """Per-mode Fock dimensions: one for both modes, since the coupling
        moves quanta between them."""
        kind = self.state[0]
        if self.truncation is not None:
            dim = self.truncation
        elif kind == "fock":
            dim = truncation_dim(self.state[1] + self.state[2])
        elif kind == "noon":
            dim = truncation_dim(self.state[1])
        else:  # the largest thermal occupation of either mode, state or bath
            dim = thermal_truncation_dim(thermal_occupation(
                min(self.omega_a, self.omega_b),
                max(self.state[1], self.temperature)))
        return dim, dim


# ----------------------------------------------------------------- catalog --

def _ep_ratio() -> float:
    # exact degeneracy point (gamma_a - gamma_b)/4 expressed in omega_b units
    return 0.25 * (GAMMA_A - GAMMA_B) / OMEGA_B

_REGIME_RATIOS = {"pt": 1.33e-2, "ep": None, "broken": 1.33e-3}


def _catalog() -> dict[str, ScenarioConfig]:
    fig_states = {
        "fig1": [("fock", 1, 0)] * 3 + [("noon", 1)] * 3,
        "fig2": [("fock", 5, 0)] * 3 + [("fock", 3, 2)] * 3,
        "fig4": [("noon", 2)] * 3 + [("noon", 5)] * 3,
    }
    fig_states["fig3"] = fig_states["fig2"]  # coherence view of the same runs
    fig_states["fig5"] = fig_states["fig4"]
    regimes = ["pt", "ep", "broken"] * 2
    entries: dict[str, ScenarioConfig] = {}
    for fig in ("fig1", "fig2", "fig3", "fig4", "fig5"):
        for letter, state, regime in zip("abcdef", fig_states[fig], regimes):
            ratio = _REGIME_RATIOS[regime]
            entries[f"{fig}{letter}"] = ScenarioConfig(
                scenario=f"{fig}{letter}", state=state,
                g_over_omega_b=_ep_ratio() if ratio is None else ratio)
    for letter, regime in zip("abc", ("pt", "ep", "broken")):
        ratio = _REGIME_RATIOS[regime]
        cfg = ScenarioConfig(
            scenario=f"fig6{letter}", engines=("gaussian",),
            g_over_omega_b=_ep_ratio() if ratio is None else ratio,
            temperature=293.0, state=("thermal", 293.0))
        rate = slowest_decay_rate(cfg.system_params())
        entries[f"fig6{letter}"] = replace(cfg, t_end=5.0 * GAMMA_A / rate)
    return entries


_CATALOG = _catalog()


def scenario_ids() -> list[str]:
    return sorted(_CATALOG)


def catalog_config(scenario: str) -> ScenarioConfig:
    try:
        return _CATALOG[scenario]
    except KeyError:
        raise ConfigError(f"unknown scenario id {scenario!r}; "
                          f"see list-scenarios") from None


# ------------------------------------------------------------ config files --

def _parse_float(text: str, where: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{where}: malformed number {text!r} "
                          f"for key {key!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{where}: non-finite number {text!r} "
                          f"for key {key!r}")
    return value


def _parse_int(text: str, where: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: malformed integer {text!r} "
                          f"for key {key!r}") from None


def _parse_bool(text: str, where: str, key: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: malformed boolean {text!r} for key {key!r}")


def _parse_engines(text: str, where: str) -> tuple[str, ...]:
    names = [n.strip() for n in text.split(",") if n.strip()]
    for n in names:
        if n not in ENGINES:
            raise ConfigError(f"{where}: unknown engine {n!r}")
    if not names:
        raise ConfigError(f"{where}: engine list is empty")
    if len(set(names)) != len(names):
        raise ConfigError(f"{where}: duplicate engine in {text!r}")
    return tuple(n for n in ENGINES if n in names)


def _parse_state(text: str, where: str) -> tuple:
    parts = text.split()
    if not parts:
        raise ConfigError(f"{where}: empty state descriptor")
    kind = parts[0]
    if kind == "fock":
        if len(parts) != 3:
            raise ConfigError(f"{where}: fock state needs two occupations")
        return ("fock", _parse_int(parts[1], where, "state"),
                _parse_int(parts[2], where, "state"))
    if kind == "noon":
        if len(parts) != 2:
            raise ConfigError(f"{where}: noon state needs one integer")
        return ("noon", _parse_int(parts[1], where, "state"))
    if kind == "thermal":
        if len(parts) != 2:
            raise ConfigError(f"{where}: thermal state needs a temperature")
        return ("thermal", _parse_float(parts[1], where, "state"))
    raise ConfigError(f"{where}: unknown state kind {kind!r} "
                      "(expected fock, noon, or thermal)")


_FLOAT_KEYS = {"omega_a", "omega_b", "gamma_a", "gamma_b", "g", "g_over_omega_b",
               "g0", "pump_amplitude", "omega_p", "temperature", "t_end",
               "rtol", "atol"}
_INT_KEYS = {"samples"}
_BOOL_KEYS = {"svg", "allow_lindblad_thermal"}
_STR_KEYS = {"id", "directory"}
_SPECIAL_KEYS = {"engines", "state", "truncation"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS | _SPECIAL_KEYS


def _parse_lines(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        if key in _FLOAT_KEYS:
            values[key] = _parse_float(value, where, key)
        elif key in _INT_KEYS:
            values[key] = _parse_int(value, where, key)
        elif key in _BOOL_KEYS:
            values[key] = _parse_bool(value, where, key)
        elif key == "engines":
            values[key] = _parse_engines(value, where)
        elif key == "state":
            values[key] = _parse_state(value, where)
        elif key == "truncation":
            values[key] = None if value == "auto" \
                else _parse_int(value, where, key)
        else:
            values[key] = value
    return values


def _validate(cfg: ScenarioConfig) -> ScenarioConfig:
    # the id names the output files, which stay inside the output directory
    if cfg.scenario in ("", ".", "..") or {"/", "\\"} & set(cfg.scenario):
        raise ConfigError(f"id {cfg.scenario!r} is not a file name: it must "
                          "be nonempty, not . or .., and hold no / or \\")
    named = [[k for k in kind if getattr(cfg, k) is not None]
             for kind in _COUPLINGS]
    if sum(map(bool, named)) > 1:
        kinds = " and ".join("+".join(keys) for keys in named if keys)
        raise ConfigError(f"set one kind of coupling, not both {kinds}")
    if named[2] and (cfg.g0 is None or cfg.pump_amplitude is None):
        raise ConfigError("a pump needs both g0 and pump_amplitude, got only "
                          + ", ".join(named[2]))
    if cfg.gamma_a <= 0:
        raise ConfigError("scenario runs need gamma_a > 0 (t_end is in 1/gamma_a)")
    if cfg.t_end <= 0:
        raise ConfigError("t_end must be positive")
    if cfg.samples < 2:
        raise ConfigError("need at least two samples")
    if cfg.rtol <= 0 or cfg.atol <= 0:
        raise ConfigError("tolerances must be positive")
    if cfg.truncation is not None and cfg.truncation < 2:
        raise ConfigError("truncation must be at least 2 levels")
    kind = cfg.state[0]
    if kind in ("fock", "noon"):
        if kind == "fock" and (cfg.state[1] < 0 or cfg.state[2] < 0):
            raise ConfigError("fock occupations must be nonnegative")
        if kind == "noon" and cfg.state[1] < 1:
            raise ConfigError("noon excitation number must be >= 1")
        if cfg.temperature != 0.0:
            raise ConfigError(f"{kind} initial states require a zero-temperature "
                              "bath")
    elif kind == "thermal":
        if cfg.state[1] < 0:
            raise ConfigError("thermal state temperature must be nonnegative")
        bad = [e for e in cfg.engines if e == "nonhermitian"
               or (e == "lindblad" and not cfg.allow_lindblad_thermal)]
        if bad:
            raise ConfigError(
                "thermal states run on the gaussian engine; set "
                "allow_lindblad_thermal = true for a truncated Lindblad run")
    cfg.coupling()  # a pump without a steady state fails here
    return cfg


def _merge_layer(cfg: ScenarioConfig, layer: dict) -> ScenarioConfig:
    # a layer that names one kind of coupling clears the other kinds of
    # lower-precedence layers; a layer naming two survives to _validate
    named = [kind for kind in _COUPLINGS if layer.keys() & set(kind)]
    if len(named) == 1:
        cfg = replace(cfg, **{k: None for kind in _COUPLINGS
                              if kind is not named[0] for k in kind})
    return replace(cfg, **layer) if layer else cfg


def parse_config(text: str, scenario: str | None = None,
                 cli_overrides: dict | None = None) -> ScenarioConfig:
    """Resolve a config: defaults < catalog preset < file keys < CLI flags."""
    values = _parse_lines(text)
    file_id = values.pop("id", None)
    if scenario is not None:
        if file_id is not None and file_id != scenario:
            raise ConfigError(f"config id {file_id!r} conflicts with requested "
                              f"scenario {scenario!r}")
        cfg = catalog_config(scenario)
    elif file_id in _CATALOG:
        cfg = catalog_config(file_id)
    elif file_id is not None:
        # custom label: start from defaults, keep the id for output naming
        cfg = replace(ScenarioConfig(), scenario=file_id)
    else:
        cfg = ScenarioConfig()
    cfg = _merge_layer(cfg, values)
    if cli_overrides:
        cfg = _merge_layer(cfg, {k: v for k, v in cli_overrides.items()
                                 if v is not None})
    return _validate(cfg)


# ------------------------------------------------------------------ runner --

def _initial_state(cfg: ScenarioConfig, space: FockSpace):
    kind = cfg.state[0]
    if kind == "fock":
        return fock_product_state(cfg.state[1], cfg.state[2], space)
    if kind == "noon":
        return noon_state(cfg.state[1], space)
    t_init = cfg.state[1]
    return thermal_density_matrix(thermal_occupation(cfg.omega_a, t_init),
                                  thermal_occupation(cfg.omega_b, t_init),
                                  space)


def run_engine(engine: str, cfg: ScenarioConfig) -> ObservableTrajectory:
    params = cfg.system_params()
    times = cfg.sample_times()
    if engine == "gaussian" and cfg.state[0] == "thermal":
        # the thermal start's moments, untruncated
        n0 = gaussian_mod.thermal_moment_state(params, cfg.state[1])
        return gaussian_mod.evolve_moments(n0, params, times)
    state = _initial_state(cfg, FockSpace(*cfg.mode_dims()))
    if engine == "gaussian":
        return gaussian_mod.evolve_moments(moment_matrix(state), params, times)
    if engine == "lindblad":
        return lindblad_mod.evolve_density(state, params, times,
                                           rtol=cfg.rtol, atol=cfg.atol)
    if engine == "nonhermitian":
        return nonhermitian_mod.evolve_nonhermitian(state, params, times,
                                                    rtol=cfg.rtol, atol=cfg.atol)
    raise ConfigError(f"unknown engine {engine!r}")


@dataclass
class ComparisonReport:
    """Per-time deviation of each engine from the reference engine."""

    scenario: str
    reference: str
    times: np.ndarray
    omega_b: float
    regime: Regime
    deviations: dict[str, dict[str, np.ndarray]]
    max_deviation: dict[str, float]
    l2_deviation: dict[str, float]
    # every warning of every engine, each prefixed by the engine's name
    warnings: list[str] = field(default_factory=list)


def compare_trajectories(trajs: list[ObservableTrajectory], params: SystemParams,
                         scenario: str) -> ComparisonReport:
    """Reference is the Lindblad run when present, else the first engine.

    A trajectory cut short (norm underflow) samples a prefix of the others'
    time grid; the comparison covers the prefix common to all of them.
    """
    if len(trajs) < 2:
        raise ValueError("comparison needs at least two trajectories")
    by_engine = {t.engine: t for t in trajs}
    reference = "lindblad" if "lindblad" in by_engine else trajs[0].engine
    ref = by_engine[reference]
    n = min(len(t.times) for t in trajs)
    times = ref.times[:n]
    deviations: dict[str, dict[str, np.ndarray]] = {}
    max_dev: dict[str, float] = {}
    l2_dev: dict[str, float] = {}
    for traj in trajs:
        if traj.engine == reference:
            continue
        if not np.array_equal(traj.times[:n], times):
            raise ValueError("trajectories sample different time grids")
        d = {
            "n_a": np.abs(traj.n_a[:n] - ref.n_a[:n]),
            "n_b": np.abs(traj.n_b[:n] - ref.n_b[:n]),
            "g1": np.abs(traj.g1[:n] - ref.g1[:n]),
        }
        deviations[traj.engine] = d
        stacked = np.concatenate([d["n_a"], d["n_b"], d["g1"]])
        max_dev[traj.engine] = float(stacked.max())
        l2_dev[traj.engine] = float(np.sqrt(np.mean(stacked**2)))
    warnings = [f"{t.engine}: {w}" for t in trajs for w in t.warnings]
    return ComparisonReport(scenario, reference, times.copy(), ref.omega_b,
                            params.regime(), deviations, max_dev, l2_dev,
                            warnings)


# ------------------------------------------------------------------ output --

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_lines(lines: list[str], path, rows=()) -> None:
    """Write the lines, then the bytes-like chunks of ``rows``, to a
    temporary file beside ``path``, then rename it over ``path``: a reader
    sees the old file or the new one, never part of one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as f:
            f.write(("\n".join(lines) + "\n").encode())
            f.writelines(rows)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# Shorter tables take one `%` call. With the caches flushed between calls, as
# after an engine run, the digit arithmetic overtook it at ~70 rows of 9
# columns and ~85 rows of 5 (real fock-light rows; 50 rows took 1.2-1.4x as
# long, 100 rows 0.75-0.8x, 2000 rows 0.35-0.4x). Since the block build
# writes one-element cell fields, cold 50-row tables take ~0.9x (9 columns)
# and ~1.1x (5), but with every table on the digit arithmetic the 50-row
# sparse-sampling benchmark read `wall_s` +0.8 % (lower in 4 of 8
# alternating pairs) and `peak_rss_mb` +0.5 % (higher in 8 of 8), so the
# bound stays.
_VECTOR_MIN_ROWS = 80


def _format_rows(columns):
    """The table of these equal-length columns as CSV rows, each ended by a
    newline, in chunks of bytes or uint8 arrays; 17 significant digits, so
    floats round-trip exactly. Every cell is ``%.17g`` text: one ``%`` call
    formats a short table, the exact digit arithmetic of ``ptdimer.digits``
    a longer one."""
    table = np.column_stack(columns)
    rows, cols = table.shape
    if rows >= _VECTOR_MIN_ROWS:
        # imported on first use, so that runs writing short tables only do
        # not build its tables
        from .digits import csv_rows
        yield from csv_rows(table)
    elif rows:
        row = ",".join(["%.17g"] * cols)
        yield ("\n".join([row] * rows) % tuple(table.ravel().tolist())
               + "\n").encode()


def write_csv(traj: ObservableTrajectory, path) -> None:
    """One row per sample."""
    _write_lines([_CSV_HEADER], path, _format_rows((
        traj.times, traj.omega_b * traj.times, traj.n_a_raw, traj.n_b_raw,
        traj.n_a, traj.n_b, traj.g1.real, traj.g1.imag, traj.weight)))


def write_comparison(report: ComparisonReport, path) -> None:
    engines = sorted(report.deviations)
    lines = [f"# scenario: {report.scenario}",
             f"# reference: {report.reference}",
             f"# regime: {report.regime.phase.value}",
             f"# gap: {_fmt(report.regime.gap)}"]
    for eng in engines:
        lines.append(f"# max_deviation[{eng}]: {_fmt(report.max_deviation[eng])}")
        lines.append(f"# l2_deviation[{eng}]: {_fmt(report.l2_deviation[eng])}")
    if report.warnings:
        for w in report.warnings:
            lines.append(f"# warning: {w}")
    else:
        lines.append("# warnings: none")
    header = ["t_seconds", "omega_b_t"]
    for eng in engines:
        header += [f"d_n_a_{eng}", f"d_n_b_{eng}", f"d_g1_{eng}"]
    lines.append(",".join(header))
    columns = [report.times, report.omega_b * report.times]
    for eng in engines:
        d = report.deviations[eng]
        columns += [d["n_a"], d["n_b"], d["g1"]]
    _write_lines(lines, path, _format_rows(columns))


_COLOR_A = "#1f77b4"  # blue: mode a
_COLOR_B = "#d62728"  # red: mode b
_SVG_W, _SVG_H = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 20, 50


def write_svg(trajs: list[ObservableTrajectory], path) -> None:
    """Standalone SVG overlay: blue n_a / red n_b, dashed for non-Hermitian;
    raw occupations if every trajectory is a gaussian run, else the
    renormalized ones of every trajectory."""
    if not trajs:
        raise ValueError("nothing to plot")
    xs = [t.times * t.omega_b for t in trajs]
    raw = all(t.engine == "gaussian" for t in trajs)
    series = [(t.n_a_raw, t.n_b_raw) if raw else (t.n_a, t.n_b) for t in trajs]
    x_lo = min(float(x.min()) for x in xs)
    x_hi = max(float(x.max()) for x in xs)
    if x_hi <= x_lo:  # every trajectory holds one sample
        x_hi = x_lo + 1.0
    finite = np.concatenate([y[np.isfinite(y)] for s in series for y in s])
    y_lo, y_hi = (finite.min(), finite.max()) if finite.size else (0.0, 0.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for xt in np.linspace(x_lo, x_hi, 5):
        px = sx(xt)
        parts.append(f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h}" '
                     f'x2="{px:.2f}" y2="{_MARGIN_T + plot_h + 6}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 22}" '
                     f'font-size="12" text-anchor="middle">{xt:.4g}</text>')
    for yt in np.linspace(y_lo, y_hi, 5):
        py = sy(yt)
        parts.append(f'<line x1="{_MARGIN_L - 6}" y1="{py:.2f}" '
                     f'x2="{_MARGIN_L}" y2="{py:.2f}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_MARGIN_L - 10}" y="{py + 4:.2f}" '
                     f'font-size="12" text-anchor="end">{yt:.4g}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2}" y="{_SVG_H - 12}" '
                 'font-size="14" text-anchor="middle">ω_b·t</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{_MARGIN_T + plot_h / 2})">occupation</text>')
    for traj, x, (ya, yb) in zip(trajs, xs, series):
        dash = ' stroke-dasharray="7 4"' if traj.engine == "nonhermitian" else ""
        for color, y in ((_COLOR_A, ya), (_COLOR_B, yb)):
            keep = np.isfinite(y)
            xy = np.column_stack((sx(x[keep]), sy(y[keep])))
            pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5"{dash} points="{pts}"/>')
    ly = _MARGIN_T + 16
    for traj in trajs:
        style = "dashed" if traj.engine == "nonhermitian" else "solid"
        parts.append(f'<text x="{_MARGIN_L + plot_w - 8}" y="{ly}" '
                     f'font-size="12" text-anchor="end">{traj.engine} '
                     f'({style})</text>')
        ly += 16
    parts.append(f'<text x="{_MARGIN_L + 8}" y="{_MARGIN_T + 16}" '
                 f'font-size="12" fill="{_COLOR_A}">n_a</text>')
    parts.append(f'<text x="{_MARGIN_L + 40}" y="{_MARGIN_T + 16}" '
                 f'font-size="12" fill="{_COLOR_B}">n_b</text>')
    parts.append("</svg>")
    _write_lines(parts, path)


def run_scenario(cfg: ScenarioConfig) -> list[Path]:
    """Run all engines of a scenario; write per-engine CSVs, a comparison CSV
    when two or more engines ran, and optionally an SVG overlay. A single
    engine's warnings, which no comparison CSV holds, go to stderr as
    ``warning: <engine>: <text>``.

    On an engine failure a ``<scenario>.partial`` marker naming the failed
    engine is written next to any completed outputs and the error re-raised;
    a marker left by an earlier run is removed before the first engine.
    """
    params = cfg.system_params()
    outdir = Path(cfg.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    marker = outdir / f"{cfg.scenario}.partial"
    marker.unlink(missing_ok=True)
    written: list[Path] = []
    trajs: list[ObservableTrajectory] = []
    for engine in cfg.engines:
        try:
            traj = run_engine(engine, cfg)
        except NUMERICAL_FAILURES as exc:
            marker.write_text(f"engine {engine} failed: {exc}\n")
            raise
        trajs.append(traj)
        path = outdir / f"{cfg.scenario}_{engine}.csv"
        write_csv(traj, path)
        written.append(path)
    if len(trajs) >= 2:
        report = compare_trajectories(trajs, params, cfg.scenario)
        path = outdir / f"{cfg.scenario}_comparison.csv"
        write_comparison(report, path)
        written.append(path)
    else:  # traj is the one run
        for w in traj.warnings:
            print(f"warning: {traj.engine}: {w}", file=sys.stderr)
    if cfg.svg:
        path = outdir / f"{cfg.scenario}.svg"
        write_svg(trajs, path)
        written.append(path)
    return written
