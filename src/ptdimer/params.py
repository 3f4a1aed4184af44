"""Physical parameters, semiclassical pump steady state, and phase classification.

All frequencies and rates are angular (rad/s). Planck/Boltzmann constants enter
only through :func:`thermal_occupation`.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

HBAR = 6.62607015e-34 / (2 * math.pi)  # exact SI Planck constant over 2 pi
K_B = 1.380649e-23  # exact SI Boltzmann constant


class Phase(enum.Enum):
    """Spectral phase of the gain/loss dimer."""

    PT_SYMMETRIC = "pt-symmetric"
    EXCEPTIONAL_POINT = "exceptional-point"
    BROKEN = "broken"


@dataclass(frozen=True)
class Regime:
    """Classification result: phase tag plus the signed distance g - |Gamma|."""

    phase: Phase
    gap: float


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar*omega/kB*T) - 1).

    Parameters
    ----------
    omega : float
        Mode angular frequency in rad/s. Must be positive.
    temperature : float
        Bath temperature in kelvin. Zero gives exactly 0 occupation.
    """
    if omega <= 0.0:
        raise ValueError(f"mode frequency must be positive, got {omega}")
    if temperature < 0.0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    if x > 700.0:  # exp overflow; occupation is zero to double precision
        return 0.0
    return 1.0 / math.expm1(x)


def gamma_contrast(gamma_a: float, gamma_b: float) -> float:
    """Effective gain/loss contrast Gamma = (gamma_a - gamma_b)/4."""
    return 0.25 * (gamma_a - gamma_b)


def enhanced_coupling(g0: float, alpha: complex) -> float:
    """Pump-enhanced beam-splitter coupling g = g0*|alpha|."""
    return g0 * abs(alpha)


def pt_spectrum(g: float, contrast: float) -> tuple[complex, complex]:
    """Eigenvalues +/- sqrt(g^2 - Gamma^2) of [[-i*Gamma, g], [g, i*Gamma]].

    Ordered by descending real part, then descending imaginary part: the first
    entry is the slow (least-damped / largest-frequency) branch.
    """
    lam = cmath.sqrt(complex(g * g - contrast * contrast))
    return lam, -lam


def classify_regime(g: float, contrast: float, tol: float = 1e-9) -> Regime:
    """Classify the dimer phase from coupling g and contrast Gamma.

    ``tol`` is relative to max(g, |Gamma|): gaps smaller than tol*scale count
    as exactly at the exceptional point.
    """
    if tol <= 0.0:
        raise ValueError("classification tolerance must be positive")
    if g < 0.0:
        raise ValueError("coupling must be nonnegative")
    gap = g - abs(contrast)
    scale = max(g, abs(contrast))
    if gap > tol * scale:
        phase = Phase.PT_SYMMETRIC
    elif gap < -tol * scale:
        phase = Phase.BROKEN
    else:
        phase = Phase.EXCEPTIONAL_POINT
    return Regime(phase, gap)


def _alpha_amplitude(omega_a: float, omega_p: float, gamma_a: float,
                     pump_amplitude: float) -> complex:
    den = (omega_a - omega_p) - 0.5j * gamma_a
    if den == 0:
        raise ZeroDivisionError(
            "pump steady state is singular: undamped cavity driven on resonance")
    return -1j * pump_amplitude / (2.0 * den)


def _beta_amplitude(omega_b: float, gamma_b: float, g0: float,
                    alpha: complex) -> complex:
    den = omega_b - 0.5j * gamma_b
    if den == 0:
        raise ZeroDivisionError("pump steady state is singular: omega_b = gamma_b = 0")
    return -g0 * abs(alpha) ** 2 / den


def red_sideband_pump_frequency(omega_a: float, omega_b: float, gamma_a: float,
                                gamma_b: float, g0: float, pump_amplitude: float,
                                rel_tol: float = 1e-12, max_iter: int = 500) -> float:
    """Self-consistent pump frequency omega_p = omega_a - omega_b + 2*g0*Re(beta).

    The static shift beta depends on alpha, which depends on omega_p, so the
    triple is solved by fixed-point iteration on (alpha, beta) to ``rel_tol``
    relative change.
    """
    omega_p = omega_a - omega_b
    alpha = beta = 0j
    for _ in range(max_iter):
        a_new = _alpha_amplitude(omega_a, omega_p, gamma_a, pump_amplitude)
        b_new = _beta_amplitude(omega_b, gamma_b, g0, a_new)
        da = abs(a_new - alpha) <= rel_tol * max(abs(a_new), abs(alpha), 1e-300)
        db = abs(b_new - beta) <= rel_tol * max(abs(b_new), abs(beta), 1e-300)
        alpha, beta = a_new, b_new
        omega_p = omega_a - omega_b + 2.0 * g0 * beta.real
        if da and db:
            return omega_p
    raise RuntimeError("red-sideband fixed point did not converge "
                       f"within {max_iter} iterations")


@dataclass(frozen=True)
class SystemParams:
    """Rates and frequencies of the lossy two-mode dimer (all rad/s).

    The beam-splitter coupling may be supplied directly as ``g`` or derived
    from the pump layer via ``g0`` and ``pump_amplitude`` (with ``omega_p``
    resolved to the red sideband when absent). Supplying both is allowed only
    when consistent.
    """

    omega_a: float
    omega_b: float
    gamma_a: float
    gamma_b: float
    g: float | None = None
    g0: float | None = None
    pump_amplitude: float | None = None
    omega_p: float | None = None
    temperature: float = 0.0
    classify_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.omega_a <= 0 or self.omega_b <= 0:
            raise ValueError("mode frequencies must be positive")
        if self.gamma_a < 0 or self.gamma_b < 0:
            raise ValueError("damping rates must be nonnegative")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        if self.classify_tol <= 0:
            raise ValueError("classify_tol must be positive")
        driven = self.g0 is not None and self.pump_amplitude is not None
        if self.g is None and not driven:
            raise ValueError("supply g directly, or both g0 and pump_amplitude")
        if driven:
            if self.g0 < 0 or self.pump_amplitude < 0:
                raise ValueError("g0 and pump_amplitude must be nonnegative")
            if self.omega_p is None:
                object.__setattr__(self, "omega_p", red_sideband_pump_frequency(
                    self.omega_a, self.omega_b, self.gamma_a, self.gamma_b,
                    self.g0, self.pump_amplitude))
            alpha, _ = steady_state_amplitudes(self)
            derived = enhanced_coupling(self.g0, alpha)
            if self.g is None:
                object.__setattr__(self, "g", derived)
            elif not math.isclose(self.g, derived, rel_tol=1e-9, abs_tol=1e-12):
                raise ValueError(
                    f"inconsistent coupling: g={self.g} but g0*|alpha|={derived}")
        if self.g < 0:
            raise ValueError("coupling must be nonnegative")

    def contrast(self) -> float:
        return gamma_contrast(self.gamma_a, self.gamma_b)

    def regime(self) -> Regime:
        return classify_regime(self.g, self.contrast(), self.classify_tol)

    def nbar_a(self) -> float:
        """Bath occupation of mode a at ``temperature``; the engines read the
        bath from here only."""
        return thermal_occupation(self.omega_a, self.temperature)

    def nbar_b(self) -> float:
        """Bath occupation of mode b at ``temperature``."""
        return thermal_occupation(self.omega_b, self.temperature)


def steady_state_amplitudes(params: SystemParams) -> tuple[complex, complex]:
    """Semiclassical pump steady state (alpha, beta).

    alpha = -i*Omega / (2[(omega_a - omega_p) - i*gamma_a/2]) and
    beta = -g0*|alpha|^2 / (omega_b - i*gamma_b/2). Requires the pump layer
    (g0, pump_amplitude, omega_p) to be present on ``params``.
    """
    if params.g0 is None or params.pump_amplitude is None:
        raise ValueError("steady_state_amplitudes requires g0 and pump_amplitude")
    alpha = _alpha_amplitude(params.omega_a, params.omega_p, params.gamma_a,
                             params.pump_amplitude)
    beta = _beta_amplitude(params.omega_b, params.gamma_b, params.g0, alpha)
    return alpha, beta


def dimer_mode_eigenvalues(params: SystemParams) -> tuple[complex, complex]:
    """Single-excitation complex eigenfrequencies of the lossy dimer.

    omega_b - i(gamma_a+gamma_b)/4 +/- sqrt(g^2 - Gamma^2), ordered like
    :func:`pt_spectrum`. Imaginary parts are the amplitude decay rates.
    """
    base = params.omega_b - 0.25j * (params.gamma_a + params.gamma_b)
    lam_p, lam_m = pt_spectrum(params.g, params.contrast())
    return base + lam_p, base + lam_m


def slowest_decay_rate(params: SystemParams) -> float:
    """Slowest occupation (second-moment) decay rate, 2*min|Im eigenvalue|."""
    mu_p, mu_m = dimer_mode_eigenvalues(params)
    return 2.0 * min(-mu_p.imag, -mu_m.imag)
