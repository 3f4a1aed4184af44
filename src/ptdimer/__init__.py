"""Lossy two-mode bosonic dimer: Lindblad, non-Hermitian, and Gaussian engines.

Three independent descriptions of the same damped beam-splitter system, built
to cross-validate each other: a Lindblad master equation on a truncated Fock
space, post-selected evolution under the non-Hermitian Hamiltonian, and the
exact flow of Gaussian second moments. Spectral phases (PT-symmetric /
exceptional point / broken) are classified from the coupling and the damping
contrast.
"""

from .fock import FockSpace, QuantumState, TruncationError, \
    beam_splitter_hamiltonian, fock_product_state, ladder, lossy_hamiltonian, \
    mode_annihilator, noon_state, thermal_density_matrix, \
    thermal_truncation_dim, truncation_dim
from .gaussian import count_prominent_extrema, diffusion_matrix, drift_matrix, \
    evolve_moments, fit_decay_rate, moment_flow_rhs, steady_state_moments, \
    thermal_moment_state
from .lindblad import LindbladChannel, dissipator_apply, evolve_density, \
    lindblad_rhs, moment_closure_residual, moment_rhs, thermal_channels
from .nonhermitian import evolve_nonhermitian, occupation_ode_residual, \
    renormalized_observables
from .observables import ObservableTrajectory
from .ode import IntegrationFailure, IntegratorStats, OdeProblem, Trajectory, \
    integrate_adaptive, integrate_fixed, step_embedded
from .params import Phase, Regime, SystemParams, classify_regime, \
    dimer_mode_eigenvalues, enhanced_coupling, gamma_contrast, pt_spectrum, \
    pump_coupling, red_sideband_pump_frequency, slowest_decay_rate, \
    steady_state_amplitudes, thermal_occupation
from .scenarios import ComparisonReport, ConfigError, ScenarioConfig, \
    catalog_config, compare_trajectories, parse_config, run_scenario, \
    scenario_ids, write_csv, write_svg

__version__ = "0.1.0"

__all__ = [
    "FockSpace", "QuantumState", "TruncationError",
    "beam_splitter_hamiltonian", "fock_product_state", "ladder",
    "lossy_hamiltonian", "mode_annihilator", "noon_state",
    "thermal_density_matrix", "thermal_truncation_dim", "truncation_dim",
    "count_prominent_extrema", "diffusion_matrix", "drift_matrix",
    "evolve_moments", "fit_decay_rate", "moment_flow_rhs",
    "steady_state_moments", "thermal_moment_state",
    "LindbladChannel", "dissipator_apply", "evolve_density", "lindblad_rhs",
    "moment_closure_residual", "moment_rhs", "thermal_channels",
    "evolve_nonhermitian", "occupation_ode_residual",
    "renormalized_observables",
    "ObservableTrajectory",
    "IntegrationFailure", "IntegratorStats", "OdeProblem", "Trajectory",
    "integrate_adaptive", "integrate_fixed", "step_embedded",
    "Phase", "Regime", "SystemParams", "classify_regime",
    "dimer_mode_eigenvalues", "enhanced_coupling", "gamma_contrast",
    "pt_spectrum", "pump_coupling", "red_sideband_pump_frequency",
    "slowest_decay_rate", "steady_state_amplitudes", "thermal_occupation",
    "ComparisonReport", "ConfigError", "ScenarioConfig", "catalog_config",
    "compare_trajectories", "parse_config", "run_scenario", "scenario_ids",
    "write_csv", "write_svg",
    "__version__",
]
