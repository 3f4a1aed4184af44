"""Workload definitions: which scenarios each workload runs, drawn from a seed.

The seed sets the scenario order on every workload and, on sparse-sampling,
draws one coupling inside each spectral phase. Nothing here imports ptdimer
at module level, so the set-up probe can time the package import on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GAMMA_A = 3.26e5  # catalog damping rates (rad/s); |Gamma| = (gamma_a - gamma_b)/4
GAMMA_B = 3.00e2
CONTRAST = 0.25 * (GAMMA_A - GAMMA_B)

# Coupling draws as multiples of |Gamma|. The ranges are narrow so that the
# integrator's natural step count, and with it the pass time, moves little
# from seed to seed; the exceptional-point draw stays inside the 1e-3
# relative band that scenario labels use.
_SPARSE_PHASES = {"pt": (2.5, 2.7), "ep": (1.0 - 2e-4, 1.0 + 2e-4),
                  "broken": (0.24, 0.28)}
_SPARSE_STATES = {"fock32": "fock 3 2", "noon2": "noon 2"}

WORKLOADS = ("fock-heavy", "fock-light", "thermal-cli", "sparse-sampling")
CLI_WORKLOADS = ("thermal-cli",)
AGREEMENT_WORKLOADS = ("fock-light",)  # single-excitation runs: engines agree


@dataclass(frozen=True)
class Scenario:
    """One scenario of a workload: a catalog id, or a config file's text."""

    id: str
    config_text: str = ""
    catalog: bool = True


def scenarios(workload: str, seed: int) -> list[Scenario]:
    """The workload's scenarios in the order the seed gives."""
    rng = random.Random(seed)
    if workload == "fock-heavy":
        items = [Scenario(s) for s in ("fig2a", "fig2e", "fig4f")]
    elif workload == "fock-light":
        items = [Scenario(f"fig1{c}") for c in "abcdef"]
    elif workload == "thermal-cli":
        items = [Scenario(f"fig6{c}") for c in "abc"]
    elif workload == "sparse-sampling":
        couplings = {phase: rng.uniform(lo, hi) * CONTRAST
                     for phase, (lo, hi) in _SPARSE_PHASES.items()}
        items = []
        for label, state in _SPARSE_STATES.items():
            for phase, g in couplings.items():
                sid = f"sparse_{label}_{phase}"
                text = (f"id = {sid}\n[params]\ng = {g!r}\n"
                        f"[initial]\nstate = {state}\n"
                        "[grid]\nt_end = 20\nsamples = 50\n")
                items.append(Scenario(sid, text, catalog=False))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def resolve(workload: str, scenario: Scenario):
    """Resolve a scenario to a ptdimer ScenarioConfig, as its entry point does.

    The CLI workload resolves like ``ptdimer run --scenario <id> --svg``.
    """
    from ptdimer.scenarios import catalog_config, parse_config

    if workload in CLI_WORKLOADS:
        return parse_config("", scenario=scenario.id,
                            cli_overrides={"svg": True})
    if scenario.catalog:
        return catalog_config(scenario.id)
    return parse_config(scenario.config_text)
