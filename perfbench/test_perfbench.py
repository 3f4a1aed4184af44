"""Tests of the benchmark itself: its correctness checks and its wrappers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ptdimer.scenarios import parse_config, run_scenario  # noqa: E402


def _run(tmp_path, text):
    cfg = replace(parse_config(text), directory=str(tmp_path))
    run_scenario(cfg)
    return cfg


@pytest.fixture(scope="module")
def fock_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fock")
    return out, _run(out, "id = light\nstate = fock 1 0\nt_end = 2\n"
                          "samples = 60\n")


@pytest.fixture(scope="module")
def thermal_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("thermal")
    return out, _run(out, "id = fig6b\nsamples = 60\n")


def _fail_rate(out, cfg, agreement=True):
    problems = checks.check_scenario(out, cfg, agreement)
    return sum(1 for p in problems.values() if p) / len(cfg.engines)


def _perturb(out, cfg, engine, column, rows, factor):
    """Copy the scenario's outputs, scaling one column of one engine's CSV."""
    path = out / f"{cfg.scenario}_{engine}.csv"
    data = checks.read_csv(path)
    data[rows, column] *= factor
    perturbed = out / "perturbed"
    perturbed.mkdir(exist_ok=True)
    for other in cfg.engines:
        src = out / f"{cfg.scenario}_{other}.csv"
        (perturbed / src.name).write_text(src.read_text())
    np.savetxt(perturbed / path.name, data, delimiter=",", fmt="%.17g",
               header="header", comments="")
    return perturbed


def test_unperturbed_runs_pass(fock_run, thermal_run):
    for out, cfg in (fock_run, thermal_run):
        assert _fail_rate(out, cfg) == 0.0


@pytest.mark.parametrize("engine, column, rows, factor", [
    ("lindblad", checks.X, slice(10, 11), 1 + 1e-5),      # off the oracle
    ("lindblad", checks.WEIGHT, slice(30, 31), 1 + 1e-7),  # trace drifts
    ("lindblad", checks.N_A, slice(5, 6), 1 + 1e-9),       # n_a + n_b != 1
    ("nonhermitian", checks.WEIGHT, slice(40, 60), 1.5),  # weight rises
    ("nonhermitian", checks.N_A, slice(20, 21), 1 + 1e-5),  # engines disagree
])
def test_perturbed_fock_trajectory_raises_fail_rate(fock_run, engine, column,
                                                    rows, factor):
    out, cfg = fock_run
    perturbed = _perturb(out, cfg, engine, column, rows, factor)
    assert _fail_rate(perturbed, cfg) == 0.5


def test_perturbed_gaussian_trajectory_raises_fail_rate(thermal_run):
    out, cfg = thermal_run
    # |g1| > 1 makes |N_ab|^2 > N_aa N_bb: not positive semidefinite
    data = checks.read_csv(out / f"{cfg.scenario}_gaussian.csv")
    row = int(np.argmax(np.abs(data[:, checks.IM_G1])))
    scale = 1.0 / abs(data[row, checks.IM_G1]) + 1.0
    perturbed = _perturb(out, cfg, "gaussian", checks.IM_G1,
                         slice(row, row + 1), scale)
    problems = checks.check_scenario(perturbed, cfg, False)["gaussian"]
    assert any("semidefinite" in p for p in problems)
    assert _fail_rate(perturbed, cfg) == 1.0


def test_oracle_matches_engines_closely(fock_run, thermal_run):
    for out, cfg in (fock_run, thermal_run):
        engine = "gaussian" if "gaussian" in cfg.engines else "lindblad"
        rows = checks.read_csv(out / f"{cfg.scenario}_{engine}.csv")
        assert checks.oracle_error(cfg, rows) < 1e-10


def test_timed_runs_see_unwrapped_functions(tmp_path):
    runner = worker.Runner("sparse-sampling", 0, tmp_path)
    runner.scenarios = runner.scenarios[:1]
    runner.configs = [replace(runner.configs[0], samples=3, t_end=0.5)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.wrapped_sites()
        with pytest.raises(RuntimeError, match="traced functions"):
            runner.run_pass(traced=False)
    finally:
        tracer.uninstall()
    assert tracing.wrapped_sites() == []
    timed = runner.run_pass(traced=False)
    traced = runner.run_pass(traced=True)
    assert timed["errors"] == traced["errors"] == {}
    assert tracing.wrapped_sites() == []
    layers = traced["layers"]
    assert layers["ode.rhs_evals"] > 0 and layers["lindblad.evolve_s"] > 0
    assert traced["absent"] == []


def test_missing_hook_is_recorded_absent(monkeypatch):
    monkeypatch.setattr(tracing, "SITES", tracing.SITES + (
        ("ode", "ptdimer.ode", "no_such_function", "span"),
        ("ode", "ptdimer.no_such_module", "integrate", "span")))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["ptdimer.ode.no_such_function",
                             "ptdimer.no_such_module.integrate"]
    assert tracing.wrapped_sites() == []


def test_seed_sets_order_and_couplings():
    a = workloads.scenarios("sparse-sampling", 1)
    assert a == workloads.scenarios("sparse-sampling", 1)
    assert a != workloads.scenarios("sparse-sampling", 2)
    phases = {s.id.rsplit("_", 1)[1]: workloads.resolve("sparse-sampling", s)
              for s in a}
    for phase, cfg in phases.items():
        assert cfg.system_params().regime().phase.value == {
            "pt": "pt-symmetric", "ep": "exceptional-point",
            "broken": "broken"}[phase]
