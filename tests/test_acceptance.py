"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints one ``ACCEPTANCE <n> <description>: PASS|FAIL`` line so the
suite output doubles as a checklist. Catalog trajectories are cached and
shared between criteria; the conservation sweep checks each Lindblad run's
density matrices on their evolved block only.
"""
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from ptdimer import (
    OdeProblem,
    catalog_config,
    count_prominent_extrema,
    evolve_density,
    evolve_moments,
    fit_decay_rate,
    fock_product_state,
    integrate_adaptive,
    integrate_fixed,
    moment_closure_residual,
    moment_rhs,
    scenario_ids,
    steady_state_moments,
    thermal_occupation,
    FockSpace,
)
from ptdimer.gaussian import diffusion_matrix, drift_matrix, moment_flow_rhs
from ptdimer.scenarios import run_engine
from conftest import GAMMA_A, GAMMA_B, G_BALANCED, G_STRONG, G_WEAK, OMEGA_A, \
    OMEGA_B, ROOM_T, make_params, sampled_states

_RUNS: dict = {}


def _catalog_run(sid: str, engine: str):
    key = (sid, engine)
    if key not in _RUNS:
        cfg = catalog_config(sid)
        _RUNS[key] = run_engine(engine, cfg)
    return _RUNS[key]


def _engine_gap(sids: tuple[str, ...]) -> float:
    # one scalar per excitation number: RMS occupation deviation pooled over
    # the three regime columns, so no single oscillation spike dominates
    pooled = []
    for sid in sids:
        lind = _catalog_run(sid, "lindblad")
        nonh = _catalog_run(sid, "nonhermitian")
        pooled.append(np.maximum(np.abs(lind.n_a - nonh.n_a),
                                 np.abs(lind.n_b - nonh.n_b)))
    return float(np.sqrt(np.mean(np.concatenate(pooled) ** 2)))


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def check(num: int, desc: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {num:2d} {desc}: FAIL")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {num:2d} {desc}: PASS")

    return check


def test_criterion_01_classify_reports_contrast_and_critical_coupling(criterion):
    with criterion(1, "classify reports damping contrast and critical coupling"):
        proc = subprocess.run(
            [sys.executable, "-m", "ptdimer", "classify", "--g", "2.1147e5",
             "--gamma-a", "3.26e5", "--gamma-b", "3.00e2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        fields = dict(line.split(" = ", 1)
                      for line in proc.stdout.strip().splitlines())
        contrast = float(fields["Gamma"].split()[0])
        assert contrast == pytest.approx(8.14e4, rel=1e-3)
        ratio = float(fields["ep_coupling"].split()[3])
        assert ratio == pytest.approx(5.12e-3, rel=5e-3)
        assert fields["phase"] == "pt-symmetric"


def test_criterion_02_room_temperature_occupations(criterion):
    with criterion(2, "room-temperature bath occupations"):
        assert thermal_occupation(OMEGA_A, ROOM_T) == pytest.approx(
            3.76e3, rel=1e-2)
        assert thermal_occupation(OMEGA_B, ROOM_T) == pytest.approx(
            2.41e6, rel=1e-2)


def test_criterion_03_single_excitation_engine_equivalence(criterion):
    with criterion(3, "single-excitation engines agree in all regimes"):
        for sid in ("fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f"):
            lind = _catalog_run(sid, "lindblad")
            nonh = _catalog_run(sid, "nonhermitian")
            dev = max(np.abs(lind.n_a - nonh.n_a).max(),
                      np.abs(lind.n_b - nonh.n_b).max(),
                      np.abs(lind.g1 - nonh.g1).max())
            assert dev < 1e-6, sid


def test_criterion_04_moment_closure_and_dedicated_integrator(criterion):
    with criterion(4, "occupation moments close under the three-variable flow"):
        p = make_params()
        space = FockSpace(5, 5)
        times = np.linspace(0.0, 5.0 / GAMMA_A, 4000)
        fock21 = evolve_density(fock_product_state(2, 1, space), p, times)
        assert moment_closure_residual(fock21, p) < 1e-5
        assert moment_closure_residual(_catalog_run("fig4d", "lindblad"),
                                       p) < 1e-5

        tight = evolve_density(fock_product_state(2, 1, space), p, times,
                               rtol=1e-11, atol=1e-14)
        problem = OdeProblem(lambda t, m: moment_rhs(m, p),
                             np.array([2.0, 1.0, 0.0], dtype=complex),
                             (0.0, times[-1]), times, rtol=1e-11, atol=1e-14)
        sol = integrate_adaptive(problem)
        moments = np.array(sol.states)
        scale = max(tight.n_a_raw.max(), tight.n_b_raw.max())
        rel = max(np.abs(moments[:, 0].real - tight.n_a_raw).max(),
                  np.abs(moments[:, 1].real - tight.n_b_raw).max(),
                  np.abs(moments[:, 2] - tight.coherence).max()) / scale
        assert rel < 1e-8


def test_criterion_05_renormalized_curves_independent_of_excitation_number(
        criterion):
    with criterion(5, "renormalized occupations independent of excitation "
                      "number"):
        for two_id, five_id in (("fig4a", "fig4d"), ("fig4b", "fig4e"),
                                ("fig4c", "fig4f")):
            two = _catalog_run(two_id, "lindblad")
            five = _catalog_run(five_id, "lindblad")
            assert np.abs(two.n_a - five.n_a).max() < 1e-6, two_id
            assert np.abs(two.n_b - five.n_b).max() < 1e-6, two_id
        dev1 = _engine_gap(("fig1d", "fig1e", "fig1f"))
        dev2 = _engine_gap(("fig4a", "fig4b", "fig4c"))
        dev5 = _engine_gap(("fig4d", "fig4e", "fig4f"))
        assert dev1 < 1e-12
        assert dev1 < dev2 < dev5


def test_criterion_06_coherence_peaks_at_critical_coupling(criterion):
    with criterion(6, "late-time coherence peaks at the critical coupling"):
        final_g1 = {sid: abs(_catalog_run(sid, "lindblad").g1[-1])
                    for sid in ("fig4a", "fig4b", "fig4c")}
        assert final_g1["fig4b"] > final_g1["fig4a"]
        assert final_g1["fig4b"] > final_g1["fig4c"]


def test_criterion_07_thermal_regime_signatures(criterion):
    with criterion(7, "finite-temperature regime signatures"):
        n0 = np.diag([3.76e3, 2.41e6]).astype(complex)
        pair_rate = 0.5 * (GAMMA_A + GAMMA_B)

        times = np.linspace(0.0, 5.0 / pair_rate, 2000)
        strong = evolve_moments(n0, make_params(temperature=ROOM_T), times)
        assert count_prominent_extrema(strong.n_b_raw) >= 3

        critical = evolve_moments(
            n0, make_params(g=G_BALANCED, temperature=ROOM_T), times)
        assert count_prominent_extrema(critical.n_b_raw) == 0

        contrast = 0.25 * (GAMMA_A - GAMMA_B)
        slow = 2.0 * (0.25 * (GAMMA_A + GAMMA_B)
                      - np.sqrt(contrast ** 2 - G_WEAK ** 2))
        p_weak = make_params(g=G_WEAK, temperature=ROOM_T)
        times = np.linspace(0.0, 5.0 / slow, 2000)
        weak = evolve_moments(n0, p_weak, times)
        asymptote = steady_state_moments(p_weak)[1, 1].real
        fitted = fit_decay_rate(times, weak.n_b_raw, asymptote=asymptote)
        assert fitted == pytest.approx(slow, rel=0.05)


def test_criterion_08_conservation_sweep_over_catalog(criterion):
    with criterion(8, "conservation laws across the full catalog"):
        seen = set()
        checked = 0
        for sid in scenario_ids():
            cfg = catalog_config(sid)
            key = (cfg.state, cfg.coupling(), cfg.engines, cfg.temperature)
            if key in seen:
                continue  # same physics plotted another way
            seen.add(key)
            params = cfg.system_params()
            for engine in cfg.engines:
                run_cfg = cfg if engine == "gaussian" else replace(cfg)
                if engine == "gaussian":
                    traj = run_engine(engine, run_cfg)
                    n = np.empty((len(traj.times), 2, 2), dtype=complex)
                    n[:, 0, 0] = traj.n_a_raw
                    n[:, 0, 1] = traj.coherence
                    n[:, 1, 0] = np.conj(traj.coherence)
                    n[:, 1, 1] = traj.n_b_raw
                    floor = 1e-8 * np.maximum(1.0, np.abs(n).max(axis=(1, 2)))
                    assert np.all(np.linalg.eigvalsh(n).min(axis=1)
                                  > -floor), sid
                else:
                    from ptdimer.scenarios import _initial_state
                    state = _initial_state(run_cfg,
                                           FockSpace(*run_cfg.mode_dims()))
                    times = run_cfg.sample_times()
                    if engine == "lindblad":
                        traj = evolve_density(state, params, times)
                        assert np.abs(traj.weight - 1.0).max() < 1e-8, sid
                        # rho is zero off the rows and columns of its
                        # evolved entries, so its spectrum is that block's
                        # plus zeros
                        (rows, cols), values = sampled_states(state, params,
                                                              times)
                        live = np.unique(rows)
                        block = np.zeros((len(times), live.size, live.size),
                                         dtype=complex)
                        block[:, np.searchsorted(live, rows),
                              np.searchsorted(live, cols)] = values
                        assert np.array_equal(
                            block, block.conj().transpose(0, 2, 1)), sid
                        assert np.linalg.eigvalsh(block).min() > -1e-8, sid
                    else:
                        from ptdimer import evolve_nonhermitian
                        traj = evolve_nonhermitian(state, params, times)
                        w = traj.weight
                        assert np.all(w[1:] <= w[:-1] * (1.0 + 1e-12)), sid
                assert np.abs(traj.n_a + traj.n_b - 1.0).max() <= 1e-12, sid
                checked += 1
        assert len(seen) == 21
        assert checked == 39  # 18 two-engine configs + 3 moment-only configs


def test_criterion_09_steady_state_residual_and_convergence(criterion):
    with criterion(9, "steady-state fixed point and convergence"):
        p = make_params(temperature=ROOM_T)
        n_ss = steady_state_moments(p)
        d = diffusion_matrix(p)
        res = moment_flow_rhs(n_ss, drift_matrix(p), d)
        assert np.abs(res).max() < 1e-9 * np.abs(d).max()

        pair_rate = 0.5 * (GAMMA_A + GAMMA_B)
        times = np.linspace(0.0, 25.0 / pair_rate, 400)
        rng = np.random.default_rng(99)
        for _ in range(10):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            n0 = a @ a.conj().T
            n0 *= 1e6 / np.abs(n0).max()
            traj = evolve_moments(n0, p, times)
            final = np.array([[traj.n_a_raw[-1], traj.coherence[-1]],
                              [np.conj(traj.coherence[-1]), traj.n_b_raw[-1]]])
            assert np.abs(final - n_ss).max() / np.abs(n_ss).max() < 1e-6


def test_criterion_10_fixed_step_global_order(criterion):
    with criterion(10, "integrator global error scales at fifth order"):
        from scipy.linalg import expm
        a = np.array([[-0.4 - 1.1j, 1.7], [1.7, -0.2 + 0.9j]])
        y0 = np.array([1.0, 0.3 - 0.2j])
        exact = expm(a) @ y0
        hs, errs = [], []
        for n in (10, 20, 40, 80, 160):
            y = integrate_fixed(lambda t, y: a @ y, y0, 0.0, 1.0, n)
            hs.append(1.0 / n)
            errs.append(np.abs(y - exact).max())
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 4.7 < slope < 5.3
