"""Integrator: embedded Runge-Kutta pair and exact propagation of linear
problems; accuracy, adaptivity, failure modes."""
import importlib

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from ptdimer import (
    IntegrationFailure,
    OdeProblem,
    integrate_adaptive,
    integrate_fixed,
    step_embedded,
)
from ptdimer.ode import EXACT_MAX_ENTRIES, expm, expm_minus_identity
from ptdimer.scenarios import parse_config, run_engine


def _decay(t, y):
    return -y


def _expm_2x2(a, t):
    """Closed-form exp(a*t) through eigendecomposition."""
    w, v = np.linalg.eig(a)
    return v @ np.diag(np.exp(w * t)) @ np.linalg.inv(v)


class TestStepEmbedded:
    def test_constant_rhs_exact(self):
        y0 = np.array([2.0 + 1.0j, -0.5 + 0j])
        y1, err = step_embedded(lambda t, y: np.full_like(y, 3.0), 0.0, y0, 0.7)
        assert np.allclose(y1, y0 + 2.1, rtol=0, atol=1e-15)
        # the difference coefficients cancel only to rounding
        assert np.abs(err).max() < 1e-15 * 2.1

    def test_exponential_one_step(self):
        y0 = np.array([1.0 + 0j])
        y1, _ = step_embedded(_decay, 0.0, y0, 0.1)
        assert abs(y1[0] - np.exp(-0.1)) < 1e-8

    def test_error_estimate_order(self):
        # the embedded estimate scales as h^5: halving h gives ~32x
        y0 = np.array([1.0 + 0j])
        _, e1 = step_embedded(_decay, 0.0, y0, 0.2)
        _, e2 = step_embedded(_decay, 0.0, y0, 0.1)
        ratio = abs(e1[0]) / abs(e2[0])
        assert 24.0 < ratio < 42.0


class TestAdaptive:
    def test_exponential_decay(self):
        rtol = 1e-9
        prob = OdeProblem(_decay, np.array([1.0 + 0j]), (0.0, 1.0),
                          np.array([1.0]), rtol=rtol, atol=1e-14)
        traj = integrate_adaptive(prob)
        assert abs(traj.states[0, 0] - np.exp(-1.0)) < 10 * rtol
        assert traj.states[0, 0].real == pytest.approx(0.36788, rel=1e-4)

    def test_phase_rotation_preserves_norm(self):
        omega = 2.0 * np.pi
        rhs = lambda t, y: 1j * omega * y          # noqa: E731
        samples = np.linspace(1.0, 100.0, 25)      # 100 cycles
        prob = OdeProblem(rhs, np.array([1.0 + 0j]), (0.0, 100.0), samples,
                          rtol=1e-9, atol=1e-12)
        traj = integrate_adaptive(prob)
        assert np.abs(np.abs(traj.states[:, 0]) - 1.0).max() < 1e-6

    def test_linear_system_matches_matrix_exponential(self):
        contrast, g = 0.7, 2.0
        a = np.array([[-1j * contrast, g], [g, 1j * contrast]])
        y0 = np.array([1.0, 0.5j])
        samples = np.linspace(0.5, 3.0, 6)
        prob = OdeProblem(lambda t, y: a @ y, y0, (0.0, 3.0), samples,
                          rtol=1e-11, atol=1e-14)
        traj = integrate_adaptive(prob)
        exact = np.array([_expm_2x2(a, t) @ y0 for t in samples])
        assert np.abs(traj.states - exact).max() < 1e-8

    def test_error_shrinks_with_rtol(self):
        a = np.array([[-1j * 0.7, 2.0], [2.0, 1j * 0.7]])
        y0 = np.array([1.0, 0.5j])
        samples = np.array([3.0])
        exact = _expm_2x2(a, 3.0) @ y0
        errs = []
        for rtol in (1e-6, 1e-8):
            traj = integrate_adaptive(OdeProblem(lambda t, y: a @ y, y0,
                                                 (0.0, 3.0), samples,
                                                 rtol=rtol, atol=1e-14))
            errs.append(np.abs(traj.states[0] - exact).max())
        assert errs[0] / errs[1] > 20.0

    def test_lands_exactly_on_samples(self):
        samples = np.array([0.1, 0.25, 0.7, 0.9999, 1.0])
        prob = OdeProblem(_decay, np.array([1.0 + 0j]), (0.0, 1.0), samples,
                          rtol=1e-9, atol=1e-12)
        traj = integrate_adaptive(prob)
        assert np.array_equal(traj.times, samples)

    def test_deterministic(self):
        a = np.array([[-1j * 0.7, 2.0], [2.0, 1j * 0.7]])
        y0 = np.array([1.0, 0.5j])
        samples = np.linspace(0.2, 3.0, 9)
        make = lambda: integrate_adaptive(               # noqa: E731
            OdeProblem(lambda t, y: a @ y, y0, (0.0, 3.0), samples,
                       rtol=1e-9, atol=1e-12))
        t1, t2 = make(), make()
        assert np.array_equal(t1.states, t2.states)
        assert t1.stats.steps == t2.stats.steps

    def test_stats_populated(self):
        prob = OdeProblem(_decay, np.array([1.0 + 0j]), (0.0, 1.0),
                          np.array([1.0]), rtol=1e-9, atol=1e-12)
        stats = integrate_adaptive(prob).stats
        assert stats.steps > 0
        assert stats.rhs_evaluations >= 6 * stats.steps
        assert stats.rejected >= 0

    def test_first_stage_reused(self):
        # the rate jumps at t = 0.5, so the step across it is rejected
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -(10.0 if t > 0.5 else 1.0) * y
        prob = OdeProblem(rhs, np.array([1.0 + 0j]), (0.0, 1.0),
                          np.array([1.0]), rtol=1e-9, atol=1e-12)
        traj = integrate_adaptive(prob)
        stats = traj.stats
        assert stats.rejected > 0
        assert len(calls) == stats.rhs_evaluations \
            == 6 * (stats.steps + stats.rejected) + 2
        assert traj.states[-1, 0] == pytest.approx(np.exp(-0.5 - 5.0),
                                                   rel=1e-6)

    def test_validation(self):
        y0 = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            integrate_adaptive(OdeProblem(_decay, y0, (1.0, 0.0),
                                          np.array([0.5])))
        with pytest.raises(ValueError):
            integrate_adaptive(OdeProblem(_decay, y0, (0.0, 1.0),
                                          np.array([0.5, 0.4])))
        with pytest.raises(ValueError):
            integrate_adaptive(OdeProblem(_decay, y0, (0.0, 1.0),
                                          np.array([2.0])))
        with pytest.raises(ValueError):
            integrate_adaptive(OdeProblem(_decay, y0, (0.0, 1.0),
                                          np.array([]), rtol=1e-9))
        with pytest.raises(ValueError):
            integrate_adaptive(OdeProblem(_decay, y0, (0.0, 1.0),
                                          np.array([0.5]), rtol=-1.0))

    @pytest.mark.parametrize("linear", [False, True], ids=["adaptive", "exact"])
    @pytest.mark.parametrize("rtol, atol", [
        (1e-9, np.inf), (1e-9, np.nan), (np.nan, 1e-12), (np.inf, 1e-12),
        (1e-9, -np.inf), (0.0, 1e-12)])
    def test_tolerances_must_be_finite_and_positive(self, linear, rtol, atol):
        # with atol = inf the error control is off: this stiff system left
        # |y| at 5.9e11 instead of 1 in 10 steps
        a = np.diag([-50j, -1.0])
        prob = OdeProblem(lambda t, y: a @ y, np.array([1.0 + 0j, 0j]),
                          (0.0, 1.0), np.array([1.0]), rtol=rtol, atol=atol,
                          linear=linear)
        with pytest.raises(ValueError, match="rtol and atol"):
            integrate_adaptive(prob)

    @pytest.mark.parametrize("linear", [False, True], ids=["adaptive", "exact"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_times_rejected(self, linear, bad):
        # np.diff(samples) <= 0 is False for nan: [0.5, nan, 1.0] passed, and
        # the exact path wrote exp(-0.5) in the t = 1.0 row
        prob = OdeProblem(_decay, np.array([1.0 + 0j]), (0.0, 1.0),
                          np.array([0.5, bad, 1.0]), linear=linear)
        with pytest.raises(ValueError, match="finite"):
            integrate_adaptive(prob)

    def test_blowup_raises_with_position(self):
        # y' = y^2 from y(0)=1 diverges at t=1
        prob = OdeProblem(lambda t, y: y * y, np.array([1.0 + 0j]),
                          (0.0, 2.0), np.array([2.0]), rtol=1e-9, atol=1e-12)
        with pytest.raises(IntegrationFailure) as exc:
            integrate_adaptive(prob)
        assert 0.9 < exc.value.t_reached <= 1.05

    def test_nonfinite_rhs_fails_cleanly(self):
        def rhs(t, y):
            return y * np.nan if t > 0.5 else -y
        prob = OdeProblem(rhs, np.array([1.0 + 0j]), (0.0, 1.0),
                          np.array([1.0]), rtol=1e-9, atol=1e-12)
        with pytest.raises(IntegrationFailure):
            integrate_adaptive(prob)

    def test_nonfinite_rhs_after_the_start_underflows(self):
        # the step-size probe past t0 already reads nan, so the first guess
        # is kept and every trial step is rejected
        def rhs(t, y):
            return -y if t == 0.0 else y * np.nan
        prob = OdeProblem(rhs, np.array([1.0 + 0j]), (0.0, 1.0),
                          np.array([1.0]), linear=False)
        with pytest.raises(IntegrationFailure, match="step size underflow"):
            integrate_adaptive(prob)

    def test_zero_flow_from_zero_stays_zero(self):
        # y' = 0 from y0 = 0: both step-size probes read zero
        prob = OdeProblem(lambda t, y: np.zeros_like(y), np.zeros(3),
                          (0.0, 1.0), np.array([0.5, 1.0]), linear=False)
        traj = integrate_adaptive(prob)
        assert np.array_equal(traj.states, np.zeros((2, 3)))


class TestFixedStep:
    def test_global_order_five(self):
        y0 = np.array([1.0 + 0j])
        hs, errs = [], []
        for n in (5, 10, 20, 40, 80):
            y = integrate_fixed(_decay, y0, 0.0, 1.0, n)
            hs.append(1.0 / n)
            errs.append(abs(y[0] - np.exp(-1.0)))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 4.7 < slope < 5.3

    def test_matches_adaptive_result(self):
        a = np.array([[-1j * 0.7, 2.0], [2.0, 1j * 0.7]])
        y0 = np.array([1.0, 0.5j])
        fixed = integrate_fixed(lambda t, y: a @ y, y0, 0.0, 1.0, 2000)
        exact = _expm_2x2(a, 1.0) @ y0
        assert np.abs(fixed - exact).max() < 1e-10


def _rotation_decay(n, seed):
    """Random complex generator with a decaying spectrum."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a - a.conj().T) - np.diag(rng.uniform(0.1, 1.0, n))


class TestExpm:
    @pytest.mark.parametrize("n", [5, 16])
    @pytest.mark.parametrize("norm, squarings", [
        (0.3, 0), (4.0, 0), (9.0, 1), (40.0, 3), (150.0, 5), (400.0, 7)])
    def test_matches_scipy(self, n, norm, squarings):
        rng = np.random.default_rng(n * 1000 + int(norm))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a *= norm / np.abs(a).sum(axis=0).max()
        # the 1-norm fixes how often the Pade-13 approximant is squared
        assert max(0, int(np.ceil(np.log2(norm / 5.371920351148152)))) \
            == squarings
        ref = scipy_expm(a)
        assert np.abs(expm(a) - ref).max() < 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [5, 16])
    @pytest.mark.parametrize("norm, squarings", [
        (9.0, 1), (40.0, 3), (150.0, 5)])
    def test_minus_identity_squarings_match_scipy(self, n, norm, squarings):
        # each squaring runs the (I + q)^2 - I recurrence once; the exact
        # path's own steps (norm <= 0.4) never take one
        rng = np.random.default_rng(n * 1000 + int(norm) + 1)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a *= norm / np.abs(a).sum(axis=0).max()
        assert max(0, int(np.ceil(np.log2(norm / 5.371920351148152)))) \
            == squarings
        ref = scipy_expm(a) - np.eye(n)
        got = expm_minus_identity(a)
        assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("t", [0.0, 0.5, 3.0, 40.0])
    def test_jordan_block_at_the_exceptional_point(self, t):
        # at the exceptional point the two eigenvectors coalesce and the
        # propagator grows a secular term linear in t
        lam = -0.3 + 2.0j
        exact = np.exp(lam * t) * np.array([[1.0, t], [0.0, 1.0]])
        got = expm(np.array([[lam, 1.0], [0.0, lam]]) * t)
        assert np.abs(got - exact).max() < 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("norm", [1e-8, 1e-3])
    def test_small_exponent_keeps_relative_precision(self, norm):
        # exp(a) - I formed as expm(a) - I would lose ~log10(1/norm) digits
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a *= norm / np.abs(a).sum(axis=0).max()
        series = a.copy()
        term = a.copy()
        for k in range(2, 8):
            term = term @ a / k
            series += term
        got = expm_minus_identity(a)
        assert np.abs(got - series).max() < 1e-15 * np.abs(series).max()

    def test_zero_and_empty(self):
        assert np.abs(expm(np.zeros((3, 3))) - np.eye(3)).max() < 1e-15
        assert expm(np.zeros((0, 0))).shape == (0, 0)

    def test_non_finite_entry_raises(self):
        a = np.eye(3, dtype=complex)
        a[1, 2] = np.nan
        with pytest.raises(FloatingPointError):
            expm(a)


class TestExactPath:
    def _problem(self, a, y0, samples, **kw):
        return OdeProblem(lambda t, y: a @ y, y0, (0.0, float(samples[-1])),
                          samples, linear=True, **kw)

    @pytest.mark.parametrize("samples,exponentials", [
        (np.linspace(0.0, 4.0, 41), 1),
        (np.geomspace(1e-3, 4.0, 25), 25),
        (np.concatenate([np.linspace(0.0, 1.0, 21),
                         np.linspace(1.2, 4.0, 15)]), 2)],
        ids=["uniform", "geometric", "piecewise"])
    def test_matches_tight_adaptive(self, samples, exponentials):
        a = _rotation_decay(6, 3)
        y0 = np.array([1.0, 0.5j, 0, 0, -0.2, 0])
        exact = integrate_adaptive(self._problem(a, y0, samples))
        ref = integrate_adaptive(OdeProblem(
            lambda t, y: a @ y, y0, (0.0, 4.0), samples, rtol=1e-12,
            atol=1e-15))
        assert np.abs(exact.states - ref.states).max() < 1e-10
        steps = np.diff(samples, prepend=0.0)
        assert exact.stats.exponentials == exponentials
        assert exact.stats.steps == np.count_nonzero(steps)
        assert exact.stats.rejected == 0

    def test_closure_follows_the_rhs(self):
        # indices 2 and 3 lie outside the closure of y0 under the RHS; the
        # exact path reads L in one rhs call on the identity and evolves
        # every entry, and those stay exactly 0
        a = np.diag([-1.0, -2.0, -3.0, -4.0]).astype(complex)
        a[1, 0] = 0.5
        y0 = np.array([1.0, 0, 0, 0], dtype=complex)
        calls = []

        def rhs(t, y):
            calls.append(t)
            return a @ y
        samples = np.linspace(0.0, 1.0, 11)
        traj = integrate_adaptive(OdeProblem(rhs, y0, (0.0, 1.0), samples,
                                             linear=True))
        assert traj.stats.dimension == 4
        assert traj.stats.rhs_evaluations == len(calls) == 1
        assert np.all(traj.states[:, 2:] == 0.0)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_states_hold_the_closure_only(self):
        # states have a column for every entry, but are nonzero only on the
        # closure {0, 2} of y0 under the RHS
        a = np.diag([-1.0, -2.0, -3.0, -4.0]).astype(complex)
        a[2, 0] = 0.5
        y0 = np.array([1.0, 0, 0, 0], dtype=complex)
        traj = integrate_adaptive(self._problem(a, y0, np.linspace(0, 1, 9)))
        assert traj.states.shape == (9, traj.stats.dimension) == (9, 4)
        assert np.array_equal(np.flatnonzero(traj.states.any(axis=0)), [0, 2])
        exact = np.array([scipy_expm(a * t) @ y0 for t in traj.times])
        assert np.abs(traj.states - exact).max() < 1e-15

    @pytest.mark.parametrize("n", [6, 60])
    @pytest.mark.parametrize("samples", [37, 1000])
    def test_runs_that_are_not_powers_of_two(self, n, samples):
        # doubling fills 1, 2, 4, ... rows and a partial last block; at 60
        # entries and 37 samples it takes no squaring at all
        a = _rotation_decay(n, 9)
        y0 = np.linspace(1.0, 2.0, n) + 0.5j
        times = np.linspace(0.0, 4.0, samples)
        traj = integrate_adaptive(self._problem(a, y0, times))
        q = expm_minus_identity(a * (times[1] - times[0]))
        ref = [y0]
        for _ in times[1:]:
            ref.append(ref[-1] + q @ ref[-1])
        ref = np.array(ref)
        assert np.abs(traj.states - ref).max() < 1e-12 * np.abs(ref).max()
        assert (traj.stats.steps, traj.stats.exponentials) == (samples - 1, 1)

    def test_state_above_bound_takes_adaptive_path(self):
        y0 = np.zeros(EXACT_MAX_ENTRIES + 1, dtype=complex)
        y0[0] = 1.0
        traj = integrate_adaptive(OdeProblem(
            _decay, y0, (0.0, 1.0), np.array([0.5, 1.0]), linear=True))
        assert traj.stats.exponentials == 0
        assert traj.stats.dimension == y0.size
        assert traj.stats.rhs_evaluations >= 6 * traj.stats.steps > 0
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-8)

    def test_bitwise_deterministic(self):
        a = _rotation_decay(8, 5)
        y0 = np.ones(8, dtype=complex)
        samples = np.linspace(0.0, 3.0, 200)
        t1 = integrate_adaptive(self._problem(a, y0, samples))
        t2 = integrate_adaptive(self._problem(a, y0, samples))
        assert np.array_equal(t1.states, t2.states)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_generator_raises(self, bad):
        a = _rotation_decay(4, 7)
        a[2, 1] = bad
        with pytest.raises((FloatingPointError, IntegrationFailure)):
            integrate_adaptive(self._problem(a, np.ones(4, dtype=complex),
                                             np.linspace(0.0, 1.0, 5)))

    def test_strong_decay_per_step_keeps_relative_precision(self):
        # each step shrinks y by e^-30 or more: y + (exp(a) - I) y would
        # cancel to ~1e-3 relative noise per step; exp(a) y, good to ~3e-14
        # (the exponential's own error at this norm), holds to 1e-261
        a = np.diag([-30.0 + 2.0j, -31.0]).astype(complex)
        samples = np.linspace(0.0, 20.0, 21)
        traj = integrate_adaptive(self._problem(a, np.ones(2, dtype=complex),
                                                samples))
        exact = np.exp(np.outer(samples, np.diag(a)))
        assert np.abs(traj.states / exact - 1.0).max() < 1e-11

    def test_overflow_raises_with_position(self):
        a = np.array([[400.0 + 0j]])
        with pytest.raises(IntegrationFailure) as exc:
            integrate_adaptive(self._problem(a, np.array([1.0 + 0j]),
                                             np.linspace(0.0, 4.0, 5)))
        assert exc.value.t_reached == 1.0


_COLD = ("state = thermal 6e-5\ntemperature = 6e-5\nengines = lindblad\n"
         "allow_lindblad_thermal = true")


class TestStackContract:
    """Every linear RHS of the package maps a column stack to L Y, so the
    exact path reads L in one call on the identity, bit for bit the matrix
    of the 1-D calls on each unit vector."""

    @pytest.mark.parametrize("engine, scenario, text, size", [
        ("lindblad", "fig2a", "", 56),
        ("lindblad", None, "state = noon 5", 91),
        ("lindblad", None, _COLD, 204),
        ("nonhermitian", "fig2a", "", 6),
        ("nonhermitian", None, _COLD, 120),
        ("lindblad", None, "g = 0\nstate = fock 3 2", 12),
        ("nonhermitian", None, "g = 0\nstate = fock 3 2", 1),
        ("gaussian", "fig6b", "", 5)],
        ids=["fig2a", "noon-5", "cold-thermal", "pure-nonhermitian",
             "mixed-nonhermitian", "uncoupled", "uncoupled-pure",
             "gaussian"])
    def test_identity_gives_the_unit_columns(self, monkeypatch, engine,
                                             scenario, text, size):
        module = importlib.import_module(f"ptdimer.{engine}")
        problems = []

        def capture(problem):
            problems.append(problem)
            return integrate_adaptive(problem)
        monkeypatch.setattr(module, "integrate_adaptive", capture)
        run_engine(engine, parse_config(text, scenario))
        (problem,) = problems
        assert problem.linear
        y0 = np.asarray(problem.y0)
        assert y0.shape == (size,)
        eye = np.eye(size, dtype=y0.dtype)
        stack = problem.rhs(0.0, eye)
        columns = np.stack([problem.rhs(0.0, unit) for unit in eye], axis=1)
        assert stack.shape == columns.shape == (size, size)
        assert stack.dtype == columns.dtype == y0.dtype
        assert stack.tobytes() == columns.tobytes()


class TestStateDtype:
    @pytest.mark.parametrize("linear", [True, False],
                             ids=["exact", "adaptive"])
    @pytest.mark.parametrize("y0, dtype", [
        ([1.0], np.float64), ([1.0 + 0j], np.complex128),
        (np.array([1], dtype=np.int64), np.float64),
        (np.array([1], dtype=np.complex64), np.complex128)],
        ids=["real-list", "complex-list", "int", "complex64"])
    def test_state_keeps_the_dtype_of_y0(self, linear, y0, dtype):
        # a density block's real coordinates stay real on both paths
        traj = integrate_adaptive(OdeProblem(
            _decay, y0, (0.0, 1.0), np.linspace(0.0, 1.0, 3), linear=linear))
        assert traj.states.dtype == dtype
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8


class TestValidation:
    """Input from outside the program is checked where it enters."""

    @pytest.mark.parametrize("case", ["step-budget", "fixed-steps"])
    def test_invalid_input_raises(self, case, monkeypatch):
        if case == "step-budget":
            monkeypatch.setattr("ptdimer.ode._MAX_STEPS", 3)
            problem = OdeProblem(_decay, np.ones(1, dtype=complex),
                                 (0.0, 10.0), np.array([10.0]))
            with pytest.raises(IntegrationFailure, match="step budget"):
                integrate_adaptive(problem)
        else:
            with pytest.raises(ValueError, match="at least one step"):
                integrate_fixed(_decay, np.ones(1), 0.0, 1.0, 0)
