"""Embedded Runge-Kutta pair: accuracy, adaptivity, failure modes."""
import numpy as np
import pytest

from ptdimer import (
    IntegrationFailure,
    OdeProblem,
    integrate_adaptive,
    integrate_fixed,
    step_embedded,
)


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
