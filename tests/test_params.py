"""Parameter bookkeeping: occupations, couplings, spectra, regime labels."""
import dataclasses
import math

import numpy as np
import pytest

from ptdimer import (
    Phase,
    SystemParams,
    classify_regime,
    dimer_mode_eigenvalues,
    enhanced_coupling,
    gamma_contrast,
    pt_spectrum,
    red_sideband_pump_frequency,
    slowest_decay_rate,
    steady_state_amplitudes,
    thermal_occupation,
)
from conftest import (
    G_BALANCED, G_STRONG, G_WEAK, GAMMA_A, GAMMA_B, OMEGA_A, OMEGA_B, ROOM_T,
    make_params,
)

HBAR_OVER_KB = 1.0545718176461565e-34 / 1.380649e-23


class TestThermalOccupation:
    def test_room_temperature_anchors(self):
        assert thermal_occupation(OMEGA_A, ROOM_T) == pytest.approx(3.76e3, rel=1e-2)
        assert thermal_occupation(OMEGA_B, ROOM_T) == pytest.approx(2.41e6, rel=1e-2)

    def test_matches_direct_bose_formula(self):
        # independent arithmetic, no expm1
        x = HBAR_OVER_KB * OMEGA_A / ROOM_T
        direct = 1.0 / (math.exp(x) - 1.0)
        assert thermal_occupation(OMEGA_A, ROOM_T) == pytest.approx(direct, rel=1e-12)

    def test_zero_temperature(self):
        assert thermal_occupation(1.0, 0.0) == 0.0
        assert thermal_occupation(1e15, 0.0) == 0.0

    def test_extreme_frequency_underflows_to_zero(self):
        # hbar*omega/kT far beyond exp range must not raise OverflowError
        assert thermal_occupation(1e20, 1e-6) == 0.0

    def test_monotone_in_temperature(self):
        rng = np.random.default_rng(11)
        for omega in rng.uniform(1e6, 1e11, size=20):
            lo = thermal_occupation(omega, 100.0)
            hi = thermal_occupation(omega, 400.0)
            assert hi > lo

    def test_validation(self):
        with pytest.raises(ValueError):
            thermal_occupation(0.0, 300.0)
        with pytest.raises(ValueError):
            thermal_occupation(-1.0, 300.0)
        with pytest.raises(ValueError):
            thermal_occupation(1e9, -0.1)


class TestSemiclassicalAmplitudes:
    def test_no_drive_gives_zero(self):
        p = make_params(g=0.0, g0=0.0, pump_amplitude=0.0, omega_p=OMEGA_A)
        assert steady_state_amplitudes(p) == (0j, 0j)

    def test_resonant_drive_closed_form(self):
        # on resonance and without backaction the cavity amplitude reduces to
        # -i*Omega / (2 * (-i*gamma_a/2)) = Omega/gamma_a, real
        p = make_params(g=0.0, g0=0.0, pump_amplitude=2.0 * GAMMA_A,
                        omega_p=OMEGA_A)
        alpha, beta = steady_state_amplitudes(p)
        expected = -1j * (2.0 * GAMMA_A) / (2.0 * (-0.5j * GAMMA_A))
        assert alpha == pytest.approx(expected, rel=1e-12)
        assert alpha == pytest.approx(2.0 + 0j, rel=1e-12)
        assert beta == 0j

    def test_static_shift_sign(self):
        # for real cavity amplitude and negligible mechanical loss the static
        # displacement -g0|alpha|^2/omega_b is real and negative
        p = make_params(g=None, g0=10.0, pump_amplitude=2.0 * GAMMA_A,
                        omega_p=OMEGA_A, gamma_b=1e-12)
        _, beta = steady_state_amplitudes(p)
        assert beta.real < 0
        assert abs(beta.imag) <= 1e-10 * abs(beta.real)

    def test_detuned_drive_closed_form(self):
        omega = 1.7 * GAMMA_A
        omega_p = OMEGA_A - 3.0 * GAMMA_A
        p = make_params(g=0.0, g0=0.0, pump_amplitude=omega, omega_p=omega_p)
        alpha, _ = steady_state_amplitudes(p)
        expected = -1j * (omega / 2.0) / ((OMEGA_A - omega_p) - 0.5j * GAMMA_A)
        assert alpha == pytest.approx(expected, rel=1e-14)

    def test_degenerate_mechanical_frequency_rejected(self):
        # omega_b = 0 would make the static-shift denominator singular;
        # parameter validation forbids it outright
        with pytest.raises(ValueError):
            SystemParams(omega_a=1e9, omega_b=0.0, gamma_a=1e5, gamma_b=0.0,
                         g=0.0)


class TestEnhancedCoupling:
    def test_zero_amplitude(self):
        assert enhanced_coupling(123.0, 0j) == 0.0

    def test_magnitude(self):
        assert enhanced_coupling(1.0, 3 + 4j) == pytest.approx(5.0, rel=1e-15)

    def test_experimental_value_representable(self):
        p = make_params(g=G_STRONG)
        assert p.g == pytest.approx(1.33e-2 * OMEGA_B, rel=1e-15)


class TestGammaContrast:
    def test_experimental_anchor(self):
        assert gamma_contrast(GAMMA_A, GAMMA_B) == pytest.approx(8.1425e4)
        assert gamma_contrast(GAMMA_A, GAMMA_B) == (GAMMA_A - GAMMA_B) / 4.0

    def test_balanced(self):
        assert gamma_contrast(7.0, 7.0) == 0.0

    def test_sign(self):
        assert gamma_contrast(0.0, 4.0) == -1.0


class TestPtSpectrum:
    @staticmethod
    def _assert_matches_eigensolver(lam, g, contrast, scale):
        """Both values of pt_spectrum appear in the 2x2 eigenspectrum."""
        m = np.array([[-1j * contrast, g], [g, 1j * contrast]])
        ev = np.linalg.eigvals(m)
        for value in lam:
            assert min(abs(value - e) for e in ev) < 1e-12 * scale + 1e-13

    def test_strong_coupling_real_pair(self):
        lam = pt_spectrum(G_STRONG, 8.1425e4)
        assert lam[0] == pytest.approx(1.9517e5, rel=1e-3)
        assert lam[1] == pytest.approx(-1.9517e5, rel=1e-3)
        assert lam[1] == -lam[0]
        self._assert_matches_eigensolver(lam, G_STRONG, 8.1425e4, 2e5)

    def test_degenerate_point(self):
        assert pt_spectrum(8.1425e4, 8.1425e4) == (0j, 0j)

    def test_weak_coupling_imaginary_pair(self):
        lam = pt_spectrum(G_WEAK, 8.1425e4)
        assert lam[0] == pytest.approx(1j * 7.863e4, rel=1e-3)
        assert lam[1] == pytest.approx(-1j * 7.863e4, rel=1e-3)
        self._assert_matches_eigensolver(lam, G_WEAK, 8.1425e4, 1e5)

    def test_random_parameters_match_eigensolver(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = rng.uniform(0.0, 2.0)
            contrast = rng.uniform(-2.0, 2.0)
            lam = pt_spectrum(g, contrast)
            assert lam[1] == -lam[0]
            self._assert_matches_eigensolver(lam, g, contrast, 2.0)


class TestClassifyRegime:
    def test_experimental_anchors(self):
        assert classify_regime(G_STRONG, 8.1425e4).phase is Phase.PT_SYMMETRIC
        assert classify_regime(8.1425e4, 8.1425e4).phase is Phase.EXCEPTIONAL_POINT
        assert classify_regime(G_WEAK, 8.1425e4).phase is Phase.BROKEN

    def test_gap_value(self):
        r = classify_regime(G_STRONG, 8.1425e4)
        assert r.gap == pytest.approx(G_STRONG - 8.1425e4, rel=1e-15)

    def test_tolerance_band(self):
        g0 = 1.0
        assert classify_regime(g0 * (1 + 1e-12), g0, tol=1e-9).phase \
            is Phase.EXCEPTIONAL_POINT
        assert classify_regime(g0 * (1 + 1e-6), g0, tol=1e-9).phase \
            is Phase.PT_SYMMETRIC
        assert classify_regime(g0 * (1 - 1e-6), g0, tol=1e-9).phase \
            is Phase.BROKEN

    def test_negative_contrast_uses_magnitude(self):
        assert classify_regime(2.0, -1.0).phase is Phase.PT_SYMMETRIC
        assert classify_regime(0.5, -1.0).phase is Phase.BROKEN

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            classify_regime(1.0, 1.0, tol=0.0)


class TestDimerModeEigenvalues:
    def test_decoupled(self):
        p = make_params(g=0.0)
        mus = set(dimer_mode_eigenvalues(p))
        expected = {OMEGA_B - 0.5j * GAMMA_A, OMEGA_B - 0.5j * GAMMA_B}
        for mu in mus:
            assert min(abs(mu - e) for e in expected) < 1e-6

    def test_degenerate_at_balance(self):
        p = make_params(g=G_BALANCED)
        mu_p, mu_m = dimer_mode_eigenvalues(p)
        both = OMEGA_B - 0.25j * (GAMMA_A + GAMMA_B)
        assert mu_p == pytest.approx(both, rel=1e-12)
        assert mu_m == pytest.approx(both, rel=1e-12)

    def test_weak_coupling_slow_decay_rate(self):
        p = make_params(g=G_WEAK)
        contrast = (GAMMA_A - GAMMA_B) / 4.0
        expected = 2.0 * ((GAMMA_A + GAMMA_B) / 4.0
                          - math.sqrt(contrast**2 - G_WEAK**2))
        assert slowest_decay_rate(p) == pytest.approx(expected, rel=1e-12)
        assert slowest_decay_rate(p) == pytest.approx(5.888e3, rel=1e-3)

    def test_strong_coupling_equal_decay_rates(self):
        p = make_params(g=G_STRONG)
        mu_p, mu_m = dimer_mode_eigenvalues(p)
        assert mu_p.imag == pytest.approx(mu_m.imag, rel=1e-12)
        assert slowest_decay_rate(p) == pytest.approx(
            (GAMMA_A + GAMMA_B) / 2.0, rel=1e-12)


class TestRedSidebandPump:
    def test_no_backaction(self):
        wp = red_sideband_pump_frequency(OMEGA_A, OMEGA_B, GAMMA_A, GAMMA_B,
                                         g0=0.0, pump_amplitude=5.0 * GAMMA_A)
        assert wp == OMEGA_A - OMEGA_B

    def test_self_consistency(self):
        g0 = 25.0
        omega = 4.0 * GAMMA_A
        wp = red_sideband_pump_frequency(OMEGA_A, OMEGA_B, GAMMA_A, GAMMA_B,
                                         g0=g0, pump_amplitude=omega)
        p = make_params(g=None, g0=g0, pump_amplitude=omega, omega_p=wp)
        _, beta = steady_state_amplitudes(p)
        assert wp == pytest.approx(OMEGA_A - OMEGA_B + 2.0 * g0 * beta.real,
                                   rel=1e-11)


class TestSystemParams:
    def test_drive_resolves_coupling(self):
        wp = red_sideband_pump_frequency(OMEGA_A, OMEGA_B, GAMMA_A, GAMMA_B,
                                         g0=25.0, pump_amplitude=4.0 * GAMMA_A)
        p = SystemParams(omega_a=OMEGA_A, omega_b=OMEGA_B, gamma_a=GAMMA_A,
                         gamma_b=GAMMA_B, g0=25.0,
                         pump_amplitude=4.0 * GAMMA_A, omega_p=wp)
        alpha, _ = steady_state_amplitudes(p)
        assert p.g == pytest.approx(25.0 * abs(alpha), rel=1e-12)

    def test_drive_without_pump_frequency_takes_the_red_sideband(self):
        p = make_params(g=None, g0=25.0, pump_amplitude=4.0 * GAMMA_A)
        assert p.omega_p == red_sideband_pump_frequency(
            OMEGA_A, OMEGA_B, GAMMA_A, GAMMA_B, g0=25.0,
            pump_amplitude=4.0 * GAMMA_A)
        alpha, _ = steady_state_amplitudes(p)
        assert p.g == 25.0 * abs(alpha)

    def test_consistent_double_specification_allowed(self):
        p0 = make_params(g0=25.0, pump_amplitude=4.0 * GAMMA_A,
                         omega_p=OMEGA_A - OMEGA_B, g=None)
        p1 = make_params(g=p0.g, g0=25.0, pump_amplitude=4.0 * GAMMA_A,
                         omega_p=OMEGA_A - OMEGA_B)
        assert p1.g == p0.g

    def test_inconsistent_double_specification_rejected(self):
        with pytest.raises(ValueError):
            make_params(g=1.0, g0=25.0, pump_amplitude=4.0 * GAMMA_A,
                        omega_p=OMEGA_A - OMEGA_B)

    def test_missing_coupling_rejected(self):
        with pytest.raises(ValueError):
            make_params(g=None)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            make_params(gamma_a=-1.0)
        with pytest.raises(ValueError):
            make_params(gamma_b=-1.0)
        with pytest.raises(ValueError):
            make_params(g=-1.0)
        with pytest.raises(ValueError):
            make_params(temperature=-1.0)

    def test_zero_damping_allowed_at_parameter_level(self):
        # an undamped beam splitter is a valid parameter set; only scenario
        # configs insist on gamma_a > 0 (their time grid is in 1/gamma_a)
        p = make_params(gamma_a=0.0, gamma_b=0.0)
        assert p.contrast() == 0.0

    def test_zero_mechanical_loss_allowed(self):
        p = make_params(gamma_b=0.0)
        assert p.contrast() == GAMMA_A / 4.0

    def test_accessors(self):
        p = make_params(temperature=ROOM_T)
        assert p.contrast() == (GAMMA_A - GAMMA_B) / 4.0
        assert p.regime().phase is Phase.PT_SYMMETRIC
        assert p.nbar_a() == thermal_occupation(OMEGA_A, ROOM_T)
        assert p.nbar_b() == thermal_occupation(OMEGA_B, ROOM_T)

    def test_frozen(self):
        p = make_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.g = 1.0
