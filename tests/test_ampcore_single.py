"""Single-mode closed forms: inductance, tuning, pump rate, gain,
phase-sensitive interference, susceptibility, stability."""

import math

import numpy as np
import pytest

import kipa.oracle as oracle
from kipa import (
    KineticFilm,
    PoleAtFrequency,
    PumpConfig,
    ResonatorParams,
    UnstableRegime,
    bias_frequency_shift,
    kinetic_inductance,
    on_resonance_gain,
    phase_sensitive_gain,
    pump_rate,
    single_mode_gain,
    stability_single,
    susceptibility,
)

FILM = KineticFilm(L0=251e-9, I_star=5.86e-3, L_sheet=30e-12)


def make_res(kappa_hz=32e6, eta=1.0, f0=7.155e9):
    kappa = 2 * math.pi * kappa_hz
    return ResonatorParams(omega0=2 * math.pi * f0,
                           kappa_e=eta * kappa,
                           kappa_i=(1.0 - eta) * kappa)


class TestKineticInductance:
    def test_zero_current_identity(self):
        assert kinetic_inductance(FILM, 0.0, 0.0) == 251e-9

    def test_factor_two_at_scale_current(self):
        assert kinetic_inductance(FILM, FILM.I_star, 0.0) == pytest.approx(2 * 251e-9)

    def test_dc_bias_value(self):
        # direct evaluation: 251 nH * (1 + (1.575/5.86)^2) = 269.13 nH
        expected = 251e-9 * (1.0 + (1.575e-3 / 5.86e-3) ** 2)
        got = kinetic_inductance(FILM, 1.575e-3, 0.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(269.13e-9, rel=1e-4)

    def test_rf_cross_term(self):
        # mixing term is linear in I_rf at fixed bias
        l1 = kinetic_inductance(FILM, 1e-3, 1e-6)
        l0 = kinetic_inductance(FILM, 1e-3, 0.0)
        expected = FILM.L0 * (2 * 1e-6 * 1e-3 / FILM.I_star**2 + (1e-6 / FILM.I_star) ** 2)
        assert l1 - l0 == pytest.approx(expected, rel=1e-9)


class TestBiasShift:
    def test_zero_current(self):
        assert bias_frequency_shift(2 * math.pi * 7.4e9, 0.0, 5.86e-3) == 0.0

    def test_paper_bias_point(self):
        w0 = 2 * math.pi * 7.4e9
        shift = bias_frequency_shift(w0, 1.575e-3, 5.86e-3)
        shifted_hz = (w0 + shift) / (2 * math.pi)
        assert shift < 0
        assert shifted_hz == pytest.approx(7.13272e9, rel=1e-5)

    def test_half_of_resonance_at_scale_current(self):
        w0 = 2 * math.pi * 7.4e9
        assert bias_frequency_shift(w0, 5.86e-3, 5.86e-3) == pytest.approx(-w0 / 2)

    def test_always_nonpositive(self):
        w0 = 2 * math.pi * 7.4e9
        for idc in np.linspace(-6e-3, 6e-3, 13):
            assert bias_frequency_shift(w0, idc, 5.86e-3) <= 0.0


class TestPumpRate:
    def test_zero_power(self):
        pump = PumpConfig(omega_p=2 * math.pi * 14.3e9, I_dc=1.575e-3, P_p=0.0)
        assert pump_rate(pump, FILM, 2 * math.pi * 7.155e9) == 0.0

    def test_paper_power_point(self):
        # -23.8 dBm at 50 ohm with I_dc = 1.575 mA gives g/2pi ~ 33.5 MHz
        p_w = 1e-3 * 10 ** (-23.8 / 10)
        pump = PumpConfig(omega_p=2 * math.pi * 14.31e9, I_dc=1.575e-3,
                          P_p=p_w, Z_ref=50.0, cal=1.0)
        g = pump_rate(pump, FILM, 2 * math.pi * 7.155e9)
        assert g / (2 * math.pi) == pytest.approx(33.5e6, rel=0.01)

    def test_direct_rate_passthrough(self):
        pump = PumpConfig(omega_p=1.0, g=2 * math.pi * 15.9e6)
        assert pump_rate(pump, FILM, 2 * math.pi * 7e9) == 2 * math.pi * 15.9e6

    def test_magnitude_convention(self):
        # negative bias current: sign folds into the phase, rate is positive
        pump = PumpConfig(omega_p=1.0, I_dc=-1.575e-3, P_p=1e-6)
        assert pump_rate(pump, FILM, 2 * math.pi * 7.155e9) > 0


class TestSingleModeGain:
    def test_pump_off_is_unit_reflection(self):
        res = make_res(eta=1.0)
        grid = np.linspace(-res.kappa, res.kappa, 41)
        signal, idler = single_mode_gain(res, 0.0, 0.0, 0.0, grid)
        assert np.allclose(signal.power, 1.0, atol=1e-12)
        assert np.allclose(idler.values, 0.0)

    def test_quarter_kappa_point(self):
        # frozen from the transfer-matrix oracle: G_S = 5/3, |G_I|^2 = 16/9
        res = make_res(eta=1.0)
        signal, idler = single_mode_gain(res, res.kappa / 4, 0.0, 0.0, [0.0])
        assert abs(signal.values[0]) ** 2 == pytest.approx(25.0 / 9.0, rel=1e-12)
        assert abs(idler.values[0]) ** 2 == pytest.approx(16.0 / 9.0, rel=1e-12)
        m = oracle.matrix_transfer(
            oracle.single_mode_matrices(res, res.kappa / 4), 0.0
        )
        assert m[oracle.SINGLE_SIGNAL] == pytest.approx(signal.values[0], rel=1e-12)

    def test_forty_three_db_anchor(self):
        # pump-on fit values eta=0.9, kappa/2pi=32 MHz at g = 0.99365*kappa/2
        res = make_res(kappa_hz=32e6, eta=0.9)
        signal, _ = single_mode_gain(res, 0.99365 * res.kappa / 2, 0.0, 0.0, [0.0])
        assert signal.power_db[0] == pytest.approx(43.0, abs=0.2)

    def test_unstable_pump_rejected(self):
        res = make_res()
        with pytest.raises(UnstableRegime):
            single_mode_gain(res, res.kappa / 2, 0.0, 0.0, [0.0])

    def test_detuned_spectrum_peaks_off_center(self):
        res = make_res(eta=0.9)
        delta = 0.3 * res.kappa
        grid = np.linspace(-2 * res.kappa, 2 * res.kappa, 801)
        signal, _ = single_mode_gain(res, 0.4 * res.kappa, delta, 0.0, grid)
        assert abs(grid[np.argmax(signal.power)]) > 0.0


class TestOnResonanceGain:
    def test_zero_pump(self):
        assert on_resonance_gain(make_res(), 0.0) == 1.0

    def test_matches_full_form_at_quarter_kappa(self):
        res = make_res(eta=1.0)
        assert on_resonance_gain(res, res.kappa / 4) == pytest.approx(25.0 / 9.0, rel=1e-12)

    def test_divergence_towards_threshold(self):
        res = make_res()
        assert on_resonance_gain(res, 0.499 * res.kappa) > on_resonance_gain(
            res, 0.49 * res.kappa
        )

    def test_threshold_raises(self):
        res = make_res()
        with pytest.raises(UnstableRegime):
            on_resonance_gain(res, res.kappa / 2)

    def test_strictly_increasing_in_pump(self):
        res = make_res()
        gains = [on_resonance_gain(res, r * res.kappa / 2)
                 for r in np.linspace(0.0, 0.999, 200)]
        assert np.all(np.diff(gains) > 0)


class TestPhaseSensitiveGain:
    def test_pump_off_flat(self):
        res = make_res()
        for dphi in np.linspace(0, 2 * math.pi, 9):
            assert phase_sensitive_gain(res, 0.0, dphi) == pytest.approx(1.0)

    def test_extrema_at_quarter_kappa(self):
        # (sqrt(G) +- sqrt(G-1))^2 with G = 25/9: max 9, min 1/9
        res = make_res(eta=1.0)
        dphi = np.linspace(0.0, 2 * math.pi, 4001)
        gains = phase_sensitive_gain(res, res.kappa / 4, dphi)
        assert gains.max() == pytest.approx(9.0, rel=1e-6)
        assert gains.min() == pytest.approx(1.0 / 9.0, rel=1e-6)
        assert gains.max() * gains.min() == pytest.approx(1.0, rel=1e-9)

    def test_period_and_extrema_separation(self):
        res = make_res(eta=1.0)
        g = res.kappa / 4
        dphi = np.linspace(0.0, 2 * math.pi, 8193)[:-1]
        gains = phase_sensitive_gain(res, g, dphi)
        # 2pi periodicity
        assert phase_sensitive_gain(res, g, 0.3) == pytest.approx(
            phase_sensitive_gain(res, g, 0.3 + 2 * math.pi), rel=1e-12
        )
        # amplification and de-amplification extrema sit pi apart
        sep = abs(dphi[np.argmax(gains)] - dphi[np.argmin(gains)])
        assert min(sep, 2 * math.pi - sep) == pytest.approx(math.pi, abs=1e-2)

    def test_unstable_raises(self):
        res = make_res()
        with pytest.raises(UnstableRegime):
            phase_sensitive_gain(res, res.kappa, 0.0)


class TestSusceptibility:
    def test_pump_off_diagonal(self):
        res = make_res()
        chi = susceptibility(res, 0.0, 0.0, 0.0)
        assert chi[0, 0] == pytest.approx(2.0 / res.kappa)
        assert chi[1, 1] == pytest.approx(2.0 / res.kappa)
        assert chi[0, 1] == 0.0 and chi[1, 0] == 0.0

    def test_numerator_determinant(self):
        res = make_res()
        g = 0.3 * res.kappa
        chi = susceptibility(res, g, 0.7, 0.0)
        den = (res.kappa / 2) ** 2 - g**2
        num = chi * den
        det = num[0, 0] * num[1, 1] - num[0, 1] * num[1, 0]
        assert det == pytest.approx(res.kappa**2 / 4 - g**2, rel=1e-12)

    def test_matches_matrix_inverse(self):
        res = make_res(eta=0.8)
        g, phi = 0.35 * res.kappa, 1.1
        for omega in (-0.7 * res.kappa, 0.0, 1.3 * res.kappa):
            chi = susceptibility(res, g, phi, omega)
            a = oracle.single_mode_matrices(res, g, 0.0, phi).a_of(omega)
            inv = np.linalg.inv(a)
            assert np.allclose(chi, inv, rtol=1e-12, atol=0.0)

    def test_pole_at_threshold(self):
        res = make_res()
        with pytest.raises(PoleAtFrequency):
            susceptibility(res, res.kappa / 2, 0.0, 0.0)


class TestStabilitySingle:
    def test_below_threshold(self):
        res = make_res()
        report = stability_single(res, 0.49 * res.kappa)
        assert report.stable
        assert report.margin == pytest.approx(0.01 * res.kappa)

    def test_boundary(self):
        res = make_res()
        report = stability_single(res, res.kappa / 2)
        assert not report.stable
        assert report.margin == 0.0

    def test_pump_off(self):
        res = make_res()
        report = stability_single(res, 0.0)
        assert report.stable
        assert report.margin == res.kappa / 2

    def test_array_of_pump_rates(self):
        res = make_res()
        g = np.array([0.25, 0.5, 0.75]) * res.kappa
        report = stability_single(res, g)
        assert report.stable.tolist() == [True, False, False]
        assert report.margin.tolist() == (res.kappa / 2 - g).tolist()
        assert report.threshold == res.kappa / 2
