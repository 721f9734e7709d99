"""Single-mode closed forms: inductance, tuning, pump rate, gain,
phase-sensitive interference, susceptibility, stability."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kipa.oracle as oracle
from kipa import (
    CoupledSystem,
    KineticFilm,
    NonPhysical,
    PoleAtFrequency,
    PumpConfig,
    ResonatorParams,
    UnstableRegime,
    bias_frequency_shift,
    double_mode_gain_bare,
    kinetic_inductance,
    on_resonance_gain,
    phase_sensitive_gain,
    pump_rate,
    single_mode_gain,
    stability_double,
    stability_single,
    susceptibility,
)

FILM = KineticFilm(L0=251e-9, I_star=5.86e-3)


def make_res(kappa_hz=32e6, eta=1.0, f0=7.155e9):
    kappa = 2 * math.pi * kappa_hz
    return ResonatorParams(omega0=2 * math.pi * f0,
                           kappa_e=eta * kappa,
                           kappa_i=(1.0 - eta) * kappa)


def reference_factors(res, g):
    """Signal and idler at omega = delta = phi_p = 0 in real arithmetic over
    their own denominator (kappa/2)**2 - g**2."""
    k = res.kappa
    den = (k / 2.0) ** 2 - g**2
    return res.eta * k * (k / 2.0) / den - 1.0, -1j * res.eta * k * g / den


def reference_phase_sensitive_gain(res, g, delta_phi):
    """phase_sensitive_gain on :func:`reference_factors`, without the gain
    kernel's stability and overflow checks."""
    gs0, gi0 = reference_factors(res, g)
    return np.abs(gs0 + gi0 * np.exp(1j * np.asarray(delta_phi, dtype=float))) ** 2


def reference_susceptibility(res, g, phi_p, omega):
    """susceptibility over its own denominator (i w - k/2)**2 - g**2, in
    Python complex arithmetic and without the gain kernel's checks."""
    k = res.kappa
    num = np.array([[-1j * omega + k / 2.0, -1j * g * np.exp(1j * phi_p)],
                    [1j * g * np.exp(-1j * phi_p), -1j * omega + k / 2.0]])
    return num / ((1j * omega - k / 2.0) ** 2 - g**2)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kappa_e_hz=st.floats(1e3, 1e9), kappa_i_hz=st.floats(0.0, 1e9),
       g_frac=st.floats(-0.999, 0.999), phi_p=st.floats(0.0, 2 * math.pi),
       omega_frac=st.floats(-3.0, 3.0))
# critically coupled with the pump off: S(0) = 2 eta - 1 cancels to ~1e-5
@example(kappa_e_hz=78121.0, kappa_i_hz=78124.0, g_frac=0.0, phi_p=0.0, omega_frac=0.0)
def test_single_mode_forms_match_own_denominator_references(kappa_e_hz, kappa_i_hz, g_frac,
                                                            phi_p, omega_frac):
    # the kernel divides in complex arithmetic, so only the last digits move;
    # S(0) = eta kappa (kappa/2) / D - 1 carries the rounding of a term near 1
    res = ResonatorParams(omega0=2 * math.pi * 7e9, kappa_e=2 * math.pi * kappa_e_hz,
                          kappa_i=2 * math.pi * kappa_i_hz)
    g = g_frac * res.kappa / 2.0
    dphi = np.linspace(0.0, 2 * math.pi, 17)
    gs0, gi0 = reference_factors(res, g)
    assert np.max(np.abs(phase_sensitive_gain(res, g, dphi)
                         - reference_phase_sensitive_gain(res, g, dphi))) <= (
        1e-13 * (1.0 + abs(gs0) + abs(gi0)) ** 2)
    omega = omega_frac * res.kappa
    expected = reference_susceptibility(res, g, phi_p, omega)
    assert np.all(np.abs(susceptibility(res, g, phi_p, omega) - expected)
                  <= 1e-13 * np.abs(expected))


@pytest.mark.parametrize("kappa, message", [
    (2e-160, "gain denominator underflows (kappa down to 2e-160 rad/s)"),
    (2e-170, "gain denominator underflows (kappa down to 2e-170 rad/s)"),
    (2e160, "gain denominator overflows (kappa up to 2e+160 rad/s)"),
], ids=["2e-160", "2e-170", "2e160"])
@pytest.mark.parametrize("form", [
    lambda res, g: single_mode_gain(res, g, 0.0, 0.0, [0.0]),
    lambda res, g: on_resonance_gain(res, g),
    lambda res, g: phase_sensitive_gain(res, g, [0.0, 1.0]),
    lambda res, g: susceptibility(res, g, 0.3, 0.0),
], ids=["single_mode_gain", "on_resonance_gain", "phase_sensitive_gain",
        "susceptibility"])
def test_extreme_kappa_refused_by_the_gain_kernel(kappa, message, form):
    res = ResonatorParams(omega0=1.0, kappa_e=kappa, kappa_i=0.0)
    with pytest.raises(NonPhysical) as info:
        form(res, kappa / 4)
    assert str(info.value) == message


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
        with pytest.raises(PoleAtFrequency, match=r"^gain pole at omega=0 rad/s$"):
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


class TestNegativePumpRate:
    """The physics depends on g^2, so a negative rate pumps as hard as its
    magnitude: every guard compares |g| with the threshold."""

    def pair(self, res):
        # C0 = 1: the coupled-system threshold is kappa
        return CoupledSystem(mode_a=res, mode_b=res, J=res.kappa / 2)

    @pytest.mark.parametrize("frac", [0.3, 0.8, 1.2])
    def test_guards_see_the_magnitude(self, frac):
        res = make_res(eta=0.9)
        system = self.pair(res)
        for g in (frac * res.kappa / 2, frac * res.kappa):
            assert stability_single(res, -g) == stability_single(res, g)
            assert stability_double(system, -g) == stability_double(system, g)

    def test_stable_results_are_even_in_g(self):
        res = make_res(eta=0.9)
        g = 0.3 * res.kappa
        grid = np.linspace(-res.kappa, res.kappa, 101)
        plus, _ = single_mode_gain(res, g, 0.0, 0.0, grid)
        minus, _ = single_mode_gain(res, -g, 0.0, 0.0, grid)
        assert minus.power_db.tolist() == plus.power_db.tolist()
        assert on_resonance_gain(res, -g) == on_resonance_gain(res, g)
        system = self.pair(res)
        plus = double_mode_gain_bare(system, g, 0.0, 0.0, 0.0, grid)
        minus = double_mode_gain_bare(system, -g, 0.0, 0.0, 0.0, grid)
        assert minus.signal_a.power_db.tolist() == plus.signal_a.power_db.tolist()

    def test_above_threshold_rejected(self):
        res = make_res(eta=0.9)
        grid = np.linspace(-res.kappa, res.kappa, 101)
        with pytest.raises(UnstableRegime):
            single_mode_gain(res, -0.8 * res.kappa, 0.0, 0.0, grid)
        with pytest.raises(UnstableRegime):
            on_resonance_gain(res, -0.8 * res.kappa)
        with pytest.raises(UnstableRegime):
            double_mode_gain_bare(self.pair(res), -1.2 * res.kappa, 0.0, 0.0, 0.0, grid)
