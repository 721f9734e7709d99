"""Noise quanta: thermal occupancy, stage and chain added noise, output
PSD, and the pump-on/off calibration inversion."""

import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from kipa import (
    NoiseChain,
    NonPhysical,
    added_noise,
    pump_onoff_nk,
    stage_noise,
    stage_noise_finite_gain,
    thermal_occupancy,
    total_noise_psd,
)

OMEGA = 2 * math.pi * 7.155e9


def onoff_forward(n_k, BW, G_k, G_h, alpha, omega, T, n_h):
    """Two-step calibration forward model (independent of the inversion):
    output powers S_off, S_on in W over the bandwidth BW."""
    n_bar = 1.0 / math.expm1(hbar * omega / (k_B * T)) if T > 0 else 0.0
    s_off = hbar * omega * G_h * BW * (
        n_bar + 0.5 + (G_h - 1.0) / G_h * n_h
    )
    n_add = (G_k - 1.0) / G_k * (n_bar + 0.5 + n_k) + n_h / G_k
    s_on = hbar * omega * G_h * BW * (
        alpha * G_k * (n_bar + 0.5 + n_add) + (1.0 - alpha) * (n_bar + 0.5)
    )
    return s_on, s_off


class TestThermalOccupancy:
    def test_zero_temperature(self):
        assert thermal_occupancy(OMEGA, 0.0) == 0.0

    def test_100mk_value(self):
        n = thermal_occupancy(OMEGA, 0.1)
        expected = 1.0 / (math.exp(hbar * OMEGA / (k_B * 0.1)) - 1.0)
        assert n == pytest.approx(expected, rel=1e-12)
        assert n == pytest.approx(0.0333, abs=2e-4)

    def test_rayleigh_jeans_regime(self):
        n = thermal_occupancy(OMEGA, 4.5)
        assert n == pytest.approx(12.6, rel=0.01)
        assert n == pytest.approx(k_B * 4.5 / (hbar * OMEGA), rel=0.05)

    def test_coth_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            omega = 2 * math.pi * 10 ** rng.uniform(8.5, 10.5)
            temp = 10 ** rng.uniform(-2.0, 1.0)
            n = thermal_occupancy(omega, temp)
            half_coth = 0.5 / math.tanh(hbar * omega / (2 * k_B * temp))
            assert abs(half_coth - (n + 0.5)) <= 1e-13 * half_coth

    def test_extreme_ratio_underflows_to_zero(self):
        assert thermal_occupancy(2 * math.pi * 1e12, 1e-6) == 0.0

    @pytest.mark.parametrize("omega, T", [(2 * math.pi * 1e-300, 1e300),
                                          (1e-320, 1.0)])
    def test_occupancy_beyond_a_double_is_non_physical(self, omega, T):
        # hbar*w/kT underflows to 0 or 1/expm1 overflows: n ~ kT/(hbar w)
        with pytest.raises(NonPhysical, match="thermal occupancy overflows"):
            thermal_occupancy(omega, T)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            thermal_occupancy(0.0, 1.0)
        with pytest.raises(ValueError):
            thermal_occupancy(OMEGA, -0.1)


class TestAddedNoise:
    def test_ideal_chain_reaches_vacuum_floor(self):
        chain = NoiseChain(G_k=1e9, G_h=1e6, n_h=20.0, eta=1.0,
                           T=0.0, T_dev=0.0, omega=OMEGA)
        result = added_noise(chain)
        assert result.n_k == 0.0
        assert result.n_add == pytest.approx(0.5, abs=1e-6)

    def test_unit_gain_chain_dominated_by_classical_noise(self):
        chain = NoiseChain(G_k=1.0, G_h=1e6, n_h=12.5, eta=0.9,
                           T=0.1, T_dev=0.1, omega=OMEGA)
        assert added_noise(chain).n_add == pytest.approx(12.5, rel=1e-12)

    def test_worked_chain_values(self):
        chain = NoiseChain(G_k=1000.0, G_h=1e6, n_h=10.0, eta=0.9,
                           T=0.1, T_dev=0.1, omega=OMEGA)
        result = added_noise(chain)
        n_bar = thermal_occupancy(OMEGA, 0.1)
        assert result.n_k == pytest.approx(2 * (0.1 / 0.9) * (n_bar + 0.5), rel=1e-12)
        assert result.n_k == pytest.approx(0.1185, abs=2e-4)
        assert result.n_add == pytest.approx(0.661, abs=1e-3)

    def test_finite_gain_form_approaches_asymptote(self):
        n_bar = thermal_occupancy(OMEGA, 0.1)
        asymptote = stage_noise(0.9, 0.1, OMEGA)
        finite = [stage_noise_finite_gain(0.9, G, n_bar) for G in (1e2, 1e4, 1e8)]
        errors = [abs(f - asymptote) / asymptote for f in finite]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3
        # lossless stage adds nothing at any gain
        assert stage_noise_finite_gain(1.0, 100.0, n_bar) == 0.0
        with pytest.raises(ValueError):
            stage_noise_finite_gain(0.9, 1.0, n_bar)  # needs gain above one
        with pytest.raises(ValueError):
            stage_noise(1.5, 0.1, OMEGA)

    def test_quantum_limit_floor(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            chain = NoiseChain(
                G_k=10 ** rng.uniform(0.0, 9.0),
                G_h=10 ** rng.uniform(0.0, 9.0),
                n_h=rng.uniform(0.5, 50.0),
                eta=rng.uniform(0.05, 1.0),
                T=10 ** rng.uniform(-3.0, 0.7),
                T_dev=10 ** rng.uniform(-3.0, 0.7),
                omega=2 * math.pi * 10 ** rng.uniform(9.0, 10.5),
            )
            result = added_noise(chain)
            floor = 0.5 * (chain.G_k - 1.0) / chain.G_k
            assert result.n_add >= floor - 1e-12


class TestTotalNoisePsd:
    def test_monotone_in_temperature(self):
        chain = NoiseChain(G_k=1000.0, G_h=1000.0, n_h=10.0, eta=0.9,
                           T=0.1, T_dev=0.1, omega=OMEGA)
        temps = np.linspace(0.0, 4.5, 30)
        psd = [total_noise_psd(chain, t) for t in temps]
        assert np.all(np.diff(psd) > 0)

    def test_zero_temperature_limit(self):
        chain = NoiseChain(G_k=1000.0, G_h=1000.0, n_h=10.0, eta=0.9,
                           T=0.1, T_dev=0.1, omega=OMEGA)
        n_add = added_noise(chain).n_add
        expected = hbar * OMEGA * 1e6 * (0.5 + n_add)
        assert total_noise_psd(chain, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_synthetic_chain_scale(self):
        # G_tot = 1e6 with n_add ~ 0.661 at 100 mK: ~5.66e-18 W/Hz
        chain = NoiseChain(G_k=1000.0, G_h=1000.0, n_h=10.0, eta=0.9,
                           T=0.1, T_dev=0.1, omega=OMEGA)
        psd = total_noise_psd(chain, 0.1)
        n_add = added_noise(chain).n_add
        half_coth = thermal_occupancy(OMEGA, 0.1) + 0.5
        assert psd == pytest.approx(hbar * OMEGA * 1e6 * (half_coth + n_add), rel=1e-12)
        assert psd == pytest.approx(5.66e-18, rel=1e-2)


class TestPumpOnOff:
    def test_round_trip_single_mode_value(self):
        BW, G_k, G_h, alpha, T, n_h = 1e6, 1e6, 1e8, 1.0, 0.1, 10.0
        s_on, s_off = onoff_forward(0.82, BW, G_k, G_h, alpha, OMEGA, T, n_h)
        n_k = pump_onoff_nk(s_on, s_off, BW, G_k, G_h, alpha, OMEGA, T)
        assert n_k == pytest.approx(0.82, abs=1e-9)

    def test_round_trip_two_mode_value(self):
        BW, G_k, G_h, alpha, T, n_h = 5e5, 1e6, 1e8, 1.0, 0.05, 22.0
        s_on, s_off = onoff_forward(1.5, BW, G_k, G_h, alpha, OMEGA, T, n_h)
        n_k = pump_onoff_nk(s_on, s_off, BW, G_k, G_h, alpha, OMEGA, T)
        assert n_k == pytest.approx(1.5, abs=1e-9)

    def test_lossy_path_round_trip(self):
        # with alpha < 1 the inversion keeps a small n_h/(G_k-1) bias term;
        # at large G_k it stays below the recovery tolerance
        BW, G_k, G_h, alpha, T, n_h = 1e6, 1e8, 1e8, 0.8, 0.1, 10.0
        s_on, s_off = onoff_forward(0.82, BW, G_k, G_h, alpha, OMEGA, T, n_h)
        n_k = pump_onoff_nk(s_on, s_off, BW, G_k, G_h, alpha, OMEGA, T)
        assert n_k == pytest.approx(0.82, abs=1e-6)

    def test_degenerate_input_flags_miscalibration(self):
        with pytest.raises(NonPhysical):
            pump_onoff_nk(1e-12, 1e-12, 1e6, 1.0 + 1e-9, 1e8, 1.0, OMEGA, 0.1)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            pump_onoff_nk(1.0, 0.5, 1e6, 1.0, 1e8, 1.0, OMEGA, 0.1)  # G_k == 1
        with pytest.raises(ValueError):
            pump_onoff_nk(1.0, 0.5, 1e6, 10.0, 1e8, 0.0, OMEGA, 0.1)  # alpha == 0
        with pytest.raises(ValueError):
            pump_onoff_nk(1.0, 0.5, 0.0, 10.0, 1e8, 1.0, OMEGA, 0.1)  # BW == 0
