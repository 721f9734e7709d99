"""Least-squares parameter extraction: round trips, noisy ensembles and
error paths for the five fits."""

import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from kipa import (
    IllConditioned,
    NoPeak,
    NonPhysical,
    ResonatorParams,
    Trace,
    fit_bias_sweep,
    fit_gain_profile,
    fit_lorentzian,
    fit_noise_temperature,
    fit_reflection,
    hz_to_angular,
    single_mode_gain,
)
from kipa.calfit import damped_least_squares


def reflection_trace(f0, ke_hz, ki_hz, span=None, points=201, noise=0.0, rng=None):
    span = span or 12 * (ke_hz + ki_hz)
    f = np.linspace(f0 - span / 2, f0 + span / 2, points)
    res = ResonatorParams(omega0=hz_to_angular(f0),
                          kappa_e=hz_to_angular(ke_hz),
                          kappa_i=hz_to_angular(ki_hz))
    signal, _ = single_mode_gain(res, 0.0, 0.0, 0.0, hz_to_angular(f - f0))
    y = signal.values.copy()
    if noise:
        y = y + noise * (rng.standard_normal(points) + 1j * rng.standard_normal(points))
    return Trace(x=f, y=y, kind="reflection")


def gain_trace(f_center, g_hz, ke_hz, ki_hz, span_factor=6.0, points=401,
               noise_db=0.0, rng=None):
    kappa_hz = ke_hz + ki_hz
    span = span_factor * kappa_hz
    f = np.linspace(f_center - span / 2, f_center + span / 2, points)
    res = ResonatorParams(omega0=hz_to_angular(f_center),
                          kappa_e=hz_to_angular(ke_hz),
                          kappa_i=hz_to_angular(ki_hz))
    signal, _ = single_mode_gain(res, hz_to_angular(g_hz), 0.0, 0.0,
                                 hz_to_angular(f - f_center))
    y = signal.power_db
    if noise_db:
        y = y + noise_db * rng.standard_normal(points)
    return Trace(x=f, y=y, kind="gain_db")


def bias_trace(f0, i_star, currents, noise=0.0, rng=None):
    freqs = f0 * (1.0 - 0.5 * (np.asarray(currents) / i_star) ** 2)
    if noise:
        freqs = freqs + noise * rng.standard_normal(len(freqs))
    return Trace(x=currents, y=freqs, kind="bias_shift")


def noise_trace(g_tot, n_add, omega, temps, noise_frac=0.0, rng=None):
    x = hbar * omega / (2 * k_B * np.asarray(temps))
    y = g_tot * hbar * omega * (0.5 / np.tanh(x) + n_add)
    if noise_frac:
        y = y * (1.0 + noise_frac * rng.standard_normal(len(y)))
    return Trace(x=temps, y=y, kind="noise_psd")


class TestTraceValidation:
    def test_kind_payload_rules(self):
        with pytest.raises(ValueError):
            Trace(x=[1.0, 2.0], y=[1.0, 2.0], kind="bogus")
        with pytest.raises(ValueError):
            Trace(x=[1.0, 2.0], y=[1j, 2j], kind="gain_db")
        with pytest.raises(ValueError):
            Trace(x=[2.0, 1.0], y=[1.0, 2.0], kind="gain_db")


class TestFitReflection:
    def test_noiseless_round_trip(self):
        trace = reflection_trace(7.155e9, 19e6, 4e6)
        fit = fit_reflection(trace)
        assert fit.converged
        assert fit.params["f0_hz"] == pytest.approx(7.155e9, rel=1e-6)
        assert fit.params["kappa_e_hz"] == pytest.approx(19e6, rel=1e-6)
        assert fit.params["kappa_i_hz"] == pytest.approx(4e6, rel=1e-6)

    def test_noisy_recovery_within_three_sigma(self):
        rng = np.random.default_rng(42)
        hits = 0
        n_seeds = 60
        for _ in range(n_seeds):
            trace = reflection_trace(7.155e9, 19e6, 4e6, noise=0.01, rng=rng)
            fit = fit_reflection(trace)
            ok = all(
                abs(fit.params[name] - truth) <= 3 * fit.sigma[name]
                for name, truth in (("f0_hz", 7.155e9),
                                    ("kappa_e_hz", 19e6),
                                    ("kappa_i_hz", 4e6))
            )
            hits += ok
        assert hits >= 0.9 * n_seeds

    def test_flat_trace_rejected(self):
        f = np.linspace(7.0e9, 7.3e9, 101)
        trace = Trace(x=f, y=np.full(101, 1.0 + 0j), kind="reflection")
        with pytest.raises(IllConditioned):
            fit_reflection(trace)

    def test_wrong_kind_rejected(self):
        trace = Trace(x=[1.0, 2.0], y=[0.0, 1.0], kind="gain_db")
        with pytest.raises(ValueError):
            fit_reflection(trace)

    def test_undercoupled_resonance(self):
        trace = reflection_trace(5.0e9, 2e6, 6e6)
        fit = fit_reflection(trace)
        assert fit.params["kappa_e_hz"] == pytest.approx(2e6, rel=1e-5)
        assert fit.params["kappa_i_hz"] == pytest.approx(6e6, rel=1e-5)


class TestFitBiasSweep:
    def test_noiseless_round_trip(self):
        currents = np.linspace(0.1e-3, 3.0e-3, 25)
        fit = fit_bias_sweep(bias_trace(7.4e9, 5.86e-3, currents))
        assert fit.params["f0_hz"] == pytest.approx(7.4e9, rel=1e-9)
        assert fit.params["i_star_a"] == pytest.approx(5.86e-3, rel=1e-9)
        assert fit.iterations == 0 and fit.converged

    def test_no_current_variation_rejected(self):
        # identical bias points violate the trace invariant outright
        with pytest.raises(ValueError):
            Trace(x=[0.0, 0.0, 0.0], y=[7.4e9] * 3, kind="bias_shift")

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_bias_sweep(Trace(x=[0.0, 1e-3], y=[7.4e9, 7.39e9],
                                 kind="bias_shift"))

    def test_upward_shift_rejected(self):
        currents = np.linspace(0.1e-3, 3e-3, 11)
        freqs = 7.4e9 * (1.0 + 0.5 * (currents / 5.86e-3) ** 2)
        with pytest.raises(NonPhysical):
            fit_bias_sweep(Trace(x=currents, y=freqs, kind="bias_shift"))

    def test_monte_carlo_scale_current_within_two_percent(self):
        rng = np.random.default_rng(7)
        currents = np.linspace(0.1e-3, 3.0e-3, 31)
        span = 7.4e9 * 0.5 * (3.0e-3 / 5.86e-3) ** 2  # full shift range
        hits = 0
        n_seeds = 100
        for _ in range(n_seeds):
            trace = bias_trace(7.4e9, 5.86e-3, currents,
                               noise=0.005 * span, rng=rng)
            fit = fit_bias_sweep(trace)
            hits += abs(fit.params["i_star_a"] - 5.86e-3) / 5.86e-3 < 0.02
        assert hits >= 0.95 * n_seeds

    def test_order_invariance_via_resorting(self):
        currents = np.linspace(0.1e-3, 3.0e-3, 15)
        base = fit_bias_sweep(bias_trace(7.4e9, 5.86e-3, currents))
        rng = np.random.default_rng(0)
        perm = rng.permutation(15)
        order = np.argsort(currents[perm])
        shuffled = Trace(x=currents[perm][order],
                         y=bias_trace(7.4e9, 5.86e-3, currents).y[perm][order],
                         kind="bias_shift")
        refit = fit_bias_sweep(shuffled)
        assert refit.params == base.params


class TestFitGainProfile:
    def test_forty_three_db_round_trip(self):
        kappa = 32e6
        g_true = 0.99365 * kappa / 2
        trace = gain_trace(7.145e9, g_true, 0.9 * kappa, 0.1 * kappa)
        fit = fit_gain_profile(trace)
        kappa_fit = fit.params["kappa_e_hz"] + fit.params["kappa_i_hz"]
        assert fit.params["g_hz"] / (kappa_fit / 2) == pytest.approx(0.99365, rel=1e-3)
        assert fit.params["g_hz"] == pytest.approx(g_true, rel=1e-6)
        assert fit.params["kappa_e_hz"] == pytest.approx(0.9 * kappa, rel=1e-6)
        assert fit.params["f_center_hz"] == pytest.approx(7.145e9, rel=1e-9)

    def test_moderate_gain_round_trip(self):
        trace = gain_trace(7.0e9, 10e6, 25e6, 5e6)
        fit = fit_gain_profile(trace)
        assert fit.params["g_hz"] == pytest.approx(10e6, rel=1e-6)
        assert fit.params["kappa_i_hz"] == pytest.approx(5e6, rel=1e-6)

    def test_pump_off_profile_gives_zero_rate(self):
        # noiseless: the rate collapses to numerically zero
        clean = fit_gain_profile(gain_trace(7.0e9, 0.0, 28e6, 4e6),
                                 kappa_hint=30e6)
        assert abs(clean.params["g_hz"]) < 1e3  # << kappa
        # noisy: the estimate is consistent with zero at its own
        # uncertainty (the gain depends on g only quadratically, so the
        # relative sigma is large)
        rng = np.random.default_rng(23)
        hits = 0
        for _ in range(10):
            trace = gain_trace(7.0e9, 0.0, 28e6, 4e6, noise_db=0.01, rng=rng)
            fit = fit_gain_profile(trace, kappa_hint=30e6)
            assert abs(fit.params["g_hz"]) < 0.05 * 32e6
            hits += abs(fit.params["g_hz"]) <= 5 * fit.sigma["g_hz"]
        assert hits >= 8

    def test_truncated_profile_converges_with_inflated_sigma(self):
        kappa = 32e6
        rng = np.random.default_rng(31)
        full = gain_trace(7.145e9, 0.45 * kappa, 0.9 * kappa, 0.1 * kappa,
                          noise_db=0.01, rng=rng)
        fit_full = fit_gain_profile(full, kappa_hint=kappa)
        keep = full.x >= 7.145e9 - 0.02 * kappa  # peak plus upper shoulder
        half = Trace(x=full.x[keep], y=full.y[keep], kind="gain_db")
        fit_half = fit_gain_profile(half, kappa_hint=kappa)
        assert fit_half.converged
        assert fit_half.params["g_hz"] == pytest.approx(0.45 * kappa, rel=0.01)
        assert fit_half.sigma["g_hz"] > fit_full.sigma["g_hz"]

    def test_global_offset_invariance(self):
        kappa = 32e6
        base = gain_trace(7.145e9, 12e6, 0.9 * kappa, 0.1 * kappa)
        shifted = Trace(x=base.x + 1.0e9, y=base.y, kind="gain_db")
        fit_base = fit_gain_profile(base)
        fit_shifted = fit_gain_profile(shifted)
        assert fit_shifted.params["f_center_hz"] - fit_base.params["f_center_hz"] \
            == pytest.approx(1.0e9, rel=1e-9)
        assert fit_shifted.params["g_hz"] == pytest.approx(
            fit_base.params["g_hz"], rel=1e-6
        )

    def test_above_threshold_trial_point_is_a_value_error(self):
        from kipa import calfit

        with pytest.raises(ValueError, match="threshold"):
            calfit._gain_model_db([7.0e9], 20e6, 25e6, 5e6, 7.0e9)  # g > kappa/2

    def test_unrelated_model_error_propagates(self, monkeypatch):
        from kipa import ampcore, calfit

        trace = gain_trace(7.0e9, 10e6, 25e6, 5e6)

        def broken(*args, **kwargs):
            raise KeyError("defect inside the model")

        monkeypatch.setattr(ampcore, "single_mode_gain", broken)
        with pytest.raises(KeyError):
            calfit._gain_model_db([7.0e9], 10e6, 25e6, 5e6, 7.0e9)
        with pytest.raises(KeyError):
            fit_gain_profile(trace)


class TestFitNoiseTemperature:
    OMEGA = 2 * math.pi * 7.155e9

    def test_noiseless_round_trip(self):
        temps = np.linspace(0.05, 1.0, 25)
        trace = noise_trace(1e6, 0.661, self.OMEGA, temps)
        fit = fit_noise_temperature(trace, self.OMEGA)
        assert fit.params["g_tot"] == pytest.approx(1e6, rel=1e-6)
        assert fit.params["n_add"] == pytest.approx(0.661, rel=1e-6)

    def test_quantum_limited_chain(self):
        temps = np.linspace(0.05, 1.0, 25)
        trace = noise_trace(5e5, 0.5, self.OMEGA, temps)
        fit = fit_noise_temperature(trace, self.OMEGA)
        assert fit.params["n_add"] == pytest.approx(0.5, rel=1e-6)

    def test_negative_added_noise_rejected(self):
        temps = np.linspace(0.05, 1.0, 25)
        trace = noise_trace(1e6, -0.2, self.OMEGA, temps)
        with pytest.raises(NonPhysical):
            fit_noise_temperature(trace, self.OMEGA)

    def test_noisy_recovery_within_three_sigma(self):
        rng = np.random.default_rng(19)
        temps = np.linspace(0.05, 1.0, 31)
        hits = 0
        n_seeds = 60
        for _ in range(n_seeds):
            trace = noise_trace(1e6, 0.661, self.OMEGA, temps,
                                noise_frac=0.01, rng=rng)
            fit = fit_noise_temperature(trace, self.OMEGA)
            hits += (
                abs(fit.params["g_tot"] - 1e6) <= 3 * fit.sigma["g_tot"]
                and abs(fit.params["n_add"] - 0.661) <= 3 * fit.sigma["n_add"]
            )
        assert hits >= 0.9 * n_seeds

    def test_chained_fit_recovers_stage_noise(self):
        # synthetic chain planted with 0.82 stage quanta: fit the sweep for
        # (G_tot, n_add), then invert the chain decomposition for n_k
        n_k, g_k, n_h, n_bar_dev = 0.82, 500.0, 12.0, 0.0334
        n_add_true = (g_k - 1) / g_k * (n_bar_dev + 0.5 + n_k) + n_h / g_k
        temps = np.linspace(0.05, 1.0, 25)
        trace = noise_trace(1e6 * g_k, n_add_true, self.OMEGA, temps)
        fit = fit_noise_temperature(trace, self.OMEGA)
        recovered = (
            (fit.params["n_add"] - n_h / g_k) * g_k / (g_k - 1) - n_bar_dev - 0.5
        )
        assert recovered == pytest.approx(0.82, rel=1e-6)


class TestFitLorentzian:
    def test_exact_recovery(self):
        f = np.linspace(-5e6, 5e6, 301) + 7e9
        lor = 900.0 / (1.0 + ((f - 7e9) / (0.6e6 / 2)) ** 2) + 1.0
        trace = Trace(x=f, y=10 * np.log10(lor), kind="gain_db")
        fit = fit_lorentzian(trace)
        assert fit.params["peak_lin"] == pytest.approx(901.0, rel=1e-6)
        assert fit.params["f_peak_hz"] == pytest.approx(7e9, abs=1.0)
        assert fit.params["fwhm_hz"] == pytest.approx(0.6e6, rel=1e-6)

    def test_near_threshold_gain_profile_width(self):
        # FWHM of the near-threshold gain curve approaches 2*(kappa/2 - g)
        kappa = 32e6
        g_hz = 0.4995 * kappa
        width_hz = 2 * (kappa / 2 - g_hz)
        trace = gain_trace(7e9, g_hz, 0.875 * kappa, 0.125 * kappa,
                           span_factor=0.01, points=2001)
        fit = fit_lorentzian(trace)
        assert fit.params["fwhm_hz"] == pytest.approx(width_hz, rel=0.03)

    def test_flat_input_rejected(self):
        f = np.linspace(0.0, 1e6, 101)
        trace = Trace(x=f, y=np.zeros(101), kind="gain_db")
        with pytest.raises(NoPeak):
            fit_lorentzian(trace)

    def test_even_point_grid_plateau_peak(self):
        # a symmetric grid with an even point count samples the top as a
        # two-sample plateau; the peak must still be found and fitted
        f = np.linspace(7e9 - 5e6, 7e9 + 5e6, 168)
        lor = 103.0 / (1.0 + ((f - 7e9) / (3.33e6 / 2)) ** 2) + 1.45
        fit = fit_lorentzian(Trace(x=f, y=10 * np.log10(lor), kind="gain_db"))
        assert fit.params["fwhm_hz"] == pytest.approx(3.33e6, rel=1e-5)
        assert fit.params["f_peak_hz"] == pytest.approx(7e9, abs=10.0)

    def test_two_peak_input_rejected(self):
        f = np.linspace(-10e6, 10e6, 801)
        two = (100.0 / (1.0 + ((f - 4e6) / 5e5) ** 2)
               + 100.0 / (1.0 + ((f + 4e6) / 5e5) ** 2) + 1.0)
        trace = Trace(x=f, y=10 * np.log10(two), kind="gain_db")
        with pytest.raises(NoPeak):
            fit_lorentzian(trace)


class TestOptimizerCore:
    def test_round_trips_across_regimes(self):
        # fits stay reliable across linewidth scales and pump strengths
        rng = np.random.default_rng(77)
        for _ in range(20):
            kappa = 10 ** rng.uniform(5.5, 7.5)
            eta = rng.uniform(0.55, 0.98)
            f0 = rng.uniform(4e9, 9e9)
            trace = reflection_trace(f0, eta * kappa, (1 - eta) * kappa)
            fit = fit_reflection(trace)
            assert fit.params["kappa_e_hz"] == pytest.approx(eta * kappa, rel=1e-5)

            frac = rng.uniform(0.1, 0.99)
            g_hz = frac * kappa / 2
            trace = gain_trace(f0, g_hz, eta * kappa, (1 - eta) * kappa)
            fit = fit_gain_profile(trace)
            assert fit.params["g_hz"] == pytest.approx(g_hz, rel=1e-4)

    def test_weak_noisy_profile_converges(self):
        # regression: a ~2 dB lossy profile with measurement noise must not
        # be derailed by w^4-amplified wing noise in the prefit or by the
        # Jacobian step collapsing with a lopsided starting rate split
        rng = np.random.default_rng(6501)
        kappa, eta, frac = 2.7356e5, 0.6616, 0.6446
        for _ in range(5):
            trace = gain_trace(5.82867e9, frac * kappa / 2, eta * kappa,
                               (1 - eta) * kappa, noise_db=0.02, rng=rng)
            fit = fit_gain_profile(trace)
            assert fit.converged
            assert fit.params["g_hz"] == pytest.approx(frac * kappa / 2, rel=0.05)

    def test_exact_solution_stops_immediately(self):
        def residuals(p):
            return np.array([p[0] - 3.0, p[1] + 2.0])

        p, iterations, r = damped_least_squares(residuals, [0.0, 0.0])
        assert np.allclose(p, [3.0, -2.0])
        assert float(np.dot(r, r)) < 1e-20

    def test_estimator_consistency_across_noise_scales(self):
        # parameter errors scale with the noise amplitude (factor 10 +- 3x)
        rng = np.random.default_rng(5)
        spreads = []
        for noise in (0.001, 0.01):
            errs = []
            for _ in range(40):
                trace = reflection_trace(7.155e9, 19e6, 4e6,
                                         noise=noise, rng=rng)
                fit = fit_reflection(trace)
                errs.append(fit.params["kappa_e_hz"] - 19e6)
            spreads.append(np.std(errs))
        ratio = spreads[1] / spreads[0]
        assert 10.0 / 3.0 <= ratio <= 30.0
