"""Transfer-matrix and time-domain verification machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kipa import (
    CoupledSystem,
    NotSettled,
    ResonatorParams,
    SingularAt,
    commutation_residual,
    double_mode_gain_bare,
    double_mode_matrices,
    make_run,
    matrix_transfer,
    phase_sensitive_gain,
    single_mode_gain,
    single_mode_matrices,
    time_domain_gain,
    transfer_equivalence,
)
from kipa.oracle import (
    DOUBLE_A_IDLER,
    DOUBLE_A_SIGNAL,
    DOUBLE_B_IDLER,
    DOUBLE_B_SIGNAL,
    SINGLE_IDLER,
    SINGLE_SIGNAL,
    TimeDomainRun,
    draw_double_case,
    draw_single_case,
    _stacked_transfer,
)
from kipa.prng import SplitMix64

KAPPA = 2 * math.pi * 1e6


def make_res(eta=1.0, kappa=KAPPA):
    return ResonatorParams(omega0=2 * math.pi * 7e9, kappa_e=eta * kappa,
                           kappa_i=(1 - eta) * kappa)


class TestMatrixTransfer:
    def test_pump_off_full_reflection(self):
        m = matrix_transfer(single_mode_matrices(make_res(), 0.0), 0.0)
        assert m[SINGLE_SIGNAL] == pytest.approx(1.0)
        assert m[SINGLE_IDLER] == pytest.approx(0.0)

    def test_matches_closed_form_at_quarter_kappa(self):
        res = make_res()
        m = matrix_transfer(single_mode_matrices(res, res.kappa / 4), 0.0)
        assert m[SINGLE_SIGNAL] == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_two_mode_entries_match_bare_gains(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            ka = 2 * math.pi * 10 ** rng.uniform(5.5, 7.5)
            kb = 2 * math.pi * 10 ** rng.uniform(5.5, 7.5)
            mode_a = ResonatorParams(omega0=2 * math.pi * 7e9,
                                     kappa_e=ka * rng.uniform(0.5, 1.0),
                                     kappa_i=ka * rng.uniform(0.0, 0.5))
            mode_b = ResonatorParams(omega0=2 * math.pi * 7e9,
                                     kappa_e=kb * rng.uniform(0.5, 1.0),
                                     kappa_i=kb * rng.uniform(0.0, 0.5))
            system = CoupledSystem(mode_a=mode_a, mode_b=mode_b,
                                   J=mode_a.kappa * 10 ** rng.uniform(-0.5, 1.0))
            g = rng.uniform(0.0, 0.4) * mode_a.kappa
            da = rng.uniform(-1.0, 1.0) * mode_a.kappa
            db = rng.uniform(-1.0, 1.0) * mode_b.kappa
            phi = rng.uniform(0.0, 2 * math.pi)
            omega = rng.uniform(-1.0, 1.0) * (2 * system.J + mode_a.kappa)
            gains = double_mode_gain_bare(system, g, da, db, phi, [omega])
            m = matrix_transfer(
                double_mode_matrices(system, g, da, db, phi), omega
            )
            for closed, entry in (
                (gains.signal_a.values[0], m[DOUBLE_A_SIGNAL]),
                (gains.idler_a.values[0], m[DOUBLE_A_IDLER]),
                (gains.signal_b.values[0], m[DOUBLE_B_SIGNAL]),
                (gains.idler_b.values[0], m[DOUBLE_B_IDLER]),
            ):
                assert abs(closed - entry) <= 1e-9 * max(abs(entry), 1e-12)

    def test_singular_at_threshold(self):
        res = make_res()
        with pytest.raises(SingularAt):
            matrix_transfer(single_mode_matrices(res, res.kappa / 2), 0.0)

    def test_equivalence_sweep_clean(self):
        report = transfer_equivalence(200, seed=123)
        assert report["max_rel_err_single"] < 1e-9
        assert report["max_rel_err_double"] < 1e-9


def per_draw_equivalence(draws, seed):
    """The sweep one draw at a time: draw a case, evaluate the public
    closed forms on it, solve its own transfer matrix."""
    rng = SplitMix64(seed)
    worst_single = 0.0
    worst_double = 0.0
    for _ in range(draws):
        sc = draw_single_case(rng)
        signal, idler = single_mode_gain(sc.res, sc.g, sc.delta, sc.phi_p, [sc.omega])
        m = matrix_transfer(
            single_mode_matrices(sc.res, sc.g, sc.delta, sc.phi_p), sc.omega
        )
        for closed, entry in ((signal.values[0], m[SINGLE_SIGNAL]),
                              (idler.values[0], m[SINGLE_IDLER])):
            worst_single = max(worst_single,
                               abs(closed - entry) / max(abs(entry), 1e-30))
        dc = draw_double_case(rng)
        gains = double_mode_gain_bare(
            dc.system, dc.g, dc.delta_a, dc.delta_b, dc.phi_p, [dc.omega]
        )
        m = matrix_transfer(
            double_mode_matrices(dc.system, dc.g, dc.delta_a, dc.delta_b, dc.phi_p),
            dc.omega,
        )
        for closed, entry in ((gains.signal_a.values[0], m[DOUBLE_A_SIGNAL]),
                              (gains.idler_a.values[0], m[DOUBLE_A_IDLER]),
                              (gains.signal_b.values[0], m[DOUBLE_B_SIGNAL]),
                              (gains.idler_b.values[0], m[DOUBLE_B_IDLER])):
            worst_double = max(worst_double,
                               abs(closed - entry) / max(abs(entry), 1e-30))
    return {"draws": draws, "seed": seed, "max_rel_err_single": worst_single,
            "max_rel_err_double": worst_double}


class TestBatchedEquivalence:
    """The stacked sweep reports exactly what the per-draw sweep reports."""

    @pytest.mark.parametrize("draws", [0, 1, 2, 17, 200])
    @pytest.mark.parametrize("seed", [0, 7, 123, 2**64 - 1])
    def test_equals_per_draw_sweep(self, draws, seed):
        assert transfer_equivalence(draws, seed) == per_draw_equivalence(draws, seed)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), draws=st.integers(0, 30))
    def test_equals_per_draw_sweep_on_seeded_draws(self, seed, draws):
        assert transfer_equivalence(draws, seed) == per_draw_equivalence(draws, seed)

    def test_stack_solves_like_single_systems(self):
        res = make_res(eta=0.9)
        k = res.kappa
        mats = [single_mode_matrices(res, f * k, d * k, phi)
                for f, d, phi in ((0.1, 0.0, 0.0), (0.3, 0.5, 1.0), (0.45, -1.0, 4.0))]
        omegas = [0.3 * k, -1.1 * k, 0.0]
        stacked = _stacked_transfer(mats, omegas)
        for m, sysm, omega in zip(stacked, mats, omegas):
            assert np.array_equal(m, matrix_transfer(sysm, omega))

    def test_stack_names_the_singular_system(self):
        res = make_res()
        k = res.kappa
        mats = [single_mode_matrices(res, g) for g in (0.1 * k, 0.2 * k, k / 2, 0.3 * k)]
        with pytest.raises(SingularAt) as info:
            _stacked_transfer(mats, [0.3 * k, -0.2 * k, 0.0, 0.7 * k])
        assert info.value.omega == 0.0
        assert not info.value.condition <= 1e12


class TestCommutationResidual:
    def test_pump_off_lossless_exact(self):
        res = make_res(eta=1.0)
        assert commutation_residual(res, 0.0, 0.37 * res.kappa) == 0.0

    def test_property_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            eta = rng.uniform(0.5, 1.0)
            kappa = 2 * math.pi * 10 ** rng.uniform(5.5, 7.5)
            res = ResonatorParams(omega0=2 * math.pi * 7e9,
                                  kappa_e=eta * kappa, kappa_i=(1 - eta) * kappa)
            g = rng.uniform(0.0, 0.98) * kappa / 2
            omega = rng.uniform(-3.0, 3.0) * kappa
            assert abs(commutation_residual(res, g, omega)) < 1e-9

    def test_lossless_collapse(self):
        res = make_res(eta=1.0)
        g = 0.3 * res.kappa
        for omega in (0.0, 0.5 * res.kappa, -1.2 * res.kappa):
            signal, idler = single_mode_gain(res, g, 0.0, 0.0, [omega])
            collapse = (abs(idler.values[0]) ** 2 - abs(signal.values[0]) ** 2 + 1.0)
            scale = max(abs(signal.values[0]) ** 2, 1.0)
            assert abs(commutation_residual(res, g, omega)
                       - collapse / scale) < 1e-12


class TestTimeDomain:
    def test_pump_off_unity_signal_no_idler(self):
        res = make_res(eta=1.0)
        run = make_run(res, 0.0, drive_freq=0.3 * res.kappa)
        result = time_domain_gain(run)
        assert result.signal_gain == pytest.approx(1.0, rel=1e-6)
        assert result.idler_gain == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_gain_matches_closed_form(self):
        # quadrature-probe pair separates signal and idler at zero detuning
        res = make_res(eta=1.0)
        run = make_run(res, res.kappa / 4, drive_freq=0.0)
        result = time_domain_gain(run)
        assert result.signal_gain == pytest.approx(25.0 / 9.0, rel=0.01)
        assert result.idler_gain == pytest.approx(16.0 / 9.0, rel=0.01)

    def test_detuned_probe_matches_closed_form(self):
        res = make_res(eta=0.85)
        g = 0.35 * res.kappa
        delta_probe = 0.4 * res.kappa
        run = make_run(res, g, drive_freq=delta_probe)
        result = time_domain_gain(run)
        signal, idler = single_mode_gain(res, g, 0.0, 0.0, [-delta_probe])
        assert result.signal_gain == pytest.approx(
            abs(signal.values[0]) ** 2, rel=0.01
        )
        assert result.idler_gain == pytest.approx(
            abs(idler.values[0]) ** 2, rel=0.01
        )

    def test_phase_sweep_reproduces_interference(self):
        res = make_res(eta=1.0)
        g = 0.3 * res.kappa
        run = make_run(res, g, phi_p=0.0, drive_freq=0.0)
        result = time_domain_gain(run)
        for k in range(16):
            dphi = 2 * math.pi * k / 16
            reconstructed = abs(
                result.signal_amp + result.idler_amp * np.exp(1j * dphi)
            ) ** 2
            assert reconstructed == pytest.approx(
                phase_sensitive_gain(res, g, dphi), rel=0.01
            )

    def test_single_run_interference_per_pump_phase(self):
        # |signal + idler|^2 of each run is the interference gain at that
        # pump phase (independent integrations, not one reconstruction)
        res = make_res(eta=1.0)
        g = 0.3 * res.kappa
        for dphi in (0.0, math.pi / 2, 1.7, 3 * math.pi / 2):
            run = make_run(res, g, phi_p=dphi, drive_freq=0.0)
            result = time_domain_gain(run)
            combined = abs(result.signal_amp + result.idler_amp) ** 2
            assert combined == pytest.approx(
                phase_sensitive_gain(res, g, dphi), rel=0.01
            )

    def test_fourth_order_convergence(self):
        res = make_res(eta=1.0)
        g = 0.3 * res.kappa
        wd = 0.5 * res.kappa
        signal, _ = single_mode_gain(res, g, 0.0, 0.0, [wd])
        expected = abs(signal.values[0]) ** 2
        margin = res.kappa / 2 - g

        def error(step):
            run = TimeDomainRun(
                res=res, g=g, delta=0.0, phi_p=0.0, drive_freq=wd,
                drive_amp=1.0, step=step, settle_time=35.0 / margin,
                sample_time=20.0 / res.kappa,
            )
            return abs(time_domain_gain(run).signal_gain - expected)

        coarse = error(1.0 / (4.0 * res.kappa))
        fine = error(1.0 / (8.0 * res.kappa))
        assert coarse / fine >= 8.0

    def test_settle_policy_always_passes(self):
        # with margin m, settle_time = 20/m passes the drift check for any
        # pump up to 0.45 kappa (and the minimum 10/m already suffices:
        # the leftover transient is e^-10 of the steady state)
        res = make_res(eta=0.8)
        rng = np.random.default_rng(17)
        for _ in range(5):
            g = rng.uniform(0.0, 0.45) * res.kappa
            margin = res.kappa / 2 - g
            run = TimeDomainRun(
                res=res, g=g, delta=0.0, phi_p=rng.uniform(0, 2 * math.pi),
                drive_freq=rng.choice([0.0, 0.4 * res.kappa]),
                drive_amp=1.0, step=1.0 / (50 * res.kappa),
                settle_time=20.0 / margin, sample_time=20.0 / res.kappa,
            )
            time_domain_gain(run)  # must not raise

    def test_drift_detector_flags_unsettled_window(self):
        # the validated constructor guarantees settledness, so exercise the
        # defensive detector on a run built without validation
        res = make_res(eta=1.0)
        g = 0.4 * res.kappa
        run = object.__new__(TimeDomainRun)
        for name, value in dict(
            res=res, g=g, delta=0.0, phi_p=0.0, drive_freq=0.0,
            drive_amp=1.0 + 0.0j, step=1.0 / (50 * res.kappa),
            settle_time=0.1 / (res.kappa / 2 - g),
            sample_time=20.0 / res.kappa,
        ).items():
            object.__setattr__(run, name, value)
        with pytest.raises(NotSettled):
            time_domain_gain(run)
        # the de-amplified phase reproduces the closed-form minimum once the
        # default settle policy is applied
        g = 0.45 * res.kappa
        ok = make_run(res, g, phi_p=3 * math.pi / 2, drive_freq=0.0)
        result = time_domain_gain(ok)
        combined = abs(result.signal_amp + result.idler_amp) ** 2
        assert combined == pytest.approx(
            phase_sensitive_gain(res, g, 3 * math.pi / 2), rel=0.02
        )

    def test_run_validation(self):
        res = make_res()
        with pytest.raises(ValueError):
            make_run(res, res.kappa / 2)  # unstable
        with pytest.raises(ValueError):
            TimeDomainRun(res=res, g=0.0, delta=0.0, phi_p=0.0,
                          drive_freq=0.0, drive_amp=1.0, step=-1.0,
                          settle_time=1.0, sample_time=1.0)
        margin = res.kappa / 2
        with pytest.raises(ValueError):
            TimeDomainRun(res=res, g=0.0, delta=0.0, phi_p=0.0,
                          drive_freq=0.0, drive_amp=1.0,
                          step=1.0 / (50 * res.kappa),
                          settle_time=5.0 / margin, sample_time=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["g", "delta", "phi_p", "drive_freq", "step",
                                       "settle_time", "sample_time", "drive_amp"])
    def test_run_rejects_non_finite(self, field, value):
        res = make_res()
        fields = dict(res=res, g=0.2 * res.kappa, delta=0.0, phi_p=0.0,
                      drive_freq=0.3 * res.kappa, drive_amp=1.0,
                      step=1.0 / (50 * res.kappa), settle_time=1e-3,
                      sample_time=20.0 / res.kappa)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TimeDomainRun(**fields)
        if field != "g":
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                make_run(**fields)

    @pytest.mark.parametrize("amp", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_run_rejects_non_finite_complex_amp(self, amp):
        res = make_res()
        with pytest.raises(ValueError, match="drive_amp must be finite"):
            make_run(res, 0.2 * res.kappa, drive_freq=0.3 * res.kappa, drive_amp=amp)


class TestRK4Pin:
    """Exact gains of two fixed runs, so a rewrite of the integration loop
    must reproduce the recurrence step for step."""

    def test_detuned_probe(self):
        res = make_res(eta=0.85)
        k = res.kappa
        result = time_domain_gain(
            make_run(res, 0.35 * k, delta=0.1 * k, phi_p=0.7, drive_freq=0.4 * k))
        assert repr(result.signal_gain) == "1.251547836773969"
        assert repr(result.idler_gain) == "0.5514193373288749"

    def test_resonant_probe_two_quadratures(self):
        res = make_res(eta=0.85)
        k = res.kappa
        result = time_domain_gain(
            make_run(res, 0.3 * k, delta=-0.05 * k, phi_p=1.1, drive_freq=0.0))
        assert repr(result.signal_gain) == "2.677869820232005"
        assert repr(result.idler_gain) == "2.462485204939851"
