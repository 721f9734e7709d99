"""Transfer-matrix and time-domain verification machinery."""

import cmath
import functools
import math
import time
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kipa import oracle
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
    stability_double,
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
    _transfer,
)
from kipa.prng import SplitMix64, uniforms

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


@dataclass(frozen=True)
class SingleModeCase:
    res: ResonatorParams
    g: float
    delta: float
    phi_p: float
    omega: float


@dataclass(frozen=True)
class DoubleModeCase:
    system: CoupledSystem
    g: float
    delta_a: float
    delta_b: float
    phi_p: float
    omega: float


def draw_single_case(rng: SplitMix64) -> SingleModeCase:
    """Random stable single-mode working point; eta spans [0.5, 1)."""
    kappa_e = 2.0 * math.pi * 10.0 ** rng.uniform(5.0, 8.0)
    kappa_i = kappa_e * rng.uniform(0.0, 1.0)
    res = ResonatorParams(
        omega0=2.0 * math.pi * rng.uniform(4e9, 9e9),
        kappa_e=kappa_e, kappa_i=kappa_i,
    )
    k = res.kappa
    g = rng.uniform(0.0, 0.98) * k / 2.0
    return SingleModeCase(
        res=res,
        g=g,
        delta=rng.uniform(-2.0, 2.0) * k,
        phi_p=rng.uniform(0.0, 2.0 * math.pi),
        omega=rng.uniform(-3.0, 3.0) * k,
    )


def draw_double_case(rng: SplitMix64) -> DoubleModeCase:
    """Random coupled-pair working point, the pump rate below the pair's
    threshold."""
    def mode() -> ResonatorParams:
        kappa_e = 2.0 * math.pi * 10.0 ** rng.uniform(5.0, 8.0)
        return ResonatorParams(
            omega0=2.0 * math.pi * rng.uniform(4e9, 9e9),
            kappa_e=kappa_e,
            kappa_i=kappa_e * rng.uniform(0.0, 1.0),
        )

    mode_a, mode_b = mode(), mode()
    J = mode_a.kappa * 10.0 ** rng.uniform(-0.5, 1.5)
    system = CoupledSystem(mode_a=mode_a, mode_b=mode_b, J=J)
    return DoubleModeCase(
        system=system,
        g=rng.uniform(0.0, 0.9) * stability_double(system, 0.0).threshold,
        delta_a=rng.uniform(-2.0, 2.0) * mode_a.kappa,
        delta_b=rng.uniform(-2.0, 2.0) * mode_b.kappa,
        phi_p=rng.uniform(0.0, 2.0 * math.pi),
        omega=rng.uniform(-1.0, 1.0) * (2.0 * J + 2.0 * mode_a.kappa),
    )


def per_draw_equivalence(draws, seed):
    """The sweep one draw at a time: draw a case (single, then double, from
    one SplitMix64 stream), evaluate the public closed forms on it, solve
    its own transfer matrix."""
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
        stacked = _transfer(*_stack(mats), omegas)
        for m, sysm, omega in zip(stacked, mats, omegas):
            assert np.array_equal(m, matrix_transfer(sysm, omega))

    def test_stack_names_the_singular_system(self):
        res = make_res()
        k = res.kappa
        mats = [single_mode_matrices(res, g) for g in (0.1 * k, 0.2 * k, k / 2, 0.3 * k)]
        with pytest.raises(SingularAt) as info:
            _transfer(*_stack(mats), [0.3 * k, -0.2 * k, 0.0, 0.7 * k])
        assert info.value.omega == 0.0
        assert not info.value.condition <= 1e12


def _stack(mats):
    """drift, B, C and D of each system, stacked along a leading axis."""
    return [np.array([getattr(m, name) for m in mats]) for name in ("drift", "B", "C", "D")]


class TestUniformStream:
    """The array stream is the scalar SplitMix64 specification."""

    @staticmethod
    def scalar(seed, n):
        rng = SplitMix64(seed)
        return np.array([rng.uniform() for _ in range(n)])

    @pytest.mark.parametrize("n", [0, 1, 19, 19000])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_equals_scalar_stream(self, seed, n):
        assert np.array_equal(uniforms(seed, n), self.scalar(seed, n))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_equals_scalar_stream_on_any_seed(self, seed):
        assert np.array_equal(uniforms(seed, 57), self.scalar(seed, 57))


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
        # one run separates signal and idler at zero detuning
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

    def test_step_outside_rk4_stability_region_rejected(self):
        # the commensurate step is one drive period: hM has eigenvalues -2pi
        # and -14.7, where the RK4 polynomial is ~1.5e3
        res = make_res(kappa=2 * math.pi * 1e6)
        k = res.kappa
        run = make_run(res, 0.2 * k, drive_freq=0.3 * k, step=100.0 / k,
                       settle_time=2e5 / k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside the RK4 stability region"):
                time_domain_gain(run)

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
    """Exact gains of two fixed runs, so any change to the RK4 recurrence
    or to its closed-form solution fails. The values are those of the
    closed form with signal and idler solved apart; the former step loop,
    which accumulated t += h, gave 1.251547836773969, 0.5514193373288749,
    2.677869820232005 and 2.462485204939851 (within 2e-11 relative)."""

    def test_detuned_probe(self):
        res = make_res(eta=0.85)
        k = res.kappa
        result = time_domain_gain(
            make_run(res, 0.35 * k, delta=0.1 * k, phi_p=0.7, drive_freq=0.4 * k))
        assert repr(result.signal_gain) == "1.251547836793288"
        assert repr(result.idler_gain) == "0.5514193373386734"

    def test_resonant_probe_two_quadratures(self):
        res = make_res(eta=0.85)
        k = res.kappa
        result = time_domain_gain(
            make_run(res, 0.3 * k, delta=-0.05 * k, phi_p=1.1, drive_freq=0.0))
        assert repr(result.signal_gain) == "2.677869820231958"
        assert repr(result.idler_gain) == "2.4624852049398114"


def reference_loop(run, amp):
    """The former step loop of ``oracle.time_domain_gain``: RK4 on the
    mean-field equation, one step at a time from a = 0, with t += h
    accumulated, driven at ``amp``. Returns the window's (times, s_out)."""
    res, g = run.res, run.g
    wd = run.drive_freq
    sqrt_ke = math.sqrt(res.kappa_e)
    decay, pump = oracle._single_drift(res.kappa, g, run.delta, run.phi_p)[0].tolist()
    if wd != 0.0:
        period = 2.0 * math.pi / abs(wd)
        h = period / math.ceil(period / run.step)
        steps_per_period = round(period / h)
        n_periods = max(2, math.ceil(run.sample_time / period))
        n_periods += n_periods % 2
        n_window = n_periods * steps_per_period
    else:
        h = run.step
        n_window = max(4, math.ceil(run.sample_time / h))
        n_window += n_window % 2
    n_settle = math.ceil(run.settle_time / h)

    rot = -1j * wd
    h2, h6 = h / 2.0, h / 6.0
    n_total = n_settle + n_window
    s_out = np.empty(n_window + 1, dtype=complex)
    times = np.empty(n_window + 1)
    a = 0.0 + 0.0j
    t = 0.0
    s_in = amp * cmath.exp(rot * t)
    drive = sqrt_ke * s_in
    for i in range(n_total + 1):
        if i >= n_settle:
            s_out[i - n_settle] = sqrt_ke * a - s_in
            times[i - n_settle] = t
            if i == n_total:
                break
        drive_mid = sqrt_ke * (amp * cmath.exp(rot * (t + h2)))
        s_in_next = amp * cmath.exp(rot * (t + h))
        drive_next = sqrt_ke * s_in_next
        k1 = decay * a + pump * a.conjugate() + drive
        b = a + h2 * k1
        k2 = decay * b + pump * b.conjugate() + drive_mid
        b = a + h2 * k2
        k3 = decay * b + pump * b.conjugate() + drive_mid
        b = a + h * k3
        k4 = decay * b + pump * b.conjugate() + drive_next
        a = a + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        s_in, drive = s_in_next, drive_next
    return times, s_out


@functools.lru_cache(maxsize=2)
def reference_window(run):
    """The step loop's window as ``oracle._rk4_window`` returns it: (times,
    signal, idler). The signal is linear in the drive and the idler in its
    conjugate, so loops at amp and i*amp give s_u = S + I and
    s_v = i (S - I). Cached, so a test that checks both the gain and the
    trajectory of a run loops twice, not four times."""
    times, s_u = reference_loop(run, run.drive_amp)
    _, s_v = reference_loop(run, 1j * run.drive_amp)
    return times, (s_u - 1j * s_v) / 2.0, (s_u + 1j * s_v) / 2.0


def reference_gain(run):
    """``time_domain_gain`` demodulating the step loop's window."""
    with mock.patch.object(oracle, "_rk4_window", reference_window):
        return time_domain_gain(run)


def unchecked_run(**fields):
    """TimeDomainRun built without validation (any settle time)."""
    run = object.__new__(TimeDomainRun)
    for name, value in fields.items():
        object.__setattr__(run, name, value)
    return run


def design_sweep_runs(seed, count):
    """RK4 runs drawn like the design_sweep benchmark's: kappa 3-10 MHz,
    eta 0.85-0.95, g 0.4-0.7 of kappa/2, |delta| <= 0.3 kappa and a probe
    offset of 0.3-0.8 kappa."""
    rng = SplitMix64(seed)
    runs = []
    for _ in range(count):
        kappa = 2 * math.pi * 10 ** rng.uniform(math.log10(3e6), 7.0)
        res = make_res(eta=rng.uniform(0.85, 0.95), kappa=kappa)
        runs.append(make_run(res, rng.uniform(0.4, 0.7) * kappa / 2,
                             delta=rng.uniform(-0.3, 0.3) * kappa,
                             phi_p=rng.uniform(0.0, 2 * math.pi),
                             drive_freq=rng.uniform(0.3, 0.8) * kappa))
    return runs


def fixed_runs():
    res = make_res(eta=0.9)
    k = res.kappa
    return [
        make_run(res, 0.3 * k, delta=0.1 * k, phi_p=0.4, drive_freq=0.0),
        make_run(res, 0.2 * k, delta=-0.4 * k, phi_p=2.0, drive_freq=0.0,
                 drive_amp=0.3 - 2j),
        make_run(res, 0.35 * k, delta=0.2 * k, phi_p=5.0, drive_freq=-0.6 * k),
        make_run(res, 0.1 * k, delta=-0.2 * k, phi_p=1.0, drive_freq=-1.5 * k),
        # exceptional point g = |delta|: the drift is one Jordan block
        make_run(res, 0.3 * k, delta=0.3 * k, phi_p=0.9, drive_freq=0.5 * k),
        make_run(res, 0.3 * k, delta=-0.3 * k, phi_p=0.0, drive_freq=0.0),
        # near threshold: 1e5 settle steps
        make_run(res, 0.98 * k / 2, delta=0.0, phi_p=0.2, drive_freq=0.3 * k),
    ]


def assert_matches_step_loop(run):
    """The window trajectory, and its signal and idler parts, each within
    1e-8 of its maximum (or of the drive amplitude, for a null output that
    is all cancellation); NotSettled raised by both or by neither;
    otherwise signal and idler amplitudes within 1e-9 of the larger of
    the output scale and the drive."""
    times, signal, idler = oracle._rk4_window(run)
    ref_times, ref_signal, ref_idler = reference_window(run)
    assert np.allclose(times, ref_times, rtol=1e-9, atol=0.0)
    for got, ref in ((signal + idler, ref_signal + ref_idler), (signal, ref_signal),
                     (idler, ref_idler)):
        scale = max(np.max(np.abs(ref)), abs(run.drive_amp))
        assert np.max(np.abs(got - ref)) <= 1e-8 * scale
    try:
        ref = reference_gain(run)
    except NotSettled:
        with pytest.raises(NotSettled):
            time_domain_gain(run)
        return
    got = time_domain_gain(run)
    scale = max(abs(ref.signal_amp), abs(ref.idler_amp), 1.0)  # 1.0: the drive
    assert abs(got.signal_amp - ref.signal_amp) <= 1e-9 * scale
    assert abs(got.idler_amp - ref.idler_amp) <= 1e-9 * scale


class TestClosedFormRecurrence:
    """The closed-form solution of the RK4 recurrence against the step
    loop it replaced."""

    @pytest.mark.parametrize("run", design_sweep_runs(601, 6) + fixed_runs())
    def test_matches_step_loop(self, run):
        assert_matches_step_loop(run)

    # ranges keep each step loop below ~3e4 steps; the pump-off critically
    # coupled mode has a null output, which settles
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(kappa_hz=st.floats(1e5, 1e8), eta=st.floats(0.5, 1.0),
           g_frac=st.floats(0.0, 0.8), delta=st.floats(-1.0, 1.0),
           phi_p=st.floats(0.0, 2 * math.pi),
           drive=st.one_of(st.just(0.0), st.floats(0.3, 1.5), st.floats(-1.5, -0.3)),
           amp=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))
    @example(kappa_hz=1e5, eta=0.5, g_frac=0.0, delta=0.0, phi_p=0.0, drive=0.0, amp=1.0)
    def test_matches_step_loop_on_drawn_runs(self, kappa_hz, eta, g_frac, delta,
                                             phi_p, drive, amp):
        kappa = 2 * math.pi * kappa_hz
        run = make_run(make_res(eta=eta, kappa=kappa), g_frac * kappa / 2,
                       delta=delta * kappa, phi_p=phi_p, drive_freq=drive * kappa,
                       drive_amp=amp)
        assert_matches_step_loop(run)

    @pytest.mark.parametrize("drive", [0.0, 0.4, -0.7])
    @pytest.mark.parametrize("settle", [0.3, 3.0, 4.0, 5.0, 6.0, 10.0])
    def test_not_settled_in_the_same_cases(self, drive, settle):
        # settle_time in units of 1/margin, below the validated minimum of
        # 10: the drift check trips between 3 and 6
        res = make_res(eta=0.9)
        k = res.kappa
        g = 0.4 * k
        assert_matches_step_loop(unchecked_run(
            res=res, g=g, delta=0.1 * k, phi_p=0.3, drive_freq=drive * k,
            drive_amp=1.0 + 0.0j, step=1.0 / (50 * k),
            settle_time=settle / (k / 2 - g), sample_time=20.0 / k))

    @pytest.mark.parametrize("drive", [0.0, 0.4])
    def test_one_window_per_run(self, drive):
        res = make_res(eta=0.9)
        run = make_run(res, 0.3 * res.kappa, phi_p=0.4, drive_freq=drive * res.kappa)
        with mock.patch.object(oracle, "_rk4_window", wraps=oracle._rk4_window) as window:
            time_domain_gain(run)
        assert window.call_count == 1

    def test_null_output_settles(self):
        # critically coupled, pump off, resonant probe: S = 2 eta - 1 = 0
        # and no idler; the leftover transient is judged against the drive
        run = make_run(make_res(eta=0.5, kappa=2 * math.pi * 1e5), 0.0)
        result = time_domain_gain(run)
        assert result.signal_gain < 1e-18
        assert result.idler_gain == 0.0

    def test_repeated_calls_are_bit_identical(self):
        for run in fixed_runs()[:3]:
            assert time_domain_gain(run) == time_domain_gain(run)

    def test_near_threshold_run_is_fast_and_within_criterion(self):
        # margin 1e-4 kappa/2: 2e7 settle steps per quadrature, ~30 s for
        # the step loop
        res = make_res(eta=0.9)
        k = res.kappa
        g = (1.0 - 1e-4) * k / 2
        run = make_run(res, g, delta=0.0, phi_p=0.4, drive_freq=0.0)
        assert math.ceil(run.settle_time / run.step) > 2e7
        start = time.perf_counter()
        result = time_domain_gain(run)
        assert time.perf_counter() - start < 1.0
        signal, idler = single_mode_gain(res, g, 0.0, 0.4, [0.0])
        assert result.signal_gain == pytest.approx(abs(signal.values[0]) ** 2, rel=0.01)
        assert result.idler_gain == pytest.approx(abs(idler.values[0]) ** 2, rel=0.01)
        assert result.signal_gain > 1e7  # beyond 70 dB
