"""Least-squares parameter extraction: round trips, noisy ensembles and
error paths for the five fits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import hbar, k as k_B

from kipa import (
    IllConditioned,
    NoPeak,
    NonPhysical,
    PoleAtFrequency,
    ResonatorParams,
    Trace,
    UnstableRegime,
    fit_bias_sweep,
    fit_gain_profile,
    fit_lorentzian,
    fit_noise_temperature,
    fit_reflection,
    hz_to_angular,
    single_mode_gain,
)
from kipa import calfit
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


def reference_single_mode_signal(kappa, eta, g, delta, w):
    """The signal kernel before its grid terms: (signal, D) with the full
    scale array under errstate and a pole scan on every sample. Scalar
    rates whose (kappa/2)**2 underflows below the smallest normal double
    are refused, as in the kernel."""
    try:
        if np.ndim(kappa) == 0 and (float(kappa) / 2.0) ** 2 < np.finfo(float).tiny:
            raise NonPhysical(f"gain denominator underflows (kappa down to "
                              f"{abs(float(kappa)):g} rad/s)")
        with np.errstate(over="ignore", invalid="ignore"):
            den = delta**2 - g**2 + (1j * w - kappa / 2.0) ** 2
            scale = delta**2 + g**2 + (kappa / 2.0) ** 2 + w**2
        finite = np.isfinite(scale).all()
    except OverflowError:  # Python float ** raises where numpy gives inf
        finite = False
    if not finite:
        size = {name: np.max(np.abs(rate)) for name, rate in
                (("kappa", kappa), ("g", g), ("delta", delta), ("omega", w))}
        name = max(size, key=size.get)
        raise NonPhysical(f"gain denominator overflows ({name} up to {size[name]:g} rad/s)")
    pole = np.abs(den) <= 1e-12 * scale
    if np.any(pole):
        raise PoleAtFrequency(f"gain pole at omega={w[pole][0]:g} rad/s")
    return eta * kappa * (kappa / 2.0 - 1j * (w + delta)) / den - 1.0, den


def reference_signal(f_hz, f_center, kappa_e_hz, kappa_i_hz, g_hz):
    """The fit models' signal factor on the reference kernel, checked as
    single_mode_gain checks it: UnstableRegime at or above threshold,
    NonPhysical on an overflow and PoleAtFrequency at a pole; ValueError
    for offsets that do not strictly increase."""
    res = ResonatorParams(
        omega0=hz_to_angular(max(f_center, 1.0)),
        kappa_e=hz_to_angular(kappa_e_hz),
        kappa_i=hz_to_angular(kappa_i_hz),
    )
    g = hz_to_angular(g_hz)
    if not abs(g) < res.kappa / 2.0:
        raise UnstableRegime(f"g={g:g} rad/s is at or above the oscillation threshold "
                             f"kappa/2={res.kappa / 2.0:g} rad/s")
    w = hz_to_angular(np.asarray(f_hz) - f_center)
    signal, _ = reference_single_mode_signal(res.kappa, res.eta, g, 0.0, w)
    if not (w[1:] > w[:-1]).all():
        raise ValueError("frequency offsets must be strictly increasing")
    return signal


def reference_reflection_model(f_hz, f0, kappa_e_hz, kappa_i_hz):
    return reference_signal(f_hz, f0, kappa_e_hz, kappa_i_hz, 0.0)


def reference_gain_model_db(f_hz, g_hz, kappa_e_hz, kappa_i_hz, f_center):
    signal = reference_signal(f_hz, f_center, kappa_e_hz, kappa_i_hz, g_hz)
    return 10.0 * np.log10(np.abs(signal) ** 2)


def outcome(model, *args):
    try:
        return model(*args)
    except Exception as exc:
        return exc


def error_kind(exc):
    """ValueError for any of its subclasses (the value types' domain checks
    and the offsets check), else the exception's type."""
    return ValueError if isinstance(exc, ValueError) else type(exc)


def assert_same_outcome(new, reference):
    """Equal arrays, bit for bit, or the same kind of exception; a kernel
    error with the same message."""
    if isinstance(reference, Exception):
        assert isinstance(new, Exception), new
        assert error_kind(new) is error_kind(reference), (new, reference)
        if error_kind(reference) is not ValueError:
            assert str(new) == str(reference), (new, reference)
    else:
        assert isinstance(new, np.ndarray), new
        assert np.array_equal(new.view(float), reference.view(float))


def mostly(regular, *special):
    """A draw of ``regular`` most of the time, else one of ``special``."""
    return st.tuples(st.integers(0, 7), regular, st.sampled_from(special)).map(
        lambda draw: draw[1] if draw[0] else draw[2])


_NON_FINITE = (math.nan, math.inf, -math.inf)
# the LM passes each rate as an np.float64 element of its parameter array
_KAPPA_E = mostly(st.floats(1e3, 1e9), 0.0, -0.0, -1e6, 5e-324, *_NON_FINITE).map(np.float64)
_KAPPA_I = mostly(st.floats(0.0, 1e9), -0.0, -1.0, -5e-324, *_NON_FINITE).map(np.float64)
# g as a fraction of the threshold kappa/2: below, at, just below (a pole at
# zero offset), above, negative, non-finite
_G_FRAC = mostly(st.floats(-0.999, 0.999), 1.0, -1.0, 1.0 - 1e-13, -(1.0 - 1e-13), 1.5,
                 -2.0, *_NON_FINITE)
# offsets from the center in units of kappa; 0.0 puts a sample on the center
_OFFSETS = st.lists(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)), min_size=1,
                    max_size=40, unique=True).map(sorted)
# where the center lies: on the grid, far off it (collapsing the offsets), or
# not finite (-inf passes max(f_center, 1) and overflows, so it is left out)
_CENTER_SHIFT = mostly(st.floats(-3.0, 3.0), 0.0, 1e25, math.nan, math.inf)

# on a grid of +-2 linewidths around the center, kappa**2/4 - g**2 is 0.97
# (scanned) and 1.03 (not scanned) times the pole-scan gate 4e-12 max scale
_GATE_OFFSETS = [-2.0, -1.0, 0.0, 1.0, 2.0]
_SCANNED_G_FRAC = 1.0 - 3.5e-11
_UNSCANNED_G_FRAC = 1.0 - 3.7e-11


def model_grid(kappa_e_hz, kappa_i_hz, offsets, shift):
    """A trace grid around 7 GHz in units of the drawn linewidth (1 MHz when
    the draw gives none) and the center to evaluate it against."""
    kappa = float(kappa_e_hz) + float(kappa_i_hz)
    unit = kappa if math.isfinite(kappa) and kappa > 0 else 1e6
    f = 7.0e9 + unit * np.array(offsets)
    f = f[np.concatenate(([True], f[1:] > f[:-1]))]  # keep it strictly increasing
    center = np.float64(7.0e9 + shift * unit if abs(shift) <= 3.0 else shift)
    return f, center


class TestSignalOnlyModels:
    """The fit models and single_mode_gain call the signal kernel on grid
    terms, with a pole scan only near threshold; they equal the models built
    on the reference kernel bit for bit and reject the same trial points."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(kappa_e_hz=_KAPPA_E, kappa_i_hz=_KAPPA_I, g_frac=_G_FRAC,
           offsets=_OFFSETS, shift=_CENTER_SHIFT)
    @example(kappa_e_hz=np.float64(25e6), kappa_i_hz=np.float64(5e6),
             g_frac=1.0 - 1e-13, offsets=[-1.0, 0.0, 1.0], shift=0.0)
    # g = 0.6314 * 15 MHz, whose angular square by libm pow is one bit off
    # numpy's array square: a model that squares its rates as arrays fails
    @example(kappa_e_hz=np.float64(25e6), kappa_i_hz=np.float64(5e6), g_frac=0.6314,
             offsets=np.linspace(-2.0, 2.0, 41).tolist(), shift=0.0)
    # kappa**2/4 - g**2 at 0.97 and 1.03 times the pole-scan gate 4e-12 max scale
    @example(kappa_e_hz=np.float64(25e6), kappa_i_hz=np.float64(5e6),
             g_frac=_SCANNED_G_FRAC, offsets=_GATE_OFFSETS, shift=0.0)
    @example(kappa_e_hz=np.float64(25e6), kappa_i_hz=np.float64(5e6),
             g_frac=_UNSCANNED_G_FRAC, offsets=_GATE_OFFSETS, shift=0.0)
    # (kappa/2)**2 underflows: the kernel refuses before any pole scan
    @example(kappa_e_hz=np.float64(5e-324), kappa_i_hz=np.float64(-0.0), g_frac=1.0,
             offsets=[0.0], shift=0.0)
    def test_gain_model_matches_reference(self, kappa_e_hz, kappa_i_hz, g_frac,
                                          offsets, shift):
        f, center = model_grid(kappa_e_hz, kappa_i_hz, offsets, shift)
        g_hz = np.float64(g_frac * (float(kappa_e_hz) + float(kappa_i_hz)) / 2.0)
        args = (f, g_hz, kappa_e_hz, kappa_i_hz, center)
        assert_same_outcome(outcome(calfit._gain_model_db, *args),
                            outcome(reference_gain_model_db, *args))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(kappa_e_hz=_KAPPA_E, kappa_i_hz=_KAPPA_I, offsets=_OFFSETS,
           shift=_CENTER_SHIFT)
    # (kappa/2)**2 underflows, with a sample on the center and far off it
    @example(kappa_e_hz=np.float64(5e-324), kappa_i_hz=np.float64(-0.0), offsets=[0.0],
             shift=0.0)
    @example(kappa_e_hz=np.float64(5e-324), kappa_i_hz=np.float64(5e-324), offsets=[0.0],
             shift=1e25)
    def test_reflection_model_matches_reference(self, kappa_e_hz, kappa_i_hz,
                                                offsets, shift):
        f, f0 = model_grid(kappa_e_hz, kappa_i_hz, offsets, shift)
        args = (f, f0, kappa_e_hz, kappa_i_hz)
        assert_same_outcome(outcome(calfit._reflection_model, *args),
                            outcome(reference_reflection_model, *args))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(kappa_e_hz=st.floats(1e3, 1e9), kappa_i_hz=st.floats(0.0, 1e9),
           g_frac=mostly(st.floats(-0.999, 0.999), 1.0 - 1e-13, _SCANNED_G_FRAC,
                         _UNSCANNED_G_FRAC),
           delta_frac=mostly(st.floats(-3.0, 3.0), 0.0, 1e-7),
           offsets=_OFFSETS, phi_p=st.floats(0.0, 2.0 * math.pi))
    @example(kappa_e_hz=25e6, kappa_i_hz=5e6, g_frac=0.9, delta_frac=0.7,
             offsets=np.linspace(-2.0, 2.0, 41).tolist(), phi_p=0.3)
    def test_single_mode_gain_matches_reference(self, kappa_e_hz, kappa_i_hz, g_frac,
                                                delta_frac, offsets, phi_p):
        res = ResonatorParams(omega0=hz_to_angular(7.0e9),
                              kappa_e=hz_to_angular(kappa_e_hz),
                              kappa_i=hz_to_angular(kappa_i_hz))
        g = g_frac * res.kappa / 2.0
        delta = delta_frac * res.kappa
        w = res.kappa * np.array(offsets)
        new = outcome(single_mode_gain, res, g, delta, phi_p, w)
        reference = outcome(reference_single_mode_signal, res.kappa, res.eta, g, delta, w)
        if isinstance(reference, Exception):
            assert type(new) is type(reference) and str(new) == str(reference), new
            return
        signal, den = reference
        idler = -1j * res.eta * res.kappa * g * np.exp(1j * phi_p) / den
        assert np.array_equal(new[0].values.view(float), signal.view(float))
        assert np.array_equal(new[1].values.view(float), idler.view(float))

    @pytest.mark.parametrize("g_frac, scans", [(_SCANNED_G_FRAC, 1),
                                               (_UNSCANNED_G_FRAC, 0)])
    def test_pole_scan_runs_only_near_threshold(self, monkeypatch, g_frac, scans):
        from kipa import ampcore

        calls = []
        scan = ampcore._require_no_pole
        monkeypatch.setattr(ampcore, "_require_no_pole",
                            lambda *args: calls.append(1) or scan(*args))
        f, center = model_grid(np.float64(25e6), np.float64(5e6), _GATE_OFFSETS, 0.0)
        calfit._gain_model_db(f, np.float64(g_frac * 15e6), np.float64(25e6),
                              np.float64(5e6), center)
        assert len(calls) == scans

    def test_pole_is_an_infeasible_trial_point(self):
        # g a hair below kappa/2 puts a pole on the zero-offset sample
        f = np.array([7.0e9 - 1e6, 7.0e9, 7.0e9 + 1e6])
        args = (f, np.float64(15e6 * (1.0 - 1e-13)), np.float64(25e6),
                np.float64(5e6), np.float64(7.0e9))
        with pytest.raises(PoleAtFrequency, match="gain pole at omega=0"):
            reference_gain_model_db(*args)
        with pytest.raises(PoleAtFrequency, match="gain pole at omega=0"):
            calfit._gain_model_db(*args)

    @pytest.mark.parametrize("model, args", [
        (calfit._gain_model_db, (np.float64(1e6), np.float64(1e200), np.float64(1e6),
                                 np.float64(7.0e9))),
        (calfit._reflection_model, (np.float64(7.0e9), np.float64(1e200),
                                    np.float64(1e6))),
    ], ids=["gain", "reflection"])
    def test_overflow_is_an_infeasible_trial_point(self, model, args):
        # the model built on single_mode_gain emitted a RuntimeWarning here
        with pytest.raises(NonPhysical, match=r"^gain denominator overflows \(kappa up to"):
            model(np.array([7.0e9 - 1e6, 7.0e9 + 1e6]), *args)


def richardson_columns(residuals, p, steps):
    """Columns of the Jacobian of ``residuals`` at p by Richardson-extrapolated
    central differences, (4 D(h/2) - D(h))/3, with step ``steps[j]`` on p[j]
    (divided by the step as it is represented, not as it was asked for)."""
    def central(j, h):
        up, down = p.copy(), p.copy()
        up[j] += h
        down[j] -= h
        return (residuals(up) - residuals(down)) / (up[j] - down[j])

    return np.column_stack([(4.0 * central(j, h / 2.0) - central(j, h)) / 3.0
                            for j, h in enumerate(steps)])


def assert_columns_match(jac, reference, rtol=1e-7):
    """Each column within rtol of the reference, relative to the reference
    column's largest entry."""
    assert jac.shape == reference.shape
    for j in range(jac.shape[1]):
        error = np.max(np.abs(jac[:, j] - reference[:, j]))
        assert error <= rtol * np.max(np.abs(reference[:, j])), (j, error)


_ROWS = st.sampled_from([801, 2001])
# the fit's center, in linewidths from the grid center, never on it
_CENTER_OFF_GRID = st.tuples(st.floats(0.1, 2.0), st.sampled_from([-1.0, 1.0])).map(
    lambda draw: draw[0] * draw[1])


def fit_grid(kappa_hz, rows, shift):
    """A grid of +-4 linewidths around 7 GHz, and a center ``shift``
    linewidths off it, rounded to the middle between two samples: at
    eta = 0.5 and g = 0 the signal vanishes on the center."""
    step = 8.0 / (rows - 1)
    shift = (math.floor(shift / step) + 0.5) * step
    return 7.0e9 + kappa_hz * np.linspace(-4.0, 4.0, rows), 7.0e9 + shift * kappa_hz


class TestExactJacobians:
    """The gain-profile and reflection fits take the closed-form Jacobian
    of their model and never a finite difference."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    # g = 0 exactly, or at least 1e-3 of threshold: below that the g column
    # (proportional to g) sinks under the rounding of the differences
    @given(kappa_hz=st.floats(1e5, 1e8), g_frac=st.just(0.0) | st.floats(1e-3, 0.99),
           eta=st.floats(0.5, 0.99), rows=_ROWS, shift=_CENTER_OFF_GRID)
    def test_gain_jacobian_matches_central_differences(self, kappa_hz, g_frac, eta,
                                                       rows, shift):
        f, center = fit_grid(kappa_hz, rows, shift)
        p = np.array([g_frac * kappa_hz / 2.0, eta * kappa_hz, (1.0 - eta) * kappa_hz,
                      center])
        # steps well inside the narrowest feature: the distance kappa/2 - g
        # of the nearest pole, or a sample's distance from the nearest zero
        # of S (the zeros lie on the imaginary w axis, one of them at
        # kappa_i/2 - sqrt(kappa_e^2/4 + g^2))
        zero = p[2] / 2.0 - math.hypot(p[1] / 2.0, p[0])
        h = 1e-3 * min(kappa_hz / 2.0 - p[0], math.hypot(zero, np.min(np.abs(f - p[3]))))
        reference = richardson_columns(lambda q: calfit._gain_model_db(f, *q), p, [h] * 4)
        assert_columns_match(calfit._gain_jacobian(f, *p), reference)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(kappa_hz=st.floats(1e5, 1e8), eta=st.floats(0.5, 0.99), rows=_ROWS,
           shift=_CENTER_OFF_GRID)
    def test_reflection_jacobian_matches_central_differences(self, kappa_hz, eta,
                                                             rows, shift):
        f, center = fit_grid(kappa_hz, rows, shift)
        p = np.array([center, eta * kappa_hz, (1.0 - eta) * kappa_hz])

        def residuals(q):
            model = calfit._reflection_model(f, *q)
            return np.concatenate([model.real, model.imag])

        reference = richardson_columns(residuals, p, [1e-3 * kappa_hz] * 3)
        assert_columns_match(calfit._reflection_jacobian(f, *p), reference)

    @pytest.fixture
    def no_finite_differences(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("finite-difference Jacobian evaluated")

        monkeypatch.setattr(calfit, "_jacobian", forbidden)

    FITS = {
        "gain": (lambda: gain_trace(7.0e9, 10e6, 25e6, 5e6, points=801),
                 fit_gain_profile, "_gain_model_db", "_gain_jacobian"),
        "reflection": (lambda: reflection_trace(7.155e9, 19e6, 4e6, points=801),
                       fit_reflection, "_reflection_model", "_reflection_jacobian"),
    }

    def test_zero_rate_start_is_rank_deficient(self):
        # the model is even in g, so its exact g column vanishes at g = 0:
        # a featureless profile, whose only start has g = 0, reads no
        # working point (a forward difference saw a spurious slope there)
        f = np.linspace(7.0e9 - 1e8, 7.0e9 + 1e8, 801)
        p = np.array([0.0, 27e6, 3e6, 7.0e9])
        assert not calfit._gain_jacobian(f, *p)[:, 0].any()
        with pytest.raises(IllConditioned, match="rank-deficient at the initial point"):
            fit_gain_profile(Trace(x=f, y=np.zeros(801), kind="gain_db"))

    @pytest.mark.parametrize("fit", FITS)
    def test_fits_take_no_finite_differences(self, no_finite_differences, fit):
        make_trace, fit_fn, _, _ = self.FITS[fit]
        result = fit_fn(make_trace())
        assert result.iterations > 0
        assert all(math.isfinite(s) for s in result.sigma.values())

    @pytest.mark.parametrize("error", calfit._INFEASIBLE)
    @pytest.mark.parametrize("fit", FITS)
    def test_refused_start_keeps_its_type(self, monkeypatch, no_finite_differences,
                                          fit, error):
        make_trace, fit_fn, model, _ = self.FITS[fit]

        def refused(*args):
            raise error("start cannot be evaluated")

        monkeypatch.setattr(calfit, model, refused)
        with pytest.raises(error, match="^start cannot be evaluated$") as info:
            fit_fn(make_trace())
        assert type(info.value) is error

    @pytest.mark.parametrize("error", calfit._INFEASIBLE)
    @pytest.mark.parametrize("fit", FITS)
    def test_refused_trial_points_are_rejected_steps(self, monkeypatch,
                                                     no_finite_differences, fit, error):
        # once a refinement takes its first Jacobian, the model refuses every
        # other trial point: the fit must step around them to the same optimum
        make_trace, fit_fn, model_name, jacobian_name = self.FITS[fit]
        trace = make_trace()
        free = fit_fn(trace)
        model, jacobian = getattr(calfit, model_name), getattr(calfit, jacobian_name)
        refine = calfit.damped_least_squares
        trials = []  # None while a refinement evaluates its start
        refusals = []

        def refusing_model(*args):
            if trials and trials[-1] is not None:
                trials.append(1)
                if len(trials) % 2 == 0:
                    refusals.append(1)
                    raise error("refused trial point")
            return model(*args)

        def marking_jacobian(*args):
            if trials[-1] is None:
                trials[-1] = 1
            return jacobian(*args)

        def marking_refine(*args, **kwargs):
            trials.append(None)
            return refine(*args, **kwargs)

        monkeypatch.setattr(calfit, model_name, refusing_model)
        monkeypatch.setattr(calfit, jacobian_name, marking_jacobian)
        monkeypatch.setattr(calfit, "damped_least_squares", marking_refine)
        refused = fit_fn(trace)
        assert len(refusals) > 2
        for name, value in free.params.items():
            assert refused.params[name] == pytest.approx(value, rel=1e-8, abs=1e-6), name


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
        assert fit.iterations == 0

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

    def test_large_currents_recover_f0_and_i_star(self):
        # the unscaled design [1, I^2] of these currents has numerical rank 1
        fit = fit_bias_sweep(bias_trace(7.0e9, 3e8, [0.0, 1e8, 2e8]))
        assert fit.params["f0_hz"] == pytest.approx(7.0e9, rel=1e-9)
        assert fit.params["i_star_a"] == pytest.approx(3e8, rel=1e-9)

    def test_matches_design_matrix_regression(self):
        currents = np.linspace(0.1e-3, 3.0e-3, 31)
        trace = bias_trace(7.4e9, 5.86e-3, currents, noise=2e5,
                           rng=np.random.default_rng(3))
        fit = fit_bias_sweep(trace)
        # the regression on the design [1, I^2], its covariance, and I*'s
        # variance through the gradient of sqrt(-f0/(2 slope))
        design = np.column_stack([np.ones(31), currents**2])
        (f0, slope), *_ = np.linalg.lstsq(design, trace.y, rcond=None)
        resid = trace.y - design @ [f0, slope]
        cov = np.linalg.inv(design.T @ design) * (resid @ resid) / 29
        i_star = math.sqrt(-f0 / (2 * slope))
        grad = np.array([-1 / (4 * slope * i_star), f0 / (4 * slope**2 * i_star)])
        assert fit.params["f0_hz"] == pytest.approx(f0, rel=1e-12)
        assert fit.params["i_star_a"] == pytest.approx(i_star, rel=1e-9)
        assert fit.sigma["f0_hz"] == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-6)
        assert fit.sigma["i_star_a"] == pytest.approx(math.sqrt(grad @ cov @ grad), rel=1e-6)
        assert fit.residual_rms == pytest.approx(math.sqrt(np.mean(resid**2)), rel=1e-6)


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

    def test_above_threshold_trial_point_is_unstable_regime(self):
        from kipa import calfit

        with pytest.raises(UnstableRegime, match="threshold"):
            calfit._gain_model_db([7.0e9], 20e6, 25e6, 5e6, 7.0e9)  # g > kappa/2

    def test_grid_terms_once_per_center_and_no_pole_scan(self, monkeypatch):
        from kipa import ampcore

        # a working point at 0.9 of threshold is far from any pole
        trace = gain_trace(7.0e9, 0.9 * 15e6, 25e6, 5e6, points=2001)
        calls = {"_grid_terms": 0, "_single_mode_signal": 0, "_require_no_pole": 0}

        def counted(name):
            function = getattr(ampcore, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ampcore, name, counted(name))
        fit_gain_profile(trace)
        assert calls["_single_mode_signal"] > 100
        assert 2 * calls["_grid_terms"] < calls["_single_mode_signal"], calls
        assert calls["_require_no_pole"] == 0

    def test_unrelated_model_error_propagates(self, monkeypatch):
        from kipa import ampcore, calfit

        trace = gain_trace(7.0e9, 10e6, 25e6, 5e6)

        def broken(*args, **kwargs):
            raise KeyError("defect inside the model")

        monkeypatch.setattr(ampcore, "_single_mode_signal", broken)
        with pytest.raises(KeyError):
            calfit._gain_model_db([7.0e9], 10e6, 25e6, 5e6, 7.0e9)
        with pytest.raises(KeyError):
            fit_gain_profile(trace)

    def test_infeasible_start_is_never_refined(self, monkeypatch):
        from kipa import calfit

        trace = gain_trace(7.0e9, 10e6, 25e6, 5e6)
        starts = calfit._gain_profile_starts

        def two_starts(*args):
            return starts(*args)[:2]

        monkeypatch.setattr(calfit, "_gain_profile_starts", two_starts)
        expected = fit_gain_profile(trace)
        above_threshold = (20e6, 25e6, 5e6, 7.0e9)  # g > kappa/2
        monkeypatch.setattr(calfit, "_gain_profile_starts",
                            lambda *args: two_starts(*args) + [above_threshold])
        assert fit_gain_profile(trace) == expected
        monkeypatch.setattr(calfit, "_gain_profile_starts", lambda *args: [above_threshold])
        with pytest.raises(UnstableRegime, match="threshold"):
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
            assert fit.params["g_hz"] == pytest.approx(frac * kappa / 2, rel=0.05)

    def test_exact_solution_stops_immediately(self):
        def residuals(p):
            return np.array([p[0] - 3.0, p[1] + 2.0])

        p, iterations, r = damped_least_squares(residuals, [0.0, 0.0], [1.0, 1.0],
                                                overflow="unused")
        assert np.allclose(p, [3.0, -2.0])
        assert float(np.dot(r, r)) < 1e-20

    @pytest.mark.parametrize("error", calfit._INFEASIBLE)
    def test_refused_trial_points_are_rejected_steps(self, error):
        # a quadratic bowl whose model refuses every other trial point: the
        # LM must step around the refusals and still reach the minimum
        calls = []

        def residuals(p):
            calls.append(1)
            if len(calls) > 1 and len(calls) % 2 == 0:
                raise error("refused trial point")
            return np.array([p[0] - 3.0, 2.0 * (p[1] + 2.0), 0.1 * p[0] * p[1]])

        free, _, _ = damped_least_squares(
            lambda p: np.array([p[0] - 3.0, 2.0 * (p[1] + 2.0), 0.1 * p[0] * p[1]]),
            [1.0, 1.0], [1.0, 1.0], overflow="unused")
        p, _, _ = damped_least_squares(residuals, [1.0, 1.0], [1.0, 1.0], overflow="unused")
        assert np.allclose(p, free, rtol=1e-8)

    @pytest.mark.parametrize("error", calfit._INFEASIBLE)
    def test_refusal_at_the_start_propagates_with_its_type(self, error):
        def residuals(p):
            raise error("start cannot be evaluated")

        with pytest.raises(error, match="^start cannot be evaluated$") as info:
            damped_least_squares(residuals, [1.0, 1.0], [1.0, 1.0], overflow="unused")
        assert type(info.value) is error

    @pytest.mark.parametrize("overflow", ["start overflows",
                                          lambda value: "start overflows"])
    def test_overflowing_start_cost_is_named_non_physical(self, overflow):
        import warnings

        def residuals(p):
            return np.full(4, 1e200) * p[0] + p[1]  # finite, but r @ r overflows

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPhysical, match="^start overflows$"):
                damped_least_squares(residuals, [1.0, 0.0], [1.0, 1.0], overflow=overflow)

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
