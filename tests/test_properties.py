"""Structural invariants of the closed forms, checked over seeded random
parameter sweeps, and of the peak finder, checked against scipy and
against its all-sample reference over generated traces."""

import math
import time
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from kipa import (
    CoupledSystem,
    PoleAtFrequency,
    ResonatorParams,
    commutation_residual,
    double_mode_gain_bare,
    find_peaks_db,
    on_resonance_gain,
    pair_threshold,
    phase_sensitive_gain,
    single_mode_gain,
    stability_double,
)
from kipa import ampcore


def random_resonator(rng, eta_low=0.5):
    kappa = 2 * math.pi * 10 ** rng.uniform(5.5, 7.5)
    eta = rng.uniform(eta_low, 1.0)
    return ResonatorParams(omega0=2 * math.pi * rng.uniform(4e9, 9e9),
                           kappa_e=eta * kappa, kappa_i=(1 - eta) * kappa)


def test_photon_number_identity_over_draws():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(300):
        res = random_resonator(rng)
        g = rng.uniform(0.0, 0.98) * res.kappa / 2
        omega = rng.uniform(-3.0, 3.0) * res.kappa
        worst = max(worst, abs(commutation_residual(res, g, omega)))
    assert worst < 1e-9


def test_lossless_gain_difference_identity():
    # |G_I|^2 = |G_S|^2 - 1 everywhere on the grid when eta = 1
    rng = np.random.default_rng(102)
    for _ in range(50):
        res = random_resonator(rng, eta_low=1.0)
        g = rng.uniform(0.0, 0.95) * res.kappa / 2
        grid = np.linspace(-3, 3, 31) * res.kappa
        signal, idler = single_mode_gain(res, g, 0.0, 0.0, grid)
        assert np.max(np.abs(idler.power - (signal.power - 1.0))) < 1e-9 * np.max(
            signal.power
        )


def test_phase_sensitive_extrema_product_is_unity():
    rng = np.random.default_rng(103)
    dphi = np.linspace(0.0, 2 * math.pi, 20001)
    for _ in range(40):
        res = random_resonator(rng, eta_low=1.0)
        g = rng.uniform(0.0, 0.95) * res.kappa / 2
        gains = phase_sensitive_gain(res, g, dphi)
        # analytic extrema (|G_S| +- |G_I|)^2 multiply to exactly one
        signal, idler = single_mode_gain(res, g, 0.0, 0.0, [0.0])
        s, i = abs(signal.values[0]), abs(idler.values[0])
        assert (s + i) ** 2 * (s - i) ** 2 == pytest.approx(1.0, rel=1e-9)
        assert gains.max() == pytest.approx((s + i) ** 2, rel=1e-6)
        assert gains.min() == pytest.approx((s - i) ** 2, rel=1e-4)


def test_spectral_symmetry_on_resonance():
    rng = np.random.default_rng(104)
    for _ in range(50):
        res = random_resonator(rng)
        g = rng.uniform(0.0, 0.95) * res.kappa / 2
        omegas = rng.uniform(0.1, 3.0, 9) * res.kappa
        grid = np.sort(np.concatenate([-omegas, omegas]))
        signal, _ = single_mode_gain(res, g, 0.0, 0.0, grid)
        mags = np.abs(signal.values)
        assert np.allclose(mags, mags[::-1], rtol=1e-12)


def test_uncoupled_bare_gains_collapse_to_single_mode():
    rng = np.random.default_rng(105)
    for _ in range(60):
        res = random_resonator(rng)
        other = random_resonator(rng)
        system = CoupledSystem(mode_a=res, mode_b=other, J=0.0)
        g = rng.uniform(0.0, 0.95) * res.kappa / 2
        delta = rng.uniform(-1.5, 1.5) * res.kappa
        grid = np.sort(rng.uniform(-3, 3, 5)) * res.kappa
        phi = rng.uniform(0, 2 * math.pi)
        bare = double_mode_gain_bare(system, g, delta, delta, phi, grid)
        signal, _ = single_mode_gain(res, g, delta, phi, grid)
        rel = np.abs(bare.signal_a.values - signal.values) / np.abs(signal.values)
        assert np.max(rel) < 1e-9


def test_on_resonance_gain_monotone():
    rng = np.random.default_rng(106)
    for _ in range(20):
        res = random_resonator(rng)
        rates = np.linspace(0.0, 0.999, 300) * res.kappa / 2
        gains = [on_resonance_gain(res, g) for g in rates]
        assert np.all(np.diff(gains) > 0)


def test_hybrid_lossless_gain_difference_identity():
    # |G_I|^2 = |G_S|^2 - 1 holds for both collective modes when lossless
    import warnings

    from kipa import RWAViolation, double_mode_gain_hybrid

    rng = np.random.default_rng(108)
    for _ in range(100):
        k_a = 2 * math.pi * 10 ** rng.uniform(5.5, 7.0)
        k_b = 2 * math.pi * 10 ** rng.uniform(5.5, 7.0)
        mode_a = ResonatorParams(omega0=2 * math.pi * 7e9, kappa_e=k_a, kappa_i=0.0)
        mode_b = ResonatorParams(omega0=2 * math.pi * 7e9, kappa_e=k_b, kappa_i=0.0)
        system = CoupledSystem(mode_a, mode_b,
                               J=10 ** rng.uniform(0.5, 1.5) * max(k_a, k_b))
        g = rng.uniform(0.0, 0.95) * pair_threshold(system)
        grid = np.sort(rng.uniform(-2, 2, 5)) * system.J
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RWAViolation)
            gains = double_mode_gain_hybrid(system, g, 0.0, 0.0, grid)
        for sig, idl in ((gains.signal_plus, gains.idler_plus),
                         (gains.signal_minus, gains.idler_minus)):
            residual = np.abs(idl.power - (sig.power - 1.0))
            assert np.max(residual / np.maximum(sig.power, 1.0)) < 1e-9


def test_double_threshold_scales_with_cooperativity():
    # the C0 bound grows with J until the pair bound (kappa_a + kappa_b)/2
    # caps it
    rng = np.random.default_rng(107)
    for _ in range(40):
        mode_a = random_resonator(rng)
        mode_b = random_resonator(rng)
        cap = pair_threshold(CoupledSystem(mode_a, mode_b, J=0.0))
        assert cap == pytest.approx((mode_a.kappa + mode_b.kappa) / 2, rel=1e-15)
        thresholds = [stability_double(CoupledSystem(mode_a, mode_b, J=j * mode_a.kappa),
                                       0.0).threshold
                      for j in (0.0, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0)]
        assert thresholds == sorted(thresholds)
        assert thresholds[0] == mode_a.kappa / 2
        assert thresholds[-1] <= cap


def test_pair_threshold_matches_drift_eigenvalues():
    # stability_double is exact at the anticrossing: just below its
    # threshold no eigenvalue of the drift grows, just above one does, and
    # each of the two bounds binds on some draws
    rng = np.random.default_rng(109)
    binds = {"c0": 0, "pair": 0}
    for _ in range(600):
        mode_a = random_resonator(rng)
        mode_b = random_resonator(rng)
        assert mode_a.kappa != mode_b.kappa
        assert mode_a.kappa_e / mode_a.kappa != mode_b.kappa_e / mode_b.kappa
        system = CoupledSystem(mode_a, mode_b,
                               J=10 ** rng.uniform(math.log10(0.03), math.log10(30.0))
                               * mode_a.kappa)
        report = stability_double(system, 0.0)
        binds["pair" if report.threshold == pair_threshold(system) else "c0"] += 1
        for factor in (1 - 1e-7, 1 + 1e-7):
            g = factor * report.threshold
            growth = np.linalg.eigvals(ampcore.bare_drift(system, g)).real.max()
            assert stability_double(system, g).stable == (growth < 0), (system, factor)
    assert min(binds.values()) > 50, binds


def drawn_pair(kappa_hz, kb_over_ka, eta_a, eta_b, j_over_kappa):
    ka = 2 * math.pi * kappa_hz
    kb = kb_over_ka * ka
    omega0 = 2 * math.pi * 7e9
    return CoupledSystem(
        ResonatorParams(omega0=omega0, kappa_e=eta_a * ka, kappa_i=(1 - eta_a) * ka),
        ResonatorParams(omega0=omega0, kappa_e=eta_b * kb, kappa_i=(1 - eta_b) * kb),
        J=j_over_kappa * ka,
    )


_PAIRS = st.builds(
    drawn_pair,
    kappa_hz=st.floats(3e5, 3e7),
    kb_over_ka=st.floats(0.5, 2.0),
    eta_a=st.floats(0.5, 1.0),
    eta_b=st.floats(0.5, 1.0),
    j_over_kappa=st.floats(0.0, 30.0),
)
_OFFSETS = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40, unique=True).map(sorted)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(system=_PAIRS, g_frac=st.floats(0.0, 0.99), delta=st.floats(-3.0, 3.0),
       phi_p=st.floats(-math.pi, math.pi), offsets=_OFFSETS)
def test_bare_gain_mirror_identity(system, g_frac, delta, phi_p, offsets):
    # every factor of S_a(-w; -delta) is the conjugate of that of
    # S_a(w; delta), so the power gain is the same to the last bit (in
    # linear units: a critically coupled resonance has S_a = 0 exactly)
    kappa = system.mode_a.kappa
    g = g_frac * stability_double(system, 0.0).threshold
    w = np.array(offsets) * kappa
    d = delta * kappa
    try:
        gains = double_mode_gain_bare(system, g, d, d, phi_p, w).signal_a.power
    except PoleAtFrequency:
        return
    mirrored = double_mode_gain_bare(system, g, -d, -d, phi_p, -w[::-1])
    assert np.array_equal(mirrored.signal_a.power[::-1], gains)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(system=_PAIRS, g_frac=st.floats(0.0, 0.99), delta_a=st.floats(-3.0, 3.0),
       delta_b=st.floats(-3.0, 3.0), phi_p=st.floats(-math.pi, math.pi),
       offsets=_OFFSETS)
def test_uncoupled_bare_signal_is_single_mode(system, g_frac, delta_a, delta_b,
                                              phi_p, offsets):
    res = system.mode_a
    uncoupled = CoupledSystem(res, system.mode_b, J=0.0)
    g = g_frac * res.kappa / 2
    w = np.array(offsets) * res.kappa
    bare = double_mode_gain_bare(uncoupled, g, delta_a * res.kappa,
                                 delta_b * res.kappa, phi_p, w)
    signal, _ = single_mode_gain(res, g, delta_a * res.kappa, phi_p, w)
    # relative to the unit scale of S_a + 1, which S_a = 0 does not have
    assert np.allclose(bare.signal_a.values, signal.values, rtol=1e-12, atol=1e-12)


# beyond +-1e300 the difference of two samples overflows to inf and
# numpy warns, which the suite turns into an error
_SAMPLES = st.floats(min_value=-1e300, max_value=1e300)
_TRACES = st.one_of(
    st.lists(_SAMPLES, max_size=200),
    # few distinct values, so that plateaus and equal bases are common
    st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 5.0]), max_size=200),
    st.lists(_SAMPLES, min_size=1, max_size=4).flatmap(
        lambda levels: st.lists(st.sampled_from(levels), max_size=200)
    ),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(values=_TRACES, prominence=st.sampled_from([0.0, 1.0, 3.0]))
def test_find_peaks_matches_scipy(values, prominence):
    expected = find_peaks(np.array(values), prominence=prominence)[0].tolist()
    assert find_peaks_db(values, prominence) == expected


def test_find_peaks_linear_on_rising_zigzag():
    # every local maximum tops all samples before it, so a per-peak
    # outward scan would walk back to the start from each of them
    k = np.arange(8000)
    zigzag = k // 2 + 2.0 * (k % 2)
    start = time.perf_counter()
    peaks = find_peaks_db(zigzag, 0.0)
    assert time.perf_counter() - start < 1.0
    assert peaks == find_peaks(zigzag, prominence=0.0)[0].tolist()


def test_find_peaks_nan_ends_a_run_but_is_no_base():
    # the 5 is a peak (the NaN after it ends its run); its right base is
    # the 1, not the NaN, and the 6 stays the higher sample that bounds it
    assert find_peaks_db([0.0, 5.0, math.nan, 1.0, 6.0, 0.0], 3.0) == [1, 4]
    assert find_peaks_db([0.0, 5.0, math.nan, 3.0, 6.0, 0.0], 3.0) == [4]


def reference_left_bases(values):
    """For each sample, the minimum from it back to the nearest strictly
    higher sample (or to the start), over every sample."""
    bases = array("d")
    heights, lows = [], []
    for v in memoryview(values):
        if v != v:
            bases.append(v)
            continue
        low = v
        while heights and heights[-1] <= v:
            heights.pop()
            m = lows.pop()
            if m < low:
                low = m
        heights.append(v)
        lows.append(low)
        bases.append(low)
    return np.frombuffer(bases)


def reference_find_peaks_db(values_db, prominence_db):
    """The peak finder with its bases taken over all samples."""
    y = np.asarray(values_db, dtype=float)
    ends = np.flatnonzero(y[1:] != y[:-1])
    starts = np.concatenate(([0], ends + 1))[:-1]
    peak = (starts > 0) & (y[starts] > y[starts - 1]) & ~(y[ends + 1] >= y[ends])
    starts, ends = starts[peak], ends[peak]
    left = reference_left_bases(y)
    right = reference_left_bases(y[::-1])[::-1]
    keep = y[starts] - np.maximum(left[starts], right[ends]) >= prominence_db
    return ((starts[keep] + ends[keep]) // 2).tolist()


_EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])
_WILD = st.one_of(st.floats(min_value=-1e308, max_value=1e308), _EXTREMES)
_WILD_TRACES = st.one_of(
    st.lists(_WILD, max_size=200),
    st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 5.0]), _EXTREMES),
             max_size=200),
    st.lists(_WILD, min_size=1, max_size=4).flatmap(
        lambda levels: st.lists(st.sampled_from(levels), max_size=200)
    ),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(values=_WILD_TRACES, prominence=st.sampled_from([0.0, 1.0, 3.0]))
@example(values=[0.0, math.inf, math.nan], prominence=3.0)
@example(values=[0.0, 5.0, math.nan, 1.0, 6.0, 0.0], prominence=3.0)
@example(values=[9.0, 1.0, 2.0, 1.0, 9.0], prominence=0.0)
@example(values=[0.0, 4.0, 0.0, 2.0, 9.0], prominence=3.0)
@example(values=[1.0, 2.0, 0.0, 3.0, -1.0, 4.0, -2.0, 5.0], prominence=1.0)
def test_find_peaks_matches_all_sample_reference(values, prominence):
    # the all-sample subtraction warns where a difference overflows or is
    # inf - inf; the peak finder under test must not
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference_find_peaks_db(values, prominence)
    assert find_peaks_db(values, prominence) == expected


def test_find_peaks_stack_sees_only_turning_points(monkeypatch):
    w = np.linspace(-1.0, 1.0, 20001)
    gain = 1.0 + sum(30.0 / (1.0 + ((w - c) / 0.02) ** 2) for c in (-0.3, 0.3))
    gain_db = 10.0 * np.log10(gain)
    lengths = []
    left_bases = ampcore._left_bases

    def recording(values):
        lengths.append(len(values))
        return left_bases(values)

    monkeypatch.setattr(ampcore, "_left_bases", recording)
    peaks = find_peaks_db(gain_db, 3.0)
    assert peaks == reference_find_peaks_db(gain_db, 3.0) == [7000, 13000]
    assert lengths and max(lengths) < 100
