"""Coupled-pair physics: stability, hybridization, double-mode gain in
both representations, regime map, gain-bandwidth product."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kipa import (
    CoupledSystem,
    NoPeak,
    ResonatorParams,
    RWAViolation,
    UnstableRegime,
    double_mode_gain_bare,
    double_mode_gain_hybrid,
    find_peaks_db,
    gain_bandwidth_product,
    hybridize,
    pair_threshold,
    pump_regime_map,
    single_mode_gain,
    stability_double,
)
from kipa.ampcore import _bare_kernel, bare_drift
from kipa.params import power_db

OMEGA0 = 2 * math.pi * 7.133e9


def make_pair(kappa_a_hz=1e6, kappa_b_hz=1e6, j_over_kappa=8.0,
              eta_a=1.0, eta_b=1.0, omega_b=None):
    ka = 2 * math.pi * kappa_a_hz
    kb = 2 * math.pi * kappa_b_hz
    mode_a = ResonatorParams(omega0=OMEGA0, kappa_e=eta_a * ka,
                             kappa_i=(1 - eta_a) * ka)
    mode_b = ResonatorParams(omega0=omega_b or OMEGA0, kappa_e=eta_b * kb,
                             kappa_i=(1 - eta_b) * kb)
    return CoupledSystem(mode_a=mode_a, mode_b=mode_b, J=j_over_kappa * ka)


class TestStabilityDouble:
    def test_uncoupled_reduces_to_single_threshold(self):
        system = make_pair(j_over_kappa=0.0)
        report = stability_double(system, 0.0)
        assert report.cooperativity == 0.0
        assert report.threshold == pytest.approx(system.mode_a.kappa / 2)

    def test_half_kappa_coupling(self):
        system = make_pair(j_over_kappa=0.5)
        report = stability_double(system, 0.0)
        assert report.cooperativity == pytest.approx(1.0)
        assert report.threshold == pytest.approx(system.mode_a.kappa)

    def test_margin_just_below_threshold(self):
        system = make_pair(j_over_kappa=2.0)
        threshold = stability_double(system, 0.0).threshold
        report = stability_double(system, 0.999 * threshold)
        assert report.stable and report.margin > 0

    def test_overflowing_coupling_is_non_physical(self):
        from kipa import NonPhysical

        for J in (1e200, 1e300):
            system = CoupledSystem(make_pair().mode_a, make_pair().mode_b, J=J)
            with pytest.raises(NonPhysical, match="threshold overflows"):
                stability_double(system, 0.0)

    def test_zero_frequency_divergence_matches_threshold(self):
        # the static coupled response diverges exactly at the threshold
        system = make_pair(kappa_a_hz=1.7e6, kappa_b_hz=0.6e6,
                           j_over_kappa=1.3, eta_a=0.8, eta_b=0.7)
        threshold = stability_double(system, 0.0).threshold
        a, b, J = system.mode_a, system.mode_b, system.J
        den = (a.kappa * b.kappa / 4 + J**2) ** 2 - threshold**2 * b.kappa**2 / 4
        assert abs(den) < 1e-6 * (a.kappa * b.kappa / 4 + J**2) ** 2


class TestHybridize:
    def test_degenerate_point_splits_by_2j(self):
        system = make_pair(j_over_kappa=21.5)
        modes = hybridize(system)
        assert modes.omega_plus - modes.omega_minus == pytest.approx(2 * system.J)
        assert modes.delta_ab == 0.0

    def test_anticrossing_splitting_43_mhz(self):
        system = make_pair(kappa_a_hz=23e6, kappa_b_hz=23e6, j_over_kappa=21.5 / 23)
        modes = hybridize(system)
        splitting_hz = (modes.omega_plus - modes.omega_minus) / (2 * math.pi)
        assert splitting_hz == pytest.approx(43e6, rel=1e-12)

    def test_printed_versus_standard_form(self):
        system = make_pair(j_over_kappa=0.0, omega_b=OMEGA0 + 2 * math.pi * 3.6e8)
        printed = hybridize(system, form="as_printed")
        standard = hybridize(system, form="standard")
        delta_ab = system.mode_a.omega0 - standard.omega_plus  # J=0: plus = max
        # the standard diagonalization recovers the bare modes at J=0
        assert standard.omega_plus == pytest.approx(system.mode_b.omega0)
        assert standard.omega_minus == pytest.approx(system.mode_a.omega0)
        # the printed form brackets have half the detuning under the root
        assert printed.omega_plus - printed.omega_minus == pytest.approx(
            abs(system.mode_a.omega0 - system.mode_b.omega0) / 2
        )
        with pytest.raises(ValueError):
            hybridize(system, form="other")

    def test_continuity_in_coupling(self):
        system0 = make_pair(omega_b=OMEGA0 + 2 * math.pi * 5e7, j_over_kappa=0.0)
        eps = 2 * math.pi * 10.0
        for form in ("as_printed", "standard"):
            base = hybridize(system0, form=form)
            bumped = hybridize(
                CoupledSystem(system0.mode_a, system0.mode_b, J=eps), form=form
            )
            assert abs(bumped.omega_plus - base.omega_plus) < 2 * eps
            assert abs(bumped.omega_minus - base.omega_minus) < 2 * eps


class TestHybridGains:
    def test_pump_off_unit_reflection(self):
        system = make_pair()
        grid = np.linspace(-2 * system.J, 2 * system.J, 101)
        gains = double_mode_gain_hybrid(system, 0.0, 0.0, 0.0, grid)
        assert np.allclose(gains.signal_plus.power, 1.0, atol=1e-12)
        assert np.allclose(gains.signal_minus.power, 1.0, atol=1e-12)
        assert np.allclose(gains.idler_plus.values, 0.0)

    def test_single_mode_collapse_on_pair_resonance(self):
        # on the collective-mode resonance the pair response takes the
        # single-mode on-resonance form with the halved pair rate: the
        # 25/9 point sits at g = kappa/2 (pair rate kappa/4)
        system = make_pair()
        kappa = system.mode_a.kappa
        gains = double_mode_gain_hybrid(system, kappa / 2, 0.0, 0.0,
                                        [-system.J, system.J])
        assert abs(gains.signal_plus.values[1]) ** 2 == pytest.approx(
            25.0 / 9.0, rel=1e-9
        )
        assert abs(gains.signal_minus.values[0]) ** 2 == pytest.approx(
            25.0 / 9.0, rel=1e-9
        )
        assert abs(gains.idler_plus.values[1]) ** 2 == pytest.approx(
            16.0 / 9.0, rel=1e-9
        )

    def test_peaks_split_by_2j(self):
        system = make_pair(eta_a=0.9, eta_b=0.9)
        grid = np.linspace(-2 * system.J, 2 * system.J, 4001)
        gains = double_mode_gain_hybrid(
            system, 0.8 * pair_threshold(system), 0.0, 0.0, grid
        )
        up = grid[np.argmax(gains.signal_plus.power)]
        down = grid[np.argmax(gains.signal_minus.power)]
        assert up == pytest.approx(system.J, rel=1e-2)
        assert down == pytest.approx(-system.J, rel=1e-2)

    def test_rwa_warning_when_coupling_small(self):
        system = make_pair(j_over_kappa=0.4)
        with pytest.warns(RWAViolation):
            double_mode_gain_hybrid(system, 0.0, 0.0, 0.0, [0.0])

    def test_unstable_rejected(self):
        system = make_pair()
        g = stability_double(system, 0.0).threshold
        with pytest.raises(UnstableRegime):
            double_mode_gain_hybrid(system, g, 0.0, 0.0, [0.0])


class TestBareGains:
    def test_uncoupled_reduces_to_single_mode(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            kappa_hz = 10 ** rng.uniform(5.5, 7.5)
            eta = rng.uniform(0.5, 1.0)
            system = make_pair(kappa_a_hz=kappa_hz, kappa_b_hz=kappa_hz,
                               j_over_kappa=0.0, eta_a=eta, eta_b=eta)
            res = system.mode_a
            g = rng.uniform(0.0, 0.95) * res.kappa / 2
            delta = rng.uniform(-1.5, 1.5) * res.kappa
            grid = np.sort(rng.uniform(-3, 3, 7)) * res.kappa
            bare = double_mode_gain_bare(system, g, delta, delta, 0.3, grid)
            signal, _ = single_mode_gain(res, g, delta, 0.3, grid)
            assert np.max(np.abs(bare.signal_a.values - signal.values)
                          / np.abs(signal.values)) < 1e-9
            # the cross-mode idler channel closes with the coupling
            assert np.allclose(bare.idler_a.values, 0.0)

    def test_pump_off_passive_reflection(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            system = make_pair(
                kappa_a_hz=10 ** rng.uniform(5.5, 7.0),
                kappa_b_hz=10 ** rng.uniform(5.5, 7.0),
                j_over_kappa=rng.uniform(0.2, 10.0),
                eta_a=rng.uniform(0.3, 1.0),
                eta_b=rng.uniform(0.3, 1.0),
            )
            grid = np.linspace(-3 * system.J - 2 * system.mode_a.kappa,
                               3 * system.J + 2 * system.mode_a.kappa, 201)
            bare = double_mode_gain_bare(system, 0.0, 0.0, 0.0, 0.0, grid)
            assert np.all(bare.signal_a.power <= 1.0 + 1e-9)
            assert np.all(bare.signal_b.power <= 1.0 + 1e-9)

    def test_two_peaks_at_anticrossing(self):
        system = make_pair(eta_a=0.9, eta_b=0.9, j_over_kappa=8.0)
        g = 0.9 * pair_threshold(system)
        grid = np.linspace(-2 * system.J, 2 * system.J, 8001)
        bare = double_mode_gain_bare(system, g, 0.0, 0.0, 0.0, grid)
        peaks = find_peaks_db(bare.signal_a.power_db, 3.0)
        assert len(peaks) == 2
        separation = grid[peaks[-1]] - grid[peaks[0]]
        assert separation == pytest.approx(2 * system.J, rel=0.02)

    def test_hybrid_agreement_improves_with_coupling(self):
        # port-a peak gain approaches the collective-mode prediction once
        # the auxiliary mode is effectively portless and 2J >> kappa, g
        diffs = []
        for j_over_kappa in (5.0, 2.5, 1.25):
            system = make_pair(j_over_kappa=j_over_kappa, eta_a=0.9, eta_b=1e-9)
            g = 0.9 * pair_threshold(system)
            grid = np.linspace(0.2 * system.J, 1.8 * system.J, 4001)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RWAViolation)
                hyb = double_mode_gain_hybrid(system, g, 0.0, 0.0, grid)
                bare = double_mode_gain_bare(system, g, 0.0, 0.0, 0.0, grid)
            peak_h = np.max(hyb.signal_plus.power)
            peak_b = np.max(bare.signal_a.power)
            diffs.append(abs(peak_b - peak_h) / peak_h)
        assert diffs[0] < 0.05          # 2J = 10 max(kappa, g)
        assert diffs[0] < diffs[1] < diffs[2]

    def test_unstable_rejected(self):
        system = make_pair(j_over_kappa=0.3)
        g = stability_double(system, 0.0).threshold * 1.01
        with pytest.raises(UnstableRegime):
            double_mode_gain_bare(system, g, 0.0, 0.0, 0.0, [0.0])

    def test_real_axis_pole_reported(self):
        # between the pair-oscillation point and the static threshold the
        # response has real-frequency poles; evaluation exactly there is
        # refused rather than returned as infinity
        from kipa import PoleAtFrequency

        system = make_pair(j_over_kappa=10.0)
        kappa = system.mode_a.kappa
        assert stability_double(system, kappa).stable
        pole = math.sqrt(4 * system.J**2 - kappa**2) / 2
        with pytest.raises(PoleAtFrequency):
            double_mode_gain_bare(system, kappa, 0.0, 0.0, 0.0, [pole])
        with pytest.raises(PoleAtFrequency):
            double_mode_gain_hybrid(system, kappa, 0.0, 0.0, [system.J])


class TestPumpRegimeMap:
    def make_map(self, points=401, frac=0.85, kappa_hz=6e6):
        system = make_pair(kappa_a_hz=kappa_hz, kappa_b_hz=kappa_hz,
                           j_over_kappa=21.5e6 / kappa_hz,
                           eta_a=19 / 23, eta_b=19 / 23)
        g = frac * pair_threshold(system)
        center = system.mode_a.omega0 + system.mode_b.omega0
        half = 6 * system.J + 6 * system.mode_a.kappa
        pump_grid = center + np.linspace(-half, half, points)
        return system, center, pump_regime_map(system, g, pump_grid)

    def test_three_regimes_resolved(self):
        system, center, result = self.make_map()
        assert result.single_minus is not None
        assert result.double is not None
        assert result.single_plus is not None
        assert result.single_minus < result.double < result.single_plus

    def test_symmetric_double_regime_at_center(self):
        system, center, result = self.make_map()
        assert result.double == center

    def test_outer_separation_near_4j(self):
        system, center, result = self.make_map()
        assert result.outer_separation == pytest.approx(4 * system.J, rel=0.10)
        # paper-anchored scale: ~91 MHz for J/2pi = 21.5 MHz, within 10%
        assert result.outer_separation / (2 * math.pi) == pytest.approx(91e6, rel=0.10)

    def test_requires_anticrossing(self):
        system = make_pair(omega_b=OMEGA0 * 1.01)
        with pytest.raises(ValueError):
            pump_regime_map(system, 0.0, [2 * OMEGA0])

    def test_requires_coupling(self):
        system = make_pair(j_over_kappa=0.0)
        with pytest.raises(ValueError):
            pump_regime_map(system, 0.0, [2 * OMEGA0])

    def test_empty_pump_grid_is_bad_input(self):
        with pytest.raises(ValueError, match="non-empty pump grid"):
            pump_regime_map(make_pair(j_over_kappa=10.0), 0.0, [])

    def test_self_oscillating_pump_points_skipped(self):
        # just above the anticrossing oscillation point parts of the pump
        # axis self-oscillate and are excluded from the sweep
        system = make_pair(j_over_kappa=10.0)
        g = 1.05 * system.mode_a.kappa
        half = 6 * system.J + 6 * system.mode_a.kappa
        pump = 2 * OMEGA0 + np.linspace(-half, half, 101)
        result = pump_regime_map(system, g, pump)
        assert np.isnan(result.peak_gains_db).sum() > 0

    def test_skipped_points_are_the_unstable_drift_points(self):
        from kipa.oracle import double_mode_matrices

        system = make_pair(j_over_kappa=10.0)
        g = 1.05 * system.mode_a.kappa
        half = 6 * system.J + 6 * system.mode_a.kappa
        pump = 2 * OMEGA0 + np.linspace(-half, half, 101)
        result = pump_regime_map(system, g, pump)
        unstable = [
            np.linalg.eigvals(double_mode_matrices(system, g, d, d).drift).real.max()
            >= 0.0
            for d in OMEGA0 - pump / 2.0
        ]
        assert np.isnan(result.peak_gains_db).tolist() == unstable

    def test_peaks_are_refined_bare_gain_peaks(self):
        from kipa.ampcore import _refined_peak_height

        system, center, result = self.make_map(points=101)
        g = 0.85 * pair_threshold(system)
        kappa = system.mode_a.kappa
        half_span = system.J + 4.0 * kappa + 2.0 * g
        w = np.linspace(-half_span, half_span, 2001)
        finite = np.flatnonzero(np.isfinite(result.peak_gains_db))
        assert len(finite) == 101
        for i in finite:
            delta = (system.mode_a.omega0 + system.mode_b.omega0) / 2.0 \
                - result.pump_freqs[i] / 2.0
            gains = double_mode_gain_bare(system, g, delta, delta, 0.0, w)
            assert result.peak_gains_db[i] == _refined_peak_height(
                gains.signal_a.power_db
            )

    def test_fully_oscillating_grid_rejected(self):
        system = make_pair(j_over_kappa=10.0)
        g = 1.6 * system.mode_a.kappa
        pump = 2 * OMEGA0 + np.linspace(-0.1, 0.1, 5) * system.mode_a.kappa
        with pytest.raises(UnstableRegime):
            pump_regime_map(system, g, pump)


# ---------------------------------------------------------------------------
# Reference for the regime map: every pump point evaluated on the whole
# internal grid, and the scalar parabolic refinement
# ---------------------------------------------------------------------------

def scalar_refined_peak_height(y_db):
    i = int(np.argmax(y_db))
    if i == 0 or i == len(y_db) - 1:
        return float(y_db[i])
    y0, y1, y2 = y_db[i - 1], y_db[i], y_db[i + 1]
    if not (np.isfinite(y0) and np.isfinite(y1) and np.isfinite(y2)):
        return float(y1)
    curvature = y0 - 2.0 * y1 + y2
    if curvature >= 0.0:
        return float(y1)
    return float(y1 - (y0 - y2) ** 2 / (8.0 * curvature))


def reference_peak_gains(system, g, pump_grid):
    """Peak gains of pump_regime_map, one full-grid evaluation per pump
    point (NaN where the drift has an eigenvalue with Re >= 0)."""
    omega_c = (system.mode_a.omega0 + system.mode_b.omega0) / 2.0
    J = system.J
    ka, kb = system.mode_a.kappa, system.mode_b.kappa
    half_span = J + 4.0 * max(ka, kb) + 2.0 * g
    w_grid = np.linspace(-half_span, half_span, 2001)
    pump = np.asarray(pump_grid, dtype=float)
    deltas = omega_c - pump / 2.0
    drifts = np.array([bare_drift(system, g, d, d) for d in deltas])
    growth = np.linalg.eigvals(drifts).real.max(axis=-1)
    peak_db = np.full(len(pump), np.nan)
    for i in np.flatnonzero(~(growth >= 0.0)):
        _, bm, _, _, upper, den = _bare_kernel(ka, kb, J, g, deltas[i], deltas[i], w_grid)
        signal_a = system.mode_a.kappa_e * bm * upper / den - 1.0
        peak_db[i] = scalar_refined_peak_height(power_db(np.abs(signal_a) ** 2))
    return peak_db


def random_pair(ka_hz, kb_over_ka, eta_a, eta_b, j_over_kappa):
    ka = 2 * math.pi * ka_hz
    kb = kb_over_ka * ka
    mode_a = ResonatorParams(omega0=OMEGA0, kappa_e=eta_a * ka, kappa_i=(1 - eta_a) * ka)
    mode_b = ResonatorParams(omega0=OMEGA0, kappa_e=eta_b * kb, kappa_i=(1 - eta_b) * kb)
    return CoupledSystem(mode_a=mode_a, mode_b=mode_b, J=j_over_kappa * ka)


class TestRegimeMapEqualsReference:
    """The coarse-to-fine search gives the full-grid peak gains bit for bit."""

    @pytest.mark.parametrize("frac", [0.0, 0.5, 0.9, 0.99, 1.05, 1.3])
    @pytest.mark.parametrize("j_over_kappa", [0.3, 3.0, 21.5 / 6])
    def test_fixed_systems(self, frac, j_over_kappa):
        system = random_pair(6e6, 1.3, 0.8, 0.9, j_over_kappa)
        g = frac * pair_threshold(system)
        half = 6 * system.J + 6 * max(system.mode_a.kappa, system.mode_b.kappa)
        pump = 2 * OMEGA0 + np.linspace(-half, half, 301)
        expected = reference_peak_gains(system, g, pump)
        if not np.isfinite(expected).any():
            with pytest.raises(UnstableRegime):
                pump_regime_map(system, g, pump)
            return
        result = pump_regime_map(system, g, pump)
        assert np.array_equal(result.peak_gains_db, expected, equal_nan=True)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        ka_hz=st.floats(3e5, 3e7),
        kb_over_ka=st.floats(0.5, 2.0),
        eta_a=st.floats(0.5, 0.99),
        eta_b=st.floats(0.5, 0.99),
        j_over_kappa=st.floats(0.3, 30.0),
        g_frac=st.floats(0.0, 1.3),
        points=st.integers(1, 120),
        span=st.floats(0.1, 2.0),
        offset=st.floats(-1.0, 1.0),
    )
    def test_matches_full_grid(self, ka_hz, kb_over_ka, eta_a, eta_b,
                               j_over_kappa, g_frac, points, span, offset):
        system = random_pair(ka_hz, kb_over_ka, eta_a, eta_b, j_over_kappa)
        g = g_frac * pair_threshold(system)
        half = span * (6 * system.J + 6 * max(system.mode_a.kappa, system.mode_b.kappa))
        pump = 2 * OMEGA0 + offset * half + np.linspace(-half, half, points)
        expected = reference_peak_gains(system, g, pump)
        assume(np.isfinite(expected).any())
        result = pump_regime_map(system, g, pump)
        assert np.array_equal(result.peak_gains_db, expected, equal_nan=True)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rows=st.lists(
        st.lists(st.sampled_from([-math.inf, -3.0, 0.0, 0.5, 1.0, 2.5, 7.0,
                                  math.inf, math.nan]), min_size=1, max_size=6)
        .map(lambda row: row + [0.0] * (6 - len(row)))
        | st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6),
        min_size=1, max_size=8))
    def test_stacked_refinement_matches_scalar(self, rows):
        from kipa.ampcore import _refined_peak_height

        stack = np.array(rows)
        expected = [scalar_refined_peak_height(row) for row in stack]
        assert np.array_equal(_refined_peak_height(stack), expected, equal_nan=True)
        for row, value in zip(stack, expected):
            got = _refined_peak_height(row)
            assert isinstance(got, float)
            assert got == value or (math.isnan(got) and math.isnan(value))

    def test_stacked_refinement_rounds_like_scalar(self):
        # the squared spread must round as a float64 scalar's ** 2 (libm
        # pow), which differs from an array square on ~0.1% of values
        from kipa.ampcore import _refined_peak_height

        rng = np.random.default_rng(9)
        stack = rng.uniform(-1.0, -1e-3, (20000, 3))
        stack[:, 1] = 0.0  # the correction is the whole result
        expected = [scalar_refined_peak_height(row) for row in stack]
        assert np.array_equal(_refined_peak_height(stack), expected)

    def test_broadcast_drift_equals_single_drifts(self):
        system = random_pair(2e6, 0.7, 0.9, 0.6, 4.0)
        rng = np.random.default_rng(8)
        da = np.concatenate([rng.normal(size=30) * 1e8, [0.0, -0.0]])
        db = rng.normal(size=32) * 1e8
        stack = bare_drift(system, 0.3 * system.mode_a.kappa, da, db, 1.1)
        assert stack.shape == (32, 4, 4)
        for i in range(32):
            single = bare_drift(system, 0.3 * system.mode_a.kappa, float(da[i]),
                                float(db[i]), 1.1)
            assert single.shape == (4, 4)
            assert single.tobytes() == stack[i].tobytes()


class TestGainBandwidthProduct:
    @pytest.mark.parametrize("eta", [0.875, 0.9])
    def test_near_threshold_asymptote(self, eta):
        kappa = 2 * math.pi * 32e6
        res = ResonatorParams(omega0=2 * math.pi * 7e9,
                              kappa_e=eta * kappa, kappa_i=(1 - eta) * kappa)
        g = 0.4995 * kappa
        width = kappa / 2 - g
        grid = np.linspace(-30 * width, 30 * width, 4001)
        signal, _ = single_mode_gain(res, g, 0.0, 0.0, grid)
        result = gain_bandwidth_product(signal)
        assert result.gbp_hz == pytest.approx(eta * 32e6, rel=0.05)

    def test_approaches_extrinsic_rate_at_large_gain(self):
        # GBP climbs toward eta*kappa as the working point nears threshold
        kappa = 2 * math.pi * 32e6
        res = ResonatorParams(omega0=2 * math.pi * 7e9,
                              kappa_e=0.875 * kappa, kappa_i=0.125 * kappa)
        gbps = []
        for peak_db in (25.0, 35.0, 45.0):
            amp = 10 ** (peak_db / 20.0)
            # invert the on-resonance form for the pump rate at this gain
            ratio = 2.0 * res.eta / (amp + 1.0)
            g = (kappa / 2.0) * math.sqrt(1.0 - ratio)
            width = kappa / 2.0 - g
            grid = np.linspace(-30 * width, 30 * width, 4001)
            signal, _ = single_mode_gain(res, g, 0.0, 0.0, grid)
            gbps.append(gain_bandwidth_product(signal).gbp_hz)
        target = res.eta * kappa / (2 * math.pi)
        deviations = [abs(v - target) / target for v in gbps]
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[-1] < 0.02
        assert all(d < 0.15 for d in deviations)

    def test_pump_off_has_no_peak(self):
        res = ResonatorParams(omega0=2 * math.pi * 7e9,
                              kappa_e=2 * math.pi * 28e6,
                              kappa_i=2 * math.pi * 4e6)
        grid = np.linspace(-res.kappa, res.kappa, 301)
        signal, _ = single_mode_gain(res, 0.0, 0.0, 0.0, grid)
        with pytest.raises(NoPeak):
            gain_bandwidth_product(signal)

    def test_two_peak_spectrum_rejected(self):
        system = make_pair(eta_a=0.9, eta_b=0.9)
        g = 0.9 * pair_threshold(system)
        grid = np.linspace(-2 * system.J, 2 * system.J, 2001)
        bare = double_mode_gain_bare(system, g, 0.0, 0.0, 0.0, grid)
        with pytest.raises(NoPeak):
            gain_bandwidth_product(bare.signal_a)
