"""Closed-form device physics: kinetic inductance, gain spectra, stability
and mode hybridization for single- and double-mode parametric operation.

All functions are pure; inputs are immutable value types from
:mod:`kipa.params`. Every rate and frequency here is angular (rad/s).
Reported gains are power gains; dB means 10*log10.
"""

from __future__ import annotations

import cmath
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysical, PoleAtFrequency, RWAViolation, UnstableRegime
from .params import (
    ComplexSpectrum,
    CoupledSystem,
    KineticFilm,
    PumpConfig,
    ResonatorParams,
    Trace,
    angular_to_hz,
    power_db,
)

# Relative tolerance below which a gain denominator counts as a real pole.
_POLE_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Device-level relations: inductance, bias tuning, pump rate
# ---------------------------------------------------------------------------

def kinetic_inductance(film: KineticFilm, I_dc: float, I_rf: float = 0.0) -> float:
    """Current-dependent kinetic inductance [H].

    L(I) = L0 * [1 + (I_dc/I*)^2 + 2*I_rf*I_dc/I*^2 + (I_rf/I*)^2]

    The quadratic DC term tunes the resonance, the cross term enables
    three-wave mixing, and the quadratic RF term is the (neglected
    elsewhere) four-wave-mixing contribution.
    """
    x_dc = I_dc / film.I_star
    x_rf = I_rf / film.I_star
    return film.L0 * (1.0 + x_dc**2 + 2.0 * x_rf * x_dc + x_rf**2)


def bias_frequency_shift(omega0: float, I_dc: float, I_star: float) -> float:
    """Resonance shift from a DC bias current [rad/s]; always <= 0.

    delta_omega = -(omega0/2) * (I_dc/I*)^2
    """
    if not I_star > 0:
        raise ValueError(f"I_star must be > 0, got {I_star!r}")
    return -(omega0 / 2.0) * (I_dc / I_star) ** 2


def pump_rate(pump: PumpConfig, film: KineticFilm, omega0: float) -> float:
    """Parametric rate g [rad/s] from the pump drive.

    With the drive given as a power, the pump current under the
    matched-drive assumption is I_p = cal*sqrt(2*P_p/Z_ref) and

        g = |I_dc * I_p * omega0 / (4*I*^2)|

    The magnitude is returned; the sign of the mixing product is folded
    into the pump phase. A directly-specified rate passes through.
    """
    if pump.g is not None:
        return pump.g
    i_p = pump.cal * math.sqrt(2.0 * pump.P_p / pump.Z_ref)
    return abs(pump.I_dc * i_p * omega0 / (4.0 * film.I_star**2))


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleModeStability:
    stable: bool
    margin: float     # threshold - g [rad/s]
    threshold: float  # kappa/2 [rad/s]


@dataclass(frozen=True)
class DoubleModeStability:
    stable: bool
    cooperativity: float  # C0 = 4 J^2 / (kappa_a * kappa_b)
    threshold: float      # kappa_a (1 + C0) / 2 [rad/s]
    margin: float         # threshold - g [rad/s]


def stability_single(res: ResonatorParams, g: float) -> SingleModeStability:
    """Single-mode oscillation threshold: stable iff g < kappa/2."""
    threshold = res.kappa / 2.0
    return SingleModeStability(
        stable=g < threshold, margin=threshold - g, threshold=threshold
    )


def stability_double(system: CoupledSystem, g: float) -> DoubleModeStability:
    """Coupled-system threshold: stable iff g < kappa_a*(1 + C0)/2.

    C0 = 4 J^2/(kappa_a kappa_b) is the cooperativity of the coupling.
    This is the zero-frequency divergence of the coupled static response;
    at the anticrossing the finite-frequency pair-oscillation threshold
    :func:`pair_threshold` can be lower and is then the binding one.
    """
    ka = system.mode_a.kappa
    kb = system.mode_b.kappa
    try:
        c0 = 4.0 * system.J**2 / (ka * kb)
    except OverflowError:
        c0 = math.inf
    threshold = ka * (1.0 + c0) / 2.0
    if not math.isfinite(threshold):
        raise NonPhysical(
            f"coupled-system threshold overflows: J={system.J:g} rad/s against "
            f"kappa_a={ka:g}, kappa_b={kb:g} rad/s"
        )
    return DoubleModeStability(
        stable=g < threshold, cooperativity=c0, threshold=threshold,
        margin=threshold - g,
    )


def _require_stable(stab, g: float) -> None:
    """Raise UnstableRegime when g is at or above the threshold of ``stab``
    (a SingleModeStability or DoubleModeStability): the closed forms then
    describe self-oscillation, not amplification."""
    if stab.stable:
        return
    where = ("oscillation threshold kappa/2=" if isinstance(stab, SingleModeStability)
             else "coupled-system threshold ")
    raise UnstableRegime(
        f"g={g:g} rad/s is at or above the {where}{stab.threshold:g} rad/s"
    )


def _require_no_pole(den, scale, w, what: str) -> None:
    """Raise PoleAtFrequency at the first grid point where the gain
    denominator vanishes relative to its scale."""
    pole = np.abs(den) <= _POLE_RTOL * scale
    if np.any(pole):
        raise PoleAtFrequency(f"{what} pole at omega={w[pole][0]:g} rad/s")


# ---------------------------------------------------------------------------
# Single-mode response
# ---------------------------------------------------------------------------

def susceptibility(
    res: ResonatorParams, g: float, phi_p: float, omega: float
) -> np.ndarray:
    """2x2 susceptibility matrix of the pumped mode at detuning zero.

    chi(omega) = [[-i w + k/2,  -i g e^{+i phi_p}],
                  [ i g e^{-i phi_p},  -i w + k/2]] / ((i w - k/2)^2 - g^2)

    Raises PoleAtFrequency if evaluated exactly on a real pole (only
    possible at omega = 0 when g = kappa/2).
    """
    k = res.kappa
    den = (1j * omega - k / 2.0) ** 2 - g**2
    scale = (k / 2.0) ** 2 + g**2 + omega**2
    if abs(den) <= _POLE_RTOL * scale:
        raise PoleAtFrequency(
            f"susceptibility pole at omega={omega:g} rad/s (g={g:g}, kappa={k:g})"
        )
    num = np.array(
        [
            [-1j * omega + k / 2.0, -1j * g * np.exp(1j * phi_p)],
            [1j * g * np.exp(-1j * phi_p), -1j * omega + k / 2.0],
        ],
        dtype=complex,
    )
    return num / den


def _single_mode_factors(kappa, eta, g, delta, phi_p, w):
    """Signal and idler gain factors of :func:`single_mode_gain` at ``w``.

    Every argument may be a scalar or an array; they broadcast, so one
    call evaluates many working points at once (one per element). Raises
    PoleAtFrequency at the first pole; stability is the caller's check.
    """
    den = delta**2 - g**2 + (1j * w - kappa / 2.0) ** 2
    scale = delta**2 + g**2 + (kappa / 2.0) ** 2 + w**2
    _require_no_pole(den, scale, w, "gain")
    signal = eta * kappa * (kappa / 2.0 - 1j * (w + delta)) / den - 1.0
    idler = -1j * eta * kappa * g * np.exp(1j * phi_p) / den
    return signal, idler


def single_mode_gain(
    res: ResonatorParams,
    g: float,
    delta: float,
    phi_p: float,
    omega_grid,
) -> tuple[ComplexSpectrum, ComplexSpectrum]:
    """Signal and idler gain factors of the single-mode amplifier.

    Parameters
    ----------
    res : ResonatorParams
        The pumped mode.
    g : float
        Parametric rate [rad/s].
    delta : float
        Detuning of the mode from half the pump frequency [rad/s].
    phi_p : float
        Pump phase [rad].
    omega_grid : array_like
        Frequency offsets from half the pump frequency [rad/s],
        strictly increasing.

    Returns
    -------
    (signal, idler) : tuple of ComplexSpectrum
        signal(w) = eta*k*(k/2 - i(w + delta)) / D(w) - 1
        idler(w)  = -i*eta*k*g*e^{i phi_p} / D(w)
        with D(w) = delta^2 - g^2 + (i w - k/2)^2.

    Raises
    ------
    UnstableRegime
        If g >= kappa/2: the pump is above the parametric-oscillation
        threshold and the closed forms describe self-oscillation,
        not amplification.
    """
    _require_stable(stability_single(res, g), g)
    w = np.asarray(omega_grid, dtype=float)
    signal, idler = _single_mode_factors(res.kappa, res.eta, g, delta, phi_p, w)
    return ComplexSpectrum(w, signal), ComplexSpectrum(w, idler)


def on_resonance_gain(res: ResonatorParams, g: float) -> float:
    """Degenerate on-resonance power gain, lossless (eta = 1) form:

    G = (2 / (1 - 4 (g/kappa)^2) - 1)^2

    Strictly increasing in g and divergent as g -> kappa/2.
    """
    _require_stable(stability_single(res, g), g)
    r2 = (g / res.kappa) ** 2
    return (2.0 / (1.0 - 4.0 * r2) - 1.0) ** 2


def phase_sensitive_gain(res: ResonatorParams, g: float, delta_phi):
    """Degenerate (signal on resonance, delta = omega = 0) gain versus the
    pump-probe phase difference:

        G(dphi) = |G_S(0) + G_I(0) e^{i dphi}|^2

    Interference between the signal and idler responses makes the gain
    2*pi-periodic with amplification/de-amplification extrema pi apart.
    Accepts a scalar or array of phase differences [rad].
    """
    _require_stable(stability_single(res, g), g)
    k = res.kappa
    den = (k / 2.0) ** 2 - g**2
    gs0 = res.eta * k * (k / 2.0) / den - 1.0
    gi0 = -1j * res.eta * k * g / den
    dphi = np.asarray(delta_phi, dtype=float)
    out = np.abs(gs0 + gi0 * np.exp(1j * dphi)) ** 2
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Double-mode response
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HybridModes:
    omega_plus: float   # upper collective-mode frequency [rad/s]
    omega_minus: float  # lower collective-mode frequency [rad/s]
    delta_ab: float     # (omega_a - omega_b)/2 [rad/s]


def hybridize(system: CoupledSystem, form: str = "as_printed") -> HybridModes:
    """Collective-mode frequencies of the coupled pair.

    form="as_printed" (default) uses

        omega_+- = (omega_a + omega_b)/2 +- sqrt(delta_ab^2/4 + J^2)

    with delta_ab = (omega_a - omega_b)/2. form="standard" uses the
    textbook two-mode diagonalization sqrt(delta_ab^2 + J^2); the two
    agree at the anticrossing (omega_a = omega_b), where the splitting
    is exactly 2J.
    """
    wa, wb = system.mode_a.omega0, system.mode_b.omega0
    delta_ab = (wa - wb) / 2.0
    if form == "as_printed":
        root = math.sqrt(delta_ab**2 / 4.0 + system.J**2)
    elif form == "standard":
        root = math.sqrt(delta_ab**2 + system.J**2)
    else:
        raise ValueError(f"unknown hybridization form {form!r}")
    center = (wa + wb) / 2.0
    return HybridModes(
        omega_plus=center + root, omega_minus=center - root, delta_ab=delta_ab
    )


def _hybrid_rates(system: CoupledSystem) -> tuple[float, float, float, float]:
    """Extrinsic/intrinsic rates of the 50/50 hybridized modes.

    At the anticrossing each collective mode carries half of each bare
    mode, so kappa_+-^(e/i) = (kappa_a^(e/i) + kappa_b^(e/i)) / 2 and the
    two collective modes share the same damping.
    """
    ke = (system.mode_a.kappa_e + system.mode_b.kappa_e) / 2.0
    ki = (system.mode_a.kappa_i + system.mode_b.kappa_i) / 2.0
    return ke, ki, ke, ki  # (plus_e, plus_i, minus_e, minus_i)


def pair_threshold(system: CoupledSystem) -> float:
    """Oscillation threshold of the non-degenerate collective-mode pair at
    the anticrossing, in bare pump-rate units [rad/s].

    The pair process carries half the bare parametric rate (the pumped
    mode is an equal superposition of the two collective modes), so the
    pair self-oscillates at g/2 = sqrt(kappa_+ kappa_-)/2, i.e.
    g = sqrt(kappa_+ kappa_-). At the anticrossing this finite-frequency
    threshold is the binding one whenever it lies below the
    zero-frequency bound of :func:`stability_double`.
    """
    kpe, kpi, kme, kmi = _hybrid_rates(system)
    return math.sqrt((kpe + kpi) * (kme + kmi))


@dataclass(frozen=True, eq=False)
class HybridGains:
    signal_plus: ComplexSpectrum
    idler_plus: ComplexSpectrum
    signal_minus: ComplexSpectrum
    idler_minus: ComplexSpectrum


def double_mode_gain_hybrid(
    system: CoupledSystem,
    g: float,
    delta: float,
    phi_p: float,
    omega_grid,
) -> HybridGains:
    """Gain factors of the hybridized (collective) modes at the anticrossing.

    ``g`` is the bare parametric rate of the pumped mode, the same
    quantity used by the single-mode and bare-mode gain functions. The
    pumped mode is an equal superposition of the two collective modes, so
    the pair (non-degenerate) process runs at q = g/2 and, for the upper
    mode (+) with Delta_pm = delta +- J,

        S_+(w) = eta_+ k_+ (k_-/2 - i(w + Delta_-)) / D_+(w) - 1
        I_+(w) = -i sqrt(eta_+ eta_-) sqrt(k_+ k_-) q e^{i phi_p} / D_+(w)
        D_+(w) = (i(w - Delta_+) - k_+/2)(i(w + Delta_-) - k_-/2) - q^2

    The lower mode (-) follows by swapping every +/- label, so the two
    responses peak near w = +J and w = -J (split by 2J for delta = 0).
    Emits an RWAViolation warning unless 2J > max(kappa_+, kappa_-, g);
    the counter-rotating terms dropped by this model scale as (kappa/2J)^2
    (the bare-mode forms in :func:`double_mode_gain_bare` keep them).
    """
    _require_stable(stability_double(system, g), g)
    kpe, kpi, kme, kmi = _hybrid_rates(system)
    kp, km = kpe + kpi, kme + kmi
    if not 2.0 * system.J > max(kp, km, g):
        warnings.warn(
            f"2J={2 * system.J:g} rad/s does not exceed "
            f"max(kappa_+, kappa_-, g)={max(kp, km, g):g} rad/s; "
            "hybridized-mode gains are unreliable here",
            RWAViolation,
            stacklevel=2,
        )
    eta_p, eta_m = kpe / kp, kme / km
    d_p, d_m = delta + system.J, delta - system.J
    w = np.asarray(omega_grid, dtype=float)
    phase = np.exp(1j * phi_p)
    q = g / 2.0  # pair-process rate seen by the 50/50 collective modes
    cross = math.sqrt(eta_p * eta_m * kp * km)

    out = []
    for k_self, k_other, eta_self, d_self, d_other in (
        (kp, km, eta_p, d_p, d_m),
        (km, kp, eta_m, d_m, d_p),
    ):
        den = (1j * (w - d_self) - k_self / 2.0) * (
            1j * (w + d_other) - k_other / 2.0
        ) - q**2
        scale = (k_self * k_other / 4.0 + q**2
                 + np.abs(w - d_self) * np.abs(w + d_other))
        _require_no_pole(den, scale, w, "hybrid gain")
        signal = eta_self * k_self * (k_other / 2.0 - 1j * (w + d_other)) / den - 1.0
        idler = -1j * cross * q * phase / den
        out.append((ComplexSpectrum(w, signal), ComplexSpectrum(w, idler)))
    return HybridGains(
        signal_plus=out[0][0], idler_plus=out[0][1],
        signal_minus=out[1][0], idler_minus=out[1][1],
    )


@dataclass(frozen=True, eq=False)
class BareGains:
    signal_a: ComplexSpectrum  # a_out <- a_e
    idler_a: ComplexSpectrum   # a_out <- b_e^dagger
    signal_b: ComplexSpectrum  # b_out <- b_e
    idler_b: ComplexSpectrum   # b_out <- a_e^dagger


def double_mode_gain_bare(
    system: CoupledSystem,
    g: float,
    delta_a: float,
    delta_b: float,
    phi_p: float,
    omega_grid,
) -> BareGains:
    """Exact bare-mode gain factors of the coupled pair (no RWA).

    Solves the coupled linear response with the parametric drive acting on
    mode a only. Writing, per mode, am = k_a/2 - i(w - delta_a),
    ap = k_a/2 - i(w + delta_a) and bm, bp likewise for mode b, the common
    denominator is

        D(w) = (am*bm + J^2)(ap*bp + J^2) - g^2 * bm * bp

    and

        S_a(w) =  k_ae * bm * (ap*bp + J^2) / D - 1
        I_a(w) =  g J e^{i phi_p} sqrt(k_ae k_be) * bm / D
        S_b(w) =  k_be * (am*(ap*bp + J^2) - g^2 * bp) / D - 1
        I_b(w) = -g J e^{i phi_p} sqrt(k_ae k_be) * bp / D

    At J = 0 the a-mode forms collapse exactly to the single-mode gain
    factors. The idlers couple each output to the other mode's conjugated
    input; the remaining (non-resonant) input channels are not part of
    these factors and are available from the full transfer-matrix solve.
    """
    _require_stable(stability_double(system, g), g)
    a, b = system.mode_a, system.mode_b
    w = np.asarray(omega_grid, dtype=float)
    gains = _bare_factors(a.kappa, b.kappa, a.kappa_e, b.kappa_e, system.J,
                          g, delta_a, delta_b, phi_p, w)
    return BareGains(*(ComplexSpectrum(w, values) for values in gains))


def _bare_kernel(kappa_a, kappa_b, J, g, delta_a, delta_b, w):
    """Per-mode factors and common denominator of the bare-mode gains at
    ``w``: (am, bm, bp, lower, upper, den), see
    :func:`double_mode_gain_bare`. Arguments broadcast like those of
    :func:`_single_mode_factors`."""
    am = kappa_a / 2.0 - 1j * (w - delta_a)
    ap = kappa_a / 2.0 - 1j * (w + delta_a)
    bm = kappa_b / 2.0 - 1j * (w - delta_b)
    bp = kappa_b / 2.0 - 1j * (w + delta_b)
    upper = ap * bp + J**2
    lower = am * bm + J**2
    den = lower * upper - g**2 * bm * bp
    return am, bm, bp, lower, upper, den


def _bare_factors(kappa_a, kappa_b, kappa_ae, kappa_be, J, g, delta_a,
                  delta_b, phi_p, w):
    """(signal_a, idler_a, signal_b, idler_b) of
    :func:`double_mode_gain_bare` at ``w``; arguments broadcast. Raises
    PoleAtFrequency at the first pole; stability is the caller's check."""
    am, bm, bp, lower, upper, den = _bare_kernel(kappa_a, kappa_b, J, g,
                                                 delta_a, delta_b, w)
    scale = np.abs(lower) * np.abs(upper) + g**2 * np.abs(bm) * np.abs(bp)
    _require_no_pole(den, scale, w, "bare gain")
    cross = g * J * np.exp(1j * phi_p) * np.sqrt(kappa_ae * kappa_be)
    signal_a = kappa_ae * bm * upper / den - 1.0
    idler_a = cross * bm / den
    signal_b = kappa_be * (am * upper - g**2 * bp) / den - 1.0
    idler_b = -cross * bp / den
    return signal_a, idler_a, signal_b, idler_b


def bare_drift(system: CoupledSystem, g: float, delta_a=0.0, delta_b=0.0,
               phi_p: float = 0.0) -> np.ndarray:
    """Drift matrix of the bare coupled pair, state [a, b, a+, b+]; the
    parametric drive acts on mode a only.

    The linear equations of motion are dx/dt = drift @ x + inputs. The
    pump sweep classifies stability by its eigenvalues and the
    transfer-matrix oracle (:func:`kipa.oracle.double_mode_matrices`)
    solves with it; gain evaluation goes through the closed forms above.
    The detunings may be numpy arrays; they broadcast, and the result
    stacks one 4x4 matrix per element (shape ``(..., 4, 4)``).
    """
    a, b = system.mode_a, system.mode_b
    J = system.J
    gp = 1j * g * cmath.exp(1j * phi_p)  # a-row coupling is -gp, a+-row is +conj(-gp)
    rows = [
        [-(1j * delta_a + a.kappa / 2.0), -1j * J, -gp, 0.0],
        [-1j * J, -(1j * delta_b + b.kappa / 2.0), 0.0, 0.0],
        [-np.conj(gp), 0.0, 1j * delta_a - a.kappa / 2.0, 1j * J],
        [0.0, 0.0, 1j * J, 1j * delta_b - b.kappa / 2.0],
    ]
    if not isinstance(delta_a, np.ndarray) and not isinstance(delta_b, np.ndarray):
        return np.array(rows, dtype=complex)  # one matrix, ~3x faster than below
    shape = np.broadcast_shapes(np.shape(delta_a), np.shape(delta_b))
    entries = [[np.broadcast_to(v, shape) for v in row] for row in rows]
    return np.moveaxis(np.array(entries, dtype=complex), (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# Pump-frequency regime map
# ---------------------------------------------------------------------------

def _left_bases(values: np.ndarray) -> np.ndarray:
    """For each sample, the minimum from it back to the nearest strictly
    higher sample (or to the start). NaN is neither a base nor higher."""
    bases = array("d")
    # monotone stack: heights strictly decrease, each with the minimum of
    # the stretch of samples it stands for
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


def find_peaks_db(values_db, prominence_db: float = 3.0) -> list[int]:
    """Indices of local maxima with at least the given dB prominence.

    A run of equal samples that rises on the left and falls on the right
    counts as one peak at its midpoint (symmetric grids with an even
    point count sample a resonance top as such a plateau). Prominence is
    the height above the higher of the two base levels, where each base
    is the minimum between the peak and the nearest higher sample (or
    the grid edge). Runs in linear time; on finite values it returns the
    indices of ``scipy.signal.find_peaks(values_db, prominence=...)[0]``.
    """
    y = np.asarray(values_db, dtype=float)
    # runs of equal samples [start, end] short of the last sample; a peak
    # run rises in from the left and falls (or meets a NaN) on the right
    ends = np.flatnonzero(y[1:] != y[:-1])
    starts = np.concatenate(([0], ends + 1))[:-1]
    peak = (starts > 0) & (y[starts] > y[starts - 1]) & ~(y[ends + 1] >= y[ends])
    starts, ends = starts[peak], ends[peak]
    left = _left_bases(y)
    right = _left_bases(y[::-1])[::-1]
    keep = y[starts] - np.maximum(left[starts], right[ends]) >= prominence_db
    return ((starts[keep] + ends[keep]) // 2).tolist()


def _refined_peak_height(y_db):
    """Maximum of a sampled curve with parabolic refinement through the
    three points around the discrete peak; removes the sampling ripple a
    sharp resonance leaves on a sweep of peak heights.

    The discrete peak is the first maximum (``np.argmax``); at a grid edge,
    next to a non-finite sample or where the three points are not concave
    the sample itself is returned. Works along the last axis of ``y_db``:
    a 1-D curve gives a float, a stack of curves an array.
    """
    y = np.asarray(y_db, dtype=float)
    rows = y.reshape(-1, y.shape[-1])
    n = rows.shape[1]
    r = np.arange(len(rows))
    i = np.argmax(rows, axis=1)
    y0, y1, y2 = (rows[r, np.clip(i + k, 0, n - 1)] for k in (-1, 0, 1))
    out = y1.copy()
    fit = np.flatnonzero((i > 0) & (i < n - 1) & np.isfinite(y0)
                         & np.isfinite(y1) & np.isfinite(y2))
    curvature = y0[fit] - 2.0 * y1[fit] + y2[fit]
    concave = curvature < 0.0
    top = fit[concave]
    # squared on Python floats (libm pow, like a numpy float64 scalar);
    # numpy's array square can round the last bit the other way
    spread = np.array([d ** 2 for d in (y0[top] - y2[top]).tolist()])
    out[top] = y1[top] - spread / (8.0 * curvature[concave])
    out = out.reshape(y.shape[:-1])
    return float(out) if out.ndim == 0 else out


# Internal frequency grid of each pump point, and the coarse-to-fine search
# over it (see pump_regime_map). The stride divides the 2000 grid steps, so
# the cells cover the whole grid with both ends on coarse points.
_MAP_POINTS = 2001
_COARSE_STRIDE = 25
_PUMP_BLOCK = 32       # pump points per block: temporaries of ~1.5 MB stay in L2
_SKIP_RTOL = 1e-9      # margin of a skipped cell below the best coarse sample
_POLE_TOL = 1e-6       # pole position error, relative to |delta| + J + kappa + g
_RESIDUE_PAD = 1e-3    # relative padding of each residue's magnitude
_PARTIAL_RTOL = 1e-6   # partial fractions vs exact response at the coarse points


def _signal_a(kappa_a, kappa_b, kappa_ae, J, g, delta, w):
    """(|S_a|^2, S_a + 1) of the bare a-mode signal gain at the common
    detuning ``delta``; arguments broadcast."""
    _, bm, _, _, upper, den = _bare_kernel(kappa_a, kappa_b, J, g, delta, delta, w)
    response = kappa_ae * bm * upper / den
    return np.abs(response - 1.0) ** 2, response


def _grid_peaks(rates, deltas, poles, w):
    """Grid index of the first maximum of |S_a|^2 in dB over ``w`` for
    each detuning in ``deltas`` (one pump point each, with the response
    poles ``poles``, shape (n, 4)), evaluating only the cells that the
    certificate of :func:`pump_regime_map` cannot rule out."""
    kappa_a, kappa_b, kappa_ae, J, g = rates
    step = _COARSE_STRIDE
    delta = deltas[:, None]

    # exact samples at the cell ends, and the partial fractions
    # S_a + 1 = sum_k r_k / (w - p_k) of the proper rational response
    ends = w[::step]
    y_ends, f_ends = _signal_a(kappa_a, kappa_b, kappa_ae, J, g, delta, ends)
    _, bm, _, _, upper, _ = _bare_kernel(kappa_a, kappa_b, J, g, delta, delta, poles)
    gaps = poles[:, :, None] - poles[:, None, :]
    gaps[:, range(4), range(4)] = 1.0
    tol = _POLE_TOL * (np.abs(deltas) + J + max(kappa_a, kappa_b) + g)
    lo, hi = ends[:-1], ends[1:]
    partial = f0 = f1 = f2 = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        residues = kappa_ae * bm * upper / gaps.prod(axis=2)
        weights = np.abs(residues) * (1.0 + _RESIDUE_PAD)
        for k in range(4):
            p = poles[:, k, None]
            partial = partial + residues[:, k, None] / (ends - p)
            # bounds of |f|, |f'| and |f''|/2 on each cell from the
            # pole's distance to it, less the tolerance
            outside = np.maximum(np.maximum(lo - p.real, p.real - hi), 0.0)
            dist = np.sqrt(outside**2 + p.imag**2) - tol[:, None]
            inv = np.where(dist > 0.0, 1.0 / dist, np.inf)
            term = weights[:, k, None] * inv
            f0 = f0 + term
            term *= inv
            f1 = f1 + term
            term *= inv
            f2 = f2 + term
        exact = (np.max(np.abs(partial - f_ends), axis=1)
                 <= _PARTIAL_RTOL * np.max(np.abs(f_ends), axis=1))
        # y = |f - 1|^2 has y'' = 2|f'|^2 + 2 Re(f'' conj(f - 1))
        bound = (np.maximum(y_ends[:, :-1], y_ends[:, 1:])
                 + (hi - lo) ** 2 / 8.0 * (2.0 * f1**2 + 4.0 * f2 * (f0 + 1.0)))
        best = y_ends.max(axis=1)
        floor = np.where(exact & np.isfinite(best), (1.0 - _SKIP_RTOL) * best, -np.inf)
    keep = ~(bound < floor[:, None])  # a NaN bound keeps its cell

    # evaluate the kept cells; first maximum of each cell, then of each
    # pump point's cells in grid order (ties keep np.argmax's first index)
    rows, cells = np.nonzero(keep)
    idx = cells[:, None] * step + np.arange(step + 1)
    y_db = power_db(_signal_a(kappa_a, kappa_b, kappa_ae, J, g, delta[rows], w[idx])[0])
    at = np.argmax(y_db, axis=1)
    counts = np.bincount(rows, minlength=len(deltas))
    starts = np.cumsum(counts) - counts
    table = np.full((len(deltas), counts.max()), -np.inf)
    table[rows, np.arange(len(rows)) - starts[rows]] = y_db[np.arange(len(rows)), at]
    best_row = starts + np.argmax(table, axis=1)
    return idx[best_row, at[best_row]]


@dataclass(frozen=True, eq=False)
class RegimeMap:
    """Pump frequencies maximizing gain in the three amplification regimes.

    single_minus / single_plus: degenerate amplification of the lower /
    upper collective mode (pump near 2*Omega -+ 2J); double: non-degenerate
    pair amplification (pump near omega_a + omega_b). Values are absolute
    pump angular frequencies [rad/s]; None when a regime is not resolved
    on the grid.
    """

    single_minus: float | None
    double: float | None
    single_plus: float | None
    outer_separation: float | None
    pump_freqs: np.ndarray
    peak_gains_db: np.ndarray


def pump_regime_map(
    system: CoupledSystem, g: float, pump_grid, prominence_db: float = 3.0
) -> RegimeMap:
    """Sweep the pump frequency across the anticrossing and locate the
    three amplification regimes.

    For each pump frequency the bare-mode response is evaluated at the
    common detuning delta = Omega - omega_p/2 and the peak of the a-mode
    signal gain over an internal 2001-point frequency grid is recorded
    (the grid maximum in dB, refined by a parabola through it and its two
    neighbours); pump points where the coupled system self-oscillates
    (drift eigenvalue with non-negative real part) are skipped. Local
    maxima of the resulting sweep with at least ``prominence_db``
    prominence are classified by their detuning as the lower single-mode,
    double-mode and upper single-mode regimes.

    The grid maximum is found coarse to fine, and the peak heights equal
    those of a full-grid evaluation bit for bit. With p_k = i*lambda_k
    (lambda_k the drift eigenvalues) the response is the proper rational
    function f = S_a + 1 = sum_k r_k/(w - p_k). On a cell of width h
    between two coarse samples, with d_k the distance from p_k to the cell
    (less a tolerance), F0 = sum |r_k|/d_k bounds |f|, F1 = sum |r_k|/d_k^2
    bounds |f'| and F2 = 2 sum |r_k|/d_k^3 bounds |f''|, so

        max |S_a|^2 <= max(ends) + h^2/8 * (2 F1^2 + 2 F2 (F0 + 1))

    on the cell (|S_a|^2 at the coarse samples is exact). A cell whose
    bound is below (1 - 1e-9) times the best coarse sample cannot hold
    the grid maximum and is not evaluated; every other cell is, including
    one whose bound is not finite. A pump point whose partial fractions
    miss the exact coarse samples by more than 1e-6 relative, or whose
    best coarse sample is not finite, keeps all of its cells.

    Requires the system to be at the anticrossing (omega_a = omega_b to
    within J/100).
    """
    if not system.J > 0:
        raise ValueError("pump_regime_map requires a coupled pair (J > 0)")
    wa, wb = system.mode_a.omega0, system.mode_b.omega0
    if abs(wa - wb) > system.J / 100.0:
        raise ValueError(
            "pump_regime_map requires the modes at the anticrossing "
            f"(|omega_a - omega_b|={abs(wa - wb):g} rad/s exceeds J/100)"
        )
    stability_double(system, g)  # NonPhysical when the coupling overflows
    omega_c = (wa + wb) / 2.0
    J = system.J
    kmax = max(system.mode_a.kappa, system.mode_b.kappa)
    half_span = J + 4.0 * kmax + 2.0 * g
    w_grid = np.linspace(-half_span, half_span, _MAP_POINTS)

    pump = np.asarray(pump_grid, dtype=float)
    if len(pump) == 0:
        raise ValueError("pump_regime_map requires a non-empty pump grid")
    deltas = omega_c - pump / 2.0
    eigs = np.linalg.eigvals(bare_drift(system, g, deltas, deltas))
    stable = np.flatnonzero(~(eigs.real.max(axis=-1) >= 0.0))  # skip self-oscillation
    rates = (system.mode_a.kappa, system.mode_b.kappa, system.mode_a.kappa_e, J, g)
    peak = np.empty(len(stable), dtype=int)
    for b in range(0, len(stable), _PUMP_BLOCK):
        i = stable[b:b + _PUMP_BLOCK]
        peak[b:b + _PUMP_BLOCK] = _grid_peaks(rates, deltas[i], 1j * eigs[i], w_grid)
    # refine through the peak and its grid neighbours, -inf beyond the ends
    near = peak[:, None] + np.arange(-1, 2)
    inside = (near >= 0) & (near < len(w_grid))
    window = np.full(near.shape, -np.inf)
    window[inside] = power_db(_signal_a(
        *rates, np.broadcast_to(deltas[stable, None], near.shape)[inside],
        w_grid[near[inside]])[0])
    peak_db = np.full(len(pump), np.nan)
    peak_db[stable] = _refined_peak_height(window)

    finite = np.isfinite(peak_db)
    if not finite.any():
        raise UnstableRegime("system self-oscillates over the whole pump grid")
    filled = np.where(finite, peak_db, np.min(peak_db[finite]))
    peaks = find_peaks_db(filled, prominence_db)

    # classify each peak by its detuning: delta ~ +J, 0, -J
    targets = {"single_minus": J, "double": 0.0, "single_plus": -J}
    best: dict[str, tuple[float, float]] = {}  # label -> (gain_db, pump freq)
    for idx in peaks:
        delta = omega_c - pump[idx] / 2.0
        label = min(targets, key=lambda key: abs(delta - targets[key]))
        if label not in best or filled[idx] > best[label][0]:
            best[label] = (float(filled[idx]), float(pump[idx]))
    found = {label: freq for label, (_, freq) in best.items()}
    sep = None
    if "single_minus" in found and "single_plus" in found:
        sep = abs(found["single_plus"] - found["single_minus"])
    return RegimeMap(
        single_minus=found.get("single_minus"),
        double=found.get("double"),
        single_plus=found.get("single_plus"),
        outer_separation=sep,
        pump_freqs=pump,
        peak_gains_db=peak_db,
    )


# ---------------------------------------------------------------------------
# Gain-bandwidth product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainBandwidth:
    peak_gain_db: float  # fitted peak power gain [dB]
    bandwidth_hz: float  # full width at half maximum of linear gain [Hz]
    gbp_hz: float        # sqrt(linear peak gain) * bandwidth [Hz]


def gain_bandwidth_product(spectrum: ComplexSpectrum) -> GainBandwidth:
    """Gain-bandwidth product of a single-peaked gain spectrum.

    The linear power gain is fitted to a Lorentzian line shape
    (:func:`kipa.calfit.fit_lorentzian`); the bandwidth is its FWHM and
    GBP = sqrt(G_peak) * BW. Near threshold the GBP approaches
    eta*kappa/(2*pi) in Hz. Raises NoPeak when the grid does not resolve
    a single dominant peak (e.g. pump off).
    """
    from . import calfit  # deferred: calfit builds its models on this module

    trace = Trace(
        x=angular_to_hz(spectrum.freqs), y=spectrum.power_db, kind="gain_db"
    )
    fit = calfit.fit_lorentzian(trace)
    peak_lin = fit.params["peak_lin"]
    bw = fit.params["fwhm_hz"]
    return GainBandwidth(
        peak_gain_db=float(power_db(peak_lin)),
        bandwidth_hz=bw,
        gbp_hz=math.sqrt(peak_lin) * bw,
    )
