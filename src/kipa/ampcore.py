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
from .errors import finite_or_nonphysical as _finite
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
_TINY = float(np.finfo(float).tiny)  # smallest normal double


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
    return _finite(lambda: -(omega0 / 2.0) * (I_dc / I_star) ** 2,
                   f"bias shift overflows: I_dc={I_dc:g} A against I_star={I_star:g} A")


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
    return _finite(lambda: abs(pump.I_dc * i_p * omega0 / (4.0 * film.I_star**2)),
                   f"pump rate overflows: I_dc={pump.I_dc:g} A and I_p={i_p:g} A "
                   f"against I_star={film.I_star:g} A")


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleModeStability:
    stable: bool
    margin: float     # threshold - |g| [rad/s]
    threshold: float  # kappa/2 [rad/s]


@dataclass(frozen=True)
class DoubleModeStability:
    stable: bool
    cooperativity: float  # C0 = 4 J^2 / (kappa_a * kappa_b)
    threshold: float      # min(kappa_a (1 + C0), kappa_a + kappa_b) / 2 [rad/s]
    margin: float         # threshold - |g| [rad/s]


def stability_single(res: ResonatorParams, g: float) -> SingleModeStability:
    """Single-mode oscillation threshold: stable iff |g| < kappa/2 (the
    physics depends on g^2, so a negative rate is as strong a pump)."""
    return _single_stability(res.kappa, g)


def _single_stability(kappa, g) -> SingleModeStability:
    """:func:`stability_single` at rate level; arguments broadcast."""
    threshold = kappa / 2.0
    return SingleModeStability(
        stable=abs(g) < threshold, margin=threshold - abs(g), threshold=threshold
    )


def stability_double(system: CoupledSystem, g: float) -> DoubleModeStability:
    """Oscillation threshold of the coupled pair: ``stable`` is
    |g| < min(kappa_a (1 + C0), kappa_a + kappa_b)/2.

    C0 = 4 J^2/(kappa_a kappa_b) is the cooperativity of the coupling. At
    zero detunings the denominator of :func:`double_mode_gain_bare`
    factors as [(A - g)B + J^2][(A + g)B + J^2], A = kappa_a/2 - iw,
    B = kappa_b/2 - iw, and the Routh-Hurwitz conditions on the first
    factor are the two bounds: the zero-frequency divergence
    kappa_a (1 + C0)/2 and the finite-frequency pair bound
    :func:`pair_threshold`. Below their minimum no eigenvalue of
    :func:`bare_drift` at zero detunings grows; at or above it, one does.
    Detuned working points may self-oscillate below it (the regime map
    decides those from its poles).
    """
    a, b = system.mode_a, system.mode_b
    stab = _double_stability(a.kappa_e, a.kappa_i, b.kappa_e, b.kappa_i, system.J, g)
    return DoubleModeStability(**{name: v.item() if np.ndim(v) == 0 else v
                                  for name, v in vars(stab).items()})


def _double_stability(kappa_ae, kappa_ai, kappa_be, kappa_bi, J, g) -> DoubleModeStability:
    """:func:`stability_double` at rate level, with numpy fields; arguments
    broadcast. Raises NonPhysical where C0 or its bound overflows."""
    kappa_a, kappa_b = kappa_ae + kappa_ai, kappa_be + kappa_bi

    def overflow(values):
        bad = np.flatnonzero(~np.isfinite(values[1]))[0]
        j, ka, kb = (v.flat[bad] for v in np.broadcast_arrays(J, kappa_a, kappa_b))
        return (f"coupled-system threshold overflows: J={j:g} rad/s against "
                f"kappa_a={ka:g}, kappa_b={kb:g} rad/s")

    def c0_bound():
        square, product = 4.0 * _squares(J), kappa_a * kappa_b
        # past an overflowing product C0 may still be representable
        c0 = np.where(np.isfinite(product), square / product, square / kappa_a / kappa_b)
        return c0, kappa_a * (1.0 + c0) / 2.0

    c0, bound = _finite(c0_bound, overflow)
    threshold = np.minimum(bound, _pair_threshold(kappa_ae, kappa_ai, kappa_be, kappa_bi))
    return DoubleModeStability(
        stable=abs(g) < threshold, cooperativity=c0, threshold=threshold,
        margin=threshold - abs(g),
    )


def _squares(x) -> np.ndarray:
    """x**2 per element as Python squares a float, by libm pow (numpy's
    array square can round the last bit the other way). From |x| = 1e154
    on it multiplies instead: pow raises OverflowError past ~1.34e154,
    where x*x is inf."""
    squares = [v**2 if abs(v) < 1e154 else v * v for v in np.ravel(x).tolist()]
    return np.array(squares).reshape(np.shape(x))


def _require_stable(stab, g) -> None:
    """Raise UnstableRegime at the first working point where |g| is at or
    above the threshold of ``stab`` (a SingleModeStability or
    DoubleModeStability, for one working point or arrays of them; a true
    scalar ``stab.stable`` returns at once, else only the threshold is
    read): the closed forms then describe self-oscillation."""
    if stab.stable is True or stab.stable is np.True_:  # the fits' hot path
        return
    bad = np.flatnonzero(np.logical_not(abs(g) < stab.threshold))
    if not len(bad):
        return
    g, threshold = (v.flat[bad[0]] for v in np.broadcast_arrays(g, stab.threshold))
    where = ("oscillation threshold kappa/2=" if isinstance(stab, SingleModeStability)
             else "coupled-system threshold ")
    raise UnstableRegime(
        f"g={g:g} rad/s is at or above the {where}{threshold:g} rad/s"
    )


def _overflows(what: str, **rates) -> str:
    """'<what> overflows (<name> up to <max |rate|> rad/s)', naming the
    largest of ``rates``, each a scalar or an array."""
    size = {name: np.max(np.abs(rate)) for name, rate in rates.items()}
    name = max(size, key=size.get)
    return f"{what} overflows ({name} up to {size[name]:g} rad/s)"


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
                  [ i g e^{-i phi_p},  -i w + k/2]] / D(omega)

    with D and its refusals from :func:`_single_mode_signal` at eta = 1,
    delta = 0: NonPhysical where D overflows or underflows, and
    PoleAtFrequency on a real pole (only at omega = 0 when g = kappa/2).
    """
    k = res.kappa
    _, (den,) = _single_mode_signal(k, 1.0, g, 0.0, _grid_terms([omega]))
    num = np.array(
        [
            [-1j * omega + k / 2.0, -1j * g * np.exp(1j * phi_p)],
            [1j * g * np.exp(-1j * phi_p), -1j * omega + k / 2.0],
        ],
        dtype=complex,
    )
    return num / den


def _single_mode_factors(kappa, eta, g, delta, phi_p, grid):
    """Signal and idler gain factors of :func:`single_mode_gain` on the
    offsets of ``grid`` (from :func:`_grid_terms`).

    Every rate may be a scalar or an array; they broadcast with the
    offsets, so one call evaluates many working points at once (one per
    element). Raises NonPhysical or PoleAtFrequency as
    :func:`_single_mode_signal` does; stability is the caller's check.
    """
    signal, den = _single_mode_signal(kappa, eta, g, delta, grid)
    return signal, _single_mode_idler(kappa, eta, g, phi_p, den)


def _grid_terms(w):
    """(w, i*w, max w**2): the terms of :func:`_single_mode_signal` that
    depend only on the offsets ``w`` [rad/s], built once per grid. Max
    w**2 is 0 on an empty grid; i*w is None where max w**2 is not finite,
    and the kernel then raises before it needs i*w."""
    w = np.asarray(w, dtype=float)
    w_max = float(np.max(np.abs(w), initial=0.0))
    w2_max = w_max * w_max  # a Python float: inf, no warning
    return w, 1j * w if math.isfinite(w2_max) else None, w2_max


def _single_mode_signal(kappa, eta, g, delta, grid):
    """(signal, D): the signal gain factor of :func:`single_mode_gain` on
    the offsets of ``grid`` (from :func:`_grid_terms`) and its denominator
    D(w); arguments broadcast. Raises NonPhysical where D, its scale or
    the numerator overflows, naming the largest rate, or (for scalar rates)
    where (kappa/2)**2 underflows below the smallest normal double, and
    PoleAtFrequency at the first pole; stability is the caller's check.

    The scale of D at w is delta**2 + g**2 + kappa**2/4 + w**2, and
    |D| <= scale. The numerator eta*kappa*(kappa/2 - i(w + delta)), eta <= 1,
    has |re| + |im| <= kappa (kappa/2 + |delta| + |w|), which also bounds
    complex division's intermediates. For scalar rates these two bounds at
    max |w| decide the overflow: if both are finite, no array operation
    here can overflow. A sample is a pole where |D| <= 1e-12 scale. For
    |g| < kappa/2 and any real w and delta, |D(w)| >= kappa**2/4 - g**2,
    because the roots of D lie at -i(kappa/2 +- sqrt(g**2 - delta**2)) or
    have imaginary part -kappa/2. So the per-sample scan runs only where
    kappa**2/4 - g**2 <= 4e-12 bound: near threshold (or above it), and
    always for array rates, as the oracle passes.
    """
    w, iw, w2_max = grid
    scalar = not (getattr(kappa, "ndim", 0) or getattr(g, "ndim", 0)
                  or getattr(delta, "ndim", 0))
    try:
        if scalar:  # Python float ** raises OverflowError where numpy gives inf
            k, d = float(kappa), float(delta)
            g2, k2 = float(g) ** 2, (k / 2.0) ** 2
            if k2 < _TINY:  # D is not resolved below the smallest normal double
                raise NonPhysical(f"gain denominator underflows (kappa down to {abs(k):g} rad/s)")
            rates = d**2 + g2 + k2
            numerator = k * (k / 2.0 + abs(d) + math.sqrt(w2_max))
            finite = math.isfinite(rates + w2_max) and math.isfinite(numerator)
        else:  # one scale and one numerator bound per sample
            with np.errstate(over="ignore", invalid="ignore"):
                scale = delta**2 + g**2 + (kappa / 2.0) ** 2 + w**2
                numerator = kappa * (kappa / 2.0 + abs(delta) + abs(w))
            finite = np.isfinite(scale).all() and np.isfinite(numerator).all()
    except OverflowError:
        finite = False
    if not finite:
        raise NonPhysical(_overflows("gain denominator", kappa=kappa, g=g, delta=delta,
                                     omega=w))
    den = delta**2 - g**2 + (iw - kappa / 2.0) ** 2
    # the absolute 1e-300 keeps the scan where squares are subnormal and
    # round by more than their relative error
    if not (scalar and k2 - g2 > 4.0 * _POLE_RTOL * (rates + w2_max) + 1e-300):
        _require_no_pole(den, rates + w**2 if scalar else scale, w, "gain")
    # i(w + delta) at delta = 0 is i*w up to the sign of a zero real part,
    # which kappa/2 - i(w + delta) drops: the cached i*w gives the same bits
    shifted = iw if scalar and delta == 0 else 1j * (w + delta)
    return eta * kappa * (kappa / 2.0 - shifted) / den - 1.0, den


def _single_mode_idler(kappa, eta, g, phi_p, den):
    """Idler gain factor of :func:`single_mode_gain` from the denominator
    ``den`` of :func:`_single_mode_signal`; arguments broadcast."""
    return -1j * eta * kappa * g * np.exp(1j * phi_p) / den


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
        If |g| >= kappa/2: the pump is above the parametric-oscillation
        threshold and the closed forms describe self-oscillation,
        not amplification.
    NonPhysical
        If D(w) overflows a double.
    """
    _require_stable(stability_single(res, g), g)
    grid = _grid_terms(omega_grid)
    signal, idler = _single_mode_factors(res.kappa, res.eta, g, delta, phi_p, grid)
    return ComplexSpectrum(grid[0], signal), ComplexSpectrum(grid[0], idler)


def on_resonance_gain(res: ResonatorParams, g: float) -> float:
    """Degenerate on-resonance power gain in the lossless limit: |signal(0)|^2
    from :func:`_single_mode_signal` at eta = 1, delta = 0, with its
    refusals. Strictly increasing in |g| and divergent as |g| -> kappa/2.
    """
    _require_stable(stability_single(res, g), g)
    (signal,), _ = _single_mode_signal(res.kappa, 1.0, g, 0.0, _grid_terms([0.0]))
    return float(abs(signal) ** 2)


def phase_sensitive_gain(res: ResonatorParams, g: float, delta_phi):
    """Degenerate (signal on resonance, delta = omega = 0) gain versus the
    pump-probe phase difference:

        G(dphi) = |S(0) + I(0) e^{i dphi}|^2

    with S(0), I(0) the signal and idler of :func:`single_mode_gain` at
    delta = phi_p = 0, which raises as it does. Interference between the
    signal and idler responses makes the gain 2*pi-periodic with
    amplification/de-amplification extrema pi apart. Accepts a scalar or
    array of phase differences [rad].
    """
    signal, idler = single_mode_gain(res, g, 0.0, 0.0, [0.0])
    dphi = np.asarray(delta_phi, dtype=float)
    out = np.abs(signal.values[0] + idler.values[0] * np.exp(1j * dphi)) ** 2
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


def _hybrid_rates(kappa_ae, kappa_ai, kappa_be, kappa_bi):
    """Extrinsic/intrinsic rates of the 50/50 hybridized modes from those
    of the bare modes; arguments broadcast.

    At the anticrossing each collective mode carries half of each bare
    mode, so kappa_+-^(e/i) = (kappa_a^(e/i) + kappa_b^(e/i)) / 2 and the
    two collective modes share the same damping.
    """
    ke = (kappa_ae + kappa_be) / 2.0
    ki = (kappa_ai + kappa_bi) / 2.0
    return ke, ki, ke, ki  # (plus_e, plus_i, minus_e, minus_i)


def pair_threshold(system: CoupledSystem) -> float:
    """Pair bound of the coupled-pair threshold, in bare pump-rate units
    [rad/s]: g = (kappa_a + kappa_b)/2 = sqrt(kappa_+ kappa_-).

    The pair process carries half the bare parametric rate (the pumped
    mode is an equal superposition of the two collective modes, whose
    damping kappa_+ = kappa_- is the mean of the bare ones), so the pair
    self-oscillates at g/2 = sqrt(kappa_+ kappa_-)/2. This finite-frequency
    bound binds in :func:`stability_double` whenever it lies below the
    zero-frequency bound kappa_a (1 + C0)/2.
    """
    a, b = system.mode_a, system.mode_b
    return float(_pair_threshold(a.kappa_e, a.kappa_i, b.kappa_e, b.kappa_i))


def _pair_threshold(kappa_ae, kappa_ai, kappa_be, kappa_bi):
    """:func:`pair_threshold` at rate level; arguments broadcast. As
    kappa_+ = kappa_-, kappa_+ is sqrt(kappa_+ kappa_-) to the bit, and it
    stays finite where the product would overflow."""
    kpe, kpi, _, _ = _hybrid_rates(kappa_ae, kappa_ai, kappa_be, kappa_bi)
    return kpe + kpi


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
    a, b = system.mode_a, system.mode_b
    kpe, kpi, kme, kmi = _hybrid_rates(a.kappa_e, a.kappa_i, b.kappa_e, b.kappa_i)
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
    NonPhysical where the denominator or its scale overflows, and
    PoleAtFrequency at the first pole; stability is the caller's check."""
    def kernel():
        am, bm, bp, lower, upper, den = _bare_kernel(kappa_a, kappa_b, J, g,
                                                     delta_a, delta_b, w)
        scale = np.abs(lower) * np.abs(upper) + g**2 * np.abs(bm) * np.abs(bp)
        return am, bm, bp, upper, den, scale

    # a non-finite am, bm, bp or upper makes den or scale non-finite too
    am, bm, bp, upper, den, scale = _finite(kernel, lambda _: _overflows(
        "bare gain denominator", kappa_a=kappa_a, kappa_b=kappa_b, J=J, g=g,
        delta_a=delta_a, delta_b=delta_b, omega=w))
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
    return _pair_drift(a.kappa, b.kappa, system.J, g, delta_a, delta_b, phi_p)


def _pair_drift(kappa_a, kappa_b, J, g, delta_a, delta_b, phi_p) -> np.ndarray:
    """:func:`bare_drift` at rate level; every argument may be an array,
    they broadcast, and the result has shape ``(..., 4, 4)``."""
    shape = np.broadcast_shapes(*map(np.shape, (kappa_a, kappa_b, J, g, delta_a,
                                                 delta_b, phi_p)))
    # a-row coupling is -gp, a+-row is +conj(-gp); formed on Python complex
    # numbers, as numpy's exp does not match cmath.exp bit for bit
    g, phi_p = np.broadcast_arrays(g, phi_p)
    gp = np.array([1j * x * cmath.exp(1j * p)
                   for x, p in zip(g.ravel().tolist(), phi_p.ravel().tolist())],
                  dtype=complex).reshape(g.shape)
    drift = np.zeros(shape + (4, 4), dtype=complex)
    drift[..., 0, 0] = -(1j * delta_a + kappa_a / 2.0)
    drift[..., 0, 1] = drift[..., 1, 0] = -1j * J
    drift[..., 0, 2] = -gp
    drift[..., 1, 1] = -(1j * delta_b + kappa_b / 2.0)
    drift[..., 2, 0] = -np.conj(gp)
    drift[..., 2, 2] = 1j * delta_a - kappa_a / 2.0
    drift[..., 2, 3] = drift[..., 3, 2] = 1j * J
    drift[..., 3, 3] = 1j * delta_b - kappa_b / 2.0
    return drift


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
    the grid edge). On finite values it returns the indices of
    ``scipy.signal.find_peaks(values_db, prominence=...)[0]``.

    Only the turning points take part: both grid ends, NaNs and their
    neighbours, and every sample not strictly between its two
    neighbours. A sample on a strictly monotone slope changes no peak
    and no base: it sits inside no run of equal samples, it has a lower
    neighbour, so it is no minimum, and the top of its hill, a turning
    point, is higher still. So the run search and the monotone stack of
    :func:`_left_bases` see a handful of a smooth curve's samples; a
    zigzag keeps all of them, and the run time stays linear.
    """
    y = np.asarray(values_db, dtype=float)
    # NaN compares false, so NaNs and their neighbours stay turning points
    before, mid, after = y[:-2], y[1:-1], y[2:]
    slope = np.zeros(len(y), dtype=bool)
    slope[1:-1] = ((before < mid) & (mid < after)) | ((before > mid) & (mid > after))
    turns = np.flatnonzero(~slope)
    z = y[turns]
    # runs of equal samples [start, end] short of the last sample; a peak
    # run rises in from the left and falls (or meets a NaN) on the right
    ends = np.flatnonzero(z[1:] != z[:-1])
    starts = np.concatenate(([0], ends + 1))[:-1]
    peak = (starts > 0) & (z[starts] > z[starts - 1]) & ~(z[ends + 1] >= z[ends])
    starts, ends = starts[peak], ends[peak]
    left = _left_bases(z)
    right = _left_bases(z[::-1])[::-1]
    # a difference near 1e308 rounds to inf; an infinite peak that is its
    # own base has none (inf - inf is NaN)
    with np.errstate(invalid="ignore", over="ignore"):
        keep = z[starts] - np.maximum(left[starts], right[ends]) >= prominence_db
    return ((turns[starts[keep]] + turns[ends[keep]]) // 2).tolist()


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
    spread = _squares(y0[top] - y2[top])
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
_POLE_TOL = 1e-6       # pole position error, relative to |delta| + J + kappa + |g|
_RESIDUE_PAD = 1e-3    # relative padding of each residue's magnitude
_PARTIAL_RTOL = 1e-6   # partial fractions vs exact response at the coarse points
_ABERTH_STEPS = 10     # fixed root-finder steps from the g = 0 roots
_SETTLED_RTOL = 1e-12  # last step of a converged row, relative to the pole scale
_SIGN_BAND = 1e-8      # |Im p| at or below this share of the pole scale: eigvals decides


def _pair_quartic(kappa_a, kappa_b, J, g, deltas):
    """The bare denominator at the common detunings ``deltas`` (shape (n,))
    as a monic quartic in w: its coefficients (c3, c2, c1, c0), and its
    roots at g = 0 (shape (4, n)).

    D(w) = L U + g^2 B, with L = (w - z_a)(w - z_b) - J^2,
    U = (w - y_a)(w - y_b) - J^2 and B = (w - z_b)(w - y_b), where
    z = delta - i kappa/2 and y = -delta - i kappa/2 per mode; it equals
    :func:`_bare_kernel`'s den.
    """
    za, zb = deltas - 0.5j * kappa_a, deltas - 0.5j * kappa_b
    ya, yb = -deltas - 0.5j * kappa_a, -deltas - 0.5j * kappa_b
    jj, gg = J * J, g * g  # float * overflows to inf, where ** raises
    l1, l0 = -(za + zb), za * zb - jj
    u1, u0 = -(ya + yb), ya * yb - jj
    coefficients = (l1 + u1, l0 + u0 + l1 * u1 + gg, l1 * u0 + l0 * u1 - gg * (zb + yb),
                    l0 * u0 + gg * zb * yb)
    hz, hy = np.sqrt(0.25 * (za - zb) ** 2 + jj), np.sqrt(0.25 * (ya - yb) ** 2 + jj)
    return coefficients, np.array([-l1 / 2.0 - hz, -l1 / 2.0 + hz,
                                   -u1 / 2.0 - hy, -u1 / 2.0 + hy])


def _map_poles(kappa_a, kappa_b, J, g, deltas):
    """Roots p_k of :func:`_pair_quartic` at the common detunings
    ``deltas`` (shape (n, 4)), and each row's largest last step.

    Simultaneous Aberth iteration (O. Aberth, Math. Comp. 27 (1973) 339)
    takes a fixed number of steps from the g = 0 roots, turned apart so
    that the starts that coincide at delta = +-J when kappa_a = kappa_b do
    not. A row whose last step is not small has not converged.
    """
    (c3, c2, c1, c0), starts = _pair_quartic(kappa_a, kappa_b, J, g, deltas)
    turn = np.exp(1j * (0.4 + np.pi / 2.0 * np.arange(4)))[:, None]
    p = starts + 1e-2 * (abs(g) + min(kappa_a, kappa_b)) * turn
    for _ in range(_ABERTH_STEPS):
        newton = ((((p + c3) * p + c2) * p + c1) * p + c0) / (
            ((4.0 * p + 3.0 * c3) * p + 2.0 * c2) * p + c1)
        p0, p1, p2, p3 = p
        i01, i02, i03 = 1.0 / (p0 - p1), 1.0 / (p0 - p2), 1.0 / (p0 - p3)
        i12, i13, i23 = 1.0 / (p1 - p2), 1.0 / (p1 - p3), 1.0 / (p2 - p3)
        pull = np.array([i01 + i02 + i03, i12 + i13 - i01, i23 - i02 - i12,
                         -(i03 + i13 + i23)])
        step = newton / (1.0 - newton * pull)
        p = p - step
    return p.T, np.abs(step).max(axis=0)


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
    certificate of :func:`pump_regime_map` cannot rule out. Runs under
    its caller's ``np.errstate``."""
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
    tol = _POLE_TOL * (np.abs(deltas) + J + max(kappa_a, kappa_b) + abs(g))
    lo, hi = ends[:-1], ends[1:]
    partial = f0 = f1 = f2 = 0.0
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

    The response poles p_k = i*lambda_k (lambda_k the drift eigenvalues,
    so Re lambda_k = Im p_k) are the roots of the bare denominator D(w), a
    monic quartic in w (:func:`_map_poles`); a pump point is stable when
    every Im p_k < 0. Only where the root finder has not converged, or
    where some |Im p_k| is at most 1e-8 of |delta| + J + max(kappa) + |g|,
    is the sign in doubt: there the eigenvalues of :func:`bare_drift`
    (``np.linalg.eigvals``) give the poles instead.

    The grid maximum is found coarse to fine, and the peak heights equal
    those of a full-grid evaluation bit for bit. The response is the
    proper rational function f = S_a + 1 = sum_k r_k/(w - p_k). On a cell
    of width h between two coarse samples, with d_k the distance from p_k
    to the cell (less a tolerance), F0 = sum |r_k|/d_k bounds |f|,
    F1 = sum |r_k|/d_k^2 bounds |f'| and F2 = 2 sum |r_k|/d_k^3 bounds
    |f''|, so

        max |S_a|^2 <= max(ends) + h^2/8 * (2 F1^2 + 2 F2 (F0 + 1))

    on the cell (|S_a|^2 at the coarse samples is exact). A cell whose
    bound is below (1 - 1e-9) times the best coarse sample cannot hold
    the grid maximum and is not evaluated; every other cell is, including
    one whose bound is not finite. A pump point whose partial fractions
    miss the exact coarse samples by more than 1e-6 relative, or whose
    best coarse sample is not finite, keeps all of its cells.

    Requires the system to be at the anticrossing (omega_a = omega_b to
    within J/100). Raises UnstableRegime when no pump point is stable, or
    NonPhysical when the poles are too large to resolve it.
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

    pump = np.asarray(pump_grid, dtype=float)
    if len(pump) == 0:
        raise ValueError("pump_regime_map requires a non-empty pump grid")
    deltas = omega_c - pump / 2.0
    rates = (system.mode_a.kappa, system.mode_b.kappa, system.mode_a.kappa_e, J, g)
    peak_db = np.full(len(pump), np.nan)
    # rates near 1e150 overflow the kernels to inf or NaN: the precision
    # check below names that case, so numpy need not warn as well, and no
    # kernel runs without a stable pump point (g**2 overflows from ~1e154)
    with np.errstate(all="ignore"):
        poles, last = _map_poles(system.mode_a.kappa, system.mode_b.kappa, J, g, deltas)
        scale = np.abs(deltas) + J + kmax + abs(g)
        doubt = np.flatnonzero(~((last <= _SETTLED_RTOL * scale)
                                 & (np.abs(poles.imag).min(axis=1) > _SIGN_BAND * scale)))
        if len(doubt):
            poles[doubt] = 1j * np.linalg.eigvals(
                bare_drift(system, g, deltas[doubt], deltas[doubt]))
        stable = np.flatnonzero(~(poles.imag.max(axis=1) >= 0.0))  # skip self-oscillation
        if len(stable):
            half_span = J + 4.0 * kmax + 2.0 * abs(g)
            w_grid = np.linspace(-half_span, half_span, _MAP_POINTS)
            peak = np.empty(len(stable), dtype=int)
            for b in range(0, len(stable), _PUMP_BLOCK):
                i = stable[b:b + _PUMP_BLOCK]
                peak[b:b + _PUMP_BLOCK] = _grid_peaks(rates, deltas[i], poles[i], w_grid)
            # refine through the peak and its grid neighbours, -inf beyond the ends
            near = peak[:, None] + np.arange(-1, 2)
            inside = (near >= 0) & (near < len(w_grid))
            window = np.full(near.shape, -np.inf)
            window[inside] = power_db(_signal_a(
                *rates, np.broadcast_to(deltas[stable, None], near.shape)[inside],
                w_grid[near[inside]])[0])
            peak_db[stable] = _refined_peak_height(window)

    finite = np.isfinite(peak_db)
    if not finite.any():
        # poles carry an absolute error of ~eps*max|p|: once that reaches
        # the damping, the sign of their imaginary parts means nothing
        lam = float(np.abs(poles).max())
        kmin = min(system.mode_a.kappa, system.mode_b.kappa)
        if np.finfo(float).eps * lam >= kmin / 2.0:
            raise NonPhysical(
                f"eigenvalue precision lost: rounding of drift eigenvalues up to "
                f"{lam:g} rad/s swamps the damping min(kappa)/2={kmin / 2.0:g} rad/s")
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


def gain_bandwidth_product(spectrum: ComplexSpectrum | Trace) -> GainBandwidth:
    """Gain-bandwidth product of a single-peaked gain spectrum, given as
    complex gain factors over angular offsets or as a ``gain_db`` trace.

    The linear power gain is fitted to a Lorentzian line shape
    (:func:`kipa.calfit.fit_lorentzian`); the bandwidth is its FWHM and
    GBP = sqrt(G_peak) * BW. Near threshold the GBP approaches
    eta*kappa/(2*pi) in Hz. Raises NoPeak when the grid does not resolve
    a single dominant peak (e.g. pump off).
    """
    from . import calfit  # deferred: calfit builds its models on this module

    trace = spectrum
    if isinstance(spectrum, ComplexSpectrum):
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
