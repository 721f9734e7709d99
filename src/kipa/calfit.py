"""Parameter extraction by least squares.

The optimizer is a damped (Levenberg-Marquardt style) least-squares
iteration with a forward-difference Jacobian: dependency-free and
reproducible. Damping uses Marquardt diagonal scaling with a trust
factor of x0.5 on an accepted step and x2 on a rejected one;
convergence requires a relative parameter change below 1e-10 or a
relative residual change below 1e-12, capped at 200 iterations.

Traces and fitted parameters live in Hz / ampere / kelvin (measurement
units); conversion to internal angular units happens inside the model
functions. Parameter uncertainties are the linearized covariance at the
optimum scaled by the residual variance, i.e. approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ampcore
from .constants import hbar, k_B
from .errors import (
    FitError,
    IllConditioned,
    NoPeak,
    NonPhysical,
    NotConverged,
    PoleAtFrequency,
    UnstableFit,
    UnstableRegime,
)
from .params import ResonatorParams, Trace, hz_to_angular, power_linear


@dataclass
class FitResult:
    params: dict[str, float]
    sigma: dict[str, float] | None  # present iff converged
    residual_rms: float
    converged: bool
    iterations: int
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Damped least-squares core
# ---------------------------------------------------------------------------

_MAX_ITER = 200
_PARAM_TOL = 1e-10
_RESID_TOL = 1e-12
_JACOBIAN_STEP = 1e-6


def _jacobian(residual_fn, p, r0, scale):
    # step on each parameter's variation scale, not its magnitude: an
    # absolute frequency is huge while its meaningful changes are not
    m, n = len(r0), len(p)
    J = np.empty((m, n))
    for j in range(n):
        h = _JACOBIAN_STEP * scale[j]
        trial = p.copy()
        trial[j] += h
        try:
            r1 = residual_fn(trial)
        except ValueError:
            trial[j] = p[j] - h
            r1 = residual_fn(trial)
            h = -h
        J[:, j] = (np.asarray(r1) - r0) / h
    return J


def damped_least_squares(residual_fn, p0, scale=None, max_iter=_MAX_ITER):
    """Minimize sum(residual_fn(p)^2) from p0.

    residual_fn may raise ValueError for an infeasible trial point, which
    counts as a rejected step. Returns (p, iterations, residuals).
    Raises IllConditioned if the Jacobian is rank-deficient at the start
    and NotConverged if the iteration cap is reached.
    """
    p = np.array(p0, dtype=float)
    n = len(p)
    if scale is None:
        scale = np.maximum(np.abs(p), 1.0)
    else:
        scale = np.asarray(scale, dtype=float)
        if np.any(scale <= 0):
            raise ValueError("parameter scales must be positive")
    r = np.asarray(residual_fn(p))
    ssr = float(r @ r)
    lam = 1e-3
    for iteration in range(1, max_iter + 1):
        J = _jacobian(residual_fn, p, r, scale)
        if iteration == 1 and np.linalg.matrix_rank(J) < n:
            raise IllConditioned(
                "Jacobian is rank-deficient at the initial point"
            )
        JtJ = J.T @ J
        Jtr = J.T @ r
        diag = np.diag(JtJ).copy()
        floor = max(diag.max(), 1e-300) * 1e-14
        diag[diag < floor] = floor
        accepted = False
        best_trial = math.inf
        for _ in range(60):
            try:
                dp = np.linalg.solve(JtJ + lam * np.diag(diag), -Jtr)
            except np.linalg.LinAlgError as exc:
                raise IllConditioned(str(exc)) from exc
            try:
                r_new = np.asarray(residual_fn(p + dp))
            except ValueError:
                lam *= 2.0
                continue
            ssr_new = float(r_new @ r_new)
            best_trial = min(best_trial, ssr_new)
            if ssr_new <= ssr:
                accepted = True
                break
            lam *= 2.0
            if lam > 1e16:
                break
        if not accepted:
            # no downhill step left: stationary (to rounding) counts as
            # converged, anything else genuinely failed
            if ssr == 0.0 or best_trial <= ssr * (1.0 + 1e-9):
                return p, iteration, r
            raise NotConverged(
                f"no acceptable step after {iteration} iterations "
                f"(residual rms {math.sqrt(ssr / len(r)):.3g})"
            )
        param_change = np.max(np.abs(dp) / np.maximum(np.abs(p), scale))
        resid_change = (ssr - ssr_new) / max(ssr, 1e-300)
        p = p + dp
        r, ssr = r_new, ssr_new
        lam *= 0.5
        if param_change < _PARAM_TOL or resid_change < _RESID_TOL:
            return p, iteration, r
    raise NotConverged(f"iteration cap {max_iter} reached")


def _sigma_from_jacobian(residual_fn, p, r, scale, names):
    m, n = len(r), len(p)
    J = _jacobian(residual_fn, p, np.asarray(r), scale)
    ssr = float(np.asarray(r) @ np.asarray(r))
    if m <= n:
        return {name: 0.0 for name in names}
    s2 = ssr / (m - n)
    try:
        cov = np.linalg.inv(J.T @ J) * s2
    except np.linalg.LinAlgError:
        return {name: float("inf") for name in names}
    return {
        name: float(math.sqrt(max(cov[i, i], 0.0))) for i, name in enumerate(names)
    }


def _result(residual_fn, p, iterations, r, scale, names, warnings=()):
    sigma = _sigma_from_jacobian(residual_fn, p, r, scale, names)
    return FitResult(
        params={name: float(v) for name, v in zip(names, p)},
        sigma=sigma,
        residual_rms=float(np.sqrt(np.mean(np.asarray(r) ** 2))),
        converged=True,
        iterations=iterations,
        warnings=list(warnings),
    )


# ---------------------------------------------------------------------------
# Forward models (Hz domain, thin wrappers over the closed forms)
# ---------------------------------------------------------------------------

def _reflection_model(f_hz, f0, kappa_e_hz, kappa_i_hz):
    res = ResonatorParams(
        omega0=hz_to_angular(f0),
        kappa_e=hz_to_angular(kappa_e_hz),
        kappa_i=hz_to_angular(kappa_i_hz),
    )
    signal, _ = ampcore.single_mode_gain(
        res, 0.0, 0.0, 0.0, hz_to_angular(np.asarray(f_hz) - f0)
    )
    return signal.values


def _gain_model_db(f_hz, g_hz, kappa_e_hz, kappa_i_hz, f_center):
    res = ResonatorParams(
        omega0=hz_to_angular(max(f_center, 1.0)),
        kappa_e=hz_to_angular(kappa_e_hz),
        kappa_i=hz_to_angular(kappa_i_hz),
    )
    try:
        signal, _ = ampcore.single_mode_gain(
            res, hz_to_angular(g_hz), 0.0, 0.0,
            hz_to_angular(np.asarray(f_hz) - f_center),
        )
    except (UnstableRegime, PoleAtFrequency) as exc:  # infeasible trial point
        raise ValueError(str(exc)) from exc
    return signal.power_db


def _noise_model(T, g_tot, n_add, omega):
    T = np.asarray(T, dtype=float)
    if np.any(T <= 0):
        raise ValueError("temperatures must be > 0 for the noise model")
    x = hbar * omega / (2.0 * k_B * T)
    return g_tot * hbar * omega * (0.5 / np.tanh(x) + n_add)


def _lorentzian(f, peak, f0, fwhm, base):
    return (peak - base) / (1.0 + ((np.asarray(f) - f0) / (fwhm / 2.0)) ** 2) + base


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------

def _require_trace(trace: Trace, kind: str, fit: str, what: str) -> None:
    """Reject a trace of the wrong kind, or with fewer than the 3 points
    every fit needs."""
    if trace.kind != kind:
        raise ValueError(f"{fit} requires kind={kind}, got {trace.kind}")
    if len(trace) < 3:
        raise ValueError(f"{what} needs at least 3 points")


def _linear_power(y_db) -> np.ndarray:
    """Linear power of a dB trace; NonPhysical where it overflows."""
    with np.errstate(over="ignore"):
        y_lin = power_linear(y_db)
    if not np.isfinite(y_lin).all():
        raise NonPhysical(
            f"a gain of {np.max(y_db):g} dB overflows as a linear power"
        )
    return y_lin


def _width_above(f, y, level) -> float:
    """Span of f between the first and last sample with y above level,
    at least one grid step: the half-maximum width that seeds a fit."""
    above = np.where(y > level)[0]
    return max(float(f[above[-1]] - f[above[0]]), float(f[1] - f[0]))


def fit_reflection(trace: Trace, init: dict | None = None) -> FitResult:
    """Resonance parameters {f0_hz, kappa_e_hz, kappa_i_hz} from a complex
    reflection trace, model S11(f) = eta*k / (k/2 - i(f - f0)) - 1.

    Auto-initialization: f0 at the |S11| minimum, kappa from the width of
    the 1-|S11|^2 dip, eta from the dip depth. Residuals are the stacked
    real and imaginary parts.
    """
    _require_trace(trace, "reflection", "fit_reflection", "reflection trace")
    f = trace.x
    y = trace.y
    if init is None:
        dip = 1.0 - np.abs(y) ** 2
        peak = float(dip.max())
        if peak < 1e-9:
            raise IllConditioned("no resonance dip in the reflection trace")
        i0 = int(np.argmin(np.abs(y)))
        f0 = float(f[i0])
        kappa_hz = _width_above(f, dip, peak / 2.0)
        eta = (1.0 + float(np.real(y[i0]))) / 2.0
        eta = min(max(eta, 0.05), 0.995)
        p0 = [f0, eta * kappa_hz, (1.0 - eta) * kappa_hz]
    else:
        p0 = [init["f0_hz"], init["kappa_e_hz"], init["kappa_i_hz"]]
    span = float(f[-1] - f[0])
    scale = np.array([span, p0[1] + p0[2], p0[1] + p0[2]])

    def residuals(p):
        model = _reflection_model(f, *p)
        return np.concatenate([(model - y).real, (model - y).imag])

    names = ("f0_hz", "kappa_e_hz", "kappa_i_hz")
    p, iterations, r = damped_least_squares(residuals, p0, scale=scale)
    return _result(residuals, p, iterations, r, scale, names)


def fit_bias_sweep(trace: Trace) -> FitResult:
    """Zero-current resonance and scale current {f0_hz, i_star_a} from a
    bias sweep, by linear regression of frequency against current squared:

        f(I) = f0 - f0/(2 I*^2) * I^2

    Closed form, no iteration. Uncertainties propagate from the
    regression covariance.
    """
    _require_trace(trace, "bias_shift", "fit_bias_sweep", "bias sweep")
    i_sq = trace.x.astype(float) ** 2
    design = np.column_stack([np.ones_like(i_sq), i_sq])
    if np.linalg.matrix_rank(design) < 2:
        raise IllConditioned("bias sweep has no current variation")
    coef, *_ = np.linalg.lstsq(design, trace.y, rcond=None)
    f0, slope = float(coef[0]), float(coef[1])
    if f0 <= 0 or slope >= 0:
        raise NonPhysical(
            f"bias regression gives f0={f0:g} Hz, slope={slope:g} Hz/A^2; "
            "expected a downward quadratic shift"
        )
    i_star = math.sqrt(-f0 / (2.0 * slope))
    fitted = design @ coef
    resid = trace.y - fitted
    m = len(trace)
    sigma = {"f0_hz": 0.0, "i_star_a": 0.0}
    if m > 2:
        s2 = float(resid @ resid) / (m - 2)
        cov = np.linalg.inv(design.T @ design) * s2
        # I* = sqrt(-f0/(2 s)): propagate through the gradient
        grad = np.array([-1.0 / (4.0 * slope * i_star), f0 / (4.0 * slope**2 * i_star)])
        var = float(grad @ cov @ grad)
        sigma = {
            "f0_hz": float(math.sqrt(max(cov[0, 0], 0.0))),
            "i_star_a": float(math.sqrt(max(var, 0.0))),
        }
    return FitResult(
        params={"f0_hz": f0, "i_star_a": i_star},
        sigma=sigma,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        converged=True,
        iterations=0,
    )


def _gain_profile_starts(f, y_db, kappa_hint):
    """Candidate starting points for the gain-profile fit.

    The on-resonance power profile is a quartic rational in the offset,

        P(w) = (w^4 + a w^2 + b) / (w^4 + c w^2 + d),

    with c = kappa^2/2 + 2 g^2, d = (kappa^2/4 - g^2)^2,
    b = A^2 and a = 2A + kappa^2 (1-eta)^2 where
    A = eta kappa^2/2 - kappa^2/4 + g^2. The coefficients are linear in
    the data, so a least-squares prefit plus the algebraic inversion
    seeds (g, kappa_e, kappa_i, f_center) on the correct sign branch
    whether the profile is an amplification peak or a lossy reflection
    dip. Two centering anchors feed the prefit (the deviation-weighted
    centroid, exact for symmetric traces, and the extremum, robust on
    truncated ones) and a direct peak-height heuristic covers clearly
    peaked data; the caller picks the start that best explains the trace.
    """
    y_lin = _linear_power(y_db)
    span = float(f[-1] - f[0])
    deviation = np.abs(y_lin - 1.0)
    fallback_kappa = kappa_hint if kappa_hint else span / 4.0
    default = (0.0, 0.9 * fallback_kappa, 0.1 * fallback_kappa, float(np.mean(f)))
    if deviation.max() < 1e-6:  # featureless trace: let the optimizer decide
        return [default]
    unit = span / 4.0
    starts = []

    # linewidth backbone from the half-maximum width of the feature: the
    # pump-off dip has FWHM kappa and amplification narrows it, so a
    # couple of multiples bracket the plausible range
    width = _width_above(f, deviation, deviation.max() / 2.0)
    kappa_grid = (kappa_hint,) if kappa_hint else (width, 3.0 * width)

    def quartic_inversion(center):
        w = (f - center) / unit  # scaled offsets for conditioning
        # multiplying through by the denominator would weight wing noise
        # by w^4; the 1/(1+w^4) row weight rebalances the samples
        weight = 1.0 / (1.0 + w**4)
        design = np.column_stack([w**2, np.ones_like(w), -y_lin * w**2, -y_lin])
        coef, *_ = np.linalg.lstsq(
            design * weight[:, None], (y_lin - 1.0) * w**4 * weight, rcond=None
        )
        a, b, c, d = (float(v) for v in coef)
        s = math.sqrt(max(d, 0.0))
        kappa_sq = (c + 2.0 * s) * unit**2
        if not kappa_sq > 0:
            return
        kappa = kappa_hint if kappa_hint else math.sqrt(kappa_sq)
        g = math.sqrt(max(kappa_sq / 4.0 - s * unit**2, 0.0))
        g = min(g, 0.98 * kappa / 2.0)  # keep the start strictly stable
        # A = eta k^2/2 - k^2/4 + g^2 is known only as A^2, so both sign
        # branches become candidates; the caller decides by the residual
        etas = []
        for amp in (math.sqrt(max(b, 0.0)), -math.sqrt(max(b, 0.0))):
            t = (a * unit**2 - 2.0 * amp * unit**2) / kappa_sq
            if t < 0:
                continue
            candidate = 1.0 - math.sqrt(t)
            if 0.0 < candidate <= 1.0:
                etas.append(candidate)
        for eta in etas + [0.6, 0.8, 0.95]:
            starts.append((g, eta * kappa, (1.0 - eta) * kappa, center))

    centroid = float(np.sum(f * deviation) / np.sum(deviation))
    extremum = float(f[int(np.argmax(deviation))])
    for center in (centroid, extremum):
        quartic_inversion(center)
        # coarse deterministic pump/efficiency grid on the width-based
        # linewidths: a weak noisy dip can defeat the algebraic inversion
        # outright, and these keep every basin represented
        for kappa in kappa_grid:
            for g_frac in (0.0, 0.35, 0.65, 0.9):
                for eta in (0.6, 0.8, 0.95):
                    starts.append((g_frac * kappa / 2.0, eta * kappa,
                                   (1.0 - eta) * kappa, center))

    i_peak = int(np.argmax(y_db))
    if y_db[i_peak] > 0.5:  # clear amplification peak: height/width heuristic
        eta0 = 0.9
        fwhm = _width_above(f, y_lin, y_lin[i_peak] / 2.0)
        amp = math.sqrt(y_lin[i_peak])
        kappa0 = kappa_hint if kappa_hint else fwhm * (amp + 1.0) / eta0
        g0 = kappa0 / 2.0 * math.sqrt(max(1.0 - 2.0 * eta0 / (amp + 1.0), 0.0))
        starts.append((g0, eta0 * kappa0, (1.0 - eta0) * kappa0, float(f[i_peak])))

    return starts or [default]


def fit_gain_profile(trace: Trace, kappa_hint: float | None = None) -> FitResult:
    """Amplifier working point {g_hz, kappa_e_hz, kappa_i_hz, f_center_hz}
    from a gain profile in dB.

    Residuals are taken in the dB domain, matching how profiles are
    plotted and weighting the peak region correctly. The deterministic
    starting candidates of :func:`_gain_profile_starts` are ranked by
    their residual and the few best are each refined; the lowest final
    residual wins (a weak noisy dip has competing local minima that the
    starting residual alone cannot rank). kappa_hint [Hz] overrides the
    seeded linewidths. The profile is even in the pump rate, so g is
    reported as a magnitude.

    Raises UnstableFit when the converged pump rate sits on the
    oscillation boundary g = kappa/2 (reported, not clamped).
    """
    _require_trace(trace, "gain_db", "fit_gain_profile", "gain profile")
    f = trace.x
    y_db = trace.y.astype(float)
    span = float(f[-1] - f[0])

    def residuals(p):
        return _gain_model_db(f, *p) - y_db

    def start_cost(start):
        try:
            r = residuals(np.array(start))
        except ValueError:
            return math.inf
        return float(r @ r)

    # a weak noisy profile has competing local minima (true working point,
    # g ~ 0 dip, flat response); initial residuals cannot always rank the
    # basins, so the few best analytic candidates are each refined and the
    # lowest final residual wins
    candidates = sorted(_gain_profile_starts(f, y_db, kappa_hint), key=start_cost)
    names = ("g_hz", "kappa_e_hz", "kappa_i_hz", "f_center_hz")
    best = None
    first_error = None
    for g0, ke0, ki0, f_center in candidates[:5]:
        kappa0 = ke0 + ki0
        p0 = [g0, ke0, max(ki0, 1e-4 * ke0), f_center]
        # all three rates vary on the scale of the total linewidth,
        # however lopsided the starting split is
        scale = np.array([kappa0 / 2.0, kappa0, kappa0, span])
        try:
            p, iterations, r = damped_least_squares(residuals, p0, scale=scale)
        except FitError as exc:
            first_error = first_error or exc
            continue
        ssr = float(np.asarray(r) @ np.asarray(r))
        if best is None or ssr < best[0]:
            best = (ssr, p, iterations, r, scale)
    if best is None:
        raise first_error
    _, p, iterations, r, scale = best
    p[0] = abs(p[0])  # the profile is even in g; report the magnitude
    result = _result(residuals, p, iterations, r, scale, names)
    kappa = result.params["kappa_e_hz"] + result.params["kappa_i_hz"]
    if result.params["g_hz"] >= kappa / 2.0 * (1.0 - 1e-9):
        raise UnstableFit(
            f"best-fit g={result.params['g_hz']:g} Hz sits on the "
            f"oscillation boundary kappa/2={kappa / 2.0:g} Hz",
            result=result,
        )
    return result


def fit_noise_temperature(trace: Trace, omega: float) -> FitResult:
    """Chain gain and added noise {g_tot, n_add} from noise density
    versus source temperature:

        N_tot(T) = G_tot * hbar*w * (coth(hbar*w/2kT)/2 + n_add)

    Unweighted least squares in the linear (W/Hz) domain. Initial G_tot
    comes from the high-temperature (Rayleigh-Jeans) slope, n_add from
    the intercept. Raises NonPhysical when the fitted n_add is negative
    by more than three standard errors.
    """
    _require_trace(trace, "noise_psd", "fit_noise_temperature", "noise sweep")
    T = trace.x
    y = trace.y.astype(float)
    # Rayleigh-Jeans: N ~ G*k_B*T + G*hbar*w*n_add at high T
    upper = T >= np.median(T)
    slope = float(np.polyfit(T[upper], y[upper], 1)[0])
    g_tot0 = max(slope / k_B, 1.0)
    n_add0 = float(np.mean(y / (g_tot0 * hbar * omega))
                   - np.mean(0.5 / np.tanh(hbar * omega / (2.0 * k_B * T))))
    p0 = [g_tot0, max(n_add0, 0.1)]
    scale = np.array([g_tot0, 1.0])

    def residuals(p):
        return _noise_model(T, p[0], p[1], omega) - y

    names = ("g_tot", "n_add")
    p, iterations, r = damped_least_squares(residuals, p0, scale=scale)
    result = _result(residuals, p, iterations, r, scale, names)
    n_add = result.params["n_add"]
    sigma_n = result.sigma["n_add"]
    if n_add < 0 and (sigma_n == 0.0 or n_add < -3.0 * sigma_n):
        raise NonPhysical(
            f"fitted n_add={n_add:g} is negative beyond 3 sigma ({sigma_n:g})"
        )
    return result


def fit_lorentzian(trace: Trace) -> FitResult:
    """Lorentzian line shape {peak_lin, f_peak_hz, fwhm_hz, baseline_lin}
    fitted to the linear power gain of a single-peaked dB trace.

    Raises NoPeak when the grid resolves no peak (flat response or peak
    on the grid edge) or more than one prominent peak (double-mode
    spectra must be split before bandwidth extraction).
    """
    _require_trace(trace, "gain_db", "fit_lorentzian", "gain trace")
    f = trace.x
    y_db = trace.y.astype(float)
    peaks = ampcore.find_peaks_db(y_db, prominence_db=3.0)
    if len(peaks) == 0:
        raise NoPeak("no peak with 3 dB prominence on the grid")
    if len(peaks) > 1:
        raise NoPeak(f"{len(peaks)} prominent peaks on the grid; expected one")
    i_peak = peaks[0]
    y_lin = _linear_power(y_db)
    base0 = float(np.percentile(y_lin, 10))
    peak0 = float(y_lin[i_peak])
    half = base0 + (peak0 - base0) / 2.0
    fwhm0 = _width_above(f, y_lin, half)
    p0 = [peak0, float(f[i_peak]), fwhm0, base0]
    scale = np.array([peak0, float(f[-1] - f[0]), fwhm0, max(base0, 1e-3 * peak0)])

    def residuals(p):
        if p[2] <= 0:
            raise ValueError("fwhm must stay positive")
        return _lorentzian(f, p[0], p[1], p[2], p[3]) - y_lin

    names = ("peak_lin", "f_peak_hz", "fwhm_hz", "baseline_lin")
    p, iterations, r = damped_least_squares(residuals, p0, scale=scale)
    return _result(residuals, p, iterations, r, scale, names)
