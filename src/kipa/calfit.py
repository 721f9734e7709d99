"""Parameter extraction by least squares.

The optimizer is a damped (Levenberg-Marquardt style) least-squares
iteration: dependency-free and reproducible. The reflection and
gain-profile fits pass it the exact Jacobian of their model, one kernel
evaluation and a few array operations per iteration; the noise and
Lorentzian fits use a forward-difference Jacobian. Damping uses
Marquardt diagonal scaling with a trust factor of x0.5 on an accepted
step and x2 on a rejected one; convergence requires a relative
parameter change below 1e-10 or a relative residual change below 1e-12,
capped at 200 iterations.

Traces and fitted parameters live in Hz / ampere / kelvin (measurement
units); conversion to internal angular units happens inside the model
functions. Parameter uncertainties are the linearized covariance at the
optimum scaled by the residual variance, i.e. approximate.

The reflection and gain-profile models share the signal kernel of
:func:`ampcore.single_mode_gain`. Its grid terms (the angular offsets
from the trial center and what depends only on them) are built once per
fit and per center: a fit rebuilds them only when a trial point moves
the center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .errors import finite_or_nonphysical as _finite
from .params import TWO_PI, ResonatorParams, Trace, hz_to_angular, power_linear


@dataclass
class FitResult:
    params: dict[str, float]
    sigma: dict[str, float]
    residual_rms: float
    iterations: int


# ---------------------------------------------------------------------------
# Damped least-squares core
# ---------------------------------------------------------------------------

_MAX_ITER = 200
_PARAM_TOL = 1e-10
_RESID_TOL = 1e-12
_JACOBIAN_STEP = 1e-6
# what a model raises at a point it cannot evaluate: an infeasible trial point
_INFEASIBLE = (ValueError, NonPhysical, PoleAtFrequency, UnstableRegime)


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
        except _INFEASIBLE:
            trial[j] = p[j] - h
            r1 = residual_fn(trial)
            h = -h
        J[:, j] = (np.asarray(r1) - r0) / h
    return J


def damped_least_squares(residual_fn, p0, scale, *, overflow, jacobian=None):
    """Minimize sum(residual_fn(p)^2) from p0; each parameter varies on its
    ``scale``. ``jacobian(p)``, if given, returns the (m, n) Jacobian of
    the residuals at a point where residual_fn has been evaluated;
    otherwise a forward difference on each parameter's scale stands in. A
    trial point where residual_fn raises one of ``_INFEASIBLE`` or gives a
    cost that is not finite is a rejected step. At p0 the error
    propagates, and such a cost raises NonPhysical(overflow), a message or
    a callable as :func:`errors.finite_or_nonphysical` takes. Returns
    (p, iterations, residuals). Raises IllConditioned if the Jacobian is
    rank-deficient at the start, NotConverged at the iteration cap and
    NonPhysical where the normal equations overflow.
    """
    p = np.array(p0, dtype=float)
    scale = np.asarray(scale, dtype=float)
    if np.any(scale <= 0):
        raise ValueError("parameter scales must be positive")
    r = _finite(lambda: np.asarray(residual_fn(p)), overflow)
    ssr = float(_finite(lambda: r @ r, overflow))
    step_overflow = f"least-squares step overflows (parameter scales down to {np.min(scale):g})"
    # one guard over the iterations: numpy's warnings stay off, so a trial
    # point that overflows is a rejected step, not a warning
    return _finite(lambda: _iterate(residual_fn, p, r, ssr, scale, step_overflow, jacobian),
                   step_overflow)


def _iterate(residual_fn, p, r, ssr, scale, overflow, jacobian=None):
    """:func:`damped_least_squares` from p, its residuals r and their sum
    of squares ssr; NonPhysical(overflow) where J^T J is not finite."""
    n = len(p)
    lam = 1e-3
    for iteration in range(1, _MAX_ITER + 1):
        J = _jacobian(residual_fn, p, r, scale) if jacobian is None else jacobian(p)
        # finite normal equations imply a finite J, as the rank check's SVD needs
        JtJ, Jtr = _finite(lambda: (J.T @ J, J.T @ r), overflow)
        if iteration == 1 and np.linalg.matrix_rank(J) < n:
            raise IllConditioned(
                "Jacobian is rank-deficient at the initial point"
            )
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
            except _INFEASIBLE:
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
    raise NotConverged(f"iteration cap {_MAX_ITER} reached")


def _result(residual_fn, p, iterations, r, scale, names, jacobian=None):
    """FitResult at the optimum p; sigma is inf where the covariance is
    singular. ``jacobian`` is as :func:`damped_least_squares` takes it."""
    m, n = len(r), len(p)
    ssr = float(r @ r)

    def covariance():
        J = _jacobian(residual_fn, p, r, scale) if jacobian is None else jacobian(p)
        return np.zeros((n, n)) if m <= n else np.linalg.inv(J.T @ J) * (ssr / (m - n))

    try:
        var = np.diag(_finite(covariance, lambda _: (
            f"fit covariance overflows (residual rms {math.sqrt(ssr / m):g})")))
    except np.linalg.LinAlgError:
        var = np.full(n, math.inf)
    return FitResult(
        params={name: float(v) for name, v in zip(names, p)},
        sigma={name: math.sqrt(max(v, 0.0)) for name, v in zip(names, var)},
        residual_rms=float(np.sqrt(np.mean(r**2))),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Forward models (Hz domain, thin wrappers over the closed forms)
# ---------------------------------------------------------------------------

def _resonator(f0, kappa_e_hz, kappa_i_hz) -> ResonatorParams:
    """The mode of a trial point; ValueError unless its values are finite,
    kappa_e > 0 and kappa_i >= 0."""
    return ResonatorParams(
        omega0=hz_to_angular(f0),
        kappa_e=hz_to_angular(kappa_e_hz),
        kappa_i=hz_to_angular(kappa_i_hz),
    )


def _offsets(f_hz, f_center):
    """Grid terms (see :func:`ampcore._grid_terms`) of the angular offsets
    of ``f_hz`` from ``f_center``, and whether the offsets strictly
    increase."""
    w = hz_to_angular(np.asarray(f_hz) - f_center)
    return ampcore._grid_terms(w), bool((w[1:] > w[:-1]).all())


def _offsets_per_center():
    """:func:`_offsets` for the one trace of a fit, rebuilt only when the
    trial center changes: the exact Jacobian at a point shares the center
    of the residuals just evaluated there, and most of the gain fit's
    starting candidates share a center."""
    last = {}

    def offsets(f_hz, f_center):
        key = float(f_center).hex()  # tells -0.0 from 0.0; NaN matches NaN
        if key not in last:
            last.clear()
            last[key] = _offsets(f_hz, f_center)
        return last[key]

    return offsets


def _signal(res: ResonatorParams, g, f_hz, f_center, offsets):
    """(signal, D): the signal gain factor of :func:`ampcore.single_mode_gain`
    at zero detuning and phase and its denominator, on rates kept as
    scalars (an array square may round g**2 differently) and the grid terms
    ``offsets(f_hz, f_center)``. Raises what single_mode_gain raises:
    UnstableRegime for |g| >= kappa/2, NonPhysical on an overflow and
    PoleAtFrequency at a pole; and ValueError for offsets that do not
    strictly increase. Each is one of ``_INFEASIBLE``."""
    kappa = res.kappa
    ampcore._require_stable(ampcore._single_stability(kappa, g), g)
    grid, increasing = offsets(f_hz, f_center)
    signal, den = ampcore._single_mode_signal(kappa, res.eta, g, 0.0, grid)
    if not increasing:  # a far-off center collapses the offsets
        raise ValueError("frequency offsets must be strictly increasing")
    return signal, den


def _reflection_model(f_hz, f0, kappa_e_hz, kappa_i_hz, offsets=_offsets):
    return _signal(_resonator(f0, kappa_e_hz, kappa_i_hz), 0.0, f_hz, f0, offsets)[0]


def _reflection_jacobian(f_hz, f0, kappa_e_hz, kappa_i_hz, offsets=_offsets):
    """Exact Jacobian in (f0, kappa_e, kappa_i) of the stacked real and
    imaginary parts of :func:`_reflection_model`, shape (2m, 3); raises as
    the model does. With u = kappa/2 - iw and F = S + 1 = kappa_e/u:
    dS/dkappa_e = 1/u - F/(2u), dS/dkappa_i = -F/(2u) and dS/dw = iF/u,
    where dw/df0 = -2 pi and each rate in Hz adds a factor 2 pi."""
    res = _resonator(f0, kappa_e_hz, kappa_i_hz)
    h, _ = _signal(res, 0.0, f_hz, f0, offsets)
    (_, iw, _), _ = offsets(f_hz, f0)
    u = res.kappa / 2.0 - iw
    h += 1.0
    h /= u
    h *= math.pi  # 2 pi F/(2u), that is -dS/dkappa_i per Hz
    np.reciprocal(u, out=u)
    u *= TWO_PI
    u -= h  # dS/dkappa_e per Hz
    m = len(h)
    jac = np.empty((2 * m, 3))
    for j, column in enumerate((-2j * h, u, -h)):
        jac[:m, j], jac[m:, j] = column.real, column.imag
    return jac


def _gain_model_db(f_hz, g_hz, kappa_e_hz, kappa_i_hz, f_center, offsets=_offsets):
    """Power gain [dB] of :func:`_signal`; raises as it does."""
    res = _resonator(max(f_center, 1.0), kappa_e_hz, kappa_i_hz)
    signal, _ = _signal(res, hz_to_angular(g_hz), f_hz, f_center, offsets)
    # power_db(np.abs(signal) ** 2), in place on the one temporary
    power = np.square(np.abs(signal))
    return np.multiply(10.0, np.log10(power, out=power), out=power)


def _gain_jacobian(f_hz, g_hz, kappa_e_hz, kappa_i_hz, f_center, offsets=_offsets):
    """Exact Jacobian of :func:`_gain_model_db` in (g, kappa_e, kappa_i,
    f_center), shape (m, 4); raises as the model does. With
    u = kappa/2 - iw, D = u^2 - g^2, S = kappa_e u/D - 1 and F = S + 1:
    dS/dg = 2gF/D, dS/dkappa_e = (u + kappa_e/2 - Fu)/D,
    dS/dkappa_i = (kappa_e/2 - Fu)/D and dS/dw = i(2Fu - kappa_e)/D, where
    dw/df_center = -2 pi and each rate in Hz adds a factor 2 pi; a dB
    value moves by (20/ln 10) Re(dS/S)."""
    res = _resonator(max(f_center, 1.0), kappa_e_hz, kappa_i_hz)
    g = hz_to_angular(g_hz)
    s, q = _signal(res, g, f_hz, f_center, offsets)
    (_, iw, _), _ = offsets(f_hz, f_center)
    u = res.kappa / 2.0 - iw
    q *= s
    np.reciprocal(q, out=q)  # 1/(DS)
    s += 1.0
    s *= q  # F/(DS)
    c = TWO_PI * 20.0 / math.log(10.0)
    jac = np.empty((len(s), 4))
    np.multiply(s.real, 2.0 * g * c, out=jac[:, 0])
    s *= u
    u *= q
    q *= res.kappa_e / 2.0
    q -= s  # (kappa_e/2 - Fu)/(DS)
    np.multiply(q.real, c, out=jac[:, 2])
    np.multiply(u.real, c, out=jac[:, 1])
    jac[:, 1] += jac[:, 2]
    np.multiply(q.imag, -2.0 * c, out=jac[:, 3])
    return jac


def _noise_model(T, g_tot, n_add, omega):
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
    return _finite(lambda: power_linear(y_db),
                   lambda _: f"a gain of {np.max(y_db):g} dB overflows as a linear power")


def _width_above(f, y, level) -> float:
    """Span of f between the first and last sample with y above level,
    at least one grid step: the half-maximum width that seeds a fit."""
    above = np.where(y > level)[0]
    return max(float(f[above[-1]] - f[above[0]]), float(f[1] - f[0]))


def fit_reflection(trace: Trace) -> FitResult:
    """Resonance parameters {f0_hz, kappa_e_hz, kappa_i_hz} from a complex
    reflection trace, model S11(f) = eta*k / (k/2 - i(f - f0)) - 1.

    Initialization: f0 at the |S11| minimum, kappa from the width of
    the 1-|S11|^2 dip, eta from the dip depth. Residuals are the stacked
    real and imaginary parts.
    """
    _require_trace(trace, "reflection", "fit_reflection", "reflection trace")
    f = trace.x
    y = trace.y

    def overflow(_):
        return f"reflection fit overflows at its start (|S11| up to {np.max(np.abs(y)):g})"

    dip = _finite(lambda: 1.0 - np.abs(y) ** 2, overflow)
    peak = float(dip.max())
    if peak < 1e-9:
        raise IllConditioned("no resonance dip in the reflection trace")
    i0 = int(np.argmin(np.abs(y)))
    f0 = float(f[i0])
    kappa_hz = _width_above(f, dip, peak / 2.0)
    eta = (1.0 + float(np.real(y[i0]))) / 2.0
    eta = min(max(eta, 0.05), 0.995)
    p0 = [f0, eta * kappa_hz, (1.0 - eta) * kappa_hz]
    span = float(f[-1] - f[0])
    scale = np.array([span, p0[1] + p0[2], p0[1] + p0[2]])

    offsets = _offsets_per_center()

    def residuals(p):
        model = _reflection_model(f, *p, offsets)
        np.subtract(model, y, out=model)
        return np.concatenate([model.real, model.imag])

    def jacobian(p):
        return _reflection_jacobian(f, *p, offsets)

    names = ("f0_hz", "kappa_e_hz", "kappa_i_hz")
    p, iterations, r = damped_least_squares(residuals, p0, scale=scale, overflow=overflow,
                                            jacobian=jacobian)
    return _result(residuals, p, iterations, r, scale, names, jacobian)


def fit_bias_sweep(trace: Trace) -> FitResult:
    """Zero-current resonance and scale current {f0_hz, i_star_a} from a
    bias sweep, by linear regression of frequency against current squared:

        f(I) = f0 - f0/(2 I*^2) * I^2

    Closed form, no iteration: the least-squares line through the centred
    x = I^2, which needs no rescaling however large the currents are.
    Uncertainties propagate from the regression covariance.
    """
    _require_trace(trace, "bias_shift", "fit_bias_sweep", "bias sweep")
    i_sq = _finite(lambda: trace.x.astype(float) ** 2, lambda _: (
        f"a bias current of {np.max(np.abs(trace.x)):g} A overflows when squared"))
    f = trace.y
    m = len(trace)

    def overflow(_):
        return (f"bias regression overflows (currents up to {np.max(np.abs(trace.x)):g} A, "
                f"frequencies up to {np.max(np.abs(f)):g} Hz)")

    def regression():
        # the mean of f about f[0]: its rounding error scales with the shift
        # in frequency, not with f0
        x_mean, f_mean = float(np.mean(i_sq)), float(f[0] + np.mean(f - f[0]))
        dx = i_sq - x_mean
        sxx = float(dx @ dx)
        if sxx == 0.0:
            raise IllConditioned("bias sweep has no current variation")
        slope = float(dx @ (f - f_mean)) / sxx
        return f_mean - slope * x_mean, slope, x_mean, f_mean, sxx

    f0, slope, x_mean, f_mean, sxx = _finite(regression, overflow)
    if f0 <= 0 or slope >= 0:
        raise NonPhysical(
            f"bias regression gives f0={f0:g} Hz, slope={slope:g} Hz/A^2; "
            "expected a downward quadratic shift"
        )

    def spread():
        resid = f - (f0 + slope * i_sq)
        ssr = float(resid @ resid)
        s2 = ssr / (m - 2)
        i_star = math.sqrt(-f0 / (2.0 * slope))
        # var f0 = s2 (1/m + x_mean^2/sxx) and var slope = s2/sxx; through
        # dI*/df0 = I*/(2 f0) and dI*/dslope = -I*/(2 slope), and as
        # f0 + slope x_mean = f_mean, var I* = (I*/(2 f0))^2 s2 (1/m + (f_mean/slope)^2/sxx)
        sigma_f0 = math.sqrt(s2 * (1.0 / m + x_mean**2 / sxx))
        sigma_i = i_star / (2.0 * f0) * math.sqrt(s2 * (1.0 / m + (f_mean / slope) ** 2 / sxx))
        return i_star, sigma_f0, sigma_i, math.sqrt(ssr / m)

    i_star, sigma_f0, sigma_i, rms = _finite(spread, overflow)
    return FitResult(
        params={"f0_hz": f0, "i_star_a": i_star},
        sigma={"f0_hz": sigma_f0, "i_star_a": sigma_i},
        residual_rms=rms,
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
    unit_sq = _finite(lambda: unit**2, f"a frequency span of {span:g} Hz overflows when squared")

    def overflow(_):
        return (f"gain fit overflows estimating its starts (gain up to {np.max(y_db):g} dB, "
                f"frequencies up to {np.max(np.abs(f)):g} Hz)")

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
        def weighted_design():
            weight = 1.0 / (1.0 + w**4)
            design = np.column_stack([w**2, np.ones_like(w), -y_lin * w**2, -y_lin])
            return design * weight[:, None], (y_lin - 1.0) * w**4 * weight

        # an inf or NaN reaching LAPACK makes it print to stderr and raise
        coef, *_ = np.linalg.lstsq(*_finite(weighted_design, overflow), rcond=None)
        a, b, c, d = (float(v) for v in coef)
        s = math.sqrt(max(d, 0.0))
        kappa_sq = (c + 2.0 * s) * unit_sq
        if not kappa_sq > 0:
            return
        kappa = kappa_hint if kappa_hint else math.sqrt(kappa_sq)
        g = math.sqrt(max(kappa_sq / 4.0 - s * unit_sq, 0.0))
        g = min(g, 0.98 * kappa / 2.0)  # keep the start strictly stable
        # A = eta k^2/2 - k^2/4 + g^2 is known only as A^2, so both sign
        # branches become candidates; the caller decides by the residual
        etas = []
        for amp in (math.sqrt(max(b, 0.0)), -math.sqrt(max(b, 0.0))):
            t = (a * unit_sq - 2.0 * amp * unit_sq) / kappa_sq
            if t < 0:
                continue
            candidate = 1.0 - math.sqrt(t)
            if 0.0 < candidate <= 1.0:
                etas.append(candidate)
        for eta in etas + [0.6, 0.8, 0.95]:
            starts.append((g, eta * kappa, (1.0 - eta) * kappa, center))

    centroid = _finite(lambda: float(np.sum(f * deviation) / np.sum(deviation)), overflow)
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
    their residual and the few best with a finite one are each refined;
    the lowest final residual wins (a weak noisy dip has competing local
    minima that the starting residual alone cannot rank). With no such
    start, the error at the best-ranked one is raised. kappa_hint [Hz] overrides the
    seeded linewidths. The profile is even in the pump rate, so g is
    reported as a magnitude.

    Raises UnstableFit when the converged pump rate sits on the
    oscillation boundary g = kappa/2 (reported, not clamped).
    """
    _require_trace(trace, "gain_db", "fit_gain_profile", "gain profile")
    f = trace.x
    y_db = trace.y.astype(float)
    span = float(f[-1] - f[0])

    offsets = _offsets_per_center()

    def residuals(p):
        model = _gain_model_db(f, *p, offsets)
        return np.subtract(model, y_db, out=model)

    def jacobian(p):
        return _gain_jacobian(f, *p, offsets)

    def start_cost(start):
        try:
            r = residuals(np.array(start))
        except _INFEASIBLE:
            return math.inf
        return float(r @ r)

    # a weak noisy profile has competing local minima (true working point,
    # g ~ 0 dip, flat response); initial residuals cannot always rank the
    # basins, so the few best feasible candidates are each refined and the
    # lowest final residual wins
    starts = _gain_profile_starts(f, y_db, kappa_hint)

    def ranked_starts():
        """The starts with a finite cost, best first. With none, raises what
        rules out the best-ranked start, or returns its non-finite cost."""
        costs = [start_cost(start) for start in starts]
        order = sorted(range(len(starts)), key=costs.__getitem__)
        candidates = [starts[i] for i in order if math.isfinite(costs[i])]
        if candidates:
            return candidates
        residuals(np.array(starts[order[0]]))
        return costs[order[0]]

    def no_finite_start(_):
        return f"gain fit has no finite residual at any start (gain down to {np.min(y_db):g} dB)"

    # one guard over the whole ranking: a cost that overflows is infinite, not a warning
    candidates = _finite(ranked_starts, no_finite_start)
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
            p, iterations, r = damped_least_squares(residuals, p0, scale=scale,
                                                    overflow=no_finite_start,
                                                    jacobian=jacobian)
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
    result = _result(residuals, p, iterations, r, scale, names, jacobian)
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
    if np.any(T <= 0):
        raise ValueError("temperatures must be > 0 for the noise model")
    y = trace.y.astype(float)

    def overflow(_):
        return (f"noise fit overflows at its start (noise density up to "
                f"{np.max(np.abs(y)):g} W/Hz at omega={omega:g} rad/s)")

    def start():  # Rayleigh-Jeans: N ~ G*k_B*T + G*hbar*w*n_add at high T
        if T[-1] * T[-1] == 0.0:  # polyfit's column scale would be 0, a NaN to LAPACK
            return math.nan
        upper = T >= np.median(T)  # full=True: a rank-deficient design is no warning
        slope = float(np.polyfit(T[upper], y[upper], 1, full=True)[0][0])
        g_tot0 = max(slope / k_B, 1.0)
        return g_tot0, float(np.mean(y / (g_tot0 * hbar * omega))
                             - np.mean(0.5 / np.tanh(hbar * omega / (2.0 * k_B * T))))

    g_tot0, n_add0 = _finite(start, overflow)
    p0 = [g_tot0, max(n_add0, 0.1)]
    scale = np.array([g_tot0, 1.0])

    def residuals(p):
        return _noise_model(T, p[0], p[1], omega) - y

    names = ("g_tot", "n_add")
    p, iterations, r = damped_least_squares(residuals, p0, scale=scale, overflow=overflow)
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
    y_lin = _linear_power(y_db)
    peaks = ampcore.find_peaks_db(y_db, prominence_db=3.0)
    if len(peaks) == 0:
        raise NoPeak("no peak with 3 dB prominence on the grid")
    if len(peaks) > 1:
        raise NoPeak(f"{len(peaks)} prominent peaks on the grid; expected one")
    i_peak = peaks[0]
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
    p, iterations, r = damped_least_squares(residuals, p0, scale=scale, overflow=lambda _: (
        f"Lorentzian fit overflows at its start (gain up to {np.max(y_db):g} dB)"))
    return _result(residuals, p, iterations, r, scale, names)
