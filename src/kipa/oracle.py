"""Independent numerical verification of the closed-form gain factors.

Two routes, both free of the closed forms:

* a frequency-domain transfer-matrix solve M(w) = C A(w)^-1 B - D built
  directly from the linear equations of motion (the seeded sweep
  :func:`transfer_equivalence` draws each field of all its working points
  as one array and solves them as one stack), and
* the fixed-step RK4 recurrence on the classical (mean-field) equation of
  motion, solved in closed form and demodulated in steady state: memory
  O(window steps), time O(window steps + log settle steps).

State ordering is [a, a+] for one mode and [a, b, a+, b+] for two; input
ordering pairs each mode's extrinsic and intrinsic ports, annihilation
block first: [a_e, a_i, (b_e, b_i,) a_e+, a_i+, (b_e+, b_i+)].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import ampcore
from .errors import NotSettled, SingularAt
from .params import TWO_PI, CoupledSystem, ResonatorParams, _require_finite
from .prng import uniforms

_COND_LIMIT = 1e12

# (row, column) of the named entries of M(w).
SINGLE_SIGNAL = (0, 0)   # a_out <- a_e
SINGLE_IDLER = (0, 2)    # a_out <- a_e+
DOUBLE_A_SIGNAL = (0, 0)  # a_out <- a_e
DOUBLE_A_IDLER = (0, 6)   # a_out <- b_e+
DOUBLE_B_SIGNAL = (1, 2)  # b_out <- b_e
DOUBLE_B_IDLER = (1, 4)   # b_out <- a_e+


@dataclass(frozen=True, eq=False)
class SystemMatrices:
    """Constant matrices of the linear input-output system.

    A(w) = -i w I - drift; outputs are C x - D inputs.
    """

    drift: np.ndarray  # 2n x 2n
    B: np.ndarray      # 2n x 4n input coupling
    C: np.ndarray      # 2n x 2n diagonal output coupling
    D: np.ndarray      # 2n x 4n input selection

    def __post_init__(self):
        n2 = self.drift.shape[0]
        if self.drift.shape != (n2, n2):
            raise ValueError("drift must be square")
        if self.B.shape != (n2, 2 * n2) or self.D.shape != (n2, 2 * n2):
            raise ValueError("B and D must be 2n x 4n")
        if self.C.shape != (n2, n2):
            raise ValueError("C must be 2n x 2n")

    def a_of(self, omega: float) -> np.ndarray:
        """A(w) = -i w I - drift."""
        return _a_matrix(self.drift, omega)


def _a_matrix(drift, omega) -> np.ndarray:
    """A(w) = -i w I - drift for one drift matrix or a stack of them, with
    one omega per matrix."""
    return -1j * np.asarray(omega)[..., None, None] * np.eye(drift.shape[-1]) - drift


def single_mode_matrices(
    res: ResonatorParams, g: float, delta: float = 0.0, phi_p: float = 0.0
) -> SystemMatrices:
    """Matrices of the single pumped mode, state [a, a+]."""
    return SystemMatrices(_single_drift(res.kappa, g, delta, phi_p),
                          *_io_matrices([res.kappa_e], [res.kappa_i]))


def double_mode_matrices(
    system: CoupledSystem,
    g: float,
    delta_a: float = 0.0,
    delta_b: float = 0.0,
    phi_p: float = 0.0,
) -> SystemMatrices:
    """Matrices of the coupled pair, state [a, b, a+, b+]; the parametric
    drive acts on mode a only."""
    a, b = system.mode_a, system.mode_b
    return SystemMatrices(ampcore.bare_drift(system, g, delta_a, delta_b, phi_p),
                          *_io_matrices([a.kappa_e, b.kappa_e], [a.kappa_i, b.kappa_i]))


def _single_drift(kappa, g, delta, phi_p) -> np.ndarray:
    """Drift of one pumped mode, state [a, a+]: the [a, a+] block of the
    pair drift at J = 0. Arguments broadcast, shape ``(..., 2, 2)``."""
    return ampcore._pair_drift(kappa, kappa, 0.0, g, delta, delta, phi_p)[..., ::2, ::2]


def _io_matrices(kappa_e, kappa_i):
    """(B, C, D) of n modes from their extrinsic and intrinsic rates along
    the last axis (shape ``(..., n)``; leading axes stack systems): state
    row r couples to inputs 2r (extrinsic) and 2r + 1 (intrinsic)."""
    se, si = (np.sqrt(np.concatenate([k, k], axis=-1))[..., None]
              for k in (kappa_e, kappa_i))
    n2 = se.shape[-2]
    ports = np.eye(2 * n2, dtype=complex)
    B = se * ports[::2] + si * ports[1::2]
    return B, se * np.eye(n2, dtype=complex), np.eye(2 * n2)[::2]


def matrix_transfer(sysm: SystemMatrices, omega: float) -> np.ndarray:
    """Transfer matrix M(w) = C A(w)^-1 B - D by direct linear solve.

    Raises SingularAt when the conditioning of A(w) exceeds 1e12.
    """
    return _transfer(sysm.drift, sysm.B, sysm.C, sysm.D, omega)


def _transfer(drift, B, C, D, omega) -> np.ndarray:
    """M(w) of one system, or of a stack of systems (leading axis of every
    matrix, one omega each) by one stacked condition check and one stacked
    solve. Raises SingularAt for the first system whose A(w) has a
    condition number above 1e12 or not finite."""
    omega = np.asarray(omega, dtype=float)
    A = _a_matrix(drift, omega)
    cond = np.linalg.cond(A)
    bad = np.flatnonzero(~(cond <= _COND_LIMIT))
    if len(bad):
        i = bad[0]
        raise SingularAt(float(np.ravel(omega)[i]), float(np.ravel(cond)[i]))
    return C @ np.linalg.solve(A, B) - D


def commutation_residual(
    res: ResonatorParams,
    g: float,
    omega: float,
    delta: float = 0.0,
    phi_p: float = 0.0,
) -> float:
    """Relative residual of the output-field commutation identity

        |G_I|^2 (1 + (1-eta)/eta)
            = |G_S|^2 + ((1-eta)/eta) |G_S + 1|^2 - 1

    which any bosonic-commutation-preserving linear amplifier must obey.
    Zero (to rounding) throughout the stable region; for eta = 1 it
    collapses to |G_I|^2 = |G_S|^2 - 1.
    """
    signal, idler = ampcore.single_mode_gain(res, g, delta, phi_p, [omega])
    gs = signal.values[0]
    gi = idler.values[0]
    ratio = (1.0 - res.eta) / res.eta
    lhs = abs(gi) ** 2 * (1.0 + ratio)
    rhs = abs(gs) ** 2 + ratio * abs(gs + 1.0) ** 2 - 1.0
    return (lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


# ---------------------------------------------------------------------------
# Time-domain steady-state check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeDomainRun:
    """One classical mean-field run of the single pumped mode.

    The drive is a coherent input s_in(t) = drive_amp * exp(-i drive_freq t)
    replacing the noise operators. Construction requires finite fields, a
    stable working point and settle_time >= 10 / (stability margin).
    """

    res: ResonatorParams
    g: float
    delta: float          # mode detuning from half the pump [rad/s]
    phi_p: float          # pump phase [rad]
    drive_freq: float     # probe offset from half the pump [rad/s]
    drive_amp: complex    # probe amplitude (arbitrary units)
    step: float           # integrator step [s]
    settle_time: float    # discarded transient [s]
    sample_time: float    # demodulation window [s]

    def __post_init__(self):
        _require_finite(self, "g", "delta", "phi_p", "drive_freq", "step",
                        "settle_time", "sample_time")
        if not cmath.isfinite(self.drive_amp):
            raise ValueError(f"drive_amp must be finite, got {self.drive_amp!r}")
        if not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step!r}")
        if not self.sample_time > 0:
            raise ValueError("sample_time must be > 0")
        if self.drive_amp == 0:
            raise ValueError("drive_amp must be nonzero")
        stab = ampcore.stability_single(self.res, self.g)
        if not stab.stable:
            raise ValueError(
                f"time-domain run requires a stable working point "
                f"(margin {stab.margin:g} rad/s)"
            )
        if self.settle_time < 10.0 / stab.margin:
            raise ValueError(
                f"settle_time must be >= 10/margin = {10.0 / stab.margin:g} s"
            )


def make_run(
    res: ResonatorParams,
    g: float,
    delta: float = 0.0,
    phi_p: float = 0.0,
    drive_freq: float = 0.0,
    drive_amp: complex = 1.0,
    step: float | None = None,
    settle_time: float | None = None,
    sample_time: float | None = None,
) -> TimeDomainRun:
    """TimeDomainRun with the default step and window policy.

    step = 1 / (50 * max(kappa, |delta| + |drive_freq|, g)) for
    deterministic reproducibility; settle_time = 20/margin; the sample
    window covers at least four drive periods and 20/kappa.
    """
    rate = max(res.kappa, abs(delta) + abs(drive_freq), g)
    if step is None:
        step = 1.0 / (50.0 * rate)
    if settle_time is None:
        margin = ampcore.stability_single(res, g).margin
        if margin <= 0:
            raise ValueError("cannot build a run above the oscillation threshold")
        settle_time = 20.0 / margin
    if sample_time is None:
        sample_time = 20.0 / res.kappa
        if drive_freq != 0.0:
            sample_time = max(sample_time, 4.0 * 2.0 * math.pi / abs(drive_freq))
    return TimeDomainRun(
        res=res, g=g, delta=delta, phi_p=phi_p, drive_freq=drive_freq,
        drive_amp=drive_amp, step=step, settle_time=settle_time,
        sample_time=sample_time,
    )


@dataclass(frozen=True)
class TimeDomainGain:
    signal_gain: float    # power ratio at the drive frequency
    idler_gain: float     # power ratio at the mirrored frequency
    signal_amp: complex   # complex signal amplitude ratio
    idler_amp: complex    # complex idler amplitude ratio, probe-referenced


def _rk4_window(run: TimeDomainRun) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample times t_n = n h over the sample window and the output
    s_out = sqrt(k_e) a - s_in as its (signal, idler) parts, from the
    fixed-step RK4 recurrence solved in closed form.

    The mean-field equation of motion

        da/dt = -(i delta + k/2) a - i g e^{i phi_p} a* + sqrt(k_e) s_in,

    with s_in = amp*exp(-i w_d t) and a(0) = 0, reads dx/dt = M x + f(t)
    on x = [a, a*], M the mode's drift. On a linear system one RK4 step of
    size h is exactly

        x_{n+1} = P x_n + Q0 f(t_n) + Qm f(t_n + h/2) + Q1 f(t_n + h),

    with A = hM, P = I + A + A^2/2 + A^3/6 + A^4/24 (the RK4 stability
    polynomial), Q0 = h/6 (I + A + A^2/2 + A^3/4), Qm = h/6 (4I + 2A + A^2/2)
    and Q1 = h/6 I. The step's drive is F z^n + G conj(z)^n with
    z = exp(-i w_d h), so x_n is the sum of the responses to the two
    drive columns, the signal and the idler:

        P^n (-X) + X z^n,        (z I - P) X = F,
        P^n (-Y) + Y conj(z)^n,  (conj(z) I - P) Y = G.

    Only the window n_settle <= n <= n_settle + n_window is built:
    P^n_settle by repeated squaring and the a-row of P^j, which both
    share, over the window by doubling, so memory is O(n_window) and time
    O(n_window + log n_settle). Raises ValueError where h lies outside
    RK4's stability region: P^n grows.
    """
    wd = run.drive_freq
    amp = complex(run.drive_amp)
    sqrt_ke = math.sqrt(run.res.kappa_e)

    # step commensurate with the drive period; even number of whole
    # periods in the sample window so the half-window check is unbiased
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

    eye = np.eye(2)
    A = h * _single_drift(run.res.kappa, run.g, run.delta, run.phi_p)
    P = eye + A @ (eye + A @ (eye + A @ (eye + A / 4.0) / 3.0) / 2.0)
    radius = float(np.max(np.abs(np.linalg.eigvals(P))))
    if not radius < 1.0:
        raise ValueError(f"step h={h:g} s is outside the RK4 stability region "
                         f"(spectral radius {radius:g} of the step polynomial)")
    q0 = h / 6.0 * (eye + A @ (eye + A @ (eye + A / 2.0) / 2.0))
    qm = h / 6.0 * (4.0 * eye + A @ (2.0 * eye + A / 2.0))
    q1 = h / 6.0 * eye
    z, z_mid = cmath.exp(-1j * wd * h), cmath.exp(-0.5j * wd * h)
    # f(t) = c e^{-i wd t} on the a row plus its conjugate on the a* row
    c = sqrt_ke * amp
    F = c * (q0 + z_mid * qm + z * q1)[:, 0]
    G = c.conjugate() * (q0 + z_mid.conjugate() * qm + z.conjugate() * q1)[:, 1]
    X, Y = np.linalg.solve(np.array([z * eye - P, z.conjugate() * eye - P]),
                           np.array([F, G])[..., None])[..., 0]

    times = np.arange(n_settle, n_settle + n_window + 1) * h
    phase = np.exp(-1j * wd * times)
    # a-row of P^j times P^n_settle (-X) and P^n_settle (-Y): both transients
    start = np.linalg.matrix_power(P, n_settle) @ -np.array([X, Y]).T
    transient = _orbit(P.T, eye[0], n_window + 1) @ start
    signal = sqrt_ke * (transient[:, 0] + X[0] * phase) - amp * phase
    idler = sqrt_ke * (transient[:, 1] + Y[0] * phase.conj())
    return times, signal, idler


def _orbit(P: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """Rows P^j v for j = 0 .. count - 1, by doubling: once m rows are
    filled, the first m rows times P^m give the next m."""
    rows = np.empty((count, len(v)), dtype=complex)
    rows[0] = v
    m, power = 1, P
    while m < count:
        k = min(m, count - m)
        np.matmul(rows[:k], power.T, out=rows[m : m + k])
        m, power = m + k, power @ power
    return rows


def time_domain_gain(run: TimeDomainRun) -> TimeDomainGain:
    """Steady-state signal and idler gains from the classical mean-field
    response.

    One solve (:func:`_rk4_window`) gives the window's output split into
    its signal part, linear in the drive, and its idler part, linear in
    its conjugate, so every probe offset takes one run, the resonant probe
    (drive_freq = 0) included. The signal is projected onto exp(+i w_d t)
    and the idler onto exp(-i w_d t) by trapezoid demodulation on a step
    grid commensurate with the drive period (integer periods, so the
    projection error is negligible next to the integrator's O(h^4)). The
    interference (phase-sensitive) gain of any probe phase psi is
    |signal_amp + idler_amp * e^{i psi}|^2.

    Raises NotSettled when either demodulated mean drifts by more than
    0.1% of max(output scale, |drive|) between the two halves of the
    sample window: the leftover transient scales with the drive, so a
    physically null output (e.g. the idler with the pump off) settles.
    """
    amp = complex(run.drive_amp)
    times, signal, idler = _rk4_window(run)
    n = len(times) - 1
    phasor = np.exp(1j * run.drive_freq * times)

    def demod(integrand, lo: int, hi: int) -> complex:
        # uniform-grid trapezoid over whole periods: spectrally accurate
        part = integrand[lo : hi + 1]
        return complex((part.sum() - (part[0] + part[-1]) / 2.0) / (hi - lo))

    halves = [(demod(x, 0, n), demod(x, 0, n // 2), demod(x, n // 2, n))
              for x in (signal * phasor, idler * phasor.conj())]
    (sig, *_), (idl, *_) = halves
    ref = max(abs(sig), abs(idl), abs(amp))
    if any(abs(second - first) / ref > 1e-3 for _, first, second in halves):
        raise NotSettled("demodulated amplitude drifts by more than 0.1% across the "
                         "sample window; increase settle_time")
    s_ratio, i_ratio = sig / amp, idl / amp
    return TimeDomainGain(signal_gain=abs(s_ratio) ** 2, idler_gain=abs(i_ratio) ** 2,
                          signal_amp=s_ratio, idler_amp=i_ratio)


# ---------------------------------------------------------------------------
# Seeded random stable draws (the oracle-check subcommand)
# ---------------------------------------------------------------------------

def transfer_equivalence(draws: int, seed: int) -> dict:
    """Max relative error between the closed-form gain factors and the
    transfer-matrix solve over seeded random draws.

    The single-mode draws are stable. The pair draws keep g below 0.9 of
    the pair's threshold (:func:`kipa.ampcore.stability_double`), which is
    exact at zero detunings only; the draws are detuned, so some
    self-oscillate, and there both routes evaluate the same rational M(w),
    which is then no steady state.

    Each draw checks the single-mode signal/idler pair and all four
    bare-mode gain factors of an independently drawn coupled pair. Draw k
    takes outputs 19k .. 19k + 18 of one SplitMix64 stream: 7 for the
    single mode, then 12 for the pair. Each field is one column of the
    (draws, 19) array of those outputs, so every draw is made at once; the
    closed forms are evaluated over all draws at once and the transfer
    matrices solved as one stack per mode count.
    """
    report = {"draws": draws, "seed": seed,
              "max_rel_err_single": 0.0, "max_rel_err_double": 0.0}
    if draws <= 0:
        return report
    columns = iter(uniforms(seed, 19 * draws).reshape(draws, 19).T)

    def uniform(low, high):
        return low + (high - low) * next(columns)

    def log_uniform(low, high):
        # Python's 10.0 ** x per draw: np.power does not match it bit for bit
        return np.array([10.0 ** x for x in uniform(low, high).tolist()])

    # single mode; eta spans [0.5, 1). Each rate is a positive map of
    # [0, 1), so every draw passes the value types' checks by construction;
    # the resonance frequencies take their outputs but enter no gain factor
    kappa_e = TWO_PI * log_uniform(5.0, 8.0)
    kappa_i = kappa_e * uniform(0.0, 1.0)
    next(columns)  # omega0
    kappa = kappa_e + kappa_i
    g = uniform(0.0, 0.98) * kappa / 2.0
    delta = uniform(-2.0, 2.0) * kappa
    phi_p = uniform(0.0, TWO_PI)
    omega = uniform(-3.0, 3.0) * kappa

    # coupled pair; the pump rate stays below the pair's threshold
    modes = []
    for _ in range(2):
        mode_e = TWO_PI * log_uniform(5.0, 8.0)
        next(columns)  # omega0
        modes.append((mode_e, mode_e * uniform(0.0, 1.0)))
    (kappa_ae, kappa_ai), (kappa_be, kappa_bi) = modes
    kappa_a, kappa_b = kappa_ae + kappa_ai, kappa_be + kappa_bi
    J = kappa_a * log_uniform(-0.5, 1.5)
    pair = ampcore._double_stability(kappa_ae, kappa_ai, kappa_be, kappa_bi, J, 0.0)
    g2 = uniform(0.0, 0.9) * pair.threshold
    delta_a = uniform(-2.0, 2.0) * kappa_a
    delta_b = uniform(-2.0, 2.0) * kappa_b
    phi_p2 = uniform(0.0, TWO_PI)
    omega2 = uniform(-1.0, 1.0) * (2.0 * J + 2.0 * kappa_a)

    ampcore._require_stable(ampcore._single_stability(kappa, g), g)
    ampcore._require_stable(pair, g2)

    m = _transfer(_single_drift(kappa, g, delta, phi_p),
                  *_io_matrices(kappa_e[:, None], kappa_i[:, None]), omega)
    report["max_rel_err_single"] = _max_rel_err(
        ampcore._single_mode_factors(kappa, kappa_e / kappa, g, delta, phi_p,
                                     ampcore._grid_terms(omega)),
        m, (SINGLE_SIGNAL, SINGLE_IDLER),
    )
    m = _transfer(
        ampcore._pair_drift(kappa_a, kappa_b, J, g2, delta_a, delta_b, phi_p2),
        *_io_matrices(np.stack([kappa_ae, kappa_be], axis=-1),
                      np.stack([kappa_ai, kappa_bi], axis=-1)),
        omega2,
    )
    report["max_rel_err_double"] = _max_rel_err(
        ampcore._bare_factors(kappa_a, kappa_b, kappa_ae, kappa_be, J, g2,
                              delta_a, delta_b, phi_p2, omega2),
        m, (DOUBLE_A_SIGNAL, DOUBLE_A_IDLER, DOUBLE_B_SIGNAL, DOUBLE_B_IDLER),
    )
    return report


def _max_rel_err(closed, m: np.ndarray, entries) -> float:
    """Largest |closed - entry| / |entry| between each closed-form factor
    and its (row, column) entry of the stacked M(w). The moduli use hypot,
    which matches the scalar abs() of a complex to the last bit (numpy's
    vectorised complex abs may not)."""
    entry = np.array([m[(...,) + index] for index in entries])
    d = np.array(closed) - entry
    err = np.hypot(d.real, d.imag) / np.maximum(np.hypot(entry.real, entry.imag), 1e-30)
    return err.max()
