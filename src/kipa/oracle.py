"""Independent numerical verification of the closed-form gain factors.

Two routes, both free of the closed forms:

* a frequency-domain transfer-matrix solve M(w) = C A(w)^-1 B - D built
  directly from the linear equations of motion (the seeded sweep
  :func:`transfer_equivalence` makes all its draws first and solves them
  as one stack), and
* a time-domain fixed-step integration of the classical (mean-field)
  equation of motion, demodulated in steady state.

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
from .params import CoupledSystem, ResonatorParams, _require_finite
from .prng import SplitMix64

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
    k = res.kappa
    gp = 1j * g * cmath.exp(1j * phi_p)  # a-row coupling is -gp, a+-row is +conj(-gp)
    drift = np.array(
        [
            [-(1j * delta + k / 2.0), -gp],
            [-np.conj(gp), 1j * delta - k / 2.0],
        ],
        dtype=complex,
    )
    se, si = math.sqrt(res.kappa_e), math.sqrt(res.kappa_i)
    B = np.array(
        [[se, si, 0.0, 0.0], [0.0, 0.0, se, si]], dtype=complex
    )
    C = se * np.eye(2, dtype=complex)
    D = np.zeros((2, 4))
    D[0, 0] = 1.0
    D[1, 2] = 1.0
    return SystemMatrices(drift=drift, B=B, C=C, D=D)


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
    drift = ampcore.bare_drift(system, g, delta_a, delta_b, phi_p)
    sae, sai = math.sqrt(a.kappa_e), math.sqrt(a.kappa_i)
    sbe, sbi = math.sqrt(b.kappa_e), math.sqrt(b.kappa_i)
    B = np.zeros((4, 8), dtype=complex)
    B[0, 0], B[0, 1] = sae, sai
    B[1, 2], B[1, 3] = sbe, sbi
    B[2, 4], B[2, 5] = sae, sai
    B[3, 6], B[3, 7] = sbe, sbi
    C = np.diag([sae, sbe, sae, sbe]).astype(complex)
    D = np.zeros((4, 8))
    D[0, 0], D[1, 2], D[2, 4], D[3, 6] = 1.0, 1.0, 1.0, 1.0
    return SystemMatrices(drift=drift, B=B, C=C, D=D)


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

    @property
    def margin(self) -> float:
        return ampcore.stability_single(self.res, self.g).margin


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


def _steady_output(run: TimeDomainRun, amp: complex) -> complex:
    """Demodulated steady-state output for one coherent drive amplitude.

    Fixed-step RK4 on the mean-field equation of motion

        da/dt = -(i delta + k/2) a - i g e^{i phi_p} a* + sqrt(k_e) s_in

    with s_in = amp*exp(-i w_d t). The settle window is discarded, then
    s_out = sqrt(k_e) a - s_in is projected onto exp(+-i w_d t) by
    trapezoid demodulation on a step grid commensurate with the drive
    period (integer periods, so the projection error is negligible next
    to the integrator's O(h^4)). Returns the complex pair
    (signal component at w_d, conjugate component at -w_d).

    Raises NotSettled when either demodulated mean drifts by more than
    0.1% between the two halves of the sample window.
    """
    res, g = run.res, run.g
    wd = run.drive_freq
    sqrt_ke = math.sqrt(res.kappa_e)
    decay = 1j * run.delta + res.kappa / 2.0
    pump = 1j * g * cmath.exp(1j * run.phi_p)

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

    # RK4 on da/dt = -decay*a - pump*conj(a) + sqrt_ke*amp*exp(-i wd t),
    # inlined; each drive phasor is computed once and reused (t + h of one
    # step is the t of the next, and the output sample at t uses it too)
    neg_decay = -decay
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
        k1 = neg_decay * a - pump * a.conjugate() + drive
        b = a + h2 * k1
        k2 = neg_decay * b - pump * b.conjugate() + drive_mid
        b = a + h2 * k2
        k3 = neg_decay * b - pump * b.conjugate() + drive_mid
        b = a + h * k3
        k4 = neg_decay * b - pump * b.conjugate() + drive_next
        a = a + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        s_in, drive = s_in_next, drive_next

    def demod(sign: float, lo: int, hi: int) -> complex:
        # uniform-grid trapezoid over whole periods: spectrally accurate
        integrand = s_out[lo : hi + 1] * np.exp(sign * 1j * wd * times[lo : hi + 1])
        total = integrand.sum() - (integrand[0] + integrand[-1]) / 2.0
        return complex(total / (hi - lo))

    half = n_window // 2
    signs = (+1.0,) if wd == 0.0 else (+1.0, -1.0)  # projections coincide at wd=0
    results = [
        (demod(sign, 0, n_window), demod(sign, 0, half), demod(sign, half, n_window))
        for sign in signs
    ]
    # drift is judged against the overall output scale, so a physically
    # null component (e.g. the idler with the pump off) cannot trip it
    ref = max(max(abs(full) for full, _, _ in results), abs(amp) * 1e-9)
    for full, first, second in results:
        if abs(second - first) / ref > 1e-3:
            raise NotSettled(
                "demodulated amplitude drifts by more than 0.1% across the "
                "sample window; increase settle_time"
            )
    if wd == 0.0:
        return results[0][0]
    return results[0][0], results[1][0]


def time_domain_gain(run: TimeDomainRun) -> TimeDomainGain:
    """Steady-state signal and idler power gains from the classical
    mean-field response.

    For a detuned probe (drive_freq != 0) one run separates the signal
    (response at the drive frequency) from the idler (response at the
    mirrored frequency).

    For a resonant probe (drive_freq = 0) the two responses overlap, so
    two runs with quadrature probe phases are combined: the sum and
    difference of out/amp over probes amp and i*amp isolate the signal
    and idler amplitude ratios. The interference (phase-sensitive) gain
    of any probe phase psi is |signal_amp + idler_amp * e^{i psi}|^2.
    """
    amp = complex(run.drive_amp)
    if run.drive_freq != 0.0:
        a_sig, a_idl = _steady_output(run, amp)
        s_ratio = a_sig / amp
        i_ratio = a_idl / amp
    else:
        out_i = _steady_output(run, amp)
        out_q = _steady_output(run, 1j * amp)
        u = out_i / amp
        v = out_q / (1j * amp)
        s_ratio = (u + v) / 2.0
        i_ratio = (u - v) / 2.0
    return TimeDomainGain(
        signal_gain=abs(s_ratio) ** 2,
        idler_gain=abs(i_ratio) ** 2,
        signal_amp=s_ratio,
        idler_amp=i_ratio,
    )


# ---------------------------------------------------------------------------
# Seeded random stable draws (shared by the oracle-check subcommand and
# the equivalence test sweeps)
# ---------------------------------------------------------------------------

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
    """Random stable coupled-pair working point.

    The pump rate stays below both the coupled-system threshold and the
    collective-pair threshold so that no real-frequency pole can sit on
    the sampled axis.
    """
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
    g_cap = min(
        ampcore.stability_double(system, 0.0).threshold,
        ampcore.pair_threshold(system),
    )
    return DoubleModeCase(
        system=system,
        g=rng.uniform(0.0, 0.9) * g_cap,
        delta_a=rng.uniform(-2.0, 2.0) * mode_a.kappa,
        delta_b=rng.uniform(-2.0, 2.0) * mode_b.kappa,
        phi_p=rng.uniform(0.0, 2.0 * math.pi),
        omega=rng.uniform(-1.0, 1.0) * (2.0 * J + 2.0 * mode_a.kappa),
    )


def transfer_equivalence(draws: int, seed: int) -> dict:
    """Max relative error between the closed-form gain factors and the
    transfer-matrix solve over seeded random stable draws.

    Each draw checks the single-mode signal/idler pair and all four
    bare-mode gain factors of an independently drawn coupled pair. All
    cases are drawn first (single, double, single, ... from one
    SplitMix64 stream); the closed forms are then evaluated over all
    draws at once and the transfer matrices solved as one stack per
    mode count.
    """
    rng = SplitMix64(seed)
    singles, doubles = [], []
    for _ in range(draws):
        singles.append(draw_single_case(rng))
        doubles.append(draw_double_case(rng))
    report = {"draws": draws, "seed": seed,
              "max_rel_err_single": 0.0, "max_rel_err_double": 0.0}
    if not singles:
        return report
    for c in singles:
        ampcore._require_stable(ampcore.stability_single(c.res, c.g), c.g)
    for c in doubles:
        ampcore._require_stable(ampcore.stability_double(c.system, c.g), c.g)

    kappa, eta = _columns([c.res for c in singles], "kappa", "eta")
    g, delta, phi_p, omega = _columns(singles, "g", "delta", "phi_p", "omega")
    m = _stacked_transfer(
        [single_mode_matrices(c.res, c.g, c.delta, c.phi_p) for c in singles], omega
    )
    report["max_rel_err_single"] = _max_rel_err(
        ampcore._single_mode_factors(kappa, eta, g, delta, phi_p, omega),
        m, (SINGLE_SIGNAL, SINGLE_IDLER),
    )

    systems = [c.system for c in doubles]
    kappa_a, kappa_ae = _columns([s.mode_a for s in systems], "kappa", "kappa_e")
    kappa_b, kappa_be = _columns([s.mode_b for s in systems], "kappa", "kappa_e")
    J = np.array([s.J for s in systems])
    g, delta_a, delta_b, phi_p, omega = _columns(
        doubles, "g", "delta_a", "delta_b", "phi_p", "omega"
    )
    m = _stacked_transfer(
        [double_mode_matrices(c.system, c.g, c.delta_a, c.delta_b, c.phi_p)
         for c in doubles],
        omega,
    )
    report["max_rel_err_double"] = _max_rel_err(
        ampcore._bare_factors(kappa_a, kappa_b, kappa_ae, kappa_be, J, g,
                              delta_a, delta_b, phi_p, omega),
        m, (DOUBLE_A_SIGNAL, DOUBLE_A_IDLER, DOUBLE_B_SIGNAL, DOUBLE_B_IDLER),
    )
    return report


def _columns(items, *names: str) -> list[np.ndarray]:
    """One array per attribute name, over ``items``."""
    return [np.array([getattr(item, name) for item in items]) for name in names]


def _stacked_transfer(matrices: list[SystemMatrices], omega) -> np.ndarray:
    """M(w) of every system, by one stacked solve."""
    return _transfer(*_columns(matrices, "drift", "B", "C", "D"), omega)


def _max_rel_err(closed, m: np.ndarray, entries) -> float:
    """Largest |closed - entry| / |entry| between each closed-form factor
    and its (row, column) entry of the stacked M(w). The moduli use hypot,
    which matches the scalar abs() of a complex to the last bit (numpy's
    vectorised complex abs may not)."""
    entry = np.array([m[(...,) + index] for index in entries])
    d = np.array(closed) - entry
    err = np.hypot(d.real, d.imag) / np.maximum(np.hypot(entry.real, entry.imag), 1e-30)
    return err.max()
