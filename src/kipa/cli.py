"""Command-line front end: gain/phase/double-mode sweeps, stability and
noise reports, trace fits, gain-bandwidth extraction and the closed-form
vs matrix-solve equivalence check.

Every invocation writes one JSON result record to stdout; ``--out``
additionally writes plot-ready CSV data. Exit codes: 0 success,
2 validation error, 3 numeric error (unstable regime, fit failure, ...),
1 internal error. ``KIPA_LOG`` in {quiet, info, debug} controls stderr
logging.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import ampcore, calfit, datio, noise, oracle
from .errors import (
    IllConditioned,
    KipaError,
    NoPeak,
    NonPhysical,
    NotConverged,
    NotSettled,
    ParseError,
    PoleAtFrequency,
    SchemaMismatch,
    SingularAt,
    UnitError,
    UnstableFit,
    UnstableRegime,
)
from .params import (
    ComplexSpectrum,
    CoupledSystem,
    angular_to_hz,
    hz_to_angular,
    power_db,
)

log = logging.getLogger("kipa")

_VALIDATION_ERRORS = (
    ParseError, SchemaMismatch, UnitError, ValueError,
    FileNotFoundError, IsADirectoryError,
)
_NUMERIC_ERRORS = (
    UnstableRegime, PoleAtFrequency, SingularAt, NotSettled, NotConverged,
    IllConditioned, UnstableFit, NoPeak, NonPhysical,
)


def emit_plot_data(spectrum: ComplexSpectrum, path, x_column: str = "freq_hz") -> None:
    """Write plot-ready CSV: ``freq_hz,gain_db`` (x converted rad/s -> Hz)
    or ``phase_rad,gain_db`` (x written as-is) per ``x_column``."""
    if x_column not in ("freq_hz", "phase_rad"):
        raise ValueError(f"unknown x column {x_column!r}")
    xs = angular_to_hz(spectrum.freqs) if x_column == "freq_hz" else spectrum.freqs
    lines = [f"{x_column},gain_db"]
    for x, gain in zip(xs, spectrum.power_db):
        lines.append(f"{float(x)!r},{float(gain)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


def _points(text: str) -> int:
    value = int(text)
    if value < 3:
        raise argparse.ArgumentTypeError(f"need at least 3 points, got {value}")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a positive count, got {value}")
    return value


def _single_mode_g(args, res) -> float:
    """Pump rate [rad/s] from --g-hz, --g-over-threshold, or the config pump."""
    threshold = ampcore.stability_single(res, 0.0).threshold
    if args.g_hz is not None:
        return hz_to_angular(args.g_hz)
    if args.g_over_threshold is not None:
        return args.g_over_threshold * threshold
    cfg = args._config
    return ampcore.pump_rate(cfg.pump, cfg.film, res.omega0)


def _pair_g(args, system) -> float:
    """Pump rate [rad/s] for coupled-pair commands; the threshold fraction
    refers to the collective-pair threshold sqrt(kappa_+ kappa_-)/2."""
    if args.g_hz is not None:
        return hz_to_angular(args.g_hz)
    if args.g_over_threshold is not None:
        return args.g_over_threshold * ampcore.pair_threshold(system)
    cfg = args._config
    return ampcore.pump_rate(cfg.pump, cfg.film, system.mode_a.omega0)


def _anticrossing_system(cfg) -> CoupledSystem:
    """The configured pair with the ring tuned onto the auxiliary mode
    (double-mode operation happens at the anticrossing)."""
    ring = cfg.ring
    tuned = type(ring)(
        omega0=cfg.auxiliary.omega0, kappa_e=ring.kappa_e, kappa_i=ring.kappa_i
    )
    return CoupledSystem(mode_a=tuned, mode_b=cfg.auxiliary, J=cfg.J)


def _print_record(args, outputs, warnings=()) -> None:
    inputs = {
        key: value
        for key, value in sorted(vars(args).items())
        if not key.startswith("_") and key != "func" and value is not None
    }
    record = datio.make_record(args._command, inputs, outputs, warnings)
    try:
        text = datio.record_to_json(record)
    except ValueError as exc:  # NaN or infinity: a numeric failure, not bad input
        raise NonPhysical(f"non-finite output: {exc}") from exc
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gain(args) -> int:
    cfg = args._config
    res = cfg.ring
    g = _single_mode_g(args, res)
    stab = ampcore.stability_single(res, g)
    half = hz_to_angular(args.span_hz) / 2.0
    grid = np.linspace(-half, half, args.points)
    delta = hz_to_angular(args.delta_hz)
    signal, idler = ampcore.single_mode_gain(res, g, delta, args.phi_rad, grid)
    gain_db = signal.power_db
    i_peak = int(np.argmax(gain_db))
    biased = res.omega0 + ampcore.bias_frequency_shift(
        res.omega0, cfg.pump.I_dc, cfg.film.I_star
    )
    if args.out:
        emit_plot_data(signal, args.out)
    _print_record(args, {
        "g_hz": (angular_to_hz(g), "Hz"),
        "threshold_hz": (angular_to_hz(stab.threshold), "Hz"),
        "margin_hz": (angular_to_hz(stab.margin), "Hz"),
        "peak_gain_db": (float(gain_db[i_peak]), "dB"),
        "peak_offset_hz": (float(angular_to_hz(grid[i_peak])), "Hz"),
        "biased_resonance_hz": (angular_to_hz(biased), "Hz"),
        "points": (args.points, "1"),
    })
    return 0


def cmd_phase(args) -> int:
    cfg = args._config
    res = cfg.ring
    g = _single_mode_g(args, res)
    phases = np.linspace(0.0, 2.0 * math.pi, args.points, endpoint=False)
    gains = ampcore.phase_sensitive_gain(res, g, phases)
    gains_db = power_db(gains)
    if args.out:
        sweep = ComplexSpectrum(phases, np.sqrt(gains).astype(complex))
        emit_plot_data(sweep, args.out, x_column="phase_rad")
    i_max, i_min = int(np.argmax(gains_db)), int(np.argmin(gains_db))
    _print_record(args, {
        "g_hz": (angular_to_hz(g), "Hz"),
        "max_gain_db": (float(gains_db[i_max]), "dB"),
        "max_at_rad": (float(phases[i_max]), "rad"),
        "min_gain_db": (float(gains_db[i_min]), "dB"),
        "min_at_rad": (float(phases[i_min]), "rad"),
        "points": (args.points, "1"),
    })
    return 0


def cmd_double_gain(args) -> int:
    cfg = args._config
    system = _anticrossing_system(cfg)
    g = _pair_g(args, system)
    if args.span_hz is not None:
        half = hz_to_angular(args.span_hz) / 2.0
    else:
        half = 3.0 * system.J + 3.0 * max(system.mode_a.kappa, system.mode_b.kappa)
    grid = np.linspace(-half, half, args.points)
    gains = ampcore.double_mode_gain_bare(system, g, 0.0, 0.0, args.phi_rad, grid)
    gain_db = gains.signal_a.power_db
    peaks = ampcore.find_peaks_db(gain_db, prominence_db=3.0)
    peak_offsets = [float(angular_to_hz(grid[i])) for i in peaks]
    separation = (
        max(peak_offsets) - min(peak_offsets) if len(peak_offsets) >= 2 else 0.0
    )
    if args.out:
        emit_plot_data(gains.signal_a, args.out)
    modes = ampcore.hybridize(system, form=cfg.hybridization_form)
    _print_record(args, {
        "g_hz": (angular_to_hz(g), "Hz"),
        "pair_threshold_hz": (angular_to_hz(ampcore.pair_threshold(system)), "Hz"),
        "j_hz": (angular_to_hz(system.J), "Hz"),
        "omega_plus_hz": (angular_to_hz(modes.omega_plus), "Hz"),
        "omega_minus_hz": (angular_to_hz(modes.omega_minus), "Hz"),
        "peak_count": (len(peaks), "1"),
        "peak_offsets_hz": (peak_offsets, "Hz"),
        "peak_separation_hz": (separation, "Hz"),
        "points": (args.points, "1"),
    })
    return 0


def cmd_regime_map(args) -> int:
    cfg = args._config
    system = _anticrossing_system(cfg)
    g = _pair_g(args, system)
    center = system.mode_a.omega0 + system.mode_b.omega0
    if args.pump_span_hz is not None:
        half = hz_to_angular(args.pump_span_hz) / 2.0
    else:
        half = 6.0 * system.J + 6.0 * max(system.mode_a.kappa, system.mode_b.kappa)
    pump_grid = center + np.linspace(-half, half, args.pump_points)
    result = ampcore.pump_regime_map(system, g, pump_grid)
    if args.out:
        finite = np.isfinite(result.peak_gains_db)
        sweep = ComplexSpectrum(
            result.pump_freqs[finite],
            np.sqrt(10.0 ** (result.peak_gains_db[finite] / 10.0)).astype(complex),
        )
        emit_plot_data(sweep, args.out)

    def hz_or_none(value):
        return angular_to_hz(value) if value is not None else None

    _print_record(args, {
        "g_hz": (angular_to_hz(g), "Hz"),
        "single_minus_pump_hz": (hz_or_none(result.single_minus), "Hz"),
        "double_pump_hz": (hz_or_none(result.double), "Hz"),
        "single_plus_pump_hz": (hz_or_none(result.single_plus), "Hz"),
        "outer_separation_hz": (hz_or_none(result.outer_separation), "Hz"),
        "four_j_hz": (angular_to_hz(4.0 * system.J), "Hz"),
    })
    return 0


def cmd_stability(args) -> int:
    cfg = args._config
    g = (
        hz_to_angular(args.g_hz)
        if args.g_hz is not None
        else ampcore.pump_rate(cfg.pump, cfg.film, cfg.ring.omega0)
    )
    single = ampcore.stability_single(cfg.ring, g)
    system = _anticrossing_system(cfg)
    double = ampcore.stability_double(system, g)
    _print_record(args, {
        "g_hz": (angular_to_hz(g), "Hz"),
        "single_stable": (single.stable, "1"),
        "single_threshold_hz": (angular_to_hz(single.threshold), "Hz"),
        "single_margin_hz": (angular_to_hz(single.margin), "Hz"),
        "double_stable": (double.stable, "1"),
        "double_threshold_hz": (angular_to_hz(double.threshold), "Hz"),
        "double_margin_hz": (angular_to_hz(double.margin), "Hz"),
        "cooperativity": (double.cooperativity, "1"),
        "pair_threshold_hz": (angular_to_hz(ampcore.pair_threshold(system)), "Hz"),
    })
    return 0


def cmd_noise(args) -> int:
    from .params import NoiseChain

    chain = NoiseChain(
        G_k=args.g_k, G_h=args.g_h, n_h=args.n_h, eta=args.eta,
        T=args.t_k, T_dev=args.t_dev_k, omega=hz_to_angular(args.f_hz),
    )
    added = noise.added_noise(chain)
    psd = noise.total_noise_psd(chain, args.t_k)
    outputs = {
        "n_k": (added.n_k, "quanta"),
        "n_add": (added.n_add, "quanta"),
        "n_thermal": (noise.thermal_occupancy(chain.omega, args.t_k), "quanta"),
        "total_noise_psd": (psd, "W/Hz"),
    }
    if args.g_k > 1:
        n_bar_dev = noise.thermal_occupancy(chain.omega, args.t_dev_k)
        outputs["n_k_finite_gain"] = (
            noise.stage_noise_finite_gain(args.eta, args.g_k, n_bar_dev), "quanta"
        )
    _print_record(args, outputs)
    return 0


def _fit_outputs(fit: calfit.FitResult, units: dict) -> dict:
    outputs = {}
    for name, value in fit.params.items():
        outputs[name] = (value, units.get(name, "1"))
    if fit.sigma is not None:
        for name, value in fit.sigma.items():
            outputs["sigma_" + name] = (value, units.get(name, "1"))
    outputs["residual_rms"] = (fit.residual_rms, "1")
    outputs["iterations"] = (fit.iterations, "1")
    outputs["converged"] = (fit.converged, "1")
    return outputs


def cmd_fit_resonance(args) -> int:
    trace = datio.load_trace(args.trace, "reflection")
    fit = calfit.fit_reflection(trace)
    units = {"f0_hz": "Hz", "kappa_e_hz": "Hz", "kappa_i_hz": "Hz"}
    _print_record(args, _fit_outputs(fit, units), fit.warnings)
    return 0


def cmd_fit_bias(args) -> int:
    trace = datio.load_trace(args.trace, "bias_shift")
    fit = calfit.fit_bias_sweep(trace)
    units = {"f0_hz": "Hz", "i_star_a": "A"}
    _print_record(args, _fit_outputs(fit, units), fit.warnings)
    return 0


def cmd_fit_gain(args) -> int:
    trace = datio.load_trace(args.trace, "gain_db")
    fit = calfit.fit_gain_profile(trace, kappa_hint=args.kappa_hint_hz)
    units = {
        "g_hz": "Hz", "kappa_e_hz": "Hz", "kappa_i_hz": "Hz", "f_center_hz": "Hz",
    }
    _print_record(args, _fit_outputs(fit, units), fit.warnings)
    return 0


def cmd_fit_noise(args) -> int:
    trace = datio.load_trace(args.trace, "noise_psd")
    fit = calfit.fit_noise_temperature(trace, hz_to_angular(args.f_hz))
    units = {"g_tot": "1", "n_add": "quanta"}
    _print_record(args, _fit_outputs(fit, units), fit.warnings)
    return 0


def cmd_gbp(args) -> int:
    trace = datio.load_trace(args.trace, "gain_db")
    amplitudes = np.sqrt(10.0 ** (trace.y.astype(float) / 10.0))
    spectrum = ComplexSpectrum(hz_to_angular(trace.x), amplitudes.astype(complex))
    result = ampcore.gain_bandwidth_product(spectrum)
    _print_record(args, {
        "peak_gain_db": (result.peak_gain_db, "dB"),
        "bandwidth_hz": (result.bandwidth_hz, "Hz"),
        "gbp_hz": (result.gbp_hz, "Hz"),
    })
    return 0


def cmd_oracle_check(args) -> int:
    report = oracle.transfer_equivalence(args.draws, args.seed)
    worst = max(report["max_rel_err_single"], report["max_rel_err_double"])
    passed = bool(worst < args.tolerance)
    _print_record(args, {
        "draws": (report["draws"], "1"),
        "seed": (report["seed"], "1"),
        "max_rel_err_single": (float(report["max_rel_err_single"]), "1"),
        "max_rel_err_double": (float(report["max_rel_err_double"]), "1"),
        "tolerance": (args.tolerance, "1"),
        "passed": (passed, "1"),
    })
    return 0 if passed else 3


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kipa",
        description="Kinetic-inductance parametric amplifier modeling and "
                    "calibration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="device config JSON")

    def add_g(p):
        p.add_argument("--g-hz", type=_positive, default=None,
                       help="pump rate g in Hz")
        p.add_argument("--g-over-threshold", type=_fraction, default=None,
                       help="g as a fraction of the oscillation threshold")

    p = sub.add_parser("gain", help="single-mode gain spectrum")
    add_config(p)
    add_g(p)
    p.add_argument("--span-hz", type=_positive, default=2e8)
    p.add_argument("--points", type=_points, default=1001)
    p.add_argument("--delta-hz", type=float, default=0.0,
                   help="mode detuning from half the pump, Hz")
    p.add_argument("--phi-rad", type=float, default=0.0)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_gain)

    p = sub.add_parser("phase", help="phase-sensitive gain sweep")
    add_config(p)
    add_g(p)
    p.add_argument("--points", type=_points, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("double-gain", help="double-mode gain spectrum at the "
                                           "anticrossing")
    add_config(p)
    add_g(p)
    p.add_argument("--span-hz", type=_positive, default=None)
    p.add_argument("--points", type=_points, default=2001)
    p.add_argument("--phi-rad", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_double_gain)

    p = sub.add_parser("regime-map", help="pump-frequency regime map")
    add_config(p)
    add_g(p)
    p.add_argument("--pump-span-hz", type=_positive, default=None)
    p.add_argument("--pump-points", type=_points, default=801)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_regime_map)

    p = sub.add_parser("stability", help="stability margins")
    add_config(p)
    p.add_argument("--g-hz", type=_positive, default=None)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("noise", help="added-noise quanta and output PSD")
    p.add_argument("--f-hz", type=_positive, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--g-k", type=float, required=True, help="parametric gain, linear")
    p.add_argument("--g-h", type=float, required=True, help="chain gain, linear")
    p.add_argument("--n-h", type=float, required=True, help="chain noise quanta")
    p.add_argument("--t-k", type=float, required=True, help="input temperature, K")
    p.add_argument("--t-dev-k", type=float, required=True, help="device temperature, K")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("fit-resonance", help="fit a reflection trace")
    p.add_argument("trace")
    p.set_defaults(func=cmd_fit_resonance)

    p = sub.add_parser("fit-bias", help="fit a bias sweep")
    p.add_argument("trace")
    p.set_defaults(func=cmd_fit_bias)

    p = sub.add_parser("fit-gain", help="fit a gain profile")
    p.add_argument("trace")
    p.add_argument("--kappa-hint-hz", type=_positive, default=None)
    p.set_defaults(func=cmd_fit_gain)

    p = sub.add_parser("fit-noise", help="fit noise PSD vs temperature")
    p.add_argument("trace")
    p.add_argument("--f-hz", type=_positive, required=True)
    p.set_defaults(func=cmd_fit_noise)

    p = sub.add_parser("gbp", help="gain-bandwidth product of a gain trace")
    p.add_argument("trace")
    p.set_defaults(func=cmd_gbp)

    p = sub.add_parser("oracle-check", help="closed forms vs matrix solve")
    p.add_argument("--draws", type=_count, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tolerance", type=_positive, default=1e-9)
    p.set_defaults(func=cmd_oracle_check)

    return parser


_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def main(argv=None) -> int:
    level_name = os.environ.get("KIPA_LOG", "quiet")
    if level_name not in _LOG_LEVELS:
        print(f"kipa: KIPA_LOG must be one of {sorted(_LOG_LEVELS)}", file=sys.stderr)
        return 2
    logging.basicConfig(level=_LOG_LEVELS[level_name], stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    args._command = args.command
    try:
        if getattr(args, "config", None) is not None:
            args._config = datio.load_config(args.config)
        log.info("running %s", args.command)
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"kipa: {exc}", file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print(f"kipa: {exc}", file=sys.stderr)
        return 2
    except KipaError as exc:
        print(f"kipa: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"kipa: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
