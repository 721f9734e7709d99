"""Modeling and calibration toolkit for kinetic-inductance parametric
amplifiers: closed-form gain/noise/stability prediction for single- and
double-mode operation, independent numerical oracles, and least-squares
extraction of device parameters from measurement traces.

``import kipa`` is light: each submodule, and each name re-exported from
it, is imported on first use (PEP 562), so a one-shot CLI call loads only
the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names re-exported from it
_EXPORTS = {
    "ampcore": (
        "BareGains", "DoubleModeStability", "GainBandwidth", "HybridGains",
        "HybridModes", "RegimeMap", "SingleModeStability", "bias_frequency_shift",
        "double_mode_gain_bare", "double_mode_gain_hybrid", "find_peaks_db",
        "gain_bandwidth_product", "hybridize", "kinetic_inductance",
        "on_resonance_gain", "pair_threshold", "phase_sensitive_gain", "pump_rate",
        "pump_regime_map", "single_mode_gain", "stability_double",
        "stability_single", "susceptibility",
    ),
    "calfit": (
        "FitResult", "fit_bias_sweep", "fit_gain_profile", "fit_lorentzian",
        "fit_noise_temperature", "fit_reflection",
    ),
    "datio": (
        "DeviceConfig", "load_config", "load_trace", "make_record", "save_trace",
    ),
    "errors": (
        "IllConditioned", "KipaError", "NoPeak", "NonPhysical", "NotConverged",
        "NotSettled", "ParseError", "PoleAtFrequency", "RWAViolation",
        "SchemaMismatch", "SingularAt", "UnitError", "UnstableFit", "UnstableRegime",
    ),
    "noise": (
        "AddedNoise", "added_noise", "pump_onoff_nk", "stage_noise",
        "stage_noise_finite_gain", "thermal_occupancy", "total_noise_psd",
    ),
    "oracle": (
        "SystemMatrices", "TimeDomainGain", "TimeDomainRun", "commutation_residual",
        "double_mode_matrices", "make_run", "matrix_transfer", "single_mode_matrices",
        "time_domain_gain", "transfer_equivalence",
    ),
    "params": (
        "ComplexSpectrum", "CoupledSystem", "KineticFilm", "NoiseChain",
        "PumpConfig", "ResonatorParams", "Trace", "angular_to_hz", "hz_to_angular",
    ),
}
_SUBMODULES = ("cli", "constants", "prng", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # looked up once
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
