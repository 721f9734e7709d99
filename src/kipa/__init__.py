"""Modeling and calibration toolkit for kinetic-inductance parametric
amplifiers: closed-form gain/noise/stability prediction for single- and
double-mode operation, independent numerical oracles, and least-squares
extraction of device parameters from measurement traces.
"""

from .ampcore import (
    BareGains,
    DoubleModeStability,
    GainBandwidth,
    HybridGains,
    HybridModes,
    RegimeMap,
    SingleModeStability,
    bias_frequency_shift,
    double_mode_gain_bare,
    double_mode_gain_hybrid,
    find_peaks_db,
    gain_bandwidth_product,
    hybridize,
    kinetic_inductance,
    on_resonance_gain,
    pair_threshold,
    phase_sensitive_gain,
    pump_rate,
    pump_regime_map,
    single_mode_gain,
    stability_double,
    stability_single,
    susceptibility,
)
from .calfit import (
    FitResult,
    fit_bias_sweep,
    fit_gain_profile,
    fit_lorentzian,
    fit_noise_temperature,
    fit_reflection,
)
from .datio import (
    DeviceConfig,
    ResultRecord,
    load_config,
    load_trace,
    make_record,
    read_result,
    save_trace,
    write_result,
)
from .errors import (
    IllConditioned,
    KipaError,
    NoPeak,
    NonPhysical,
    NotConverged,
    NotSettled,
    ParseError,
    PoleAtFrequency,
    RWAViolation,
    SchemaMismatch,
    SingularAt,
    UnitError,
    UnstableFit,
    UnstableRegime,
)
from .noise import (
    AddedNoise,
    added_noise,
    pump_onoff_nk,
    stage_noise,
    stage_noise_finite_gain,
    thermal_occupancy,
    total_noise_psd,
)
from .oracle import (
    SystemMatrices,
    TimeDomainGain,
    TimeDomainRun,
    commutation_residual,
    double_mode_matrices,
    make_run,
    matrix_transfer,
    single_mode_matrices,
    time_domain_gain,
    transfer_equivalence,
)
from .params import (
    ComplexSpectrum,
    CoupledSystem,
    KineticFilm,
    NoiseChain,
    PumpConfig,
    ResonatorParams,
    Trace,
    angular_to_hz,
    hz_to_angular,
)

__version__ = "0.1.0"
