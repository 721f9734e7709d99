"""The package namespace: names re-exported from the submodules, each
imported on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import kipa

# submodule -> the names ``kipa`` re-exports from it
EXPORTS = {
    "ampcore": """BareGains DoubleModeStability GainBandwidth HybridGains HybridModes
        RegimeMap SingleModeStability bias_frequency_shift double_mode_gain_bare
        double_mode_gain_hybrid find_peaks_db gain_bandwidth_product hybridize
        kinetic_inductance on_resonance_gain pair_threshold phase_sensitive_gain
        pump_rate pump_regime_map single_mode_gain stability_double stability_single
        susceptibility""",
    "calfit": """FitResult fit_bias_sweep fit_gain_profile fit_lorentzian
        fit_noise_temperature fit_reflection""",
    "datio": "DeviceConfig load_config load_trace make_record save_trace",
    "errors": """IllConditioned KipaError NoPeak NonPhysical NotConverged NotSettled
        ParseError PoleAtFrequency RWAViolation SchemaMismatch SingularAt UnitError
        UnstableFit UnstableRegime""",
    "noise": """AddedNoise added_noise pump_onoff_nk stage_noise stage_noise_finite_gain
        thermal_occupancy total_noise_psd""",
    "oracle": """SystemMatrices TimeDomainGain TimeDomainRun commutation_residual
        double_mode_matrices make_run matrix_transfer single_mode_matrices
        time_domain_gain transfer_equivalence""",
    "params": """ComplexSpectrum CoupledSystem KineticFilm NoiseChain PumpConfig
        ResonatorParams Trace angular_to_hz hz_to_angular""",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


@pytest.mark.parametrize("module, name", NAMES)
def test_name_resolves_to_its_module_object(module, name):
    namespace = {}
    exec(f"from kipa import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"kipa.{module}"), name)
    assert getattr(kipa, name) is namespace[name]
    assert name in dir(kipa)


def test_all_lists_the_re_exported_names():
    assert sorted(kipa.__all__) == sorted(name for _, name in NAMES)
    namespace = {}
    exec("from kipa import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(kipa.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kipa.no_such_name
    with pytest.raises(ImportError):
        exec("from kipa import no_such_name", {})
    assert "no_such_name" not in dir(kipa)


def test_bare_import_loads_submodules_on_first_use():
    src = os.path.dirname(os.path.dirname(kipa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = """import sys
import kipa
before = sorted(m for m in sys.modules if m.split(".")[0] == "kipa")
n_add = kipa.noise.added_noise(kipa.NoiseChain(G_k=100, G_h=1e6, n_h=10, eta=0.9,
                                               T=0.0, T_dev=0.0, omega=4e10)).n_add
import kipa.oracle as oracle
print(before, "kipa.ampcore" in sys.modules, oracle is kipa.oracle, n_add > 0)
"""
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "['kipa'] True True True\n"
