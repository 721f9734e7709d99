"""Domain-type validation and derived quantities."""

import math

import numpy as np
import pytest

from kipa import (
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


def test_resonator_derived_quantities():
    res = ResonatorParams(omega0=2 * math.pi * 7.155e9,
                          kappa_e=2 * math.pi * 19e6,
                          kappa_i=2 * math.pi * 4e6)
    assert res.kappa == res.kappa_e + res.kappa_i
    assert res.eta == pytest.approx(19.0 / 23.0)
    assert 0 < res.eta <= 1


@pytest.mark.parametrize("kwargs", [
    dict(omega0=-1.0, kappa_e=1.0, kappa_i=0.0),
    dict(omega0=1.0, kappa_e=0.0, kappa_i=0.0),
    dict(omega0=1.0, kappa_e=-1.0, kappa_i=0.0),
    dict(omega0=1.0, kappa_e=1.0, kappa_i=-0.1),
])
def test_resonator_rejects_bad_rates(kwargs):
    with pytest.raises(ValueError):
        ResonatorParams(**kwargs)


def test_lossless_mode_allowed():
    res = ResonatorParams(omega0=1.0, kappa_e=1.0, kappa_i=0.0)
    assert res.eta == 1.0


def test_film_validation():
    film = KineticFilm(L0=251e-9, I_star=5.86e-3)
    assert film.L0 == 251e-9
    with pytest.raises(ValueError):
        KineticFilm(L0=0.0, I_star=1.0)
    with pytest.raises(ValueError):
        KineticFilm(L0=1.0, I_star=0.0)


def test_pump_drive_exclusivity():
    with pytest.raises(ValueError):
        PumpConfig(omega_p=1.0)  # neither drive
    with pytest.raises(ValueError):
        PumpConfig(omega_p=1.0, g=1.0, P_p=1.0)  # both drives


def test_pump_rejects_negative_power():
    with pytest.raises(ValueError):
        PumpConfig(omega_p=1.0, P_p=-1e-6)
    with pytest.raises(ValueError):
        PumpConfig(omega_p=1.0, P_p=1e-6, Z_ref=0.0)


def test_pump_phase_stored_mod_2pi():
    pump = PumpConfig(omega_p=1.0, phi_p=5.0 * math.pi, g=0.0)
    assert pump.phi_p == pytest.approx(math.pi)
    assert 0 <= pump.phi_p < 2 * math.pi


def test_coupled_system_rejects_negative_j():
    res = ResonatorParams(omega0=1.0, kappa_e=1.0, kappa_i=0.0)
    with pytest.raises(ValueError):
        CoupledSystem(mode_a=res, mode_b=res, J=-0.1)


def test_spectrum_requires_increasing_grid():
    with pytest.raises(ValueError, match=r"freqs\[1\] = 0\.0 after freqs\[0\] = 0\.0"):
        ComplexSpectrum([0.0, 0.0, 1.0], [1j, 2j, 3j])
    with pytest.raises(ValueError):
        ComplexSpectrum([0.0, 1.0], [1j])


def test_spectrum_immutable_and_power():
    spec = ComplexSpectrum([-1.0, 0.0, 1.0], [1.0, 2.0, 1j])
    with pytest.raises(ValueError):
        spec.values[0] = 0.0
    assert np.allclose(spec.power, [1.0, 4.0, 1.0])
    assert spec.power_db[1] == pytest.approx(10 * math.log10(4.0))
    assert len(spec) == 3


def test_spectrum_does_not_freeze_caller_arrays():
    freqs = np.array([-1.0, 0.0, 1.0])
    values = np.array([1.0 + 0j, 2.0, 1j])
    ComplexSpectrum(freqs, values)
    freqs[0] = -2.0  # caller's arrays stay writable
    values[0] = 0.0


@pytest.mark.parametrize("field,value", [
    ("G_k", 0.5), ("G_h", 0.0), ("n_h", 0.2), ("eta", 0.0),
    ("eta", 1.5), ("T", -1.0), ("T_dev", -1.0), ("omega", 0.0),
])
def test_noise_chain_invariants(field, value):
    good = dict(G_k=100.0, G_h=1e6, n_h=10.0, eta=0.9,
                T=0.1, T_dev=0.1, omega=2 * math.pi * 7e9)
    good[field] = value
    with pytest.raises(ValueError):
        NoiseChain(**good)


def test_unit_conversions_exact_round_trip():
    for f in (1.0, 7.155e9, 1e-3, 32.5e6):
        assert angular_to_hz(hz_to_angular(f)) == pytest.approx(f, rel=1e-15)
    assert hz_to_angular(1.0) == 2 * math.pi


_RES = dict(omega0=1.0, kappa_e=1.0, kappa_i=0.0)
_CHAIN = dict(G_k=100.0, G_h=1e6, n_h=10.0, eta=0.9, T=0.1, T_dev=0.1, omega=1.0)
_NON_FINITE_CASES = [
    *[(lambda v, f=f: ResonatorParams(**{**_RES, f: v}), f) for f in _RES],
    (lambda v: KineticFilm(L0=v, I_star=1.0), "L0"),
    (lambda v: KineticFilm(L0=1.0, I_star=v), "I_star"),
    (lambda v: PumpConfig(omega_p=v, g=1.0), "omega_p"),
    (lambda v: PumpConfig(omega_p=1.0, phi_p=v, g=1.0), "phi_p"),
    (lambda v: PumpConfig(omega_p=1.0, I_dc=v, g=1.0), "I_dc"),
    (lambda v: PumpConfig(omega_p=1.0, g=v), "g"),
    (lambda v: PumpConfig(omega_p=1.0, P_p=v), "P_p"),
    (lambda v: PumpConfig(omega_p=1.0, P_p=1.0, Z_ref=v), "Z_ref"),
    (lambda v: PumpConfig(omega_p=1.0, P_p=1.0, cal=v), "cal"),
    (lambda v: CoupledSystem(mode_a=ResonatorParams(**_RES),
                             mode_b=ResonatorParams(**_RES), J=v), "J"),
    *[(lambda v, f=f: NoiseChain(**{**_CHAIN, f: v}), f) for f in _CHAIN],
]


@pytest.mark.parametrize("make,field", _NON_FINITE_CASES,
                         ids=[field for _, field in _NON_FINITE_CASES])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_value_types_reject_non_finite(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x", "y"])
def test_trace_rejects_non_finite_samples(field, value):
    samples = {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.0, 2.0]}
    samples[field][2] = value
    # a NaN or -inf in x also breaks the increasing order; either way the
    # message names the array and the offending sample
    message = rf"^{field} must be .*{field}\[2\] = {value!r}"
    with pytest.raises(ValueError, match=message):
        Trace(kind="gain_db", **samples)
