"""Seeded input generation shared by the workloads.

Scalars come from ``random.Random(seed)`` and noise arrays from
``numpy.random.default_rng(seed)``, so one seed always gives the same
devices, files and argv. Pools are Latin-hypercube draws: each parameter
takes one value from each of ``n`` equal strata of its range, in shuffled
order, so every seed covers the whole operating range evenly and pool
averages (hence run timings) differ little between seeds.

Traces are made with kipa's own forward models (``single_mode_gain``,
``bias_frequency_shift``, ``total_noise_psd``) plus fixed small Gaussian
noise.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

import kipa
from kipa import ampcore, noise

TWO_PI = 2.0 * math.pi

# measurement noise, fixed for every seed
REFLECTION_NOISE = 0.005    # per quadrature, linear S11 units
GAIN_NOISE_DB = 0.02        # dB
BIAS_NOISE_FRAC = 0.002     # of the total bias shift over the sweep
NOISE_PSD_FRAC = 0.002      # of the mean PSD
BIAS_ROWS = 25
NOISE_ROWS = 31


def latin_hypercube(rng, n, ranges):
    """``n`` points; ``ranges`` maps name -> (lo, hi, "lin" | "log")."""
    columns = {}
    for name, (lo, hi, scale) in ranges.items():
        u = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(u)
        if scale == "log":
            columns[name] = [lo * (hi / lo) ** v for v in u]
        else:
            columns[name] = [lo + (hi - lo) * v for v in u]
    return [{name: col[i] for name, col in columns.items()} for i in range(n)]


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def resonator(f_hz, kappa_hz, eta):
    return kipa.ResonatorParams(
        omega0=TWO_PI * f_hz,
        kappa_e=TWO_PI * eta * kappa_hz,
        kappa_i=TWO_PI * (1.0 - eta) * kappa_hz,
    )


def write_config(path: Path, *, f_hz, kappa_hz, eta, j_hz, i_star_a, i_dc_a,
                 g_hz, ring_f_hz=None) -> Path:
    """Device config JSON; the ring and auxiliary modes share kappa and eta.

    ``ring_f_hz`` is the unbiased ring frequency; by default the ring sits
    on the auxiliary mode (the anticrossing).
    """
    kappa_e, kappa_i = eta * kappa_hz, (1.0 - eta) * kappa_hz
    mode = {"kappa_e_hz": kappa_e, "kappa_i_hz": kappa_i}
    doc = {
        "film": {"l0_h": 2.51e-7, "i_star_a": i_star_a},
        "ring": {"f0_hz": ring_f_hz if ring_f_hz is not None else f_hz, **mode},
        "auxiliary": {"f0_hz": f_hz, **mode},
        "j_hz": j_hz,
        "pump": {"f_p_hz": 2.0 * f_hz, "phi_p_rad": 0.0, "i_dc_a": i_dc_a,
                 "drive": {"g_hz": g_hz}},
    }
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def reflection_trace(nrng, f0_hz, kappa_hz, eta, rows):
    f = np.linspace(f0_hz - 6.0 * kappa_hz, f0_hz + 6.0 * kappa_hz, rows)
    res = resonator(f0_hz, kappa_hz, eta)
    signal, _ = ampcore.single_mode_gain(res, 0.0, 0.0, 0.0, TWO_PI * (f - f0_hz))
    noisy = signal.values + REFLECTION_NOISE * (
        nrng.standard_normal(rows) + 1j * nrng.standard_normal(rows))
    return kipa.Trace(x=f, y=noisy, kind="reflection")


def gain_model_trace(f0_hz, kappa_hz, eta, g_hz, rows):
    """Noiseless single-mode gain profile over f0 +- 3 kappa."""
    f = np.linspace(f0_hz - 3.0 * kappa_hz, f0_hz + 3.0 * kappa_hz, rows)
    res = resonator(f0_hz, kappa_hz, eta)
    signal, _ = ampcore.single_mode_gain(
        res, TWO_PI * g_hz, 0.0, 0.0, TWO_PI * (f - f0_hz))
    return kipa.Trace(x=f, y=signal.power_db, kind="gain_db")


def gain_trace(nrng, f0_hz, kappa_hz, eta, g_hz, rows):
    clean = gain_model_trace(f0_hz, kappa_hz, eta, g_hz, rows)
    noisy = clean.y + GAIN_NOISE_DB * nrng.standard_normal(rows)
    return kipa.Trace(x=clean.x, y=noisy, kind="gain_db")


def gain_spectrum(trace):
    """A gain trace as a spectrum, the way ``kipa gbp`` builds it."""
    amplitudes = np.sqrt(10.0 ** (np.asarray(trace.y, dtype=float) / 10.0))
    return kipa.ComplexSpectrum(TWO_PI * np.asarray(trace.x), amplitudes.astype(complex))


def bias_trace(nrng, f0_hz, i_star_a):
    currents = np.linspace(0.1e-3, 0.5 * i_star_a, BIAS_ROWS)
    w0 = TWO_PI * f0_hz
    freqs = np.array([(w0 + ampcore.bias_frequency_shift(w0, i, i_star_a)) / TWO_PI
                      for i in currents])
    span = freqs[0] - freqs[-1]
    noisy = freqs + BIAS_NOISE_FRAC * span * nrng.standard_normal(BIAS_ROWS)
    return kipa.Trace(x=currents, y=noisy, kind="bias_shift")


def noise_chain(f_hz, g_k, g_h, n_h, eta, t_dev_k):
    return kipa.NoiseChain(G_k=g_k, G_h=g_h, n_h=n_h, eta=eta, T=0.0,
                           T_dev=t_dev_k, omega=TWO_PI * f_hz)


def noise_trace(nrng, chain):
    """PSD vs source temperature; the truth is g_tot = G_h*G_k and the
    chain's n_add (input temperature 0)."""
    temps = np.linspace(0.05, 1.0, NOISE_ROWS)
    psd = np.array([noise.total_noise_psd(chain, t) for t in temps])
    noisy = psd + NOISE_PSD_FRAC * psd.mean() * nrng.standard_normal(NOISE_ROWS)
    return kipa.Trace(x=temps, y=noisy, kind="noise_psd")


COLUMNS = {
    "reflection": "freq_hz,re,im",
    "gain_db": "freq_hz,gain_db",
    "noise_psd": "temp_k,psd_w_per_hz",
    "bias_shift": "idc_a,freq_hz",
}


def save(trace, path: Path) -> Path:
    """Write a trace CSV in the documented format (README "File formats").

    The benchmark writes its inputs itself, so that ``setup_s`` does not
    move with the speed of ``datio.save_trace``, which ``calibration``
    measures.
    """
    y = np.asarray(trace.y)
    parts = [trace.x, y.real, y.imag] if trace.kind == "reflection" else [trace.x, y]
    rows = np.column_stack(parts).astype(float).tolist()
    lines = [f"# kind={trace.kind}", COLUMNS[trace.kind]]
    lines += [",".join(map(repr, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# A fitted parameter passes when it is within Z_LIMIT of its own sigma and
# REL_LIMIT of the truth. Criterion 11 asks for 3-sigma coverage of 95% over
# an ensemble; per parameter, 6 sigma keeps a sound fit from ever failing
# on the noise levels above.
Z_LIMIT = 6.0
REL_LIMIT = 0.25


def recovery_errors(label, params, sigmas, truth):
    """Check fitted ``params`` against ``truth``; returns (errors, worst
    relative error)."""
    errors, worst = [], 0.0
    for name, want in truth.items():
        got, sigma = params[name], sigmas[name]
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        if not (rel <= REL_LIMIT and abs(got - want) <= Z_LIMIT * sigma):
            errors.append(f"{label}.{name}={got!r} vs truth {want!r} (sigma {sigma!r})")
    return errors, worst


def reject_constant(name):
    """``parse_constant`` hook: RFC 8259 has no NaN or Infinity."""
    raise ValueError(f"non-finite JSON constant {name}")
