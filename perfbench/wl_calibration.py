"""``calibration`` workload: one process calibrates seed-drawn devices.

Each operation reads the four traces of one device with ``datio``, runs
the four ``calfit`` fits and ``gain_bandwidth_product`` on the gain trace,
saves the fitted gain model with ``datio.save_trace`` and renders a result
record with ``datio.record_to_json``. Gain and reflection traces cycle
through 801, 2001, 8001, 2001 and 2001 rows. Every recovered parameter is checked
against the seeded truth (see ``gen.recovery_errors``).
"""

from __future__ import annotations

import json
import random

import numpy as np

import kipa
from kipa import ampcore, calfit, datio

import gen

# trace lengths in the order operations cycle through them: with shares
# of 1/5, 3/5 and 1/5, op_p50_ms falls at the middle of the 2001-row
# operations and op_p90_ms at the middle of the 8001-row ones, not at a
# gap between length groups
SIZES = (801, 2001, 8001, 2001, 2001)
POOL = 75
GBP_REL = 0.03       # noisy-trace GBP vs the noiseless trace's GBP
PEAK_DB_ABS = 0.3    # fitted peak gain vs the closed-form peak [dB]

RANGES = {
    "f_hz": (6.5e9, 7.8e9, "lin"),
    "kappa_hz": (1.0e7, 4.0e7, "log"),
    "eta": (0.7, 0.95, "lin"),
    "g_frac": (0.8, 0.97, "lin"),     # g / (kappa/2); >= 9 dB peak for gbp
    "i_star_a": (4e-3, 8e-3, "lin"),
    "g_k": (10.0, 1e4, "log"),
    "g_h": (1e5, 1e7, "log"),
    "n_h": (5.0, 30.0, "lin"),
    "t_dev_k": (0.02, 0.2, "lin"),
}


class Calibration:
    name = "calibration"
    in_process = True
    control_every = 6

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        nrng = np.random.default_rng(seed)
        gen.fresh_dir(workdir)
        # one Latin hypercube per trace length, so that each length's
        # operations cover the whole range: the length groups set op_p50_ms
        # and op_p90_ms, and their cost varies from device to device
        groups = {rows: gen.latin_hypercube(rng, POOL * SIZES.count(rows) // len(SIZES),
                                            RANGES) for rows in sorted(set(SIZES))}
        self.pool = []
        for i in range(POOL):
            rows = SIZES[i % len(SIZES)]
            p = groups[rows].pop()
            d = workdir / f"dev{i:02d}"
            d.mkdir()
            kappa, eta, f0 = p["kappa_hz"], p["eta"], p["f_hz"]
            g_hz = p["g_frac"] * kappa / 2.0
            chain = gen.noise_chain(f0, p["g_k"], p["g_h"], p["n_h"], eta, p["t_dev_k"])
            clean = gen.gain_model_trace(f0, kappa, eta, g_hz, rows)
            files = {
                "reflection": gen.save(gen.reflection_trace(nrng, f0, kappa, eta, rows),
                                       d / "refl.csv"),
                "gain_db": gen.save(gen.gain_trace(nrng, f0, kappa, eta, g_hz, rows),
                                    d / "gain.csv"),
                "noise_psd": gen.save(gen.noise_trace(nrng, chain), d / "noise.csv"),
                "bias_shift": gen.save(gen.bias_trace(nrng, f0, p["i_star_a"]),
                                       d / "bias.csv"),
            }
            truth = {
                "reflection": {"f0_hz": f0, "kappa_e_hz": eta * kappa,
                               "kappa_i_hz": (1 - eta) * kappa},
                "bias": {"f0_hz": f0, "i_star_a": p["i_star_a"]},
                "gain": {"g_hz": g_hz, "kappa_e_hz": eta * kappa,
                         "kappa_i_hz": (1 - eta) * kappa, "f_center_hz": f0},
                "noise": {"g_tot": p["g_k"] * p["g_h"],
                          "n_add": kipa.noise.added_noise(chain).n_add},
            }
            # references for the checks, computed here so that checking an
            # operation never calls into kipa
            gbp_clean = ampcore.gain_bandwidth_product(gen.gain_spectrum(clean)).gbp_hz
            self.pool.append({
                "id": f"dev{i:02d}", "files": files,
                "omega": chain.omega, "truth": truth, "gbp_clean": gbp_clean,
                "peak_db": float(np.max(clean.y)), "model_out": d / "model.csv",
            })

    def run(self, entry, tracer=None):
        files = entry["files"]
        traces = {kind: datio.load_trace(path, kind) for kind, path in files.items()}
        fits = {
            "reflection": calfit.fit_reflection(traces["reflection"]),
            "bias": calfit.fit_bias_sweep(traces["bias_shift"]),
            "gain": calfit.fit_gain_profile(traces["gain_db"]),
            "noise": calfit.fit_noise_temperature(traces["noise_psd"], entry["omega"]),
        }
        gbp = ampcore.gain_bandwidth_product(gen.gain_spectrum(traces["gain_db"]))
        p = fits["gain"].params
        res = gen.resonator(p["f_center_hz"], p["kappa_e_hz"] + p["kappa_i_hz"],
                            p["kappa_e_hz"] / (p["kappa_e_hz"] + p["kappa_i_hz"]))
        x = traces["gain_db"].x
        model, _ = ampcore.single_mode_gain(
            res, gen.TWO_PI * p["g_hz"], 0.0, 0.0, gen.TWO_PI * (x - p["f_center_hz"]))
        datio.save_trace(kipa.Trace(x=x, y=model.power_db, kind="gain_db"),
                         entry["model_out"])
        outputs = {}
        for fit_name, fit in fits.items():
            for name, value in fit.params.items():
                outputs[f"{fit_name}.{name}"] = (value, "1")
        outputs["gbp_hz"] = (gbp.gbp_hz, "Hz")
        outputs["peak_gain_db"] = (gbp.peak_gain_db, "dB")
        record = datio.make_record("calibrate", {"device": entry["id"]}, outputs)
        text = datio.record_to_json(record)
        return {"fits": fits, "gbp": gbp, "record": text}, {}

    def check(self, entry, result):
        errors = []
        worst = 0.0
        for fit_name, truth in entry["truth"].items():
            fit = result["fits"][fit_name]
            errs, rel = gen.recovery_errors(fit_name, fit.params, fit.sigma, truth)
            errors += errs
            worst = max(worst, rel)
        gbp = result["gbp"]
        if not abs(gbp.gbp_hz - entry["gbp_clean"]) <= GBP_REL * entry["gbp_clean"]:
            errors.append(f"gbp {gbp.gbp_hz!r} vs noiseless {entry['gbp_clean']!r}")
        if not abs(gbp.peak_gain_db - entry["peak_db"]) <= PEAK_DB_ABS:
            errors.append(f"peak {gbp.peak_gain_db!r} dB vs {entry['peak_db']!r} dB")
        doc = json.loads(result["record"], parse_constant=gen.reject_constant)
        expected = sum(len(truth) for truth in entry["truth"].values()) + 2
        if doc["operation"] != "calibrate" or len(doc["outputs"]) != expected:
            errors.append("result record does not hold every calibration output")
        return errors, result["record"], {"recovery_max_rel_err": worst}
