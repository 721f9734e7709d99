"""``design_sweep`` workload: one process sweeps seed-drawn coupled devices.

Each device sits at the anticrossing with 2J between 6 and 10 kappa. One
operation runs, on one device:

* ``pump_regime_map`` over 801 pump points: three ordered regimes and an
  outer separation within 10% of 4J (criterion 7);
* ``double_mode_gain_bare`` on a 20001-point grid plus ``find_peaks_db``:
  two peaks split by 2J within 2% (criterion 7);
* one ``time_domain_gain`` run of the ring mode: within 1% of the
  ``single_mode_gain`` closed form (criterion 2);
* ``transfer_equivalence`` over 200 draws: max relative error below 1e-9
  (criterion 1).
"""

from __future__ import annotations

import math
import random

import numpy as np

from kipa import ampcore, datio, oracle

import gen

POOL = 16
REGIME_POINTS = 801
GAIN_POINTS = 20001
DRAWS = 200

RANGES = {
    "f_hz": (6.5e9, 7.8e9, "lin"),
    "kappa_hz": (3e6, 1e7, "log"),
    "eta": (0.85, 0.95, "lin"),
    "two_j_over_kappa": (6.0, 10.0, "lin"),
    "g_frac": (0.87, 0.96, "lin"),      # g / pair threshold
    "rk4_g_frac": (0.4, 0.7, "lin"),    # g / (kappa/2) of the RK4 run
    "rk4_delta": (-0.3, 0.3, "lin"),    # mode detuning / kappa
    "rk4_drive": (0.3, 0.8, "lin"),     # probe offset / kappa
    "rk4_phi": (0.0, 2.0 * math.pi, "lin"),
}


class DesignSweep:
    name = "design_sweep"
    in_process = True
    control_every = 10

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        gen.fresh_dir(workdir)
        self.pool = []
        for i, p in enumerate(gen.latin_hypercube(rng, POOL, RANGES)):
            kappa = p["kappa_hz"]
            j_hz = p["two_j_over_kappa"] * kappa / 2.0
            path = gen.write_config(
                workdir / f"dev{i:02d}.json", f_hz=p["f_hz"], kappa_hz=kappa,
                eta=p["eta"], j_hz=j_hz, i_star_a=5.86e-3, i_dc_a=0.0, g_hz=1e6)
            cfg = datio.load_config(path)
            system = cfg.coupled_system()
            J = system.J
            kmax = max(system.mode_a.kappa, system.mode_b.kappa)
            half_pump = 6.0 * J + 6.0 * kmax
            half_gain = 3.0 * J + 3.0 * kmax
            ring = cfg.ring
            k = ring.kappa
            run = oracle.make_run(
                ring, p["rk4_g_frac"] * k / 2.0, delta=p["rk4_delta"] * k,
                phi_p=p["rk4_phi"], drive_freq=p["rk4_drive"] * k)
            # closed-form reference for the RK4 check, computed once here
            signal, _ = ampcore.single_mode_gain(
                ring, run.g, run.delta, run.phi_p, [run.drive_freq])
            self.pool.append({
                "id": f"dev{i:02d}",
                "system": system,
                "g": p["g_frac"] * ampcore.pair_threshold(system),
                "pump_grid": (system.mode_a.omega0 + system.mode_b.omega0)
                + np.linspace(-half_pump, half_pump, REGIME_POINTS),
                "gain_grid": np.linspace(-half_gain, half_gain, GAIN_POINTS),
                "run": run,
                "rk4_expected": float(abs(signal.values[0]) ** 2),
                "oracle_seed": rng.randrange(1 << 32),
            })

    def run(self, entry, tracer=None):
        system, g = entry["system"], entry["g"]
        regimes = ampcore.pump_regime_map(system, g, entry["pump_grid"])
        bare = ampcore.double_mode_gain_bare(system, g, 0.0, 0.0, 0.0, entry["gain_grid"])
        peaks = ampcore.find_peaks_db(bare.signal_a.power_db, 3.0)
        rk4 = oracle.time_domain_gain(entry["run"])
        equivalence = oracle.transfer_equivalence(DRAWS, entry["oracle_seed"])
        return {"regimes": regimes, "peaks": peaks, "rk4": rk4,
                "equivalence": equivalence}, {}

    def check(self, entry, result):
        errors = []
        J = entry["system"].J
        r = result["regimes"]
        found = (r.single_minus, r.double, r.single_plus)
        if None in found or not found[0] < found[1] < found[2]:
            errors.append(f"regimes not resolved in order: {found}")
        elif not abs(r.outer_separation - 4.0 * J) <= 0.10 * 4.0 * J:
            errors.append(f"outer separation {r.outer_separation!r} vs 4J {4 * J!r}")
        peaks = result["peaks"]
        split = None
        if len(peaks) != 2:
            errors.append(f"{len(peaks)} gain peaks, expected 2")
        else:
            split = float(entry["gain_grid"][peaks[1]] - entry["gain_grid"][peaks[0]])
            if not abs(split - 2.0 * J) <= 0.02 * 2.0 * J:
                errors.append(f"peak split {split!r} vs 2J {2 * J!r}")
        expected = entry["rk4_expected"]
        rk4_err = abs(result["rk4"].signal_gain - expected) / expected
        if not rk4_err < 0.01:
            errors.append(f"RK4 gain off the closed form by {rk4_err:.3%}")
        eq = result["equivalence"]
        oracle_err = max(eq["max_rel_err_single"], eq["max_rel_err_double"])
        if not oracle_err < 1e-9:
            errors.append(f"transfer-matrix max relative error {oracle_err!r}")
        canonical = repr((found, r.outer_separation, peaks, split,
                          result["rk4"].signal_gain, float(oracle_err)))
        return errors, canonical, {"rk4_rel_err": rk4_err, "oracle_max_rel_err": oracle_err}
