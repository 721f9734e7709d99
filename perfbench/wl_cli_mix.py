"""``cli_mix`` workload: one ``python -m kipa <subcommand>`` process per
operation, timed from launch to exit.

There is no recorded user traffic, so the mix follows the README command
examples and the device configs of ``tests/test_cli.py``: all 12
subcommands in a fixed cycle, over two seed-drawn devices, with 801-row
traces; ``gain`` and ``double-gain`` also write ``--out`` CSV.

Every call must exit 0 and print one strict RFC 8259 JSON record of the
expected operation. Its outputs must equal those of ``kipa.cli.main`` run
in-process on the same argv during set-up, and named outputs are checked
against the seeded truth and independent closed forms.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading

import numpy as np

from kipa import ampcore, cli

import gen

SUBCOMMANDS = ("gain", "phase", "double-gain", "regime-map", "stability", "noise",
               "fit-resonance", "fit-bias", "fit-gain", "fit-noise", "gbp",
               "oracle-check")
DEVICES = 2
ROWS = 801
CALL_TIMEOUT_S = 120.0
GBP_REL = 0.03

# exact SI values (2019 redefinition)
HBAR = 6.62607015e-34 / (2.0 * math.pi)
K_B = 1.380649e-23

RANGES = {
    "f_hz": (6.5e9, 7.8e9, "lin"),
    "kappa_hz": (4e6, 1e7, "log"),
    "eta": (0.85, 0.95, "lin"),
    "two_j_over_kappa": (6.0, 10.0, "lin"),
    "i_star_a": (4e-3, 8e-3, "lin"),
    "i_dc_frac": (0.2, 0.35, "lin"),
    "gain_frac": (0.5, 0.9, "lin"),       # gain / phase; gain peaks at zero offset
    "pair_frac": (0.87, 0.96, "lin"),     # double-gain / regime-map
    "stab_frac": (0.2, 0.9, "lin"),       # stability --g-hz / (kappa/2)
    "trace_g_frac": (0.8, 0.97, "lin"),   # gain trace, g / (kappa/2)
    "g_k": (10.0, 1e4, "log"),
    "g_h": (1e5, 1e7, "log"),
    "n_h": (5.0, 30.0, "lin"),
    "t_k": (0.02, 0.2, "lin"),
    "t_dev_k": (0.02, 0.2, "lin"),
}


class CliMix:
    name = "cli_mix"
    in_process = False
    control_every = len(SUBCOMMANDS)

    def __init__(self, seed, workdir, root, spans_path):
        rng = random.Random(seed)
        nrng = np.random.default_rng(seed)
        gen.fresh_dir(workdir)
        self.root = root
        self.spans_path = spans_path
        self.stderr_path = workdir / "stderr.txt"
        self.pool = []
        for d, p in enumerate(gen.latin_hypercube(rng, DEVICES, RANGES)):
            dev = _Device(p, workdir / f"dev{d}", nrng, rng.randrange(1 << 31))
            for cmd in SUBCOMMANDS:
                argv, out_csv = dev.argv(cmd, root)
                with contextlib.redirect_stdout(io.StringIO()) as captured:
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"in-process reference {argv} exited {code}")
                reference = json.loads(captured.getvalue())["outputs"]
                self.pool.append({"id": f"dev{d}:{cmd}", "cmd": cmd, "argv": argv,
                                  "out_csv": out_csv, "device": dev,
                                  "reference": reference})

    def run(self, entry, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "kipa", *entry["argv"]]
        else:
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "trace_child.py")
            cmd = [sys.executable, child, str(self.spans_path), *entry["argv"]]
            self.spans_path.unlink(missing_ok=True)  # never adopt a stale file
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    cwd=self.root)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is not None:
            tracer.add_child_spans(self.spans_path)
        info = {"cpu_ms": (usage.ru_utime + usage.ru_stime) * 1e3,
                "rss_kb": usage.ru_maxrss, "exit": proc.returncode}
        return {"code": proc.returncode, "stdout": out}, info

    def check(self, entry, result):
        if result["code"] != 0:
            err = self.stderr_path.read_text(encoding="utf-8", errors="replace")
            return [f"exit {result['code']}: {err.strip()[-300:]}"], None, {}
        try:
            record = json.loads(result["stdout"].decode("utf-8"),
                                parse_constant=gen.reject_constant)
        except ValueError as exc:
            return [f"stdout is not one strict JSON record: {exc}"], None, {}
        if not isinstance(record, dict) or record.get("operation") != entry["cmd"]:
            return [f"record is not a {entry['cmd']!r} result"], None, {}
        outputs = record.get("outputs")
        if outputs != entry["reference"]:
            return ["outputs differ from the in-process reference"], None, {}
        values = {name: item["value"] for name, item in outputs.items()}
        dev, cmd, stats = entry["device"], entry["cmd"], {}
        if cmd in dev.truth:
            sigmas = {name: values["sigma_" + name] for name in dev.truth[cmd]}
            errors, worst = gen.recovery_errors(cmd, values, sigmas, dev.truth[cmd])
            stats["recovery_max_rel_err"] = worst
        else:
            errors = CHECKS[cmd](values, dev)
        if entry["out_csv"] is not None:
            errors += _csv_errors(self.root / entry["out_csv"], values)
        return errors, json.dumps(outputs, sort_keys=True), stats


class _Device:
    """One seed-drawn device: its config, four 801-row traces and the
    seed-drawn argument of every subcommand."""

    def __init__(self, p, directory, nrng, oracle_seed):
        directory.mkdir()
        self.p = p
        self.dir = directory
        self.kappa = p["kappa_hz"]
        self.eta = p["eta"]
        self.f = p["f_hz"]
        self.j = p["two_j_over_kappa"] * self.kappa / 2.0
        self.oracle_seed = oracle_seed
        # unbiased ring frequency that the DC bias pulls onto the auxiliary mode
        x = p["i_dc_frac"]
        self.ring_f = self.f / (1.0 - 0.5 * x * x)
        gen.write_config(directory / "dev.json", f_hz=self.f, kappa_hz=self.kappa,
                         eta=self.eta, j_hz=self.j, i_star_a=p["i_star_a"],
                         i_dc_a=x * p["i_star_a"], g_hz=0.5 * self.kappa / 2.0,
                         ring_f_hz=self.ring_f)
        self.trace_g = p["trace_g_frac"] * self.kappa / 2.0
        self.chain = gen.noise_chain(self.f, p["g_k"], p["g_h"], p["n_h"], self.eta,
                                     p["t_dev_k"])
        gen.save(gen.reflection_trace(nrng, self.f, self.kappa, self.eta, ROWS),
                 directory / "refl.csv")
        gen.save(gen.bias_trace(nrng, self.f, p["i_star_a"]), directory / "bias.csv")
        gen.save(gen.gain_trace(nrng, self.f, self.kappa, self.eta, self.trace_g, ROWS),
                 directory / "gain.csv")
        gen.save(gen.noise_trace(nrng, self.chain), directory / "noise.csv")
        clean = gen.gain_model_trace(self.f, self.kappa, self.eta, self.trace_g, ROWS)
        self.gbp_clean = ampcore.gain_bandwidth_product(gen.gain_spectrum(clean)).gbp_hz
        self.truth = {
            "fit-resonance": {"f0_hz": self.f, "kappa_e_hz": self.eta * self.kappa,
                              "kappa_i_hz": (1 - self.eta) * self.kappa},
            "fit-bias": {"f0_hz": self.f, "i_star_a": p["i_star_a"]},
            "fit-gain": {"g_hz": self.trace_g, "kappa_e_hz": self.eta * self.kappa,
                         "kappa_i_hz": (1 - self.eta) * self.kappa,
                         "f_center_hz": self.f},
            "fit-noise": {"g_tot": p["g_k"] * p["g_h"],
                          "n_add": _n_add(self.chain.omega, p["g_k"], p["n_h"],
                                          self.eta, 0.0, p["t_dev_k"])},
        }

    def argv(self, cmd, root):
        """(argv, path of the --out CSV or None), paths relative to ``root``."""
        rel = self.dir.relative_to(root)
        cfg = str(rel / "dev.json")
        p = self.p
        out = None
        if cmd == "gain":
            out = rel / "gain_out.csv"
            argv = ["gain", "--config", cfg, "--g-over-threshold", repr(p["gain_frac"]),
                    "--span-hz", repr(6.0 * self.kappa), "--points", str(ROWS),
                    "--out", str(out)]
        elif cmd == "phase":
            argv = ["phase", "--config", cfg, "--g-over-threshold", repr(p["gain_frac"]),
                    "--points", "64"]
        elif cmd == "double-gain":
            out = rel / "double_out.csv"
            argv = ["double-gain", "--config", cfg, "--g-over-threshold",
                    repr(p["pair_frac"]), "--points", str(ROWS), "--out", str(out)]
        elif cmd == "regime-map":
            argv = ["regime-map", "--config", cfg, "--g-over-threshold",
                    repr(p["pair_frac"]), "--pump-points", "201"]
        elif cmd == "stability":
            argv = ["stability", "--config", cfg, "--g-hz",
                    repr(p["stab_frac"] * self.kappa / 2.0)]
        elif cmd == "noise":
            argv = ["noise", "--f-hz", repr(self.f), "--eta", repr(self.eta),
                    "--g-k", repr(p["g_k"]), "--g-h", repr(p["g_h"]),
                    "--n-h", repr(p["n_h"]), "--t-k", repr(p["t_k"]),
                    "--t-dev-k", repr(p["t_dev_k"])]
        elif cmd == "fit-resonance":
            argv = ["fit-resonance", str(rel / "refl.csv")]
        elif cmd == "fit-bias":
            argv = ["fit-bias", str(rel / "bias.csv")]
        elif cmd == "fit-gain":
            argv = ["fit-gain", str(rel / "gain.csv")]
        elif cmd == "fit-noise":
            argv = ["fit-noise", str(rel / "noise.csv"), "--f-hz", repr(self.f)]
        elif cmd == "gbp":
            argv = ["gbp", str(rel / "gain.csv")]
        else:
            argv = ["oracle-check", "--draws", "100", "--seed", str(self.oracle_seed)]
        return argv, out


# ---------------------------------------------------------------------------
# Checks of named outputs against closed forms written here, independently
# of kipa (the fit commands are checked against the seeded truth)
# ---------------------------------------------------------------------------

def _close(got, want, rel=1e-9, label="value"):
    if abs(got - want) <= rel * max(abs(want), 1e-300):
        return []
    return [f"{label} {got!r}, expected {want!r}"]


def _on_resonance(dev, g):
    """Signal and idler amplitudes at zero offset and detuning."""
    half = dev.kappa / 2.0
    den = half * half - g * g
    return dev.eta * dev.kappa * half / den - 1.0, dev.eta * dev.kappa * g / den


def _n_add(omega, g_k, n_h, eta, t_k, t_dev_k):
    def occupancy(t):
        return 0.0 if t == 0.0 else 1.0 / math.expm1(HBAR * omega / (K_B * t))
    n_k = 2.0 * (1.0 - eta) / eta * (occupancy(t_dev_k) + 0.5)
    return (g_k - 1.0) / g_k * (occupancy(t_k) + 0.5 + n_k) + n_h / g_k


def _check_gain(v, dev):
    g = dev.p["gain_frac"] * dev.kappa / 2.0
    signal, _ = _on_resonance(dev, g)
    return (_close(v["g_hz"], g, label="g_hz")
            + _close(v["threshold_hz"], dev.kappa / 2.0, label="threshold_hz")
            + _close(v["peak_gain_db"], 20.0 * math.log10(abs(signal)), 1e-9, "peak dB")
            + _close(v["biased_resonance_hz"], dev.f, 1e-12, "biased resonance")
            + ([] if abs(v["peak_offset_hz"]) < 1e-6 * dev.kappa
               else ["peak not at zero offset"]))


def _check_phase(v, dev):
    # 64 phases include pi/2 and 3pi/2, where signal and idler add or cancel
    s, i = _on_resonance(dev, dev.p["gain_frac"] * dev.kappa / 2.0)
    return (_close(v["max_gain_db"], 20.0 * math.log10(abs(s) + abs(i)), 1e-9, "max dB")
            + _close(v["min_gain_db"], 20.0 * math.log10(abs(abs(s) - abs(i))), 1e-9,
                     "min dB"))


def _check_double_gain(v, dev):
    errors = _close(v["omega_plus_hz"] - v["omega_minus_hz"], 2.0 * dev.j, 1e-9,
                    "collective splitting")
    errors += _close(v["pair_threshold_hz"], dev.kappa, 1e-9, "pair threshold")
    if v["peak_count"] != 2:
        return errors + [f"{v['peak_count']} gain peaks, expected 2"]
    return errors + _close(v["peak_separation_hz"], 2.0 * dev.j, 0.02, "peak split")


def _check_regime_map(v, dev):
    found = [v["single_minus_pump_hz"], v["double_pump_hz"], v["single_plus_pump_hz"]]
    if None in found or not found[0] < found[1] < found[2]:
        return [f"regimes not resolved in order: {found}"]
    return (_close(v["outer_separation_hz"], 4.0 * dev.j, 0.10, "outer separation")
            + _close(v["four_j_hz"], 4.0 * dev.j, 1e-9, "4J"))


def _check_stability(v, dev):
    g = dev.p["stab_frac"] * dev.kappa / 2.0
    errors = (_close(v["single_threshold_hz"], dev.kappa / 2.0, label="threshold")
              + _close(v["single_margin_hz"], dev.kappa / 2.0 - g, 1e-9, "margin")
              + _close(v["pair_threshold_hz"], dev.kappa, label="pair threshold"))
    if v["single_stable"] is not True:
        errors.append("a pump below kappa/2 reported unstable")
    return errors


def _check_noise(v, dev):
    p = dev.p
    want = _n_add(gen.TWO_PI * dev.f, p["g_k"], p["n_h"], dev.eta, p["t_k"], p["t_dev_k"])
    return _close(v["n_add"], want, 1e-9, "n_add")


def _check_gbp(v, dev):
    return _close(v["gbp_hz"], dev.gbp_clean, GBP_REL, "gbp vs noiseless trace")


def _check_oracle(v, dev):
    worst = max(v["max_rel_err_single"], v["max_rel_err_double"])
    if v["passed"] is True and worst < 1e-9 and v["draws"] == 100:
        return []
    return [f"oracle check failed: max relative error {worst!r}"]


CHECKS = {
    "gain": _check_gain, "phase": _check_phase, "double-gain": _check_double_gain,
    "regime-map": _check_regime_map, "stability": _check_stability,
    "noise": _check_noise, "gbp": _check_gbp, "oracle-check": _check_oracle,
}


def _csv_errors(path, values):
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != ROWS + 1 or lines[0] != "freq_hz,gain_db":
        return [f"{path.name}: expected a header and {ROWS} rows"]
    gains = [float(line.split(",")[1]) for line in lines[1:]]
    if "peak_gain_db" in values and max(gains) != values["peak_gain_db"]:
        return [f"{path.name}: CSV peak differs from the record"]
    return []
