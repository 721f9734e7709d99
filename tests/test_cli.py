"""Command-line interface: exit codes, record output, CSV emission,
determinism of the seeded equivalence check."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from kipa import Trace, cli, errors, save_trace
from kipa.cli import main

DEVICE = {
    "film": {"l0_h": 2.51e-7, "i_star_a": 5.86e-3},
    "ring": {"f0_hz": 7.4e9, "kappa_e_hz": 1.9e7, "kappa_i_hz": 4.0e6},
    "auxiliary": {"f0_hz": 7.133e9, "kappa_e_hz": 1.9e7, "kappa_i_hz": 4.0e6},
    "j_hz": 2.15e7,
    "pump": {"f_p_hz": 1.4266e10, "phi_p_rad": 0.0, "i_dc_a": 1.575e-3,
             "drive": {"g_hz": 5.0e6}},
}

# symmetric narrow-linewidth pair for clean double-mode structure
DOUBLE_DEVICE = {
    "film": {"l0_h": 2.51e-7, "i_star_a": 5.86e-3},
    "ring": {"f0_hz": 7.4e9, "kappa_e_hz": 5.4e6, "kappa_i_hz": 0.6e6},
    "auxiliary": {"f0_hz": 7.133e9, "kappa_e_hz": 5.4e6, "kappa_i_hz": 0.6e6},
    "j_hz": 2.15e7,
    "pump": {"f_p_hz": 1.4266e10, "phi_p_rad": 0.0, "i_dc_a": 1.575e-3,
             "drive": {"g_hz": 5.0e6}},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(DEVICE), encoding="utf-8")
    return str(path)


@pytest.fixture
def double_config_path(tmp_path):
    path = tmp_path / "double.json"
    path.write_text(json.dumps(DOUBLE_DEVICE), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv):
    """Run ``python -m kipa`` on ``argv`` in a child process. In-process,
    pytest turns a numpy RuntimeWarning into an error; a CLI process would
    print it, with its source line, to stderr."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "kipa", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def write_device(tmp_path, base=DEVICE, drive=None, **fields):
    """Config file of ``base`` with top-level, film, ring or pump ``fields``
    overridden and, if given, the pump ``drive``."""
    doc = json.loads(json.dumps(base))
    for name, value in fields.items():
        section = next((doc[key] for key in ("film", "ring", "pump")
                        if name in doc[key]), doc)
        section[name] = value
    if drive is not None:
        doc["pump"]["drive"] = drive
    path = tmp_path / "device.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestGainCommand:
    def test_spectrum_csv_peak_at_center(self, capsys, config_path, tmp_path):
        out_csv = tmp_path / "gain.csv"
        code, out, _ = run_cli(capsys, [
            "gain", "--config", config_path, "--g-over-threshold", "0.5",
            "--span-hz", "2e8", "--points", "2001", "--out", str(out_csv),
        ])
        assert code == 0
        record = json.loads(out)
        assert record["operation"] == "gain"
        assert record["outputs"]["peak_offset_hz"]["value"] == 0.0
        header, rows = read_csv(out_csv)
        assert header == ["freq_hz", "gain_db"]
        assert rows.shape == (2001, 2)
        assert np.argmax(rows[:, 1]) == 1000  # center row

    def test_unstable_pump_is_numeric_error(self, capsys, config_path):
        code, _, err = run_cli(capsys, [
            "gain", "--config", config_path, "--g-hz", "2e8",
        ])
        assert code == 3
        assert "threshold" in err

    def test_bad_flag_value_is_validation_error(self, config_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gain", "--config", config_path, "--points", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--delta-hz", "nan"), ("--delta-hz", "inf"), ("--delta-hz=-inf", None),
        ("--phi-rad", "nan"), ("--g-hz", "inf"), ("--g-over-threshold", "nan"),
        ("--span-hz", "inf"),
    ])
    def test_non_finite_flag_is_validation_error(self, config_path, capsys, flag,
                                                 value):
        argv = ["gain", "--config", config_path, flag] + ([value] if value else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, ["gain", "--config", "nope.json"])
        assert code == 2

    def test_detuned_spectrum_peaks_off_center(self, capsys, config_path, tmp_path):
        out_csv = tmp_path / "detuned.csv"
        code, out, _ = run_cli(capsys, [
            "gain", "--config", config_path, "--g-over-threshold", "0.8",
            "--delta-hz", "5e6", "--span-hz", "1e8", "--points", "1001",
            "--out", str(out_csv),
        ])
        assert code == 0
        record = json.loads(out)
        assert record["outputs"]["peak_offset_hz"]["value"] != 0.0


class TestPhaseCommand:
    def test_sweep_covers_full_turn(self, capsys, config_path, tmp_path):
        out_csv = tmp_path / "phase.csv"
        code, out, _ = run_cli(capsys, [
            "phase", "--config", config_path, "--g-over-threshold", "0.5",
            "--points", "64", "--out", str(out_csv),
        ])
        assert code == 0
        header, rows = read_csv(out_csv)
        assert header == ["phase_rad", "gain_db"]
        assert rows.shape == (64, 2)
        assert rows[0, 0] == 0.0
        assert rows[-1, 0] < 2 * math.pi
        record = json.loads(out)
        assert record["outputs"]["max_gain_db"]["value"] > 0
        assert record["outputs"]["min_gain_db"]["value"] < 0


class TestDoubleGainCommand:
    def test_two_maxima_split_by_2j(self, capsys, double_config_path, tmp_path):
        out_csv = tmp_path / "double.csv"
        code, out, _ = run_cli(capsys, [
            "double-gain", "--config", double_config_path,
            "--g-over-threshold", "0.85", "--points", "4001",
            "--out", str(out_csv),
        ])
        assert code == 0
        record = json.loads(out)
        assert record["outputs"]["peak_count"]["value"] == 2
        separation = record["outputs"]["peak_separation_hz"]["value"]
        assert separation == pytest.approx(2 * 2.15e7, rel=0.02)
        # collective-mode frequencies under the configured convention
        split = (record["outputs"]["omega_plus_hz"]["value"]
                 - record["outputs"]["omega_minus_hz"]["value"])
        assert split == pytest.approx(2 * 2.15e7, rel=1e-9)
        # scan the emitted file itself for the two maxima
        from kipa import find_peaks_db

        header, rows = read_csv(out_csv)
        assert header == ["freq_hz", "gain_db"]
        peaks = find_peaks_db(rows[:, 1], 3.0)
        assert len(peaks) == 2
        assert rows[peaks[-1], 0] - rows[peaks[0], 0] == pytest.approx(
            2 * 2.15e7, rel=0.02
        )


class TestRegimeMapCommand:
    def test_three_regimes_and_4j_separation(self, capsys, double_config_path):
        code, out, _ = run_cli(capsys, [
            "regime-map", "--config", double_config_path,
            "--g-over-threshold", "0.85", "--pump-points", "401",
        ])
        assert code == 0
        record = json.loads(out)
        outputs = record["outputs"]
        for key in ("single_minus_pump_hz", "double_pump_hz", "single_plus_pump_hz"):
            assert outputs[key]["value"] is not None
        separation = outputs["outer_separation_hz"]["value"]
        assert separation == pytest.approx(4 * 2.15e7, rel=0.10)
        assert outputs["double_pump_hz"]["value"] == pytest.approx(
            2 * 7.133e9, abs=1.0
        )

    @pytest.mark.parametrize("j_hz, argv, message", [
        # rounding of eigenvalues ~1e151 rad/s hides the damping entirely
        (1e150, [], "eigenvalue precision lost"),
        (2.15e7, ["--g-hz", "1e9"], "system self-oscillates over the whole pump grid"),
    ])
    def test_no_stable_pump_point_is_numeric_error(self, capsys, tmp_path, j_hz,
                                                   argv, message):
        path = write_device(tmp_path, base=DOUBLE_DEVICE, j_hz=j_hz)
        code, out, err = run_cli(capsys, ["regime-map", "--config", path, *argv])
        assert (code, out) == (3, "")
        assert err.startswith(f"kipa: {message}")

    def test_csv_rows_are_the_finite_map_points(self, capsys, double_config_path,
                                                tmp_path):
        from kipa import datio, pump_regime_map
        from kipa.cli import _anticrossing_system

        out_csv = tmp_path / "map.csv"
        # 8 MHz pushes the anticrossing into self-oscillation: some points drop
        code, _, _ = run_cli(capsys, [
            "regime-map", "--config", double_config_path, "--g-hz", "8e6",
            "--pump-span-hz", "3e8", "--pump-points", "201", "--out", str(out_csv),
        ])
        assert code == 0
        system = _anticrossing_system(datio.load_config(double_config_path))
        center = system.mode_a.omega0 + system.mode_b.omega0
        pump = center + np.linspace(-math.pi * 3e8, math.pi * 3e8, 201)
        result = pump_regime_map(system, 2 * math.pi * 8e6, pump)
        finite = np.isfinite(result.peak_gains_db)
        assert 0 < finite.sum() < 201
        header, rows = read_csv(out_csv)
        assert header == ["freq_hz", "gain_db"]
        assert rows[:, 0].tolist() == (result.pump_freqs[finite] / (2 * math.pi)).tolist()
        np.testing.assert_allclose(rows[:, 1], result.peak_gains_db[finite],
                                   rtol=1e-13, atol=1e-13)


class TestStabilityAndNoise:
    def test_stability_report(self, capsys, config_path):
        code, out, _ = run_cli(capsys, [
            "stability", "--config", config_path, "--g-hz", "5e6",
        ])
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["single_stable"]["value"] is True
        assert outputs["single_threshold_hz"]["value"] == pytest.approx(11.5e6)

    def test_noise_report(self, capsys):
        code, out, _ = run_cli(capsys, [
            "noise", "--f-hz", "7.155e9", "--eta", "0.9", "--g-k", "1000",
            "--g-h", "1e6", "--n-h", "10", "--t-k", "0.1", "--t-dev-k", "0.1",
        ])
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["n_add"]["value"] == pytest.approx(0.661, abs=1e-3)
        assert outputs["n_k"]["unit"] == "quanta"

    @pytest.mark.parametrize("flag", ["--eta", "--g-k", "--g-h", "--n-h", "--t-k",
                                      "--t-dev-k", "--f-hz"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_noise_rejects_non_finite_flag(self, capsys, flag, value):
        argv = {"--f-hz": "7.155e9", "--eta": "0.9", "--g-k": "1000", "--g-h": "1e6",
                "--n-h": "10", "--t-k": "0.1", "--t-dev-k": "0.1"}
        argv[flag] = value
        with pytest.raises(SystemExit) as exc:
            main(["noise", *[item for pair in argv.items() for item in pair]])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_config_is_validation_error(self, capsys, tmp_path):
        doc = json.loads(json.dumps(DEVICE))
        doc["j_hz"] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, ["stability", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert "j_hz" in err

    def test_non_finite_output_is_numeric_error(self, capsys, monkeypatch):
        from kipa import noise

        monkeypatch.setattr(noise, "total_noise_psd", lambda chain, T: math.nan)
        code, out, err = run_cli(capsys, [
            "noise", "--f-hz", "7.155e9", "--eta", "0.9", "--g-k", "1000",
            "--g-h", "1e6", "--n-h", "10", "--t-k", "0.1", "--t-dev-k", "0.1",
        ])
        assert code == 3
        assert out == ""
        assert "non-finite" in err

    def test_noise_validation_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "noise", "--f-hz", "7.155e9", "--eta", "0.0", "--g-k", "1000",
            "--g-h", "1e6", "--n-h", "10", "--t-k", "0.1", "--t-dev-k", "0.1",
        ])
        assert code == 2

    @pytest.mark.parametrize("command, j_hz, message", [
        pytest.param(command, 1e300, "coupled-system threshold overflows", id=command)
        for command in ("stability", "double-gain", "regime-map")
    ] + [
        # the threshold is finite, the bare gain denominator is not
        pytest.param("double-gain", 1e150, "bare gain denominator overflows",
                     id="double-gain-denominator"),
    ])
    def test_overflowing_coupling_is_numeric_error(self, capsys, tmp_path, command,
                                                   j_hz, message):
        doc = json.loads(json.dumps(DEVICE))
        doc["j_hz"] = j_hz
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, [command, "--config", str(path)])
        assert code == 3
        assert out == ""
        assert err.startswith(f"kipa: {message}")
        assert "Warning" not in err

    def test_overflowing_thermal_occupancy_is_numeric_error(self, capsys):
        code, out, err = run_cli(capsys, [
            "noise", "--f-hz", "1e-300", "--eta", "0.9", "--g-k", "1e300",
            "--g-h", "1e300", "--n-h", "1", "--t-k", "1e300", "--t-dev-k", "1e300",
        ])
        assert code == 3
        assert out == ""
        assert err.startswith("kipa: thermal occupancy overflows")


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


BAD_INPUT = (errors.ParseError, errors.SchemaMismatch, errors.UnitError)
POWER_DRIVE = {"p_p_w": 4.2e-6, "z_ref_ohm": 50.0, "cal": 1.0}


class TestExitCodeRule:
    @pytest.mark.parametrize("exc, code", [
        pytest.param(cls(1.0), 2 if issubclass(cls, BAD_INPUT) else 3, id=cls.__name__)
        for cls in (errors.KipaError, *subclasses(errors.KipaError))
    ] + [
        (OverflowError(34, "Numerical result out of range"), 3),
        (ZeroDivisionError("float division by zero"), 3),
        (NotADirectoryError(20, "Not a directory"), 2),
        (PermissionError(13, "Permission denied"), 2),
        (ValueError("bad value"), 2),
        (RuntimeError("bug"), 1),  # anything else is an internal error
    ], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
    def test_exit_code_of_each_error(self, capsys, monkeypatch, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_oracle_check", fail)
        prefix = "internal error: " if code == 1 else ""
        assert run_cli(capsys, ["oracle-check", "--seed", "1"]) == (
            code, "", f"kipa: {prefix}{exc}\n")

    @pytest.mark.parametrize("command, fields", [
        ("gain", {"i_dc_a": 1e300}),
        ("phase", {"kappa_e_hz": 1e300}),
    ])
    def test_float_overflow_is_numeric_error(self, capsys, tmp_path, command, fields):
        path = write_device(tmp_path, **fields)
        code, out, err = run_cli(capsys, [command, "--config", path])
        assert (code, out) == (3, "")
        assert err == {
            "gain": "kipa: bias shift overflows: I_dc=1e+300 A against "
                    "I_star=0.00586 A\n",
            "phase": "kipa: gain denominator overflows (kappa up to 6.28319e+300 "
                     "rad/s)\n",
        }[command]

    @pytest.mark.parametrize("command", ["gain", "phase", "double-gain", "regime-map",
                                         "stability"])
    def test_underflowing_scale_current_is_numeric_error(self, capsys, tmp_path,
                                                          command):
        path = write_device(tmp_path, drive=POWER_DRIVE, i_star_a=1e-300)
        assert run_cli(capsys, [command, "--config", path]) == (
            3, "", "kipa: pump rate overflows: I_dc=0.001575 A and I_p=0.000409878 A "
                   "against I_star=1e-300 A\n")

    @pytest.mark.parametrize("command", ["gain", "stability", "regime-map"])
    @pytest.mark.parametrize("fields", [{"cal": 1e300}, {"i_dc_a": 1e300}],
                             ids=["cal", "i_dc_a"])
    def test_overflowing_pump_drive_is_numeric_error(self, capsys, tmp_path, command,
                                                     fields):
        drive = {**POWER_DRIVE, **{k: v for k, v in fields.items() if k in POWER_DRIVE}}
        path = write_device(tmp_path, drive=drive,
                            **{k: v for k, v in fields.items() if k not in POWER_DRIVE})
        code, out, err = run_cli(capsys, [command, "--config", path])
        assert (code, out) == (3, "")
        assert err.startswith("kipa: pump rate overflows: I_dc=")
        assert "Warning" not in err

    @pytest.mark.parametrize("fields, message", [
        ({"kappa_e_hz": 1e300}, "gain denominator overflows (kappa up to 6.28319e+300 rad/s)"),
        ({"kappa_i_hz": 1e200}, "gain denominator overflows (kappa up to 6.28319e+200 rad/s)"),
    ], ids=["kappa_e_hz", "kappa_i_hz"])
    def test_overflowing_gain_denominator_is_numeric_error(self, capsys, tmp_path,
                                                           fields, message):
        path = write_device(tmp_path, **fields)
        assert run_cli(capsys, ["gain", "--config", path]) == (3, "", f"kipa: {message}\n")

    def test_overflowing_phase_numerator_is_numeric_error(self, capsys, tmp_path):
        # (kappa/2)**2 fits a double here, kappa * kappa/2 does not
        path = write_device(tmp_path, kappa_e_hz=3.5e153)
        assert run_cli(capsys, ["phase", "--config", path]) == (
            3, "", "kipa: gain denominator overflows (kappa up to 2.19911e+154 rad/s)\n")

    def test_overflowing_gain_denominator_prints_no_warning(self, tmp_path):
        path = write_device(tmp_path, kappa_e_hz=1e300)
        result = run_process(["gain", "--config", path])
        assert (result.returncode, result.stdout) == (3, "")
        assert "Warning" not in result.stderr
        assert result.stderr.startswith("kipa: gain denominator overflows")

    @pytest.mark.parametrize("section, name, value", [
        ("ring", "kappa_e_hz", 1e150), ("auxiliary", "kappa_i_hz", 1e300),
    ], ids=["ring_kappa_e_hz", "auxiliary_kappa_i_hz"])
    def test_overflowing_regime_map_prints_no_warning(self, tmp_path, section, name,
                                                      value):
        doc = json.loads(json.dumps(DEVICE))
        doc[section][name] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = run_process(["regime-map", "--config", str(path)])
        assert (result.returncode, result.stdout) == (3, "")
        assert "Warning" not in result.stderr
        assert result.stderr.startswith("kipa: eigenvalue precision lost")

    def test_overflowing_detuning_is_numeric_error(self, capsys, config_path):
        code, out, err = run_cli(capsys, ["gain", "--config", config_path,
                                          "--delta-hz", "1e300"])
        assert (code, out) == (3, "")
        assert err == "kipa: gain denominator overflows (delta up to 6.28319e+300 rad/s)\n"

    @pytest.mark.parametrize("argv", [
        ["fit-gain", "{file}/x"], ["gain", "--config", "{file}/x.json"],
    ])
    def test_path_through_a_file_is_validation_error(self, capsys, tmp_path, argv):
        file = tmp_path / "plain.txt"
        file.write_text("not a directory", encoding="utf-8")
        code, out, err = run_cli(capsys, [a.format(file=file) for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("kipa: [Errno 20] Not a directory")


class TestFitCommands:
    def test_fit_resonance_round_trip(self, capsys, tmp_path):
        from kipa import ResonatorParams, hz_to_angular, single_mode_gain

        f = np.linspace(7.155e9 - 1.5e8, 7.155e9 + 1.5e8, 201)
        res = ResonatorParams(omega0=hz_to_angular(7.155e9),
                              kappa_e=hz_to_angular(19e6),
                              kappa_i=hz_to_angular(4e6))
        signal, _ = single_mode_gain(res, 0.0, 0.0, 0.0,
                                     hz_to_angular(f - 7.155e9))
        path = tmp_path / "refl.csv"
        save_trace(Trace(x=f, y=signal.values, kind="reflection"), path)
        code, out, _ = run_cli(capsys, ["fit-resonance", str(path)])
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["f0_hz"]["value"] == pytest.approx(7.155e9, rel=1e-6)
        assert outputs["kappa_e_hz"]["value"] == pytest.approx(19e6, rel=1e-4)

    def test_fit_missing_file_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, ["fit-resonance", "missing.csv"])
        assert code == 2
        assert err.startswith("kipa:")

    def test_non_finite_trace_row_is_validation_error(self, capsys, tmp_path):
        f = np.linspace(7.0e9, 7.3e9, 101)
        path = tmp_path / "gain.csv"
        save_trace(Trace(x=f, y=np.zeros(101), kind="gain_db"), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[50] = lines[50].split(",")[0] + ",inf"
        path.write_text("\n".join(lines), encoding="utf-8")
        code, out, err = run_cli(capsys, ["fit-gain", str(path)])
        assert code == 2
        assert out == ""
        assert "line 51" in err

    @pytest.mark.parametrize("command, kind, what", [
        ("fit-resonance", "reflection", "reflection trace"),
        ("fit-bias", "bias_shift", "bias sweep"),
        ("fit-gain", "gain_db", "gain profile"),
        ("fit-noise", "noise_psd", "noise sweep"),
        ("gbp", "gain_db", "gain trace"),
    ])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_short_trace_is_validation_error(self, capsys, tmp_path, command,
                                             kind, what, rows):
        x = np.array([0.1, 0.2][:rows]) if kind == "noise_psd" else 7e9 + 1e6 * np.arange(rows)
        y = np.full(rows, 0.5 + 0.1j if kind == "reflection" else 1.0)
        path = tmp_path / "short.csv"
        save_trace(Trace(x=x, y=y, kind=kind), path)
        extra = ["--f-hz", "7e9"] if command == "fit-noise" else []
        code, out, err = run_cli(capsys, [command, str(path)] + extra)
        assert code == 2
        assert out == ""
        assert err == f"kipa: {what} needs at least 3 points\n"

    @pytest.mark.parametrize("command", ["fit-gain", "gbp"])
    def test_overflowing_gain_trace_is_numeric_error(self, capsys, tmp_path, command):
        path = tmp_path / "huge.csv"
        save_trace(Trace(x=7e9 + 1e5 * np.arange(20), y=np.full(20, 1e308),
                         kind="gain_db"), path)
        code, out, err = run_cli(capsys, [command, str(path)])
        assert code == 3
        assert out == ""
        assert err == "kipa: a gain of 1e+308 dB overflows as a linear power\n"

    def test_fit_gain_on_a_huge_span_is_numeric_error(self, capsys, tmp_path):
        path = tmp_path / "huge_span.csv"
        save_trace(Trace(x=np.array([1e300, 2e300, 3e300, 4e300, 5e300]),
                         y=np.array([1.0, 3.0, 10.0, 3.0, 1.0]), kind="gain_db"), path)
        code, out, err = run_cli(capsys, ["fit-gain", str(path)])
        assert (code, out) == (3, "")
        assert err == "kipa: a frequency span of 4e+300 Hz overflows when squared\n"

    @pytest.mark.parametrize("command, kind, x, y, extra, message", [
        ("fit-bias", "bias_shift", [0.0, 1e300, 2e300], [7.0e9, 6.9e9, 6.6e9], [],
         "a bias current of 2e+300 A overflows when squared"),
        ("fit-noise", "noise_psd", [0.05, 0.1, 0.2], [1e298, 1e299, 1e300],
         ["--f-hz", "7e9"], "noise fit overflows at its start (noise density up to "
         "1e+300 W/Hz at omega=4.39823e+10 rad/s)"),
        ("fit-noise", "noise_psd", [0.05, 0.1, 0.2], [1.2e-20, 1.5e-20, 2.1e-20],
         ["--f-hz", "1e300"], "noise fit overflows at its start (noise density up to "
         "2.1e-20 W/Hz at omega=6.28319e+300 rad/s)"),
    ], ids=["bias_current", "noise_density", "noise_frequency"])
    def test_overflowing_fit_input_prints_no_warning(self, tmp_path, command, kind, x, y,
                                                     extra, message):
        path = tmp_path / "huge.csv"
        save_trace(Trace(x=np.array(x), y=np.array(y), kind=kind), path)
        result = run_process([command, str(path)] + extra)
        assert (result.returncode, result.stdout) == (3, "")
        assert "Warning" not in result.stderr
        assert result.stderr == f"kipa: {message}\n"

    def test_fit_noise_rejects_zero_kelvin_row(self, capsys, tmp_path):
        T = np.array([0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6])
        path = tmp_path / "zero_k.csv"
        save_trace(Trace(x=T, y=1e-22 * (1.0 + T), kind="noise_psd"), path)
        code, out, err = run_cli(capsys, ["fit-noise", str(path), "--f-hz", "7e9"])
        assert code == 2
        assert out == ""
        assert err == "kipa: temperatures must be > 0 for the noise model\n"

    def test_fit_bias_round_trip(self, capsys, tmp_path):
        currents = np.linspace(0.1e-3, 3e-3, 21)
        freqs = 7.4e9 * (1 - 0.5 * (currents / 5.86e-3) ** 2)
        path = tmp_path / "bias.csv"
        save_trace(Trace(x=currents, y=freqs, kind="bias_shift"), path)
        code, out, _ = run_cli(capsys, ["fit-bias", str(path)])
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["i_star_a"]["value"] == pytest.approx(5.86e-3, rel=1e-6)

    def test_fit_gain_not_converging_is_numeric_error(self, capsys, tmp_path):
        # a pure noise floor has no profile to fit
        f = np.linspace(7.0e9, 7.3e9, 101)
        rng = np.random.default_rng(2)
        path = tmp_path / "junk.csv"
        save_trace(Trace(x=f, y=rng.normal(0, 5, 101), kind="gain_db"), path)
        code, _, err = run_cli(capsys, ["fit-gain", str(path)])
        assert code in (0, 3)  # junk either fits loosely or errors out
        if code == 3:
            assert err.startswith("kipa:")

    def test_gbp_command(self, capsys, tmp_path):
        from kipa import ResonatorParams, hz_to_angular, single_mode_gain

        kappa = 32e6
        res = ResonatorParams(omega0=hz_to_angular(7e9),
                              kappa_e=hz_to_angular(0.875 * kappa),
                              kappa_i=hz_to_angular(0.125 * kappa))
        g_hz = 0.4995 * kappa
        width = kappa / 2 - g_hz
        f = 7e9 + np.linspace(-30 * width, 30 * width, 2001)
        signal, _ = single_mode_gain(res, hz_to_angular(g_hz), 0.0, 0.0,
                                     hz_to_angular(f - 7e9))
        path = tmp_path / "gain.csv"
        save_trace(Trace(x=f, y=signal.power_db, kind="gain_db"), path)
        code, out, _ = run_cli(capsys, ["gbp", str(path)])
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["gbp_hz"]["value"] == pytest.approx(28e6, rel=0.05)

    def test_fit_bias_on_huge_frequencies_prints_no_warning(self, tmp_path):
        currents = np.linspace(0.1e-3, 3e-3, 21)
        path = tmp_path / "bias.csv"
        save_trace(Trace(x=currents, y=1e200 * (1 - 0.5 * (currents / 5.86e-3) ** 2),
                         kind="bias_shift"), path)
        result = run_process(["fit-bias", str(path)])
        assert (result.returncode, result.stdout) == (3, "")
        assert "Warning" not in result.stderr
        assert result.stderr == ("kipa: bias regression overflows (currents up to 0.003 A, "
                                 "frequencies up to 9.99854e+199 Hz)\n")

    def test_fit_gain_with_no_feasible_start_is_numeric_error(self, capsys, tmp_path):
        # every start's offsets from a center near 1e155 Hz overflow when squared
        f = 1e155 + np.linspace(-5e153, 5e153, 101)
        path = tmp_path / "far.csv"
        save_trace(Trace(x=f, y=20.0 * np.exp(-((f - 1e155) / 1e153) ** 2),
                         kind="gain_db"), path)
        code, out, err = run_cli(capsys, ["fit-gain", str(path)])
        assert (code, out) == (3, "")
        assert err == "kipa: gain denominator overflows (omega up to 3.14159e+154 rad/s)\n"

    def test_fit_gain_with_no_finite_start_cost_is_numeric_error(self, tmp_path):
        path = tmp_path / "deep.csv"
        save_trace(Trace(x=7e9 + 1e6 * np.arange(101), y=np.full(101, -1e160),
                         kind="gain_db"), path)
        result = run_process(["fit-gain", str(path)])
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.endswith("kipa: gain fit has no finite residual at any start "
                                      "(gain down to -1e+160 dB)\n")


class TestOracleCheckCommand:
    def test_passes_and_is_byte_identical(self, capsys):
        code1, out1, _ = run_cli(capsys, ["oracle-check", "--draws", "50",
                                          "--seed", "7"])
        code2, out2, _ = run_cli(capsys, ["oracle-check", "--draws", "50",
                                          "--seed", "7"])
        assert code1 == code2 == 0
        assert out1.encode("utf-8") == out2.encode("utf-8")
        report = json.loads(out1)["outputs"]
        assert report["max_rel_err_single"]["value"] < 1e-9
        assert report["max_rel_err_double"]["value"] < 1e-9
        assert report["passed"]["value"] is True

    def test_different_seed_changes_draws(self, capsys):
        _, out1, _ = run_cli(capsys, ["oracle-check", "--draws", "25",
                                      "--seed", "1"])
        _, out2, _ = run_cli(capsys, ["oracle-check", "--draws", "25",
                                      "--seed", "2"])
        v1 = json.loads(out1)["outputs"]["max_rel_err_single"]["value"]
        v2 = json.loads(out2)["outputs"]["max_rel_err_single"]["value"]
        assert v1 != v2

    def test_seed_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--draws", "10"])
        assert exc.value.code == 2


class TestEmitPlotData:
    def test_phase_column_layout(self, tmp_path):
        from kipa.cli import emit_plot_data

        phases, gain_db = [0.0, 1.0, 2.0], [0.0, 10 * math.log10(4.0), 0.0]
        path = tmp_path / "sweep.csv"
        emit_plot_data(phases, gain_db, path, x_column="phase_rad")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "phase_rad,gain_db"
        assert float(lines[1].split(",")[0]) == 0.0
        with pytest.raises(ValueError):
            emit_plot_data(phases, gain_db, path, x_column="volts")


class TestLogging:
    def test_bad_log_level_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("KIPA_LOG", "verbose")
        code, _, err = run_cli(capsys, ["oracle-check", "--draws", "5",
                                        "--seed", "1"])
        assert code == 2
        assert "KIPA_LOG" in err

    def test_debug_level_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("KIPA_LOG", "debug")
        code, out, _ = run_cli(capsys, ["oracle-check", "--draws", "5",
                                        "--seed", "1"])
        assert code == 0

    @pytest.mark.parametrize("level, line", [
        ("quiet", ""), ("info", "INFO kipa: running stability\n"),
        ("debug", "INFO kipa: running stability\n"),
    ])
    def test_running_line_on_stderr(self, capsys, monkeypatch, config_path, level, line):
        monkeypatch.setenv("KIPA_LOG", level)
        code, _, err = run_cli(capsys, ["stability", "--config", config_path])
        assert (code, err) == (0, line)

    def test_no_module_imports_logging(self):
        for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
            source = path.read_text(encoding="utf-8")
            assert not re.search(r"^\s*(import|from)\s+logging\b", source, re.M), path.name


@pytest.fixture(scope="module")
def smoke_files(tmp_path_factory):
    """A directory holding a gain, a reflection, a bias and a noise trace of
    a 7 GHz mode, and DEVICE as dev.json."""
    from kipa import ResonatorParams, hz_to_angular, single_mode_gain
    from kipa.constants import hbar, k_B

    out = tmp_path_factory.mktemp("smoke")
    f = 7.0e9 + np.linspace(-1.5e8, 1.5e8, 2001)
    res = ResonatorParams(omega0=hz_to_angular(7.0e9), kappa_e=hz_to_angular(28e6),
                          kappa_i=hz_to_angular(4e6))
    w = hz_to_angular(f - 7.0e9)
    gain, _ = single_mode_gain(res, 0.9 * res.kappa / 2, 0.0, 0.0, w)
    refl, _ = single_mode_gain(res, 0.0, 0.0, 0.0, w)
    i_dc = np.linspace(0.0, 3e-3, 31)
    save_trace(Trace(x=f, y=gain.power_db, kind="gain_db"), out / "gain.csv")
    save_trace(Trace(x=f, y=refl.values, kind="reflection"), out / "refl.csv")
    save_trace(Trace(x=i_dc, y=7.0e9 * (1 - 0.5 * (i_dc / 5.86e-3) ** 2),
                     kind="bias_shift"), out / "bias.csv")
    t_k = np.linspace(0.02, 0.4, 20)
    quantum = hbar * res.omega0
    psd = 1e3 * quantum * (0.5 / np.tanh(quantum / (2 * k_B * t_k)) + 0.6)
    save_trace(Trace(x=t_k, y=psd, kind="noise_psd"), out / "noise.csv")
    (out / "dev.json").write_text(json.dumps(DEVICE), encoding="utf-8")
    return out


@pytest.mark.parametrize("argv", [
    "oracle-check --draws 1000 --seed 7",
    # uint64 array arithmetic wraps without a warning, a scalar overflow warns
    "oracle-check --draws 1 --seed 18446744073709551615",
    "fit-gain {d}/gain.csv",
    "fit-resonance {d}/refl.csv",
    "fit-bias {d}/bias.csv",
    "fit-noise {d}/noise.csv --f-hz 7.0e9",
    "gbp {d}/gain.csv",
    "gain --config {d}/dev.json",
    "double-gain --config {d}/dev.json",
    "regime-map --config {d}/dev.json",
    "phase --config {d}/dev.json",
    "stability --config {d}/dev.json",
    "noise --f-hz 7.155e9 --eta 0.9 --g-k 1000 --g-h 1e6 --n-h 10 --t-k 0.1 --t-dev-k 0.1",
])
def test_subcommand_raises_no_numpy_warning(monkeypatch, smoke_files, argv):
    """Every subcommand in a child process under -W error::RuntimeWarning
    (set through PYTHONWARNINGS): pytest's filter covers in-process calls
    only."""
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    result = run_process(argv.format(d=smoke_files).split())
    assert (result.returncode, result.stderr) == (0, "")
    json.loads(result.stdout)
