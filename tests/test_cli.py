"""Command-line interface: exit codes, record output, CSV emission,
determinism of the seeded equivalence check."""

import json
import math

import numpy as np
import pytest

from kipa import Trace, save_trace
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


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


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
