"""Trace CSV, config JSON and result-record round trips and rejections."""

import json
import math
import re

import numpy as np
import pytest

from kipa import (
    ParseError,
    SchemaMismatch,
    Trace,
    UnitError,
    load_config,
    load_trace,
    make_record,
    read_result,
    save_trace,
    write_result,
)
from kipa.datio import inputs_digest, record_to_json

GOOD_CONFIG = {
    "film": {"l0_h": 2.51e-7, "i_star_a": 5.86e-3, "l_sheet_h_per_sq": 3.0e-11},
    "ring": {"f0_hz": 7.4e9, "kappa_e_hz": 1.9e7, "kappa_i_hz": 4.0e6},
    "auxiliary": {"f0_hz": 7.03e9, "kappa_e_hz": 1.9e7, "kappa_i_hz": 4.0e6},
    "j_hz": 2.15e7,
    "pump": {
        "f_p_hz": 1.431e10, "phi_p_rad": 0.0, "i_dc_a": 1.575e-3,
        "drive": {"p_p_w": 4.2e-6, "z_ref_ohm": 50.0, "cal": 1.0},
    },
    "conventions": {"hybridization_form": "as_printed"},
}


def write_config(tmp_path, doc, name="dev.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestTraceIO:
    def test_three_line_reflection_file(self, tmp_path):
        path = tmp_path / "refl.csv"
        path.write_text(
            "# kind=reflection\n"
            "freq_hz,re,im\n"
            "7.0e9,0.5,-0.1\n"
            "7.1e9,0.4,0.0\n"
            "7.2e9,0.3,0.1\n",
            encoding="utf-8",
        )
        trace = load_trace(path, "reflection")
        assert len(trace) == 3
        assert trace.y[0] == 0.5 - 0.1j

    def test_descending_frequency_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# kind=gain_db\nfreq_hz,gain_db\n7.2e9,1.0\n7.1e9,2.0\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaMismatch):
            load_trace(path, "gain_db")

    @pytest.mark.parametrize("third_freq", ["7.1e9", "7.05e9"],
                             ids=["repeated", "decreasing"])
    def test_non_increasing_frequency_names_the_sample(self, tmp_path, capsys,
                                                       third_freq):
        from kipa.cli import main

        path = tmp_path / "bad.csv"
        path.write_text(
            "# kind=gain_db\nfreq_hz,gain_db\n7.0e9,1.0\n7.1e9,2.0\n"
            f"{third_freq},3.0\n7.3e9,1.0\n",
            encoding="utf-8",
        )
        # the third data row, on file line 5, is the first offending sample
        position = r"^line 5: freq_hz must be strictly increasing, .* on line 4$"
        with pytest.raises(SchemaMismatch, match=position) as info:
            load_trace(path, "gain_db")
        assert info.value.line == 5
        assert main(["fit-gain", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.search(position, err.strip().removeprefix("kipa: "))

    def test_non_increasing_line_counts_blank_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# kind=noise_psd\ntemp_k,psd_w_per_hz\n0.1,1e-22\n\n0.2,2e-22\n"
            "\n0.15,3e-22\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaMismatch,
                           match=r"^line 7: temp_k must be strictly increasing, "
                                 r"got 0\.15 after 0\.2 on line 5$"):
            load_trace(path, "noise_psd")

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "kind.csv"
        path.write_text(
            "# kind=gain_db\nfreq_hz,gain_db\n7.0e9,1.0\n", encoding="utf-8"
        )
        with pytest.raises(SchemaMismatch):
            load_trace(path, "reflection")

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# kind=gain_db\nfreq_hz,gain_db\n7.0e9,1.0\n7.1e9,oops\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_trace(path, "gain_db")
        assert err.value.line == 4

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_value_reports_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"# kind=gain_db\nfreq_hz,gain_db\n7.0e9,1.0\n7.1e9,{cell}\n"
            "7.2e9,2.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_trace(path, "gain_db")
        assert err.value.line == 4

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# kind=gain_db\nfreq_hz,gain_db\n7.0e9,1.0,9.9\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_trace(path, "gain_db")
        assert err.value.line == 3

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# kind=gain_db\nfreq,gain\n7.0e9,1.0\n", encoding="utf-8")
        with pytest.raises(SchemaMismatch):
            load_trace(path, "gain_db")

    def test_missing_kind_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,gain_db\n7.0e9,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_trace(path, "gain_db")
        assert err.value.line == 1

    def test_empty_data_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# kind=gain_db\nfreq_hz,gain_db\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_trace(path, "gain_db")

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"# kind=gain_db\r\nfreq_hz,gain_db\r\n7.0e9,1.5\r\n")
        trace = load_trace(path, "gain_db")
        assert trace.y[0] == 1.5

    @pytest.mark.parametrize("kind,y", [
        ("reflection", np.array([0.3 - 0.7j, 0.123456789012 + 1e-7j, -1.0 + 0j])),
        ("gain_db", np.array([0.1, 22.123456789, -3.5])),
        ("noise_psd", np.array([1.23e-18, 4.56e-18, 9.99e-18])),
        ("bias_shift", np.array([7.4e9, 7.39998e9, 7.3999e9])),
    ])
    def test_save_load_round_trip(self, tmp_path, kind, y):
        x = {
            "reflection": [7.0e9, 7.1e9, 7.2e9],
            "gain_db": [7.0e9, 7.1e9, 7.2e9],
            "noise_psd": [0.05, 0.1, 0.2],
            "bias_shift": [0.0, 1e-3, 2e-3],
        }[kind]
        trace = Trace(x=x, y=y, kind=kind)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        back = load_trace(path, kind)
        assert np.max(np.abs(back.x - trace.x)) <= 1e-12 * np.max(np.abs(trace.x))
        assert np.max(np.abs(back.y - trace.y)) <= 1e-12 * np.max(np.abs(trace.y))


class TestConfig:
    def test_paper_device_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
        assert cfg.ring.eta == pytest.approx(19.0 / 23.0)  # 0.826
        assert cfg.ring.omega0 == pytest.approx(2 * math.pi * 7.4e9)
        assert cfg.J == pytest.approx(2 * math.pi * 2.15e7)
        assert cfg.film.I_star == 5.86e-3
        assert cfg.hybridization_form == "as_printed"
        system = cfg.coupled_system()
        assert system.J == cfg.J

    def test_direct_rate_drive(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        doc["pump"]["drive"] = {"g_hz": 5.0e6}
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.pump.g == pytest.approx(2 * math.pi * 5.0e6)

    def test_negative_kappa_rejected(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        doc["ring"]["kappa_e_hz"] = -1.9e7
        with pytest.raises(ValueError):
            load_config(write_config(tmp_path, doc))

    def test_kerr_field_rejected_as_out_of_scope(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        doc["kerr_K"] = 1e-3
        with pytest.raises(SchemaMismatch) as err:
            load_config(write_config(tmp_path, doc))
        assert "out of scope" in str(err.value)

    def test_unknown_field_rejected(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        doc["ring"]["quality"] = 1e4
        with pytest.raises(SchemaMismatch):
            load_config(write_config(tmp_path, doc))

    def test_missing_unit_suffix(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        doc["ring"]["kappa_e"] = doc["ring"].pop("kappa_e_hz")
        with pytest.raises(UnitError):
            load_config(write_config(tmp_path, doc))

    def test_missing_parameter_is_an_error(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        del doc["ring"]["kappa_i_hz"]
        with pytest.raises(ParseError):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("block,key,value", [
        (None, "j_hz", math.nan),
        ("ring", "f0_hz", math.inf),
        ("film", "i_star_a", -math.inf),
        ("auxiliary", "kappa_i_hz", "nan"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, block, key, value):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        (doc if block is None else doc[block])[key] = value
        with pytest.raises(ParseError) as err:
            load_config(write_config(tmp_path, doc))
        assert key in str(err.value)

    def test_non_number_rejected(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        doc["pump"]["drive"]["cal"] = None
        with pytest.raises(ParseError) as err:
            load_config(write_config(tmp_path, doc))
        assert "config.pump.drive.cal" in str(err.value)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_config(path)

    def test_standard_hybridization_form(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        doc["conventions"]["hybridization_form"] = "standard"
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.hybridization_form == "standard"

    def test_conventions_block_optional(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        del doc["conventions"]
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.hybridization_form == "as_printed"

    def test_bad_hybridization_form(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        doc["conventions"]["hybridization_form"] = "approximate"
        with pytest.raises(ParseError):
            load_config(write_config(tmp_path, doc))

    def test_mixed_drive_rejected(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        doc["pump"]["drive"] = {"g_hz": 5e6, "p_p_w": 1e-6}
        with pytest.raises((ParseError, SchemaMismatch, UnitError)):
            load_config(write_config(tmp_path, doc))


class TestResultRecords:
    def test_write_read_round_trip(self, tmp_path):
        record = make_record(
            "gain",
            {"span_hz": 2e8, "points": 1001},
            {"peak_gain_db": (43.0, "dB"), "g_hz": (1.59e7, "Hz")},
            warnings=["rwa-violation"],
        )
        path = tmp_path / "out.json"
        write_result(record, path)
        assert read_result(path) == record

    def test_unitless_output_refused(self):
        with pytest.raises(ValueError):
            make_record("gain", {}, {"peak": (43.0, "")})
        with pytest.raises(ValueError):
            make_record("gain", {}, {"peak": 43.0})

    def test_digest_stable_and_input_sensitive(self):
        a = inputs_digest({"seed": 7, "draws": 100})
        b = inputs_digest({"draws": 100, "seed": 7})
        c = inputs_digest({"draws": 101, "seed": 7})
        assert a == b
        assert a != c

    def test_deterministic_field_ordering(self):
        record = make_record("x", {"b": 1, "a": 2}, {"z": (1.0, "Hz"), "a": (2.0, "K")})
        text = record_to_json(record)
        assert text == record_to_json(record)
        assert text.index('"a"') < text.index('"z"')

    @pytest.mark.parametrize("value", [math.nan, math.inf, [1.0, -math.inf]])
    def test_non_finite_output_refused(self, value):
        record = make_record("x", {}, {"y": (value, "Hz")})
        with pytest.raises(ValueError):
            record_to_json(record)

    def test_read_result_missing_field(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"operation": "x"}', encoding="utf-8")
        with pytest.raises(ParseError):
            read_result(path)
