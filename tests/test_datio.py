"""Trace CSV and config JSON round trips and rejections; result records."""

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kipa import (
    ParseError,
    SchemaMismatch,
    Trace,
    UnitError,
    load_config,
    load_trace,
    make_record,
    save_trace,
)
from kipa import datio
from kipa.datio import TRACE_COLUMNS, inputs_digest, record_to_json
from kipa.params import GridOrderError, KineticFilm, PumpConfig, ResonatorParams, hz_to_angular

GOOD_CONFIG = {
    "film": {"l0_h": 2.51e-7, "i_star_a": 5.86e-3},
    "ring": {"f0_hz": 7.4e9, "kappa_e_hz": 1.9e7, "kappa_i_hz": 4.0e6},
    "auxiliary": {"f0_hz": 7.03e9, "kappa_e_hz": 1.9e7, "kappa_i_hz": 4.0e6},
    "j_hz": 2.15e7,
    "pump": {
        "f_p_hz": 1.431e10, "phi_p_rad": 0.0, "i_dc_a": 1.575e-3,
        "drive": {"p_p_w": 4.2e-6, "z_ref_ohm": 50.0, "cal": 1.0},
    },
}


def write_config(tmp_path, doc, name="dev.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def reference_load_trace(path, kind: str) -> Trace:
    """load_trace as it read every file, line by line."""
    if kind not in TRACE_COLUMNS:
        raise ValueError(f"unknown trace kind {kind!r}")
    columns = TRACE_COLUMNS[kind]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty trace file", line=1)
    header = lines[0].strip()
    if not header.startswith("# kind="):
        raise ParseError("first line must be '# kind=<kind>'", line=1)
    file_kind = header[len("# kind="):].strip()
    if file_kind != kind:
        raise SchemaMismatch(
            f"trace file holds kind={file_kind!r}, expected {kind!r}"
        )
    if len(lines) < 2 or lines[1].strip() != ",".join(columns):
        raise SchemaMismatch(
            f"column header must be {','.join(columns)!r} for kind={kind}"
        )
    xs: list[float] = []
    ys: list = []
    rows: list[int] = []  # file line of each kept row
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ParseError(
                f"expected {len(columns)} columns, got {len(parts)}", line=lineno
            )
        try:
            values = [float(part) for part in parts]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if not all(map(math.isfinite, values)):
            raise ParseError(f"non-finite value in row {line!r}", line=lineno)
        xs.append(values[0])
        ys.append(complex(values[1], values[2]) if kind == "reflection" else values[1])
        rows.append(lineno)
    if not xs:
        raise ParseError("trace file has no data rows", line=3)
    try:
        return Trace(x=xs, y=ys, kind=kind)
    except GridOrderError as exc:
        i = exc.index
        raise SchemaMismatch(
            f"{columns[0]} must be strictly increasing, got {xs[i]!r} after "
            f"{xs[i - 1]!r} on line {rows[i - 1]}",
            line=rows[i],
        ) from exc
    except ValueError as exc:
        raise SchemaMismatch(str(exc)) from exc


def load_outcome(load, path, kind):
    """(x, y) bit patterns of the loaded trace, or the exception's type,
    message and line."""
    try:
        trace = load(path, kind)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return trace.x.view(np.int64).tolist(), trace.y.view(np.float64).view(np.int64).tolist()


def mostly(regular, *special):
    """A draw of ``regular`` most of the time, else one of ``special``."""
    return st.tuples(st.integers(0, 7), regular, st.sampled_from(special)).map(
        lambda draw: draw[1] if draw[0] else draw[2])


# fields float() accepts in other spellings, and ones that fail or are not
# finite, next to the repr that save_trace writes
_FIELD = mostly(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                "1_000", "+1e3", " 2 ", "\t7", "-0", ".5", "1.", "\u0661\u0662", "1e999",
                "inf", "-inf", "nan", "NaN", "", "x", "1__0", "0x10", "1 2")


@st.composite
def trace_files(draw):
    """Text of a trace file whose body may hold blank lines, odd spellings,
    wrong field counts, CRLF ends and repeated or falling x."""
    kind = draw(st.sampled_from(sorted(TRACE_COLUMNS)))
    width = len(TRACE_COLUMNS[kind])
    xs = draw(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=25,
                       unique=True).map(sorted))
    lines = []
    for i, x in enumerate(xs):
        fields = [draw(mostly(st.just(repr(x)), repr(xs[i - 1]), repr(-x), " 1_0 "))]
        fields += [draw(_FIELD) for _ in range(width - 1)]
        fields = fields[:draw(mostly(st.just(width), width - 1, width + 1))]
        fields += [draw(_FIELD) for _ in range(len(fields), draw(mostly(st.just(width),
                                                                       width + 1)))]
        lines.append(",".join(fields))
        lines += [draw(st.sampled_from(["", " ", "\r", "\t"]))
                  for _ in range(draw(mostly(st.just(0), 1, 2)))]
    header = [f"# kind={kind}", ",".join(TRACE_COLUMNS[kind])]
    end = draw(mostly(st.just("\n"), "\r\n"))
    return kind, end.join(header + lines) + draw(mostly(st.just(end), ""))



def _reference_reject_unknown(obj, allowed, context):
    for key in obj:
        if key in allowed:
            continue
        if "kerr" in key.lower():
            raise SchemaMismatch(
                f"{context}: field {key!r} is rejected; four-wave-mixing "
                "(Kerr) terms are out of scope for this model"
            )
        if key in datio._KNOWN_STEMS:
            raise UnitError(
                f"{context}: field {key!r} is missing its unit suffix; "
                f"use {datio._KNOWN_STEMS[key]!r}"
            )
        raise SchemaMismatch(f"{context}: unknown field {key!r}")


def _reference_require(obj, keys, context):
    for key in keys:
        if key not in obj:
            raise ParseError(f"{context}: missing required field {key!r}")


def _reference_resonator(obj, context):
    if not isinstance(obj, dict):
        raise ParseError(f"{context}: must be an object")
    _reference_reject_unknown(obj, datio._RESONATOR_KEYS, context)
    _reference_require(obj, datio._RESONATOR_KEYS, context)
    return ResonatorParams(
        omega0=hz_to_angular(datio._number(obj, "f0_hz", context)),
        kappa_e=hz_to_angular(datio._number(obj, "kappa_e_hz", context)),
        kappa_i=hz_to_angular(datio._number(obj, "kappa_i_hz", context)),
    )


def reference_load_config(path):
    """load_config as it checked each section by hand."""
    number = datio._number
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    _reference_reject_unknown(doc, datio._TOP_REQUIRED, "config")
    _reference_require(doc, datio._TOP_REQUIRED, "config")

    film_obj = doc["film"]
    if not isinstance(film_obj, dict):
        raise ParseError("config.film: must be an object")
    _reference_reject_unknown(film_obj, datio._FILM_REQUIRED, "config.film")
    _reference_require(film_obj, datio._FILM_REQUIRED, "config.film")
    film = KineticFilm(
        L0=number(film_obj, "l0_h", "config.film"),
        I_star=number(film_obj, "i_star_a", "config.film"),
    )

    ring = _reference_resonator(doc["ring"], "config.ring")
    auxiliary = _reference_resonator(doc["auxiliary"], "config.auxiliary")

    pump_obj = doc["pump"]
    if not isinstance(pump_obj, dict):
        raise ParseError("config.pump: must be an object")
    _reference_reject_unknown(pump_obj, datio._PUMP_REQUIRED, "config.pump")
    _reference_require(pump_obj, datio._PUMP_REQUIRED, "config.pump")
    drive = pump_obj["drive"]
    if not isinstance(drive, dict):
        raise ParseError("config.pump.drive: must be an object")
    if set(drive) == {"g_hz"}:
        pump = PumpConfig(
            omega_p=hz_to_angular(number(pump_obj, "f_p_hz", "config.pump")),
            phi_p=number(pump_obj, "phi_p_rad", "config.pump"),
            I_dc=number(pump_obj, "i_dc_a", "config.pump"),
            g=hz_to_angular(number(drive, "g_hz", "config.pump.drive")),
        )
    elif set(drive) == {"p_p_w", "z_ref_ohm", "cal"}:
        pump = PumpConfig(
            omega_p=hz_to_angular(number(pump_obj, "f_p_hz", "config.pump")),
            phi_p=number(pump_obj, "phi_p_rad", "config.pump"),
            I_dc=number(pump_obj, "i_dc_a", "config.pump"),
            P_p=number(drive, "p_p_w", "config.pump.drive"),
            Z_ref=number(drive, "z_ref_ohm", "config.pump.drive"),
            cal=number(drive, "cal", "config.pump.drive"),
        )
    else:
        _reference_reject_unknown(drive, ("g_hz", "p_p_w", "z_ref_ohm", "cal"),
                                  "config.pump.drive")
        raise ParseError(
            "config.pump.drive: must be {g_hz} or {p_p_w, z_ref_ohm, cal}, "
            f"got {sorted(drive)}"
        )

    return datio.DeviceConfig(
        film=film,
        ring=ring,
        auxiliary=auxiliary,
        J=hz_to_angular(number(doc, "j_hz", "config")),
        pump=pump,
    )


# config sections by path, and the numeric fields of each
_SECTIONS = {
    (): ("j_hz",),
    ("film",): ("l0_h", "i_star_a"),
    ("ring",): ("f0_hz", "kappa_e_hz", "kappa_i_hz"),
    ("auxiliary",): ("f0_hz", "kappa_e_hz", "kappa_i_hz"),
    ("pump",): ("f_p_hz", "phi_p_rad", "i_dc_a"),
    ("pump", "drive"): ("g_hz", "p_p_w", "z_ref_ohm", "cal"),
}
_NOT_OBJECTS = (None, 1.0, "film", [], [1.0])
_BAD_NUMBERS = (math.nan, math.inf, -math.inf, "nan", "x", None, [], {}, -1.0, 0.0, 1e308)
_BAD_DRIVES = ({}, {"g_hz": 5e6, "p_p_w": 1e-6}, {"p_p_w": 1e-6, "cal": 1.0},
               {"g_hz": 5e6, "cal": 1.0}, {"g": 5e6}, {"g_hz": 5e6, "kerr_k": 1.0})


@st.composite
def faulty_configs(draw):
    """A good config, with either drive, given one or two faults: a section
    of the wrong type, an unknown, Kerr or unsuffixed key, a missing key, a
    non-finite, non-numeric or out-of-range number or a bad drive set."""
    doc = json.loads(json.dumps(GOOD_CONFIG))
    if draw(st.booleans()):
        doc["pump"]["drive"] = {"g_hz": 5.0e6}
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(sorted(_SECTIONS)))
        parent, section = None, doc
        for key in path:
            parent, section = section, section.get(key) if isinstance(section, dict) else None
        if not isinstance(section, dict):
            continue
        fault = draw(st.sampled_from(["type", "unknown", "missing", "suffix", "kerr",
                                      "number", "drive"]))
        keys = sorted(section)
        if fault == "type" and path:
            parent[path[-1]] = draw(st.sampled_from(_NOT_OBJECTS))
        elif fault == "type":
            return draw(st.sampled_from(_NOT_OBJECTS))
        elif fault == "unknown":
            section[draw(st.sampled_from(["quality", "f0", "J_hz", "drive"]))] = 1.0
        elif fault == "missing" and keys:
            del section[draw(st.sampled_from(keys))]
        elif fault == "suffix" and keys:
            key = draw(st.sampled_from(keys))
            stem = next((s for s, full in datio._KNOWN_STEMS.items() if full == key), key)
            section[stem] = section.pop(key)
        elif fault == "kerr":
            section[draw(st.sampled_from(["kerr_K", "Kerr", "self_kerr_hz"]))] = 1e-3
        elif fault == "number" and _SECTIONS[path]:
            section[draw(st.sampled_from(_SECTIONS[path]))] = draw(st.sampled_from(_BAD_NUMBERS))
        elif fault == "drive" and isinstance(doc.get("pump"), dict):
            doc["pump"]["drive"] = dict(draw(st.sampled_from(_BAD_DRIVES)))
    return doc


def pump_faults(f_p_hz, drive):
    """The good config with a bad pump frequency and drive: which of the two
    errors wins pins the order of the pump's checks."""
    doc = json.loads(json.dumps(GOOD_CONFIG))
    doc["pump"].update(f_p_hz=f_p_hz, drive=drive)
    return doc


def config_outcome(load, path):
    """The loaded config's repr, or the exception's type and message."""
    try:
        return repr(load(path))
    except Exception as exc:
        return type(exc), str(exc)


class TestTraceIO:
    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(case=trace_files())
    @example(case=("gain_db", "# kind=gain_db\nfreq_hz,gain_db\n1_000,+1e3\n 2e3 , 2 \n"))
    @example(case=("reflection", "# kind=reflection\r\nfreq_hz,re,im\r\n1.0,-0,0.5\r\n"
                                 "2.0,-0.0,-1\r\n"))
    @example(case=("reflection", "# kind=reflection\nfreq_hz,re,im\n1.0,0.5,-1\n"
                                 "2.0,nan,1\n"))
    @example(case=("noise_psd", "# kind=noise_psd\ntemp_k,psd_w_per_hz\n0.1,1\n0.1,2\n"))
    # one field too many, then one too few: the field count alone would fit
    @example(case=("gain_db", "# kind=gain_db\nfreq_hz,gain_db\n1,2,3\n4\n"))
    def test_load_trace_matches_reference_over_chunk_sizes(self, tmp_path_factory, case):
        kind, text = case
        path = tmp_path_factory.mktemp("chunks") / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = load_outcome(reference_load_trace, path, kind)
        for rows in (datio._PARSE_ROWS, 3):  # one parse call, and several
            with mock.patch.object(datio, "_PARSE_ROWS", rows):
                assert load_outcome(load_trace, path, kind) == expected
                if isinstance(expected[0], list):
                    # a loadable file, blank lines included, never reads a row alone
                    with mock.patch.object(datio, "_check_row", side_effect=AssertionError):
                        assert load_outcome(load_trace, path, kind) == expected

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(TRACE_COLUMNS)),
           x=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                      max_size=30, unique=True).map(sorted),
           values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=60, max_size=60))
    @example(kind="reflection", x=[-0.0, 1.0], values=[-0.0] * 30 + [2.5] * 30)
    def test_save_load_round_trip_is_bitwise(self, tmp_path_factory, kind, x, values):
        y = np.array(values[:len(x)])
        if kind == "reflection":  # set, not summed, to keep a -0.0 real part
            y = np.array(values[:len(x)], dtype=complex)
            y.imag = values[30:30 + len(x)]
        trace = Trace(x=x, y=y, kind=kind)
        path = tmp_path_factory.mktemp("round") / "trace.csv"
        save_trace(trace, path)
        back = load_trace(path, kind)
        assert back.x.view(np.int64).tolist() == trace.x.view(np.int64).tolist()
        assert (back.y.view(np.float64).view(np.int64).tolist()
                == trace.y.view(np.float64).view(np.int64).tolist())

    @pytest.mark.parametrize("kind", ["gain_db", "reflection"])
    def test_save_bytes_match_per_element_formatter(self, tmp_path, kind):
        x = np.array([-1e308, -5e-324, -0.0, 2.2250738585072014e-309, 1.0, 1e308])
        y = np.array([-0.0, 1e308, -1e308, 5e-324, -1e-310, 0.1])
        if kind == "reflection":  # set, not summed, to keep the signed zeros
            y = y.astype(complex)
            y.imag = y.real[::-1]
        trace = Trace(x=x, y=y, kind=kind)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        expected = [f"# kind={kind}", ",".join(TRACE_COLUMNS[kind])]
        for xv, yv in zip(trace.x, trace.y):
            if kind == "reflection":
                expected.append(f"{float(xv)!r},{float(yv.real)!r},{float(yv.imag)!r}")
            else:
                expected.append(f"{float(xv)!r},{float(yv)!r}")
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")

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

    @pytest.mark.parametrize("section,key,value", [
        ((), "conventions", {"hybridization_form": "as_printed"}),
        (("film",), "l_sheet_h_per_sq", 3.0e-11),
    ], ids=["conventions", "l_sheet_h_per_sq"])
    def test_removed_key_is_an_unknown_field(self, tmp_path, section, key, value):
        """The schema dropped these keys, which no output read: a config that
        still carries one is refused, not silently accepted."""
        doc = json.loads(json.dumps(GOOD_CONFIG))
        target = doc
        for name in section:
            target = target[name]
        target[key] = value
        context = ".".join(("config", *section))
        with pytest.raises(SchemaMismatch, match=f"^{context}: unknown field {key!r}$"):
            load_config(write_config(tmp_path, doc))

    def test_mixed_drive_rejected(self, tmp_path):
        doc = json.loads(json.dumps(GOOD_CONFIG))
        doc["pump"]["drive"] = {"g_hz": 5e6, "p_p_w": 1e-6}
        with pytest.raises((ParseError, SchemaMismatch, UnitError)):
            load_config(write_config(tmp_path, doc))


    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(doc=faulty_configs())
    @example(doc=pump_faults("x", {}))
    @example(doc=pump_faults(math.nan, {"g_hz": "x"}))
    @example(doc=pump_faults(None, []))
    def test_faulty_config_matches_reference(self, tmp_path_factory, doc):
        path = write_config(tmp_path_factory.mktemp("cfg"), doc)
        assert config_outcome(load_config, path) == config_outcome(reference_load_config, path)


class TestResultRecords:
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

    def test_rendered_bytes(self):
        record = make_record("x", {"b": 1, "a": 2}, {"z": (1.0, "Hz"), "a": (2, "1")})
        assert record_to_json(record) == """{
  "inputs_digest": "d3626ac30a87e6f7a6428233b3c68299976865fa5508e4267c5415c76af7a772",
  "operation": "x",
  "outputs": {
    "a": {
      "unit": "1",
      "value": 2
    },
    "z": {
      "unit": "Hz",
      "value": 1.0
    }
  },
  "warnings": []
}
"""

    @pytest.mark.parametrize("value", [math.nan, math.inf, [1.0, -math.inf]])
    def test_non_finite_output_refused(self, value):
        record = make_record("x", {}, {"y": (value, "Hz")})
        with pytest.raises(ValueError):
            record_to_json(record)
