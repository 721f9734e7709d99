"""Trace files, device configuration and result records.

Formats (bit-exact):

* Trace CSV: first line ``# kind=<kind>``, then a column header, then
  rows; blank body lines are skipped. UTF-8, LF line endings, ``.``
  decimal separator. Columns per kind: reflection ``freq_hz,re,im``;
  gain_db ``freq_hz,gain_db``; noise_psd ``temp_k,psd_w_per_hz``;
  bias_shift ``idc_a,freq_hz``.
* Config: one JSON document; every physical quantity carries its unit in
  the key name (``kappa_e_hz``), so there is no unit ambiguity. Unknown
  fields are rejected; absence of a physical parameter is an error.
* Result records: one plain JSON document per operation (a dict from
  :func:`make_record`, rendered by :func:`record_to_json` with sorted
  keys); every numeric output carries a unit string.

All Hz quantities convert to internal angular units (rad/s) on load by
an exact factor of 2*pi.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaMismatch, UnitError
from .params import (
    TRACE_COLUMNS,
    CoupledSystem,
    GridOrderError,
    KineticFilm,
    PumpConfig,
    ResonatorParams,
    Trace,
    hz_to_angular,
)


def load_trace(path, kind: str) -> Trace:
    """Read a trace CSV and validate it against the schema for ``kind``."""
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
    # the file line of each data row: blank body lines are skipped
    rows = [n for n in range(3, len(lines) + 1) if lines[n - 1].strip()]
    if not rows:
        raise ParseError("trace file has no data rows", line=3)
    width = len(columns)
    table = np.empty((len(rows), width))
    for start in range(0, len(rows), _PARSE_ROWS):
        numbers = rows[start:start + _PARSE_ROWS]
        chunk = [lines[n - 1] for n in numbers]
        try:  # numpy applies float() to each field, so _check_row names the fault
            if any(line.count(",") != width - 1 for line in chunk):
                raise ValueError("field count")
            values = np.array(",".join(chunk).split(","), dtype=float).reshape(-1, width)
            if not np.isfinite(values).all():
                raise ValueError("non-finite value")
        except ValueError:
            for n, line in zip(numbers, chunk):  # name the first faulty line
                _check_row(line, width, n)
            raise
        table[start:start + len(chunk)] = values
    y = table[:, 1]
    if kind == "reflection":  # re, im pairs as complex, bit for bit
        y = np.ascontiguousarray(table[:, 1:]).view(complex)[:, 0]
    try:
        return Trace(x=table[:, 0], y=y, kind=kind)
    except GridOrderError as exc:
        i = exc.index
        raise SchemaMismatch(
            f"{columns[0]} must be strictly increasing, got {table[i, 0].item()!r} "
            f"after {table[i - 1, 0].item()!r} on line {rows[i - 1]}",
            line=rows[i],
        ) from exc


# rows per numpy parse call in load_trace: bounds the transient field
# strings to a few hundred kB (one call over an 8001-row reflection body
# raised load_trace's tracemalloc peak from 1.9 to 3.0 MB; chunked, 1.4 MB)
_PARSE_ROWS = 1024


def _check_row(line: str, width: int, lineno: int) -> None:
    """Raise the ParseError for a trace data row with a field count other
    than ``width``, a field ``float()`` rejects or a value not finite."""
    parts = line.split(",")
    if len(parts) != width:
        raise ParseError(f"expected {width} columns, got {len(parts)}", line=lineno)
    try:
        values = [float(part) for part in parts]
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from exc
    if not all(map(math.isfinite, values)):
        raise ParseError(f"non-finite value in row {line!r}", line=lineno)


def save_trace(trace: Trace, path) -> None:
    """Write a trace CSV in the exact schema read by :func:`load_trace`."""
    columns = TRACE_COLUMNS[trace.kind]
    out = [f"# kind={trace.kind}", ",".join(columns)]
    pairs = zip(trace.x.tolist(), trace.y.tolist())  # Python floats: repr round-trips
    if trace.kind == "reflection":
        out += [f"{x!r},{y.real!r},{y.imag!r}" for x, y in pairs]
    else:
        out += [f"{x!r},{y!r}" for x, y in pairs]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Device configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceConfig:
    """Full device description with internal angular units."""

    film: KineticFilm
    ring: ResonatorParams       # nonlinear (pumped) mode
    auxiliary: ResonatorParams  # linear mode
    J: float                    # coupling rate [rad/s]
    pump: PumpConfig

    def coupled_system(self) -> CoupledSystem:
        return CoupledSystem(mode_a=self.ring, mode_b=self.auxiliary, J=self.J)


_RESONATOR_KEYS = ("f0_hz", "kappa_e_hz", "kappa_i_hz")
_FILM_REQUIRED = ("l0_h", "i_star_a")
_PUMP_REQUIRED = ("f_p_hz", "phi_p_rad", "i_dc_a", "drive")
_DRIVE_KEYS = ("g_hz", "p_p_w", "z_ref_ohm", "cal")
_TOP_REQUIRED = ("film", "ring", "auxiliary", "j_hz", "pump")

# key stems of every known unit-suffixed key, for the missing-suffix check
_KNOWN_STEMS = {
    "f0": "f0_hz", "kappa_e": "kappa_e_hz", "kappa_i": "kappa_i_hz",
    "l0": "l0_h", "i_star": "i_star_a",
    "f_p": "f_p_hz", "phi_p": "phi_p_rad", "i_dc": "i_dc_a", "j": "j_hz",
    "g": "g_hz", "p_p": "p_p_w", "z_ref": "z_ref_ohm",
}


def _section(obj, context: str, required=(), optional=()) -> dict:
    """``obj`` as a config section: a JSON object with no key outside
    ``required`` and ``optional`` and every key of ``required``, checked
    in that order. A Kerr key, a known key without its unit suffix and
    any other unknown key each have their own error."""
    if not isinstance(obj, dict):
        raise ParseError(f"{context}: must be an object")
    for key in obj:
        if key in required or key in optional:
            continue
        if "kerr" in key.lower():
            raise SchemaMismatch(
                f"{context}: field {key!r} is rejected; four-wave-mixing "
                "(Kerr) terms are out of scope for this model"
            )
        if key in _KNOWN_STEMS:
            raise UnitError(
                f"{context}: field {key!r} is missing its unit suffix; "
                f"use {_KNOWN_STEMS[key]!r}"
            )
        raise SchemaMismatch(f"{context}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise ParseError(f"{context}: missing required field {key!r}")
    return obj


def _number(obj: dict, key: str, context: str) -> float:
    """``obj[key]`` as a finite float."""
    try:
        value = float(obj[key])
    except (TypeError, ValueError):
        raise ParseError(
            f"{context}.{key}: must be a number, got {obj[key]!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"{context}.{key}: must be finite, got {value!r}")
    return value


def _resonator(obj, context: str) -> ResonatorParams:
    _section(obj, context, _RESONATOR_KEYS)
    return ResonatorParams(
        omega0=hz_to_angular(_number(obj, "f0_hz", context)),
        kappa_e=hz_to_angular(_number(obj, "kappa_e_hz", context)),
        kappa_i=hz_to_angular(_number(obj, "kappa_i_hz", context)),
    )


def load_config(path) -> DeviceConfig:
    """Read and validate a device-config JSON document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    _section(doc, "config", _TOP_REQUIRED)

    film_obj = _section(doc["film"], "config.film", _FILM_REQUIRED)
    film = KineticFilm(
        L0=_number(film_obj, "l0_h", "config.film"),
        I_star=_number(film_obj, "i_star_a", "config.film"),
    )

    ring = _resonator(doc["ring"], "config.ring")
    auxiliary = _resonator(doc["auxiliary"], "config.auxiliary")

    pump_obj = _section(doc["pump"], "config.pump", _PUMP_REQUIRED)
    # both drive sets hold only these keys: rejecting others first changes no error
    drive = _section(pump_obj["drive"], "config.pump.drive", optional=_DRIVE_KEYS)
    if set(drive) not in ({"g_hz"}, {"p_p_w", "z_ref_ohm", "cal"}):
        raise ParseError(
            "config.pump.drive: must be {g_hz} or {p_p_w, z_ref_ohm, cal}, "
            f"got {sorted(drive)}"
        )
    working_point = dict(
        omega_p=hz_to_angular(_number(pump_obj, "f_p_hz", "config.pump")),
        phi_p=_number(pump_obj, "phi_p_rad", "config.pump"),
        I_dc=_number(pump_obj, "i_dc_a", "config.pump"),
    )
    if "g_hz" in drive:
        pump = PumpConfig(**working_point,
                          g=hz_to_angular(_number(drive, "g_hz", "config.pump.drive")))
    else:
        pump = PumpConfig(
            **working_point,
            P_p=_number(drive, "p_p_w", "config.pump.drive"),
            Z_ref=_number(drive, "z_ref_ohm", "config.pump.drive"),
            cal=_number(drive, "cal", "config.pump.drive"),
        )

    return DeviceConfig(
        film=film,
        ring=ring,
        auxiliary=auxiliary,
        J=hz_to_angular(_number(doc, "j_hz", "config")),
        pump=pump,
    )


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------

def inputs_digest(inputs: dict) -> str:
    """Stable sha256 digest of an inputs mapping."""
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def make_record(operation: str, inputs: dict, outputs: dict) -> dict:
    """One operation's result record: a JSON document holding the
    operation, a digest of its inputs and its outputs, where every output
    is a (value, unit) pair and the unit a non-empty string."""
    packed = {}
    for name, pair in outputs.items():
        try:
            value, unit = pair
        except (TypeError, ValueError):
            raise ValueError(
                f"output {name!r} must be a (value, unit) pair, got {pair!r}"
            ) from None
        if not isinstance(unit, str) or not unit:
            raise ValueError(
                f"output {name!r} must carry a value and a non-empty "
                "unit string (use '1' for dimensionless)"
            )
        packed[name] = {"value": value, "unit": unit}
    return {
        "operation": operation,
        "inputs_digest": inputs_digest(inputs),
        "outputs": packed,
        "warnings": [],
    }


def record_to_json(record: dict) -> str:
    """Deterministic JSON rendering (sorted keys, two-space indent).

    Raises ValueError on a NaN or infinite value, which RFC 8259 JSON
    cannot represent.
    """
    return json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"
