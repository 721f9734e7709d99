"""Trace files, device configuration and result records.

Formats (bit-exact):

* Trace CSV: first line ``# kind=<kind>``, then a column header, then
  rows. UTF-8, LF line endings, ``.`` decimal separator. Columns per kind:
  reflection ``freq_hz,re,im``; gain_db ``freq_hz,gain_db``; noise_psd
  ``temp_k,psd_w_per_hz``; bias_shift ``idc_a,freq_hz``.
* Config: one JSON document; every physical quantity carries its unit in
  the key name (``kappa_e_hz``), so there is no unit ambiguity. Unknown
  fields are rejected; absence of a physical parameter is an error.
* Result records: JSON with deterministic field ordering; every numeric
  output carries a unit string.

All Hz quantities convert to internal angular units (rad/s) on load by
an exact factor of 2*pi.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field

from .errors import ParseError, SchemaMismatch, UnitError
from .params import (
    CoupledSystem,
    GridOrderError,
    KineticFilm,
    PumpConfig,
    ResonatorParams,
    Trace,
    hz_to_angular,
)

TRACE_COLUMNS = {
    "reflection": ("freq_hz", "re", "im"),
    "gain_db": ("freq_hz", "gain_db"),
    "noise_psd": ("temp_k", "psd_w_per_hz"),
    "bias_shift": ("idc_a", "freq_hz"),
}


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


def save_trace(trace: Trace, path) -> None:
    """Write a trace CSV in the exact schema read by :func:`load_trace`."""
    columns = TRACE_COLUMNS[trace.kind]
    out = [f"# kind={trace.kind}", ",".join(columns)]
    for x, y in zip(trace.x, trace.y):
        if trace.kind == "reflection":
            out.append(f"{float(x)!r},{float(y.real)!r},{float(y.imag)!r}")
        else:
            out.append(f"{float(x)!r},{float(y)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Device configuration
# ---------------------------------------------------------------------------

HYBRIDIZATION_FORMS = ("as_printed", "standard")


@dataclass(frozen=True)
class DeviceConfig:
    """Full device description with internal angular units."""

    film: KineticFilm
    ring: ResonatorParams       # nonlinear (pumped) mode
    auxiliary: ResonatorParams  # linear mode
    J: float                    # coupling rate [rad/s]
    pump: PumpConfig
    hybridization_form: str = "as_printed"

    def coupled_system(self) -> CoupledSystem:
        return CoupledSystem(mode_a=self.ring, mode_b=self.auxiliary, J=self.J)


_RESONATOR_KEYS = ("f0_hz", "kappa_e_hz", "kappa_i_hz")
_FILM_REQUIRED = ("l0_h", "i_star_a")
_FILM_OPTIONAL = ("l_sheet_h_per_sq",)
_PUMP_REQUIRED = ("f_p_hz", "phi_p_rad", "i_dc_a", "drive")
_TOP_REQUIRED = ("film", "ring", "auxiliary", "j_hz", "pump")
_TOP_OPTIONAL = ("conventions",)

# key stems of every known unit-suffixed key, for the missing-suffix check
_KNOWN_STEMS = {
    "f0": "f0_hz", "kappa_e": "kappa_e_hz", "kappa_i": "kappa_i_hz",
    "l0": "l0_h", "i_star": "i_star_a", "l_sheet": "l_sheet_h_per_sq",
    "f_p": "f_p_hz", "phi_p": "phi_p_rad", "i_dc": "i_dc_a", "j": "j_hz",
    "g": "g_hz", "p_p": "p_p_w", "z_ref": "z_ref_ohm",
}


def _reject_unknown(obj: dict, allowed, context: str) -> None:
    for key in obj:
        if key in allowed:
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


def _require(obj: dict, keys, context: str) -> None:
    for key in keys:
        if key not in obj:
            raise ParseError(f"{context}: missing required field {key!r}")


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


def _resonator(obj: dict, context: str) -> ResonatorParams:
    if not isinstance(obj, dict):
        raise ParseError(f"{context}: must be an object")
    _reject_unknown(obj, _RESONATOR_KEYS, context)
    _require(obj, _RESONATOR_KEYS, context)
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
    _reject_unknown(doc, _TOP_REQUIRED + _TOP_OPTIONAL, "config")
    _require(doc, _TOP_REQUIRED, "config")

    film_obj = doc["film"]
    if not isinstance(film_obj, dict):
        raise ParseError("config.film: must be an object")
    _reject_unknown(film_obj, _FILM_REQUIRED + _FILM_OPTIONAL, "config.film")
    _require(film_obj, _FILM_REQUIRED, "config.film")
    film = KineticFilm(
        L0=_number(film_obj, "l0_h", "config.film"),
        I_star=_number(film_obj, "i_star_a", "config.film"),
        L_sheet=(
            _number(film_obj, "l_sheet_h_per_sq", "config.film")
            if "l_sheet_h_per_sq" in film_obj else None
        ),
    )

    ring = _resonator(doc["ring"], "config.ring")
    auxiliary = _resonator(doc["auxiliary"], "config.auxiliary")

    pump_obj = doc["pump"]
    if not isinstance(pump_obj, dict):
        raise ParseError("config.pump: must be an object")
    _reject_unknown(pump_obj, _PUMP_REQUIRED, "config.pump")
    _require(pump_obj, _PUMP_REQUIRED, "config.pump")
    drive = pump_obj["drive"]
    if not isinstance(drive, dict):
        raise ParseError("config.pump.drive: must be an object")
    if set(drive) == {"g_hz"}:
        pump = PumpConfig(
            omega_p=hz_to_angular(_number(pump_obj, "f_p_hz", "config.pump")),
            phi_p=_number(pump_obj, "phi_p_rad", "config.pump"),
            I_dc=_number(pump_obj, "i_dc_a", "config.pump"),
            g=hz_to_angular(_number(drive, "g_hz", "config.pump.drive")),
        )
    elif set(drive) == {"p_p_w", "z_ref_ohm", "cal"}:
        pump = PumpConfig(
            omega_p=hz_to_angular(_number(pump_obj, "f_p_hz", "config.pump")),
            phi_p=_number(pump_obj, "phi_p_rad", "config.pump"),
            I_dc=_number(pump_obj, "i_dc_a", "config.pump"),
            P_p=_number(drive, "p_p_w", "config.pump.drive"),
            Z_ref=_number(drive, "z_ref_ohm", "config.pump.drive"),
            cal=_number(drive, "cal", "config.pump.drive"),
        )
    else:
        _reject_unknown(drive, ("g_hz", "p_p_w", "z_ref_ohm", "cal"),
                        "config.pump.drive")
        raise ParseError(
            "config.pump.drive: must be {g_hz} or {p_p_w, z_ref_ohm, cal}, "
            f"got {sorted(drive)}"
        )

    form = "as_printed"
    if "conventions" in doc:
        conv = doc["conventions"]
        if not isinstance(conv, dict):
            raise ParseError("config.conventions: must be an object")
        _reject_unknown(conv, ("hybridization_form",), "config.conventions")
        if "hybridization_form" in conv:
            form = conv["hybridization_form"]
            if form not in HYBRIDIZATION_FORMS:
                raise ParseError(
                    f"config.conventions.hybridization_form: must be one of "
                    f"{HYBRIDIZATION_FORMS}, got {form!r}"
                )

    return DeviceConfig(
        film=film,
        ring=ring,
        auxiliary=auxiliary,
        J=hz_to_angular(_number(doc, "j_hz", "config")),
        pump=pump,
        hybridization_form=form,
    )


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRecord:
    """One operation's outputs with units, plus a digest of its inputs."""

    operation: str
    inputs_digest: str
    outputs: dict   # name -> {"value": ..., "unit": str}
    warnings: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for name, entry in self.outputs.items():
            if (
                not isinstance(entry, dict)
                or set(entry) != {"value", "unit"}
                or not isinstance(entry["unit"], str)
                or not entry["unit"]
            ):
                raise ValueError(
                    f"output {name!r} must carry a value and a non-empty "
                    "unit string (use '1' for dimensionless)"
                )
        object.__setattr__(self, "warnings", tuple(self.warnings))


def inputs_digest(inputs: dict) -> str:
    """Stable sha256 digest of an inputs mapping."""
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def make_record(operation: str, inputs: dict, outputs: dict, warnings=()) -> ResultRecord:
    """Build a ResultRecord; every output is a (value, unit) pair."""
    packed = {}
    for name, pair in outputs.items():
        try:
            value, unit = pair
        except (TypeError, ValueError):
            raise ValueError(
                f"output {name!r} must be a (value, unit) pair, got {pair!r}"
            ) from None
        packed[name] = {"value": value, "unit": unit}
    return ResultRecord(
        operation=operation,
        inputs_digest=inputs_digest(inputs),
        outputs=packed,
        warnings=tuple(warnings),
    )


def record_to_json(record: ResultRecord) -> str:
    """Deterministic JSON rendering (sorted keys, two-space indent).

    Raises ValueError on a NaN or infinite value, which RFC 8259 JSON
    cannot represent.
    """
    doc = {
        "operation": record.operation,
        "inputs_digest": record.inputs_digest,
        "outputs": record.outputs,
        "warnings": list(record.warnings),
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_result(record: ResultRecord, path_or_stream) -> None:
    """Write a record as JSON to a path or text stream."""
    text = record_to_json(record)
    if isinstance(path_or_stream, io.TextIOBase):
        path_or_stream.write(text)
    else:
        with open(path_or_stream, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def read_result(path) -> ResultRecord:
    """Read a record written by :func:`write_result`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno) from exc
    for key in ("operation", "inputs_digest", "outputs", "warnings"):
        if key not in doc:
            raise ParseError(f"result record missing field {key!r}")
    return ResultRecord(
        operation=doc["operation"],
        inputs_digest=doc["inputs_digest"],
        outputs=doc["outputs"],
        warnings=tuple(doc["warnings"]),
    )
