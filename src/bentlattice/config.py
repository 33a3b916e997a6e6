"""Scenario configuration: flat-sectioned key-value text with a fixed schema.

The format is deliberately dumb: ``[section]`` headers, one ``key = value``
per line, ``#`` comments, no nesting, no interpolation, no executable
content.  Every key is declared below with its type (and enum values where
applicable); unknown keys or malformed values raise ConfigError carrying
the dotted field path.  A resolved configuration (defaults filled in) can
be dumped back to canonical text that reproduces the run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from .bpm import ChannelShape, OpticsParams
from .drive import DriveKind, DriveProfile
from .errors import ConfigError
from .fieldio import format_float
from .tight_binding import Boundary, Branch, Gauge, SuperlatticeParams
from .two_level import MatrixKind

TIERS = ("two_level", "tight_binding", "dirac", "bpm", "bands", "sweep")

# schema: section -> key -> (type, default, allowed-values or None)
# default None means "only present when the user sets it"
SCHEMA = {
    "scenario": {
        "tier": ("str", None, TIERS),
        "name": ("str", "scenario", None),
    },
    "lattice": {
        "sigma_cm": ("float", 2.0, None),
        "delta_cm": ("float", 1.817, None),
        "spacing_um": ("float", 10.0, None),
        "n_sites": ("int", 64, None),
    },
    "optics": {
        "n_s": ("float", 1.42, None),
        "lambda_cm": ("float", 633e-7, None),
        "dn1": ("float", 0.002, None),
        "dn2": ("float", OpticsParams().dn2, None),
        "spacing_um": ("float", 10.0, None),
        "channel_width_um": ("float", OpticsParams().channel_width_um, None),
        "channel_shape": ("str", "super_gaussian",
                          tuple(s.value for s in ChannelShape)),
        "sg_order": ("int", 4, None),
    },
    "drive": {
        "kind": ("str", "straight", tuple(k.value for k in DriveKind)),
        "period_cm": ("float", 1.0, None),
        "amplitude_um": ("float", None, None),
        "phi0": ("float", None, None),
        "table_z_cm": ("floats", None, None),
        "table_phi": ("floats", None, None),
    },
    "input": {
        "qa_over_pi": ("float", 0.25, None),
        "branch": ("str", "minus", ("minus", "plus")),
        "packet": ("str", "bloch", ("bloch", "gaussian")),
        "width_sites": ("float", 32.0, None),
        "center_site": ("float", 0.0, None),
        "width_xi": ("float", 16.0, None),
        "center_xi": ("float", 0.0, None),
        "xi_span": ("float", 256.0, None),
        "n_points": ("int", 2048, None),
        "w0_um": ("float", 80.0, None),
        "theta_over_bragg": ("float", 0.5, None),
        "theta_rad": ("float", None, None),
        "purify_band": ("bool", False, None),
    },
    "numerics": {
        "z_end_cm": ("float", None, None),
        "dz_cm": ("float", None, None),
        "snapshot_every": ("int", None, None),
        "boundary": ("str", "periodic", tuple(b.value for b in Boundary)),
        "matrix_kind": ("str", "full", tuple(m.value for m in MatrixKind)),
        "gauge": ("str", "gauged", ("bare", "gauged")),
        "bpm_gauge": ("str", "bent_frame", ("bent_frame", "shifted_k")),
        "self_check": ("bool", False, None),
        "n_guides": ("int", 60, None),
        "grid_cells": ("int", 41, None),
        "grid_points": ("int", 4096, None),
        "absorber_fraction": ("float", 0.10, None),
        "absorber_strength_cm": ("float", 600.0, None),
        "absorber_enabled": ("bool", True, None),
        "census_threshold": ("float", 0.1, None),
        "census_merge_um": ("float", None, None),
    },
    "bands": {
        "n_plane_waves": ("int", 161, None),
        "n_q": ("int", 128, None),
        "n_bands": ("int", 4, None),
        "dump_modes": ("bool", False, None),
        "mode_q_index": ("int", -1, None),
    },
    "sweep": {
        # the tiers whose summary has a headline value for the sweep row
        "tier": ("str", "two_level", TIERS[:4]),
        "axis": ("str", "drive.phi0", None),
        "start": ("float", 0.0, None),
        "stop": ("float", 1.0, None),
        "step": ("float", 0.1, None),
        "values": ("floats", None, None),
    },
    "output": {
        "prefix": ("str", "run", None),
    },
}

_SECTION_ORDER = tuple(SCHEMA)

# point ceiling of a start/stop/step sweep, about 1000 times fig3's 161: a
# range above it is a mistyped step whose point list would exhaust memory
MAX_SWEEP_POINTS = 161_000


def _parse_value(kind, text, path):
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return _finite(float(text))
        if kind == "bool":
            if text.lower() in ("1", "true", "yes", "on"):
                return True
            if text.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        if kind == "floats":
            return tuple(_finite(float(v)) for v in text.split(",") if v.strip())
        return text
    except ValueError as exc:
        raise ConfigError(f"cannot parse {kind} value {text!r} ({exc})",
                          path) from exc


def _finite(value):
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _format_value(kind, value):
    if kind == "bool":
        return "1" if value else "0"
    if kind == "float":
        return format_float(value)
    if kind == "floats":
        return ",".join(map(format_float, value))
    return str(value)


def parse_config_text(text: str) -> dict:
    """Parse raw config text into a nested {section: {key: value}} dict."""
    data: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"unknown section on line {lineno}", section)
            data.setdefault(section, {})
            continue
        if "=" not in line or section is None:
            raise ConfigError(f"expected 'key = value' on line {lineno}",
                              section or "?")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA[section]:
            raise ConfigError("unknown key", f"{section}.{key}")
        kind = SCHEMA[section][key][0]
        data[section][key] = _parse_value(kind, value, f"{section}.{key}")
    return data


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def apply_overrides(data: dict, overrides) -> dict:
    """Apply repeatable --set section.key=value pairs on top of parsed data."""
    out = {sec: dict(keys) for sec, keys in data.items()}
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form "
                              "section.key=value")
        path, value = item.split("=", 1)
        if "." not in path:
            raise ConfigError(f"override path {path!r} needs a section prefix")
        section, key = path.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError("unknown key", f"{section}.{key}")
        out.setdefault(section, {})[key] = _parse_value(
            SCHEMA[section][key][0], value, f"{section}.{key}")
    return out


def resolve(data: dict) -> dict:
    """Fill defaults and validate enums/requirements; returns the full dict."""
    resolved = {}
    for section, keys in SCHEMA.items():
        resolved[section] = {}
        given = data.get(section, {})
        for key, (kind, default, allowed) in keys.items():
            value = given.get(key, default)
            if value is not None and allowed is not None and value not in allowed:
                raise ConfigError(f"must be one of {allowed}, got {value!r}",
                                  f"{section}.{key}")
            if value is not None:
                resolved[section][key] = value
    tier = resolved["scenario"].get("tier")
    if tier is None:
        raise ConfigError("required", "scenario.tier")
    _validate_tier(resolved, tier)
    return resolved


def _require(resolved, section, key):
    if key not in resolved.get(section, {}):
        raise ConfigError("required for this tier", f"{section}.{key}")


def _validate_tier(resolved, tier):
    if tier == "sweep":
        sweep = resolved["sweep"]
        if sweep.get("values") is None:
            if sweep["step"] <= 0:
                raise ConfigError("sweep step must be positive", "sweep.step")
            if sweep["stop"] < sweep["start"]:
                raise ConfigError("sweep stop must not be below start",
                                  "sweep.stop")
            sweep_point_count(sweep)  # raises above the ceiling
        elif not sweep["values"]:
            raise ConfigError("sweep needs at least one value", "sweep.values")
        axis = sweep["axis"]
        if "." not in axis:
            raise ConfigError("axis must be section.key", "sweep.axis")
        sec, key = axis.split(".", 1)
        if sec not in SCHEMA or key not in SCHEMA[sec]:
            raise ConfigError("unknown axis target", f"sweep.axis={axis}")
        if SCHEMA[sec][key][0] not in ("float", "int"):
            raise ConfigError("axis must target a numeric scalar field",
                              f"sweep.axis={axis}")
        # no tier reads the sweep section, and of the bands section only
        # bpm reads its plane-wave basis: such an axis gives a flat curve
        if sec == "sweep" or (sec == "bands" and not (
                sweep["tier"] == "bpm" and key in ("n_plane_waves",
                                                   "n_bands"))):
            raise ConfigError(f"the {sweep['tier']} tier does not read it",
                              f"sweep.axis={axis}")
        _validate_tier(resolved, sweep["tier"])
        return
    if tier in ("two_level", "tight_binding", "dirac", "bpm"):
        _require(resolved, "numerics", "z_end_cm")
        for key in ("z_end_cm", "dz_cm", "snapshot_every"):
            value = resolved["numerics"].get(key)
            if value is not None and value <= 0:
                raise ConfigError("must be positive", f"numerics.{key}")
    if tier in ("bands", "bpm"):
        bands = resolved["bands"]
        if bands["n_plane_waves"] % 2 == 0 or bands["n_plane_waves"] < 41:
            raise ConfigError("must be odd and >= 41", "bands.n_plane_waves")
        # bpm reports the populations of the two lowest bands
        least = 2 if tier == "bpm" else 1
        if bands["n_bands"] < least:
            raise ConfigError(f"must be >= {least}", "bands.n_bands")
    if tier == "bpm":
        num = resolved["numerics"]
        if not 0 < num["census_threshold"] < 1:
            raise ConfigError("must be in (0, 1)", "numerics.census_threshold")
        merge = num.get("census_merge_um")
        if merge is not None and not merge >= 0:
            raise ConfigError("must be >= 0", "numerics.census_merge_um")
    if tier == "bands":
        if bands["n_q"] < 1:
            raise ConfigError("must be >= 1", "bands.n_q")
        # a negative mode_q_index selects the middle q sample
        if bands["dump_modes"] and bands["mode_q_index"] >= bands["n_q"]:
            raise ConfigError(f"must be < bands.n_q = {bands['n_q']}",
                              "bands.mode_q_index")
    drive = resolved["drive"]
    if drive["kind"] in ("sinusoidal", "single_cycle"):
        has_amp = drive.get("amplitude_um") is not None
        has_phi0 = drive.get("phi0") is not None
        if has_amp == has_phi0:
            raise ConfigError(
                "bent drives need exactly one of amplitude_um or phi0",
                "drive.amplitude_um")
    if drive["kind"] == "tabulated":
        _require(resolved, "drive", "table_z_cm")
        _require(resolved, "drive", "table_phi")


def sweep_point_count(sweep) -> int:
    """Point count of a start/stop/step range, at most MAX_SWEEP_POINTS."""
    steps = (sweep["stop"] - sweep["start"]) / sweep["step"] + 1e-9
    if not steps < MAX_SWEEP_POINTS:
        raise ConfigError(f"gives {steps + 1:.3g} points, above the ceiling "
                          f"of {MAX_SWEEP_POINTS}", "sweep.step")
    return int(steps) + 1


def canonical_dump(resolved: dict) -> str:
    """Canonical text form of a resolved configuration (diff-stable)."""
    lines = []
    for section in _SECTION_ORDER:
        keys = resolved.get(section)
        if not keys:
            continue
        lines.append(f"[{section}]")
        for key in SCHEMA[section]:
            if key in keys:
                kind = SCHEMA[section][key][0]
                lines.append(f"{key} = {_format_value(kind, keys[key])}")
        lines.append("")
    return "\n".join(lines)


@dataclass
class Scenario:
    """Validated scenario with typed accessors for the domain objects."""

    resolved: dict

    @property
    def tier(self):
        return self.resolved["scenario"]["tier"]

    @property
    def name(self):
        return self.resolved["scenario"].get("name", "scenario")

    @property
    def prefix(self):
        return self.resolved["output"]["prefix"]

    def section(self, name):
        return self.resolved.get(name, {})

    def lattice_params(self) -> SuperlatticeParams:
        lat = self.section("lattice")
        return SuperlatticeParams(
            sigma_cm=lat["sigma_cm"], delta_cm=lat["delta_cm"],
            spacing_um=lat["spacing_um"], n_sites=lat["n_sites"])

    def optics_params(self) -> OpticsParams:
        opt = self.section("optics")
        return OpticsParams(
            n_s=opt["n_s"], wavelength_cm=opt["lambda_cm"], dn1=opt["dn1"],
            dn2=opt["dn2"], spacing_um=opt["spacing_um"],
            channel_width_um=opt["channel_width_um"],
            channel_shape=ChannelShape(opt["channel_shape"]),
            sg_order=opt["sg_order"])

    def drive_profile(self) -> DriveProfile:
        dr = self.section("drive")
        opt = self.section("optics")
        shared = dict(n_s=opt["n_s"], wavelength_cm=opt["lambda_cm"],
                      spacing_um=opt["spacing_um"])
        kind = DriveKind(dr["kind"])
        if kind is DriveKind.STRAIGHT:
            return DriveProfile.straight(**shared)
        if kind is DriveKind.TABULATED:
            return DriveProfile.tabulated(dr["table_z_cm"], dr["table_phi"],
                                          **shared)
        if dr.get("phi0") is not None:
            return DriveProfile.from_phase_amplitude(
                kind, dr["phi0"], dr["period_cm"], **shared)
        return DriveProfile(kind, dr["amplitude_um"], dr["period_cm"], **shared)

    def matrix_kind(self) -> MatrixKind:
        return MatrixKind(self.section("numerics")["matrix_kind"])

    def branch(self) -> Branch:
        return Branch(self.section("input")["branch"])

    def gauge(self) -> Gauge:
        return Gauge(self.section("numerics")["gauge"])

    def boundary(self) -> Boundary:
        return Boundary(self.section("numerics")["boundary"])


def scenario_from_text(text: str, overrides=None) -> Scenario:
    return Scenario(resolve(apply_overrides(parse_config_text(text), overrides)))


def scenario_from_file(path, overrides=None) -> Scenario:
    return Scenario(resolve(apply_overrides(load_config(path), overrides)))
