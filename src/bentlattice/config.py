"""Scenario configuration: flat-sectioned key-value text with a fixed schema.

The format is deliberately dumb: ``[section]`` headers, one ``key = value``
per line, ``#`` comments, no nesting, no interpolation, no executable
content.  Every key is declared below with its type (and enum values where
applicable) and the tiers that read it; unknown keys, malformed values and
sweep axes that the swept tier does not read raise ConfigError carrying the
dotted field path.  Each quantity has one key: the waveguide spacing is
``optics.spacing_um`` for every tier, and a zero BPM absorber strength
turns the absorber off.  A resolved configuration (defaults filled in) can be
dumped back to canonical text that reproduces the run bit for bit.
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

# the tiers that read a key, in groups: the lattice tiers build
# SuperlatticeParams (its spacing from [optics] spacing_um), every stepped
# tier builds its drive from [optics] n_s, lambda_cm and spacing_um, and
# the optics tiers build OpticsParams
_LATTICE = ("two_level", "tight_binding", "dirac")
_STEPPED = (*_LATTICE, "bpm")
_OPTICS = ("bpm", "bands")
_SOLVERS = (*_STEPPED, "bands")

# schema: section -> key -> (type, default, allowed-values or None, tiers
# reading it); default None means "only present when the user sets it"
SCHEMA = {
    "scenario": {
        "tier": ("str", None, TIERS, TIERS),
        "name": ("str", "scenario", None, TIERS),
    },
    "lattice": {
        "sigma_cm": ("float", 2.0, None, _LATTICE),
        "delta_cm": ("float", 1.817, None, _LATTICE),
        "n_sites": ("int", 64, None, ("tight_binding",)),
    },
    "optics": {
        "n_s": ("float", 1.42, None, _SOLVERS),
        "lambda_cm": ("float", 633e-7, None, _SOLVERS),
        "dn1": ("float", 0.002, None, _OPTICS),
        "dn2": ("float", OpticsParams().dn2, None, _OPTICS),
        "spacing_um": ("float", 10.0, None, _SOLVERS),
        "channel_width_um": ("float", OpticsParams().channel_width_um, None,
                             _OPTICS),
        "channel_shape": ("str", "super_gaussian",
                          tuple(s.value for s in ChannelShape), _OPTICS),
        "sg_order": ("int", 4, None, _OPTICS),
    },
    "drive": {
        "kind": ("str", "straight", tuple(k.value for k in DriveKind),
                 _STEPPED),
        "period_cm": ("float", 1.0, None, _STEPPED),
        "amplitude_um": ("float", None, None, _STEPPED),
        "phi0": ("float", None, None, _STEPPED),
        "table_z_cm": ("floats", None, None, _STEPPED),
        "table_phi": ("floats", None, None, _STEPPED),
    },
    "input": {
        "qa_over_pi": ("float", 0.25, None, _LATTICE),
        "branch": ("str", "minus", ("minus", "plus"), _LATTICE),
        "packet": ("str", "bloch", ("bloch", "gaussian"), ("tight_binding",)),
        "width_sites": ("float", 32.0, None, ("tight_binding",)),
        "center_site": ("float", 0.0, None, ("tight_binding",)),
        "width_xi": ("float", 16.0, None, ("dirac",)),
        "center_xi": ("float", 0.0, None, ("dirac",)),
        "xi_span": ("float", 256.0, None, ("dirac",)),
        "n_points": ("int", 2048, None, ("dirac",)),
        "w0_um": ("float", 80.0, None, ("bpm",)),
        "theta_over_bragg": ("float", 0.5, None, ("bpm",)),
        "purify_band": ("bool", False, None, ("bpm",)),
    },
    "numerics": {
        "z_end_cm": ("float", None, None, _STEPPED),
        "dz_cm": ("float", None, None, _STEPPED),
        "snapshot_every": ("int", None, None, _STEPPED),
        "boundary": ("str", "periodic", tuple(b.value for b in Boundary),
                     ("tight_binding",)),
        "matrix_kind": ("str", "full", tuple(m.value for m in MatrixKind),
                        ("two_level",)),
        "gauge": ("str", "gauged", ("bare", "gauged"), ("tight_binding",)),
        "self_check": ("bool", False, None, _SOLVERS),
        "n_guides": ("int", 60, None, ("bpm",)),
        "grid_cells": ("int", 41, None, ("bpm",)),
        "grid_points": ("int", 4096, None, ("bpm",)),
        "absorber_fraction": ("float", 0.10, None, ("bpm",)),
        "absorber_strength_cm": ("float", 600.0, None, ("bpm",)),
        "census_threshold": ("float", 0.1, None, ("bpm",)),
        "census_merge_um": ("float", None, None, ("bpm",)),
    },
    "bands": {
        "n_plane_waves": ("int", 161, None, _OPTICS),
        "n_q": ("int", 128, None, ("bands",)),
        "n_bands": ("int", 4, None, _OPTICS),
        "dump_modes": ("bool", False, None, ("bands",)),
        "mode_q_index": ("int", -1, None, ("bands",)),
    },
    "sweep": {
        # the tiers whose summary has a headline value for the sweep row
        "tier": ("str", "two_level", _STEPPED, ("sweep",)),
        "axis": ("str", "drive.phi0", None, ("sweep",)),
        "start": ("float", 0.0, None, ("sweep",)),
        "stop": ("float", 1.0, None, ("sweep",)),
        "step": ("float", 0.1, None, ("sweep",)),
        "values": ("floats", None, None, ("sweep",)),
    },
    "output": {
        "prefix": ("str", "run", None, TIERS),
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
        for key, (kind, default, allowed, _) in keys.items():
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
        if sweep["tier"] not in SCHEMA[sec][key][3]:
            raise ConfigError(f"the {sweep['tier']} tier does not read it",
                              f"sweep.axis={axis}")
        if SCHEMA[sec][key][0] == "int":
            # each point takes int(value), which would drop a fraction
            given = ({"values": sweep["values"]} if sweep.get("values")
                     else {"start": [sweep["start"]], "step": [sweep["step"]]})
            for name, values in given.items():
                if not all(float(v).is_integer() for v in values):
                    raise ConfigError(f"must be whole numbers for the int "
                                      f"axis {axis}", f"sweep.{name}")
        _validate_tier(resolved, sweep["tier"])
        return

    def check(section, key, ok, message):
        """Raise ``message`` on ``section.key`` when the tier reads it and
        its value is set and fails ``ok``."""
        if tier not in SCHEMA[section][key][3]:
            return
        value = resolved[section].get(key)
        if value is not None and not ok(value):
            raise ConfigError(message, f"{section}.{key}")

    if tier in SCHEMA["numerics"]["z_end_cm"][3]:
        _require(resolved, "numerics", "z_end_cm")
    for key in ("z_end_cm", "dz_cm", "snapshot_every"):
        check("numerics", key, lambda v: v > 0, "must be positive")
    check("bands", "n_plane_waves", lambda n: n % 2 == 1 and n >= 41,
          "must be odd and >= 41")
    # bpm reports the populations of the two lowest bands
    least = 2 if tier == "bpm" else 1
    check("bands", "n_bands", lambda n: n >= least, f"must be >= {least}")
    check("numerics", "census_threshold", lambda t: 0 < t < 1,
          "must be in (0, 1)")
    check("numerics", "census_merge_um", lambda m: m >= 0, "must be >= 0")
    check("bands", "n_q", lambda n: n >= 2, "must be >= 2 for the fit")
    # a negative mode_q_index selects the middle q sample
    n_q = resolved["bands"]["n_q"]
    if resolved["bands"]["dump_modes"]:
        check("bands", "mode_q_index", lambda i: i < n_q,
              f"must be < bands.n_q = {n_q}")
    if tier not in SCHEMA["drive"]["kind"][3]:
        return
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

    # every key is read through section(), properties included, so that
    # a test recording its reads can check each tier's row of SCHEMA
    @property
    def tier(self):
        return self.section("scenario")["tier"]

    @property
    def name(self):
        return self.section("scenario").get("name", "scenario")

    @property
    def prefix(self):
        return self.section("output")["prefix"]

    def section(self, name):
        return self.resolved.get(name, {})

    def lattice_params(self) -> SuperlatticeParams:
        """The lattice constants at the default chain length, which only
        the tight-binding tier replaces with ``lattice.n_sites``."""
        lat = self.section("lattice")
        return SuperlatticeParams(
            sigma_cm=lat["sigma_cm"], delta_cm=lat["delta_cm"],
            spacing_um=self.section("optics")["spacing_um"])

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


def unread_overrides(scn: Scenario, overrides) -> list:
    """The ``section.key`` paths of ``overrides``, once each, that neither
    the scenario's tier nor, in a sweep, its point tier reads."""
    tiers = {scn.tier, scn.section("sweep")["tier"]} \
        if scn.tier == "sweep" else {scn.tier}
    paths = dict.fromkeys(item.split("=", 1)[0] for item in overrides or ())
    return [path for path in paths if tiers.isdisjoint(
        SCHEMA[path.split(".")[0]][path.split(".")[1]][3])]


def scenario_from_text(text: str, overrides=None) -> Scenario:
    return Scenario(resolve(apply_overrides(parse_config_text(text), overrides)))


def scenario_from_file(path, overrides=None) -> Scenario:
    return Scenario(resolve(apply_overrides(load_config(path), overrides)))
