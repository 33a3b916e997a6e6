"""The bentlattice layers the traced run wraps and the metrics built on them.

Each target is a public function at a layer boundary.  Counts come from the
call's arguments (steps, sites x steps, points x steps, rows) or, for bytes,
from the size of the file the call was given.  Time spent inside a CLI
invocation but outside every target is ``runner.self_s``: argument and
config parsing, tier glue, the manifest and its checksums.
"""

from __future__ import annotations

import os

from tracer import Target

PACKAGE = "bentlattice"
INVOCATION = "runner"


def _steps(span, dz, profile):
    """Fixed step count, with the ODE tiers' default step when dz is None."""
    if dz is None:
        dz = (profile.period_cm / 2000.0
              if profile.kind in ("sinusoidal", "single_cycle") else 5.0e-4)
    return max(1, int(round(span / dz)))


def _two_level(a):
    return {"two_level.steps": _steps(a["z_end"] - a["state"].z, a["dz"],
                                      a["profile"])}


def _tight_binding(a):
    steps = _steps(a["z_end"] - a["state"].z, a["dz"], a["profile"])
    return {"tight_binding.site_steps": steps * a["state"].amplitudes.size}


def _dirac(a):
    steps = _steps(a["z_end"] - a["field"].z, a["dz"], a["profile"])
    return {"dirac.point_steps": steps * a["field"].grid.n}


def _bpm(a):
    steps = max(1, int(round((a["z_end"] - a["field"].z) / a["dz_cm"])))
    return {"bpm.point_steps": steps * a["field"].grid.n}


def _eigh(a):
    q_values = a["q_values"]
    return {"bands.eigh_solves": a["n_q"] if q_values is None
            else len(q_values)}


def _csv(a):
    return {"fieldio.csv_rows": len(a["rows"]),
            "fieldio.bytes_written": os.path.getsize(a["path"])}


def _dump(a):
    return {"fieldio.bytes_written": os.path.getsize(a["path"])}


TARGETS = (
    Target("two_level.evolve", _two_level),
    Target("tight_binding.evolve_bare", _tight_binding),
    Target("tight_binding.evolve_gauged", _tight_binding),
    Target("dirac.dirac_evolve", _dirac),
    Target("bpm.bpm_run", _bpm),
    # the drive functions the tiers call per step or per half-step grid
    *(Target(f"drive.{name}") for name in (
        "phase", "force", "phase_integral", "phase_sq_integral")),
    Target("diagnostics.project_onto_band"),
    Target("diagnostics.band_populations"),
    Target("diagnostics.packet_census"),
    Target("diagnostics.observables_series"),
    Target("diagnostics.lattice_transition_probability"),
    Target("bands.plane_wave_bands", _eigh),
    Target("bands.fit_tight_binding"),
    Target("fieldio.write_csv", _csv),
    Target("fieldio.write_field_dump", _dump),
    Target("config.resolve"),
)

# per-layer metric -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "two_level.evolve_s": "s",
    "two_level.evolve_calls": "count",
    "two_level.steps": "count",
    "two_level.ns_per_step": "ns",
    "tight_binding.evolve_s": "s",
    "tight_binding.site_steps": "count",
    "drive.phase_calls": "count",
    "drive.force_calls": "count",
    "drive.s": "s",
    "dirac.evolve_s": "s",
    "dirac.point_steps": "count",
    "bpm.run_s": "s",
    "bpm.point_steps": "count",
    "bpm.ns_per_point_step": "ns",
    "diagnostics.project_onto_band_s": "s",
    "diagnostics.band_populations_s": "s",
    "diagnostics.band_populations_calls": "count",
    "diagnostics.packet_census_s": "s",
    "diagnostics.packet_census_calls": "count",
    "diagnostics.observables_series_s": "s",
    "diagnostics.lattice_transition_probability_s": "s",
    "bands.plane_wave_bands_s": "s",
    "bands.eigh_solves": "count",
    "bands.fit_s": "s",
    "fieldio.write_csv_s": "s",
    "fieldio.csv_rows": "count",
    "fieldio.write_field_dump_s": "s",
    "fieldio.bytes_written": "count",
    "config.resolve_s": "s",
    "config.resolve_calls": "count",
    "runner.self_s": "s",
    "process.cpu_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


def _ns_per(seconds, work):
    return seconds * 1e9 / work if work else 0.0


def layer_metrics(selfs, counts):
    """One traced pass's layer values; ``process.*``, ``trace.*`` excluded."""
    s = lambda name: selfs.get(name, 0.0)  # noqa: E731
    calls = lambda name: counts[name + ".calls"]  # noqa: E731
    tb_s = s("tight_binding.evolve_bare") + s("tight_binding.evolve_gauged")
    return {
        "two_level.evolve_s": s("two_level.evolve"),
        "two_level.evolve_calls": calls("two_level.evolve"),
        "two_level.steps": counts["two_level.steps"],
        "two_level.ns_per_step": _ns_per(s("two_level.evolve"),
                                      counts["two_level.steps"]),
        "tight_binding.evolve_s": tb_s,
        "tight_binding.site_steps": counts["tight_binding.site_steps"],
        "drive.phase_calls": calls("drive.phase"),
        "drive.force_calls": calls("drive.force"),
        "drive.s": sum(v for k, v in selfs.items() if k.startswith("drive.")),
        "dirac.evolve_s": s("dirac.dirac_evolve"),
        "dirac.point_steps": counts["dirac.point_steps"],
        "bpm.run_s": s("bpm.bpm_run"),
        "bpm.point_steps": counts["bpm.point_steps"],
        "bpm.ns_per_point_step": _ns_per(s("bpm.bpm_run"),
                                      counts["bpm.point_steps"]),
        "diagnostics.project_onto_band_s": s("diagnostics.project_onto_band"),
        "diagnostics.band_populations_s": s("diagnostics.band_populations"),
        "diagnostics.band_populations_calls":
            calls("diagnostics.band_populations"),
        "diagnostics.packet_census_s": s("diagnostics.packet_census"),
        "diagnostics.packet_census_calls": calls("diagnostics.packet_census"),
        "diagnostics.observables_series_s":
            s("diagnostics.observables_series"),
        "diagnostics.lattice_transition_probability_s":
            s("diagnostics.lattice_transition_probability"),
        "bands.plane_wave_bands_s": s("bands.plane_wave_bands"),
        "bands.eigh_solves": counts["bands.eigh_solves"],
        "bands.fit_s": s("bands.fit_tight_binding"),
        "fieldio.write_csv_s": s("fieldio.write_csv"),
        "fieldio.csv_rows": counts["fieldio.csv_rows"],
        "fieldio.write_field_dump_s": s("fieldio.write_field_dump"),
        "fieldio.bytes_written": counts["fieldio.bytes_written"],
        "config.resolve_s": s("config.resolve"),
        "config.resolve_calls": calls("config.resolve"),
        "runner.self_s": s(INVOCATION),
    }
