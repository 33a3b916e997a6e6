"""Workloads of the bentlattice benchmark: CLI invocations and their checks.

A workload is a list of cases, each one ``bentlattice`` CLI invocation.
Seed 0 runs the bundled presets exactly and checks each case's headline
summary values against the reference recorded from the seed commit.  Any
other seed perturbs only physics inputs inside each preset's regime (drive
amplitude, ``qa`` and the launch tilt) and keeps step counts and grid sizes,
so the work done per pass is the same; those runs are checked against
invariants instead: finite headline values and the drift bounds the program
enforces itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Two-level and tight-binding self-check tolerance on P_final (runner.py).
ODE_TOL = 1e-6
# Dirac and BPM self-check tolerance on band weights and populations.
SPECTRAL_TOL = 1e-4
# Plane-wave truncation tolerance on band energies in 1/cm (bands.py).
BANDS_TOL = 1e-4


@dataclass(frozen=True)
class Case:
    """One CLI invocation of a workload.

    ``references`` maps a summary key to ``(value, tolerance)`` checked at
    seed 0; ``bounds`` maps a summary key to ``(low, high)`` checked at every
    seed; ``perturb`` lists ``(config key, preset value, relative span)``
    varied by non-zero seeds.
    """

    name: str
    argv: tuple
    references: dict
    bounds: dict
    perturb: tuple = ()

    def headline_keys(self):
        return tuple(dict.fromkeys((*self.references, *self.bounds)))


_UNIT = (0.0, 1.0)

_CASES = {
    "scan": (
        Case("fig3_sweep", ("sweep", "--preset", "fig3"),
             references={"P_last": (0.4232888597024177, ODE_TOL),
                         "n_failed": (0, 0)},
             bounds={"P_last": _UNIT, "n_failed": (0, 0)},
             perturb=(("input.qa_over_pi", 0.25, 0.10),)),
        Case("fig4_bands", ("bands", "--preset", "fig4_bands"),
             references={"fitted_sigma_cm": (1.9999925361500446, BANDS_TOL),
                         "fitted_delta_cm": (1.8169805839286362, BANDS_TOL)},
             bounds={"fitted_sigma_cm": (0.0, math.inf),
                     "fitted_delta_cm": (0.0, math.inf)}),
    ),
    "trajectory": (
        Case("fig2a_two_level", ("run", "--preset", "fig2a"),
             references={"P_final": (0.2997202154626402, ODE_TOL)},
             bounds={"P_final": _UNIT, "norm_error": (0.0, 1e-8)},
             perturb=(("drive.phi0", 0.4, 0.15),
                      ("input.qa_over_pi", 0.25, 0.10))),
        Case("tight_binding_128",
             ("run", "--preset", "fig2a",
              "--set", "scenario.tier=tight_binding",
              "--set", "lattice.n_sites=128",
              "--set", "numerics.z_end_cm=20"),
             references={"P_final": (0.48976775107720627, ODE_TOL)},
             bounds={"P_final": _UNIT, "power_drift": (0.0, 1e-6)},
             perturb=(("drive.phi0", 0.4, 0.15),
                      ("input.qa_over_pi", 0.25, 0.10))),
        Case("fig3b_dirac",
             ("run", "--preset", "fig3b", "--set", "scenario.tier=dirac"),
             references={"plus_weight_final": (0.08678681213290658,
                                               SPECTRAL_TOL)},
             bounds={"plus_weight_final": _UNIT, "norm_drift": (0.0, 1e-6)},
             perturb=(("drive.phi0", 4.0, 0.10),
                      ("input.qa_over_pi", 0.25, 0.10))),
    ),
    "beam": (
        Case("fig5b_bpm", ("run", "--preset", "fig5b"),
             references={"band2_final": (0.9508858702486611, SPECTRAL_TOL),
                         "miniband_transition": (0.958638101836612,
                                                 SPECTRAL_TOL),
                         "n_packets_final": (1, 0)},
             bounds={"band2_final": _UNIT, "miniband_transition": _UNIT,
                     "absorbed": (0.0, 1e-2), "n_packets_final": (1, 8)},
             perturb=(("drive.amplitude_um", 30.0, 0.05),
                      ("input.theta_over_bragg", 0.5, 0.10))),
    ),
}

WORKLOADS = tuple(_CASES)


def cases(workload: str, seed: int):
    """The workload's cases, with seed-dependent overrides appended."""
    out = []
    for case in _CASES[workload]:
        argv = case.argv
        if seed != 0 and case.perturb:
            rng = random.Random(f"{workload}/{case.name}/{seed}")
            sets = []
            for key, value, span in case.perturb:
                scaled = value * (1.0 + span * rng.uniform(-1.0, 1.0))
                sets += ["--set", f"{key}={scaled:.6g}"]
            argv = (*argv, *sets)
        out.append(Case(case.name, argv, case.references, case.bounds,
                        case.perturb))
    return out


def check(case: Case, summary: dict, seed: int):
    """Problems with one invocation's summary; an empty list means correct."""
    problems = []
    if summary.get("status", "ok") != "ok":
        problems.append(f"status = {summary.get('status')}")
    for key, (low, high) in case.bounds.items():
        value = summary.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{key} = {value!r} is not a finite number")
        elif not low <= value <= high:
            problems.append(f"{key} = {value!r} outside [{low}, {high}]")
    if seed == 0:
        for key, (ref, tol) in case.references.items():
            value = summary.get(key)
            if not isinstance(value, (int, float)) or abs(value - ref) > tol:
                problems.append(f"{key} = {value!r}, reference {ref!r} "
                                f"(tolerance {tol})")
    return problems
