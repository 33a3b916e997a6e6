"""Scenario execution: tier dispatch, output files, manifest, sweeps.

Every run resolves its configuration first and executes deterministically
(fixed steps, no RNG anywhere).  Once the summary passes its checks,
``run_scenario`` alone writes the tier's outputs, a canonical ``resolved.cfg``
and a ``manifest.json`` with SHA-256 checksums; re-runs at one BLAS thread
count stay bit-identical.  ``multiprocessing`` is imported only by a sweep
with ``jobs > 1`` over two or more points, whose pool has at most one worker
per point, and scipy only inside the tiers that call it, so a fresh CLI
process loads numpy and this package alone before the run starts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import replace

import numpy as np

from . import __version__
from . import bands as bands_mod
from . import bpm as bpm_mod
from . import diagnostics as diag
from . import dirac as dirac_mod
from . import drive as drv
from . import tight_binding as tb
from . import two_level as tl
from .config import (SCHEMA, Scenario, canonical_dump, resolve,
                     sweep_point_count)
from .errors import AccuracyError, BentLatticeError, ConfigError
from .fieldio import write_csv, write_field_dump
from .integrate import default_dz, step_grid


def _q_from_scenario(scn: Scenario, spacing_cm):
    return scn.section("input")["qa_over_pi"] * np.pi / spacing_cm


# ---------------------------------------------------------------------------
# tier runners: each returns (summary, outputs); outputs lazily yields
# (suffix, writer, args), written as writer(f"{prefix}_{suffix}" path, *args)
# ---------------------------------------------------------------------------

def _step_plan(num, tier_dz, n_snapshots):
    """Configured ``(dz, snapshot_every)``, else the tier's default step and
    a stride keeping about ``n_snapshots`` snapshots."""
    dz = num.get("dz_cm")
    if dz is None:
        dz = tier_dz
    snap = num.get("snapshot_every")
    if snap is None:
        snap = max(1, step_grid(num["z_end_cm"], dz)[0] // n_snapshots)
    return dz, snap


def _self_check(num, summary, label, value, rerun, dz, tol):
    """With ``numerics.self_check``, record how far the headline ``value``
    moves when ``rerun(step)`` repeats the run at dz/2."""
    if not num.get("self_check"):
        return
    fine = rerun(dz / 2)
    delta = float(np.max(np.abs(np.asarray(value) - np.asarray(fine))))
    summary[f"self_check_{label}"] = delta
    if delta > tol:
        raise AccuracyError(
            f"step-halving self-check failed: {label} moved by {delta:.2e} "
            f"(> {tol:.0e}); decrease dz")


def _two_level_plan(scn: Scenario, n_snapshots):
    """The scenario's ``tl.evolve`` arguments (dz and the stride left out),
    its numerics, its step dz and its validated run, keeping about
    ``n_snapshots`` snapshots, or only the ends when that is None."""
    params = scn.lattice_params()
    profile = scn.drive_profile()
    q = _q_from_scenario(scn, params.spacing_cm)
    num = scn.section("numerics")
    state = (tl.ground_state(q, params) if scn.branch() is tb.Branch.MINUS
             else tl.TwoLevelState(0j, 1.0 + 0j, 0.0, q))
    args = (state, profile, params, scn.matrix_kind(), num["z_end_cm"])
    dz, snap = _step_plan(num, default_dz(profile), n_snapshots or 1)
    run = tl.plan_run(*args, dz=dz,
                      snapshot_every=None if n_snapshots is None else snap)
    return args, num, dz, run


def _two_level_summary(args, num, dz, run, traj):
    """Headline values of one two-level run, checked: final norm, finite
    values and, with ``numerics.self_check``, the rerun at dz/2."""
    tl.check_norm(traj, run.h)
    p_final = traj.transition_probability[-1]
    summary = {"P_final": float(p_final), "phi0": drv.phase_amplitude(args[1])}
    _check_finite(summary)

    def rerun(h):
        return tl.evolve(*args, dz=h,
                         snapshot_every=None).transition_probability[-1]

    _self_check(num, summary, "P_final", p_final, rerun, dz, 1e-6)
    return summary


def _run_two_level(scn: Scenario):
    args, num, dz, run = _two_level_plan(scn, 4000)
    traj, = tl.evolve_batch([run])
    summary = _two_level_summary(args, num, dz, run, traj)
    p = traj.transition_probability
    summary["P_max"] = float(p.max())
    summary["z_at_P_max"] = float(traj.z[np.argmax(p)])
    summary["norm_error"] = float(np.max(np.abs(traj.norm - 1.0)))

    def outputs():
        r = traj.r
        yield "trajectory.csv", write_csv, (
            ["z_cm", "P", "re_rm", "im_rm", "re_rp", "im_rp"],
            np.column_stack([traj.z, p, r[:, 0].real, r[:, 0].imag,
                             r[:, 1].real, r[:, 1].imag]))
    return summary, outputs()


def _lattice_input_state(scn: Scenario, params, gauge):
    inp = scn.section("input")
    q = _q_from_scenario(scn, params.spacing_cm)
    branch = scn.branch()
    if inp["packet"] == "bloch":
        return tb.bloch_mode_state(q, branch, params, gauge)
    return tb.gaussian_packet_state(q, inp["width_sites"], params, branch,
                                    center_site=inp["center_site"], gauge=gauge)


def _run_tight_binding(scn: Scenario):
    params = replace(scn.lattice_params(),
                     n_sites=scn.section("lattice")["n_sites"])
    profile = scn.drive_profile()
    num = scn.section("numerics")
    gauge = scn.gauge()
    boundary = scn.boundary()
    state = _lattice_input_state(scn, params, gauge)
    evolver = tb.evolve_bare if gauge is tb.Gauge.BARE else tb.evolve_gauged

    def run(dz, snap=None):
        return evolver(state, params, profile, num["z_end_cm"], dz=dz,
                       snapshot_every=snap, boundary=boundary)

    dz, snap = _step_plan(num, default_dz(profile), 200)
    traj = run(dz, snap)
    p_of_z = diag.lattice_transition_probability(traj, params, profile)
    power = traj.power()
    summary = {
        "P_final": float(p_of_z[-1]),
        "power_drift": float(np.max(np.abs(power / power[0] - 1.0))),
        "phi0": drv.phase_amplitude(profile),
    }
    if boundary is tb.Boundary.HARD_WALL:
        summary["edge_power_fraction"] = traj.edge_power_fraction()
    _self_check(num, summary, "P_final", p_of_z[-1],
                lambda h: diag.lattice_transition_probability(
                    run(h).final, params, profile), dz, 1e-6)

    def outputs():
        n_z, n_sites = traj.states.shape
        yield "sites.csv", write_csv, (
            ["z", "site", "re", "im"], np.column_stack([
                np.repeat(traj.z, n_sites), np.tile(params.sites, n_z),
                traj.states.real.ravel(), traj.states.imag.ravel()]))
        yield "transition.csv", write_csv, (
            ["z_cm", "P"], np.column_stack([traj.z, p_of_z]))
    return summary, outputs()


def _run_dirac(scn: Scenario):
    params = scn.lattice_params()
    profile = scn.drive_profile()
    num = scn.section("numerics")
    inp = scn.section("input")
    grid = dirac_mod.XiGrid.centered(inp["xi_span"], inp["n_points"])
    q = _q_from_scenario(scn, params.spacing_cm)
    k0 = tl.zone_edge_k(q, params)
    field = dirac_mod.gaussian_spinor_packet(
        grid, k0, inp["width_xi"], params, scn.branch(), inp["center_xi"])

    def run(dz, snap=None):
        return dirac_mod.dirac_evolve(field, profile, params, num["z_end_cm"],
                                      dz=dz, snapshot_every=snap)

    dz, snap = _step_plan(num, default_dz(profile), 1)
    traj = run(dz, snap)
    weights = [dirac_mod.band_weights(
        dirac_mod.SpinorField(traj.psi1[i], traj.psi2[i], grid, traj.z[i]),
        params) for i in range(len(traj.z))]
    norms = traj.norms()
    summary = {
        "plus_weight_final": float(weights[-1][1]),
        "norm_drift": float(np.max(np.abs(norms / norms[0] - 1.0))),
        "k0": float(k0),
        "phi0": drv.phase_amplitude(profile),
    }
    _self_check(num, summary, "plus_weight", weights[-1][1],
                lambda h: dirac_mod.band_weights(run(h).final, params)[1],
                dz, 1e-4)

    def outputs():
        yield "weights.csv", write_csv, (
            ["z_cm", "w_minus", "w_plus", "norm"],
            np.column_stack([traj.z, weights, norms]))
        for i, z in enumerate(traj.z):
            yield f"spinor{i:04d}.bin", write_field_dump, (
                [traj.psi1[i], traj.psi2[i]],
                grid.xi_min, grid.xi_min + grid.span, z)
    return summary, outputs()


def _run_bpm(scn: Scenario):
    optics = scn.optics_params()
    profile = scn.drive_profile()
    num = scn.section("numerics")
    inp = scn.section("input")
    bands_cfg = scn.section("bands")
    grid = bpm_mod.TransverseGrid.for_cells(optics, num["grid_cells"],
                                            num["grid_points"])
    theta = inp["theta_over_bragg"] * bpm_mod.bragg_angle(optics)
    field = bpm_mod.gaussian_tilted_input(inp["w0_um"], theta, optics, grid)
    band_structure = diag.bands_for_grid(
        optics, grid, n_plane_waves=bands_cfg["n_plane_waves"],
        n_bands=bands_cfg["n_bands"])
    if inp["purify_band"]:
        field = diag.project_onto_band(field, band_structure, band=0)
    absorber = bpm_mod.AbsorberSpec(num["absorber_fraction"],
                                    num["absorber_strength_cm"])

    def run(dz, snap=None):
        return bpm_mod.bpm_run(field, optics, profile, num["z_end_cm"],
                               dz_cm=dz, snapshot_every=snap,
                               n_guides=num["n_guides"], absorber=absorber)

    dz, snap = _step_plan(num, bpm_mod.DEFAULT_DZ_CM, 10)
    traj = run(dz, snap)
    obs = diag.observables_series(traj, band_structure,
                                  threshold=num["census_threshold"],
                                  merge_radius=num.get("census_merge_um"))
    final_pops = diag.band_populations(traj.final, band_structure, 2)
    summary = {
        "band1_final": float(final_pops[0]),
        "band2_final": float(final_pops[1]),
        "miniband_transition": float(final_pops[1] / final_pops.sum()),
        "absorbed": float(traj.absorbed[-1]),
        "centroid_final_um": obs[-1].centroid_x,
        "n_packets_final": len(obs[-1].packets),
        "packet_velocities": [p.velocity for p in obs[-1].packets],
        "phi0": drv.phase_amplitude(profile),
    }
    _self_check(num, summary, "band_populations", final_pops,
                lambda h: diag.band_populations(run(h).final, band_structure,
                                                2), dz, 1e-4)

    def outputs():
        rows = []
        for o in obs:
            row = [o.z, *o.band_power, o.remainder, o.centroid_x,
                   float(len(o.packets))]
            for p in o.packets:
                row.extend([p.center, p.power,
                            p.velocity if p.velocity is not None else 0.0])
            rows.append(row)
        yield "observables.csv", write_csv, (
            ["z_cm", "band1", "band2", "remainder", "centroid_um",
             "n_packets"], rows)
        # each snapshot's table is built as it is written: one at a time
        for i, z in enumerate(traj.z):
            yield f"field{i:04d}.bin", write_field_dump, (
                [traj.fields[i]], grid.x_min_um,
                grid.x_min_um + grid.width_um, z)
            yield f"intensity{i:04d}.csv", write_csv, (
                ["x_um", "intensity"],
                np.column_stack([grid.x_um, np.abs(traj.fields[i]) ** 2]))
    return summary, outputs()


def _run_bands(scn: Scenario):
    optics = scn.optics_params()
    cfg = scn.section("bands")
    structure = bands_mod.plane_wave_bands(
        optics, n_plane_waves=cfg["n_plane_waves"], n_q=cfg["n_q"],
        n_bands=cfg["n_bands"],
        check_truncation=bool(scn.section("numerics").get("self_check")))
    fit = bands_mod.fit_tight_binding(structure)
    summary = {
        "fitted_sigma_cm": fit.sigma_cm,
        "fitted_delta_cm": fit.delta_cm,
        "fit_rms_residual": fit.rms_residual,
        "gap_edge_cm": float(structure.half_splitting().min()),
    }

    def outputs():
        a_cm = optics.spacing_cm
        n_bands, n_q = structure.omega.shape
        yield "bands.csv", write_csv, (
            ["qa_over_pi", "band_index", "omega_cm_inv"], np.column_stack([
                np.tile(structure.q_values * a_cm / np.pi, n_bands),
                np.repeat(np.arange(1.0, n_bands + 1), n_q),
                structure.omega.ravel()]))
        if cfg["dump_modes"]:
            iq = cfg["mode_q_index"]
            if iq < 0:
                iq = len(structure.q_values) // 2
            for b in range(structure.n_bands):
                _, u = structure.periodic_part(iq, b)
                yield f"mode_q{iq}_band{b + 1}.bin", write_field_dump, (
                    [u], 0.0, 2 * optics.spacing_um, 0.0)
    return summary, outputs()


_TIER_RUNNERS = {
    "two_level": _run_two_level,
    "tight_binding": _run_tight_binding,
    "dirac": _run_dirac,
    "bpm": _run_bpm,
    "bands": _run_bands,
}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_axis_values(sweep_cfg):
    if sweep_cfg.get("values") is not None:
        return list(sweep_cfg["values"])
    start, step = sweep_cfg["start"], sweep_cfg["step"]
    return [start + i * step for i in range(sweep_point_count(sweep_cfg))]


def _point_config(resolved, tier, axis, value):
    """One sweep point's config: the sweep's own with ``scenario.tier`` set
    to the swept tier, ``axis`` set to ``value`` and no sweep section."""
    point = {sec: dict(keys) for sec, keys in resolved.items() if sec != "sweep"}
    point["scenario"]["tier"] = tier
    section, key = axis.split(".", 1)
    kind = SCHEMA[section][key][0]
    point.setdefault(section, {})[key] = int(value) if kind == "int" else value
    return point


# a sweep row's P_final column holds the swept tier's headline value
_HEADLINE = {"two_level": "P_final", "tight_binding": "P_final",
             "dirac": "plus_weight_final", "bpm": "band2_final"}


def _error_status(exc):
    return f"error:{type(exc).__name__}"


def _sweep_point(args):
    index, point = args
    try:
        scn = Scenario(resolve(point))
        summary, _ = _TIER_RUNNERS[scn.tier](scn)
        _check_finite(summary)
        return index, summary, ""
    except BentLatticeError as exc:
        return index, None, _error_status(exc)


def _sweep_two_level(tasks):
    """Two-level sweep points, each resolved and checked as ``_sweep_point``
    does; the points sharing a step grid advance in one batched call.

    A row needs only the final state, so no other snapshot is kept.
    """
    results, groups = [], {}
    for index, point in tasks:
        try:
            args, num, dz, run = _two_level_plan(Scenario(resolve(point)),
                                                 None)
        except BentLatticeError as exc:
            results.append((index, None, _error_status(exc)))
            continue
        key = (run.state.z, run.n, run.h)
        groups.setdefault(key, []).append((index, args, num, dz, run))
    for group in groups.values():
        trajs = tl.evolve_batch([point[-1] for point in group])
        for (index, *point), traj in zip(group, trajs):
            try:
                summary = _two_level_summary(*point, traj)
                results.append((index, summary, ""))
            except BentLatticeError as exc:
                results.append((index, None, _error_status(exc)))
    return results


def _run_sweep(scn: Scenario, jobs=1):
    sweep_cfg = scn.section("sweep")
    axis, tier = sweep_cfg["axis"], sweep_cfg["tier"]
    points = [_point_config(scn.resolved, tier, axis, v)
              for v in sweep_axis_values(sweep_cfg)]
    tasks = list(enumerate(points))
    workers = min(jobs, len(tasks))
    if tier == "two_level":
        results = _sweep_two_level(tasks)
    elif workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_sweep_point, tasks)
    else:
        results = [_sweep_point(t) for t in tasks]
    results.sort(key=lambda r: r[0])

    rows = []
    section, key = axis.split(".", 1)
    for (_, summary, status), point in zip(results, points):
        phi0, p_final = ((summary["phi0"], summary[_HEADLINE[tier]])
                         if summary else (float("nan"), float("nan")))
        rows.append((phi0, point["drive"]["period_cm"],
                     point["input"]["qa_over_pi"] * np.pi,
                     point[section][key], p_final, status or "ok"))
    summary = {
        "n_points": len(rows),
        "n_failed": sum(row[5] != "ok" for row in rows),
        "axis": axis,
        "P_first": rows[0][4],
        "P_last": rows[-1][4],
    }
    return summary, (("sweep.csv", write_csv, (
        ["phi0", "lambda_cm", "qa", axis, "P_final", "status"], rows)),)


# ---------------------------------------------------------------------------
# entry point and manifest
# ---------------------------------------------------------------------------

def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_finite(summary):
    """Raise AccuracyError naming the first summary key holding a float
    that is not finite, list entries included."""
    for key, value in summary.items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise AccuracyError(f"summary {key} is not finite: {value!r}")


def run_scenario(scn: Scenario, out_dir, jobs: int = 1) -> dict:
    """Execute a scenario and return its manifest; with an ``out_dir``,
    write outputs and manifest there once the summary passes its checks."""
    if not jobs >= 1:
        raise ConfigError(f"must be >= 1, got {jobs!r}", "--jobs")
    if scn.tier == "sweep":
        summary, outputs = _run_sweep(scn, jobs)
        if summary["n_failed"]:
            summary["status"] = "partial"
    elif scn.tier in _TIER_RUNNERS:
        summary, outputs = _TIER_RUNNERS[scn.tier](scn)
        _check_finite(summary)
        summary["status"] = "ok"
    else:
        raise ConfigError(f"unknown tier {scn.tier}", "scenario.tier")

    resolved_text = canonical_dump(scn.resolved)
    manifest = {
        "tool": {"name": "bentlattice", "version": __version__},
        "tier": scn.tier,
        "name": scn.name,
        "config_sha256": hashlib.sha256(resolved_text.encode()).hexdigest(),
        "summary": summary,
        "outputs": {},
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        files = []
        for suffix, writer, args in outputs:
            files.append(f"{scn.prefix}_{suffix}")
            writer(os.path.join(out_dir, files[-1]), *args)
        files.append(f"{scn.prefix}_resolved.cfg")
        with open(os.path.join(out_dir, files[-1]), "w",
                  encoding="utf-8") as fh:
            fh.write(resolved_text)
        manifest["outputs"] = {
            name: _sha256_file(os.path.join(out_dir, name))
            for name in sorted(files)
        }
        manifest["resolved_config"] = scn.resolved
        with open(os.path.join(out_dir, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return manifest
