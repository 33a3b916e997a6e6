"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
of every criterion.  Each criterion pins its tolerance here; nothing is
deferred to later calibration.
"""

import json
import warnings

import numpy as np
import pytest

from bentlattice import DriveProfile, OpticsParams, SuperlatticeParams
from bentlattice.bands import fit_tight_binding, plane_wave_bands
from bentlattice.bpm import bragg_angle
from bentlattice.cli import main as cli_main
from bentlattice.config import scenario_from_text
from bentlattice.dirac import (XiGrid, band_weights, dirac_evolve,
                               gaussian_spinor_packet)
from bentlattice.diagnostics import lattice_transition_probability
from bentlattice.drive import phase_amplitude
from bentlattice.fieldio import read_csv
from bentlattice.presets import preset_text
from bentlattice.runner import run_scenario
from bentlattice.tight_binding import (Branch, Gauge, bloch_mode_state,
                                       evolve_gauged, gauge_transform,
                                       gaussian_packet_state)
from bentlattice.two_level import (MatrixKind, coupling_matrix_full,
                                   coupling_matrix_reduced, evolve,
                                   ground_state, resonance_period,
                                   transition_probability, zone_edge_k)

PARAMS = SuperlatticeParams(2.0, 1.817, 10.0, 64)
Q_QUARTER = PARAMS.q_from_qa(np.pi / 4)
CYCLE_CM = 0.6676  # exact single-cycle period behind the rounded 0.67 quote
# the step-halving self-check tolerances of runner's BPM and lattice runs
BPM_SELF_CHECK_TOL = 1e-4
LATTICE_SELF_CHECK_TOL = 1e-6


def verdict(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def run_preset(name, out_dir=None, overrides=None):
    scn = scenario_from_text(preset_text(name), overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_scenario(scn, out_dir)


def test_criterion_1_resonance_period():
    lam = resonance_period(3, Q_QUARTER, 0.4, PARAMS)
    ok = abs(lam - 2.8556) / 2.8556 < 1e-3
    assert verdict(1, ok, f"three-quantum resonance period {lam:.6f} cm "
                   "within 0.1% of 2.8556")


def test_criterion_2_resonant_rabi_contrast():
    on = run_preset("fig2a")["summary"]
    off = run_preset("fig2b")["summary"]
    ok_max = on["P_max"] > 0.9
    ratio = on["P_max"] / off["P_max"]
    ok_ratio = ratio >= 3.0
    ok = ok_max and ok_ratio
    assert verdict(2, ok, f"resonant P_max {on['P_max']:.4f} > 0.9 at "
                   f"z = {on['z_at_P_max']:.1f} cm and {ratio:.1f}x above the "
                   "5%-detuned run")


def test_criterion_3_single_cycle_sweep(tmp_path):
    run_preset("fig3", str(tmp_path))
    _, rows = read_csv(tmp_path / "fig3_sweep.csv")
    p_of = {round(r[0], 4): r[4] for r in rows}
    p0, p4, p6 = p_of[0.0], p_of[4.0], p_of[6.0]
    ok = abs(p6 - 0.45) <= 0.05 and p4 > 0.9 and p0 < 1e-12
    assert verdict(3, ok, f"single-cycle sweep gives P(0) = {p0:.1e}, "
                   f"P(4) = {p4:.4f} > 0.9 and P(6) = {p6:.4f} within "
                   f"0.45 +- 0.05 ({len(rows)} points)")


def test_criterion_4_drive_amplitude_formula():
    d30 = DriveProfile.single_cycle(30.0, CYCLE_CM)
    d45 = DriveProfile.single_cycle(45.0, CYCLE_CM)
    phi30, phi45 = phase_amplitude(d30), phase_amplitude(d45)
    ok = abs(phi30 - 3.97) <= 0.01 and abs(phi45 - 5.96) <= 0.01
    assert verdict(4, ok, f"bending amplitudes 30/45 um map to drive "
                   f"amplitudes {phi30:.4f} / {phi45:.4f} "
                   "(3.97 / 5.96 within 0.01)")


def test_criterion_5_bragg_angle():
    deg = np.degrees(bragg_angle(OpticsParams()))
    ok = abs(deg - 0.6385) <= 0.001
    assert verdict(5, ok, f"input Bragg angle {deg:.5f} deg within 0.001 of "
                   "0.6385")


def test_criterion_6_band_fit():
    bands = plane_wave_bands(OpticsParams(), n_plane_waves=161, n_q=128,
                             n_bands=2)
    fit = fit_tight_binding(bands)
    ok_cont = (abs(fit.sigma_cm - 2.0) / 2.0 < 0.15
               and abs(fit.delta_cm - 1.817) / 1.817 < 0.15)

    from bentlattice.bands import BandStructure, default_q_values
    optics = OpticsParams()
    qs = default_q_values(optics, 64)
    a_cm = optics.spacing_um * 1e-4
    split = np.sqrt(1.817**2 + 4 * 2.0**2 * np.cos(qs * a_cm) ** 2)
    synthetic = BandStructure(qs, np.stack([-split, split]),
                              np.zeros((64, 1, 2), complex), np.array([0]),
                              optics)
    refit = fit_tight_binding(synthetic)
    ok_synth = (abs(refit.sigma_cm - 2.0) < 1e-10
                and abs(refit.delta_cm - 1.817) < 1e-10)
    ok = ok_cont and ok_synth
    assert verdict(6, ok, f"calibrated profile fits sigma = {fit.sigma_cm:.4f}"
                   f", delta = {fit.delta_cm:.4f} (within 15% of 2 / 1.817); "
                   "synthetic fit exact to 1e-10")


def test_criterion_7_beam_breakup(tmp_path):
    results = {}
    for name in ("fig5a", "fig5b", "fig5c"):
        manifest = run_preset(name, str(tmp_path / name))
        _, rows = read_csv(tmp_path / name / f"{name}_observables.csv")
        results[name] = (manifest["summary"], [r[4] for r in rows])

    drift = np.diff(results["fig5a"][1])
    ok_a = np.all(drift > 0) or np.all(drift < 0)
    sign_a = np.sign(results["fig5a"][0]["packet_velocities"][0])

    s_b = results["fig5b"][0]
    vels_b = [v for v in s_b["packet_velocities"] if v is not None]
    ok_b = (s_b["n_packets_final"] == 1
            and np.sign(vels_b[0]) == -sign_a
            and s_b["band2_final"] > 0.5)

    s_c = results["fig5c"][0]
    vels_c = sorted(v for v in s_c["packet_velocities"] if v is not None)
    ok_c = (s_c["n_packets_final"] == 2
            and vels_c[0] < 0 < vels_c[1]
            and abs(s_c["miniband_transition"] - 0.45) <= 0.05)
    ok = ok_a and ok_b and ok_c
    assert verdict(
        7, ok,
        "straight run drifts one way "
        f"(final centroid {results['fig5a'][0]['centroid_final_um']:.0f} um); "
        f"amplitude-30 run refracts opposite (band2 {s_b['band2_final']:.3f});"
        f" amplitude-45 run breaks into 2 packets with velocities "
        f"{vels_c[0]:.0f}/{vels_c[1]:.0f} um/cm and upper-band share "
        f"{s_c['miniband_transition']:.4f} within 0.45 +- 0.05")


def test_criterion_8_property_suite():
    failures = []

    # norm conservation, ODE tiers (1e-9)
    drive = DriveProfile.from_phase_amplitude("sinusoidal", 0.4, 2.8556)
    tl_traj = evolve(ground_state(Q_QUARTER, PARAMS), drive, PARAMS,
                     z_end=10 * 2.8556, snapshot_every=200)
    if np.max(np.abs(tl_traj.norm - 1.0)) > 1e-9:
        failures.append("two-level norm drift")
    state = bloch_mode_state(Q_QUARTER, Branch.MINUS, PARAMS)
    tb_traj = evolve_gauged(state, PARAMS, drive, z_end=10 * 2.8556,
                            snapshot_every=200)
    power = tb_traj.power()
    if np.max(np.abs(power / power[0] - 1.0)) > 1e-9:
        failures.append("lattice power drift")

    cycle_b = DriveProfile.from_phase_amplitude("single_cycle", 6.0, CYCLE_CM)
    grid = XiGrid.centered(256.0, 1024)
    spinor = gaussian_spinor_packet(grid, -np.pi / 2, 16.0, PARAMS)
    sp_traj = dirac_evolve(spinor, cycle_b, PARAMS, z_end=CYCLE_CM,
                           snapshot_every=200)
    norms = sp_traj.norms()
    if np.max(np.abs(norms / norms[0] - 1.0)) > 1e-9:
        failures.append("spinor norm drift")

    # bpm unitarity without absorber (1e-10), free-diffraction oracle (1e-6),
    # step-halving threshold (1e-4)
    from bentlattice.bpm import (AbsorberSpec, TransverseGrid, bpm_run,
                                 gaussian_tilted_input, gaussian_width_after)
    from bentlattice.diagnostics import (band_populations, bands_for_grid,
                                         project_onto_band, second_moment)
    optics = OpticsParams()
    wide = TransverseGrid.for_cells(optics, n_cells=60, n_points=4096)
    free_field = gaussian_tilted_input(30.0, 0.0, optics, wide)
    uniform = np.full(wide.n, optics.n_s)
    free_traj = bpm_run(free_field, optics, DriveProfile.straight(), 2.0,
                        dz_cm=5e-4, index_profile=uniform,
                        absorber=AbsorberSpec(strength_cm=0.0))
    fp = free_traj.power()
    if np.max(np.abs(fp / fp[0] - 1.0)) > 1e-10:
        failures.append("bpm power drift without absorber")
    width = 2.0 * np.sqrt(second_moment(wide.x_um, free_traj.final.intensity))
    if abs(width / gaussian_width_after(30.0, 2.0, optics) - 1.0) > 1e-6:
        failures.append("free-diffraction width law")

    launch_grid = TransverseGrid.for_cells(optics, n_cells=82, n_points=8192)
    window_bands = bands_for_grid(optics, launch_grid, n_plane_waves=81,
                                  n_bands=4)
    launch = project_onto_band(
        gaussian_tilted_input(80.0, bragg_angle(optics) / 2, optics,
                              launch_grid), window_bands, 0)
    drive45 = DriveProfile.single_cycle(45.0, 0.67)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pops = [band_populations(
            bpm_run(launch, optics, drive45, 1.2, dz_cm=dz,
                    n_guides=100).final, window_bands, 2)
            for dz in (5e-4, 2.5e-4)]
    if np.max(np.abs(pops[0] - pops[1])) > 1e-4:
        failures.append("bpm step-halving")

    # gauge round trip is the identity
    packet = gaussian_packet_state(Q_QUARTER, 10.0, PARAMS)
    packet.z = 0.73
    back = gauge_transform(gauge_transform(packet, drive, Gauge.BARE),
                           drive, Gauge.GAUGED)
    if np.max(np.abs(back.amplitudes - packet.amplitudes)) > 1e-15:
        failures.append("gauge round trip")

    # lattice plane wave vs two-level occupations (1e-6)
    p_lattice = lattice_transition_probability(tb_traj, PARAMS)
    ref = evolve(ground_state(Q_QUARTER, PARAMS), drive, PARAMS,
                 z_end=10 * 2.8556, snapshot_every=200)
    if np.max(np.abs(p_lattice - ref.transition_probability)) > 1e-6:
        failures.append("lattice vs two-level occupations")

    # full vs reduced couplings converge at least quadratically
    def coupling_gap(t):
        k = t
        phi = t
        q = (np.pi + k) / (2 * PARAMS.spacing_cm)
        full = coupling_matrix_full(q, phi, PARAMS)
        red = coupling_matrix_reduced(k, phi, PARAMS)
        return np.hypot(full.z11 - red.z11, full.z12 - red.z12)

    if not coupling_gap(0.1) < coupling_gap(0.2) / 3.5:
        failures.append("full vs reduced convergence order")

    # physical-units coupling equals the reduced one to 1e-14
    from bentlattice.two_level import DiracUnitsMap, coupling_matrix_dirac
    umap = DiracUnitsMap.identity_embedding(PARAMS)
    for k, phi in ((-np.pi / 2, 6.0), (0.3, 0.2)):
        lhs = coupling_matrix_dirac(umap.momentum_from_k(k),
                                    umap.vector_potential_from_phi(phi),
                                    umap.constants)
        rhs = coupling_matrix_reduced(k, phi, PARAMS)
        if (abs(lhs.z11 - rhs.z11) > 1e-14 * max(1, abs(rhs.z11))
                or abs(lhs.z12 - rhs.z12) > 1e-14 * max(1, abs(rhs.z12))):
            failures.append("units-map coupling equality")

    ok = not failures
    assert verdict(
        8, ok,
        "property suite (conservation, oracles, cross-tier equivalences)"
        + ("" if ok else "; FAILING: " + " | ".join(failures))), failures


def test_criterion_8_spinor_lattice_packet_populations():
    # spinor and lattice packet band populations at the two labelled
    # single-cycle points, each checked within 0.02 against its own
    # two-level reduction at the packet's central momentum: the lattice
    # against the full coupling, the spinor against the reduced one.
    #
    # The lattice packet is read in its own Bloch bands
    # (lattice_transition_probability).  The continuum projectors of
    # band_weights match the lattice bands only at the zone edge; at
    # quarter-zone momentum they already put about 0.1 upper-band weight on
    # the untouched initial packet.
    #
    # Spinor-lattice agreement is not asserted at A or B.  The spinor tier
    # replaces the lattice's 2 sigma sin(k/2) by its linearisation sigma k,
    # and at these amplitudes the drive sweeps the momentum through several
    # radians, so the two tiers follow different equations.  What is asserted
    # is that their difference is the full-reduced gap of the two-level tier,
    # which names each point inside or outside the spinor regime.  Agreement
    # inside the regime is checked by TestTierAgreementInValidityRegime.
    failures = []
    notes = []
    big = SuperlatticeParams(2.0, 1.817, 10.0, 512)
    q = big.q_from_qa(np.pi / 4)
    k0 = zone_edge_k(q, big)
    for label, phi0 in (("A", 4.0), ("B", 6.0)):
        point_drive = DriveProfile.from_phase_amplitude("single_cycle", phi0,
                                                        CYCLE_CM)
        tb = evolve_gauged(gaussian_packet_state(q, 32.0, big), big,
                           point_drive, z_end=CYCLE_CM, dz=CYCLE_CM / 4000)
        w_tb = lattice_transition_probability(tb.final, big)
        sp = gaussian_spinor_packet(XiGrid.centered(256.0, 512), k0, 16.0, big)
        w_sp = band_weights(
            dirac_evolve(sp, point_drive, big, z_end=CYCLE_CM,
                         dz=CYCLE_CM / 4000).final, big)[1]
        p_full = transition_probability(point_drive, big, q, MatrixKind.FULL)
        p_red = transition_probability(point_drive, big, q,
                                       MatrixKind.REDUCED)
        delta = w_tb - w_sp
        gap = p_full - p_red
        regime = ("outside the spinor regime" if abs(gap) > 0.02
                  else "inside the spinor regime")
        notes.append(
            f"point {label}: lattice {w_tb:.3f} vs spinor {w_sp:.3f} "
            f"(|delta| = {abs(delta):.3f}); two-level full {p_full:.3f} vs "
            f"reduced {p_red:.3f} (|gap| = {abs(gap):.3f}, {regime}); "
            f"residuals lattice-full {abs(w_tb - p_full):.4f}, "
            f"spinor-reduced {abs(w_sp - p_red):.4f}, "
            f"delta-gap {abs(delta - gap):.4f}")
        for what, residual in (("lattice vs full two-level", w_tb - p_full),
                               ("spinor vs reduced two-level", w_sp - p_red),
                               ("tier difference vs full-reduced gap",
                                delta - gap)):
            if abs(residual) > 0.02:
                failures.append(f"point {label} {what} differs by "
                                f"{abs(residual):.3f} (> 0.02)")
    ok = not failures
    assert verdict(
        8, ok,
        "spinor and lattice packet populations against their two-level "
        "reductions at the labelled drive points; "
        + "; ".join(notes)
        + ("" if ok else "; FAILING: " + " | ".join(failures))), failures


def test_beam_grid_margin():
    # fig5c, the preset that breaks up, on its own grid and on twice the
    # points, to 0.7 cm (just past the drive cycle).  The grid must hold
    # the band populations to 1% of the step-halving tolerance, so that the
    # step, not the grid, sets the beam tier's accuracy.
    summaries = {}
    for extra in ([], ["numerics.grid_points=4096"]):
        scn = scenario_from_text(preset_text("fig5c"),
                                 ["numerics.z_end_cm=0.7", *extra])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            summaries[scn.section("numerics")["grid_points"]] = (
                run_scenario(scn, None)["summary"])
    assert set(summaries) == {2048, 4096}
    bound = 0.01 * BPM_SELF_CHECK_TOL
    moved = {key: abs(summaries[2048][key] - summaries[4096][key])
             for key in ("band1_final", "band2_final", "miniband_transition")}
    ok = max(moved.values()) <= bound
    print("[beam grid] " + ("PASS" if ok else "FAIL") + ": fig5c at 0.7 cm, "
          "2048 against 4096 points: "
          + ", ".join(f"{key} moved {value:.1e}"
                      for key, value in moved.items())
          + f" (bound {bound:.0e}, 1% of the self-check tolerance)")
    assert ok, moved


def test_beam_census_grid_margin():
    # fig5c at 6 cm, where the beam has split in two, on its own grid and
    # on twice the points: the census reads the band-limited field on the
    # same points, so the packets and their velocities keep to far inside
    # the step-halving change of the upper velocity (2.2e-2 um/cm)
    finals = {}
    for points in (2048, 4096):
        scn = scenario_from_text(preset_text("fig5c"), [
            "numerics.z_end_cm=6.0", f"numerics.grid_points={points}"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            finals[points] = run_scenario(scn, None)["summary"]
    assert finals[2048]["n_packets_final"] == finals[4096][
        "n_packets_final"] == 2
    moved = np.abs(np.subtract(finals[2048]["packet_velocities"],
                               finals[4096]["packet_velocities"]))
    print(f"[beam census grid] fig5c at 6 cm, 2048 against 4096 points: "
          f"packet velocities moved {moved.max():.1e} um/cm (bound 1e-3)")
    assert moved.max() <= 1e-3, moved


def _cli_run(out_dir, preset, *settings):
    argv = ["run", "--preset", preset, "--out", str(out_dir),
            "--set", "numerics.z_end_cm=0.7", "--set", "numerics.self_check=1"]
    for setting in settings:
        argv += ["--set", setting]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_main(argv) == 0
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["summary"]


def test_beam_against_lattice_at_the_fig5_drive_points(tmp_path):
    # fig5b's and fig5c's drive points to 0.7 cm, just past the drive
    # cycle, on the beam tier and on the lattice tier with the same drive,
    # lattice constants and launch momentum (qa = pi/4, the half-Bragg
    # tilt) and a Gaussian packet as wide as the beam (w0 / a = 8 sites).
    # The lattice tier is the two-band model; the beam's departure from it
    # is the power outside the two lowest minibands, the run's `remainder`.
    # So the tiers may differ by that remainder plus each tier's
    # step-halving tolerance, which both runs are held to here.
    failures = []
    notes = []
    for preset in ("fig5b", "fig5c"):
        beam = _cli_run(tmp_path / preset, preset)
        _, rows = read_csv(tmp_path / preset / f"{preset}_observables.csv")
        remainder = rows[-1][3]
        lattice = _cli_run(tmp_path / f"{preset}_lattice", preset,
                           "scenario.tier=tight_binding",
                           "lattice.sigma_cm=2.0", "lattice.delta_cm=1.817",
                           "input.qa_over_pi=0.25", "input.packet=gaussian",
                           "input.width_sites=8", "lattice.n_sites=256")
        gap = beam["miniband_transition"] - lattice["P_final"]
        bound = remainder + BPM_SELF_CHECK_TOL + LATTICE_SELF_CHECK_TOL
        notes.append(f"{preset}: beam {beam['miniband_transition']:.5f} vs "
                     f"lattice {lattice['P_final']:.5f} (gap {gap:+.4f}, "
                     f"bound {bound:.4f} from remainder {remainder:.4f})")
        if abs(gap) > bound:
            failures.append(
                f"{preset} beam-lattice gap {abs(gap):.4f} exceeds the "
                f"beam's remainder {remainder:.4f} plus the self-check "
                "tolerances, so the tiers differ by more than the beam's "
                "power outside the two-band model explains")
    ok = not failures
    print("[beam vs lattice] " + ("PASS" if ok else "FAIL") + ": "
          + "; ".join(notes)
          + ("" if ok else "; FAILING: " + " | ".join(failures)))
    assert ok, failures
