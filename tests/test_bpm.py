import re
import warnings

import numpy as np
import pytest

from bentlattice import (DomainError, DriveProfile, GeometryError,
                         OpticsParams, ParameterError)
from bentlattice import drive as drv
from bentlattice.bands import _potential_matrix
from bentlattice.bpm import (AbsorberSpec, ChannelShape, FieldGrid,
                             TransverseGrid, _linear_phase, bpm_run,
                             bragg_angle, build_index_profile,
                             gaussian_tilted_input, gaussian_width_after,
                             sample_index_change)
from bentlattice.config import scenario_from_text
from bentlattice.diagnostics import (_window_bins, band_populations,
                                     bands_for_grid, project_onto_band,
                                     second_moment)
from bentlattice.drive import CM_PER_UM
from bentlattice.fieldio import read_field_dump
from bentlattice.presets import preset_text
from bentlattice.runner import run_scenario


@pytest.fixture(scope="module")
def optics():
    return OpticsParams()


@pytest.fixture(scope="module")
def grid(optics):
    return TransverseGrid.for_cells(optics, n_cells=41, n_points=4096)


class TestIndexProfile:
    def test_high_index_channel_peak(self, optics, grid):
        n = build_index_profile(optics, 20, grid)
        i0 = np.argmin(np.abs(grid.x_um))  # an A channel sits at x = 0
        assert n[i0] == pytest.approx(1.422, abs=1e-9)

    def test_midpoint_is_bulk_for_compact_channels(self, grid):
        compact = OpticsParams(channel_shape=ChannelShape.RAISED_COSINE,
                               channel_width_um=4.0)
        n = build_index_profile(compact, 20, grid)
        i_mid = np.argmin(np.abs(grid.x_um - 5.0))
        assert n[i_mid] == pytest.approx(compact.n_s, abs=1e-15)

    def test_bulk_periodicity(self, optics, grid):
        n = build_index_profile(optics, 40, grid)
        moved = TransverseGrid(grid.x_min_um + 20.0, grid.dx_um, grid.n)
        n_shift = build_index_profile(optics, 40, moved)
        inner = np.abs(grid.x_um) < 100.0
        assert np.max(np.abs(n_shift[inner] - n[inner])) < 1e-15

    # 1021 is prime; the 41-cell window holds 82 guides, so 60 guides end
    # inside it and 400 reach far past both edges
    @pytest.mark.parametrize("n_points", [8192, 1024, 1021])
    @pytest.mark.parametrize("n_guides", [60, 400])
    @pytest.mark.parametrize(("shape", "sg_order"), [
        (ChannelShape.SUPER_GAUSSIAN, 2), (ChannelShape.SUPER_GAUSSIAN, 4),
        (ChannelShape.SUPER_GAUSSIAN, 8), (ChannelShape.RAISED_COSINE, 4)],
        ids=["sg2", "sg4", "sg8", "raised_cosine"])
    def test_equals_dense_sum(self, shape, sg_order, n_guides, n_points):
        optics = OpticsParams(channel_shape=shape, sg_order=sg_order)
        grid = TransverseGrid.for_cells(optics, n_cells=41,
                                        n_points=n_points)
        x = grid.x_um
        dn = np.zeros(grid.n)
        for j in range(-n_guides // 2, n_guides // 2):
            peak = optics.dn1 if j % 2 == 0 else optics.dn2
            dn += peak * sample_index_change(optics, x - j * optics.spacing_um)
        assert np.array_equal(build_index_profile(optics, n_guides, grid),
                              optics.n_s + dn)

    def test_guides_beyond_the_grid_add_nothing(self, optics):
        # on this 80 um window the 10 guides -5 .. 4 already give every bit
        # of the profile and 8 do not; a billion guides must give the same
        # bits, at the cost of the few that reach the grid
        small = TransverseGrid.for_cells(optics, n_cells=4, n_points=256)
        covered = build_index_profile(optics, 10, small)
        assert not np.array_equal(build_index_profile(optics, 8, small),
                                  covered)
        assert np.array_equal(build_index_profile(optics, 10**9, small),
                              covered)

    def test_overlapping_channels_rejected(self, grid):
        fat = OpticsParams(channel_width_um=10.0)
        with pytest.raises(GeometryError):
            build_index_profile(fat, 20, grid)

    def test_odd_guide_count_rejected(self, optics, grid):
        with pytest.raises(ParameterError):
            build_index_profile(optics, 21, grid)


class TestOpticsParams:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["wavelength_cm", "n_s",
                                      "channel_width_um", "spacing_um"])
    def test_bad_geometry_rejected(self, name, value):
        with pytest.raises(ParameterError, match=name):
            OpticsParams(**{name: value})


class TestBraggAngle:
    def test_reference_value(self, optics):
        theta = bragg_angle(optics)
        assert theta == pytest.approx(0.011144, abs=1e-6)
        assert np.degrees(theta) == pytest.approx(0.6385, abs=1e-3)

    def test_scaling_with_spacing(self, optics):
        doubled = OpticsParams(spacing_um=20.0)
        assert bragg_angle(doubled) == pytest.approx(bragg_angle(optics) / 2,
                                                     rel=1e-14)

    def test_scaling_with_wavelength(self, optics):
        doubled = OpticsParams(wavelength_cm=2 * optics.wavelength_cm)
        assert bragg_angle(doubled) == pytest.approx(2 * bragg_angle(optics),
                                                     rel=1e-14)


class TestTiltedInput:
    def test_untilted_is_real_positive(self, optics, grid):
        field = gaussian_tilted_input(80.0, 0.0, optics, grid)
        assert np.max(np.abs(field.envelope.imag)) == 0.0
        assert np.min(field.envelope.real) >= 0.0

    def test_unit_power(self, optics, grid):
        field = gaussian_tilted_input(80.0, bragg_angle(optics) / 2, optics,
                                      grid)
        assert field.power == pytest.approx(1.0, rel=1e-12)

    def test_spectral_centroid_at_quarter_zone(self, optics, grid):
        field = gaussian_tilted_input(80.0, bragg_angle(optics) / 2, optics,
                                      grid)
        spectrum = np.abs(np.fft.fft(field.envelope)) ** 2
        k = grid.k_cm
        centroid = np.sum(k * spectrum) / np.sum(spectrum)
        target = np.pi / (4 * optics.spacing_cm)
        assert centroid == pytest.approx(target, rel=1e-3)

    def test_narrow_window_rejected(self, optics):
        tiny = TransverseGrid.for_cells(optics, n_cells=8, n_points=256)
        with pytest.raises(DomainError):
            gaussian_tilted_input(80.0, 0.0, optics, tiny)

    def test_tilt_at_the_nyquist_wavenumber_rejected(self, optics):
        # fig5's grid: the Nyquist wavenumber pi/dx lies at 49.95 theta_B,
        # so a 1000 theta_B tilt would alias to 0.976 theta_B
        fig5 = TransverseGrid.for_cells(optics, n_cells=82, n_points=4096)
        theta_b = bragg_angle(optics)
        nyquist = 2 * optics.spacing_um / fig5.dx_um * theta_b
        assert nyquist == pytest.approx(49.95 * theta_b, rel=1e-4)
        gaussian_tilted_input(80.0, 24 * theta_b, optics, fig5)
        gaussian_tilted_input(80.0, -0.999 * nyquist, optics, fig5)
        for theta in (nyquist, -nyquist, 1000 * theta_b, np.nan):
            with pytest.raises(ParameterError, match="Nyquist"):
                gaussian_tilted_input(80.0, theta, optics, fig5)

    def test_spot_below_grid_spacing_rejected(self, optics, grid):
        # one grid step is the narrowest spot the grid can carry
        gaussian_tilted_input(grid.dx_um, 0.0, optics, grid)
        with pytest.raises(ParameterError, match="grid spacing"):
            gaussian_tilted_input(0.5 * grid.dx_um, 0.0, optics, grid)


class TestFreeDiffraction:
    def test_width_law(self, optics):
        grid = TransverseGrid.for_cells(optics, n_cells=60, n_points=4096)
        field = gaussian_tilted_input(30.0, 0.0, optics, grid)
        uniform = np.full(grid.n, optics.n_s)
        z_end = 2.0
        traj = bpm_run(field, optics, DriveProfile.straight(), z_end,
                       dz_cm=5e-4, index_profile=uniform,
                       absorber=AbsorberSpec(strength_cm=0.0))
        # 1/e amplitude half-width from the second moment of a Gaussian
        m2 = second_moment(grid.x_um, traj.final.intensity)
        measured = 2.0 * np.sqrt(m2)
        assert measured == pytest.approx(
            gaussian_width_after(30.0, z_end, optics), rel=1e-6)


class TestUnitarity:
    def test_power_conserved_without_absorber(self, optics, grid):
        drive = DriveProfile.single_cycle(30.0, 0.67)
        field = gaussian_tilted_input(80.0, bragg_angle(optics) / 2, optics,
                                      grid)
        traj = bpm_run(field, optics, drive, 1.0, dz_cm=5e-4, n_guides=40,
                       absorber=AbsorberSpec(strength_cm=0.0),
                       snapshot_every=500)
        power = traj.power()
        assert np.max(np.abs(power / power[0] - 1.0)) < 1e-10


def strang_steps(field, optics, profile, z_end, dz_cm, index_profile,
                 absorber):
    """Plain bent-frame Strang loop: every phase rebuilt each step, numpy
    FFTs.

    Yields each step's end z, envelope and absorber intake (power absorbed
    so far over the launch power).
    """
    grid = field.grid
    n_steps = int(round((z_end - field.z) / dz_cm))
    h = (z_end - field.z) / n_steps
    a_cm = optics.spacing_cm
    k_cm = grid.k_cm
    v_static = 2 * np.pi * (optics.n_s - index_profile) / optics.wavelength_cm
    mask = np.exp(-absorber.damping(grid.n) * h)
    env = field.envelope.astype(complex)
    p_launch = np.sum(np.abs(env) ** 2) * grid.dx_um
    absorbed = 0.0
    for i in range(n_steps):
        z = field.z + i * h
        bend = drv.force(profile, z + h / 2) / a_cm
        half = np.exp(-1j * (v_static + bend * grid.x_cm) * (h / 2))
        kernel = np.exp(-1j * optics.diffraction_cm * k_cm**2 * h)
        env = half * np.fft.ifft(kernel * np.fft.fft(half * env))
        absorbed += np.sum(np.abs(env) ** 2 * (1 - mask**2)) * grid.dx_um
        env = env * mask
        yield field.z + (i + 1) * h, env, absorbed / p_launch


def strang_reference(field, optics, profile, z_end, dz_cm, n_guides,
                     absorber):
    """Final envelope of ``strang_steps`` on a ``n_guides`` array."""
    index_profile = build_index_profile(optics, n_guides, field.grid)
    for _, env, _ in strang_steps(field, optics, profile, z_end, dz_cm,
                                  index_profile, absorber):
        pass
    return env


def cell_reference(launch, bands, profile, z_end, dz_cm):
    """``miniband_transition`` at z_end of the infinite periodic array.

    Each momentum q of the window's comb carries its own plane-wave vector
    c_G over the reciprocal vectors G of ``bands``, launched from the
    field's Fourier components.  In the shifted-k gauge the bend moves the
    kinetic term to D (q + G - Phi(z)/a)^2, integrated exactly over each
    step, while the cell potential V_{G-G'} stays static, so a Strang step
    at the beam's dz is a diagonal phase between two factors exp(-i V h/2)
    taken from one eigh of V.  The populations are read on the bands at q,
    which holds where Phi(z_end) = 0, past a single cycle.
    """
    optics, grid = bands.optics, launch.grid
    ks, bins, usable = _window_bins(grid, bands)
    c = np.where(usable, np.fft.fft(launch.envelope)[bins]
                 * np.exp(-1j * ks * grid.x_min_um * CM_PER_UM), 0.0)
    lam, u = np.linalg.eigh(_potential_matrix(optics, bands.g_indices))
    n_steps = int(round((z_end - launch.z) / dz_cm))
    h = (z_end - launch.z) / n_steps
    half, full = ((u * np.exp(-1j * lam * t)) @ u.T for t in (h / 2, h))
    z = launch.z + np.arange(n_steps) * h
    # exact integrals of Phi/a and (Phi/a)^2 over each step
    phi = drv.phase_integral(profile, z, z + h) / optics.spacing_cm
    phi_sq = drv.phase_sq_integral(profile, z, z + h) / optics.spacing_cm**2
    d = optics.diffraction_cm
    free = np.exp(-1j * d * ks**2 * h)
    c = c @ half
    for i in range(n_steps):
        # the cross term exp(2 i D (q + G) int Phi/a) splits into a factor
        # per q and one per G
        c *= free * np.multiply.outer(
            np.exp(2j * d * phi[i] * bands.q_values),
            np.exp(2j * d * phi[i] * bands.g_values - 1j * d * phi_sq[i]))
        c = c @ (full if i + 1 < n_steps else half)
    amps = np.einsum("qgb,qg->qb", bands.coeffs, c)
    p1, p2 = np.sum(np.abs(amps) ** 2, axis=0)
    return p2 / (p1 + p2)


class TestLinearPhase:
    @pytest.mark.parametrize("n", [8192, 999, 1021, 1])
    def test_matches_direct_exp(self, n):
        # 8192 = 64 x 128, 999 = 27 x 37, and the prime 1021 is one factor
        x0, dx, c = -0.041, 1e-5, 2.0e3
        x = x0 + dx * np.arange(n)
        out = _linear_phase(n, c * x0, c * dx)
        assert np.max(np.abs(out - np.exp(-1j * c * x))) < 1e-13


def _strang_drive(kind):
    """The single cycle bends the axis for z < 0.2 of 0.3 cm and then holds
    it straight; the tabulated phase changes at every step of the run."""
    if kind == "single_cycle":
        return DriveProfile.single_cycle(5.0, 0.2)
    z = np.linspace(0.0, 0.3, 16)
    return DriveProfile.tabulated(z, 2.0 * np.sin(2 * np.pi * z / 0.2)
                                  * np.exp(-z / 0.3))


class TestStrangStep:
    # 1021 is prime, so the factored phases fall back to one exp vector
    @pytest.mark.parametrize(("n_points", "drive_kind"), [
        (1024, "single_cycle"), (1021, "single_cycle"), (1024, "tabulated")],
        ids=["bent_frame", "bent_frame-prime", "bent_frame-tabulated"])
    def test_matches_per_step_reference(self, optics, n_points, drive_kind):
        # after the single cycle the bent frame reuses its fused phases on
        # the straight axis
        grid = TransverseGrid.for_cells(optics, n_cells=40,
                                        n_points=n_points)
        field = gaussian_tilted_input(40.0, bragg_angle(optics) / 2, optics,
                                      grid)
        drive = _strang_drive(drive_kind)
        absorber = AbsorberSpec()
        traj = bpm_run(field, optics, drive, 0.3, dz_cm=1e-3, n_guides=80,
                       absorber=absorber, snapshot_every=50)
        ref = strang_reference(field, optics, drive, 0.3, 1e-3, 80, absorber)
        assert len(traj.z) == 7 and traj.absorbed[-1] > 0
        assert np.max(np.abs(traj.final.envelope - ref)) < 1e-12
        # snapshots inside the bend read the state through its linear phase
        index_profile = build_index_profile(optics, 80, grid)
        inner = [env for step, (_, env, _) in enumerate(strang_steps(
            field, optics, drive, 0.3, 1e-3, index_profile, absorber),
            start=1) if step % 50 == 0]
        assert np.max(np.abs(traj.fields[1:] - inner)) < 1e-12

    def test_absorbed_equals_power_lost(self, optics):
        grid = TransverseGrid.for_cells(optics, n_cells=20, n_points=1024)
        field = gaussian_tilted_input(40.0, 4 * bragg_angle(optics), optics,
                                      grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # intake passes the warn level
            traj = bpm_run(field, optics, DriveProfile.straight(), 1.0,
                           dz_cm=1e-3, n_guides=40, intake_error=2.0)
        power = traj.power()
        assert traj.absorbed[-1] > 0.1
        assert (traj.absorbed[-1] * power[0]
                == pytest.approx(power[0] - power[-1], abs=1e-12))


@pytest.fixture(scope="module")
def purified_launch(optics):
    grid = TransverseGrid.for_cells(optics, n_cells=82, n_points=8192)
    bands = bands_for_grid(optics, grid, n_plane_waves=81, n_bands=4)
    raw = gaussian_tilted_input(80.0, bragg_angle(optics) / 2, optics, grid)
    return grid, bands, project_onto_band(raw, bands, band=0)


class TestStepConvergence:
    def test_halving_dz_fixes_band_populations(self, optics, purified_launch):
        grid, bands, field = purified_launch
        drive = DriveProfile.single_cycle(30.0, 0.67)
        finals = []
        for dz in (5e-4, 2.5e-4):
            traj = bpm_run(field, optics, drive, 1.2, dz_cm=dz, n_guides=100)
            finals.append(band_populations(traj.final, bands, 2))
        assert np.max(np.abs(finals[0] - finals[1])) < 1e-4


class TestCellReference:
    # fig5b's drive amplitudes along the single-cycle transition curve:
    # phi0 = 0.99, 1.98, 3.97, 5.95 and 7.93
    AMPLITUDES_UM = (7.5, 15.0, 30.0, 45.0, 60.0)

    def test_beam_matches_the_periodic_cell(self, tmp_path):
        # fig5b's geometry to 0.7 cm, just past the drive cycle: the beam
        # tier through the runner, against the cell reference launched from
        # the beam's own launch field.  The two propagate the same physics
        # by independent code, each with Strang at the same dz, so their gap
        # may be no larger than the two runs' own dz/2 changes together.
        def fig5b(*settings):
            return scenario_from_text(preset_text("fig5b"), [
                "numerics.z_end_cm=0.7", *settings])

        base = fig5b()
        optics, num = base.optics_params(), base.section("numerics")
        grid = TransverseGrid.for_cells(optics, num["grid_cells"],
                                        num["grid_points"])
        bands = bands_for_grid(optics, grid,
                               base.section("bands")["n_plane_waves"],
                               n_bands=2)
        failures, notes = [], []
        for amplitude in self.AMPLITUDES_UM:
            beam, cell = {}, {}
            for dz in (5e-4, 2.5e-4):
                scn = fig5b(f"numerics.dz_cm={dz}",
                            f"drive.amplitude_um={amplitude}")
                out = tmp_path / f"{amplitude}_{dz}"
                summary = run_scenario(scn, out)["summary"]
                beam[dz] = summary["miniband_transition"]
                (launch,), meta = read_field_dump(out / "fig5b_field0000.bin")
                cell[dz] = cell_reference(FieldGrid(launch, grid, meta["z"]),
                                          bands, scn.drive_profile(), 0.7, dz)
            gap = beam[5e-4] - cell[5e-4]
            d_beam = beam[2.5e-4] - beam[5e-4]
            d_cell = cell[2.5e-4] - cell[5e-4]
            bound = abs(d_beam) + abs(d_cell)
            notes.append(f"{amplitude:g} um: beam {beam[5e-4]:.7f} vs cell "
                         f"{cell[5e-4]:.7f} (gap {gap:+.1e}, bound "
                         f"{bound:.1e} from dz/2 changes {d_beam:+.1e} and "
                         f"{d_cell:+.1e})")
            if not abs(gap) <= bound:
                failures.append(
                    f"{amplitude:g} um beam-cell gap {abs(gap):.1e} exceeds "
                    f"the runs' dz/2 changes {bound:.1e}, so beam and "
                    "cell differ by more than their step error explains")
        ok = not failures
        print("[beam vs cell] " + ("PASS" if ok else "FAIL") + ": "
              + "; ".join(notes)
              + ("" if ok else "; FAILING: " + " | ".join(failures)))
        assert ok, failures


class TestAbsorber:
    def test_ramp_below_one_point_damps_nothing(self):
        assert not np.any(AbsorberSpec(fraction=1e-5).damping(100))

    def test_overlapping_ramps_rejected(self):
        with pytest.raises(ParameterError):
            AbsorberSpec(fraction=0.6)

    @pytest.mark.parametrize("strength", [-5.0, -1e-300, np.inf, np.nan])
    def test_negative_or_non_finite_strength_rejected(self, strength):
        # a negative strength would make the edge ramp amplify the field
        with pytest.raises(ParameterError, match="strength_cm"):
            AbsorberSpec(strength_cm=strength)

    def test_zero_strength_damps_nothing(self):
        assert not np.any(AbsorberSpec(strength_cm=0.0).damping(100))
        # and the step loop is handed no ramp to work on
        assert AbsorberSpec(strength_cm=0.0).ramps(100) == ()

    def test_intake_escalates_to_error(self, optics):
        grid = TransverseGrid.for_cells(optics, n_cells=41, n_points=4096)
        field = gaussian_tilted_input(60.0, 4 * bragg_angle(optics), optics,
                                      grid)
        uniform = np.full(grid.n, optics.n_s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the warn threshold trips first
            with pytest.raises(DomainError, match="absorber") as info:
                bpm_run(field, optics, DriveProfile.straight(), 6.0,
                        dz_cm=1e-3, index_profile=uniform)
        # the error names the first step whose intake passes 1e-2
        z_ref = next(z for z, _, intake in strang_steps(
            field, optics, DriveProfile.straight(), 6.0, 1e-3, uniform,
            AbsorberSpec()) if intake > 1e-2)
        z_flagged = re.search(r"z = (\S+) cm", str(info.value))[1]
        assert z_flagged == f"{z_ref:.6g}"

    def test_intake_warns_before_error(self, optics):
        grid = TransverseGrid.for_cells(optics, n_cells=41, n_points=4096)
        field = gaussian_tilted_input(60.0, 4 * bragg_angle(optics), optics,
                                      grid)
        uniform = np.full(grid.n, optics.n_s)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bpm_run(field, optics, DriveProfile.straight(), 6.0, dz_cm=1e-3,
                    index_profile=uniform, intake_error=2.0)
        assert any("absorber" in str(w.message) for w in caught)

    @pytest.mark.parametrize("thresholds", [
        {"intake_error": np.nan}, {"intake_warn": np.nan},
        {"intake_error": 0.0}, {"intake_warn": -1e-3},
        {"intake_error": np.inf}])
    def test_bad_intake_threshold_rejected(self, optics, grid, thresholds):
        # a NaN error level would never be passed and so never raise
        field = gaussian_tilted_input(80.0, 0.0, optics, grid)
        name = next(iter(thresholds))
        with pytest.raises(ParameterError, match=name):
            bpm_run(field, optics, DriveProfile.straight(), 1e-3,
                    **thresholds)


class TestLaunchPower:
    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
    def test_dead_or_non_finite_launch_rejected(self, optics, grid, value):
        # the intake is a fraction of the launch power, which must be a
        # positive number
        field = FieldGrid(np.full(grid.n, value, dtype=complex), grid)
        with pytest.raises(ParameterError, match="launch_power"):
            bpm_run(field, optics, DriveProfile.straight(), 1e-3)
