import re
import warnings

import numpy as np
import pytest

from bentlattice import (DomainError, DriveProfile, GeometryError,
                         OpticsParams, ParameterError)
from bentlattice import drive as drv
from bentlattice.bpm import (AbsorberSpec, BpmGauge, ChannelShape,
                             FieldGrid, TransverseGrid, _linear_phase,
                             bpm_run, bragg_angle, build_index_profile,
                             gaussian_tilted_input, gaussian_width_after)
from bentlattice.diagnostics import (band_populations, bands_for_grid,
                                     project_onto_band, second_moment)


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


def strang_steps(field, optics, profile, z_end, dz_cm, gauge, index_profile,
                 absorber):
    """Plain Strang loop: every phase rebuilt each step, numpy FFTs.

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
        if gauge is BpmGauge.BENT_FRAME:
            bend = drv.force(profile, z + h / 2) / a_cm
            half = np.exp(-1j * (v_static + bend * grid.x_cm) * (h / 2))
            kernel = np.exp(-1j * optics.diffraction_cm * k_cm**2 * h)
        else:
            half = np.exp(-1j * v_static * (h / 2))
            kernel = np.exp(-1j * optics.diffraction_cm * (
                k_cm**2 * h
                - 2 * k_cm * drv.phase_integral(profile, z, z + h) / a_cm
                + drv.phase_sq_integral(profile, z, z + h) / a_cm**2))
        env = half * np.fft.ifft(kernel * np.fft.fft(half * env))
        absorbed += np.sum(np.abs(env) ** 2 * (1 - mask**2)) * grid.dx_um
        env = env * mask
        yield field.z + (i + 1) * h, env, absorbed / p_launch


def strang_reference(field, optics, profile, z_end, dz_cm, gauge, n_guides,
                     absorber):
    """Final envelope of ``strang_steps`` on a ``n_guides`` array."""
    index_profile = build_index_profile(optics, n_guides, field.grid)
    for _, env, _ in strang_steps(field, optics, profile, z_end, dz_cm,
                                  gauge, index_profile, absorber):
        pass
    return env


class TestLinearPhase:
    @pytest.mark.parametrize("n", [8192, 999, 1021, 1])
    def test_matches_direct_exp(self, n):
        # 8192 = 64 x 128, 999 = 27 x 37, and the prime 1021 is one factor
        x0, dx, c = -0.041, 1e-5, 2.0e3
        x = x0 + dx * np.arange(n)
        out = _linear_phase(n, c * x0, c * dx)
        assert np.max(np.abs(out - np.exp(-1j * c * x))) < 1e-13


class TestStrangStep:
    # 1021 is prime, so the factored phases fall back to one exp vector
    @pytest.mark.parametrize(("gauge", "n_points"), [
        (BpmGauge.BENT_FRAME, 1024), (BpmGauge.SHIFTED_K, 1024),
        (BpmGauge.BENT_FRAME, 1021), (BpmGauge.SHIFTED_K, 1021)],
        ids=["bent_frame", "shifted_k", "bent_frame-prime", "shifted_k-prime"])
    def test_matches_per_step_reference(self, optics, gauge, n_points):
        # the bending cycle ends at z = 0.2 of 0.3 cm, so the cached phases
        # are used on both sides of the change to a straight axis
        grid = TransverseGrid.for_cells(optics, n_cells=40,
                                        n_points=n_points)
        field = gaussian_tilted_input(40.0, bragg_angle(optics) / 2, optics,
                                      grid)
        drive = DriveProfile.single_cycle(5.0, 0.2)
        absorber = AbsorberSpec()
        traj = bpm_run(field, optics, drive, 0.3, dz_cm=1e-3, n_guides=80,
                       gauge=gauge, absorber=absorber, snapshot_every=50)
        ref = strang_reference(field, optics, drive, 0.3, 1e-3, gauge, 80,
                               absorber)
        assert len(traj.z) == 7 and traj.absorbed[-1] > 0
        assert np.max(np.abs(traj.final.envelope - ref)) < 1e-12

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


class TestDriveGaugeConsistency:
    def test_band_populations_agree_between_gauges(self, optics,
                                                   purified_launch):
        grid, bands, field = purified_launch
        drive = DriveProfile.single_cycle(45.0, 0.67)
        pops = {}
        for gauge in (BpmGauge.BENT_FRAME, BpmGauge.SHIFTED_K):
            traj = bpm_run(field, optics, drive, 1.2, dz_cm=5e-4,
                           n_guides=100, gauge=gauge)
            pops[gauge] = band_populations(traj.final, bands, 2)
        delta = np.max(np.abs(pops[BpmGauge.BENT_FRAME]
                              - pops[BpmGauge.SHIFTED_K]))
        assert delta < 1e-3


class TestStepConvergence:
    def test_halving_dz_fixes_band_populations(self, optics, purified_launch):
        grid, bands, field = purified_launch
        drive = DriveProfile.single_cycle(30.0, 0.67)
        finals = []
        for dz in (5e-4, 2.5e-4):
            traj = bpm_run(field, optics, drive, 1.2, dz_cm=dz, n_guides=100)
            finals.append(band_populations(traj.final, bands, 2))
        assert np.max(np.abs(finals[0] - finals[1])) < 1e-4


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
            field, optics, DriveProfile.straight(), 6.0, 1e-3,
            BpmGauge.BENT_FRAME, uniform, AbsorberSpec()) if intake > 1e-2)
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
