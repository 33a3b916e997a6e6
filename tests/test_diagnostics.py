import math

import numpy as np
import pytest

from bentlattice import (Branch, DriveProfile, OpticsParams,
                         SuperlatticeParams)
from bentlattice import diagnostics
from bentlattice.bpm import (BpmTrajectory, FieldGrid, TransverseGrid,
                             bragg_angle, gaussian_tilted_input)
from bentlattice.diagnostics import (band_amplitudes, band_populations,
                                     bands_for_grid, centroid,
                                     lattice_band_amplitudes,
                                     lattice_transition_probability,
                                     observables_series, packet_census,
                                     project_onto_band, second_moment)
from bentlattice.errors import DegenerateGapError, ParameterError, ShapeError
from bentlattice.tight_binding import (Gauge, ModeVector, bloch_eigenvector,
                                       bloch_mode_state, dispersion)

CM_PER_UM = 1e-4


@pytest.fixture(scope="module")
def optics():
    return OpticsParams()


@pytest.fixture(scope="module")
def grid(optics):
    return TransverseGrid.for_cells(optics, n_cells=41, n_points=4096)


@pytest.fixture(scope="module")
def window_bands(optics, grid):
    return bands_for_grid(optics, grid, n_plane_waves=81, n_bands=6)


def bloch_mode_field(bands, grid, iq, band):
    window_cm = grid.width_um * CM_PER_UM
    ks = bands.q_values[iq] + bands.g_values
    field = (np.exp(1j * np.outer(grid.x_cm, ks)) @ bands.coeffs[iq, :, band]
             / np.sqrt(window_cm))
    return FieldGrid(field, grid, 0.0)


class TestBandPopulations:
    def test_pure_mode_projects_to_one(self, grid, window_bands):
        field = bloch_mode_field(window_bands, grid, 7, 0)
        pops = band_populations(field, window_bands, 2)
        assert pops[0] == pytest.approx(1.0, abs=1e-10)
        assert pops[1] < 1e-10

    def test_projection_completeness(self, optics, grid, window_bands):
        field = gaussian_tilted_input(80.0, bragg_angle(optics) / 2, optics,
                                      grid)
        amps = band_amplitudes(field, window_bands)
        recovered = np.sum(np.abs(amps) ** 2) / (field.power * CM_PER_UM)
        # six bands already hold everything but the far radiation tail
        assert recovered > 0.99
        all_bands = bands_for_grid(optics, grid, n_plane_waves=81, n_bands=81)
        amps_all = band_amplitudes(field, all_bands)
        total = np.sum(np.abs(amps_all) ** 2) / (field.power * CM_PER_UM)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_tilted_gaussian_mostly_lowest_band(self, optics, grid,
                                                window_bands):
        field = gaussian_tilted_input(80.0, bragg_angle(optics) / 2, optics,
                                      grid)
        pops = band_populations(field, window_bands, 2)
        assert pops[0] / pops.sum() > 0.9
        # the raw tilted Gaussian also launches radiation modes, so the
        # absolute lowest-band fraction sits noticeably below the in-band share
        assert pops[0] == pytest.approx(0.768, abs=0.01)

    def test_purified_launch_is_single_band(self, optics, grid, window_bands):
        raw = gaussian_tilted_input(80.0, bragg_angle(optics) / 2, optics,
                                    grid)
        clean = project_onto_band(raw, window_bands, band=0)
        pops = band_populations(clean, window_bands, 2)
        assert pops[0] == pytest.approx(1.0, abs=1e-10)
        assert clean.power == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("band", [0, 1])
    def test_projection_matches_dense_reconstruction(self, optics, band):
        # 256 points leave the top plane waves of the comb beyond Nyquist,
        # so the usable mask is exercised as well
        small = TransverseGrid.for_cells(optics, n_cells=20, n_points=256)
        bands = bands_for_grid(optics, small, n_plane_waves=41, n_bands=4)
        raw = gaussian_tilted_input(40.0, bragg_angle(optics) / 2, optics,
                                    small)
        amps = band_amplitudes(raw, bands)
        nyquist = np.pi / (small.dx_um * CM_PER_UM)
        dense = np.zeros(small.n, dtype=complex)
        for iq, q in enumerate(bands.q_values):
            ks = q + bands.g_values
            coeff = np.where(np.abs(ks) < 0.999 * nyquist,
                             bands.coeffs[iq, :, band], 0.0)
            dense += amps[iq, band] * (np.exp(1j * np.outer(small.x_cm, ks))
                                       @ coeff)
        dense = FieldGrid(dense, small, 0.0).normalized().envelope
        assert np.any(np.abs(bands.q_values[:, None] + bands.g_values)
                      >= 0.999 * nyquist)
        projected = project_onto_band(raw, bands, band=band).envelope
        assert np.max(np.abs(projected - dense)) < 1e-12

    def test_incompatible_grid_rejected(self, optics, grid, window_bands):
        other = TransverseGrid.for_cells(optics, n_cells=40, n_points=4096)
        field = FieldGrid(np.ones(other.n, complex), other, 0.0)
        with pytest.raises(ShapeError):
            band_populations(field, window_bands)


class TestLatticeProjection:
    def test_pure_branch_starts_dark(self, params):
        state = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                                 params)
        assert lattice_transition_probability(state, params) < 1e-12

    def test_two_band_completeness(self, params):
        state = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                                 params)
        qa, r_minus, r_plus = lattice_band_amplitudes(state, params)
        recovered = np.sum(np.abs(r_minus) ** 2 + np.abs(r_plus) ** 2)
        assert recovered == pytest.approx(state.power, rel=1e-12)

    def test_band_amplitudes_match_per_q_loop(self, params):
        from bentlattice.tight_binding import to_sublattice_pairs
        rng = np.random.default_rng(3)
        amps = (rng.standard_normal(params.n_sites)
                + 1j * rng.standard_normal(params.n_sites))
        state = ModeVector(amps, Gauge.GAUGED, 0.0)
        qa, r_minus, r_plus = lattice_band_amplitudes(state, params)
        # the zone edge is on the momentum grid, where the fixed
        # eigenvector convention applies
        assert np.pi / 2 in qa
        pairs = to_sublattice_pairs(amps, params)
        for i, qa_i in enumerate(qa):
            s1, s2 = pairs[i]
            vm = bloch_eigenvector(qa_i / params.spacing_cm, Branch.MINUS,
                                   params)
            vp = bloch_eigenvector(qa_i / params.spacing_cm, Branch.PLUS,
                                   params)
            assert abs(r_minus[i] - (vm[0] * s1 + vm[1] * s2)) < 1e-14
            assert abs(r_plus[i] - (vp[0] * s1 + vp[1] * s2)) < 1e-14

    @pytest.mark.parametrize("n_sites", [6, 10, 64])
    def test_pure_branch_starts_dark_on_either_chain_parity(self, n_sites):
        # for n % 4 == 2 the chain starts on an odd (B) site, which the
        # transform must still put in s2
        small = SuperlatticeParams(2.0, 1.817, n_sites=n_sites)
        for branch, p in ((Branch.MINUS, 0.0), (Branch.PLUS, 1.0)):
            state = bloch_mode_state(small.q_from_qa(2 * np.pi / n_sites),
                                     branch, small)
            assert lattice_transition_probability(state, small) == (
                pytest.approx(p, abs=1e-12))

    @pytest.mark.parametrize("gauge", [Gauge.GAUGED, Gauge.BARE])
    def test_trajectory_equals_per_snapshot_loop(self, params, gauge):
        from bentlattice.tight_binding import (Boundary, evolve_bare,
                                               evolve_gauged, gauge_transform,
                                               gaussian_packet_state)
        drive = DriveProfile.from_phase_amplitude("sinusoidal", 0.4, 2.8556)
        state = gaussian_packet_state(params.q_from_qa(np.pi / 4), 6.0,
                                      params, gauge=gauge)
        evolver = evolve_bare if gauge is Gauge.BARE else evolve_gauged
        traj = evolver(state, params, drive, 1.0, dz=2.8556 / 4000,
                       snapshot_every=100, boundary=Boundary.HARD_WALL)
        batched = lattice_transition_probability(traj, params, drive)
        _, rm_traj, rp_traj = lattice_band_amplitudes(traj, params, drive)

        # each snapshot taken to the gauged frame and projected on its own
        def amplitudes(i):
            snapshot = ModeVector(traj.states[i], gauge, float(traj.z[i]))
            return lattice_band_amplitudes(
                gauge_transform(snapshot, drive, Gauge.GAUGED), params)[1:]

        def upper_fraction(i):
            r_minus, r_plus = amplitudes(i)
            pm, pp = np.sum(np.abs(r_minus) ** 2), np.sum(np.abs(r_plus) ** 2)
            return pp / (pm + pp)

        looped = [upper_fraction(i) for i in range(len(traj.z))]
        assert batched.shape == (len(traj.z),)
        assert np.max(np.abs(batched - looped)) < 1e-14
        assert np.max(batched) > 1e-3  # the drive moved power upwards
        # the trajectory's amplitudes are the per-snapshot ones, stacked
        assert rm_traj.shape == rp_traj.shape == (len(traj.z),
                                                  params.n_sites // 2)
        looped_rm, looped_rp = zip(*(amplitudes(i)
                                     for i in range(len(traj.z))))
        assert np.max(np.abs(rm_traj - np.array(looped_rm))) < 1e-14
        assert np.max(np.abs(rp_traj - np.array(looped_rp))) < 1e-14

    def test_snapshot_resolves_in_q(self, params, single_cycle_b):
        from bentlattice.tight_binding import evolve_gauged
        state = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                                 params)
        traj = evolve_gauged(state, params, single_cycle_b, 0.1,
                             snapshot_every=50)
        # P(q) of one snapshot from its per-momentum amplitudes
        final = ModeVector(traj.states[-1], Gauge.GAUGED, float(traj.z[-1]))
        qa, r_minus, r_plus = lattice_band_amplitudes(final, params)
        pm, pp = np.abs(r_minus) ** 2, np.abs(r_plus) ** 2
        assert qa.shape == pm.shape == pp.shape == (params.n_sites // 2,)
        i0 = np.argmax(pm + pp)
        assert qa[i0] == pytest.approx(np.pi / 4, abs=1e-12)
        assert np.sum(pp) / np.sum(pm + pp) == pytest.approx(
            lattice_transition_probability(final, params), abs=1e-15)

    def test_band_amplitudes_reject_closed_gap(self):
        gapless = SuperlatticeParams(2.0, 0.0, n_sites=64)
        state = bloch_mode_state(gapless.q_from_qa(np.pi / 4), Branch.MINUS,
                                 gapless)
        with pytest.raises(DegenerateGapError):
            lattice_band_amplitudes(state, gapless)


class TestMoments:
    def test_centroid_and_second_moment(self):
        x = np.linspace(-200, 200, 2001)
        w = np.exp(-((x - 12.5) / 30.0) ** 2)
        assert centroid(x, w) == pytest.approx(12.5, abs=1e-9)
        # the profile is a weight, so its variance is w^2/2
        assert second_moment(x, w) == pytest.approx(30.0**2 / 2, rel=1e-6)


class TestPacketCensus:
    def test_single_gaussian(self):
        x = np.linspace(-200, 200, 4001)
        w = np.exp(-2 * ((x - 33.0) / 25.0) ** 2)
        packets = packet_census(x, w)
        assert len(packets) == 1
        assert packets[0].center == pytest.approx(33.0, abs=0.1)
        # tails below the 0.1 threshold are excluded: erf(sqrt(ln 10))
        assert packets[0].fraction == pytest.approx(0.968, abs=0.005)

    def test_two_separated_gaussians(self):
        x = np.linspace(-300, 300, 6001)
        w = (np.exp(-2 * ((x + 120) / 20.0) ** 2)
             + 0.5 * np.exp(-2 * ((x - 90) / 20.0) ** 2))
        packets = packet_census(x, w)
        assert len(packets) == 2
        assert packets[0].center == pytest.approx(-120.0, abs=0.5)
        assert packets[1].center == pytest.approx(90.0, abs=0.5)
        assert packets[0].power > packets[1].power

    def test_guide_scale_substructure_is_merged(self):
        x = np.linspace(-300, 300, 6001)
        comb = np.cos(np.pi * x / 10.0) ** 2
        w = np.exp(-2 * (x / 60.0) ** 2) * comb
        packets = packet_census(x, w, merge_radius=20.0)
        assert len(packets) == 1
        assert packets[0].center == pytest.approx(0.0, abs=0.5)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ParameterError):
            packet_census(np.arange(4.0), np.ones(4), threshold=1.5)

    def test_piecewise_linear_field_is_integrated_exactly(self):
        # a field whose kinks sit on samples is its own piecewise-linear
        # interpolant, so power and centroid are exact between its level
        # crossings at -7.5 and 25.75, which fall between samples
        def field(x):
            return np.clip(np.minimum((x + 10) / 10, (31 - x) / 21), 0, 1)

        (packet,) = packet_census(np.arange(-40.0, 41.0),
                                  field(np.arange(-40.0, 41.0)),
                                  threshold=0.25)
        xf = np.linspace(-7.5, 25.75, 1_000_001)
        power = np.trapezoid(field(xf), xf)
        assert packet.power == pytest.approx(power, rel=1e-10)
        assert packet.center == pytest.approx(
            np.trapezoid(xf * field(xf), xf) / power, rel=1e-10)

    def test_packet_at_the_grid_end_stops_there(self):
        x = np.arange(10.0)
        w = np.array([1.0, 1.0, 1.0, 0.0, 0, 0, 0, 0, 0, 0])
        (packet,) = packet_census(x, w, threshold=0.5)
        # the flat [0, 2] (power 2, first moment 2) plus the ramp from 1 at
        # x = 2 down to the crossing at 2.5 (power 0.375, moment 5/6)
        assert packet.power == pytest.approx(2.375)
        assert packet.center == pytest.approx((2.0 + 5 / 6) / 2.375)


class TestVelocityTracking:
    @pytest.fixture(scope="class")
    def counter_moving(self):
        """A synthetic BPM trajectory of two packets moving at +-10 um/cm."""
        optics = OpticsParams()
        grid = TransverseGrid.for_cells(optics, n_cells=60, n_points=2048)
        x = grid.x_um
        zs = np.linspace(0.0, 10.0, 11)
        frames = np.array([np.exp(-2 * ((x - 30 - 10 * z) / 20.0) ** 2)
                           + np.exp(-2 * ((x + 30 + 10 * z) / 20.0) ** 2)
                           for z in zs])
        traj = BpmTrajectory(zs, np.sqrt(frames).astype(complex), grid,
                             np.zeros(len(zs)))
        return traj, bands_for_grid(optics, grid, n_plane_waves=41,
                                    n_bands=2)

    def test_counter_moving_pair(self, counter_moving):
        traj, bands = counter_moving
        obs = observables_series(traj, bands, merge_radius=15.0)
        vels = sorted(p.velocity for p in obs[-1].packets)
        assert len(vels) == 2
        assert vels[0] == pytest.approx(-10.0, abs=0.5)
        assert vels[1] == pytest.approx(+10.0, abs=0.5)
        assert all(p.velocity is None for row in obs[:-1] for p in row.packets)

    def test_series_takes_one_census_per_snapshot(self, counter_moving,
                                                  monkeypatch):
        traj, bands = counter_moving
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return packet_census(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "packet_census", counted)
        obs = observables_series(traj, bands, merge_radius=15.0)
        assert len(calls) == len(traj.z) == len(obs)


class TestCensusSampling:
    """The census of one beam envelope, exp(-2 u^2) with u = (x - x0) / W,
    moving across fig5's window (82 cells) at strides 1, 2 and 4 of its
    8192-point sampling, against the envelope's exact centre.  The census
    reads the band-limited field on the same 16384 points whatever the
    stride, so one bound at that spacing holds for all three."""

    W_UM = 80.0  # the fig5 launch width w0
    V_UM_PER_CM = 16.3
    ZS = np.arange(11) * 0.6  # fig5's snapshots, every 1200 steps of 5e-4 cm

    def centroid_bound(self, h, threshold=0.1):
        """Worst census centroid error at sample spacing h, to order h^2.

        The linear interpolant is within h^2/8 max|w''| = h^2 / (2 W^2) of
        the envelope.  Inside the packet, |u| < u_c at the crossing, that
        moves the first moment about the centre by at most that times r^2
        (r = u_c W).  Each interpolated crossing moves by at most that error
        over the slope |w'| = 4 u_c t / W there, carrying the level t at the
        lever arm r: 2 t r W / (4 u_c t) = W^2 / 2 for both.  Dividing by
        the packet power M0 gives the bound.
        """
        w = self.W_UM
        u_c = math.sqrt(math.log(1 / threshold) / 2)
        m0 = w * math.sqrt(math.pi / 2) * math.erf(math.sqrt(2) * u_c)
        return h**2 / (2 * w**2) * ((u_c * w) ** 2 + w**2 / 2) / m0

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_centroids_and_velocity_within_the_sampling_bound(self, optics,
                                                              stride):
        fine = TransverseGrid.for_cells(optics, n_cells=82, n_points=8192)
        grid = TransverseGrid.for_cells(optics, n_cells=82,
                                        n_points=8192 // stride)
        assert np.array_equal(grid.x_um, fine.x_um[::stride])
        centres = -40.0 + self.V_UM_PER_CM * self.ZS  # off the sample lattice
        frames = np.exp(-2 * ((grid.x_um - centres[:, None]) / self.W_UM)
                        ** 2)
        traj = BpmTrajectory(self.ZS, np.sqrt(frames).astype(complex), grid,
                             np.zeros(len(self.ZS)))
        obs = observables_series(traj, bands_for_grid(
            optics, grid, n_plane_waves=41, n_bands=2))
        eps = self.centroid_bound(grid.width_um / 16384)
        for row, centre in zip(obs, centres):
            (packet,) = row.packets
            assert abs(packet.center - centre) <= eps
        # the velocity is the least-squares slope over the last n_fit = 5
        # snapshots; centroid errors within eps move it by at most
        # eps sum|z - zbar| / sum (z - zbar)^2
        dz = self.ZS[-5:] - self.ZS[-5:].mean()
        assert (abs(obs[-1].packets[0].velocity - self.V_UM_PER_CM)
                <= eps * np.abs(dz).sum() / (dz**2).sum())


class TestInterpolatedCensus:
    @pytest.mark.parametrize("n", [2048, 1021, 9])
    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_interpolant_passes_through_the_samples(self, n, m):
        rng = np.random.default_rng(n + m)
        field = rng.normal(size=n) + 1j * rng.normal(size=n)
        fine = diagnostics._interpolated_intensity(field, m)
        assert fine.shape == (n * m,)
        samples = np.abs(field) ** 2
        assert np.max(np.abs(fine[::m] - samples)) <= 1e-12 * samples.max()

    @pytest.mark.parametrize("n", [2048, 1021])
    def test_interpolant_keeps_the_power(self, optics, n):
        grid = TransverseGrid.for_cells(optics, n_cells=82, n_points=n)
        field = gaussian_tilted_input(80.0, bragg_angle(optics) / 2, optics,
                                      grid).envelope
        coarse = np.sum(np.abs(field) ** 2)
        for m in (2, 8):
            fine = diagnostics._interpolated_intensity(field, m)
            assert np.sum(fine) / m == pytest.approx(coarse, rel=1e-12)

    def test_prime_grid_runs_through_the_series(self, optics):
        grid = TransverseGrid.for_cells(optics, n_cells=41, n_points=1021)
        zs = np.linspace(0.0, 1.0, 3)
        centres = -20.0 + 30.0 * zs
        frames = np.exp(-2 * ((grid.x_um - centres[:, None]) / 80.0) ** 2)
        traj = BpmTrajectory(zs, np.sqrt(frames).astype(complex), grid,
                             np.zeros(len(zs)))
        obs = observables_series(traj, bands_for_grid(
            optics, grid, n_plane_waves=41, n_bands=2))
        for row, centre in zip(obs, centres):
            (packet,) = row.packets
            assert packet.center == pytest.approx(centre, abs=1e-6)
        assert obs[-1].packets[0].velocity == pytest.approx(30.0, abs=1e-5)


class TestGroupVelocityOracle:
    def test_lattice_packet_follows_band_slope(self, params):
        # finite-difference group-velocity oracle against a transported packet
        from bentlattice.tight_binding import (Boundary, evolve_gauged,
                                               gaussian_packet_state)
        big = SuperlatticeParams(2.0, 1.817, n_sites=256)
        q0 = big.q_from_qa(0.2 * np.pi)
        packet = gaussian_packet_state(q0, 20.0, big, center_site=-40.0)
        traj = evolve_gauged(packet, big, DriveProfile.straight(), 6.0,
                             dz=0.002, boundary=Boundary.PERIODIC)
        sites = big.sites.astype(float)
        x_um = sites * big.spacing_um
        c0 = centroid(x_um, np.abs(traj.states[0]) ** 2)
        c1 = centroid(x_um, np.abs(traj.states[-1]) ** 2)
        measured_um_per_cm = (c1 - c0) / 6.0
        h = 1e-6
        fd = (dispersion(q0 + h, big)[0] - dispersion(q0 - h, big)[0]) / (2 * h)
        fd_um_per_cm = fd / CM_PER_UM
        assert measured_um_per_cm == pytest.approx(fd_um_per_cm, rel=0.02)
