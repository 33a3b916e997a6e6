import numpy as np
import pytest

from bentlattice import (Branch, DriveProfile, OpticsParams,
                         SuperlatticeParams)
from bentlattice.bpm import (FieldGrid, TransverseGrid, bragg_angle,
                             gaussian_tilted_input)
from bentlattice.diagnostics import (band_amplitudes, band_populations,
                                     bands_for_grid, centroid,
                                     lattice_transition_probability,
                                     miniband_transition_fraction,
                                     packet_census, project_onto_band,
                                     second_moment, track_packets)
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
        share = 1.0 - miniband_transition_fraction(field, window_bands)
        assert share > 0.9
        pops = band_populations(field, window_bands, 2)
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
        from bentlattice.diagnostics import lattice_band_amplitudes
        qa, r_minus, r_plus = lattice_band_amplitudes(state, params)
        recovered = np.sum(np.abs(r_minus) ** 2 + np.abs(r_plus) ** 2)
        assert recovered == pytest.approx(state.power, rel=1e-12)

    def test_band_amplitudes_match_per_q_loop(self, params):
        from bentlattice.diagnostics import lattice_band_amplitudes
        from bentlattice.tight_binding import (sublattice_transform,
                                               to_sublattice_pairs)
        rng = np.random.default_rng(3)
        amps = (rng.standard_normal(params.n_sites)
                + 1j * rng.standard_normal(params.n_sites))
        state = ModeVector(amps, Gauge.GAUGED, 0.0)
        qa, r_minus, r_plus = lattice_band_amplitudes(state, params)
        # the zone edge is on the momentum grid, where the fixed
        # eigenvector convention applies
        assert np.pi / 2 in qa
        pairs = to_sublattice_pairs(amps, sublattice_transform(params)[1])
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
        from bentlattice.diagnostics import lattice_band_amplitudes
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

        # each snapshot taken to the gauged frame and projected on its own
        def upper_fraction(i):
            snapshot = ModeVector(traj.states[i], gauge, float(traj.z[i]))
            _, r_minus, r_plus = lattice_band_amplitudes(
                gauge_transform(snapshot, drive, Gauge.GAUGED), params)
            pm, pp = np.sum(np.abs(r_minus) ** 2), np.sum(np.abs(r_plus) ** 2)
            return pp / (pm + pp)

        looped = [upper_fraction(i) for i in range(len(traj.z))]
        assert batched.shape == (len(traj.z),)
        assert np.max(np.abs(batched - looped)) < 1e-14
        assert np.max(batched) > 1e-3  # the drive moved power upwards

    def test_q_resolved_trajectory_rejected(self, params, single_cycle_b):
        from bentlattice.tight_binding import evolve_gauged
        state = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                                 params)
        traj = evolve_gauged(state, params, single_cycle_b, 0.1,
                             snapshot_every=50)
        with pytest.raises(ParameterError, match="q_resolved"):
            lattice_transition_probability(traj, params, q_resolved=True)
        # a single snapshot still resolves in q
        final = ModeVector(traj.states[-1], Gauge.GAUGED, float(traj.z[-1]))
        qa, pq, weights = lattice_transition_probability(final, params,
                                                         q_resolved=True)
        assert qa.shape == pq.shape == weights.shape == (params.n_sites // 2,)

    def test_band_amplitudes_reject_closed_gap(self):
        from bentlattice.diagnostics import lattice_band_amplitudes
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


class TestVelocityTracking:
    def test_counter_moving_pair(self):
        x = np.linspace(-300, 300, 3001)
        zs = np.linspace(0.0, 5.0, 6)
        frames = [np.exp(-2 * ((x - 30 - 10 * z) / 20.0) ** 2)
                  + np.exp(-2 * ((x + 30 + 10 * z) / 20.0) ** 2)
                  for z in zs]
        packets = track_packets(zs, x, np.array(frames), merge_radius=15.0)
        vels = sorted(p.velocity for p in packets if p.velocity is not None)
        assert len(vels) == 2
        assert vels[0] == pytest.approx(-10.0, abs=0.5)
        assert vels[1] == pytest.approx(+10.0, abs=0.5)


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
