import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bentlattice import (AccuracyError, Branch, DegenerateGapError,
                         DriveProfile, Gauge, ParameterError,
                         SuperlatticeParams)
from bentlattice import drive as drv
from bentlattice.tight_binding import (Boundary, ModeVector,
                                       bloch_eigenvector, bloch_mode_state,
                                       dispersion, evolve_bare, evolve_gauged,
                                       from_sublattice_pairs, gauge_transform,
                                       gaussian_packet_state, group_velocity,
                                       sublattice_momenta,
                                       to_sublattice_pairs)
from bentlattice.two_level import evolve as tl_evolve
from bentlattice.two_level import ground_state
from bentlattice.diagnostics import (lattice_band_amplitudes,
                                     lattice_transition_probability)


def cell_matrix(qa, phi, params):
    """Sublattice-pair generator, assembled directly from the model."""
    off = -2 * params.sigma_cm * np.cos(qa - phi)
    return np.array([[params.delta_cm, off], [off, -params.delta_cm]])


class TestDispersion:
    def test_gap_edge(self, params):
        lo, hi = dispersion(params.q_from_qa(np.pi / 2), params)
        assert hi == pytest.approx(1.817, abs=1e-12)
        assert lo == pytest.approx(-1.817, abs=1e-12)

    def test_zone_center(self, params):
        lo, hi = dispersion(0.0, params)
        assert hi == pytest.approx(4.393345991382878, rel=1e-12)

    def test_quarter_zone(self, params, q_quarter):
        lo, hi = dispersion(q_quarter, params)
        assert hi == pytest.approx(3.361768730891523, rel=1e-12)
        assert lo == -hi


class TestBlochEigenvector:
    @pytest.mark.parametrize("qa", [-1.2, -0.3, 0.0, 0.4, np.pi / 4, 1.5])
    def test_unit_norm_and_orthogonality(self, params, qa):
        q = params.q_from_qa(qa)
        vm = bloch_eigenvector(q, Branch.MINUS, params)
        vp = bloch_eigenvector(q, Branch.PLUS, params)
        assert np.linalg.norm(vm) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(vp) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.dot(vm, vp)) < 1e-14

    def test_eigen_residual(self, params, q_quarter):
        t0 = cell_matrix(np.pi / 4, 0.0, params)
        lo, hi = dispersion(q_quarter, params)
        for branch, omega in ((Branch.MINUS, lo), (Branch.PLUS, hi)):
            v = bloch_eigenvector(q_quarter, branch, params)
            assert np.linalg.norm(t0 @ v - omega * v) < 1e-12

    def test_gap_edge_convention(self, params):
        q = params.q_from_qa(np.pi / 2)
        assert np.allclose(bloch_eigenvector(q, Branch.MINUS, params), [0, 1])
        assert np.allclose(bloch_eigenvector(q, Branch.PLUS, params), [1, 0])

    def test_gap_edge_massless_rejected(self):
        massless = SuperlatticeParams(2.0, 0.0)
        from bentlattice import DegenerateGapError
        with pytest.raises(DegenerateGapError):
            bloch_eigenvector(massless.q_from_qa(np.pi / 2), Branch.MINUS,
                              massless)


    @settings(max_examples=60, deadline=None)
    @given(exponent=st.floats(-15.0, -1.0), side=st.sampled_from([-1, 1]),
           branch=st.sampled_from(list(Branch)))
    @example(exponent=-10.0, side=-1, branch=Branch.PLUS)
    def test_eigenvector_near_gap_edge(self, exponent, side, branch):
        params = SuperlatticeParams(2.0, 1.817)
        # w - delta cancels to 0 a hair off qa = pi/2 unless it is written
        # as 4 sigma^2 cos^2 qa / (w + delta)
        q = (np.pi / 2 + side * 10.0**exponent) / params.spacing_cm
        v = bloch_eigenvector(q, branch, params)
        lo, hi = dispersion(q, params)
        omega = hi if branch is Branch.PLUS else lo
        h = cell_matrix(q * params.spacing_cm, 0.0, params)
        assert np.all(np.isfinite(v))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        assert np.linalg.norm(h @ v - omega * v) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(qa=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=12),
           delta=st.sampled_from([0.0, 0.3, 1.817]),
           branch=st.sampled_from(list(Branch)))
    @example(qa=[np.pi / 2, np.pi / 2 + 1e-15, np.pi / 2 - 1e-15,
                 -np.pi / 2 + 1e-15, -np.pi / 2 - 1e-15, np.pi / 4],
             delta=1.817, branch=Branch.MINUS)
    @example(qa=[np.pi / 2, -np.pi / 2 - 1e-15, 0.3], delta=1.817,
             branch=Branch.PLUS)
    @example(qa=[0.3, np.pi / 2 + 1e-15], delta=0.0, branch=Branch.PLUS)
    # cos(qa)**2 here rounds one ulp apart as a numpy scalar (libm pow)
    # and inside an array (c * c), and the eigenvector with it
    @example(qa=[2.5843438431613803, 0.3], delta=1.817, branch=Branch.MINUS)
    def test_array_equals_scalar_calls(self, qa, delta, branch):
        # one implementation: an array of q gives, column by column, the
        # bits of separate scalar calls, the gap-edge convention and the
        # closed-gap error included
        lattice = SuperlatticeParams(2.0, delta)
        q = np.array(qa) / lattice.spacing_cm
        try:
            columns = [bloch_eigenvector(float(q_i), branch, lattice)
                       for q_i in q]
        except DegenerateGapError:
            with pytest.raises(DegenerateGapError):
                bloch_eigenvector(q, branch, lattice)
            return
        vectors = bloch_eigenvector(q, branch, lattice)
        assert vectors.shape == (2, len(q))
        assert all(column.shape == (2,) for column in columns)
        assert vectors.tobytes() == np.stack(columns, axis=1).tobytes()


def dense_pair_transform(params):
    """Momenta and the (n, n) unitary of the pair layout, written out site
    by site: row k gives s1(qa_k) from the A sites (even l), row n/2 + k
    gives s2(qa_k) from the B sites."""
    n, l = params.n_sites, params.sites
    qa = 2 * np.pi * np.arange(n // 2) / n
    qa = np.where(qa > np.pi / 2, qa - np.pi, qa)
    wave = np.exp(-1j * np.outer(qa, l)) / np.sqrt(n // 2)
    return qa, np.concatenate([wave * (l % 2 == 0), wave * (l % 2 != 0)])


def packet_reference(q0, width_sites, params, branch, center_site):
    """Gaussian packet summed mode by mode over the sites."""
    n, l = params.n_sites, params.sites
    qa0 = q0 * params.spacing_cm
    sig_qa = 2.0 / width_sites
    amps = np.zeros(n, dtype=complex)
    for j in range(-n // 2, n // 2):
        qa = qa0 + 2 * np.pi * j / n
        weight = np.exp(-((qa - qa0) / sig_qa) ** 2)
        if not weight < 1e-16:
            v = bloch_eigenvector(qa / params.spacing_cm, branch, params)
            amps += (weight * np.exp(-1j * qa * center_site)
                     * np.where(l % 2 == 0, v[0], v[1]) * np.exp(1j * qa * l))
    return amps / np.linalg.norm(amps)


class TestSublatticePairs:
    # n/2 odd puts a B site first; 10, 12 and 1000 are no powers of 2
    @pytest.mark.parametrize("n_sites", [4, 6, 8, 10, 12, 128, 1000])
    def test_pairs_hold_s1_and_s2_per_momentum(self, n_sites):
        # (s1, s2) of momentum qa: the A and B sites' Fourier sums
        lattice = SuperlatticeParams(2.0, 1.817, n_sites=n_sites)
        qa, dense = dense_pair_transform(lattice)
        assert sublattice_momenta(lattice).tobytes() == qa.tobytes()
        rng = np.random.default_rng(5)
        shape = (2, 3, n_sites)
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        pairs = to_sublattice_pairs(amps, lattice)
        assert pairs.shape == (2, 3, n_sites // 2, 2)
        ref = amps @ dense.T
        ref = np.stack([ref[..., :n_sites // 2], ref[..., n_sites // 2:]], -1)
        # the dense phases exp(-i qa l) round by eps |qa l| <= eps pi n / 4
        # per term, over n/2 terms of size max|a| / sqrt(n/2)
        eps, top = np.finfo(float).eps, np.max(np.abs(amps))
        assert np.max(np.abs(pairs - ref)) < eps * n_sites**1.5 * top
        assert np.sum(np.abs(pairs) ** 2, axis=(-2, -1)) == pytest.approx(
            np.sum(np.abs(amps) ** 2, axis=-1), rel=1e-13)
        back = from_sublattice_pairs(pairs, lattice)
        assert back.shape == amps.shape
        assert np.max(np.abs(back - amps)) < 64 * eps * top

    def test_large_chain_needs_no_dense_matrix(self):
        # a dense (n, n) pair transform would take n^2 16 B = 1 GiB here;
        # the run holds a few arrays of its snapshots (the stepped pairs,
        # their inverse FFT and the trajectory) and block arrays of fixed
        # size, so its peak stays within a small multiple of them
        big = SuperlatticeParams(2.0, 1.817, n_sites=8192)
        drive = DriveProfile.from_phase_amplitude("sinusoidal", 0.4, 2.8556)
        state = gaussian_packet_state(big.q_from_qa(np.pi / 4), 64.0, big)
        dz = drive.period_cm / 2000
        tracemalloc.start()
        try:
            traj = evolve_gauged(state, big, drive, 32 * dz, dz=dz,
                                 snapshot_every=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (9, 8192)
        assert peak < 8 * traj.states.nbytes < big.n_sites**2 * 16 / 100


class TestGaussianPacket:
    @pytest.mark.parametrize("branch", [Branch.MINUS, Branch.PLUS])
    @pytest.mark.parametrize("n_sites", [6, 10, 44, 52, 64, 1000])
    def test_matches_per_mode_sum(self, n_sites, branch):
        # at 44 and 52 sites 2 pi (n/4) / n rounds below and above pi/2, so
        # the zone-edge pair sits on either side of the fold
        lattice = SuperlatticeParams(2.0, 1.817, n_sites=n_sites)
        tol = 8 * np.finfo(float).eps * n_sites  # rounding of exp(i qa l)
        for qa0 in (0.3, np.pi / 4, -2.9):
            for width in (1.0, 6.0):
                for center in (0.0, -n_sites / 2, n_sites / 2 - 0.5):
                    q0 = lattice.q_from_qa(qa0)
                    packet = gaussian_packet_state(q0, width, lattice, branch,
                                                   center)
                    ref = packet_reference(q0, width, lattice, branch, center)
                    assert np.max(np.abs(packet.amplitudes - ref)) < tol

    @pytest.mark.parametrize("center", [-33.0, -32.5, 32.0, 100.0, 1e9,
                                        math.inf, math.nan])
    def test_center_off_the_chain_is_rejected(self, center):
        # sites run from -32 to 31; a centre beyond them would wrap round
        lattice = SuperlatticeParams(2.0, 1.817, n_sites=64)
        q0 = lattice.q_from_qa(np.pi / 4)
        with pytest.raises(ParameterError, match="off the 64-site chain"):
            gaussian_packet_state(q0, 8.0, lattice, center_site=center)

    @pytest.mark.parametrize("width", [1e200, 1e308])
    def test_overflowing_width_is_the_bloch_mode(self, params, width):
        # the plane-wave limit, with no numpy overflow warning
        q0 = params.q_from_qa(0.3)
        packet = gaussian_packet_state(q0, width, params)
        mode = bloch_mode_state(q0, Branch.MINUS, params)
        assert np.max(np.abs(packet.amplitudes - mode.amplitudes)) < 1e-15

    @pytest.mark.parametrize("qa0, width, on_edge", [
        (np.pi / 4, 2.0, True), (-np.pi / 4, 2.0, True),
        (np.pi / 4, 40.0, False), (0.3, 2.0, False)])
    def test_gapless_packet_fails_only_on_a_kept_edge_mode(self, qa0, width,
                                                           on_edge):
        # qa0 + 2 pi j / n hits the zone edge at j = +-8; a wide packet
        # gives that mode a weight below the cut, so it is never evaluated
        gapless = SuperlatticeParams(2.0, 0.0, n_sites=64)
        q0 = gapless.q_from_qa(qa0)
        kappa = 2 * np.pi * np.arange(-32, 32) / 64
        kept = ~(np.exp(-(kappa * width / 2) ** 2) < 1e-16)
        assert np.any(np.abs(np.cos(qa0 + kappa[kept])) < 1e-14) == on_edge
        if on_edge:
            with pytest.raises(DegenerateGapError):
                gaussian_packet_state(q0, width, gapless)
        else:
            packet = gaussian_packet_state(q0, width, gapless)
            ref = packet_reference(q0, width, gapless, Branch.MINUS, 0.0)
            assert np.max(np.abs(packet.amplitudes - ref)) < 1e-13


class TestStraightEvolution:
    def test_bloch_mode_is_stationary(self, params, q_quarter):
        state = bloch_mode_state(q_quarter, Branch.MINUS, params)
        straight = DriveProfile.straight()
        traj = evolve_gauged(state, params, straight, z_end=2.0, dz=0.002)
        assert np.max(np.abs(np.abs(traj.states[-1]) - np.abs(state.amplitudes))) < 1e-10

    def test_phase_rate_matches_dispersion(self, params):
        # dispersion-consistency: extracted phase rate of a Bloch mode
        q = params.q_from_qa(0.31)
        state = bloch_mode_state(q, Branch.MINUS, params)
        straight = DriveProfile.straight()
        z_end = 0.5  # short enough that the accumulated phase does not wrap
        traj = evolve_gauged(state, params, straight, z_end=z_end, dz=0.001)
        ratio = traj.states[-1] / state.amplitudes
        rate = np.angle(ratio[params.n_sites // 2]) / z_end
        omega_minus = dispersion(q, params)[0]
        assert rate == pytest.approx(-omega_minus, rel=1e-8)

    def test_gauges_agree_for_straight_axis(self, params, q_quarter):
        straight = DriveProfile.straight()
        gauged = bloch_mode_state(q_quarter, Branch.MINUS, params, Gauge.GAUGED)
        bare = bloch_mode_state(q_quarter, Branch.MINUS, params, Gauge.BARE)
        t1 = evolve_gauged(gauged, params, straight, z_end=0.7, dz=0.001,
                           boundary=Boundary.PERIODIC)
        t2 = evolve_bare(bare, params, straight, z_end=0.7, dz=0.001,
                         boundary=Boundary.PERIODIC)
        assert np.max(np.abs(t1.states[-1] - t2.states[-1])) < 1e-13


def per_stage_reference(state, params, profile, z_end, dz, boundary):
    """Plain RK4 loop: drv.force or drv.phase evaluated at every stage's z,
    neighbours from np.roll."""
    sigma = params.sigma_cm
    onsite = params.sublattice_sign * params.delta_cm
    l = params.sites.astype(float)

    def rhs(z, c):
        up, dn = np.roll(c, -1), np.roll(c, 1)
        if boundary is Boundary.HARD_WALL:
            up[-1] = dn[0] = 0.0
        if state.gauge is Gauge.BARE:
            return -1j * (-sigma * (up + dn) + onsite * c
                          + drv.force(profile, z) * l * c)
        ph = np.exp(-1j * drv.phase(profile, z))
        return -1j * (-sigma * ph * up - sigma * np.conj(ph) * dn
                      + onsite * c)

    n = int(round((z_end - state.z) / dz))
    h = (z_end - state.z) / n
    y = state.amplitudes.astype(complex)
    for i in range(n):
        z = state.z + i * h
        k1 = rhs(z, y)
        k2 = rhs(z + h / 2, y + h / 2 * k1)
        k3 = rhs(z + h / 2, y + h / 2 * k2)
        k4 = rhs(z + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def magnus_reference(state, params, profile, z_end, dz):
    """Periodic gauged chain stepped by a per-step scipy ``expm`` of the
    fourth-order Magnus exponent -i h (H0 + 4 H1 + H2)/6 - h^2 [H2, H0]/12
    of the full (n, n) site Hamiltonian at each step's start, middle and
    end."""
    sigma = params.sigma_cm
    n = params.n_sites
    up = np.roll(np.eye(n), 1, axis=1)      # (up @ c)_l = c_{l+1}

    def hamiltonian(z):
        ph = np.exp(-1j * drv.phase(profile, z))
        return (np.diag(params.sublattice_sign * params.delta_cm)
                - sigma * ph * up - sigma * np.conj(ph) * up.T)

    steps = int(round((z_end - state.z) / dz))
    h = (z_end - state.z) / steps
    y = state.amplitudes.astype(complex)
    for i in range(steps):
        z = state.z + i * h
        h0, h1, h2 = (hamiltonian(z + t) for t in (0.0, h / 2, h))
        y = expm(-1j * h / 6 * (h0 + 4 * h1 + h2)
                 - h**2 / 12 * (h2 @ h0 - h0 @ h2)) @ y
    return y


class TestHalfStepSamples:
    @pytest.mark.parametrize("gauge, boundary, evolver", [
        (Gauge.BARE, Boundary.HARD_WALL, evolve_bare),
        (Gauge.GAUGED, Boundary.HARD_WALL, evolve_gauged),
        (Gauge.GAUGED, Boundary.PERIODIC, evolve_gauged),
    ], ids=["bare_hard_wall", "gauged_hard_wall", "gauged_periodic"])
    def test_matches_per_stage_reference(self, gauge, boundary, evolver):
        # 1400 steps span six sample blocks, the last one short
        params = SuperlatticeParams(2.0, 1.817, n_sites=32)
        drive = DriveProfile.from_phase_amplitude("sinusoidal", 1.0, 0.5)
        state = gaussian_packet_state(params.q_from_qa(np.pi / 4), 4.0,
                                      params, gauge=gauge)
        traj = evolver(state, params, drive, 0.7, dz=5e-4,
                       snapshot_every=None, boundary=boundary)
        # hard walls step RK4 on the gauged sites, periodic chains Magnus
        # per q; Phi(0) = 0, so the gauged input has the same amplitudes
        gauged = ModeVector(state.amplitudes, Gauge.GAUGED, state.z)
        ref = (per_stage_reference(gauged, params, drive, 0.7, 5e-4, boundary)
               if boundary is Boundary.HARD_WALL
               else magnus_reference(gauged, params, drive, 0.7, 5e-4))
        if gauge is Gauge.BARE:
            # a bare run is the gauge image c_l = a_l exp(-i Phi l)
            ref = ref * np.exp(-1j * drv.phase(drive, traj.z[-1])
                               * params.sites)
        assert len(traj.z) == 2
        assert np.max(np.abs(traj.final.amplitudes - ref)) < 1e-13


class TestBlochPath:
    # periodic runs step each Bloch momentum on the composed two-level maps;
    # the site-space reference steps the whole chain by matrix exponentials
    @settings(max_examples=12, deadline=None)
    @given(n_sites=st.sampled_from(range(4, 33, 2)),
           delta=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           kind=st.sampled_from(["sinusoidal", "single_cycle"]),
           phi0=st.floats(0.0, 6.0),
           n_steps=st.one_of(st.integers(1, 40), st.integers(2040, 2060)),
           stride=st.integers(1, 3000),
           seed=st.integers(0, 2**32 - 1))
    @example(n_sites=6, delta=1.817, kind="single_cycle", phi0=6.0,
             n_steps=2049, stride=2048, seed=1)
    @example(n_sites=8, delta=0.0, kind="sinusoidal", phi0=3.0,
             n_steps=2048, stride=5, seed=3)
    @example(n_sites=32, delta=1.817, kind="sinusoidal", phi0=1.0,
             n_steps=2050, stride=7, seed=2)
    def test_matches_per_stage_reference(self, n_sites, delta, kind, phi0,
                                         n_steps, stride, seed):
        params = SuperlatticeParams(2.0, delta, n_sites=n_sites)
        drive = DriveProfile.from_phase_amplitude(kind, phi0, 0.6676)
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(n_sites) + 1j * rng.standard_normal(n_sites)
        state = ModeVector(amps / np.linalg.norm(amps), Gauge.GAUGED, 0.0)
        dz = 0.6676 / 2000
        z_end = n_steps * dz
        traj = evolve_gauged(state, params, drive, z_end, dz=dz,
                             snapshot_every=stride,
                             boundary=Boundary.PERIODIC)
        steps = sorted({*range(0, n_steps + 1, stride), n_steps})
        assert np.array_equal(traj.z, np.array(steps) * (z_end / n_steps))
        assert np.array_equal(traj.states[0], state.amplitudes)
        ref = magnus_reference(state, params, drive, z_end, dz)
        assert np.max(np.abs(traj.final.amplitudes - ref)) < 1e-12
        # the first snapshot inside the run, against the reference run to it
        if len(steps) > 2:
            ref = magnus_reference(state, params, drive, traj.z[1],
                                   traj.z[1] / steps[1])
            assert np.max(np.abs(traj.states[1] - ref)) < 1e-12


class TestUnitarity:
    def test_power_conserved_over_resonant_run(self, params, resonant_drive):
        state = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                                 params)
        traj = evolve_gauged(state, params, resonant_drive,
                             z_end=10 * resonant_drive.period_cm,
                             snapshot_every=500)
        power = traj.power()
        assert np.max(np.abs(power / power[0] - 1.0)) < 1e-9

    def test_coarse_step_raises(self, params):
        small = SuperlatticeParams(2.0, 1.817, n_sites=8)
        state = bloch_mode_state(small.q_from_qa(np.pi / 4), Branch.MINUS, small)
        straight = DriveProfile.straight()
        with pytest.raises(AccuracyError, match="dz"):
            evolve_gauged(state, small, straight, z_end=150.0, dz=0.5)


class TestGaugeTransform:
    def test_identity_at_zero_phase(self, params, resonant_drive):
        state = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                                 params)
        state.z = resonant_drive.period_cm  # Phi(multiple of the period) = 0
        mapped = gauge_transform(state, resonant_drive, Gauge.BARE)
        assert np.max(np.abs(mapped.amplitudes - state.amplitudes)) < 1e-12

    def test_round_trip(self, params, resonant_drive):
        state = gaussian_packet_state(params.q_from_qa(np.pi / 4), 10.0, params)
        state.z = 0.37
        there = gauge_transform(state, resonant_drive, Gauge.BARE)
        back = gauge_transform(there, resonant_drive, Gauge.GAUGED)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-15

    def test_pure_phase(self, params, resonant_drive):
        state = gaussian_packet_state(params.q_from_qa(np.pi / 4), 10.0, params)
        state.z = 0.81
        mapped = gauge_transform(state, resonant_drive, Gauge.BARE)
        assert np.max(np.abs(np.abs(mapped.amplitudes)
                             - np.abs(state.amplitudes))) < 1e-15


class TestTranslationSymmetry:
    def test_plane_wave_stays_plane_wave(self, params, single_cycle_b):
        # the gauged equation is invariant under two-site translation, so a
        # Bloch input keeps its exact plane-wave form under any drive
        q = params.q_from_qa(np.pi / 4)
        state = bloch_mode_state(q, Branch.MINUS, params)
        traj = evolve_gauged(state, params, single_cycle_b,
                             z_end=single_cycle_b.period_cm,
                             boundary=Boundary.PERIODIC)
        final = traj.states[-1]
        qa = np.pi / 4
        # a_{l+2} = a_l e^{2iqa} site by site (the periodic roll keeps the
        # seam consistent because qa n_sites is a multiple of 2 pi)
        mismatch = np.abs(np.roll(final, -2) - final * np.exp(2j * qa))
        assert np.max(mismatch) < 1e-9


class TestGaugeEquivalence:
    def test_bare_matches_gauged_sitewise(self, params):
        # smooth drive, and a step small enough for the stiff site-linear
        # bare term; the plain RK4 loop on the bare equation, F(z) l c_l
        # and all, then agrees with the gauged run site by site
        drive = DriveProfile.from_phase_amplitude("sinusoidal", 0.4, 2.8556)
        big = SuperlatticeParams(2.0, 1.817, n_sites=64)
        q = big.q_from_qa(np.pi / 4)
        packet_g = gaussian_packet_state(q, 8.0, big, gauge=Gauge.GAUGED)
        packet_b = packet_g.amplitudes.copy()  # Phi(0) = 0: same amplitudes
        bare0 = ModeVector(packet_b, Gauge.BARE, 0.0)
        z_end = 1.0
        c_end = per_stage_reference(bare0, big, drive, z_end,
                                    2.8556 / 16000, Boundary.HARD_WALL)
        tb_gauged = evolve_gauged(packet_g, big, drive, z_end,
                                  dz=2.8556 / 16000,
                                  boundary=Boundary.HARD_WALL)
        mapped = gauge_transform(ModeVector(c_end, Gauge.BARE, z_end), drive,
                                 Gauge.GAUGED)
        assert np.max(np.abs(mapped.amplitudes
                             - tb_gauged.final.amplitudes)) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(n_sites=st.integers(8, 32).map(lambda k: 2 * k),
           phi0=st.floats(0.0, 1.0), period=st.floats(1.0, 3.0),
           qa=st.floats(-np.pi / 2, np.pi / 2), width=st.floats(2.0, 6.0),
           stride=st.integers(1, 1000))
    @example(n_sites=64, phi0=1.0, period=1.0, qa=-np.pi / 2, width=6.0,
             stride=1)
    def test_bare_snapshots_map_onto_the_gauged_run(self, n_sites, phi0,
                                                     period, qa, width,
                                                     stride):
        # the bare and gauged hard-wall equations are one model in two
        # gauges, so gauge_transform carries every bare snapshot onto the
        # gauged run, and the projection maps bare snapshots alike; the bare
        # site-linear term F l reaches 2 pi phi0 / period * n_sites / 2 =
        # 200 /cm
        params = SuperlatticeParams(2.0, 1.817, n_sites=n_sites)
        drive = DriveProfile.from_phase_amplitude("sinusoidal", phi0, period)
        packet = gaussian_packet_state(params.q_from_qa(qa), width, params,
                                       gauge=Gauge.GAUGED)
        bare0 = ModeVector(packet.amplitudes.copy(), Gauge.BARE, 0.0)
        kw = dict(dz=2.5e-4, snapshot_every=stride,
                  boundary=Boundary.HARD_WALL)
        bare = evolve_bare(bare0, params, drive, 0.25, **kw)
        gauged = evolve_gauged(packet, params, drive, 0.25, **kw)
        np.testing.assert_array_equal(bare.z, gauged.z)
        for z, c, a in zip(bare.z, bare.states, gauged.states):
            mapped = gauge_transform(ModeVector(c, Gauge.BARE, z), drive,
                                     Gauge.GAUGED)
            assert np.max(np.abs(mapped.amplitudes - a)) < 1e-6
        # the projection's own bare-to-gauged phase agrees, at every Phi(z)
        p_bare = lattice_transition_probability(bare, params, drive)
        p_gauged = lattice_transition_probability(gauged, params)
        assert np.max(np.abs(p_bare - p_gauged)) < 1e-6

    def test_single_cycle_bare_run_is_the_gauge_image(self, params):
        # the single-cycle force jumps at the cycle edge; a bare run steps
        # the gauged equation, which sees only the continuous phase, so
        # every bare snapshot is c_l = a_l exp(-i Phi(z) l) of the gauged
        # run at either step
        drive = DriveProfile.from_phase_amplitude("single_cycle", 0.4, 0.6676)
        big = SuperlatticeParams(2.0, 1.817, n_sites=64)
        q = big.q_from_qa(np.pi / 4)
        packet_g = gaussian_packet_state(q, 8.0, big, gauge=Gauge.GAUGED)
        bare0 = ModeVector(packet_g.amplitudes.copy(), Gauge.BARE, 0.0)
        for dz in (0.6676 / 2000, 0.6676 / 8000):
            kw = dict(dz=dz, snapshot_every=250, boundary=Boundary.HARD_WALL)
            tb_bare = evolve_bare(bare0, big, drive, 0.6676, **kw)
            tb_gauged = evolve_gauged(packet_g, big, drive, 0.6676, **kw)
            np.testing.assert_array_equal(tb_bare.z, tb_gauged.z)
            image = tb_gauged.states * np.exp(
                -1j * np.outer(drv.phase(drive, tb_gauged.z), big.sites))
            assert np.max(np.abs(tb_bare.states - image)) < 1e-13


class TestTwoLevelReduction:
    @pytest.mark.parametrize("drive_fixture,z_cycles", [
        ("resonant_drive", 10),
        ("single_cycle_b", 1),
    ])
    def test_plane_wave_occupations_match(self, params, request, drive_fixture,
                                          z_cycles):
        drive = request.getfixturevalue(drive_fixture)
        q = params.q_from_qa(np.pi / 4)
        state = bloch_mode_state(q, Branch.MINUS, params)
        z_end = z_cycles * drive.period_cm
        traj = evolve_gauged(state, params, drive, z_end,
                             snapshot_every=200)
        p_lattice = lattice_transition_probability(traj, params)
        ref = tl_evolve(ground_state(q, params), drive, params,
                        z_end=z_end, snapshot_every=200)
        assert traj.z == pytest.approx(ref.z, abs=1e-12)
        assert np.max(np.abs(p_lattice - ref.transition_probability)) < 1e-6

    def test_bare_packet_matches_two_level_per_q(self, params):
        # bare-gauge wave packet against the plane-wave reduction, resolved
        # at the packet's central momentum
        drive = DriveProfile.from_phase_amplitude("sinusoidal", 0.4, 2.8556)
        big = SuperlatticeParams(2.0, 1.817, n_sites=256)
        q0 = big.q_from_qa(np.pi / 4)
        from bentlattice.tight_binding import ModeVector
        packet = gaussian_packet_state(q0, 25.0, big, center_site=0.0)
        bare0 = ModeVector(packet.amplitudes.copy(), Gauge.BARE, 0.0)
        # two cycles keep the packet tails ~1e-9 at the hard walls, which
        # the 1e-6 comparison needs
        z_end = 2 * drive.period_cm
        dz = drive.period_cm / 16000
        traj = evolve_bare(bare0, big, drive, z_end, dz=dz,
                           boundary=Boundary.HARD_WALL)
        mapped = gauge_transform(traj.final, drive, Gauge.GAUGED)
        qa_values, r_minus, r_plus = lattice_band_amplitudes(mapped, big)
        pm, pp = np.abs(r_minus) ** 2, np.abs(r_plus) ** 2
        i0 = np.argmax(pm + pp)
        assert qa_values[i0] == pytest.approx(np.pi / 4, abs=1e-12)
        ref = tl_evolve(ground_state(qa_values[i0] / big.spacing_cm, big),
                        drive, big, z_end=z_end, dz=dz, snapshot_every=10**9)
        assert pp[i0] / (pm[i0] + pp[i0]) == pytest.approx(
            ref.transition_probability[-1], abs=1e-6)


class TestPacketTransport:
    def test_centroid_moves_at_group_velocity(self, params):
        big = SuperlatticeParams(2.0, 1.817, n_sites=256)
        q = big.q_from_qa(np.pi / 4)
        packet = gaussian_packet_state(q, 20.0, big, center_site=-40.0)
        straight = DriveProfile.straight()
        z_end = 6.0
        traj = evolve_gauged(packet, big, straight, z_end, dz=0.002,
                             boundary=Boundary.PERIODIC)
        sites = big.sites
        w0 = np.abs(traj.states[0]) ** 2
        w1 = np.abs(traj.states[-1]) ** 2
        drift_sites = (np.sum(sites * w1) / np.sum(w1)
                       - np.sum(sites * w0) / np.sum(w0))
        measured = drift_sites * big.spacing_cm / z_end
        # independent finite-difference group-velocity oracle
        h = 1e-6
        fd = (dispersion(q + h, big)[0] - dispersion(q - h, big)[0]) / (2 * h)
        assert measured == pytest.approx(fd, rel=0.02)


class TestValidation:
    def test_odd_sites_rejected(self):
        with pytest.raises(ParameterError):
            SuperlatticeParams(2.0, 1.817, n_sites=65)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            SuperlatticeParams(-2.0, 1.817)

    def test_wrong_gauge_rejected(self, params, resonant_drive):
        state = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                                 params, Gauge.BARE)
        with pytest.raises(ParameterError):
            evolve_gauged(state, params, resonant_drive, z_end=1.0)

    def test_bare_periodic_with_bend_rejected(self, params, resonant_drive):
        state = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                                 params, Gauge.BARE)
        with pytest.raises(ParameterError):
            evolve_bare(state, params, resonant_drive, z_end=1.0,
                        boundary=Boundary.PERIODIC)

    def test_group_velocity_signs(self, params, q_quarter):
        assert group_velocity(q_quarter, params, Branch.MINUS) > 0
        assert group_velocity(q_quarter, params, Branch.PLUS) < 0


class TestEdgeDiagnostic:
    def test_interior_packet_reports_tiny_edge_power(self, params):
        big = SuperlatticeParams(2.0, 1.817, n_sites=128)
        packet = gaussian_packet_state(big.q_from_qa(np.pi / 4), 8.0, big)
        traj = evolve_gauged(packet, big, DriveProfile.straight(), 0.5,
                             dz=0.001, boundary=Boundary.HARD_WALL)
        assert traj.edge_power_fraction() < 1e-6


class TestHardWallStepCheck:
    def test_unstable_step_is_refused_before_stepping(self, params):
        # |delta| + 2 sigma = 1.817 + 4 /cm puts RK4's imaginary-axis limit
        # 2 sqrt(2) at h = 0.4862 cm
        state = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                                 params)
        with pytest.raises(ParameterError, match=r"at most 4\.862e-01 cm"):
            evolve_gauged(state, params, DriveProfile.straight(), 1.0,
                          dz=0.5, boundary=Boundary.HARD_WALL)

    def test_overflowing_coupling_names_the_stable_step(self):
        big = SuperlatticeParams(1e150, 1.817, n_sites=16)
        state = bloch_mode_state(big.q_from_qa(np.pi / 4), Branch.MINUS, big)
        with pytest.raises(ParameterError, match=r"at most 1\.414e-150 cm"):
            evolve_gauged(state, big, DriveProfile.straight(), 0.1,
                          dz=1e-3, boundary=Boundary.HARD_WALL)
