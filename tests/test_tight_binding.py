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
                                       sublattice_transform,
                                       to_sublattice_pairs)
from bentlattice.two_level import evolve as tl_evolve
from bentlattice.two_level import ground_state
from bentlattice.diagnostics import lattice_transition_probability


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


class TestSublatticePairs:
    @pytest.mark.parametrize("n_sites", [6, 8])
    def test_pairs_hold_s1_and_s2_per_momentum(self, n_sites):
        # (s1, s2) of momentum qa: the A and B sites' Fourier sums
        lattice = SuperlatticeParams(2.0, 1.817, n_sites=n_sites)
        qa, transform = sublattice_transform(lattice)
        rng = np.random.default_rng(5)
        amps = rng.standard_normal((3, n_sites)) + 1j * rng.standard_normal(
            (3, n_sites))
        pairs = to_sublattice_pairs(amps, transform)
        assert pairs.shape == (3, n_sites // 2, 2)
        l = lattice.sites
        for k, qa_k in enumerate(qa):
            wave = np.exp(-1j * qa_k * l) / np.sqrt(n_sites // 2)
            s1 = amps[:, l % 2 == 0] @ wave[l % 2 == 0]
            s2 = amps[:, l % 2 != 0] @ wave[l % 2 != 0]
            assert np.max(np.abs(pairs[:, k] - np.stack([s1, s2], -1))) < 1e-13
        back = from_sublattice_pairs(pairs, transform)
        assert np.max(np.abs(back - amps)) < 1e-13


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
        (Gauge.GAUGED, Boundary.PERIODIC, evolve_gauged),
    ], ids=["bare_hard_wall", "gauged_periodic"])
    def test_matches_per_stage_reference(self, gauge, boundary, evolver):
        # 1400 steps span six sample blocks, the last one short
        params = SuperlatticeParams(2.0, 1.817, n_sites=32)
        drive = DriveProfile.from_phase_amplitude("sinusoidal", 1.0, 0.5)
        state = gaussian_packet_state(params.q_from_qa(np.pi / 4), 4.0,
                                      params, gauge=gauge)
        traj = evolver(state, params, drive, 0.7, dz=5e-4,
                       snapshot_every=None, boundary=boundary)
        # hard walls step RK4 on the sites, periodic chains Magnus per q
        ref = (per_stage_reference(state, params, drive, 0.7, 5e-4, boundary)
               if boundary is Boundary.HARD_WALL
               else magnus_reference(state, params, drive, 0.7, 5e-4))
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
        # bare term; the two integrations then agree site by site
        drive = DriveProfile.from_phase_amplitude("sinusoidal", 0.4, 2.8556)
        big = SuperlatticeParams(2.0, 1.817, n_sites=64)
        q = big.q_from_qa(np.pi / 4)
        packet_g = gaussian_packet_state(q, 8.0, big, gauge=Gauge.GAUGED)
        packet_b = packet_g.amplitudes.copy()  # Phi(0) = 0: same amplitudes
        from bentlattice.tight_binding import ModeVector
        bare0 = ModeVector(packet_b, Gauge.BARE, 0.0)
        z_end = 1.0
        tb_bare = evolve_bare(bare0, big, drive, z_end, dz=2.8556 / 16000,
                              boundary=Boundary.HARD_WALL)
        tb_gauged = evolve_gauged(packet_g, big, drive, z_end,
                                  dz=2.8556 / 16000,
                                  boundary=Boundary.HARD_WALL)
        mapped = gauge_transform(tb_bare.final, drive, Gauge.GAUGED)
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
        # gauged run up to the two RK4 errors; the bare site-linear term
        # F l reaches 2 pi phi0 / period * n_sites / 2 = 200 /cm, and the
        # worst case measured over the corners of these ranges is 1.3e-7,
        # in the amplitudes and in the upper-branch fraction
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

    def test_single_cycle_edge_jump_is_first_order(self, params):
        # the single-cycle force jumps at the cycle edge, so a fixed-step
        # integration of the bare form carries one O(dz) sample there; the
        # gauged form sees only the continuous phase and is unaffected
        drive = DriveProfile.from_phase_amplitude("single_cycle", 0.4, 0.6676)
        big = SuperlatticeParams(2.0, 1.817, n_sites=64)
        q = big.q_from_qa(np.pi / 4)
        packet_g = gaussian_packet_state(q, 8.0, big, gauge=Gauge.GAUGED)
        from bentlattice.tight_binding import ModeVector
        bare0 = ModeVector(packet_g.amplitudes.copy(), Gauge.BARE, 0.0)
        errs = []
        for dz in (0.6676 / 2000, 0.6676 / 8000):
            tb_bare = evolve_bare(bare0, big, drive, 0.6676, dz=dz,
                                  boundary=Boundary.HARD_WALL)
            tb_gauged = evolve_gauged(packet_g, big, drive, 0.6676, dz=dz,
                                      boundary=Boundary.HARD_WALL)
            mapped = gauge_transform(tb_bare.final, drive, Gauge.GAUGED)
            errs.append(np.max(np.abs(mapped.amplitudes
                                      - tb_gauged.final.amplitudes)))
        assert errs[1] < errs[0] / 3  # shrinks at least linearly with dz


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
        qa_values, p_q, weights = lattice_transition_probability(
            mapped, big, q_resolved=True)
        i0 = np.argmax(weights)
        assert qa_values[i0] == pytest.approx(np.pi / 4, abs=1e-12)
        ref = tl_evolve(ground_state(qa_values[i0] / big.spacing_cm, big),
                        drive, big, z_end=z_end, dz=dz, snapshot_every=10**9)
        assert p_q[i0] == pytest.approx(ref.transition_probability[-1],
                                        abs=1e-6)


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
