import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from bentlattice import (AccuracyError, Branch, DegenerateGapError,
                         DomainError, DriveProfile, ParameterError,
                         SuperlatticeParams)
from bentlattice.integrate import (MAX_STEP_ANGLE, TREE_STEPS, _step_maps,
                                   snapshot_steps)
from bentlattice.tight_binding import bloch_eigenvector, dispersion
from bentlattice.two_level import (TREE_RUNS, DiracUnitsMap,
                                   MatrixKind, PhysicalConstants,
                                   TwoLevelRun, TwoLevelState, check_norm,
                                   coupling_matrix_dirac, coupling_matrix_full,
                                   coupling_matrix_reduced, evolve,
                                   evolve_batch, free_energy, ground_state,
                                   physical_energy, plan_run, quasi_energy,
                                   resonance_period, transition_probability,
                                   zone_edge_k)


def sublattice_matrix(qa, phi, params):
    off = -2 * params.sigma_cm * np.cos(qa - phi)
    return np.array([[params.delta_cm, off], [off, -params.delta_cm]])


class TestCouplingFull:
    def test_zero_drive_is_diagonal(self, params, q_quarter):
        m = coupling_matrix_full(q_quarter, 0.0, params)
        assert m.z12 == 0.0
        assert m.z11 == pytest.approx(dispersion(q_quarter, params)[1],
                                      rel=1e-14)

    def test_quarter_zone_value(self, params, q_quarter):
        m = coupling_matrix_full(q_quarter, 0.0, params)
        assert m.z11 == pytest.approx(3.361768730891523, rel=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.15, 0.4, -0.8, 2.0])
    def test_basis_rotation_oracle(self, params, q_quarter, phi):
        # brute-force change of basis: project the sublattice generator on
        # the straight-array Bloch pair and compare element by element
        t = sublattice_matrix(np.pi / 4, phi, params)
        vm = bloch_eigenvector(q_quarter, Branch.MINUS, params)
        vp = bloch_eigenvector(q_quarter, Branch.PLUS, params)
        basis = np.stack([vm, vp], axis=1)
        projected = basis.T @ t @ basis
        m = coupling_matrix_full(q_quarter, phi, params)
        assert np.max(np.abs(projected - m.projected_generator())) < 1e-12
        # the conventional element values carry the opposite diagonal sign
        assert projected[0, 0] == pytest.approx(-m.z11, abs=1e-12)
        assert projected[0, 1] == pytest.approx(m.z12, abs=1e-12)

    def test_traceless_symmetric(self, params, q_quarter):
        m = coupling_matrix_full(q_quarter, 0.7, params).as_array()
        assert m[0, 0] == -m[1, 1]
        assert m[0, 1] == m[1, 0]


class TestCouplingReduced:
    def test_zero_drive(self, params):
        k = -np.pi / 2
        m = coupling_matrix_reduced(k, 0.0, params)
        assert m.z11 == pytest.approx(free_energy(k, params), rel=1e-14)
        assert m.z12 == 0.0

    def test_k_zero(self, params):
        m = coupling_matrix_reduced(0.0, 0.3, params)
        assert m.z11 == pytest.approx(params.delta_cm, rel=1e-14)
        assert m.z12 == pytest.approx(-2 * params.sigma_cm * 0.3, rel=1e-14)

    def test_quadratic_order_convergence(self, params):
        # along rays (k, phi) = t (k0, phi0) the full/reduced difference
        # must vanish at least quadratically; measured decay is cubic
        def error(t, k_dir, phi_dir):
            k = t * k_dir
            phi = t * phi_dir
            q = (np.pi + k) / (2 * params.spacing_cm)
            full = coupling_matrix_full(q, phi, params)
            red = coupling_matrix_reduced(k, phi, params)
            return np.hypot(full.z11 - red.z11, full.z12 - red.z12)

        for k_dir, phi_dir in ((1.0, 1.0), (1.0, -0.5), (0.3, 1.0)):
            e1 = error(0.2, k_dir, phi_dir)
            e2 = error(0.1, k_dir, phi_dir)
            assert e2 < e1 / 3.5  # at least quadratic decay
            assert e2 < 1e-3


class TestCouplingDirac:
    CONSTANTS = PhysicalConstants(c=137.036, mass=1.0, charge=1.0, hbar=1.0)

    def test_zero_field_diagonal_gap(self):
        p = 3.7
        m = coupling_matrix_dirac(p, 0.0, self.CONSTANTS)
        assert m.z12 == 0.0
        assert m.z11 == pytest.approx(physical_energy(p, self.CONSTANTS),
                                      rel=1e-14)

    @pytest.mark.parametrize("k,phi", [(0.5, 0.2), (-np.pi / 2, 6.0),
                                       (0.01, -3.3), (2.2, 0.0)])
    def test_units_map_equality(self, params, k, phi):
        umap = DiracUnitsMap.identity_embedding(params)
        p = umap.momentum_from_k(k)
        a_x = umap.vector_potential_from_phi(phi)
        lhs = coupling_matrix_dirac(p, a_x, umap.constants)
        rhs = coupling_matrix_reduced(k, phi, params)
        assert lhs.z11 == pytest.approx(rhs.z11, rel=1e-14, abs=1e-14)
        assert lhs.z12 == pytest.approx(rhs.z12, rel=1e-14, abs=1e-14)

    def test_rest_frame_scaling_identity(self):
        k = self.CONSTANTS
        a_x = 0.37
        m = coupling_matrix_dirac(0.0, a_x, k)
        eps = physical_energy(0.0, k)
        assert m.z12 * k.hbar**2 * eps / (k.mass * k.c**2) == pytest.approx(
            -k.charge * a_x, rel=1e-14)

    def test_units_map_round_trip(self, params):
        umap = DiracUnitsMap.identity_embedding(params)
        back = umap.lattice_params(params.spacing_um, params.n_sites)
        assert back.sigma_cm == pytest.approx(params.sigma_cm, rel=1e-15)
        assert back.delta_cm == pytest.approx(params.delta_cm, rel=1e-15)
        for phi in (0.0, 0.4, -6.0):
            assert umap.phi_from_vector_potential(
                umap.vector_potential_from_phi(phi)) == pytest.approx(
                    phi, rel=1e-15, abs=1e-300)
        for k in (0.0, -np.pi / 2, 1.7):
            assert umap.k_from_momentum(
                umap.momentum_from_k(k)) == pytest.approx(k, rel=1e-15,
                                                          abs=1e-300)


class TestEvolve:
    def test_straight_axis_is_inert(self, params, q_quarter):
        traj = evolve(ground_state(q_quarter, params),
                      DriveProfile.straight(), params, z_end=5.0, dz=0.002)
        assert np.max(traj.transition_probability) < 1e-28

    def test_norm_preserved(self, params, q_quarter, resonant_drive):
        traj = evolve(ground_state(q_quarter, params), resonant_drive, params,
                      z_end=20 * resonant_drive.period_cm)
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-9

    def test_resonant_flopping_beats_detuned(self, params, q_quarter,
                                             resonant_drive, detuned_drive):
        z_end = 50 * resonant_drive.period_cm
        on = evolve(ground_state(q_quarter, params), resonant_drive, params,
                    z_end=z_end, snapshot_every=25)
        off = evolve(ground_state(q_quarter, params), detuned_drive, params,
                     z_end=z_end, snapshot_every=25)
        assert on.transition_probability.max() > 0.9
        assert on.transition_probability.max() \
            > 3 * off.transition_probability.max()
        # the flopping scale for a physical array is of order 1e2 cm
        z_first_max = on.z[np.argmax(on.transition_probability)]
        assert 20.0 < z_first_max < 500.0

    def test_single_cycle_points(self, params, q_quarter):
        lam = 0.6676
        for phi0, expect, tol in ((4.0, 0.9693, 2e-3), (6.0, 0.4182, 2e-3)):
            drive = DriveProfile.from_phase_amplitude("single_cycle", phi0, lam)
            p = transition_probability(drive, params, q_quarter)
            assert p == pytest.approx(expect, abs=tol)
        assert transition_probability(
            DriveProfile.from_phase_amplitude("single_cycle", 4.0, lam),
            params, q_quarter) > 0.9

    def test_mixed_initial_state_matches_sublattice_dynamics(self, params,
                                                             q_quarter):
        # evolve (s1, s2) directly, project on the Bloch pair, and compare
        # complex occupation amplitudes against the two-level propagation;
        # a coherent superposition input makes this sensitive to the sign
        # convention of the projected generator
        drive = DriveProfile.from_phase_amplitude("single_cycle", 6.0, 0.6676)
        vm = bloch_eigenvector(q_quarter, Branch.MINUS, params)
        vp = bloch_eigenvector(q_quarter, Branch.PLUS, params)
        rm0, rp0 = 0.8, complex(0.0, -0.6)
        s = rm0 * vm + rp0 * vp
        from bentlattice.drive import phase as drive_phase

        n = 16000
        h = 0.6676 / n
        zs = np.arange(2 * n + 1) * (h / 2)
        phis = drive_phase(drive, zs)
        for i in range(n):
            def rhs(phi, vec):
                return -1j * (sublattice_matrix(np.pi / 4, phi, params) @ vec)
            k1 = rhs(phis[2 * i], s)
            k2 = rhs(phis[2 * i + 1], s + 0.5 * h * k1)
            k3 = rhs(phis[2 * i + 1], s + 0.5 * h * k2)
            k4 = rhs(phis[2 * i + 2], s + h * k3)
            s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        projected = np.array([vm @ s, vp @ s])

        state0 = TwoLevelState(rm0, rp0, 0.0, q_quarter)
        traj = evolve(state0, drive, params, MatrixKind.FULL, z_end=0.6676,
                      dz=h, snapshot_every=10**9)
        assert np.max(np.abs(traj.r[-1] - projected)) < 1e-8

    def test_reduced_and_dirac_kinds_agree(self, params, q_quarter,
                                           single_cycle_b):
        t1 = evolve(ground_state(q_quarter, params), single_cycle_b, params,
                    MatrixKind.REDUCED, z_end=0.6676)
        t2 = evolve(ground_state(q_quarter, params), single_cycle_b, params,
                    MatrixKind.DIRAC, z_end=0.6676)
        assert np.max(np.abs(t1.r - t2.r)) < 1e-13

    def test_norm_drift_raises(self, params, q_quarter):
        drive = DriveProfile.from_phase_amplitude("sinusoidal", 0.4, 2.8556)
        with pytest.raises(AccuracyError):
            evolve(ground_state(q_quarter, params), drive, params,
                   z_end=400.0, dz=0.9)

    def test_overflowing_norm_raises(self, q_quarter):
        # delta = 1e150 overflows the coupling, so the amplitudes turn NaN;
        # a NaN norm drift must fail the check, not slip past "> 1e-8"
        overflow = SuperlatticeParams(2.0, 1e150)
        drive = DriveProfile.from_phase_amplitude("single_cycle", 4.0, 0.6676)
        with np.errstate(all="ignore"), \
                pytest.raises(AccuracyError, match="drifted by nan"):
            evolve(ground_state(q_quarter, overflow), drive, overflow,
                   z_end=0.6676)

    def test_unnormalised_input_rejected(self, params, q_quarter,
                                         resonant_drive):
        bad = TwoLevelState(1.0, 0.5, 0.0, q_quarter)
        with pytest.raises(ParameterError):
            evolve(bad, resonant_drive, params, z_end=1.0)

    @pytest.mark.parametrize(("r_minus", "r_plus"), [
        (np.nan, 0.0), (1.0, complex(0.0, np.nan)), (np.inf, 0.0)],
        ids=["nan", "nan_upper", "inf"])
    def test_non_finite_input_rejected(self, params, q_quarter,
                                       resonant_drive, r_minus, r_plus):
        # a NaN norm is no normalised state; it must not reach the stepper
        # and come back as a norm drift blamed on the step size
        bad = TwoLevelState(complex(r_minus), complex(r_plus), 0.0, q_quarter)
        with pytest.raises(ParameterError, match="initial occupations"):
            evolve(bad, resonant_drive, params, z_end=1.0)

    def test_fractional_cycles_rejected(self, params, q_quarter,
                                        resonant_drive):
        with pytest.raises(ParameterError):
            transition_probability(resonant_drive, params, q_quarter,
                                   drive_length=2.5 * resonant_drive.period_cm)
        # whole cycles pass
        transition_probability(resonant_drive, params, q_quarter,
                               drive_length=3 * resonant_drive.period_cm)


class TestBatchedStepper:
    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_batch_equals_separate_runs(self, params, kind):
        # points differ in drive amplitude, momentum and initial state but
        # share the step grid; a stride of 7 leaves a short last interval
        lam = 0.6676
        points = [(ground_state(params.q_from_qa(qa * np.pi), params),
                   DriveProfile.from_phase_amplitude("single_cycle", phi0,
                                                     lam))
                  for phi0, qa in ((0.0, 0.25), (2.5, 0.25), (6.0, 0.3))]
        points.append((TwoLevelState(0.8, -0.6j, 0.0,
                                     params.q_from_qa(0.2 * np.pi)),
                       points[2][1]))
        runs = [plan_run(state, drive, params, kind, z_end=lam,
                         snapshot_every=7) for state, drive in points]
        batch = evolve_batch(runs)
        for (state, drive), traj in zip(points, batch):
            single = evolve(state, drive, params, kind, z_end=lam,
                            snapshot_every=7)
            assert np.array_equal(traj.z, single.z)
            assert np.array_equal(traj.r, single.r)
            assert traj.final == single.final
        assert np.max(batch[2].transition_probability) > 0.1

    def test_runs_on_different_grids_rejected(self, params, q_quarter,
                                              single_cycle_b):
        state = ground_state(q_quarter, params)
        runs = [plan_run(state, single_cycle_b, params, z_end=0.6676, dz=dz)
                for dz in (1e-3, 2e-3)]
        with pytest.raises(ParameterError):
            evolve_batch(runs)

    def test_bad_point_fails_before_stepping(self, params):
        # the drive table ends inside the run and the gap is closed at the
        # zone edge: both are found at the grid ends, before any step
        table = DriveProfile.tabulated(np.linspace(0.0, 0.5, 11),
                                       np.zeros(11))
        with pytest.raises(DomainError):
            plan_run(ground_state(0.0, params), table, params, z_end=1.0)
        gapless = SuperlatticeParams(2.0, 0.0)
        with pytest.raises(DegenerateGapError):
            plan_run(ground_state(gapless.q_from_qa(np.pi / 2), gapless),
                     DriveProfile.straight(), gapless, MatrixKind.REDUCED,
                     z_end=1.0)



def _magnus_reference(r0, z11, z12, h, steps):
    """Per-step scipy ``expm`` of the fourth-order Magnus exponent
    -i h (G0 + 4 G1 + G2)/6 - h^2 [G2, G0]/12 of the generator
    G = [[-z11, z12], [z12, z11]], with coefficients tabulated on the
    half-step grid (rows 2i, 2i+1, 2i+2 serve step i); the (r-, r+)
    columns after ``steps`` and each run's largest step angle, the
    largest eigenvalue modulus of the exponent."""
    g = np.moveaxis(np.array([[-z11, z12], [z12, z11]]), (0, 1), (-2, -1))
    g0, g1, g2 = g[:-2:2], g[1::2], g[2::2]
    exponent = (-1j * h / 6 * (g0 + 4 * g1 + g2)
                - h**2 / 12 * (g2 @ g0 - g0 @ g2))
    maps = expm(exponent)
    angle = np.abs(np.linalg.eigvals(exponent)).max(axis=(0, 2))
    r, out = r0.T.copy(), [r0.copy()]
    for i in range(steps[-1]):
        r = np.einsum("bjk,bk->bj", maps[i], r)
        if i + 1 in steps:
            out.append(r.T.copy())
    return np.array(out), angle


class TestComposedStepper:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_runs=st.integers(1, TREE_RUNS + 2),
           n=st.one_of(st.integers(1, 40),
                       st.integers(TREE_STEPS - 3, 2 * TREE_STEPS + 3)),
           stride=st.integers(1, 5000),
           scale=st.floats(0.0, 0.01))
    @example(seed=1, n_runs=1, n=TREE_STEPS + 1, stride=TREE_STEPS,
             scale=0.01)
    @example(seed=2, n_runs=TREE_RUNS + 1, n=2 * TREE_STEPS, stride=7,
             scale=0.01)
    # every in-block step count, up to TREE_STEPS - 1, read off the tree
    @example(seed=4, n_runs=TREE_RUNS + 1, n=TREE_STEPS + 1, stride=1,
             scale=0.01)
    # step angles far above MAX_STEP_ANGLE: the run must fail, not drift
    @example(seed=3, n_runs=2, n=40, stride=9, scale=0.5)
    def test_matches_per_step_magnus(self, seed, n_runs, n, stride, scale):
        # random couplings per half-step sample, of rms scale/h, and random
        # normalised initial states; scale <= 0.01 keeps every step angle
        # below MAX_STEP_ANGLE = 0.1 by many standard deviations
        rng = np.random.default_rng(seed)
        z0, h = 0.25, 1e-3
        z11 = scale / h * rng.standard_normal((2 * n + 1, n_runs))
        z12 = scale / h * rng.standard_normal((2 * n + 1, n_runs))
        r0 = rng.standard_normal((2, n_runs)) + 1j * rng.standard_normal(
            (2, n_runs))
        r0 /= np.linalg.norm(r0, axis=0)

        def table(b):
            def coefficients(zs):
                j = np.rint((zs - z0) / (h / 2)).astype(int)
                return z11[j, b], z12[j, b]
            return coefficients

        runs = [TwoLevelRun(TwoLevelState(r0[0, b], r0[1, b], z0),
                            MatrixKind.FULL, n, h, snapshot_steps(n, stride),
                            table(b))
                for b in range(n_runs)]
        steps = sorted({*range(0, n + 1, stride), n})
        reference, angle = _magnus_reference(r0, z11, z12, h, steps)
        for b, traj in enumerate(evolve_batch(runs)):
            assert np.array_equal(traj.z, z0 + np.array(steps) * h)
            if angle[b] > MAX_STEP_ANGLE:
                with pytest.raises(AccuracyError, match="drifted by nan"):
                    check_norm(traj, h)
                continue
            check_norm(traj, h)
            assert np.max(np.abs(traj.r - reference[:, :, b])) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(h=st.floats(1e-6, 1.0),
           samples=hnp.arrays(float, (2, 2 * 16 + 1, 3),
                              elements=st.floats(-1.0, 1.0)))
    @example(h=1e-3, samples=np.zeros((2, 33, 3)))
    def test_step_maps_are_unitary(self, h, samples):
        # |n_j| <= 0.09/h bounds every step angle by 0.09 + 0.09^2/6
        a, b = samples * (0.09 / (h * np.sqrt(2)))
        p, s = _step_maps(a, b, h)
        norm = p.real**2 + p.imag**2 + s.real**2 + s.imag**2
        assert np.all(np.abs(norm - 1.0) <= 4 * np.finfo(float).eps)


class TestQuasiEnergy:
    def test_zero_amplitude_reduces_to_dispersion(self, params, q_quarter):
        assert quasi_energy(q_quarter, 0.0, params) == pytest.approx(
            dispersion(q_quarter, params)[1], rel=1e-13)

    def test_reference_value(self, params, q_quarter):
        # pinned by the resonance-period check below; quadrature is the oracle
        assert quasi_energy(q_quarter, 0.4, params) == pytest.approx(
            3.3004212706108396, rel=1e-10)

    def test_symmetry_under_joint_sign_flip(self, params):
        for qa, phi0 in ((0.25 * np.pi, 0.4), (0.4, 1.3), (1.1, 3.0)):
            plus = quasi_energy(params.q_from_qa(qa), phi0, params)
            minus = quasi_energy(params.q_from_qa(-qa), -phi0, params)
            assert plus == pytest.approx(minus, rel=1e-12)


class TestResonancePeriod:
    def test_three_quantum_value(self, params, q_quarter):
        lam = resonance_period(3, q_quarter, 0.4, params)
        assert lam == pytest.approx(2.8556, rel=1e-3)
        assert lam == pytest.approx(2.8556287782695837, rel=1e-10)

    def test_zero_amplitude_closed_form(self, params, q_quarter):
        lam = resonance_period(1, q_quarter, 0.0, params)
        assert lam == pytest.approx(np.pi / dispersion(q_quarter, params)[1],
                                    rel=1e-12)

    def test_linear_in_order(self, params, q_quarter):
        lam1 = resonance_period(2, q_quarter, 0.7, params)
        lam2 = resonance_period(4, q_quarter, 0.7, params)
        assert lam2 == pytest.approx(2 * lam1, rel=1e-12)

    def test_bad_order_rejected(self, params, q_quarter):
        with pytest.raises(ParameterError):
            resonance_period(0, q_quarter, 0.4, params)


class TestZoneEdgeMap:
    def test_quarter_zone_momentum(self, params, q_quarter):
        assert zone_edge_k(q_quarter, params) == pytest.approx(-np.pi / 2,
                                                               rel=1e-14)

    def test_round_trip(self, params):
        for k in (-1.2, 0.0, 0.7):
            # the inverse of qa = pi/2 + k/2
            q = (np.pi + k) / (2.0 * params.spacing_cm)
            assert zone_edge_k(q, params) == pytest.approx(k, abs=1e-14)
