import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bentlattice import (Branch, DomainError, DriveProfile, Gauge,
                         ParameterError, ShapeError, SuperlatticeParams)
from bentlattice import dirac, drive as drv
from bentlattice.dirac import (SpinorField, XiGrid, band_weights, branch_spinor,
                               dirac_evolve, free_dispersion,
                               gaussian_spinor_packet, lattice_from_spinor,
                               spinor_from_lattice)
from bentlattice.diagnostics import (lattice_transition_probability,
                                     packet_census)
from bentlattice.integrate import BLOCK_STEPS, default_dz, step_grid
from bentlattice.tight_binding import (ModeVector, bloch_mode_state,
                                       dispersion, evolve_gauged,
                                       gaussian_packet_state)
from bentlattice.two_level import (MatrixKind, transition_probability,
                                   zone_edge_k)


class TestFreeDispersion:
    def test_rest_energy(self, params):
        lo, hi = free_dispersion(0.0, params)
        assert hi == pytest.approx(params.delta_cm, rel=1e-15)
        assert lo == -hi

    def test_unit_momentum_value(self, params):
        lo, hi = free_dispersion(1.0, params)
        assert hi == pytest.approx(2.702126754983933, rel=1e-12)

    def test_matches_lattice_near_zone_edge(self, params):
        # agreement with the miniband dispersion is cubic or better in k
        def gap(k):
            q = (np.pi + k) / (2 * params.spacing_cm)
            lattice = dispersion(q, params)[1]
            return abs(lattice - free_dispersion(k, params)[1])

        assert gap(0.2) < 2e-4
        assert gap(0.1) < gap(0.2) / 7  # cubic-or-better decay


class TestBranchSpinors:
    @pytest.mark.parametrize("k", [-np.pi / 2, -0.3, 0.0, 0.8, 2.0])
    def test_orthonormal_eigenpairs(self, params, k):
        h = np.array([[params.delta_cm, params.sigma_cm * k],
                      [params.sigma_cm * k, -params.delta_cm]])
        um = branch_spinor(k, Branch.MINUS, params)
        up = branch_spinor(k, Branch.PLUS, params)
        lo, hi = free_dispersion(k, params)
        assert np.linalg.norm(h @ um - lo * um) < 1e-12
        assert np.linalg.norm(h @ up - hi * up) < 1e-12
        assert abs(np.dot(um, up)) < 1e-14
        assert np.linalg.norm(um) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(exponent=st.floats(-15.0, -1.0), side=st.sampled_from([-1, 1]),
           branch=st.sampled_from(list(Branch)))
    @example(exponent=-10.0, side=1, branch=Branch.PLUS)
    # (sigma k)^2 underflows here, so the norm is taken without it
    @example(exponent=-200.0, side=1, branch=Branch.PLUS)
    def test_spinor_near_zero_momentum(self, exponent, side, branch):
        params = SuperlatticeParams(2.0, 1.817)
        # eps - delta cancels to 0 at small k unless it is written as
        # (sigma k)^2 / (eps + delta)
        k = side * 10.0**exponent
        h = np.array([[params.delta_cm, params.sigma_cm * k],
                      [params.sigma_cm * k, -params.delta_cm]])
        u = branch_spinor(k, branch, params)
        lo, hi = free_dispersion(k, params)
        eps = hi if branch is Branch.PLUS else lo
        assert np.all(np.isfinite(u))
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-15
        assert np.linalg.norm(h @ u - eps * u) < 1e-13


class TestFreeEvolution:
    def test_negative_branch_eigenphase(self, params):
        grid = XiGrid.centered(64.0, 512)
        k = float(grid.k[17])
        um = branch_spinor(k, Branch.MINUS, params)
        plane = np.exp(1j * k * np.arange(grid.n) * grid.dxi)
        field = SpinorField((um[0] * plane).astype(complex),
                            (um[1] * plane).astype(complex), grid, 0.0)
        z_end = 0.5
        traj = dirac_evolve(field, DriveProfile.straight(), params,
                            z_end=z_end, dz=1e-4, edge_tol=2.0)
        expected = np.exp(1j * free_dispersion(k, params)[1] * z_end)
        ratio = traj.psi1[-1] / field.psi1
        assert np.max(np.abs(ratio - expected)) < 1e-7

    def test_massless_chiral_transport(self):
        massless = SuperlatticeParams(2.0, 0.0, 10.0, 64)
        grid = XiGrid.centered(128.0, 1024)
        xi = grid.xi
        # alpha eigenvector (1, 1)/sqrt(2) translates at +sigma
        env = np.exp(-((xi + 20.0) / 6.0) ** 2).astype(complex)
        field = SpinorField(env / np.sqrt(2), env / np.sqrt(2), grid, 0.0)
        z_end = 3.0
        traj = dirac_evolve(field, DriveProfile.straight(), massless,
                            z_end=z_end, dz=5e-4)
        final = traj.final
        num = np.sum(xi * final.density)
        assert num / np.sum(final.density) == pytest.approx(
            -20.0 + massless.sigma_cm * z_end, abs=1e-3)

    def test_norm_conserved(self, params, single_cycle_b):
        grid = XiGrid.centered(256.0, 2048)
        field = gaussian_spinor_packet(grid, -np.pi / 2, 16.0, params)
        traj = dirac_evolve(field, single_cycle_b, params, z_end=0.6676,
                            snapshot_every=250)
        norms = traj.norms()
        assert np.max(np.abs(norms / norms[0] - 1.0)) < 1e-9


class TestPackets:
    def test_initial_packet_is_pure(self, params):
        grid = XiGrid.centered(256.0, 2048)
        field = gaussian_spinor_packet(grid, -np.pi / 2, 16.0, params)
        wm, wp = band_weights(field, params)
        assert wm > 1.0 - 1e-6
        assert field.norm == pytest.approx(1.0, rel=1e-12)

    def test_point_b_split_matches_two_level(self, params):
        # the spinor packet must reproduce its own plane-wave reduction and
        # break into two counter-moving packets once the halves separate
        lam = 0.6676
        drive = DriveProfile.single_cycle(45.0, lam)
        grid = XiGrid.centered(256.0, 2048)
        q = params.q_from_qa(np.pi / 4)
        k0 = zone_edge_k(q, params)
        field = gaussian_spinor_packet(grid, k0, 8.0, params)
        traj = dirac_evolve(field, drive, params, z_end=10.0, dz=lam / 2000,
                            snapshot_every=2000)
        wm, wp = band_weights(traj.final, params)
        p_plane = transition_probability(drive, params, q, MatrixKind.DIRAC)
        assert wp == pytest.approx(p_plane, abs=0.05)
        assert wp == pytest.approx(0.45, abs=0.05)
        packets = packet_census(grid.xi, traj.final.density, threshold=0.1,
                                merge_radius=4.0)
        assert len(packets) == 2
        centers = sorted(p.center for p in packets)
        assert centers[0] < -4 and centers[1] > 4

    def test_span_whose_momenta_overflow_is_named(self):
        # pi n / span = 6.4e303 is finite, its square is not
        with pytest.raises(ParameterError, match="xi_span = 1e-300"):
            XiGrid.centered(1e-300, 2048)
        XiGrid.centered(1e-150, 2048)

    def test_edge_overflow_raises(self, params):
        grid = XiGrid.centered(24.0, 256)
        field = gaussian_spinor_packet(grid, -np.pi / 2, 6.0, params)
        with pytest.raises(DomainError):
            dirac_evolve(field, DriveProfile.straight(), params, z_end=8.0,
                         dz=1e-3, snapshot_every=200)

    def test_non_finite_field_raises(self, params):
        # a NaN peak must not read as a packet clear of the edge
        grid = XiGrid.centered(256.0, 2048)
        field = gaussian_spinor_packet(grid, -np.pi / 2, 16.0, params)
        field.psi1[grid.n // 2] = np.nan
        with pytest.raises(DomainError, match="not finite"):
            dirac_evolve(field, DriveProfile.straight(), params, z_end=0.1)

    def test_edge_checked_between_snapshots(self, params):
        # the packet crosses the periodic edge near z = 13 cm and is back
        # inside the grid at z_end, so only the final state is a snapshot
        # and only the checks between snapshots can see the crossing
        grid = XiGrid.centered(128.0, 512)
        field = gaussian_spinor_packet(grid, -np.pi / 2, 8.0, params,
                                       center_xi=30.0)
        with pytest.raises(DomainError) as info:
            dirac_evolve(field, DriveProfile.straight(), params, z_end=39.3,
                         dz=1e-2)
        z_flagged = float(re.search(r"z = (\S+) cm", str(info.value))[1])
        assert z_flagged < 15.0


def _reference_evolve(field, profile, params, z_end, dz=None,
                      snapshot_every=None, edge_tol=1e-8):
    """The real-space Strang loop: four FFTs and a fresh cos/sin per step,
    with the edge checks and snapshots of ``dirac_evolve``."""
    if dz is None:
        dz = default_dz(profile)
    n_steps, h = step_grid(z_end - field.z, dz)
    snapshot_every = snapshot_every or n_steps
    k = field.grid.k
    sigma, delta = params.sigma_cm, params.delta_cm
    em = np.exp(-1j * delta * h / 2.0)
    ep = np.conj(em)
    p1 = field.psi1.astype(complex)
    p2 = field.psi2.astype(complex)
    zs, s1, s2 = [field.z], [p1.copy()], [p2.copy()]
    z_start = field.z + np.arange(n_steps) * h
    phi_ints = drv.phase_integral(profile, z_start, z_start + h)
    for i in range(n_steps):
        p1, p2 = p1 * em, p2 * ep
        chi = sigma * (k * h - 2.0 * phi_ints[i])
        c, s = np.cos(chi), np.sin(chi)
        f1, f2 = np.fft.fft(p1), np.fft.fft(p2)
        p1 = np.fft.ifft(c * f1 - 1j * s * f2) * em
        p2 = np.fft.ifft(c * f2 - 1j * s * f1) * ep
        z = field.z + (i + 1) * h
        snapshot = (i + 1) % snapshot_every == 0 or i == n_steps - 1
        if snapshot or (i + 1) % BLOCK_STEPS == 0:
            now = SpinorField(p1, p2, field.grid, z)
            if dirac._edge_density_fraction(now) > edge_tol:
                raise DomainError(
                    f"packet support reached the grid edge at z = {z:.4g} cm")
        if snapshot:
            zs.append(z)
            s1.append(p1.copy())
            s2.append(p2.copy())
    return np.array(zs), np.array(s1), np.array(s2)


class TestMomentumSpaceStepper:
    """``dirac_evolve`` steps in k and must reproduce the real-space loop."""

    @pytest.mark.parametrize("kind", ["single_cycle", "sinusoidal"])
    @pytest.mark.parametrize("snapshot_every", [1, 7, None])
    # step counts around the block ends, and counts that fall between them
    @pytest.mark.parametrize("n_steps", [1, 199, 200, 201, 437,
                                         BLOCK_STEPS - 1, BLOCK_STEPS,
                                         BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 37])
    def test_matches_real_space_loop(self, params, kind, snapshot_every,
                                     n_steps):
        lam = 0.6676
        drive = DriveProfile.from_phase_amplitude(kind, 6.0, lam)
        field = gaussian_spinor_packet(XiGrid.centered(128.0, 256),
                                       -np.pi / 2 + 0.3, 8.0, params,
                                       center_xi=5.0)
        field.z = 0.05
        z_end = field.z + n_steps * lam / 500
        traj = dirac_evolve(field, drive, params, z_end, dz=lam / 500,
                            snapshot_every=snapshot_every)
        zs, s1, s2 = _reference_evolve(field, drive, params, z_end,
                                       dz=lam / 500,
                                       snapshot_every=snapshot_every)
        assert traj.psi1.shape == s1.shape
        np.testing.assert_array_equal(traj.z, zs)
        assert np.max(np.abs(traj.psi1 - s1)) < 1e-12
        assert np.max(np.abs(traj.psi2 - s2)) < 1e-12

    def test_wrap_raises_at_the_reference_step(self, params):
        grid = XiGrid.centered(128.0, 512)
        field = gaussian_spinor_packet(grid, -np.pi / 2, 8.0, params,
                                       center_xi=30.0)
        messages = []
        for evolve in (dirac_evolve, _reference_evolve):
            with pytest.raises(DomainError) as info:
                evolve(field, DriveProfile.straight(), params, z_end=39.3,
                       dz=1e-2)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_step_loop_transforms_only_on_check_steps(self):
        # every FFT inside the step loops sits under the edge-check branch
        text = Path(dirac.__file__).read_text(encoding="utf-8")
        fn, = [node for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.FunctionDef)
               and node.name == "dirac_evolve"]
        loops = [node for node in ast.walk(fn) if isinstance(node, ast.For)]
        assert [ast.unparse(node.iter) for node in loops] == [
            "half_step_blocks(field.z, n_steps, h)", "range(i0, i1)"]
        checks = [node for node in ast.walk(loops[0])
                  if isinstance(node, ast.If) and ast.unparse(node.test)
                  == "snapshot or i + 1 == i1"]
        assert len(checks) == 1
        guarded = {id(node) for node in ast.walk(checks[0])}
        ffts = [node for node in ast.walk(loops[0])
                if isinstance(node, ast.Call)
                and "fft" in ast.unparse(node.func)]
        assert len(ffts) == 1 and id(ffts[0]) in guarded


class TestLatticeMap:
    def test_round_trip_identity(self, params):
        state = gaussian_packet_state(params.q_from_qa(np.pi / 4), 8.0, params)
        spinor = spinor_from_lattice(state, params)
        back = lattice_from_spinor(spinor, params)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) == 0.0
        assert back.gauge is Gauge.GAUGED

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_sites=st.sampled_from(range(4, 65, 4)))
    def test_round_trip_of_drawn_amplitudes(self, data, n_sites):
        # any finite complex amplitudes come back exactly
        parts = data.draw(hnp.arrays(
            float, (n_sites, 2),
            elements=st.floats(allow_nan=False, allow_infinity=False)))
        state = ModeVector(parts[:, 0] + 1j * parts[:, 1], Gauge.GAUGED, 0.5)
        lattice = SuperlatticeParams(2.0, 1.817, n_sites=n_sites)
        back = lattice_from_spinor(spinor_from_lattice(state, lattice),
                                   lattice)
        assert np.array_equal(back.amplitudes, state.amplitudes)
        assert back.z == state.z

    def test_power_preserved(self, params):
        state = gaussian_packet_state(params.q_from_qa(0.35 * np.pi), 6.0,
                                      params)
        spinor = spinor_from_lattice(state, params)
        assert spinor.norm == pytest.approx(state.power, rel=1e-14)

    def test_bloch_mode_maps_to_plane_wave(self, params):
        qa = np.pi / 2 + 0.125 * np.pi  # within the zone-edge neighbourhood
        n = params.n_sites
        state = bloch_mode_state(qa / params.spacing_cm, Branch.MINUS, params)
        spinor = spinor_from_lattice(state, params)
        k_expected = 2 * qa - np.pi
        spec1 = np.abs(np.fft.fft(spinor.psi1)) ** 2
        spec2 = np.abs(np.fft.fft(spinor.psi2)) ** 2
        k_grid = spinor.grid.k
        i1 = np.argmax(spec1 + spec2)
        assert k_grid[i1] == pytest.approx(k_expected, abs=1e-12)
        total = np.sum(spec1 + spec2)
        assert (spec1[i1] + spec2[i1]) / total > 1.0 - 1e-10

    @pytest.mark.parametrize("width_xi", [16.0, 10.0])
    def test_packet_width_matches_spinor_packet(self, width_xi):
        # width_sites = 2 width_xi describes the same packet in both tiers
        # (two sites per cell), so the two constructors agree on its rms width
        big = SuperlatticeParams(2.0, 1.817, 10.0, 512)
        q = big.q_from_qa(np.pi / 4)

        def rms_width(field):
            weights = field.density / np.sum(field.density)
            mean = np.sum(weights * field.grid.xi)
            return np.sqrt(np.sum(weights * (field.grid.xi - mean) ** 2))

        lattice = spinor_from_lattice(
            gaussian_packet_state(q, 2.0 * width_xi, big), big)
        spinor = gaussian_spinor_packet(XiGrid.centered(256.0, 512),
                                        zone_edge_k(q, big), width_xi, big)
        assert rms_width(lattice) == pytest.approx(rms_width(spinor),
                                                   rel=1e-3)

    def test_bare_gauge_rejected(self, params):
        state = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                                 params, Gauge.BARE)
        with pytest.raises(ParameterError):
            spinor_from_lattice(state, params)

    def test_partial_cell_count_rejected(self):
        bad = SuperlatticeParams(2.0, 1.817, n_sites=6)
        state = bloch_mode_state(bad.q_from_qa(np.pi / 3), Branch.MINUS, bad)
        with pytest.raises(ShapeError):
            spinor_from_lattice(state, bad)


class TestTierAgreementInValidityRegime:
    def test_small_drive_near_zone_edge(self, params):
        # weak drive and small momentum: here the continuum reduction of the
        # lattice holds and the two tiers must land on the same populations
        lam = 0.6676
        drive = DriveProfile.from_phase_amplitude("single_cycle", 0.3, lam)
        qa = 0.45 * np.pi
        lattice = SuperlatticeParams(2.0, 1.817, 10.0, 256)
        q = lattice.q_from_qa(qa)
        packet = gaussian_packet_state(q, 32.0, lattice)
        tb_traj = evolve_gauged(packet, lattice, drive, z_end=lam,
                                dz=lam / 4000)
        wp_lattice = lattice_transition_probability(tb_traj.final, lattice)

        grid = XiGrid.centered(float(lattice.n_sites // 2), lattice.n_sites)
        k0 = zone_edge_k(q, lattice)
        spinor0 = gaussian_spinor_packet(grid, k0, 16.0, lattice)
        d_traj = dirac_evolve(spinor0, drive, lattice, z_end=lam,
                              dz=lam / 4000)
        wp_dirac = band_weights(d_traj.final, lattice)[1]
        assert wp_lattice == pytest.approx(wp_dirac, abs=0.02)
        assert wp_dirac > 1e-4  # the drive does move population
