import numpy as np
import pytest

from bentlattice import DomainError, DriveKind, DriveProfile, ParameterError
from bentlattice.drive import (axis_offset_um, force, phase, phase_amplitude,
                               phase_integral, phase_sq_integral)


def gauss_legendre_integral(f, z0, z1, n_panels=256, order=12, split_at=()):
    """Composite Gauss-Legendre quadrature, the independent phase oracle.

    ``split_at`` lists interior points where the integrand is only piecewise
    smooth (the single-cycle drive switches off at one period); panels never
    straddle them.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    cuts = [z0] + [s for s in sorted(split_at) if z0 < s < z1] + [z1]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(lo, hi, n_panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            total += half * np.dot(weights, f(mid + half * nodes))
    return total


STANDARD_GEOMETRY = dict(n_s=1.42, wavelength_cm=633e-7, spacing_um=10.0)


class TestPhaseAmplitude:
    def test_thirty_micron_cycle(self):
        d = DriveProfile.single_cycle(30.0, 0.67, **STANDARD_GEOMETRY)
        assert phase_amplitude(d) == pytest.approx(3.9654, abs=1e-3)

    def test_forty_five_micron_cycle(self):
        d = DriveProfile.single_cycle(45.0, 0.67, **STANDARD_GEOMETRY)
        assert phase_amplitude(d) == pytest.approx(5.9482, abs=1e-3)

    def test_zero_amplitude(self):
        d = DriveProfile.sinusoidal(0.0, 0.67, **STANDARD_GEOMETRY)
        assert phase_amplitude(d) == 0.0

    def test_linear_in_amplitude_and_inverse_period(self):
        base = DriveProfile.sinusoidal(12.0, 1.3, **STANDARD_GEOMETRY)
        doubled = DriveProfile.sinusoidal(24.0, 1.3, **STANDARD_GEOMETRY)
        halved_period = DriveProfile.sinusoidal(12.0, 0.65, **STANDARD_GEOMETRY)
        assert phase_amplitude(doubled) == pytest.approx(
            2 * phase_amplitude(base), rel=1e-14)
        assert phase_amplitude(halved_period) == pytest.approx(
            2 * phase_amplitude(base), rel=1e-14)

    def test_bad_period_rejected(self):
        with pytest.raises(ParameterError):
            DriveProfile.sinusoidal(30.0, 0.0, **STANDARD_GEOMETRY)

    def test_bad_wavelength_rejected(self):
        with pytest.raises(ParameterError):
            DriveProfile.sinusoidal(30.0, 0.67, n_s=1.42, wavelength_cm=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["period_cm", "amplitude_um",
                                      "wavelength_cm", "spacing_um", "n_s"])
    def test_non_finite_geometry_rejected(self, name, value):
        args = dict(amplitude_um=30.0, period_cm=0.67, **STANDARD_GEOMETRY)
        args[name] = value
        for kind in (DriveKind.SINUSOIDAL, DriveKind.SINGLE_CYCLE):
            with pytest.raises(ParameterError, match=name):
                DriveProfile(kind, **args)

    @pytest.mark.parametrize("n_s", [-1.0, 0.0])
    def test_non_positive_index_rejected(self, n_s):
        geometry = dict(STANDARD_GEOMETRY, n_s=n_s)
        with pytest.raises(ParameterError, match="n_s"):
            DriveProfile.sinusoidal(30.0, 0.67, **geometry)
        with pytest.raises(ParameterError, match="n_s"):
            DriveProfile.straight(**geometry)


class TestPhase:
    def test_sinusoid_starts_at_zero(self):
        d = DriveProfile.sinusoidal(17.0, 0.9, **STANDARD_GEOMETRY)
        assert phase(d, 0.0) == 0.0

    def test_sinusoid_quarter_period_peak(self):
        d = DriveProfile.sinusoidal(17.0, 0.9, **STANDARD_GEOMETRY)
        assert phase(d, 0.9 / 4) == pytest.approx(phase_amplitude(d), rel=1e-14)

    def test_single_cycle_quarter_period(self):
        d = DriveProfile.single_cycle(30.0, 0.67, **STANDARD_GEOMETRY)
        assert phase(d, 0.67 / 4) == pytest.approx(3.9654, abs=1e-3)
        assert phase(d, 0.67 / 4) == pytest.approx(4.0, abs=0.05)

    def test_single_cycle_vanishes_after_cycle(self):
        d = DriveProfile.single_cycle(30.0, 0.67, **STANDARD_GEOMETRY)
        assert phase(d, 0.68) == 0.0
        assert phase(d, 55.0) == 0.0

    def test_sinusoid_periodicity(self):
        d = DriveProfile.sinusoidal(23.0, 1.7, **STANDARD_GEOMETRY)
        for z in (0.0, 0.3, 1.1, 4.25):
            assert abs(phase(d, z + 1.7) - phase(d, z)) < 1e-12

    def test_negative_z_rejected(self):
        d = DriveProfile.sinusoidal(23.0, 1.7, **STANDARD_GEOMETRY)
        with pytest.raises(DomainError):
            phase(d, -0.1)

    def test_array_evaluation(self):
        d = DriveProfile.sinusoidal(23.0, 1.7, **STANDARD_GEOMETRY)
        z = np.linspace(0, 3, 7)
        out = phase(d, z)
        assert out.shape == z.shape


class TestForce:
    def test_straight_is_zero(self):
        d = DriveProfile.straight(**STANDARD_GEOMETRY)
        assert force(d, 1.23) == 0.0
        assert phase(d, 1.23) == 0.0

    def test_sinusoid_at_origin(self):
        d = DriveProfile.sinusoidal(23.0, 1.7, **STANDARD_GEOMETRY)
        expected = phase_amplitude(d) * 2 * np.pi / 1.7
        assert force(d, 0.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("kind,period", [
        (DriveKind.SINUSOIDAL, 1.7),
        (DriveKind.SINGLE_CYCLE, 0.67),
    ])
    @pytest.mark.parametrize("z_stop", [0.21, 0.67, 1.4])
    def test_phase_equals_integrated_force(self, kind, period, z_stop):
        d = DriveProfile(kind, 23.0, period, **STANDARD_GEOMETRY)
        integral = gauss_legendre_integral(lambda zz: force(d, zz), 0.0, z_stop,
                                           split_at=(period,))
        assert integral == pytest.approx(phase(d, z_stop), abs=1e-10)

    def test_phase_integral_matches_quadrature(self):
        d = DriveProfile.sinusoidal(23.0, 1.7, **STANDARD_GEOMETRY)
        oracle = gauss_legendre_integral(lambda zz: phase(d, zz), 0.1, 2.3)
        assert phase_integral(d, 0.1, 2.3) == pytest.approx(oracle, abs=1e-12)

    def test_phase_sq_integral_matches_quadrature(self):
        d = DriveProfile.single_cycle(23.0, 0.67, **STANDARD_GEOMETRY)
        oracle = gauss_legendre_integral(lambda zz: phase(d, zz) ** 2, 0.0, 1.0,
                                         split_at=(0.67,))
        assert phase_sq_integral(d, 0.0, 1.0) == pytest.approx(oracle, abs=1e-12)


    @pytest.mark.parametrize("drive", [
        DriveProfile.sinusoidal(23.0, 0.67, **STANDARD_GEOMETRY),
        DriveProfile.single_cycle(23.0, 0.67, **STANDARD_GEOMETRY),
        DriveProfile.tabulated(np.linspace(0.0, 2.0, 41),
                               0.8 * np.sin(np.linspace(0.0, 6.0, 41))),
    ], ids=["sinusoidal", "single_cycle", "tabulated"])
    def test_integrals_vectorise(self, drive):
        # intervals inside, across and past the single cycle, one reversed
        z0 = np.array([0.0, 0.3, 0.6, 1.1, 0.9])
        z1 = np.array([0.01, 0.31, 0.7, 1.2, 0.2])
        for integral in (phase_integral, phase_sq_integral):
            values = integral(drive, z0, z1)
            assert values.shape == z0.shape
            for a, b, value in zip(z0, z1, values):
                assert value == pytest.approx(integral(drive, a, b),
                                              rel=1e-14, abs=1e-16)
                assert value == pytest.approx(-integral(drive, b, a),
                                              rel=1e-14, abs=1e-16)


class TestTabulated:
    def make_table(self, period=1.1, phi0=0.8, n=201):
        z = np.linspace(0.0, 2 * period, n)
        return DriveProfile.tabulated(z, phi0 * np.sin(2 * np.pi * z / period),
                                      **STANDARD_GEOMETRY)

    def test_phase_interpolates(self):
        d = self.make_table()
        assert phase(d, 1.1 / 4) == pytest.approx(0.8, abs=1e-6)

    def test_force_is_spline_consistent(self):
        d = self.make_table()
        for z_stop in (0.3, 0.9, 1.8):
            integral = gauss_legendre_integral(lambda zz: force(d, zz), 0, z_stop)
            assert integral == pytest.approx(phase(d, z_stop), abs=1e-10)

    def test_out_of_range_rejected(self):
        d = self.make_table()
        with pytest.raises(DomainError):
            phase(d, 2.3)

    def test_nonzero_start_rejected(self):
        z = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ParameterError):
            DriveProfile.tabulated(z, np.cos(z), **STANDARD_GEOMETRY)

    def test_short_table_rejected(self):
        with pytest.raises(ParameterError):
            DriveProfile.tabulated([0.0, 0.5], [0.0, 0.1], **STANDARD_GEOMETRY)


class TestAxisOffset:
    def test_sinusoid_starts_displaced(self):
        d = DriveProfile.sinusoidal(21.0, 0.9, **STANDARD_GEOMETRY)
        assert axis_offset_um(d, 0.0) == pytest.approx(-21.0)
        # the axis meets the input plane orthogonally: x0 is stationary at 0
        eps = 1e-7
        slope = (axis_offset_um(d, eps) - axis_offset_um(d, 0.0)) / eps
        assert abs(slope) < 1e-4

    def test_single_cycle_holds_after(self):
        d = DriveProfile.single_cycle(21.0, 0.9, **STANDARD_GEOMETRY)
        assert axis_offset_um(d, 2.0) == pytest.approx(-21.0)
        assert axis_offset_um(d, 0.9) == pytest.approx(-21.0)
