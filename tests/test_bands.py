import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bentlattice import CalibrationError, OpticsParams, ParameterError
from bentlattice.bands import (BandStructure, calibrate_channel,
                               default_q_values, fit_tight_binding,
                               grid_q_values, plane_wave_bands,
                               _potential_matrix)
from bentlattice.bpm import ChannelShape, sample_index_change

CM_PER_UM = 1e-4


@pytest.fixture(scope="module")
def calibrated_bands():
    return plane_wave_bands(OpticsParams(), n_plane_waves=81, n_q=64,
                            n_bands=4)


def _complex_potential(optics, g_indices):
    """V_{G-G'} from the complex FFT of the 4-centre cell, imaginary part kept."""
    n_cell = 8192
    a_um = optics.spacing_um
    x_um = np.arange(n_cell) / n_cell * 2 * a_um
    dn = np.zeros(n_cell)
    for center in (-a_um, 0.0, a_um, 2 * a_um):
        peak = optics.dn1 if (round(center / a_um) % 2 == 0) else optics.dn2
        dn += peak * sample_index_change(optics, x_um - center)
    v_g = np.fft.fft(-2 * np.pi * dn / optics.wavelength_cm) / n_cell
    return v_g[(g_indices[:, None] - g_indices[None, :]) % n_cell]


def _complex_reference(optics, n_plane_waves, q):
    """Full spectrum of the Hermitian-symmetrised complex cell operator."""
    g_indices = np.arange(n_plane_waves) - n_plane_waves // 2
    g = g_indices * np.pi / (optics.spacing_um * CM_PER_UM)
    h = np.diag(optics.diffraction_cm * (q + g) ** 2) + _complex_potential(
        optics, g_indices)
    return np.linalg.eigh(0.5 * (h + h.conj().T))


class TestAssembly:
    def test_potential_matrix_real_symmetric(self):
        g = np.arange(-80, 81)
        for shape in ChannelShape:
            optics = OpticsParams(channel_shape=shape)
            v = _potential_matrix(optics, g)
            assert v.dtype == np.float64
            assert np.array_equal(v, v.T)
            reference = _complex_potential(optics, g)
            assert np.max(np.abs(v - reference)) <= 1e-12 * np.max(np.abs(v))

    def test_even_truncation_rejected(self):
        with pytest.raises(ParameterError):
            plane_wave_bands(OpticsParams(), n_plane_waves=80)
        with pytest.raises(ParameterError):
            plane_wave_bands(OpticsParams(), n_plane_waves=31)

    @pytest.mark.parametrize("n_bands", [0, -1])
    def test_no_bands_rejected(self, n_bands):
        with pytest.raises(ParameterError, match="n_bands"):
            plane_wave_bands(OpticsParams(), n_plane_waves=41, n_q=4,
                             n_bands=n_bands)

    def test_non_finite_operator_rejected(self):
        optics = OpticsParams(dn1=1e300, dn2=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ParameterError, match="not finite"):
                plane_wave_bands(optics, n_plane_waves=41, n_q=4)

    def test_truncation_is_converged_at_default(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plane_wave_bands(OpticsParams(), n_plane_waves=81, n_q=8,
                             n_bands=2, check_truncation=True)


class TestRealSubsetSolve:
    @settings(max_examples=12, deadline=None)
    @given(qa_over_pi=st.floats(-0.5, 0.5),
           width_um=st.floats(2.4, 4.2),
           dn2_ratio=st.floats(0.9, 0.99),
           shape=st.sampled_from(list(ChannelShape)))
    def test_matches_full_complex_solve(self, qa_over_pi, width_um,
                                        dn2_ratio, shape):
        optics = OpticsParams(channel_width_um=width_um,
                              dn2=dn2_ratio * OpticsParams().dn1,
                              channel_shape=shape)
        q = qa_over_pi * np.pi / (optics.spacing_um * CM_PER_UM)
        bands = plane_wave_bands(optics, n_plane_waves=81, q_values=[q],
                                 n_bands=2)
        vals, vecs = _complex_reference(optics, 81, q)
        assert np.max(np.abs(bands.omega[:, 0] - vals[:2])) < 1e-9
        # the reference vectors carry an arbitrary phase, the real ones a sign
        overlap = vecs[:, :2].conj().T @ bands.coeffs[0]
        assert np.max(np.abs(np.abs(np.diag(overlap)) - 1.0)) < 1e-9


class TestTimeReversalMirror:
    @settings(max_examples=8, deadline=None)
    @given(qa_over_pi=st.floats(0.01, 0.49))
    def test_mirrored_q_matches_direct_solve(self, qa_over_pi):
        optics = OpticsParams()
        q = qa_over_pi * np.pi / (optics.spacing_um * CM_PER_UM)
        pair = plane_wave_bands(optics, n_plane_waves=81, q_values=[q, -q])
        direct = plane_wave_bands(optics, n_plane_waves=81, q_values=[-q])
        assert np.max(np.abs(pair.omega[:, 1] - direct.omega[:, 0])) < 1e-9
        for band in range(pair.n_bands):
            mirrored = pair.coeffs[1, :, band]
            solved = direct.coeffs[0, :, band]
            assert min(np.max(np.abs(mirrored - solved)),
                       np.max(np.abs(mirrored + solved))) < 1e-9

    @pytest.mark.parametrize("q_values, solves", [
        (None, 65),
        (grid_q_values(OpticsParams(), 82 * 2 * 10.0 * CM_PER_UM), 42),
    ], ids=["default_grid", "window_comb"])
    def test_each_pair_is_solved_once(self, monkeypatch, q_values, solves):
        calls = []
        eigh = scipy.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        bands = plane_wave_bands(OpticsParams(), n_plane_waves=41,
                                 q_values=q_values, n_bands=2)
        assert len(calls) == solves
        # every column, mirrored or not, holds the bands of its own q
        for i, q in enumerate(bands.q_values):
            alone = plane_wave_bands(OpticsParams(), n_plane_waves=41,
                                     q_values=[q], n_bands=2)
            assert np.max(np.abs(bands.omega[:, i] - alone.omega[:, 0])) < 1e-9


class TestFreeSpaceLimit:
    def test_folded_parabola(self):
        optics = OpticsParams(dn1=1e-12, dn2=1e-12)
        n_q = 16
        bands = plane_wave_bands(optics, n_plane_waves=41, n_q=n_q, n_bands=4)
        a_cm = optics.spacing_um * CM_PER_UM
        diffraction = optics.wavelength_cm / (4 * np.pi * optics.n_s)
        for iq, q in enumerate(bands.q_values):
            g = np.arange(-3, 4) * np.pi / a_cm
            free = np.sort(diffraction * (q + g) ** 2)[:4]
            assert np.allclose(bands.omega[:, iq], free, rtol=1e-9,
                               atol=1e-6)


class TestSpectralProperties:
    def test_gap_at_zone_edge(self, calibrated_bands):
        s = calibrated_bands.half_splitting()
        edge = np.argmin(np.abs(np.abs(calibrated_bands.q_values)
                                - np.pi / (2 * 10.0 * CM_PER_UM)))
        assert s.min() > 1.5           # open gap
        assert np.argmin(s) == edge    # narrowest at the zone edge

    def test_band_symmetry_in_q(self):
        optics = OpticsParams()
        qs = np.array([-1.0, -0.4, 0.4, 1.0]) / (2 * 10.0 * CM_PER_UM) * np.pi
        bands = plane_wave_bands(optics, n_plane_waves=61, q_values=qs,
                                 n_bands=3)
        assert np.max(np.abs(bands.omega[:, 0] - bands.omega[:, 3])) < 1e-10
        assert np.max(np.abs(bands.omega[:, 1] - bands.omega[:, 2])) < 1e-10

    def test_modes_orthonormal(self, calibrated_bands):
        c = calibrated_bands.coeffs[5]
        gram = c.conj().T @ c
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_periodic_part_is_periodic(self, calibrated_bands):
        x, u = calibrated_bands.periodic_part(3, 0, n_samples=128)
        # continuing the Fourier series one full cell ahead reproduces it
        phases = np.exp(1j * np.outer((x + 20.0) * CM_PER_UM,
                                      calibrated_bands.g_values))
        u_shift = phases @ calibrated_bands.coeffs[3, :, 0]
        assert np.max(np.abs(u_shift - u)) < 1e-10


class TestFit:
    def test_synthetic_self_consistency(self):
        optics = OpticsParams()
        a_cm = optics.spacing_um * CM_PER_UM
        qs = default_q_values(optics, 64)
        sigma, delta = 2.0, 1.817
        split = np.sqrt(delta**2 + 4 * sigma**2 * np.cos(qs * a_cm) ** 2)
        omega = np.stack([-split, split])
        synthetic = BandStructure(qs, omega, np.zeros((64, 1, 2), complex),
                                  np.array([0]), optics)
        fit = fit_tight_binding(synthetic)
        assert fit.sigma_cm == pytest.approx(sigma, abs=1e-10)
        assert fit.delta_cm == pytest.approx(delta, abs=1e-10)
        assert fit.rms_residual < 1e-12

    def test_calibrated_geometry_hits_targets(self, calibrated_bands):
        fit = fit_tight_binding(calibrated_bands)
        assert fit.sigma_cm == pytest.approx(2.0, rel=0.02)
        assert fit.delta_cm == pytest.approx(1.817, rel=0.02)

    def test_delta_matches_edge_gap_within_fit_tolerance(self, calibrated_bands):
        fit = fit_tight_binding(calibrated_bands)
        edge_half_gap = calibrated_bands.half_splitting().min()
        assert abs(fit.delta_cm - edge_half_gap) < 0.02

    def test_single_band_rejected(self):
        optics = OpticsParams()
        qs = default_q_values(optics, 8)
        lone = BandStructure(qs, np.zeros((1, 8)), np.zeros((8, 1, 1), complex),
                             np.array([0]), optics)
        with pytest.raises(ParameterError):
            fit_tight_binding(lone)


class TestGridQValues:
    def test_folding_covers_zone(self):
        optics = OpticsParams()
        qs = grid_q_values(optics, 82 * 2 * 10.0 * CM_PER_UM)
        edge = np.pi / (2 * 10.0 * CM_PER_UM)
        assert len(qs) == 82
        assert np.all(qs > -edge - 1e-9)
        assert np.all(qs <= edge + 1e-9)
        assert len(np.unique(np.round(qs, 6))) == 82

    def test_incommensurate_window_rejected(self):
        with pytest.raises(ParameterError):
            grid_q_values(OpticsParams(), 8.3e-2)


class TestCalibration:
    def test_fixed_point_returns_same_geometry(self):
        # asking for the constants the shipped geometry already produces
        # must leave the geometry essentially untouched
        optics = OpticsParams()
        bands = plane_wave_bands(optics, n_plane_waves=81, n_q=64, n_bands=2)
        fit = fit_tight_binding(bands)
        result = calibrate_channel(fit.sigma_cm, fit.delta_cm, optics)
        assert result.optics.channel_width_um == pytest.approx(
            optics.channel_width_um, abs=5e-3)
        assert result.optics.dn2 == pytest.approx(optics.dn2, rel=5e-4)

    def test_sigma_monotone_over_bracket(self):
        optics = OpticsParams()
        result = calibrate_channel(2.0, 1.817, optics)
        samples = np.array(result.sigma_samples)
        assert np.all(np.diff(samples) > 0)

    def test_unreachable_target_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_channel(30.0, 1.817, OpticsParams())
