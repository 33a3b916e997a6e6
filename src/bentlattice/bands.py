"""Bloch-Floquet band structure of the straight superlattice.

The continuum eigenproblem from the paraxial equation at F = 0 is solved in
a truncated Fourier basis of the 2a-periodic cell.  Guided minibands come
out as the most-bound (lowest) eigenvalues; fitting their splitting against
the two-parameter tight-binding dispersion recovers the coupling sigma and
half-mismatch delta used by the discrete tiers.

``scipy.linalg`` and ``scipy.optimize`` are imported inside the solver and
the calibration that call them, so runs that solve no bands do not load
them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bpm import OpticsParams, sample_index_change
from .drive import CM_PER_UM
from .errors import AccuracyError, CalibrationError, ParameterError

# samples of one cell in the Fourier transform of its potential
N_CELL = 8192


@dataclass(frozen=True)
class BandStructure:
    """Eigenvalues and Fourier-basis eigenvectors on a q sample set.

    omega[b, i] is the b-th band (sorted ascending, most bound first) at
    q_values[i] (rad/cm); coeffs[i, :, b] are the real plane-wave
    coefficients of its periodic part over reciprocal vectors
    G = g_indices * pi/a, each column of unit norm and of arbitrary sign.
    """

    q_values: np.ndarray
    omega: np.ndarray
    coeffs: np.ndarray
    g_indices: np.ndarray
    optics: OpticsParams

    @property
    def n_bands(self):
        return self.omega.shape[0]

    @property
    def g_values(self):
        a_cm = self.optics.spacing_cm
        return self.g_indices * (np.pi / a_cm)

    def periodic_part(self, iq: int, band: int, n_samples: int = 256):
        """Sample u_b(x, q) over one cell [0, 2a); periodic by construction."""
        a_um = self.optics.spacing_um
        x_um = np.arange(n_samples) / n_samples * 2 * a_um
        phases = np.exp(1j * np.outer(x_um * CM_PER_UM, self.g_values))
        return x_um, phases @ self.coeffs[iq, :, band]

    def half_splitting(self):
        """(omega_2 - omega_1)/2 across q, the quantity the fit consumes."""
        return 0.5 * (self.omega[1] - self.omega[0])


def default_q_values(optics: OpticsParams, n_q: int = 128):
    """n_q uniform points in the first Brillouin zone (-pi/2a, pi/2a]."""
    a_cm = optics.spacing_cm
    edge = np.pi / (2 * a_cm)
    return -edge + (np.arange(n_q) + 1) * (2 * edge / n_q)


def grid_q_values(optics: OpticsParams, window_cm: float):
    """Brillouin-zone representatives of a periodic window's momentum comb.

    The window must span a whole number of lattice cells; the returned
    values are the window's discrete momenta folded into the zone, which is
    what field projections on that window require.
    """
    a_cm = optics.spacing_cm
    n_classes = window_cm / (2 * a_cm)
    if abs(n_classes - round(n_classes)) > 1e-9:
        raise ParameterError("window must span an integer number of cells")
    n_classes = int(round(n_classes))
    dk = 2 * np.pi / window_cm
    period = np.pi / a_cm
    qs = np.arange(n_classes) * dk          # representatives in [0, pi/a)
    return np.where(qs > period / 2, qs - period, qs)


def _potential_matrix(optics: OpticsParams, g_indices):
    """Fourier matrix V_{G-G'} of 2 pi (n_s - n(x))/lambda over one cell.

    The cell is sampled on [0, 2a) in the same coordinates as the full
    transverse grid (an A channel centred at x = 0), so eigenvector
    coefficients can be matched phase-consistently against grid fields.
    Both channel shapes are even and an A channel sits at x = 0, so V(x) is
    even and V_{G-G'} is real and depends on |G-G'| only.  The imaginary
    part of the FFT is rounding (at most 3e-15 /cm against max|V| = 118 /cm
    on the default optics), not physics, so it is dropped.
    """
    a_um = optics.spacing_um
    x_um = np.arange(N_CELL) / N_CELL * 2 * a_um
    dn = np.zeros(N_CELL)
    for center in (-a_um, 0.0, a_um, 2 * a_um):
        peak = optics.dn1 if (round(center / a_um) % 2 == 0) else optics.dn2
        dn += peak * sample_index_change(optics, x_um - center)
    # index changes near the float limit overflow here; plane_wave_bands
    # reports the non-finite operator as a typed error
    with np.errstate(over="ignore", invalid="ignore"):
        v_x = -2 * np.pi * dn / optics.wavelength_cm
        v_g = np.fft.rfft(v_x).real / N_CELL
    return v_g[np.abs(g_indices[:, None] - g_indices[None, :])]


def _mirror_sources(q_values, a_cm):
    """For each q, the index of an earlier, directly solved q equal to -q
    within rounding, or -1 where q must be solved itself."""
    tol = 64 * np.finfo(float).eps * np.pi / a_cm
    sources = np.full(len(q_values), -1)
    for i, q in enumerate(q_values):
        partners = np.flatnonzero(np.abs(q_values[:i] + q) <= tol)
        partners = partners[sources[partners] < 0]
        if partners.size:
            sources[i] = partners[0]
    return sources


def plane_wave_bands(optics: OpticsParams, n_plane_waves: int = 161,
                     n_q: int = 128, n_bands: int = 4, q_values=None,
                     check_truncation: bool = False) -> BandStructure:
    """Lowest n_bands eigenpairs of the real symmetric cell operator.

    H(q) = diag(D (q+G)^2) + V_{G-G'} in a truncated plane-wave basis; only
    the kept bands are solved for (LAPACK dsyevr), once per pair of
    opposite q values, the partner mirrored.  n_plane_waves must be
    odd (symmetric truncation) and at least 41, and n_bands at least 1.
    With check_truncation the solve is repeated with 20 more plane waves
    and an accuracy warning is issued if any kept band moves by > 1e-4 / cm.
    """
    if n_plane_waves % 2 == 0 or n_plane_waves < 41:
        raise ParameterError("n_plane_waves must be odd and >= 41")
    if n_bands < 1:
        raise ParameterError(f"n_bands must be >= 1, got {n_bands!r}")
    if q_values is None:
        q_values = default_q_values(optics, n_q)
    q_values = np.asarray(q_values, dtype=float)
    half = n_plane_waves // 2
    g_indices = np.arange(-half, half + 1)
    a_cm = optics.spacing_cm
    g = g_indices * (np.pi / a_cm)
    vmat = _potential_matrix(optics, g_indices)
    # an overflow here (huge diffraction constant) is the typed error below
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = optics.diffraction_cm * (q_values[:, None] + g) ** 2
    if not (np.all(np.isfinite(vmat)) and np.all(np.isfinite(kinetic))):
        raise ParameterError("cell operator is not finite; check the optics "
                             "index changes, wavelength and q values")

    import scipy.linalg

    n_bands = min(n_bands, n_plane_waves)
    omega = np.empty((n_bands, len(q_values)))
    coeffs = np.empty((len(q_values), n_plane_waves, n_bands))
    for i, j in enumerate(_mirror_sources(q_values, a_cm)):
        if j >= 0:
            # time reversal: H(-q) is H(q) with G -> -G, so the bands agree
            # and the coefficients come in reversed basis order
            omega[:, i], coeffs[i] = omega[:, j], coeffs[j, ::-1]
            continue
        omega[:, i], coeffs[i] = scipy.linalg.eigh(
            np.diag(kinetic[i]) + vmat, subset_by_index=[0, n_bands - 1],
            driver="evr", check_finite=False)
    bands = BandStructure(q_values, omega, coeffs, g_indices, optics)

    if check_truncation:
        finer = plane_wave_bands(optics, n_plane_waves + 20, n_bands=n_bands,
                                 q_values=q_values)
        shift = np.max(np.abs(finer.omega - bands.omega))
        if shift > 1e-4:
            warnings.warn(
                f"plane-wave truncation moves bands by {shift:.2e} 1/cm; "
                "increase n_plane_waves", stacklevel=2)
    return bands


@dataclass(frozen=True)
class TightBindingFit:
    sigma_cm: float
    delta_cm: float
    rms_residual: float


def fit_tight_binding(bands: BandStructure) -> TightBindingFit:
    """Least-squares fit of the two lowest bands to the miniband dispersion.

    After removing the per-q midpoint, the band pair reduces to the
    half-splitting s(q), and s^2 = delta^2 + 4 sigma^2 cos^2(qa) is linear
    in (delta^2, sigma^2): one least-squares solve, which needs two distinct
    cos^2(qa) values (else ParameterError).  A residual above 10% of the
    splitting range signals that the two-band picture is breaking down.
    """
    if bands.n_bands < 2:
        raise ParameterError("fit needs at least two bands")
    a_cm = bands.optics.spacing_cm
    qa = bands.q_values * a_cm
    s = bands.half_splitting()
    design = np.stack([np.ones_like(qa), 4 * np.cos(qa) ** 2], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, s**2, rcond=None)
    if rank < 2:
        raise ParameterError("tight-binding fit needs q samples with two "
                             "distinct cos^2(qa) values")
    delta_sq, sigma_sq = coef
    scale = float(np.max(s**2))
    if delta_sq < -1e-2 * scale or sigma_sq < -1e-2 * scale:
        raise AccuracyError("band splitting is not tight-binding shaped")
    # a slightly negative intercept is a continuum correction at delta ~ 0
    delta_sq, sigma_sq = max(delta_sq, 0.0), max(sigma_sq, 0.0)
    coef = np.array([delta_sq, sigma_sq])
    model = np.sqrt(design @ coef)
    rms = float(np.sqrt(np.mean((s - model) ** 2)))
    span = float(s.max() - s.min())
    if span > 0 and rms > 0.10 * span:
        warnings.warn(
            f"tight-binding fit residual {rms:.3g} exceeds 10% of the "
            "splitting range; the two-band model is marginal", stacklevel=2)
    return TightBindingFit(float(np.sqrt(sigma_sq)), float(np.sqrt(delta_sq)), rms)


@dataclass(frozen=True)
class CalibrationResult:
    optics: OpticsParams
    fitted_sigma: float
    fitted_delta: float
    width_samples: tuple
    sigma_samples: tuple


def _fit_for(optics, n_q, n_plane_waves):
    bands = plane_wave_bands(optics, n_plane_waves=n_plane_waves, n_q=n_q,
                             n_bands=2)
    return fit_tight_binding(bands)


def calibrate_channel(target_sigma: float, target_delta: float,
                      optics: OpticsParams,
                      width_bracket=(2.4, 4.2),
                      rel_tol: float = 0.02, n_q: int = 64,
                      n_plane_waves: int = 81,
                      max_rounds: int = 3) -> CalibrationResult:
    """Pin the free channel geometry to the target tight-binding constants.

    One-dimensional bracketed root solve on the channel width drives the
    fitted sigma to the target; a second solve on dn2 then places delta.
    Both couple weakly, so a couple of alternating rounds land inside the
    2% tolerance.  The width samples taken while bracketing are returned so
    callers can assert monotonicity over the bracket.
    """
    from scipy.optimize import brentq

    lo, hi = width_bracket
    probe_widths = np.linspace(lo, hi, 5)
    probe_sigmas = []
    for w in probe_widths:
        probe_sigmas.append(
            _fit_for(replace(optics, channel_width_um=w), n_q, n_plane_waves).sigma_cm)
    f_lo = probe_sigmas[0] - target_sigma
    f_hi = probe_sigmas[-1] - target_sigma
    if f_lo * f_hi > 0:
        raise CalibrationError(
            f"width bracket [{lo}, {hi}] um does not straddle sigma = "
            f"{target_sigma} (endpoints give {probe_sigmas[0]:.3g}, "
            f"{probe_sigmas[-1]:.3g})")

    current = optics
    for _ in range(max_rounds):
        def sigma_err(w):
            return _fit_for(replace(current, channel_width_um=w),
                            n_q, n_plane_waves).sigma_cm - target_sigma

        width = brentq(sigma_err, lo, hi, xtol=1e-5)
        current = replace(current, channel_width_um=float(width))

        def delta_err(dn2):
            return _fit_for(replace(current, dn2=dn2),
                            n_q, n_plane_waves).delta_cm - target_delta

        dn2_lo, dn2_hi = 0.9 * current.dn1, current.dn1 * (1 - 1e-9)
        if delta_err(dn2_lo) * delta_err(dn2_hi) > 0:
            raise CalibrationError("dn2 bracket does not straddle target delta")
        dn2 = brentq(delta_err, dn2_lo, dn2_hi, xtol=1e-10)
        current = replace(current, dn2=float(dn2))

        fit = _fit_for(current, n_q, n_plane_waves)
        sig_ok = abs(fit.sigma_cm - target_sigma) <= rel_tol * target_sigma
        del_ok = abs(fit.delta_cm - target_delta) <= rel_tol * target_delta
        if sig_ok and del_ok:
            return CalibrationResult(current, fit.sigma_cm, fit.delta_cm,
                                     tuple(probe_widths), tuple(probe_sigmas))
    raise CalibrationError(
        f"calibration did not converge: sigma = {fit.sigma_cm:.4g}, "
        f"delta = {fit.delta_cm:.4g} after {max_rounds} rounds")
