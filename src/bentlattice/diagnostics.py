"""Observable extraction: band populations, transition probability, packets.

Continuum band projections require the transverse window to span a whole
number of lattice cells; every window momentum then folds onto exactly one
Brillouin-zone representative and the Bloch modes of the window form an
orthonormal set, which makes the projections exactly power-complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import drive as drv
from .bands import BandStructure, grid_q_values, plane_wave_bands
from .bpm import FieldGrid, OpticsParams, TransverseGrid
from .drive import CM_PER_UM
from .errors import ParameterError, ShapeError
from .tight_binding import (Branch, Gauge, LatticeTrajectory, ModeVector,
                            SuperlatticeParams, _branch_vector,
                            sublattice_transform, to_sublattice_pairs)


# ---------------------------------------------------------------------------
# continuum band projections
# ---------------------------------------------------------------------------

def bands_for_grid(optics: OpticsParams, grid: TransverseGrid,
                   n_plane_waves: int = 81, n_bands: int = 4) -> BandStructure:
    """Band structure evaluated exactly at the grid's folded momentum comb."""
    q_values = grid_q_values(optics, grid.width_um * CM_PER_UM)
    return plane_wave_bands(optics, n_plane_waves=n_plane_waves,
                            n_bands=n_bands, q_values=q_values)


def _check_projection_setup(fieldgrid: FieldGrid, bands: BandStructure):
    window_cm = fieldgrid.grid.width_um * CM_PER_UM
    a_cm = bands.optics.spacing_um * CM_PER_UM
    n_classes = window_cm / (2 * a_cm)
    if abs(n_classes - round(n_classes)) > 1e-9:
        raise ShapeError("grid window is not a whole number of lattice cells")
    n_classes = int(round(n_classes))
    if len(bands.q_values) != n_classes:
        raise ShapeError("band structure was not built for this grid "
                         "(use bands_for_grid)")
    return n_classes


def _window_bins(grid: TransverseGrid, bands: BandStructure):
    """FFT bins of every plane wave q + g of the comb, and which are resolved.

    Returns (ks, bins, usable), each shaped (n_q, n_g); components at or
    beyond the grid's Nyquist wavenumber are not usable.
    """
    dk = 2 * np.pi / (grid.width_um * CM_PER_UM)
    nyquist = np.pi / (grid.dx_um * CM_PER_UM)
    ks = bands.q_values[:, None] + bands.g_values[None, :]
    bins = np.round(ks / dk).astype(int) % grid.n
    return ks, bins, np.abs(ks) < 0.999 * nyquist


def band_amplitudes(fieldgrid: FieldGrid, bands: BandStructure):
    """Complex overlap amplitudes with every Bloch mode of the window.

    Returns an (n_q, n_bands) array; |amps|^2 sums to the power carried by
    the projected bands (unit-power fields give fractions directly).
    """
    n_q = _check_projection_setup(fieldgrid, bands)
    grid = fieldgrid.grid
    window_cm = grid.width_um * CM_PER_UM
    k_all = grid.k_cm
    # continuum Fourier transform with the grid's true origin
    ehat = (np.fft.fft(fieldgrid.envelope) * grid.dx_um * CM_PER_UM
            * np.exp(-1j * k_all * grid.x_min_um * CM_PER_UM))
    _, bins, usable = _window_bins(grid, bands)
    amps = np.empty((n_q, bands.n_bands), dtype=complex)
    for iq in range(n_q):
        spectrum = np.where(usable[iq], ehat[bins[iq]], 0.0)
        amps[iq] = (bands.coeffs[iq].T @ spectrum) / np.sqrt(window_cm)
    return amps


def band_populations(fieldgrid: FieldGrid, bands: BandStructure,
                     n_bands: int = 2) -> np.ndarray:
    """Power fractions carried by the lowest bands (remainder = 1 - sum)."""
    amps = band_amplitudes(fieldgrid, bands)
    power_cm = fieldgrid.power * CM_PER_UM
    fractions = np.sum(np.abs(amps) ** 2, axis=0) / power_cm
    return fractions[:n_bands]


def miniband_transition_fraction(fieldgrid: FieldGrid,
                                 bands: BandStructure) -> float:
    """Upper-miniband share of the two-miniband power, the continuum P."""
    b1, b2 = band_populations(fieldgrid, bands, n_bands=2)
    return float(b2 / (b1 + b2))


def project_onto_band(fieldgrid: FieldGrid, bands: BandStructure,
                      band: int = 0) -> FieldGrid:
    """Component of the field in one band, renormalised to unit power.

    Used to prepare launch states that are pure superpositions of
    lowest-miniband Bloch modes.
    """
    amps = band_amplitudes(fieldgrid, bands)
    grid = fieldgrid.grid
    window_cm = grid.width_um * CM_PER_UM
    # inverse of the scatter in band_amplitudes: place each mode's plane
    # waves on their FFT bins (origin phase included) and transform once
    ks, bins, usable = _window_bins(grid, bands)
    terms = (amps[:, band, None] * bands.coeffs[:, :, band]
             * np.exp(1j * ks * grid.x_min_um * CM_PER_UM))
    spectrum = np.zeros(grid.n, dtype=complex)
    np.add.at(spectrum, bins[usable], terms[usable])
    out = np.fft.ifft(spectrum) * (grid.n / np.sqrt(window_cm))
    return FieldGrid(out, grid, fieldgrid.z).normalized()


# ---------------------------------------------------------------------------
# lattice projections
# ---------------------------------------------------------------------------

def _band_amplitudes(amplitudes, params: SuperlatticeParams):
    """Per-q (r_minus, r_plus) of gauged site amplitudes shaped (..., n)."""
    qa_values, transform = sublattice_transform(params)
    s1, s2 = np.moveaxis(to_sublattice_pairs(amplitudes, transform), -1, 0)
    vm = _branch_vector(qa_values, Branch.MINUS, params)
    vp = _branch_vector(qa_values, Branch.PLUS, params)
    return qa_values, vm[0] * s1 + vm[1] * s2, vp[0] * s1 + vp[1] * s2


def lattice_band_amplitudes(state: ModeVector, params: SuperlatticeParams):
    """Per-q occupation amplitudes (r_minus, r_plus) of a gauged state."""
    if state.gauge is not Gauge.GAUGED:
        raise ParameterError("lattice projections need gauged amplitudes "
                             "(gauge_transform first)")
    return _band_amplitudes(state.amplitudes, params)


def lattice_transition_probability(source, params: SuperlatticeParams,
                                   profile: drv.DriveProfile = None,
                                   q_resolved: bool = False):
    """Upper-branch power fraction of a lattice state or trajectory.

    Bare-gauge input is gauge-transformed first (requires the drive).  A
    state is projected as a single snapshot and gives a float; a trajectory
    gives one fraction per snapshot, all snapshots projected in one
    product.  With q_resolved a state gives the per-momentum fractions
    P(q) = |r+|^2/(|r-|^2 + |r+|^2) together with the per-momentum weights;
    a trajectory with q_resolved is rejected.
    """
    if source.gauge is Gauge.BARE and profile is None:
        raise ParameterError("bare-gauge input needs the drive profile")
    trajectory = isinstance(source, LatticeTrajectory)
    if q_resolved and trajectory:
        raise ParameterError(
            "q_resolved needs a single state; pass one snapshot of the "
            "trajectory")
    amplitudes = source.states if trajectory else source.amplitudes
    if source.gauge is Gauge.BARE:
        # gauge_transform of each snapshot (a state is one):
        # a_l = c_l exp(+i Phi(z) l)
        phi = drv.phase(profile, source.z)
        amplitudes = amplitudes * np.exp(1j * np.multiply.outer(phi,
                                                                params.sites))
    qa_values, r_minus, r_plus = _band_amplitudes(amplitudes, params)
    pm = np.abs(r_minus) ** 2
    pp = np.abs(r_plus) ** 2
    if q_resolved:
        weights = pm + pp
        with np.errstate(invalid="ignore", divide="ignore"):
            pq = np.where(weights > 0, pp / weights, 0.0)
        return qa_values, pq, weights / weights.sum()
    p = np.sum(pp, axis=-1) / (np.sum(pm, axis=-1) + np.sum(pp, axis=-1))
    return p if trajectory else float(p)


# ---------------------------------------------------------------------------
# packet census and moments
# ---------------------------------------------------------------------------

def centroid(x, intensity) -> float:
    x = np.asarray(x, dtype=float)
    w = np.asarray(intensity, dtype=float)
    return float(np.sum(x * w) / np.sum(w))


def second_moment(x, intensity) -> float:
    x = np.asarray(x, dtype=float)
    w = np.asarray(intensity, dtype=float)
    mean = np.sum(x * w) / np.sum(w)
    return float(np.sum((x - mean) ** 2 * w) / np.sum(w))


@dataclass
class Packet:
    center: float
    power: float
    fraction: float
    velocity: float = None  # filled by track_packets


def packet_census(x, intensity, threshold: float = 0.1,
                  merge_radius: float = 20.0, min_points: int = 3):
    """Segment an intensity profile into packets above threshold * peak.

    Adjacent segments closer than merge_radius are merged (waveguide-scale
    substructure would otherwise fragment a single envelope).  Powers use
    the grid measure dx; fractions are relative to the total profile power.
    """
    if not (0.0 < threshold < 1.0):
        raise ParameterError("threshold must be in (0, 1)")
    x = np.asarray(x, dtype=float)
    w = np.asarray(intensity, dtype=float)
    peak = w.max(initial=0.0)
    if peak <= 0:
        return []
    dx = float(x[1] - x[0])
    above = np.where(w > threshold * peak)[0]
    if above.size == 0:
        return []
    breaks = np.where(np.diff(above) > 1)[0]
    segments = np.split(above, breaks + 1)
    merged = [list(segments[0])]
    for seg in segments[1:]:
        if (x[seg[0]] - x[merged[-1][-1]]) < merge_radius:
            merged[-1].extend(seg)
        else:
            merged.append(list(seg))
    total = float(np.sum(w) * dx)
    packets = []
    for seg in merged:
        if len(seg) < min_points:
            continue
        idx = np.arange(seg[0], seg[-1] + 1)
        power = float(np.sum(w[idx]) * dx)
        packets.append(Packet(centroid(x[idx], w[idx]), power, power / total))
    packets.sort(key=lambda p: p.center)
    return packets


def track_packets(z_values, x, intensities, threshold: float = 0.1,
                  merge_radius: float = 20.0, n_fit: int = 5,
                  max_jump: float = 40.0):
    """Census of the final snapshot with velocities from the trailing snapshots.

    Each final packet is traced backwards by nearest-centre matching over
    the last n_fit snapshots and its velocity estimated as the least-squares
    slope of centre versus z, which is robust to breathing oscillations.
    """
    final = packet_census(x, intensities[-1], threshold, merge_radius)
    n_avail = min(n_fit, len(z_values))
    history = [packet_census(x, intensities[i], threshold, merge_radius)
               for i in range(len(z_values) - n_avail, len(z_values))]
    z_used = np.asarray(z_values[len(z_values) - n_avail:], dtype=float)
    for packet in final:
        zs, cs = [], []
        ref = packet.center
        for zi, census in zip(z_used[::-1], history[::-1]):
            if not census:
                continue
            nearest = min(census, key=lambda p: abs(p.center - ref))
            if abs(nearest.center - ref) > max_jump:
                continue
            zs.append(zi)
            cs.append(nearest.center)
            ref = nearest.center
        if len(zs) >= 2:
            slope = np.polyfit(zs, cs, 1)[0]
            packet.velocity = float(slope)
    return final


@dataclass
class Observables:
    """Per-snapshot summary row for the observables CSV."""

    z: float
    band_power: tuple
    remainder: float
    centroid_x: float
    second_moment: float
    packet_count: int
    packets: list = field(default_factory=list)


def observables_series(traj, bands: BandStructure = None,
                       threshold: float = 0.1, merge_radius: float = None,
                       n_fit: int = 5):
    """Observables for every snapshot of a BPM trajectory."""
    grid = traj.grid
    if merge_radius is None:
        merge_radius = 2 * bands.optics.spacing_um if bands is not None else 20.0
    x = grid.x_um
    out = []
    intensities = np.abs(traj.fields) ** 2
    powers = traj.power()
    p_launch = powers[0]
    for i, z in enumerate(traj.z):
        if bands is not None:
            fg = traj.field_at(i)
            # fractions of the launch power, so the remainder column also
            # accounts for what the absorber removed
            pops = band_populations(fg, bands, n_bands=2) * (powers[i] / p_launch)
            remainder = max(0.0, 1.0 - float(np.sum(pops)))
            band_power = tuple(float(p) for p in pops)
        else:
            band_power = ()
            remainder = 0.0
        if i == len(traj.z) - 1:
            packets = track_packets(traj.z, x, intensities, threshold,
                                    merge_radius, n_fit)
        else:
            packets = packet_census(x, intensities[i], threshold, merge_radius)
        out.append(Observables(
            z=float(z),
            band_power=band_power,
            remainder=remainder,
            centroid_x=centroid(x, intensities[i]),
            second_moment=second_moment(x, intensities[i]),
            packet_count=len(packets),
            packets=packets,
        ))
    return out
