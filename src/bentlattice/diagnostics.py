"""Observable extraction: band populations, transition probability, packets.

Each observable has one entry: ``band_amplitudes`` and ``band_populations``
for the continuum minibands, ``lattice_band_amplitudes`` and
``lattice_transition_probability`` for the lattice branches (a state or a
trajectory, in either gauge), and ``observables_series`` for the per-snapshot
band powers and packet census of a BPM run.

Continuum band projections require the transverse window to span a whole
number of lattice cells; every window momentum then folds onto exactly one
Brillouin-zone representative and the Bloch modes of the window form an
orthonormal set, which makes the projections exactly power-complete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import drive as drv
from .bands import BandStructure, grid_q_values, plane_wave_bands
from .bpm import FieldGrid, OpticsParams, TransverseGrid
from .drive import CM_PER_UM
from .errors import ParameterError, ShapeError
from .tight_binding import (Branch, Gauge, LatticeTrajectory,
                            SuperlatticeParams, _branch_vector,
                            sublattice_momenta, to_sublattice_pairs)

# fewest samples above the census level that make a packet
MIN_PACKET_POINTS = 3
# trailing snapshots a packet velocity is fitted over
VELOCITY_FIT_SNAPSHOTS = 5


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
    a_cm = bands.optics.spacing_cm
    n_classes = window_cm / (2 * a_cm)
    if abs(n_classes - round(n_classes)) > 1e-9:
        raise ShapeError("grid window is not a whole number of lattice cells")
    n_classes = int(round(n_classes))
    if len(bands.q_values) != n_classes:
        raise ShapeError("band structure was not built for this grid "
                         "(use bands_for_grid)")


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
    the projected bands (unit-power fields give fractions directly).  All
    momenta are projected in one stacked product.
    """
    _check_projection_setup(fieldgrid, bands)
    grid = fieldgrid.grid
    window_cm = grid.width_um * CM_PER_UM
    k_all = grid.k_cm
    # continuum Fourier transform with the grid's true origin
    ehat = (np.fft.fft(fieldgrid.envelope) * grid.dx_um * CM_PER_UM
            * np.exp(-1j * k_all * grid.x_min_um * CM_PER_UM))
    _, bins, usable = _window_bins(grid, bands)
    spectrum = np.where(usable, ehat[bins], 0.0)
    # (n_bands, n_g) @ (n_g, 1) per momentum, as a stacked matmul: the same
    # products as one matrix-vector product per momentum, bit for bit
    # (einsum sums in another order)
    amps = (np.swapaxes(bands.coeffs, 1, 2) @ spectrum[:, :, None])[:, :, 0]
    return amps / np.sqrt(window_cm)


def band_populations(fieldgrid: FieldGrid, bands: BandStructure,
                     n_bands: int = 2) -> np.ndarray:
    """Power fractions carried by the lowest bands (remainder = 1 - sum)."""
    amps = band_amplitudes(fieldgrid, bands)
    power_cm = fieldgrid.power * CM_PER_UM
    fractions = np.sum(np.abs(amps) ** 2, axis=0) / power_cm
    return fractions[:n_bands]


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

def lattice_band_amplitudes(source, params: SuperlatticeParams,
                            profile: drv.DriveProfile = None):
    """Per-q occupation amplitudes (qa, r_minus, r_plus) of a lattice state
    or trajectory.

    Bare-gauge input is gauge-transformed first, which needs the drive.  A
    state gives amplitudes shaped (n/2,); a trajectory gives them shaped
    (n_snapshots, n/2), all snapshots projected in one FFT.
    """
    if source.gauge is Gauge.BARE and profile is None:
        raise ParameterError("bare-gauge input needs the drive profile")
    amplitudes = (source.states if isinstance(source, LatticeTrajectory)
                  else source.amplitudes)
    if source.gauge is Gauge.BARE:
        # gauge_transform of each snapshot (a state is one):
        # a_l = c_l exp(+i Phi(z) l)
        phi = drv.phase(profile, source.z)
        amplitudes = amplitudes * np.exp(1j * np.multiply.outer(phi,
                                                                params.sites))
    qa_values = sublattice_momenta(params)
    s1, s2 = np.moveaxis(to_sublattice_pairs(amplitudes, params), -1, 0)
    vm = _branch_vector(qa_values, Branch.MINUS, params)
    vp = _branch_vector(qa_values, Branch.PLUS, params)
    return qa_values, vm[0] * s1 + vm[1] * s2, vp[0] * s1 + vp[1] * s2


def lattice_transition_probability(source, params: SuperlatticeParams,
                                   profile: drv.DriveProfile = None):
    """Upper-branch power fraction, summed over the amplitudes of
    ``lattice_band_amplitudes``: a float for a state, one fraction per
    snapshot for a trajectory."""
    _, r_minus, r_plus = lattice_band_amplitudes(source, params, profile)
    pm = np.sum(np.abs(r_minus) ** 2, axis=-1)
    pp = np.sum(np.abs(r_plus) ** 2, axis=-1)
    p = pp / (pm + pp)
    return p if isinstance(source, LatticeTrajectory) else float(p)


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
    velocity: float = None  # filled by _fit_velocities


def _linear_moments(x, w):
    """Power and first moment of the piecewise-linear field through the
    nodes (x, w), each linear piece integrated exactly."""
    a, b = x[:-1], x[1:]
    fa, fb = w[:-1], w[1:]
    h = b - a
    power = np.sum(h * (fa + fb)) / 2
    moment = np.sum(h * (fa * (2 * a + b) + fb * (a + 2 * b))) / 6
    return float(power), float(moment)


def packet_census(x, intensity, threshold: float = 0.1,
                  merge_radius: float = 20.0):
    """Segment an intensity profile into packets above threshold * peak.

    Segments are runs of samples above the level; adjacent segments closer
    than merge_radius are merged (waveguide-scale substructure would
    otherwise fragment a single envelope).  A packet's power and centroid
    are those of the piecewise-linear field through the samples, taken
    between its interpolated level crossings (or the grid's end), so its
    edges are a property of the field, not of where the samples fall.
    Fractions are relative to the total profile power sum(w) dx.
    """
    if not (0.0 < threshold < 1.0):
        raise ParameterError("threshold must be in (0, 1)")
    x = np.asarray(x, dtype=float)
    w = np.asarray(intensity, dtype=float)
    peak = w.max(initial=0.0)
    if peak <= 0:
        return []
    dx = float(x[1] - x[0])
    level = threshold * peak
    above = np.where(w > level)[0]
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
        if len(seg) < MIN_PACKET_POINTS:
            continue
        lo, hi = seg[0], seg[-1]
        xs, ws = x[lo:hi + 1], w[lo:hi + 1]
        # the level crossings of the lines to the neighbouring samples
        if lo > 0:
            xs = np.r_[np.interp(level, w[[lo - 1, lo]], x[[lo - 1, lo]]), xs]
            ws = np.r_[level, ws]
        if hi < len(w) - 1:
            xs = np.r_[xs, np.interp(level, w[[hi + 1, hi]], x[[hi + 1, hi]])]
            ws = np.r_[ws, level]
        power, moment = _linear_moments(xs, ws)
        packets.append(Packet(moment / power, power, power / total))
    packets.sort(key=lambda p: p.center)
    return packets


def _fit_velocities(z_values, censuses, max_jump=40.0):
    """The last census, its packets given velocities from the trailing
    ``VELOCITY_FIT_SNAPSHOTS`` censuses (one per snapshot at ``z_values``)."""
    trailing = list(zip(z_values, censuses))[::-1][:VELOCITY_FIT_SNAPSHOTS]
    final = censuses[-1]
    for packet in final:
        zs, cs = [], []
        ref = packet.center
        for zi, census in trailing:
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
    packets: list


def observables_series(traj, bands: BandStructure, threshold: float = 0.1,
                       merge_radius: float = None):
    """Observables for every snapshot of a BPM trajectory; each snapshot's
    packet census is taken once, the final one's with velocities.

    ``bands`` must come from ``bands_for_grid`` on the trajectory's grid;
    the census merge radius defaults to two lattice spacings.
    """
    if merge_radius is None:
        merge_radius = 2 * bands.optics.spacing_um
    x = traj.grid.x_um
    intensities = np.abs(traj.fields) ** 2
    powers = intensities.sum(axis=1) * traj.grid.dx_um
    censuses = [packet_census(x, w, threshold, merge_radius)
                for w in intensities]
    _fit_velocities(traj.z, censuses)
    out = []
    for i, z in enumerate(traj.z):
        # fractions of the launch power, so the remainder column also
        # accounts for what the absorber removed
        pops = (band_populations(traj.field_at(i), bands, n_bands=2)
                * (powers[i] / powers[0]))
        out.append(Observables(
            z=float(z),
            band_power=tuple(float(p) for p in pops),
            remainder=max(0.0, 1.0 - float(np.sum(pops))),
            centroid_x=centroid(x, intensities[i]),
            packets=censuses[i],
        ))
    return out
