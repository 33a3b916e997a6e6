"""Pseudospectral split-step propagation of the continuum paraxial field.

The solver works in the waveguide reference frame where the array is
straight and the axis bending appears as a z-dependent linear potential.
Both split-step substeps are pure phase multiplications, so with the
boundary absorber at zero strength the scheme is exactly unitary on the
periodic grid.  An alternative gauge (``bpm_run(gauge=...)``) moves the
bending into a z-dependent momentum shift of the diffraction kernel; the
two agree on band populations and the cross-check is one of the validation
suites.

``bpm_run`` imports ``scipy.fft`` when it is called (its 8192-point FFT is
a little faster than numpy's), so the other tiers never load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import drive as drv
from .drive import CM_PER_UM
from .errors import (DomainError, GeometryError, ParameterError, ShapeError,
                     require_positive)
from .integrate import snapshot_steps, step_grid

# fixed target step of the beam propagation, independent of the drive
DEFAULT_DZ_CM = 5e-4


class ChannelShape(str, Enum):
    SUPER_GAUSSIAN = "super_gaussian"
    RAISED_COSINE = "raised_cosine"


@dataclass(frozen=True)
class OpticsParams:
    """Continuum description of the binary superlattice.

    dn1/dn2 are the peak index changes of the two interleaved channel
    families; channel_width_um is the 1/e half-width of the channel shape.
    The defaults carry the calibrated geometry that reproduces the
    tight-binding constants used across the package (see bands.calibrate_channel).
    """

    n_s: float = 1.42
    wavelength_cm: float = 633e-7
    dn1: float = 0.002
    dn2: float = 0.001957609
    spacing_um: float = 10.0
    channel_width_um: float = 3.301315
    channel_shape: ChannelShape = ChannelShape.SUPER_GAUSSIAN
    sg_order: int = 4

    def __post_init__(self):
        require_positive(wavelength_cm=self.wavelength_cm, n_s=self.n_s,
                         spacing_um=self.spacing_um,
                         channel_width_um=self.channel_width_um)
        if not (self.dn1 >= self.dn2 > 0):
            raise ParameterError("index changes must satisfy dn1 >= dn2 > 0")
        if self.sg_order < 2 or self.sg_order % 2 != 0:
            raise ParameterError("super-Gaussian order must be even and >= 2")

    @property
    def spacing_cm(self):
        return self.spacing_um * CM_PER_UM

    @property
    def diffraction_cm(self):
        """Kernel coefficient lambda / (4 pi n_s) of the transverse Laplacian."""
        return self.wavelength_cm / (4 * np.pi * self.n_s)


DEFAULT_OPTICS = OpticsParams()


def sample_index_change(optics: OpticsParams, offset_um):
    """Unit-peak channel shape g(x) evaluated at offsets from the center."""
    x = np.asarray(offset_um, dtype=float)
    w = optics.channel_width_um
    if optics.channel_shape is ChannelShape.SUPER_GAUSSIAN:
        return np.exp(-((x / w) ** optics.sg_order))
    out = np.where(np.abs(x) < w, np.cos(np.pi * x / (2 * w)) ** 2, 0.0)
    return out


@dataclass(frozen=True)
class TransverseGrid:
    """Uniform transverse grid in micrometres, centred on x = 0."""

    x_min_um: float
    dx_um: float
    n: int

    @classmethod
    def for_cells(cls, optics: OpticsParams, n_cells: int = 41,
                  n_points: int = 4096) -> "TransverseGrid":
        """Window spanning a whole number of 2a cells (needed for projections)."""
        require_positive(grid_cells=n_cells, grid_points=n_points)
        width = n_cells * 2 * optics.spacing_um
        return cls(-width / 2, width / n_points, n_points)

    @property
    def x_um(self):
        return self.x_min_um + self.dx_um * np.arange(self.n)

    @property
    def x_cm(self):
        return self.x_um * CM_PER_UM

    @property
    def width_um(self):
        return self.n * self.dx_um

    @property
    def k_cm(self):
        """Transverse wavenumbers in rad/cm (fft ordering)."""
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx_um * CM_PER_UM)


@dataclass
class FieldGrid:
    """Sampled complex envelope on a transverse grid at one z."""

    envelope: np.ndarray
    grid: TransverseGrid
    z: float = 0.0

    def __post_init__(self):
        if self.envelope.shape != (self.grid.n,):
            raise ShapeError("envelope length must match the grid")

    @property
    def intensity(self):
        return np.abs(self.envelope) ** 2

    @property
    def power(self):
        """Power with the um-normalised measure used across the package."""
        return float(np.sum(self.intensity) * self.grid.dx_um)

    def normalized(self) -> "FieldGrid":
        return FieldGrid(self.envelope / np.sqrt(self.power), self.grid, self.z)


@dataclass(frozen=True)
class AbsorberSpec:
    """Raised-cosine damping ramp on the outer fraction of each grid side;
    a strength of 0 turns it off."""

    fraction: float = 0.10
    strength_cm: float = 600.0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 0.5:
            raise ParameterError("absorber fraction must lie in [0, 0.5]")
        # a negative strength would turn the damping ramp into gain
        if not 0.0 <= self.strength_cm < math.inf:
            raise ParameterError("absorber strength_cm must be non-negative "
                                 f"and finite, got {self.strength_cm!r}")

    def ramps(self, n: int):
        """Slices of the damped points on the left and right grid edges.

        Empty at zero strength or when the ramp is narrower than one point,
        so an absorber that damps nothing costs the step loop no work.
        """
        n_ab = int(n * self.fraction) if self.strength_cm else 0
        return (slice(0, n_ab), slice(n - n_ab, n)) if n_ab else ()

    def damping(self, n: int):
        gamma = np.zeros(n)
        ramps = self.ramps(n)
        if ramps:
            left, right = ramps
            n_ab = left.stop
            ramp = np.sin(0.5 * np.pi * np.arange(1, n_ab + 1) / n_ab) ** 2
            gamma[left] = self.strength_cm * ramp[::-1]
            gamma[right] = self.strength_cm * ramp
        return gamma


def build_index_profile(optics: OpticsParams, n_guides: int, grid: TransverseGrid):
    """Absolute index n(x) of the finite array on the given grid.

    Channels sit at x = j a with even j carrying dn1 (sublattice A, so the
    guide at x = 0 is an A guide) and odd j carrying dn2.
    """
    if n_guides % 2 != 0 or n_guides < 2:
        raise ParameterError("n_guides must be even and >= 2")
    if optics.channel_width_um >= optics.spacing_um:
        raise GeometryError("channels overlap: width >= spacing")
    x = grid.x_um
    dn = np.zeros(grid.n)
    for j in range(-n_guides // 2, n_guides // 2):
        peak = optics.dn1 if j % 2 == 0 else optics.dn2
        dn += peak * sample_index_change(optics, x - j * optics.spacing_um)
    return optics.n_s + dn


def bragg_angle(optics: OpticsParams) -> float:
    """Input tilt exciting the zone-edge wavenumber: theta_B = lambda/(4 n_s a)."""
    return optics.wavelength_cm / (4 * optics.n_s * optics.spacing_cm)


def gaussian_tilted_input(w0_um: float, theta_rad: float, optics: OpticsParams,
                          grid: TransverseGrid) -> FieldGrid:
    """Broad Gaussian excitation exp[-(x/w0)^2] exp(2 pi i n_s x theta/lambda).

    Normalised to unit power.  The grid should be at least ~6 w0 wide plus
    the absorber margin; narrower windows raise DomainError.  A spot below
    the grid spacing would be a one-point spike, so it is rejected.
    """
    require_positive(w0_um=w0_um)
    if w0_um < grid.dx_um:
        raise ParameterError(f"spot size w0_um = {w0_um!r} is below the grid "
                             f"spacing dx = {grid.dx_um!r} um")
    if grid.width_um < 6 * w0_um:
        raise DomainError("grid narrower than 6 spot sizes")
    x_um = grid.x_um
    carrier = 2 * np.pi * optics.n_s * theta_rad / optics.wavelength_cm
    env = np.exp(-((x_um / w0_um) ** 2)) * np.exp(1j * carrier * grid.x_cm)
    return FieldGrid(env.astype(complex), grid, 0.0).normalized()


class BpmGauge(str, Enum):
    BENT_FRAME = "bent_frame"
    SHIFTED_K = "shifted_k"


@dataclass
class BpmTrajectory:
    z: np.ndarray
    fields: np.ndarray  # (n_snapshots, n) complex
    grid: TransverseGrid
    absorbed: np.ndarray  # cumulative absorbed power fraction per snapshot

    @property
    def final(self) -> FieldGrid:
        return FieldGrid(self.fields[-1].copy(), self.grid, float(self.z[-1]))

    def field_at(self, i: int) -> FieldGrid:
        return FieldGrid(self.fields[i].copy(), self.grid, float(self.z[i]))

    def power(self):
        return np.sum(np.abs(self.fields) ** 2, axis=1) * self.grid.dx_um


def bpm_run(field: FieldGrid, optics: OpticsParams, profile: drv.DriveProfile,
            z_end: float, dz_cm: float = DEFAULT_DZ_CM, snapshot_every: int = None,
            n_guides: int = 60, absorber: AbsorberSpec = AbsorberSpec(),
            gauge: BpmGauge = BpmGauge.BENT_FRAME,
            index_profile: np.ndarray = None,
            intake_warn: float = 1e-3, intake_error: float = 1e-2) -> BpmTrajectory:
    """Strang split-step propagation of the paraxial envelope to z_end.

    bent_frame applies the axis bending as a linear potential evaluated at
    each step midpoint; shifted_k keeps the potential static and shifts the
    diffraction kernel by Phi(z)/a with exact per-step phase integrals.
    Absorbed power beyond ``intake_warn`` of the launch power warns, beyond
    ``intake_error`` raises DomainError.
    """
    import scipy.fft as sfft

    gauge = BpmGauge(gauge)
    grid = field.grid
    if index_profile is None:
        index_profile = build_index_profile(optics, n_guides, grid)
    if index_profile.shape != (grid.n,):
        raise ShapeError("index profile length must match the grid")
    n_steps, h = step_grid(z_end - field.z, dz_cm)
    steps = snapshot_steps(n_steps, snapshot_every)

    x_cm = grid.x_cm
    k_cm = grid.k_cm
    v_static = 2 * np.pi * (optics.n_s - index_profile) / optics.wavelength_cm
    kinetic = np.exp(-1j * optics.diffraction_cm * k_cm**2 * h)
    mask = np.exp(-absorber.damping(grid.n) * h)
    # power removed per step is sum |env|^2 (1 - mask^2) over the ramps
    edges = [(s, mask[s], 1.0 - mask[s] ** 2) for s in absorber.ramps(grid.n)]
    a_cm = optics.spacing_cm
    z_start = field.z + np.arange(n_steps) * h
    if gauge is BpmGauge.BENT_FRAME:
        bends = drv.force(profile, z_start + h / 2) / a_cm
    else:
        phase_half = np.exp(-1j * v_static * (h / 2))
        # kinetic symbol (k - Phi(z)/a)^2 integrated exactly over each step
        phi_ints = drv.phase_integral(profile, z_start, z_start + h)
        phi_sq_ints = drv.phase_sq_integral(profile, z_start, z_start + h)

    env = field.envelope.astype(complex)
    p_launch = float(np.sum(np.abs(env) ** 2) * grid.dx_um)
    absorbed_total = 0.0
    warned = False

    fields = np.empty((len(steps), grid.n), dtype=complex)
    fields[0] = env
    absorbed = np.zeros(len(steps))
    k = 1
    step_phase = None  # (drive value, phase array) of the previous step
    for i in range(n_steps):
        # the phases are rebuilt only when the drive changes, so straight
        # stretches of the axis reuse the previous step's arrays
        if gauge is BpmGauge.BENT_FRAME:
            if step_phase is None or bends[i] != step_phase[0]:
                step_phase = (bends[i], np.exp(
                    -1j * (v_static + bends[i] * x_cm) * (h / 2)))
            phase_half = step_phase[1]
            kernel = kinetic
        else:
            ints = (phi_ints[i], phi_sq_ints[i])
            if step_phase is None or ints != step_phase[0]:
                chi = optics.diffraction_cm * (
                    k_cm**2 * h - 2 * k_cm * ints[0] / a_cm
                    + ints[1] / a_cm**2)
                step_phase = (ints, np.exp(-1j * chi))
            kernel = step_phase[1]
        env *= phase_half
        spectrum = sfft.fft(env, overwrite_x=True)
        spectrum *= kernel
        env = sfft.ifft(spectrum, overwrite_x=True)
        env *= phase_half
        for edge, edge_mask, edge_loss in edges:
            part = env[edge]
            absorbed_total += float(
                np.dot(part.real**2 + part.imag**2, edge_loss) * grid.dx_um)
            part *= edge_mask
        intake = absorbed_total / p_launch
        if intake > intake_error:
            raise DomainError(
                f"absorber intake {intake:.2e} of launch power at z = "
                f"{field.z + (i + 1) * h:.3g} cm; widen the grid")
        if intake > intake_warn and not warned:
            warnings.warn(
                f"absorber intake passed {intake_warn:.0e} of launch power",
                stacklevel=2)
            warned = True
        if i + 1 == steps[k]:
            fields[k] = env
            absorbed[k] = intake
            k += 1
    return BpmTrajectory(field.z + steps * h, fields, grid, absorbed)


def gaussian_width_after(w0_um: float, z_cm: float, optics: OpticsParams) -> float:
    """Closed-form 1/e amplitude half-width of a freely diffracting Gaussian."""
    rayleigh = np.pi * optics.n_s * (w0_um * CM_PER_UM) ** 2 / optics.wavelength_cm
    return w0_um * np.sqrt(1.0 + (z_cm / rayleigh) ** 2)
