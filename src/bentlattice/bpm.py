"""Pseudospectral split-step propagation of the continuum paraxial field.

The solver works in the waveguide reference frame where the array is
straight and the axis bending appears as a z-dependent linear potential.
Both split-step substeps are pure phase multiplications, so with the
boundary absorber at zero strength the scheme is exactly unitary on the
periodic grid.  The tests check the loop against a periodic-cell
reference that carries the bending as a momentum shift of the kinetic
term instead.

The step loop costs little more than its FFT pair: one x-space multiply
per step.  Strang splitting lets the trailing half-step exp(-i V h/2) of one
step and the leading half-step of the next combine into one exp(-i V h), so
the leading half-step is applied once before the loop, and each step is the
FFT pair with its kernel followed by one multiply with exp(-i V h) times the
absorber mask times the drive's linear factors of both half-steps.  A
snapshot reads the state through the trailing half-step and the mask alone
and never writes back into the stepped field, so every state is the same
bit for bit whatever the snapshot stride.  Where the drive changes, the
bent frame's linear factor exp(-i b x h/2) is linear in the grid index, so
``_linear_phase`` builds it as the outer product of two exp vectors of
about sqrt(n) points; on straight stretches the composite array is built
once.  The phases have unit modulus, so each
absorber ramp's intake is one square and one dot on the float view of the
field as the FFT pair leaves it, and the intake ratio is taken only once
the absorbed power nears a threshold.

``bpm_run`` imports ``scipy.fft`` when it is called (on the bundled
presets' 2048-point grid its FFT pair with the kernel multiply took 39 us
against numpy's 48 us on a 2-core Intel Xeon VM, best of seven repeats of
2000 pairs), so the other tiers never load it.
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
    # a channel is exactly 0.0 beyond its reach (exp(-t) underflows for
    # t > 745.2), so each guide adds its shape over its own window only;
    # the points it skips would gain +0.0, so the sum is the dense one
    w = optics.channel_width_um
    if optics.channel_shape is ChannelShape.SUPER_GAUSSIAN:
        reach = w * 750.0 ** (1.0 / optics.sg_order)
    else:
        reach = w
    a, x0, dx = optics.spacing_um, grid.x_min_um, grid.dx_um
    # only the guides whose window meets the grid, in their order
    first = max(-n_guides // 2, math.floor((x[0] - reach) / a) - 1)
    stop = min(n_guides // 2, math.ceil((x[-1] + reach) / a) + 2)
    for j in range(first, stop):
        center = j * a
        # one point of slack on each side covers the rounding of x
        lo = max(math.floor((center - reach - x0) / dx) - 1, 0)
        hi = min(math.ceil((center + reach - x0) / dx) + 2, grid.n)
        if lo < hi:
            peak = optics.dn1 if j % 2 == 0 else optics.dn2
            dn[lo:hi] += peak * sample_index_change(optics, x[lo:hi] - center)
    return optics.n_s + dn


def bragg_angle(optics: OpticsParams) -> float:
    """Input tilt exciting the zone-edge wavenumber: theta_B = lambda/(4 n_s a)."""
    return optics.wavelength_cm / (4 * optics.n_s * optics.spacing_cm)


def gaussian_tilted_input(w0_um: float, theta_rad: float, optics: OpticsParams,
                          grid: TransverseGrid) -> FieldGrid:
    """Broad Gaussian excitation exp[-(x/w0)^2] exp(2 pi i n_s x theta/lambda).

    Normalised to unit power.  The grid should be at least ~6 w0 wide plus
    the absorber margin; narrower windows raise DomainError.  A spot below
    the grid spacing (a one-point spike) and a carrier at or past the
    Nyquist wavenumber pi/dx (it would alias) are rejected.
    """
    require_positive(w0_um=w0_um)
    if w0_um < grid.dx_um:
        raise ParameterError(f"spot size w0_um = {w0_um!r} is below the grid "
                             f"spacing dx = {grid.dx_um!r} um")
    carrier = 2 * np.pi * optics.n_s * theta_rad / optics.wavelength_cm
    if not abs(carrier) < np.pi / (grid.dx_um * CM_PER_UM):
        raise ParameterError(f"tilt theta = {theta_rad!r} rad reaches the "
                             "grid's Nyquist wavenumber pi/dx")
    if grid.width_um < 6 * w0_um:
        raise DomainError("grid narrower than 6 spot sizes")
    x_um = grid.x_um
    env = np.exp(-((x_um / w0_um) ** 2)) * np.exp(1j * carrier * grid.x_cm)
    return FieldGrid(env.astype(complex), grid, 0.0).normalized()


def _linear_phase(n, offset, slope):
    """exp(-i (offset + slope j)) for j = 0 .. n - 1.

    With n = m r for the largest divisor m of n at or below sqrt(n), the
    index splits as j = r a + b, so the n exponentials become the outer
    product of m row factors and r column factors.  At a prime n the split
    degenerates to one factor of length n, which is the direct form.
    """
    m = next(d for d in range(max(math.isqrt(n), 1), 0, -1) if n % d == 0)
    r = n // m
    rows = np.exp(-1j * (offset + (slope * r) * np.arange(m)))
    cols = np.exp(-1j * slope * np.arange(r))
    return np.multiply.outer(rows, cols).ravel()


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
            index_profile: np.ndarray = None,
            intake_warn: float = 1e-3, intake_error: float = 1e-2) -> BpmTrajectory:
    """Strang split-step propagation of the paraxial envelope to z_end.

    Each step is exp(-i W h/2) exp(-i D k^2 h) exp(-i W h/2), where W is the
    static potential of the array plus the bend's linear potential b x, its
    slope b = F/a taken at the step midpoint.  Absorbed power beyond
    ``intake_warn`` of the launch power warns, beyond ``intake_error``
    raises DomainError naming the step's z.  A launch power or threshold
    that is not positive and finite is a ParameterError.
    """
    import scipy.fft as sfft

    require_positive(intake_warn=intake_warn, intake_error=intake_error)
    grid = field.grid
    env = field.envelope.astype(complex)
    p_launch = float(np.sum(np.abs(env) ** 2) * grid.dx_um)
    require_positive(launch_power=p_launch)
    if index_profile is None:
        index_profile = build_index_profile(optics, n_guides, grid)
    if index_profile.shape != (grid.n,):
        raise ShapeError("index profile length must match the grid")
    n_steps, h = step_grid(z_end - field.z, dz_cm)
    steps = snapshot_steps(n_steps, snapshot_every)

    n = grid.n
    x0_cm, dx_cm = grid.x_min_um * CM_PER_UM, grid.dx_um * CM_PER_UM
    kinetic = np.exp(-1j * optics.diffraction_cm * grid.k_cm**2 * h)
    z_start = field.z + np.arange(n_steps) * h
    # coefficient c = b h/2 of each half-step's factor exp(-i c x), with b
    # the slope of the bend's linear potential b x at the step midpoint
    coefs = drv.force(profile, z_start + h / 2) / optics.spacing_cm * (h / 2)

    def bent(base, c):
        """base * exp(-i c x), or base itself on a straight axis."""
        return base * _linear_phase(n, c * x0_cm, c * dx_cm) if c else base

    # the trailing half-step of one step, the absorber mask and the leading
    # half-step of the next are one multiply; a snapshot reads the state
    # through the trailing half-step and the mask alone
    v_static = 2 * np.pi * (optics.n_s - index_profile) / optics.wavelength_cm
    static_half = np.exp(-1j * v_static * (h / 2))
    mask = np.exp(-absorber.damping(n) * h)
    trail_static = static_half * mask
    fused_static = np.exp(-1j * v_static * h) * mask
    # power removed per step is dx sum |env|^2 (1 - mask^2) over the ramps;
    # the phases have unit modulus, so |env|^2 is read before they apply.
    # On the float view of a ramp each weight serves a (re, im) pair
    edges = [(s, np.repeat((1.0 - mask[s] ** 2) * grid.dx_um, 2))
             for s in absorber.ramps(n)]
    # below this absorbed power neither intake threshold can be passed:
    # rounding is monotone, so absorbed / p_launch > t needs
    # absorbed >= t * p_launch as rounded
    intake_gate = min(intake_warn, intake_error) * p_launch

    absorbed_total = 0.0
    warned = False
    fields = np.empty((len(steps), n), dtype=complex)
    fields[0] = env
    env *= bent(static_half, coefs[0])
    del v_static, static_half, mask
    absorbed = np.zeros(len(steps))
    k = 1
    fused_drive = None  # drive value of the current fused array
    for i in range(n_steps):
        spectrum = sfft.fft(env, overwrite_x=True)
        spectrum *= kinetic
        env = sfft.ifft(spectrum, overwrite_x=True)
        for edge, edge_loss in edges:
            absorbed_total += np.dot(np.square(env[edge].view(float)),
                                     edge_loss)
        if absorbed_total >= intake_gate:
            intake = absorbed_total / p_launch
            if intake > intake_error:
                raise DomainError(
                    f"absorber intake {intake:.2e} of launch power at z = "
                    f"{field.z + (i + 1) * h:.6g} cm; widen the grid")
            if intake > intake_warn and not warned:
                warnings.warn(
                    f"absorber intake passed {intake_warn:.0e} of launch "
                    "power", stacklevel=2)
                warned = True
        if i + 1 == steps[k]:
            np.multiply(env, bent(trail_static, coefs[i]), out=fields[k])
            absorbed[k] = absorbed_total / p_launch
            k += 1
        if i + 1 < n_steps:
            # straight stretches of the axis reuse the previous step's array
            drive_sum = coefs[i] + coefs[i + 1]
            if drive_sum != fused_drive:
                fused_drive = drive_sum
                fused = bent(fused_static, drive_sum)
            env *= fused
    return BpmTrajectory(field.z + steps * h, fields, grid, absorbed)


def gaussian_width_after(w0_um: float, z_cm: float, optics: OpticsParams) -> float:
    """Closed-form 1/e amplitude half-width of a freely diffracting Gaussian."""
    rayleigh = np.pi * optics.n_s * (w0_um * CM_PER_UM) ** 2 / optics.wavelength_cm
    return w0_um * np.sqrt(1.0 + (z_cm / rayleigh) ** 2)
