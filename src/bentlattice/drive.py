"""Waveguide-axis bending profiles and the gauge quantities they induce.

A bending profile x0(z) enters the lattice models only through the
dimensionless phase ``Phi(z) = 2 pi n_s a x0'(z) / lambda`` and the scaled
force ``F(z) = dPhi/dz``.  Longitudinal lengths (z, the bending period) are
held in cm, transverse lengths (amplitude, spacing) in micrometres and
converted internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, ParameterError

CM_PER_UM = 1.0e-4


class DriveKind(str, Enum):
    STRAIGHT = "straight"
    SINUSOIDAL = "sinusoidal"
    SINGLE_CYCLE = "single_cycle"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class DriveProfile:
    """Axis bending profile of a curved waveguide array.

    The sinusoidal profile is ``x0(z) = -A cos(2 pi z / Lambda)``; the
    single-cycle variant follows it for one period and then holds the axis
    straight (``x0 = -A``), so the induced phase vanishes outside the cycle.
    Tabulated profiles sample Phi(z) directly and are interpolated with a
    cubic spline; the force is the spline derivative, which keeps the
    phase/force pair exactly consistent.
    """

    kind: DriveKind
    amplitude_um: float = 0.0
    period_cm: float = 1.0
    n_s: float = 1.42
    wavelength_cm: float = 633e-7
    spacing_um: float = 10.0
    table_z_cm: tuple = None
    table_phi: tuple = None
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.wavelength_cm <= 0:
            raise ParameterError("wavelength must be positive")
        if self.spacing_um <= 0:
            raise ParameterError("waveguide spacing must be positive")
        if self.kind in (DriveKind.SINUSOIDAL, DriveKind.SINGLE_CYCLE):
            if self.period_cm <= 0:
                raise ParameterError("bending period must be positive")
            if self.amplitude_um < 0:
                raise ParameterError("bending amplitude must be non-negative")
        if self.kind is DriveKind.TABULATED:
            if self.table_z_cm is None or self.table_phi is None:
                raise ParameterError("tabulated profile needs (z, Phi) samples")
            z = np.asarray(self.table_z_cm, dtype=float)
            phi = np.asarray(self.table_phi, dtype=float)
            if z.ndim != 1 or z.shape != phi.shape or z.size < 4:
                raise ParameterError("tabulated profile needs >= 4 matching samples")
            if np.any(np.diff(z) <= 0):
                raise ParameterError("tabulated z samples must increase strictly")
            if z[0] != 0.0 or phi[0] != 0.0:
                raise ParameterError("tabulated profile must start at Phi(0) = 0")
            object.__setattr__(self, "table_z_cm", tuple(z))
            object.__setattr__(self, "table_phi", tuple(phi))
            object.__setattr__(self, "_spline", CubicSpline(z, phi))

    @classmethod
    def straight(cls, n_s=1.42, wavelength_cm=633e-7, spacing_um=10.0):
        return cls(DriveKind.STRAIGHT, n_s=n_s, wavelength_cm=wavelength_cm,
                   spacing_um=spacing_um)

    @classmethod
    def sinusoidal(cls, amplitude_um, period_cm, n_s=1.42, wavelength_cm=633e-7,
                   spacing_um=10.0):
        return cls(DriveKind.SINUSOIDAL, amplitude_um, period_cm, n_s,
                   wavelength_cm, spacing_um)

    @classmethod
    def single_cycle(cls, amplitude_um, period_cm, n_s=1.42, wavelength_cm=633e-7,
                     spacing_um=10.0):
        return cls(DriveKind.SINGLE_CYCLE, amplitude_um, period_cm, n_s,
                   wavelength_cm, spacing_um)

    @classmethod
    def tabulated(cls, z_cm, phi, n_s=1.42, wavelength_cm=633e-7, spacing_um=10.0):
        return cls(DriveKind.TABULATED, n_s=n_s, wavelength_cm=wavelength_cm,
                   spacing_um=spacing_um, table_z_cm=tuple(z_cm),
                   table_phi=tuple(phi))

    @classmethod
    def from_phase_amplitude(cls, kind, phi0, period_cm, n_s=1.42,
                             wavelength_cm=633e-7, spacing_um=10.0):
        """Build a (single-cycle) sinusoid whose phase amplitude equals phi0."""
        a_cm = spacing_um * CM_PER_UM
        amp_cm = phi0 * wavelength_cm * period_cm / (4 * np.pi**2 * n_s * a_cm)
        return cls(DriveKind(kind), amp_cm / CM_PER_UM, period_cm, n_s,
                   wavelength_cm, spacing_um)


def phase_amplitude(profile: DriveProfile) -> float:
    """Dimensionless drive amplitude Phi0 = 4 pi^2 n_s a A / (lambda Lambda).

    Straight profiles give 0; for tabulated profiles the peak |Phi| of the
    table is returned as the nearest equivalent.
    """
    if profile.kind is DriveKind.STRAIGHT:
        return 0.0
    if profile.kind is DriveKind.TABULATED:
        return float(np.max(np.abs(profile.table_phi)))
    a_cm = profile.spacing_um * CM_PER_UM
    amp_cm = profile.amplitude_um * CM_PER_UM
    return float(4 * np.pi**2 * profile.n_s * a_cm * amp_cm
                 / (profile.wavelength_cm * profile.period_cm))


def _check_z(profile, z):
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise DomainError("z must be non-negative")
    if profile.kind is DriveKind.TABULATED and np.any(z > profile.table_z_cm[-1]):
        raise DomainError(
            f"z beyond tabulated range [0, {profile.table_z_cm[-1]}]")
    return z


def phase(profile: DriveProfile, z) -> np.ndarray | float:
    """Gauge phase Phi(z) accumulated by the bent axis.  Accepts arrays."""
    zz = _check_z(profile, z)
    if profile.kind is DriveKind.STRAIGHT:
        out = np.zeros_like(zz)
    elif profile.kind is DriveKind.SINUSOIDAL:
        out = phase_amplitude(profile) * np.sin(2 * np.pi * zz / profile.period_cm)
    elif profile.kind is DriveKind.SINGLE_CYCLE:
        inside = zz <= profile.period_cm
        out = np.where(
            inside,
            phase_amplitude(profile) * np.sin(2 * np.pi * zz / profile.period_cm),
            0.0)
    else:
        out = profile._spline(zz)
    return float(out) if np.isscalar(z) else out


def force(profile: DriveProfile, z) -> np.ndarray | float:
    """Scaled force F(z) = dPhi/dz = 2 pi n_s a x0''(z) / lambda, in 1/cm."""
    zz = _check_z(profile, z)
    w = 2 * np.pi / profile.period_cm
    if profile.kind is DriveKind.STRAIGHT:
        out = np.zeros_like(zz)
    elif profile.kind is DriveKind.SINUSOIDAL:
        out = phase_amplitude(profile) * w * np.cos(w * zz)
    elif profile.kind is DriveKind.SINGLE_CYCLE:
        inside = zz < profile.period_cm
        out = np.where(inside, phase_amplitude(profile) * w * np.cos(w * zz), 0.0)
    else:
        out = profile._spline(zz, 1)
    return float(out) if np.isscalar(z) else out


def axis_offset_um(profile: DriveProfile, z):
    """Axis displacement x0(z) in micrometres (x0(0) = -A for bent kinds)."""
    zz = _check_z(profile, z)
    w = 2 * np.pi / profile.period_cm
    if profile.kind is DriveKind.STRAIGHT:
        out = np.zeros_like(zz)
    elif profile.kind is DriveKind.SINUSOIDAL:
        out = -profile.amplitude_um * np.cos(w * zz)
    elif profile.kind is DriveKind.SINGLE_CYCLE:
        inside = zz <= profile.period_cm
        out = np.where(inside, -profile.amplitude_um * np.cos(w * zz),
                       -profile.amplitude_um)
    else:
        # integrate x0' = lambda Phi / (2 pi n_s a) from the spline, x0(0) = 0
        a_cm = profile.spacing_um * CM_PER_UM
        scale = profile.wavelength_cm / (2 * np.pi * profile.n_s * a_cm)
        anti = profile._spline.antiderivative()
        out = scale * anti(zz) / CM_PER_UM
    return float(out) if np.isscalar(z) else out


def phase_integral(profile: DriveProfile, z0: float, z1: float) -> float:
    """Exact integral of Phi over [z0, z1] (closed form where available)."""
    if z1 < z0:
        return -phase_integral(profile, z1, z0)
    _check_z(profile, (z0, z1))
    if profile.kind is DriveKind.STRAIGHT:
        return 0.0
    if profile.kind is DriveKind.TABULATED:
        anti = profile._spline.antiderivative()
        return float(anti(z1) - anti(z0))
    w = 2 * np.pi / profile.period_cm
    phi0 = phase_amplitude(profile)
    if profile.kind is DriveKind.SINGLE_CYCLE:
        z0, z1 = max(z0, 0.0), min(z1, profile.period_cm)
        if z1 <= z0:
            return 0.0
    return phi0 / w * (np.cos(w * z0) - np.cos(w * z1))


def phase_sq_integral(profile: DriveProfile, z0: float, z1: float) -> float:
    """Integral of Phi^2 over [z0, z1]."""
    if z1 < z0:
        return -phase_sq_integral(profile, z1, z0)
    _check_z(profile, (z0, z1))
    if profile.kind is DriveKind.STRAIGHT:
        return 0.0
    if profile.kind is DriveKind.TABULATED:
        # 5-point Gauss-Legendre is exact enough for per-step spline segments
        nodes, weights = np.polynomial.legendre.leggauss(5)
        mid, half = 0.5 * (z0 + z1), 0.5 * (z1 - z0)
        vals = profile._spline(mid + half * nodes) ** 2
        return float(half * np.dot(weights, vals))
    w = 2 * np.pi / profile.period_cm
    phi0 = phase_amplitude(profile)
    if profile.kind is DriveKind.SINGLE_CYCLE:
        z0, z1 = max(z0, 0.0), min(z1, profile.period_cm)
        if z1 <= z0:
            return 0.0
    term = 0.5 * (z1 - z0) - (np.sin(2 * w * z1) - np.sin(2 * w * z0)) / (4 * w)
    return float(phi0**2 * term)
