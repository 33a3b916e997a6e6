"""Coupled-mode dynamics on the binary superlattice.

Site amplitudes live on a chain indexed symmetrically about 0 (l from -n/2
to n/2 - 1); even sites form sublattice A (high-index channels, on-site
detuning +delta), odd sites sublattice B (-delta).  The bare gauge carries
the drive as the linear potential F(z) l; the gauged form trades it for
complex hopping phases exp(-+ i Phi(z)), which stays bounded for strong
drives and admits periodic boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import drive as drv
from .drive import CM_PER_UM
from .errors import AccuracyError, ParameterError
from .integrate import CHECK_EVERY, default_dz, rk4_evolve


class Gauge(str, Enum):
    BARE = "bare"
    GAUGED = "gauged"


class Branch(str, Enum):
    PLUS = "plus"
    MINUS = "minus"


class Boundary(str, Enum):
    PERIODIC = "periodic"
    HARD_WALL = "hard_wall"


# sqrt(delta^2 + 4 sigma^2) must stay below this so that the squared
# splitting delta^2 + 4 sigma^2 cos^2(qa) of the couplings is finite
_MAX_SPLITTING = math.sqrt(np.finfo(float).max)


@dataclass(frozen=True)
class SuperlatticeParams:
    """Tight-binding constants of the binary array.

    sigma_cm : coupling rate between adjacent waveguides (1/cm)
    delta_cm : half the propagation-constant mismatch of the sublattices (1/cm)
    spacing_um : distance between adjacent waveguides (um)
    n_sites : chain length, even so the array holds whole A/B cells
    """

    sigma_cm: float
    delta_cm: float
    spacing_um: float = 10.0
    n_sites: int = 64

    def __post_init__(self):
        if self.sigma_cm <= 0:
            raise ParameterError("sigma must be positive")
        if self.delta_cm < 0:
            raise ParameterError("delta must be non-negative")
        if not math.hypot(self.delta_cm, 2 * self.sigma_cm) < _MAX_SPLITTING:
            raise ParameterError(
                f"sigma = {self.sigma_cm!r} and delta = {self.delta_cm!r} "
                "overflow delta^2 + 4 sigma^2")
        if self.n_sites % 2 != 0 or self.n_sites < 4:
            raise ParameterError("n_sites must be even and >= 4")

    @property
    def spacing_cm(self):
        return self.spacing_um * CM_PER_UM

    @property
    def sites(self):
        return np.arange(self.n_sites) - self.n_sites // 2

    @property
    def sublattice_sign(self):
        """(-1)^l per site: +1 on sublattice A (even l), -1 on B."""
        return np.where(self.sites % 2 == 0, 1.0, -1.0)

    def q_from_qa(self, qa):
        """Wavenumber in rad/cm for a given dimensionless qa."""
        return qa / self.spacing_cm


@dataclass
class ModeVector:
    """Complex site amplitudes at a single z, tagged with their gauge."""

    amplitudes: np.ndarray
    gauge: Gauge
    z: float = 0.0

    @property
    def power(self):
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass
class LatticeTrajectory:
    z: np.ndarray
    states: np.ndarray  # (n_snapshots, n_sites) complex
    gauge: Gauge
    params: SuperlatticeParams

    @property
    def final(self) -> ModeVector:
        return ModeVector(self.states[-1].copy(), self.gauge, float(self.z[-1]))

    def power(self):
        return np.sum(np.abs(self.states) ** 2, axis=1)

    def edge_power_fraction(self, n_edge: int = 2):
        """Largest per-snapshot power share on the outermost sites.

        Hard-wall runs are only faithful to the bulk model while this stays
        small (packets must not reach the truncated couplings).
        """
        edges = np.concatenate([np.abs(self.states[:, :n_edge]) ** 2,
                                np.abs(self.states[:, -n_edge:]) ** 2], axis=1)
        return float(np.max(edges.sum(axis=1) / self.power()))


def dispersion(q, params: SuperlatticeParams):
    """Miniband pair (omega_minus, omega_plus) at wavenumber q (rad/cm)."""
    qa = np.asarray(q) * params.spacing_cm
    w = np.sqrt(params.delta_cm**2 + 4 * params.sigma_cm**2 * np.cos(qa) ** 2)
    return -w, w


def group_velocity(q, params: SuperlatticeParams, branch: Branch):
    """d omega/d q of one branch, in cm of transverse drift per cm of z."""
    qa = np.asarray(q) * params.spacing_cm
    w = np.sqrt(params.delta_cm**2 + 4 * params.sigma_cm**2 * np.cos(qa) ** 2)
    dw_dqa = -2 * params.sigma_cm**2 * np.sin(2 * qa) / w
    sign = 1.0 if branch is Branch.PLUS else -1.0
    return sign * dw_dqa * params.spacing_cm


def bloch_eigenvector(q, branch: Branch, params: SuperlatticeParams) -> np.ndarray:
    """Unit (s1, s2) sublattice eigenvector of the straight-array cell.

    At the exact gap edge (qa = pi/2) the generic normalisation degenerates;
    the fixed convention there is v_minus = (0, 1), v_plus = (1, 0).
    """
    qa = float(q) * params.spacing_cm
    sigma, delta = params.sigma_cm, params.delta_cm
    c = np.cos(qa)
    w = np.sqrt(delta**2 + 4 * sigma**2 * c**2)
    if abs(c) < 1e-14:
        if delta == 0.0:
            from .errors import DegenerateGapError
            raise DegenerateGapError("delta = 0 at the zone edge: gap closed")
        return np.array([0.0, 1.0]) if branch is Branch.MINUS else np.array([1.0, 0.0])
    wb = w if branch is Branch.PLUS else -w
    norm = np.sqrt(2 * w * abs(wb - delta))
    return np.array([-2 * sigma * c, wb - delta]) / norm


def bloch_mode_state(q, branch: Branch, params: SuperlatticeParams,
                     gauge: Gauge = Gauge.GAUGED) -> ModeVector:
    """Plane-wave Bloch mode: (s1 on even, s2 on odd sites) * exp(i q l a)."""
    v = bloch_eigenvector(q, branch, params)
    l = params.sites
    qa = float(q) * params.spacing_cm
    amps = np.where(l % 2 == 0, v[0], v[1]) * np.exp(1j * qa * l)
    amps = amps / np.linalg.norm(amps)
    return ModeVector(amps.astype(complex), gauge, 0.0)


def gaussian_packet_state(q0, width_sites, params: SuperlatticeParams,
                          branch: Branch = Branch.MINUS, center_site: float = 0.0,
                          gauge: Gauge = Gauge.GAUGED) -> ModeVector:
    """Gaussian superposition of single-branch Bloch modes.

    Built mode by mode in q space on the periodic chain, so the state is an
    exact single-band packet (each q component is the branch eigenvector at
    that q), not an envelope approximation.
    """
    n = params.n_sites
    l = params.sites
    qa0 = float(q0) * params.spacing_cm
    amps = np.zeros(n, dtype=complex)
    sig_qa = 2.0 / width_sites  # Fourier width of exp(-(l/width)^2)
    for j in range(-n // 2, n // 2):
        qa = qa0 + 2 * np.pi * j / n
        weight = np.exp(-((qa - qa0) / sig_qa) ** 2)
        if weight < 1e-16:
            continue
        v = bloch_eigenvector(qa / params.spacing_cm, branch, params)
        amps += (weight * np.exp(-1j * qa * center_site)
                 * np.where(l % 2 == 0, v[0], v[1]) * np.exp(1j * qa * l))
    amps /= np.linalg.norm(amps)
    return ModeVector(amps, gauge, 0.0)


def gauge_transform(state: ModeVector, profile: drv.DriveProfile,
                    to_gauge: Gauge) -> ModeVector:
    """Per-site phase map c_l = a_l exp(-i Phi(z) l) between the two gauges."""
    if state.gauge == to_gauge:
        return ModeVector(state.amplitudes.copy(), state.gauge, state.z)
    phi = drv.phase(profile, state.z)
    l = np.arange(len(state.amplitudes)) - len(state.amplitudes) // 2
    if to_gauge is Gauge.BARE:      # c from a
        factor = np.exp(-1j * phi * l)
    else:                           # a from c
        factor = np.exp(+1j * phi * l)
    return ModeVector(state.amplitudes * factor, to_gauge, state.z)


def _evolve(state, params, profile, z_end, dz, snapshot_every, boundary,
            rhs_factory, power_tol):
    if dz is None:
        dz = default_dz(profile)
    boundary = Boundary(boundary)
    samples, rhs = rhs_factory(params, profile, boundary)
    p0 = state.power
    drift_seen = [0.0]

    def monitor(i, z, y):
        if (i + 1) % CHECK_EVERY == 0:
            drift = abs(np.sum(np.abs(y) ** 2) - p0) / p0
            drift_seen[0] = max(drift_seen[0], drift)
            if drift > power_tol:
                raise AccuracyError(
                    f"power drifted by {drift:.2e} at z = {z:.4g} cm; "
                    f"retry with dz = {dz / 2:.3e}")

    zs, ys = rk4_evolve(rhs, samples, state.amplitudes.astype(complex),
                        state.z, z_end, dz, snapshot_every, callback=monitor)
    drift = abs(np.sum(np.abs(ys[-1]) ** 2) - p0) / p0
    if drift > power_tol:
        raise AccuracyError(
            f"power drifted by {drift:.2e} over the run; "
            f"retry with dz = {dz / 2:.3e}")
    return LatticeTrajectory(zs, ys, state.gauge, params)


def _neighbors(n, boundary):
    """``neighbors(c) -> (up, dn)`` with up_l = c_{l+1}, dn_l = c_{l-1},
    written into two arrays reused across calls; hard walls leave the
    outermost entries at zero."""
    up = np.zeros(n, dtype=complex)
    dn = np.zeros(n, dtype=complex)
    periodic = boundary is Boundary.PERIODIC

    def neighbors(c):
        up[:-1] = c[1:]
        dn[1:] = c[:-1]
        if periodic:
            up[-1] = c[0]
            dn[0] = c[-1]
        return up, dn

    return neighbors


def _bare_rhs(params, profile, boundary):
    """Force samples on the half-step grid and ``rhs(force, c)``."""
    sigma = params.sigma_cm
    onsite = params.sublattice_sign * params.delta_cm
    l = params.sites.astype(float)
    neighbors = _neighbors(params.n_sites, boundary)

    def rhs(f, c):
        up, dn = neighbors(c)
        return -1j * (-sigma * (up + dn) + onsite * c + f * l * c)

    return (lambda zs: drv.force(profile, zs).tolist()), rhs


def _gauged_rhs(params, profile, boundary):
    """Hopping-phase samples exp(-i Phi) on the half-step grid and
    ``rhs(ph, a)``."""
    sigma = params.sigma_cm
    onsite = params.sublattice_sign * params.delta_cm
    neighbors = _neighbors(params.n_sites, boundary)

    def rhs(ph, a):
        up, dn = neighbors(a)
        return -1j * (-sigma * ph * up - sigma * ph.conjugate() * dn
                      + onsite * a)

    return (lambda zs: np.exp(-1j * drv.phase(profile, zs)).tolist()), rhs


def evolve_bare(state: ModeVector, params: SuperlatticeParams,
                profile: drv.DriveProfile, z_end: float, dz: float = None,
                snapshot_every: int = None,
                boundary=Boundary.HARD_WALL) -> LatticeTrajectory:
    """Integrate the bare-gauge coupled-mode equations up to z_end.

    The drive enters as the site-linear term F(z) l c_l, which grows with
    the chain length; strong drives on long chains need the gauged form
    instead.  Periodic boundaries are only consistent here for F = 0.
    """
    if state.gauge is not Gauge.BARE:
        raise ParameterError("evolve_bare needs a bare-gauge state")
    if Boundary(boundary) is Boundary.PERIODIC and \
            profile.kind is not drv.DriveKind.STRAIGHT:
        raise ParameterError("periodic boundaries require a straight axis "
                             "in the bare gauge")
    return _evolve(state, params, profile, z_end, dz, snapshot_every,
                   boundary, _bare_rhs, power_tol=1e-6)


def evolve_gauged(state: ModeVector, params: SuperlatticeParams,
                  profile: drv.DriveProfile, z_end: float, dz: float = None,
                  snapshot_every: int = None,
                  boundary=Boundary.PERIODIC) -> LatticeTrajectory:
    """Integrate the gauged coupled-mode equations (complex hoppings)."""
    if state.gauge is not Gauge.GAUGED:
        raise ParameterError("evolve_gauged needs a gauged state")
    return _evolve(state, params, profile, z_end, dz, snapshot_every,
                   boundary, _gauged_rhs, power_tol=1e-6)
