"""Coupled-mode dynamics on the binary superlattice.

Site amplitudes live on a chain indexed symmetrically about 0 (l from -n/2
to n/2 - 1); even sites form sublattice A (high-index channels, on-site
detuning +delta), odd sites sublattice B (-delta).  The bare gauge carries
the drive as the linear potential F(z) l; the gauged form trades it for
complex hopping phases exp(-+ i Phi(z)), which stays bounded for strong
drives and admits periodic boundaries.

The gauged equations are invariant under two-site translation, so on a
periodic chain each Bloch momentum q evolves as its own sublattice pair
(s1, s2), the two-level reduction, exact per q.  Periodic runs (gauged
under any drive, bare on a straight axis, where Phi = 0) therefore step
the n/2 momenta as one batch on the composed fourth-order Magnus step
maps of ``integrate._advance``, unitary per step; a step too coarse for
the generator fails the power check as NaN.  Hard-wall runs break the
translation symmetry and step the site amplitudes with RK4,
``integrate.rk4_evolve``.  Both boundaries run through one ``_evolve``:
one step grid, one power monitor at the stepper's block ends, one final
check over every snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import drive as drv
from .drive import CM_PER_UM
from .errors import (AccuracyError, DegenerateGapError, ParameterError,
                     require_positive)
from .integrate import (_advance, default_dz, rk4_evolve, snapshot_steps,
                        snapshot_stride, step_grid)


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
        require_positive(sigma_cm=self.sigma_cm, spacing_um=self.spacing_um)
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
        return _on_sublattices((1.0, -1.0), self)

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


def _coupling_squared(qa, params: SuperlatticeParams):
    """(2 sigma cos qa)^2 = w(qa)^2 - delta^2, in 1/cm^2."""
    return 4 * params.sigma_cm**2 * np.cos(qa) ** 2


def _splitting(qa, params: SuperlatticeParams):
    """w(qa) = sqrt(delta^2 + 4 sigma^2 cos^2 qa) = omega_plus, in 1/cm."""
    return np.sqrt(params.delta_cm**2 + _coupling_squared(qa, params))


def dispersion(q, params: SuperlatticeParams):
    """Miniband pair (omega_minus, omega_plus) at wavenumber q (rad/cm)."""
    w = _splitting(np.asarray(q) * params.spacing_cm, params)
    return -w, w


def group_velocity(q, params: SuperlatticeParams, branch: Branch):
    """d omega/d q of one branch, in cm of transverse drift per cm of z."""
    qa = np.asarray(q) * params.spacing_cm
    dw_dqa = -2 * params.sigma_cm**2 * np.sin(2 * qa) / _splitting(qa, params)
    sign = 1.0 if branch is Branch.PLUS else -1.0
    return sign * dw_dqa * params.spacing_cm


def bloch_eigenvector(q, branch: Branch, params: SuperlatticeParams) -> np.ndarray:
    """Unit (s1, s2) sublattice eigenvector of the straight-array cell at q
    (rad/cm): shape (2,) for a scalar, (2, m) for m momenta."""
    return _branch_vector(np.asarray(q, dtype=float) * params.spacing_cm,
                          branch, params)


def _branch_vector(qa, branch: Branch, params: SuperlatticeParams):
    """``bloch_eigenvector`` at qa (q -> qa rounds), always evaluated as an
    array so that scalars round as array entries do.  At the gap edge
    (qa = pi/2) the fixed convention is v_minus = (0, 1), v_plus = (1, 0)."""
    flat = np.atleast_1d(qa)
    sigma, delta = params.sigma_cm, params.delta_cm
    c, w = np.cos(flat), _splitting(flat, params)
    edge = np.abs(c) < 1e-14
    if delta == 0.0 and edge.any():
        raise DegenerateGapError("delta = 0 at the zone edge: gap closed")
    # (+-w) - delta; on the plus branch w - delta = (w^2 - delta^2) / (w +
    # delta) keeps the digits that the difference loses near the gap edge
    d = (_coupling_squared(flat, params) / (w + delta)
         if branch is Branch.PLUS else -w - delta)
    norm = np.sqrt(2 * w * np.abs(d))
    v = np.array([-2 * sigma * c, d])
    np.divide(v, norm, out=v, where=~edge)
    v[:, edge] = [[1.0], [0.0]] if branch is Branch.PLUS else [[0.0], [1.0]]
    return v.reshape((2,) + np.shape(qa))


def _on_sublattices(v, params: SuperlatticeParams):
    """Site pattern with v[0] on the A sites (even l) and v[1] on B."""
    return np.where(params.sites % 2 == 0, v[0], v[1])


def bloch_mode_state(q, branch: Branch, params: SuperlatticeParams,
                     gauge: Gauge = Gauge.GAUGED) -> ModeVector:
    """Plane-wave Bloch mode: (s1 on even, s2 on odd sites) * exp(i q l a)."""
    v = bloch_eigenvector(q, branch, params)
    qa = float(q) * params.spacing_cm
    amps = _on_sublattices(v, params) * np.exp(1j * qa * params.sites)
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
    require_positive(width_sites=width_sites)
    n = params.n_sites
    l = params.sites
    qa0 = float(q0) * params.spacing_cm
    sig_qa = 2.0 / width_sites  # Fourier width of exp(-(l/width)^2)
    # weights stay scalar: numpy squares a scalar with pow, an array as x * x
    modes = []
    for j in range(-n // 2, n // 2):
        qa = qa0 + 2 * np.pi * j / n
        weight = np.exp(-((qa - qa0) / sig_qa) ** 2)
        if not weight < 1e-16:
            modes.append((qa, weight))
    vs = bloch_eigenvector(np.array([qa for qa, _ in modes]) / params.spacing_cm,
                           branch, params)
    amps = np.zeros(n, dtype=complex)
    for (qa, weight), v in zip(modes, vs.T):
        amps += (weight * np.exp(-1j * qa * center_site)
                 * _on_sublattices(v, params) * np.exp(1j * qa * l))
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


def sublattice_transform(params: SuperlatticeParams):
    """Bloch momenta ``qa`` (n/2,) of the periodic chain and the unitary
    (n, n) matrix taking site amplitudes to sublattice amplitudes: rows
    0..n/2-1 give s1(qa) from the A sites (even l), rows n/2.. give s2(qa)
    from the B sites (odd l).  Momenta above pi/2 are folded by -pi."""
    n = params.n_sites
    l = params.sites
    qa = 2 * np.pi * np.arange(n // 2) / n
    qa = np.where(qa > np.pi / 2, qa - np.pi, qa)
    on_a, on_b = l % 2 == 0, l % 2 != 0
    scale = 1.0 / np.sqrt(n // 2)
    transform = np.zeros((n, n), dtype=complex)
    transform[:n // 2, on_a] = scale * np.exp(-1j * np.outer(qa, l[on_a]))
    transform[n // 2:, on_b] = scale * np.exp(-1j * np.outer(qa, l[on_b]))
    return qa, transform


def to_sublattice_pairs(amplitudes, transform):
    """Site amplitudes (..., n) -> (s1, s2) per momentum, (..., n/2, 2)."""
    s = amplitudes @ transform.T
    return np.swapaxes(s.reshape(s.shape[:-1] + (2, -1)), -1, -2)


def from_sublattice_pairs(pairs, transform):
    """Inverse of ``to_sublattice_pairs``: pairs (..., n/2, 2) -> sites."""
    rows = np.swapaxes(pairs, -1, -2)
    return rows.reshape(rows.shape[:-2] + (-1,)) @ transform.conj()


def _check_drift(power, z, p0, tol, dz):
    """Raise AccuracyError at the first z whose power (a scalar or one per
    z) is not within tol of p0, relatively; NaN fails too."""
    drift = np.atleast_1d(np.abs(power - p0) / p0)
    bad = ~(drift <= tol)
    if bad.any():
        i = int(np.argmax(bad))
        raise AccuracyError(
            f"power drifted by {drift[i]:.2e} at z = "
            f"{np.atleast_1d(z)[i]:.4g} cm; retry with dz = {dz / 2:.3e}")


def _evolve(state, params, profile, z_end, dz, snapshot_every, boundary):
    """Run either gauge on either boundary: plan the step grid and the
    snapshots once, step, and check the power within 1e-6 at every block
    end of the stepper and at every snapshot.

    A periodic chain steps its n/2 sublattice pairs under
    G_q(z) = [[delta, -2 sigma cos(qa - Phi)], [-2 sigma cos(qa - Phi),
    -delta]] as one batch of ``_advance`` (power by Parseval); hard walls
    step the site amplitudes with ``rk4_evolve`` under the right-hand side
    of ``state.gauge``.
    """
    if dz is None:
        dz = default_dz(profile)
    n, h = step_grid(z_end - state.z, dz)
    steps = snapshot_steps(n, snapshot_stride(snapshot_every, n))
    y0 = state.amplitudes.astype(complex)
    p0 = state.power

    def monitor(i, y):
        _check_drift(np.sum(np.abs(y) ** 2), state.z + i * h, p0, 1e-6, dz)

    periodic = Boundary(boundary) is Boundary.PERIODIC
    if periodic:
        qa, transform = sublattice_transform(params)

        def coefficients(zs):
            b = np.subtract(qa, drv.phase(profile, zs)[:, None])
            np.cos(b, out=b)
            b *= -2 * params.sigma_cm
            # a = -delta is the same at every sample and momentum
            return np.broadcast_to(-params.delta_cm, b.shape), b

        ys = _advance(to_sublattice_pairs(y0, transform), coefficients,
                      state.z, n, h, steps, monitor)
    else:
        samples, rhs = (_bare_rhs if state.gauge is Gauge.BARE
                        else _gauged_rhs)(params, profile)
        ys = rk4_evolve(rhs, samples, y0, state.z, n, h, steps, monitor)
    zs = state.z + steps * h
    _check_drift(np.sum(np.abs(ys.reshape(len(steps), -1)) ** 2, axis=1), zs,
                 p0, 1e-6, dz)
    if periodic:
        ys = from_sublattice_pairs(ys, transform)
        # the first snapshot is the input itself, not its round trip
        ys[0] = state.amplitudes
    return LatticeTrajectory(zs, ys, state.gauge, params)


def _neighbors(n):
    """``neighbors(c) -> (up, dn)`` with up_l = c_{l+1}, dn_l = c_{l-1},
    written into two arrays reused across calls; the hard walls leave the
    outermost entries at zero."""
    up = np.zeros(n, dtype=complex)
    dn = np.zeros(n, dtype=complex)

    def neighbors(c):
        up[:-1] = c[1:]
        dn[1:] = c[:-1]
        return up, dn

    return neighbors


def _bare_rhs(params, profile):
    """Force samples on the half-step grid and ``rhs(force, c)``."""
    sigma = params.sigma_cm
    onsite = params.sublattice_sign * params.delta_cm
    l = params.sites.astype(float)
    neighbors = _neighbors(params.n_sites)

    def rhs(f, c):
        up, dn = neighbors(c)
        return -1j * (-sigma * (up + dn) + onsite * c + f * l * c)

    return (lambda zs: drv.force(profile, zs).tolist()), rhs


def _gauged_rhs(params, profile):
    """Hopping-phase samples exp(-i Phi) on the half-step grid and
    ``rhs(ph, a)``."""
    sigma = params.sigma_cm
    onsite = params.sublattice_sign * params.delta_cm
    neighbors = _neighbors(params.n_sites)

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
                   boundary)


def evolve_gauged(state: ModeVector, params: SuperlatticeParams,
                  profile: drv.DriveProfile, z_end: float, dz: float = None,
                  snapshot_every: int = None,
                  boundary=Boundary.PERIODIC) -> LatticeTrajectory:
    """Integrate the gauged coupled-mode equations (complex hoppings)."""
    if state.gauge is not Gauge.GAUGED:
        raise ParameterError("evolve_gauged needs a gauged state")
    return _evolve(state, params, profile, z_end, dz, snapshot_every,
                   boundary)
