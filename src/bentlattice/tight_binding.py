"""Coupled-mode dynamics on the binary superlattice.

Site amplitudes live on a chain indexed symmetrically about 0 (l from -n/2
to n/2 - 1); even sites form sublattice A (high-index channels, on-site
detuning +delta), odd sites sublattice B (-delta).  The bare gauge carries
the drive as the linear potential F(z) l; the gauged form trades it for
complex hopping phases exp(-+ i Phi(z)).  The map c_l = a_l exp(-i Phi l),
``_gauge_factor``, takes one onto the other exactly, on open chains too, so
only the gauged equations are stepped: ``evolve_bare`` maps its input into
the gauged frame and every snapshot back.

The gauged equations are invariant under two-site translation, so on a
periodic chain each Bloch momentum q evolves as its own sublattice pair
(s1, s2), the two-level reduction, exact per q; one FFT over the cells
maps the sites to these pairs.  Periodic runs step the n/2 momenta as one
batch on the composed fourth-order Magnus step maps of
``integrate._advance``, unitary per step; a step too coarse for the
generator fails the power check as NaN.  Hard-wall runs break the
translation symmetry and step the site amplitudes with RK4,
``integrate.rk4_evolve``, under the one hard-wall right-hand side
``_gauged_rhs``.  Both boundaries run through one ``_evolve``: one step
grid, one power monitor at the stepper's block ends, one final check over
every snapshot.
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
from .integrate import (RK4_STABILITY_LIMIT, _advance, default_dz,
                        rk4_evolve, snapshot_steps, step_grid)


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
# sites at each end of a hard-wall chain that edge_power_fraction watches
EDGE_SITES = 2


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

    def edge_power_fraction(self):
        """Largest per-snapshot power share on the outermost sites.

        Hard-wall runs are only faithful to the bulk model while this stays
        small (packets must not reach the truncated couplings).
        """
        edges = np.abs(self.states[:, np.r_[:EDGE_SITES, -EDGE_SITES:0]]) ** 2
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

    Built in q space on the periodic chain, so the state is an exact
    single-band packet (each q component is the branch eigenvector at that
    q), not an envelope approximation.  The centre must lie on the chain,
    -n/2 <= center_site < n/2, where the packet does not wrap around.
    """
    require_positive(width_sites=width_sites)
    n = params.n_sites
    if not -n / 2 <= center_site < n / 2:
        raise ParameterError(f"center_site = {center_site!r} lies off the "
                             f"{n}-site chain, sites {-n // 2}..{n // 2 - 1}")
    qa0 = float(q0) * params.spacing_cm
    kappa = 2 * np.pi * np.arange(-n // 2, n // 2) / n
    # spectrum of exp(-(l/width)^2), of Fourier width 2 / width; a width
    # that overflows the square keeps only kappa = 0, as exp(-inf) = 0
    with np.errstate(over="ignore"):
        weight = np.exp(-(kappa * width_sites / 2) ** 2)
    kept = ~(weight < 1e-16)
    qa = qa0 + kappa[kept]
    u = np.zeros((n, 2), dtype=complex)
    u[kept] = (bloch_eigenvector(qa / params.spacing_cm, branch, params)
               * (weight[kept] * np.exp(-1j * qa * center_site))).T
    # mode j - n/2 is mode j times (-1)^l, a sign on B, and so is a pair
    # momentum folded by -pi; exp(i qa0 l) restores the offset qa0
    pairs = u[n // 2:] + u[:n // 2] * [1, -1]
    pairs[sublattice_momenta(params) < 0, 1] *= -1
    amps = from_sublattice_pairs(pairs, params)
    amps *= np.exp(1j * qa0 * params.sites)
    amps /= np.linalg.norm(amps)
    return ModeVector(amps, gauge, 0.0)


def gauge_transform(state: ModeVector, profile: drv.DriveProfile,
                    to_gauge: Gauge) -> ModeVector:
    """Per-site phase map c_l = a_l exp(-i Phi(z) l) between the two gauges."""
    if state.gauge == to_gauge:
        return ModeVector(state.amplitudes.copy(), state.gauge, state.z)
    factor = _gauge_factor(profile, state.z, len(state.amplitudes), to_gauge)
    return ModeVector(state.amplitudes * factor, to_gauge, state.z)


def _gauge_factor(profile: drv.DriveProfile, z, n_sites, to_gauge: Gauge):
    """exp(-+ i Phi(z) l) over the sites l of an n_sites chain, shaped
    np.shape(z) + (n_sites,): the factor that carries amplitudes at z into
    ``to_gauge`` (minus into the bare gauge, plus into the gauged one)."""
    sign = -1j if to_gauge is Gauge.BARE else 1j
    l = np.arange(n_sites) - n_sites // 2
    return np.exp(sign * np.multiply.outer(drv.phase(profile, z), l))


def sublattice_momenta(params: SuperlatticeParams):
    """Pair momenta qa = 2 pi j / n, j < n/2, folded by -pi above pi/2 (the
    fold leaves the FFT over the cells, exp(-i qa 2c), as it is)."""
    qa = 2 * np.pi * np.arange(params.n_sites // 2) / params.n_sites
    return np.where(qa > np.pi / 2, qa - np.pi, qa)


def _cell_layout(params: SuperlatticeParams):
    """Column order that puts A (even l) first in each cell of ``sites``, from
    -n/2, and the phase exp(-i qa l0) at each ordered column's first site."""
    order = slice(None, None, -1 if params.n_sites % 4 else 1)
    l0 = params.sites[:2][order]
    return order, np.exp(-1j * np.outer(sublattice_momenta(params), l0))


def to_sublattice_pairs(amplitudes, params: SuperlatticeParams):
    """Site amplitudes (..., n) -> (s1, s2) per momentum, (..., n/2, 2): the
    A and B sums of a_l exp(-i qa l) / sqrt(n/2), one FFT over the cells."""
    order, phase = _cell_layout(params)
    cells = np.reshape(amplitudes, np.shape(amplitudes)[:-1] + (-1, 2))
    return np.fft.fft(cells[..., order], axis=-2, norm="ortho") * phase


def from_sublattice_pairs(pairs, params: SuperlatticeParams):
    """Inverse of ``to_sublattice_pairs``: pairs (..., n/2, 2) -> sites."""
    order, phase = _cell_layout(params)
    cells = np.fft.ifft(pairs * phase.conj(), axis=-2, norm="ortho")
    return cells[..., order].reshape(cells.shape[:-2] + (-1,))


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
    """Run a gauged state on either boundary: plan the step grid and the
    snapshots once, step, and check the power within 1e-6 at every block
    end of the stepper and at every snapshot.

    A periodic chain steps its n/2 sublattice pairs under
    G_q(z) = [[delta, -2 sigma cos(qa - Phi)], [-2 sigma cos(qa - Phi),
    -delta]] as one batch of ``_advance`` (power by Parseval); hard walls
    step the site amplitudes with ``rk4_evolve`` under ``_gauged_rhs``.
    """
    if dz is None:
        dz = default_dz(profile)
    n, h = step_grid(z_end - state.z, dz)
    steps = snapshot_steps(n, snapshot_every)
    y0 = state.amplitudes.astype(complex)
    p0 = state.power

    def monitor(i, y):
        _check_drift(np.sum(np.abs(y) ** 2), state.z + i * h, p0, 1e-6, dz)

    periodic = Boundary(boundary) is Boundary.PERIODIC
    if periodic:
        qa = sublattice_momenta(params)

        def coefficients(zs):
            b = np.subtract(qa, drv.phase(profile, zs)[:, None])
            np.cos(b, out=b)
            b *= -2 * params.sigma_cm
            # a = -delta is the same at every sample and momentum
            return np.broadcast_to(-params.delta_cm, b.shape), b

        ys = _advance(to_sublattice_pairs(y0, params), coefficients,
                      state.z, n, h, steps, monitor)
    else:
        # every eigenvalue of the hard-wall operator lies within
        # |delta| + 2 sigma, and RK4 is stable on the imaginary axis up to
        # h |lambda| = 2 sqrt(2)
        radius = abs(params.delta_cm) + 2 * params.sigma_cm
        if h * radius > RK4_STABILITY_LIMIT:
            raise ParameterError(
                f"step {h:.3e} cm exceeds RK4's stability limit for "
                f"|delta| + 2 sigma = {radius:.3e} /cm; use dz at most "
                f"{RK4_STABILITY_LIMIT / radius:.3e} cm")
        samples, rhs = _gauged_rhs(params, profile)
        ys = rk4_evolve(rhs, samples, y0, state.z, n, h, steps, monitor)
    zs = state.z + steps * h
    _check_drift(np.sum(np.abs(ys.reshape(len(steps), -1)) ** 2, axis=1), zs,
                 p0, 1e-6, dz)
    if periodic:
        ys = from_sublattice_pairs(ys, params)
        # the first snapshot is the input itself, not its round trip
        ys[0] = state.amplitudes
    return LatticeTrajectory(zs, ys, state.gauge, params)


def _gauged_rhs(params, profile):
    """Hopping-phase samples exp(-i Phi) on the half-step grid and
    ``rhs(ph, a)``.  The neighbours up_l = a_{l+1}, dn_l = a_{l-1} go into
    two arrays reused across calls; the hard walls leave the outermost
    entries at zero."""
    sigma = params.sigma_cm
    onsite = params.sublattice_sign * params.delta_cm
    up = np.zeros(params.n_sites, dtype=complex)
    dn = np.zeros(params.n_sites, dtype=complex)

    def rhs(ph, a):
        up[:-1] = a[1:]
        dn[1:] = a[:-1]
        return -1j * (-sigma * ph * up - sigma * ph.conjugate() * dn
                      + onsite * a)

    return (lambda zs: np.exp(-1j * drv.phase(profile, zs)).tolist()), rhs


def evolve_bare(state: ModeVector, params: SuperlatticeParams,
                profile: drv.DriveProfile, z_end: float, dz: float = None,
                snapshot_every: int = None,
                boundary=Boundary.HARD_WALL) -> LatticeTrajectory:
    """Bare-gauge run up to z_end, as the gauge image of the gauged run.

    The bare equations, with the drive as the site-linear term F(z) l c_l,
    are the gauged ones under c_l = a_l exp(-i Phi(z) l), on open chains
    too, so the input is mapped into the gauged frame, stepped there, and
    every snapshot mapped back.  Periodic boundaries are only consistent
    here for F = 0.
    """
    if state.gauge is not Gauge.BARE:
        raise ParameterError("evolve_bare needs a bare-gauge state")
    if Boundary(boundary) is Boundary.PERIODIC and \
            profile.kind is not drv.DriveKind.STRAIGHT:
        raise ParameterError("periodic boundaries require a straight axis "
                             "in the bare gauge")
    traj = _evolve(gauge_transform(state, profile, Gauge.GAUGED), params,
                   profile, z_end, dz, snapshot_every, boundary)
    traj.states *= _gauge_factor(profile, traj.z, params.n_sites, Gauge.BARE)
    traj.gauge = Gauge.BARE
    return traj


def evolve_gauged(state: ModeVector, params: SuperlatticeParams,
                  profile: drv.DriveProfile, z_end: float, dz: float = None,
                  snapshot_every: int = None,
                  boundary=Boundary.PERIODIC) -> LatticeTrajectory:
    """Integrate the gauged coupled-mode equations (complex hoppings)."""
    if state.gauge is not Gauge.GAUGED:
        raise ParameterError("evolve_gauged needs a gauged state")
    return _evolve(state, params, profile, z_end, dz, snapshot_every,
                   boundary)
