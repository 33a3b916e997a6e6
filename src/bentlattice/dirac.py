"""Two-component spinor dynamics of the zone-edge continuum limit.

The spinor equation evolved here is

    i d_z psi = -i sigma alpha d_xi psi - 2 sigma Phi(z) alpha psi + delta beta psi

with alpha = sigma_x, beta = sigma_z, on the dimensionless coordinate
xi = x / (2a) (one unit per lattice cell).  Both alpha-proportional terms
are diagonalised by the same Fourier rotation, so the kinetic-plus-drive
substep is exact once the phase integral over the step is known; splitting
error comes only from the mass term (Strang, second order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import drive as drv
from .errors import DomainError, ParameterError, ShapeError
from .integrate import CHECK_EVERY, default_dz, snapshot_stride, step_grid
from .tight_binding import Branch, Gauge, ModeVector, SuperlatticeParams


@dataclass(frozen=True)
class XiGrid:
    """Uniform periodic grid on the continuum coordinate xi = x/(2a)."""

    xi_min: float
    dxi: float
    n: int

    @classmethod
    def centered(cls, span: float, n: int) -> "XiGrid":
        return cls(-span / 2.0, span / float(n), n)

    @property
    def xi(self):
        return self.xi_min + self.dxi * np.arange(self.n)

    @property
    def k(self):
        """Momentum grid conjugate to xi (fft ordering)."""
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.dxi)

    @property
    def span(self):
        return self.n * self.dxi


@dataclass
class SpinorField:
    psi1: np.ndarray
    psi2: np.ndarray
    grid: XiGrid
    z: float = 0.0

    def __post_init__(self):
        if self.psi1.shape != self.psi2.shape or self.psi1.shape != (self.grid.n,):
            raise ShapeError("spinor components must match the grid length")

    @property
    def density(self):
        return np.abs(self.psi1) ** 2 + np.abs(self.psi2) ** 2

    @property
    def norm(self):
        return float(np.sum(self.density) * self.grid.dxi)


@dataclass
class SpinorTrajectory:
    z: np.ndarray
    psi1: np.ndarray  # (n_snapshots, n)
    psi2: np.ndarray
    grid: XiGrid

    @property
    def final(self) -> SpinorField:
        return SpinorField(self.psi1[-1].copy(), self.psi2[-1].copy(),
                           self.grid, float(self.z[-1]))

    def norms(self):
        dens = np.abs(self.psi1) ** 2 + np.abs(self.psi2) ** 2
        return np.sum(dens, axis=1) * self.grid.dxi


def free_dispersion(k, params: SuperlatticeParams):
    """Both branches (-eps, +eps) with eps(k) = sqrt(delta^2 + sigma^2 k^2)."""
    eps = np.sqrt(params.delta_cm**2 + (params.sigma_cm * np.asarray(k)) ** 2)
    return -eps, eps


def branch_spinor(k, branch: Branch, params: SuperlatticeParams):
    """Normalized eigenspinor of [[delta, sigma k], [sigma k, -delta]].

    Vectorized over k; returns shape (2,) for scalars, (2, n) for arrays.
    The k = 0 column of the plus branch is fixed to (1, 0) by continuity.
    """
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    sigma, delta = params.sigma_cm, params.delta_cm
    eps = np.sqrt(delta**2 + (sigma * kv) ** 2)
    if np.any(eps == 0.0):
        from .errors import DegenerateGapError
        raise DegenerateGapError("massless spinor at k = 0 has no branch split")
    if branch is Branch.MINUS:
        norm = np.sqrt(2 * eps * (eps + delta))
        out = np.stack([sigma * kv / norm, -(eps + delta) / norm])
    else:
        small = np.abs(sigma * kv) < 1e-300
        denom = np.where(small, 1.0, np.sqrt(2 * eps * np.maximum(eps - delta, 0.0)))
        out = np.stack([
            np.where(small, 1.0, sigma * kv / denom),
            np.where(small, 0.0, (eps - delta) / denom),
        ])
    return out[:, 0] if np.isscalar(k) else out


def gaussian_spinor_packet(grid: XiGrid, k0: float, width_xi: float,
                           params: SuperlatticeParams,
                           branch: Branch = Branch.MINUS,
                           center_xi: float = 0.0) -> SpinorField:
    """Single-branch Gaussian packet built mode by mode in momentum space.

    Every momentum component carries the exact branch eigenspinor, so the
    initial state is pure to machine precision (the projector test demands
    weight > 1 - 1e-6).
    """
    k = grid.k
    # the inverse transform lives on 0-based coordinates; shift so the
    # packet lands at center_xi of the (possibly negative) grid axis
    offset = center_xi - grid.xi_min
    envelope = np.exp(-((k - k0) * width_xi / 2.0) ** 2
                      - 1j * (k - k0) * offset)
    spinors = branch_spinor(k, branch, params)
    psi1 = np.fft.ifft(envelope * spinors[0])
    psi2 = np.fft.ifft(envelope * spinors[1])
    field = SpinorField(psi1.astype(complex), psi2.astype(complex), grid, 0.0)
    scale = 1.0 / np.sqrt(field.norm)
    field.psi1 *= scale
    field.psi2 *= scale
    return field


def band_weights(field: SpinorField, params: SuperlatticeParams):
    """(lower, upper) branch fractions from momentum-space projectors."""
    k = field.grid.k
    f1 = np.fft.fft(field.psi1)
    f2 = np.fft.fft(field.psi2)
    um = branch_spinor(k, Branch.MINUS, params)
    up = branch_spinor(k, Branch.PLUS, params)
    wm = float(np.sum(np.abs(um[0].conj() * f1 + um[1].conj() * f2) ** 2))
    wp = float(np.sum(np.abs(up[0].conj() * f1 + up[1].conj() * f2) ** 2))
    total = wm + wp
    return wm / total, wp / total


def _edge_density_fraction(field: SpinorField, edge_fraction=0.02):
    dens = field.density
    n_edge = max(2, int(field.grid.n * edge_fraction))
    edge = max(dens[:n_edge].max(), dens[-n_edge:].max())
    peak = dens.max()
    return edge / peak if peak > 0 else 0.0


def dirac_evolve(field: SpinorField, profile: drv.DriveProfile,
                 params: SuperlatticeParams, z_end: float, dz: float = None,
                 snapshot_every: int = None,
                 edge_tol: float = 1e-8) -> SpinorTrajectory:
    """Strang split-step evolution: half mass, exact kinetic+drive, half mass.

    The kinetic+drive rotation angle over a step uses the analytic integral
    of Phi, so only the mass/kinetic non-commutativity contributes error.
    Raises DomainError when the packet support reaches the grid edge
    (checked at every snapshot and every ``CHECK_EVERY`` steps; the
    grid is periodic, so overflow means wrap-around contamination).
    """
    if dz is None:
        dz = default_dz(profile)
    n_steps, h = step_grid(z_end - field.z, dz)
    snapshot_every = snapshot_stride(snapshot_every, n_steps)
    k = field.grid.k
    sigma, delta = params.sigma_cm, params.delta_cm
    em = np.exp(-1j * delta * h / 2.0)
    ep = np.conj(em)
    p1 = field.psi1.astype(complex)
    p2 = field.psi2.astype(complex)
    zs = [field.z]
    s1 = [p1.copy()]
    s2 = [p2.copy()]
    if _edge_density_fraction(field) > edge_tol:
        raise DomainError("initial support reaches the grid edge")
    z_start = field.z + np.arange(n_steps) * h
    phi_ints = drv.phase_integral(profile, z_start, z_start + h)
    for i in range(n_steps):
        p1 = p1 * em
        p2 = p2 * ep
        chi = sigma * (k * h - 2.0 * phi_ints[i])
        c, s = np.cos(chi), np.sin(chi)
        f1 = np.fft.fft(p1)
        f2 = np.fft.fft(p2)
        p1 = np.fft.ifft(c * f1 - 1j * s * f2)
        p2 = np.fft.ifft(c * f2 - 1j * s * f1)
        p1 = p1 * em
        p2 = p2 * ep
        z = field.z + (i + 1) * h
        snapshot = (i + 1) % snapshot_every == 0 or i == n_steps - 1
        if snapshot or (i + 1) % CHECK_EVERY == 0:
            now = SpinorField(p1, p2, field.grid, z)
            if _edge_density_fraction(now) > edge_tol:
                raise DomainError(
                    f"packet support reached the grid edge at z = {z:.4g} cm")
        if snapshot:
            zs.append(z)
            s1.append(p1.copy())
            s2.append(p2.copy())
    return SpinorTrajectory(np.array(zs), np.array(s1), np.array(s2), field.grid)


def spinor_from_lattice(state: ModeVector, params: SuperlatticeParams) -> SpinorField:
    """Unpack gauged sublattice amplitudes into the two spinor components.

    Cell m holds sites (2m - 1, 2m); psi1(m) = (-1)^m a_{2m},
    psi2(m) = i (-1)^m a_{2m-1}.  The site below the lowest cell wraps
    periodically, matching the periodic-lattice convention.  xi = x/(2a)
    advances by one per cell (dxi = 1).
    """
    if state.gauge is not Gauge.GAUGED:
        raise ParameterError("spinor mapping is defined for gauged amplitudes")
    n = len(state.amplitudes)
    if n % 4 != 0:
        raise ShapeError("n_sites must be a multiple of 4 for whole cells")
    n_cells = n // 2
    m = np.arange(n_cells) - n_cells // 2
    idx_even = (2 * m + n // 2)            # site 2m
    idx_odd = (2 * m - 1 + n // 2) % n     # site 2m-1, wraps at the bottom
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    a = state.amplitudes
    psi1 = sign * a[idx_even]
    psi2 = 1j * sign * a[idx_odd]
    grid = XiGrid(float(m[0]), 1.0, n_cells)
    return SpinorField(psi1.astype(complex), psi2.astype(complex), grid, state.z)


def lattice_from_spinor(field: SpinorField, params: SuperlatticeParams) -> ModeVector:
    """Inverse of spinor_from_lattice (exact round trip)."""
    if field.grid.dxi != 1.0:
        raise ShapeError("lattice packing requires a unit-cell grid (dxi = 1)")
    n_cells = field.grid.n
    n = 2 * n_cells
    m = np.arange(n_cells) - n_cells // 2
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    a = np.zeros(n, dtype=complex)
    a[2 * m + n // 2] = sign * field.psi1
    a[(2 * m - 1 + n // 2) % n] = -1j * sign * field.psi2
    return ModeVector(a, Gauge.GAUGED, field.z)
