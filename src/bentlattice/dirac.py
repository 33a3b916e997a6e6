"""Two-component spinor dynamics of the zone-edge continuum limit.

The spinor equation evolved here is

    i d_z psi = -i sigma alpha d_xi psi - 2 sigma Phi(z) alpha psi + delta beta psi

with alpha = sigma_x, beta = sigma_z, on the dimensionless coordinate
xi = x / (2a) (one unit per lattice cell).  The drive is uniform in xi and
so is the mass, so every Fourier mode k evolves on its own as a 2x2
system.  The whole Strang step (half mass, exact kinetic-plus-drive
rotation with the analytic phase integral over the step, half mass) is
diagonal in k; splitting error comes only from the mass term (second
order).  The state stays in momentum space for the whole run and is
transformed back only where real space is needed: the edge-density checks
and the returned snapshots.  Those transforms use ``np.fft``, so that this
tier, like the two-level and lattice tiers, runs without importing scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import drive as drv
from .errors import (DegenerateGapError, DomainError, ParameterError,
                     ShapeError, require_positive)
from .integrate import BLOCK_STEPS, default_dz, snapshot_stride, step_grid
from .tight_binding import Branch, Gauge, ModeVector, SuperlatticeParams


@dataclass(frozen=True)
class XiGrid:
    """Uniform periodic grid on the continuum coordinate xi = x/(2a)."""

    xi_min: float
    dxi: float
    n: int

    @classmethod
    def centered(cls, span: float, n: int) -> "XiGrid":
        require_positive(xi_span=span, n_points=n)
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
        raise DegenerateGapError("massless spinor at k = 0 has no branch split")
    if branch is Branch.MINUS:
        norm = np.sqrt(2 * eps * (eps + delta))
        out = np.stack([sigma * kv / norm, -(eps + delta) / norm])
    else:
        # eps - delta = (sigma k)^2 / (eps + delta) does not cancel at small
        # k, and the norm of (sigma k, eps - delta) is taken as |sigma k|
        # sqrt(2 eps / (eps + delta)), which does not underflow with the square
        sk = sigma * kv
        small = np.abs(sk) < 1e-300
        denom = np.where(small, 1.0,
                         np.abs(sk) * np.sqrt(2 * eps / (eps + delta)))
        out = np.stack([
            np.where(small, 1.0, sk / denom),
            np.where(small, 0.0, sk**2 / (eps + delta) / denom),
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


# columns: the eigenvectors (1, 1)/sqrt(2) and (1, -1)/sqrt(2) of alpha
_ALPHA_BASIS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


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
    The step is diagonal in k, so the state is transformed once and stepped
    in the eigenbasis u = (f1 +- f2)/sqrt(2) of alpha, where the rotation
    cos chi - i sin chi alpha, chi = sigma (k h - 2 int Phi), is the phase
    pair exp(-+i chi) and the mass exp(-i delta h beta) mixes the pair with
    scalar coefficients; adjacent half-mass steps are fused.  FFTs run only
    on the steps that need real space.  Raises DomainError when the packet
    support reaches the grid edge (checked at every snapshot and at the end
    of every block of ``BLOCK_STEPS`` steps; the grid is periodic, so
    overflow means wrap-around contamination).
    """
    if dz is None:
        dz = default_dz(profile)
    n_steps, h = step_grid(z_end - field.z, dz)
    snapshot_every = snapshot_stride(snapshot_every, n_steps)
    sigma, delta = params.sigma_cm, params.delta_cm
    p1 = field.psi1.astype(complex)
    p2 = field.psi2.astype(complex)
    zs = [field.z]
    s1 = [p1]
    s2 = [p2]
    if _edge_density_fraction(field) > edge_tol:
        raise DomainError("initial support reaches the grid edge")
    # u runs one half mass step ahead of the state: enter maps (f1, f2) to
    # u after a half mass step, leave maps u back through its inverse
    half = np.exp(-0.5j * delta * h)
    enter = _ALPHA_BASIS * [half, np.conj(half)]
    leave = [[np.conj(half)], [half]] * _ALPHA_BASIS
    # the two half mass steps between rotations, fused and written in the
    # alpha basis, where beta acts as alpha.  It is built from cos and sin:
    # the product through _ALPHA_BASIS misses unitarity by about 7e-16, and
    # a constant map's error adds up over the steps (1.3e-12 of norm on the
    # 2000 steps of fig3b)
    c, s = np.cos(delta * h), np.sin(delta * h)
    mass = np.array([[c, -1j * s], [-1j * s, c]])
    free = np.exp(-1j * sigma * h * field.grid.k)
    free = np.stack([free, np.conj(free)])
    u = enter @ np.fft.fft(np.stack([p1, p2]))
    for start in range(0, n_steps, BLOCK_STEPS):
        stop = min(start + BLOCK_STEPS, n_steps)
        z0 = field.z + np.arange(start, stop) * h
        # exp(-i chi) = free * kick: the drive's share of each rotation,
        # followed by the fused mass step
        kick = np.exp(2j * sigma * drv.phase_integral(profile, z0, z0 + h))
        maps = mass * np.stack([kick, np.conj(kick)], axis=-1)[:, None, :]
        for i in range(start, stop):
            u = maps[i - start] @ (free * u)
            snapshot = (i + 1) % snapshot_every == 0 or i == n_steps - 1
            if snapshot or (i + 1) % BLOCK_STEPS == 0:
                z = field.z + (i + 1) * h
                p1, p2 = np.fft.ifft(leave @ u)
                if _edge_density_fraction(
                        SpinorField(p1, p2, field.grid, z)) > edge_tol:
                    raise DomainError(
                        f"packet support reached the grid edge at z = {z:.4g} cm")
                if snapshot:
                    zs.append(z)
                    s1.append(p1)
                    s2.append(p2)
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
