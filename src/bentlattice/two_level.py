"""Momentum-conserving two-level reduction of the driven binary lattice.

For a plane-wave state the lattice dynamics closes on the two sublattice
amplitudes (s1, s2); projecting those on the straight-array Bloch pair
gives occupation amplitudes (r_minus, r_plus) of the lower and upper
miniband.  Three couplings are available: the full lattice matrix, its
small-momentum/small-drive reduction, and the same reduction written in
physical (massive particle) units.

Sign note: the coupling matrix is reported with the conventional element
values (Z11 = +omega_plus at zero drive).  The generator actually used for
evolution is the Bloch-basis projection of the sublattice dynamics, whose
diagonal for the state ordering (r_minus, r_plus) is (-Z11, +Z11).  For a
state prepared purely in one branch the transition probability is
identical either way; for coherent superpositions only the projected form
reproduces the lattice, which the cross-tier tests check at 1e-8.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import drive as drv
from .errors import AccuracyError, DegenerateGapError, ParameterError
from .integrate import (TREE_RUNS, _advance, default_dz, snapshot_steps,
                        snapshot_stride, step_grid)
from .tight_binding import SuperlatticeParams, _splitting


class MatrixKind(str, Enum):
    FULL = "full"
    REDUCED = "reduced"
    DIRAC = "dirac"


@dataclass(frozen=True)
class TwoLevelState:
    """Occupation amplitudes of the lower (r_minus) and upper (r_plus) branch."""

    r_minus: complex
    r_plus: complex
    z: float = 0.0
    q: float = 0.0  # rad/cm

    @property
    def populations(self):
        return abs(self.r_minus) ** 2, abs(self.r_plus) ** 2

    @property
    def norm(self):
        return abs(self.r_minus) ** 2 + abs(self.r_plus) ** 2


def ground_state(q, params: SuperlatticeParams) -> TwoLevelState:
    """State with all population in the lower branch at momentum q."""
    return TwoLevelState(1.0 + 0j, 0.0 + 0j, 0.0, float(q))


@dataclass(frozen=True)
class CouplingMatrix:
    """Real symmetric traceless 2x2 coupling, stored as (Z11, Z12) in 1/cm."""

    z11: float
    z12: float

    def as_array(self):
        return np.array([[self.z11, self.z12], [self.z12, -self.z11]])

    def projected_generator(self):
        """Matrix acting on (r_minus, r_plus) in the Bloch projection."""
        return np.array([[-self.z11, self.z12], [self.z12, self.z11]])

    @property
    def splitting(self):
        """Instantaneous eigen-splitting sqrt(Z11^2 + Z12^2)."""
        return float(np.hypot(self.z11, self.z12))


def zone_edge_k(q, params: SuperlatticeParams) -> float:
    """Dimensionless momentum k of the zone-edge expansion qa = pi/2 + k/2."""
    return 2.0 * float(q) * params.spacing_cm - np.pi


def q_from_zone_edge_k(k, params: SuperlatticeParams) -> float:
    return (np.pi + float(k)) / (2.0 * params.spacing_cm)


def free_energy(k, params: SuperlatticeParams) -> float:
    """eps(k) = sqrt(delta^2 + sigma^2 k^2), in 1/cm."""
    return float(np.sqrt(params.delta_cm**2 + (params.sigma_cm * float(k)) ** 2))


def _full_terms(q, phi, params: SuperlatticeParams):
    """(Z11, Z12) of the exact lattice coupling; phi may be an array."""
    qa = float(q) * params.spacing_cm
    sigma, delta = params.sigma_cm, params.delta_cm
    w = _splitting(qa, params)
    if w == 0.0:
        raise DegenerateGapError("omega_plus vanished: gap closed at this q")
    c = np.cos(qa - phi)
    z11 = (delta**2 + 4 * sigma**2 * np.cos(qa) * c) / w
    z12 = 2 * sigma * delta * (np.cos(qa) - c) / w
    return z11, z12


def _reduced_terms(k, phi, params: SuperlatticeParams):
    """(Z11, Z12) of the zone-edge reduction; phi may be an array."""
    sigma, delta = params.sigma_cm, params.delta_cm
    eps = free_energy(k, params)
    if eps == 0.0:
        raise DegenerateGapError("eps(k) vanished: massless state at k = 0")
    return eps - 2 * sigma**2 * k * phi / eps, -2 * sigma * delta * phi / eps


def coupling_matrix_full(q, phi, params: SuperlatticeParams) -> CouplingMatrix:
    """Exact lattice coupling at wavenumber q and instantaneous phase phi."""
    return CouplingMatrix(*map(float, _full_terms(q, phi, params)))


def coupling_matrix_reduced(k, phi, params: SuperlatticeParams) -> CouplingMatrix:
    """Small-(k, phi) limit of the full coupling near the zone edge."""
    return CouplingMatrix(*map(float, _reduced_terms(k, phi, params)))


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants of the massive-particle analogue, in any coherent unit system."""

    c: float
    mass: float
    charge: float
    hbar: float


@dataclass(frozen=True)
class DiracUnitsMap:
    """Dictionary between lattice and physical parameters.

    c <-> sigma, m c^2 / hbar <-> delta, e A_x / (2 hbar c) <-> Phi,
    p = hbar k, t <-> z.  Round-tripping any quantity is the identity.
    """

    constants: PhysicalConstants

    def lattice_params(self, spacing_um=10.0, n_sites=64) -> SuperlatticeParams:
        k = self.constants
        return SuperlatticeParams(
            sigma_cm=k.c,
            delta_cm=k.mass * k.c**2 / k.hbar,
            spacing_um=spacing_um,
            n_sites=n_sites,
        )

    def phi_from_vector_potential(self, a_x):
        k = self.constants
        return k.charge * a_x / (2 * k.hbar * k.c)

    def vector_potential_from_phi(self, phi):
        k = self.constants
        return 2 * k.hbar * k.c * phi / k.charge

    def momentum_from_k(self, k_dimless):
        return self.constants.hbar * k_dimless

    def k_from_momentum(self, p):
        return p / self.constants.hbar

    @classmethod
    def identity_embedding(cls, params: SuperlatticeParams) -> "DiracUnitsMap":
        """Embed lattice constants as physical ones with e = hbar = 1."""
        return cls(PhysicalConstants(
            c=params.sigma_cm,
            mass=params.delta_cm / params.sigma_cm**2,
            charge=1.0,
            hbar=1.0,
        ))


def physical_energy(p, constants: PhysicalConstants) -> float:
    """eps(p) with hbar eps = sqrt(p^2 c^2 + (m c^2)^2); frequency units."""
    k = constants
    return float(np.sqrt((p * k.c) ** 2 + (k.mass * k.c**2) ** 2) / k.hbar)


def _dirac_terms(p, a_x, constants: PhysicalConstants):
    """(Z11, Z12) of the driven massive particle; a_x may be an array."""
    k = constants
    eps = physical_energy(p, constants)
    if eps == 0.0:
        raise DegenerateGapError("eps(p) vanished: massless state at p = 0")
    z11 = eps - p * k.c * k.charge * a_x / (k.hbar**2 * eps)
    z12 = -k.mass * k.c**2 * k.charge * a_x / (k.hbar**2 * eps)
    return z11, z12


def coupling_matrix_dirac(p, a_x, constants: PhysicalConstants) -> CouplingMatrix:
    """Occupation-amplitude coupling of the driven massive particle at momentum p."""
    return CouplingMatrix(*map(float, _dirac_terms(p, a_x, constants)))


@dataclass
class TwoLevelTrajectory:
    z: np.ndarray
    r: np.ndarray  # (n_snapshots, 2) complex, columns (r_minus, r_plus)
    q: float
    matrix_kind: MatrixKind

    @property
    def transition_probability(self):
        return np.abs(self.r[:, 1]) ** 2

    @property
    def norm(self):
        return np.sum(np.abs(self.r) ** 2, axis=1)

    @property
    def final(self) -> TwoLevelState:
        return TwoLevelState(complex(self.r[-1, 0]), complex(self.r[-1, 1]),
                             float(self.z[-1]), self.q)


def _matrix_coefficients(kind, q, params, phis):
    """Vectorized (z11, z12) arrays for precomputed phase samples."""
    kind = MatrixKind(kind)
    if kind is MatrixKind.FULL:
        return _full_terms(q, phis, params)
    k = zone_edge_k(q, params)
    if kind is MatrixKind.REDUCED:
        return _reduced_terms(k, phis, params)
    # DIRAC: the reduced algebra through the units map, so the
    # physical-units formulas are exercised end to end
    umap = DiracUnitsMap.identity_embedding(params)
    return _dirac_terms(umap.momentum_from_k(k),
                        umap.vector_potential_from_phi(phis), umap.constants)


@dataclass(frozen=True)
class TwoLevelRun:
    """One validated run: its initial state, its step grid ``(n, h)``, its
    snapshot stride and ``coefficients(zs) -> (z11, z12)`` at z samples."""

    state: TwoLevelState
    matrix_kind: MatrixKind
    n: int
    h: float
    stride: int
    coefficients: Callable


def plan_run(state: TwoLevelState, profile: drv.DriveProfile,
             params: SuperlatticeParams, matrix_kind=MatrixKind.FULL,
             z_end: float = None, dz: float = None,
             snapshot_every: int = 1) -> TwoLevelRun:
    """Validate the arguments of ``evolve`` and return the run they define.

    Coefficients are evaluated block by block while stepping, so they are
    evaluated here once at the two ends of the half-step grid: the drive's
    z-range check and the coupling's gap check then fail before any step.
    """
    if z_end is None:
        raise ParameterError("z_end is required")
    if abs(state.norm - 1.0) > 1e-9:
        raise ParameterError("initial occupations must satisfy |r-|^2 + |r+|^2 = 1")
    if dz is None:
        dz = default_dz(profile)
    n, h = step_grid(z_end - state.z, dz)
    stride = snapshot_stride(snapshot_every, n)
    kind = MatrixKind(matrix_kind)

    def coefficients(zs):
        return _matrix_coefficients(kind, state.q, params,
                                    drv.phase(profile, zs))

    coefficients(state.z + np.array([0, 2 * n]) * (h / 2))
    return TwoLevelRun(state, kind, n, h, stride, coefficients)


def _stacked_coefficients(runs):
    """``coefficients(zs)`` of the runs side by side, one column each."""
    def coefficients(zs):
        cols = [run.coefficients(zs) for run in runs]
        return (np.stack([c[0] for c in cols], axis=1),
                np.stack([c[1] for c in cols], axis=1))
    return coefficients


def evolve_batch(runs) -> list:
    """Advance runs sharing one start z, step grid and snapshot stride
    together; each trajectory equals that of a separate ``evolve`` call bit
    for bit.  The norm-drift check is left to ``check_norm``, per run."""
    z0, n, h, stride = grid = (runs[0].state.z, runs[0].n, runs[0].h,
                               runs[0].stride)
    if any((r.state.z, r.n, r.h, r.stride) != grid for r in runs):
        raise ParameterError(
            "batched runs must share start z, step grid and snapshot stride")
    steps = snapshot_steps(n, stride)
    # (n_snapshots, B, 2), columns (r_minus, r_plus)
    r = np.empty((len(steps), len(runs), 2), dtype=complex)
    # TREE_RUNS runs at a time keep the full-length blocks, so every run
    # gets the same blocks as a single run
    for c in range(0, len(runs), TREE_RUNS):
        chunk = runs[c:c + TREE_RUNS]
        r[:, c:c + TREE_RUNS] = _advance(
            [(run.state.r_minus, run.state.r_plus) for run in chunk],
            _stacked_coefficients(chunk), z0, n, h, steps)
    z = z0 + steps * h
    return [TwoLevelTrajectory(z.copy(), r[:, b].copy(), float(run.state.q),
                               run.matrix_kind)
            for b, run in enumerate(runs)]


def check_norm(traj: TwoLevelTrajectory, h: float):
    """Raise AccuracyError unless the final occupation norm is within 1e-8."""
    drift = abs(traj.norm[-1] - 1.0)
    if not drift <= 1e-8:
        raise AccuracyError(
            f"occupation norm drifted by {drift:.2e}; retry with dz = {h / 2:.3e}")


def evolve(state: TwoLevelState, profile: drv.DriveProfile,
           params: SuperlatticeParams, matrix_kind=MatrixKind.FULL,
           z_end: float = None, dz: float = None,
           snapshot_every: int = 1) -> TwoLevelTrajectory:
    """Fixed-step fourth-order Magnus integration of the occupation
    amplitudes, each step an exact SU(2) map.

    The drive phase is sampled once on the half-step grid, so each step
    reads exact values at its start, middle and end and trajectories are
    bit-reproducible.  A step too coarse for the generator (step angle
    above ``integrate.MAX_STEP_ANGLE``) fails the norm check as NaN.
    """
    run = plan_run(state, profile, params, matrix_kind, z_end, dz,
                   snapshot_every)
    traj, = evolve_batch([run])
    check_norm(traj, run.h)
    return traj


def transition_probability(profile: drv.DriveProfile, params: SuperlatticeParams,
                           q, matrix_kind=MatrixKind.FULL, drive_length: float = None,
                           dz: float = None) -> float:
    """P = |r_plus|^2 after the drive-on interval [0, drive_length].

    For sinusoidal drives the interval must be a whole number of cycles
    (the phase then vanishes at both ends and P is frozen afterwards);
    tabulated drives are exempt from the check.
    """
    if drive_length is None:
        if profile.kind in (drv.DriveKind.SINUSOIDAL, drv.DriveKind.SINGLE_CYCLE):
            drive_length = profile.period_cm
        else:
            raise ParameterError("drive_length is required for this profile kind")
    if profile.kind is drv.DriveKind.SINUSOIDAL:
        cycles = drive_length / profile.period_cm
        if abs(cycles - round(cycles)) > 1e-9:
            raise ParameterError(
                "drive-on interval must be an integer number of cycles")
    traj = evolve(ground_state(q, params), profile, params, matrix_kind,
                  z_end=drive_length, dz=dz, snapshot_every=10**9)
    return float(traj.transition_probability[-1])


def _mean_splitting(q, phis, params: SuperlatticeParams) -> float:
    """Mean of the splitting w(qa - phi) over phase samples."""
    qa = float(q) * params.spacing_cm
    return float(_splitting(qa - phis, params).mean())


def quasi_energy(q, phi0, params: SuperlatticeParams) -> float:
    """Cycle-averaged splitting for a sinusoidal drive of amplitude phi0.

    The integrand is smooth and periodic, so the periodic trapezoid rule
    converges spectrally: 4096 nodes are within 1e-11 relative of the limit
    for |phi0| up to about 110, and 4e-8 off at 200.  Independent of the
    period.
    """
    y = np.arange(4096) * (2 * np.pi / 4096)
    return _mean_splitting(q, phi0 * np.sin(y), params)


def quasi_energy_for_drive(q, profile: drv.DriveProfile,
                           params: SuperlatticeParams, n: int = 4096) -> float:
    """Cycle-averaged splitting for an arbitrary periodic drive profile."""
    y = np.arange(n) * (2 * np.pi / n)
    return _mean_splitting(
        q, drv.phase(profile, profile.period_cm * y / (2 * np.pi)), params)


def resonance_period(n: int, q, phi0, params: SuperlatticeParams) -> float:
    """Drive period satisfying the n-quantum resonance n 2 pi / Lambda = 2 E(q).

    For a sinusoidal drive at fixed phi0 the quasi-energy does not depend on
    the period, so the solve is direct.
    """
    if n < 1:
        raise ParameterError("photon order n must be >= 1")
    return float(n * np.pi / quasi_energy(q, phi0, params))
