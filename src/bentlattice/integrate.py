"""The fixed-step rule shared by the propagating tiers, the half-step
grid of the RK4 steppers, and the RK4 integrator of the lattice tier.

Deterministic trajectories are a repo-wide requirement, so every
propagating tier (two-level, tight-binding, spinor, BPM) steps the same
way: a default target step per drive, a fixed step chosen to divide the
span exactly, no adaptivity, no randomness.
"""

from __future__ import annotations

import math

import numpy as np

from . import drive as drv
from .errors import ParameterError

# steps per block of drive samples on the half-step grid
BLOCK_STEPS = 256
# step-count ceiling of one run, 1000 times the longest preset's 100k
# steps: a step grid above it would run for days, so it is an input error
MAX_STEPS = 10**8
# steps between the in-run checks of the lattice and spinor tiers (power
# drift, edge density): a fault between snapshots ends the run early
CHECK_EVERY = 200


def default_dz(profile: drv.DriveProfile) -> float:
    """Default target step: 2000 steps per period of a bent drive, else 5e-4 cm."""
    if profile.kind in (drv.DriveKind.SINUSOIDAL, drv.DriveKind.SINGLE_CYCLE):
        return profile.period_cm / 2000.0
    return 5.0e-4


def step_grid(span: float, dz: float):
    """``(n, h)``: n = max(1, round(span/dz)) fixed steps of h = span/n,
    at most ``MAX_STEPS``."""
    if not (0 < span < math.inf and 0 < dz < math.inf
            and math.isfinite(span / dz)):
        raise ParameterError("integration span and step dz must be finite and "
                             f"positive, got span = {span!r}, dz = {dz!r}")
    if span / dz > MAX_STEPS:
        raise ParameterError(
            f"step dz = {dz!r} gives n = {span / dz:.3g} steps over span = "
            f"{span!r}, above the ceiling of {MAX_STEPS}; increase dz")
    n = max(1, int(round(span / dz)))
    return n, span / n


def snapshot_stride(snapshot_every, n: int) -> int:
    """Steps between snapshots; None keeps only the initial and final states."""
    if snapshot_every is not None and snapshot_every < 1:
        raise ParameterError(
            f"snapshot_every must be >= 1, got {snapshot_every!r}")
    return n if snapshot_every is None else snapshot_every


def half_step_blocks(z0: float, n: int, h: float, block: int = BLOCK_STEPS):
    """Blocks ``(i0, i1, zs)`` of an n-step grid from z0: steps i0..i1-1
    and their half-step samples ``zs = z0 + arange(2 i0, 2 i1 + 1) h/2``.

    Drive values are evaluated once per sample, one vectorised call per
    block, and the four RK4 stages of step i read samples 2i, 2i+1, 2i+1
    and 2i+2; blocks of ``block`` steps keep memory bounded at any length.
    """
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        yield i0, i1, z0 + np.arange(2 * i0, 2 * i1 + 1) * (h / 2)


def rk4_evolve(rhs, samples, y0, z0, z1, dz, snapshot_every=None,
               callback=None):
    """Integrate dy/dz = rhs(d, y) from z0 to z1 with fixed RK4 steps.

    The drive enters only through ``samples(zs)``, the sequence of drive
    values ``d`` at the half-step samples of a block (``half_step_blocks``).
    The step comes from ``step_grid``, so the endpoint is hit exactly.
    Returns ``(z_snapshots, y_snapshots)`` with the initial and final
    states always included.  ``callback(i_step, z, y)`` runs after every
    accepted step (used for conservation monitoring).
    """
    n, h = step_grid(z1 - z0, dz)
    snapshot_every = snapshot_stride(snapshot_every, n)
    zs = [z0]
    ys = [np.array(y0, copy=True)]
    y = np.array(y0, copy=True)
    h2, h6 = 0.5 * h, h / 6.0
    for i0, i1, z_half in half_step_blocks(z0, n, h):
        d = samples(z_half)
        for i in range(i0, i1):
            j = 2 * (i - i0)
            k1 = rhs(d[j], y)
            k2 = rhs(d[j + 1], y + h2 * k1)
            k3 = rhs(d[j + 1], y + h2 * k2)
            k4 = rhs(d[j + 2], y + h * k3)
            y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            z = z0 + (i + 1) * h
            if callback is not None:
                callback(i, z, y)
            if (i + 1) % snapshot_every == 0 or i == n - 1:
                zs.append(z)
                ys.append(y)
    return np.array(zs), np.array(ys)
