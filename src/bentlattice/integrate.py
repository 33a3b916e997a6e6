"""The fixed-step rule shared by the propagating tiers, and the RK4 integrator.

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


def default_dz(profile: drv.DriveProfile) -> float:
    """Default target step: 2000 steps per period of a bent drive, else 5e-4 cm."""
    if profile.kind in (drv.DriveKind.SINUSOIDAL, drv.DriveKind.SINGLE_CYCLE):
        return profile.period_cm / 2000.0
    return 5.0e-4


def step_grid(span: float, dz: float):
    """``(n, h)``: n = max(1, round(span/dz)) fixed steps of h = span/n."""
    if not (0 < span < math.inf and 0 < dz < math.inf
            and math.isfinite(span / dz)):
        raise ParameterError("integration span and step dz must be finite and "
                             f"positive, got span = {span!r}, dz = {dz!r}")
    n = max(1, int(round(span / dz)))
    return n, span / n


def snapshot_stride(snapshot_every, n: int) -> int:
    """Steps between snapshots; None keeps only the initial and final states."""
    if snapshot_every is not None and snapshot_every < 1:
        raise ParameterError(
            f"snapshot_every must be >= 1, got {snapshot_every!r}")
    return n if snapshot_every is None else snapshot_every


def rk4_step(rhs, z, y, dz):
    k1 = rhs(z, y)
    k2 = rhs(z + 0.5 * dz, y + 0.5 * dz * k1)
    k3 = rhs(z + 0.5 * dz, y + 0.5 * dz * k2)
    k4 = rhs(z + dz, y + dz * k3)
    return y + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_evolve(rhs, y0, z0, z1, dz, snapshot_every=None, callback=None):
    """Integrate dy/dz = rhs(z, y) from z0 to z1 with fixed RK4 steps.

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
    z = z0
    for i in range(n):
        y = rk4_step(rhs, z, y, h)
        z = z0 + (i + 1) * h
        if callback is not None:
            callback(i, z, y)
        if (i + 1) % snapshot_every == 0 or i == n - 1:
            zs.append(z)
            ys.append(np.array(y, copy=True))
    return np.array(zs), np.array(ys)
