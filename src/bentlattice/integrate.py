"""The fixed-step rule shared by the propagating tiers, their snapshot
schedule and half-step blocks, and the two steppers that read them.

Deterministic trajectories are a repo-wide requirement, so every
propagating tier (two-level, tight-binding, spinor, BPM) steps the same
way: a default target step per drive, a fixed step chosen to divide the
span exactly, no adaptivity, no randomness.

The composed stepper ``_advance`` moves a batch of 2x2 problems
i dy/dz = [[-a, b], [b, a]] y by products of closed-form fourth-order
Magnus step maps (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151),
each an exact SU(2) exponential [[p, s], [-s*, p*]] held as the complex
pair (p, s), and reads snapshots off each block's product tree.  It serves
the two-level tier and every periodic lattice run, where each Bloch
momentum is its own sublattice pair.  ``rk4_evolve`` steps a state vector
one RK4 step at a time and serves only the hard-wall lattice runs, which
do not split by momentum; they step the gauged equations, bare-gauge runs
included, whose snapshots are the gauge image of the gauged run.
These two and the Strang loops ``dirac.dirac_evolve`` and ``bpm.bpm_run``
share one contract: the start z0, the step grid ``(n, h)``, the sorted
``snapshot_steps`` (0 and n included) and checks at the block ends of
``half_step_blocks`` (an optional ``monitor(i, y)`` here, the packet-edge
check of the spinor loop), so this module alone decides which steps are
snapshots and where blocks end.
"""

from __future__ import annotations

import math

import numpy as np

from . import drive as drv
from .errors import ParameterError

# steps per block of drive samples on the half-step grid and between the
# in-run checks of hard-wall lattice runs and the spinor tier
BLOCK_STEPS = 256
# steps per block of the composed stepper for up to TREE_RUNS columns; a
# wider batch takes blocks shorter by the power of two that keeps a block's
# arrays at TREE_STEPS * TREE_RUNS values.  Blocks start at step 0, so every
# state depends on its step index and the batch width alone, not on the
# snapshot stride
TREE_STEPS = 2048
TREE_RUNS = 8
# step-count ceiling of one run, 1000 times the longest preset's 100k
# steps: a step grid above it would run for days, so it is an input error
MAX_STEPS = 10**8
# largest step angle theta of a Magnus step map; the presets reach 6.3e-3,
# and one RK4 step at h |G| = 0.094 drifted the norm by the 1e-8 tolerance
MAX_STEP_ANGLE = 0.1
# RK4's stability limit h |lambda| on the imaginary axis
RK4_STABILITY_LIMIT = 2 * math.sqrt(2)
_TINY = np.finfo(float).tiny


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


def snapshot_steps(n: int, snapshot_every) -> np.ndarray:
    """Step indices of the snapshots of an n-step run: every
    ``snapshot_every`` steps from 0, and n; None keeps only 0 and n."""
    if snapshot_every is not None and snapshot_every < 1:
        raise ParameterError(
            f"snapshot_every must be >= 1, got {snapshot_every!r}")
    steps = np.arange(0, n + 1, snapshot_every or n)
    return steps if steps[-1] == n else np.append(steps, n)


def half_step_blocks(z0: float, n: int, h: float, block: int = BLOCK_STEPS):
    """Blocks ``(i0, i1, zs)`` of an n-step grid from z0: steps i0..i1-1
    and their half-step samples ``zs = z0 + arange(2 i0, 2 i1 + 1) h/2``.

    Drive values are evaluated once per sample, one vectorised call per
    block, and step i reads samples 2i, 2i+1 and 2i+2 (its start, middle
    and end); blocks of ``block`` steps keep memory bounded at any length.
    """
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        yield i0, i1, z0 + np.arange(2 * i0, 2 * i1 + 1) * (h / 2)


def _step_maps(a, b, h):
    """Fourth-order Magnus step maps R = [[p, s], [-s*, p*]] of the m steps
    whose half-step samples ``(a, b)`` have 2m + 1 rows, as one complex
    array ``(p, s)`` of shape (2, M, B); rows m..M-1 of the power-of-two
    M >= m hold the identity map.

    The generator G_j = [[-a_j, b_j], [b_j, a_j]] = n_j . sigma with
    n_j = (b_j, 0, -a_j) at the step's start, middle and end (j = 0, 1, 2)
    gives the Magnus exponent -i h (G0 + 4 G1 + G2)/6 - h^2 [G2, G0]/12
    = -i v . sigma, v = h (n0 + 4 n1 + n2)/6 + h^2 (n2 x n0)/6, so with
    the step angle theta = |v|, R = cos theta - i sin theta v/theta . sigma
    is unitary for any step.  A theta not within ``MAX_STEP_ANGLE`` (NaN
    included) sets its Re p to NaN, which the callers' norm and power
    checks report.
    """
    a0, a1, a2 = a[:-2:2], a[1::2], a[2::2]
    b0, b1, b2 = b[:-2:2], b[1::2], b[2::2]
    m = len(a1)
    out = np.zeros((2, 1 << (m - 1).bit_length(), a1.shape[1]), dtype=complex)
    out[0, m:] = 1.0
    p, s = out[:, :m]
    pr, pi, sr, si = p.real, p.imag, s.real, s.imag
    # Im p, Re s, Im s are -v_z, -v_y, -v_x times sin theta / theta
    np.add(a0, a2, out=pi)
    pi += 4 * a1
    pi *= h / 6
    np.add(b0, b2, out=si)
    si += 4 * b1
    si *= -h / 6
    np.multiply(a2, b0, out=sr)
    sr -= a0 * b2
    sr *= h * h / 6
    # floored at the smallest normal float, so sin theta / theta = 1 at v = 0
    theta = np.maximum(np.sqrt(pi * pi + sr * sr + si * si), _TINY)
    sin = np.sin(theta)
    # cos theta within the guard, with one transcendental call less
    np.sqrt(1.0 - sin * sin, out=pr)
    pr[~(theta <= MAX_STEP_ANGLE)] = np.nan
    ratio = sin / theta
    out[:, :m].imag *= ratio
    sr *= ratio
    return out


def _compose(x, y):
    """Product x y of maps [[p, s], [-s*, p*]] held as (p, s):
    p = p_x p_y - s_x s_y*, s = p_x s_y + s_x p_y*."""
    xp, xs = x
    yp, ys = y
    p = xp * yp
    p -= xs * np.conj(ys)
    s = xp * ys
    s += xs * np.conj(yp)
    return p, s


def _product(maps):
    """Levels of the balanced product tree of a power-of-two stack: level l
    holds the aligned products R_{(j+1) 2^l - 1} ... R_{j 2^l} of 2^l maps,
    each level one vectorised ``_compose`` of pairs of the level below, and
    the last level's one node is the whole product R_{M-1} ... R_0."""
    levels = [maps]
    while len(maps[0]) > 1:
        maps = _compose([x[1::2] for x in maps], [x[0::2] for x in maps])
        levels.append(maps)
    return levels


def _put(y, state):
    """Write states held as maps (p, s) = (y0, -y1*) into y (..., 2)."""
    y[..., 0] = state[0]
    y[..., 1] = -np.conj(state[1])


def _advance(y0, coefficients, z0, n, h, steps, monitor=None):
    """Step the B states ``y0`` (B, 2) of i dy/dz = [[-a, b], [b, a]] y
    from z0 over n Magnus steps of h; return their states after ``steps``
    steps (sorted, 0 and n included), shaped (len(steps), B, 2).

    ``coefficients(zs) -> (a, b)`` gives the generator at a block's
    half-step samples, each of shape (2m + 1, B); blocks hold
    ``TREE_STEPS`` steps for up to ``TREE_RUNS`` states and fewer for more.
    A state (y0, y1) rides as the map with p = y0, s = -y1*, whose first
    column it is.  The chain moves from block end to block end by the top
    node of the block's product tree, scaled to |p|^2 + |s|^2 = 1.  The
    state after t steps inside a block applies to the block's start state
    the tree nodes of t's binary digits, from the highest digit down, one
    vectorised ``_compose`` per level over the snapshots with that digit
    set; snapshots never feed the chain.  ``monitor(i, y)`` sees the states
    y (B, 2) after each block's last step i.

    Overflowing generators and steps above ``MAX_STEP_ANGLE`` leave NaN in
    their own columns without numpy warnings; the callers' norm, power and
    finiteness checks report them.
    """
    out = np.empty((len(steps), len(y0), 2), dtype=complex)
    y0 = np.asarray(y0, dtype=complex)
    state = y0[:, 0], -np.conj(y0[:, 1])
    block = max(1, TREE_STEPS >> ((len(y0) - 1) // TREE_RUNS).bit_length())
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i0, i1, zs in half_step_blocks(z0, n, h, block):
            if steps[k] == i0:
                _put(out[k], state)
                k += 1
            levels = _product(_step_maps(*coefficients(zs), h))
            j = np.searchsorted(steps, i1)
            if j > k:
                t = steps[k:j] - i0
                ys = [np.repeat(x[None], len(t), axis=0) for x in state]
                for nodes in levels[-2::-1]:
                    # each node of this level spans this many steps
                    span = len(levels[0][0]) // len(nodes[0])
                    sel = np.flatnonzero(t & span)
                    node = [x[t[sel] // span - 1] for x in nodes]
                    for y, v in zip(ys, _compose(node, [y[sel] for y in ys])):
                        y[sel] = v
                _put(out[k:j], ys)
                k = j
            # a unit block product keeps rounding from adding up along the
            # chain, as when a straight axis repeats one map; NaN stays NaN
            total = np.array([x[0] for x in levels[-1]])
            total /= np.sqrt(np.sum(total.real ** 2 + total.imag ** 2, axis=0))
            state = _compose(total, state)
            if monitor is not None:
                y = np.empty_like(out[0])
                _put(y, state)
                monitor(i1, y)
    _put(out[k], state)
    return out


def rk4_evolve(rhs, samples, y0, z0, n, h, steps, monitor=None):
    """Step the state vector ``y0`` of dy/dz = rhs(d, y) from z0 over n
    fixed RK4 steps of h; return its states after ``steps`` steps (sorted,
    0 and n included), shaped (len(steps),) + y0.shape.

    The drive enters only through ``samples(zs)``, the sequence of drive
    values ``d`` at the half-step samples of a block (``half_step_blocks``).
    ``monitor(i, y)`` sees the state y after each block's last step i, as
    in ``_advance``.  An overflowing state turns NaN without numpy
    warnings, as there; the monitor's power check reports it.
    """
    out = np.empty((len(steps),) + np.shape(y0), dtype=complex)
    out[0] = y0
    y = out[0]
    # the next snapshot index as a Python int, for the test after each step
    targets = steps.tolist()
    k = 1
    h2, h6 = 0.5 * h, h / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i0, i1, zs in half_step_blocks(z0, n, h):
            d = samples(zs)
            for i in range(i0, i1):
                j = 2 * (i - i0)
                k1 = rhs(d[j], y)
                k2 = rhs(d[j + 1], y + h2 * k1)
                k3 = rhs(d[j + 1], y + h2 * k2)
                k4 = rhs(d[j + 2], y + h * k3)
                y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if i + 1 == targets[k]:
                    out[k] = y
                    k += 1
            if monitor is not None:
                monitor(i1, y)
    return out
