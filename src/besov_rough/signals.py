"""Reference signals: step functions, sawtooth packets, log-log spikes,
random piecewise-linear / trigonometric / Brownian test paths.
"""
from __future__ import annotations

import numpy as np

from .grid import GridPath, UniformGrid

__all__ = [
    "heaviside",
    "sawtooth",
    "loglog_signal",
    "pw_linear_random",
    "smooth_random",
    "brownian_path",
    "dyadic_time_change",
]


def heaviside(grid: UniformGrid) -> GridPath:
    """0 before T/2, 1 from it on."""
    t = grid.times()
    values = (t >= 0.5 * grid.horizon - 1e-15 * grid.horizon).astype(float)
    return GridPath(grid, values)


def sawtooth(grid: UniformGrid, n: int, alpha: float) -> GridPath:
    """Oscillation packet 2^{-alpha*n} * tri(2^n t/T) with unit-peak teeth.

    tri is 1-periodic, piecewise linear, tri(0)=0, tri(1/2)=1.  The grid must
    resolve the teeth (level >= n+1) so every extremum is a node; the exact
    r-variation is then (2^{n+1})^{1/r} * 2^{-alpha*n} by the zigzag partition.
    """
    if grid.level < n + 1:
        raise ValueError(f"level {grid.level} cannot resolve 2^{n} teeth")
    x = grid.times() / grid.horizon
    frac = (x * (1 << n)) % 1.0
    tri = 2.0 * np.minimum(frac, 1.0 - frac)
    return GridPath(grid, (2.0 ** (-alpha * n)) * tri)


def loglog_signal(grid: UniformGrid) -> GridPath:
    """chi(t) * log|log t| with a smooth cutoff chi (1 on [0,1/4], 0 past 1/2).

    Unbounded at 0 but critical-Besov finite; node 0 is sampled a quarter-cell
    in, since the pointwise value at t=0 is not defined.
    """
    t = grid.times().copy()
    t[0] = grid.mesh / 4.0
    x = t / grid.horizon
    chi = np.where(
        x <= 0.25, 1.0, np.where(x >= 0.5, 0.0, 0.5 * (1 + np.cos(np.pi * (4 * x - 1))))
    )
    values = chi * np.log(np.abs(np.log(np.minimum(x, 0.999999))))
    return GridPath(grid, values)


def pw_linear_random(
    grid: UniformGrid, rng: np.random.Generator, breaks_level: int = 4, dim: int = 1
) -> GridPath:
    """Piecewise-linear path with random values at the level-`breaks_level` nodes."""
    breaks_level = min(breaks_level, grid.level)
    knots = rng.standard_normal(((1 << breaks_level) + 1, dim))
    t = grid.times() / grid.horizon
    tk = np.linspace(0.0, 1.0, (1 << breaks_level) + 1)
    values = np.column_stack([np.interp(t, tk, knots[:, j]) for j in range(dim)])
    return GridPath(grid, values)


def smooth_random(grid: UniformGrid, rng: np.random.Generator) -> GridPath:
    """Scalar random trigonometric polynomial of 6 modes; coefficients decay
    like 1/k^2."""
    t = grid.times() / grid.horizon
    values = np.zeros(grid.n)
    a = rng.standard_normal(6) / np.arange(1, 7) ** 2
    b = rng.standard_normal(6) / np.arange(1, 7) ** 2
    for k in range(6):
        values += a[k] * np.sin(2 * np.pi * (k + 1) * t)
        values += b[k] * (np.cos(2 * np.pi * (k + 1) * t) - 1.0)
    return GridPath(grid, values)


def brownian_path(
    grid: UniformGrid, rng: np.random.Generator, dim: int = 1
) -> GridPath:
    """Brownian sample on the grid: independent N(0, mesh) increments."""
    incs = rng.standard_normal((grid.n_cells, dim)) * np.sqrt(grid.mesh)
    values = np.vstack([np.zeros((1, dim)), np.cumsum(incs, axis=0)])
    return GridPath(grid, values)


def dyadic_time_change(
    path: GridPath, knots_from: np.ndarray, knots_to: np.ndarray
) -> GridPath:
    """Reparametrize by the piecewise-linear bijection mapping knots_from onto
    knots_to (both in [0,1], dyadic, increasing).  Sample nodes that land off
    the grid are rounded to the nearest node.
    """
    grid = path.grid
    x = grid.times() / grid.horizon
    phi = np.interp(x, knots_from, knots_to)
    idx = np.clip(np.rint(phi * grid.n_cells).astype(int), 0, grid.n_cells)
    return GridPath._from_planes(grid, path.planes[:, idx])
