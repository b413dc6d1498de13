"""Grid and substep bookkeeping for the fixed-step classic Runge-Kutta loops.

Both integrators in this package (the linear reference integrator and the
nonlinear gauge-parameter flow) use the classic 4th-order scheme with a fixed
substep.  Each output interval [t_i, t_{i+1}] is cut into m equal substeps of
width h <= step, and the right-hand side is evaluated on the 2m+1 node times
t_i + j*h/2.  Planning the nodes up front lets the bath controls be evaluated
for a whole trajectory in one vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = ["SubstepPlan", "uniform_grid", "plan_substeps", "default_step", "check_grid",
           "plan_integration"]


def uniform_grid(t_max: float, dt: float) -> np.ndarray:
    """Evenly spaced output times 0, dt, 2 dt, ..., t_max.

    t_max must be an integer multiple of dt (within a relative 1e-9).
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise InvalidInputError("t_max must be finite and > 0, got %r" % (t_max,))
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInputError("dt must be finite and > 0, got %r" % (dt,))
    n = int(round(t_max / dt))
    if n < 1 or abs(n * dt - t_max) > 1e-9 * max(1.0, t_max):
        raise InvalidInputError(
            "t_max = %r is not an integer multiple of dt = %r" % (t_max, dt)
        )
    return np.linspace(0.0, t_max, n + 1)


def check_grid(grid: np.ndarray) -> np.ndarray:
    """Validate an output grid: 1-D, starting at 0, strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise InvalidInputError("grid must be a non-empty 1-D array of times")
    if not np.all(np.isfinite(grid)):
        raise InvalidInputError("grid times must be finite")
    if grid[0] != 0.0:
        raise InvalidInputError("grid must start at t = 0, got %r" % (grid[0],))
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise InvalidInputError("grid times must be strictly increasing")
    return grid


@dataclass(frozen=True)
class SubstepPlan:
    """Substep layout for one grid.

    nodes holds the concatenated node times of all intervals; interval i uses
    counts[i] substeps of width widths[i], and its nodes start at offsets[i].
    Substep k of interval i runs from node offsets[i] + 2k over the midpoint
    node +1 to the end node +2.
    """

    nodes: np.ndarray
    offsets: np.ndarray
    counts: np.ndarray
    widths: np.ndarray


def plan_substeps(grid: np.ndarray, step: float) -> SubstepPlan:
    """Cut every grid interval into equal substeps no wider than step."""
    if not step > 0.0:
        raise InvalidInputError("step must be > 0, got %r" % (step,))
    spans = np.diff(grid)
    counts = np.maximum(1, np.ceil(spans / step - 1e-9)).astype(int)
    widths = spans / counts
    sizes = 2 * counts + 1
    offsets = np.cumsum(sizes) - sizes
    # node j of an interval is t0 + j * span / (2m) and its last node is t1,
    # exactly as np.linspace(t0, t1, 2m + 1) computes them
    j = np.arange(int(np.sum(sizes))) - np.repeat(offsets, sizes)
    nodes = j * np.repeat(spans / (2 * counts), sizes) + np.repeat(grid[:-1], sizes)
    nodes[offsets + sizes - 1] = grid[1:]
    return SubstepPlan(nodes=nodes, offsets=offsets, counts=counts, widths=widths)


def default_step(gamma_values: np.ndarray) -> float:
    """Default integrator substep 1e-3 in units of the largest coupling rate."""
    gmax = float(np.max(gamma_values)) if np.size(gamma_values) else 0.0
    if gmax <= 0.0:
        return math.inf
    return 1e-3 / gmax


def plan_integration(schedule, grid: np.ndarray, step: float | None):
    """The checked grid, its substep plan and (gamma, N, M) at the plan's nodes.

    The shared preamble of both integrators.  step must be > 0 and no wider
    than the smallest grid spacing; None means default_step of gamma on the
    grid.  The node arrays are empty when the grid is a single time.
    """
    grid = check_grid(grid)
    if step is not None:
        if not step > 0.0:
            raise InvalidInputError("step must be > 0, got %r" % (step,))
        if grid.size > 1:
            spacing = float(np.min(np.diff(grid)))
            if step > spacing * (1.0 + 1e-9):
                raise InvalidInputError(
                    "internal step %r exceeds smallest grid spacing %r" % (step, spacing)
                )
    gamma_grid, _, _ = schedule.params_on(grid)
    if step is None:
        step = default_step(gamma_grid)
    plan = plan_substeps(grid, step)
    if not plan.nodes.size:
        return grid, plan, (np.zeros(0), np.zeros(0), np.zeros(0, dtype=complex))
    return grid, plan, schedule.params_on(plan.nodes)
