"""Grid and substep bookkeeping for the fixed-step classic Runge-Kutta loops.

Both integrators in this package (the linear reference integrator and the
nonlinear gauge-parameter flow) use the classic 4th-order scheme with a fixed
substep.  Unless a caller sets one, the step is default_step's, which follows
the fastest relaxation rate gamma (2N + 1) the controls can reach up to the
grid's end and how fast they vary; the CLI's grid.dt_int=auto resolves to
that number too.  Each output interval [t_i, t_{i+1}] is cut into m equal
substeps of width h <= step, and the right-hand side is evaluated on the
2m+1 node times t_i + j*h/2, of which neighbouring intervals share the
boundary node.  Both integrators walk the grid in chunks of whole intervals
holding at most CHUNK_SUBSTEPS substeps.  A chunk's nodes are planned, and
the bath controls evaluated on them in one vectorized pass, only when the
chunk is reached, so the memory an integration needs beside its output rows
does not grow with the horizon.

Both integrators take a chunk's RK4 steps at once and reduce each interval's
steps to one by the same pairwise product, whose schedule pairing_levels
computes from the substep counts alone.  Then the same inclusive prefix
scan, whose schedule scan_levels computes from the chunk's interval count,
joins the intervals' products into the product from the chunk's start to
each of its grid times, and one batched product applies the state at the
chunk's start to all of them.  Each integrator keeps its own array layout
and composition law.  Grids whose row or substep counts would exceed
MAX_ROWS or MAX_INTERVAL_SUBSTEPS are refused before anything is allocated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = ["SubstepPlan", "uniform_grid", "plan_substeps", "default_step", "check_grid",
           "plan_integration", "pairing_levels", "scan_levels", "CHUNK_SUBSTEPS",
           "MAX_ROWS", "MAX_INTERVAL_SUBSTEPS"]

# Substeps per chunk of plan_integration.  512 and 8192 ran equally fast; far
# larger chunks only raise the peak memory of the reference's batched steps.
CHUNK_SUBSTEPS = 2048

# Largest output grid uniform_grid plans.  With the integrations chunked, the
# rows are what grows with the horizon: a trajectory run peaked at 37.8 MB with
# 10 001 rows, 75.7 MB with 100 001 and 116.7 MB with 200 001 (0.43-0.45 kB
# per row over 31 MB at rest), so 800 000 rows stay near 390 MB, under 1 GB.
MAX_ROWS = 800_000

# Most substeps plan_substeps cuts one grid interval into.  An interval is
# never split across chunks, and inside one the reference holds 1 065 B per
# substep and the gauge route 840 B, so 400 000 substeps stay near 430 MB.
MAX_INTERVAL_SUBSTEPS = 400_000


def uniform_grid(t_max: float, dt: float) -> np.ndarray:
    """Evenly spaced output times 0, dt, 2 dt, ..., t_max.

    The grid may hold at most MAX_ROWS times, and t_max must be an integer
    multiple of dt (within a relative 1e-9).
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise InvalidInputError("t_max must be finite and > 0, got %r" % (t_max,))
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInputError("dt must be finite and > 0, got %r" % (dt,))
    # compared as a float before any cast: t_max / dt may exceed any int
    rows = np.rint(t_max / dt) + 1.0
    if rows > MAX_ROWS:
        raise InvalidInputError(
            "grid of %.15g rows exceeds the limit of %d rows" % (rows, MAX_ROWS)
        )
    n = int(rows) - 1
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

    Interval i is cut into counts[i] substeps of width widths[i].  Substep k
    of the grid runs from node 2k over the midpoint node 2k+1 to the end node
    2k+2, the start node of substep k+1, so grid time i+1 is exactly node
    2 cumsum(counts)[i] and a one-point grid plans the single node 0.
    """

    nodes: np.ndarray
    counts: np.ndarray
    widths: np.ndarray


def _substep_counts(spans: np.ndarray, step: float) -> np.ndarray:
    if not step > 0.0:
        raise InvalidInputError("step must be > 0, got %r" % (step,))
    # compared as floats before the cast: spans / step may exceed any int,
    # or overflow to inf, which is refused below
    with np.errstate(over="ignore"):
        counts = np.maximum(1.0, np.ceil(spans / step - 1e-9))
    if np.any(counts > MAX_INTERVAL_SUBSTEPS):
        raise InvalidInputError(
            "an interval of %.15g substeps exceeds the limit of %d substeps per interval"
            % (np.max(counts), MAX_INTERVAL_SUBSTEPS)
        )
    return counts.astype(int)


def plan_substeps(grid: np.ndarray, step: float) -> SubstepPlan:
    """Cut every grid interval into equal substeps no wider than step."""
    spans = np.diff(grid)
    counts = _substep_counts(spans, step)
    widths = spans / counts
    sizes = 2 * counts
    # node j < 2m of an interval is t0 + j * span / (2m), exactly as in
    # np.linspace(t0, t1, 2m + 1); its node 2m is the next interval's node 0
    j = np.arange(int(np.sum(sizes))) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    nodes = j * np.repeat(spans / sizes, sizes) + np.repeat(grid[:-1], sizes)
    return SubstepPlan(nodes=np.append(nodes, grid[-1]), counts=counts, widths=widths)


def default_step(schedule, grid: np.ndarray) -> float:
    """The integrator substep for a schedule on an output grid.

    1e-3 / max(peak gamma, 1), narrowed to 1e-2 over the fastest rate, and
    never wider than the smallest grid spacing.  The fastest rate is the
    larger of peak gamma times (2N + 1) at peak r, and the schedule's
    variation_rate; each peak is the control's closed-form largest value
    over [0, t_end] (its peak method), so a rate that the controls reach
    only between grid times counts too.  The solution relaxes at rates up
    to gamma (2N + 1) (closed_form_spectrum), and the controls change at
    their variation_rate, so the second term keeps each substep's RK4 error
    small under strong squeezing, a hot reservoir or fast controls; where
    both rates are at most 10 the first term decides, and a weak or absent
    coupling still gets 1e-3.  The controls are first evaluated on the grid,
    which refuses a bad value there with params_on's message; a rate past
    the float range is refused too.
    """
    grid = check_grid(grid)
    schedule.params_on(grid)  # refuses a bad control at a grid time, with its message
    t_end = float(grid[-1])
    gamma = schedule.gamma.peak(t_end)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        if schedule.thermal:
            n = schedule.nbar
        else:
            sh = np.sinh(schedule.r.peak(t_end))
            n = sh * sh
        fastest = max(float(gamma * (2.0 * n + 1.0)), schedule.variation_rate)
    if not fastest < math.inf:
        raise InvalidInputError("relaxation rate gamma (2N + 1) exceeds the float range")
    step = 1e-3 / max(gamma, 1.0)
    if fastest > 0.0:
        step = min(step, 1e-2 / fastest)
    if grid.size > 1:
        step = min(step, float(np.min(np.diff(grid))))
    return step


def plan_integration(schedule, grid: np.ndarray, step: float | None):
    """The checked grid and an iterator over its chunks of substeps.

    The shared preamble of both integrators.  step must be > 0 and no wider
    than the smallest grid spacing; None means default_step(schedule, grid).
    Both are checked here, before any chunk is planned.

    The iterator yields (i0, plan, (gamma, N, M)) for each run of whole grid
    intervals i0 .. i1 - 1 holding at most CHUNK_SUBSTEPS substeps (an
    interval holding more is a chunk by itself): plan is
    plan_substeps(grid[i0 : i1 + 1], step) and (gamma, N, M) the controls at
    its nodes.  Chunk nodes are bitwise the nodes the whole grid would plan,
    and consecutive chunks share their boundary node.  A one-point grid
    yields one chunk of the single node.  An invalid control is refused when
    the chunk holding its first bad node is evaluated.
    """
    grid = check_grid(grid)
    if step is None:
        step = default_step(schedule, grid)
    elif grid.size > 1:
        spacing = float(np.min(np.diff(grid)))
        if step > spacing * (1.0 + 1e-9):
            raise InvalidInputError(
                "internal step %r exceeds smallest grid spacing %r" % (step, spacing)
            )
    # done[i]: substeps before grid time i
    done = np.concatenate(([0], np.cumsum(_substep_counts(np.diff(grid), step))))
    return grid, _chunks(schedule, grid, step, done)


def _chunks(schedule, grid: np.ndarray, step: float, done: np.ndarray):
    last = grid.size - 1
    i0 = 0
    while True:
        i1 = int(np.searchsorted(done, done[i0] + CHUNK_SUBSTEPS, side="right")) - 1
        i1 = min(max(i1, i0 + 1), last)
        plan = plan_substeps(grid[i0 : i1 + 1], step)
        yield i0, plan, schedule.params_on(plan.nodes)
        if i1 == last:
            return
        i0 = i1


def pairing_levels(counts: np.ndarray) -> tuple:
    """The pairwise product over runs of counts[i] steps, level by level.

    Returns one (first, then, paired) per level: a stack x of the level's
    steps, run after run, becomes the next level's stack
    where(paired, combine(x[first], x[then]), x[first]), with combine(A, B)
    the product of step A followed by step B.  Each level pairs neighbouring
    steps within a run and carries an odd run's last step up unchanged, so
    a run of c steps is one step after ceil(log2(c)) levels, a run of one is
    never touched and no step is paired across a run boundary.

    Every chunk of a uniform grid has the same counts, so the levels are
    computed once per distinct counts and returned as the same read-only
    arrays on every later call.
    """
    return _pairing_levels(np.asarray(counts, dtype=np.intp).tobytes())


# A uniform grid's chunks have at most two distinct counts (full chunks and
# the last one); a few more entries cover the grids of one command.
@functools.lru_cache(maxsize=8)
def _pairing_levels(key: bytes) -> tuple:
    counts = np.frombuffer(key, dtype=np.intp)
    size = int(np.sum(counts))
    levels = []
    while size > counts.size:
        pos = np.arange(size) - np.repeat(np.cumsum(counts) - counts, counts)  # within its run
        first = np.flatnonzero(pos % 2 == 0)
        then = np.minimum(first + 1, size - 1)
        level = (first, then, pos[then] == pos[first] + 1)
        for a in level:
            a.setflags(write=False)
        levels.append(level)
        size = first.size
        counts = (counts + 1) // 2
    return tuple(levels)


def scan_levels(size: int) -> tuple:
    """The inclusive prefix scan over a stack of size steps, level by level.

    Returns one (first, then, paired) per level, applied as the levels of
    pairing_levels are: the stack x becomes
    where(paired, combine(x[first], x[then]), x[first]).  The level of
    offset s = 1, 2, 4, ... < size replaces each entry i >= s by entry
    i - s followed by entry i and carries the entries below s up unchanged
    (Hillis and Steele; Blelloch, "Prefix sums and their applications",
    1990).  So after ceil(log2(size)) levels entry i is the product of
    steps 0 .. i in order, and entry 0 is never touched.

    Every full chunk of a grid has the same size, so the levels are computed
    once per size and returned as the same read-only arrays on every later
    call.
    """
    return _scan_levels(int(size))


@functools.lru_cache(maxsize=8)
def _scan_levels(size: int) -> tuple:
    then = np.arange(size)
    then.setflags(write=False)
    levels = []
    offset = 1
    while offset < size:
        paired = then >= offset
        first = np.where(paired, then - offset, then)
        for a in (first, paired):
            a.setflags(write=False)
        levels.append((first, then, paired))
        offset *= 2
    return tuple(levels)
